"""Finite-population Monte Carlo: per-record reference, engine agreement, halting."""

import hashlib
import subprocess
import sys

import numpy as np
import pytest

import qpurify.montecarlo as montecarlo
from qpurify.bell import BellLabel, bcnot_map, measurement_coincides, pauli_shift, rotation_step3
from qpurify.errors import ProtocolHaltError
from qpurify.flags import flag_update, record_error
from qpurify.montecarlo import (
    Ensemble,
    check_minimum_fidelity,
    init_ensemble,
    run_protocol,
    run_round,
    total_variation,
)
from qpurify.noise import NoiseModel
from qpurify.recurrence import BEFORE_BCNOT, BEFORE_ROTATION, SubensembleState, iterate

WERNER_07 = [0.7, 0.1, 0.1, 0.1]


def reference_round(ensemble, noise, placement):
    """One round walked record by record with the scalar label primitives.

    Draws the shuffle and the noise events from the same streams as
    :func:`run_round`, then pushes each (control, target, event) through
    plain-Python calls; returns the surviving records in order.
    """
    round_index = ensemble.round_counter + 1
    n = ensemble.size
    order = montecarlo._stream(ensemble.seed, montecarlo._SHUFFLE, round_index).permutation(n)
    shuffled = ensemble.pairs[order].tolist()
    m = n // 2
    events = montecarlo._sample_events_chunked(
        noise, ensemble.seed, round_index, ensemble.chunk_size, m
    ).tolist()

    def noisy(record, mu):
        flag, bell = record >> 2, BellLabel(record & 3)
        if placement == BEFORE_ROTATION:
            bell = rotation_step3(bell.shifted(pauli_shift(mu)))
        else:
            bell = rotation_step3(bell).shifted(pauli_shift(mu))
        return record_error(flag, mu), bell

    survivors = []
    for k, event in enumerate(events):
        flag1, bell1 = noisy(shuffled[2 * k], event >> 2)
        flag2, bell2 = noisy(shuffled[2 * k + 1], event & 3)
        source, target = bcnot_map(bell1, bell2)
        if measurement_coincides(target):
            survivors.append((int(flag_update(flag1, flag2)) << 2) | int(source))
    return survivors


class TestRunRoundMatchesReference:
    @pytest.mark.parametrize("placement", [BEFORE_ROTATION, BEFORE_BCNOT])
    @pytest.mark.parametrize("flag_mode", ["fixed", "random"])
    def test_record_for_record(self, placement, flag_mode):
        noise = NoiseModel.from_probabilities(np.random.default_rng(3).dirichlet(np.ones(16)))
        ensemble = init_ensemble(WERNER_07, 3001, flag_mode=flag_mode, seed=7, chunk_size=97)
        for _ in range(3):
            expected = reference_round(ensemble, noise, placement)
            stats = run_round(ensemble, noise, placement)
            assert ensemble.pairs.dtype == np.uint8
            assert ensemble.pairs.tolist() == expected
            assert stats.survivors == len(expected)

    @pytest.mark.parametrize(
        "placement, survivors, digest",
        [
            (BEFORE_ROTATION, 51, "e3d2c625a26568ed65cc3cf1c58eaac488693f7f6f12860e6027fc325488658f"),
            (BEFORE_BCNOT, 44, "0d25b26481d0b5e612eba27dd0e118a47ec6e56006fbe874e32cc5f8da4a56b7"),
        ],
    )
    def test_seed_and_chunk_size_pin_the_records(self, placement, survivors, digest):
        # digests of the surviving records after each of three rounds; a
        # change to the streams, the sampling or the table moves them
        noise = NoiseModel.from_probabilities(np.random.default_rng(3).dirichlet(np.ones(16)))
        ensemble = init_ensemble(WERNER_07, 3001, flag_mode="random", seed=7, chunk_size=97)
        sha = hashlib.sha256()
        for _ in range(3):
            run_round(ensemble, noise, placement)
            sha.update(ensemble.pairs.tobytes())
        assert ensemble.size == survivors
        assert sha.hexdigest() == digest


class TestEngineAgreement:
    def test_fig1_like_run_within_five_sigma(self):
        noise = NoiseModel.from_uniform_residual(0.97)
        bell_probs = [0.85, 0.05, 0.05, 0.05]
        rounds = 4
        ensemble = init_ensemble(bell_probs, 400_000, seed=1)
        mc = run_protocol(ensemble, noise, rounds)
        engine = iterate(SubensembleState.from_bell_probs(bell_probs), noise, max_rounds=rounds)
        assert not mc.halted
        assert mc.final.survivors > 5000
        for sample, exact in zip(mc.points, engine.points):
            n = sample.survivors
            sigma_f = np.sqrt(exact.fidelity * (1 - exact.fidelity) / n)
            sigma_c = np.sqrt(exact.conditional_fidelity * (1 - exact.conditional_fidelity) / n)
            assert abs(sample.fidelity - exact.fidelity) < 5 * sigma_f
            assert abs(sample.conditional_fidelity - exact.conditional_fidelity) < 5 * sigma_c


class TestHalting:
    def test_run_round_on_one_record_raises(self):
        ensemble = Ensemble(np.zeros(1, dtype=np.uint8), seed=0)
        with pytest.raises(ProtocolHaltError):
            run_round(ensemble, NoiseModel.identity())

    def test_run_protocol_stops_when_population_runs_out(self):
        ensemble = init_ensemble(WERNER_07, 5, seed=2)
        trajectory = run_protocol(ensemble, NoiseModel.identity(), 20)
        assert trajectory.halted
        assert trajectory.final.survivors < 2
        assert len(trajectory.points) < 21
        assert trajectory.points[0].survivors == 5


class TestValidation:
    def test_rejects_unknown_placement(self):
        ensemble = init_ensemble(WERNER_07, 100, seed=0)
        with pytest.raises(ValueError, match="placement"):
            run_round(ensemble, NoiseModel.identity(), "after_measurement")
        assert ensemble.size == 100 and ensemble.round_counter == 0


class TestMinimumFidelityCheck:
    def test_pure_population_passes_and_loses_the_sacrifice(self):
        ensemble = init_ensemble([1.0, 0.0, 0.0, 0.0], 1000, seed=0)
        check = check_minimum_fidelity(ensemble, 0.1, f_min=0.9)
        assert check.passed
        assert check.sacrificed == 100
        assert check.estimate == 1.0 and check.ci_high == 1.0
        assert 0.9 < check.ci_low < 1.0
        assert ensemble.size == 900

    def test_cli_import_leaves_scipy_unloaded(self):
        code = "import sys, qpurify.cli; sys.exit('scipy' in sys.modules)"
        assert subprocess.run([sys.executable, "-c", code]).returncode == 0


class TestTotalVariation:
    def test_identical_and_disjoint(self):
        p = np.array([0.2, 0.3, 0.5])
        assert total_variation(p, p) == 0.0
        assert total_variation([1.0, 0.0], [0.0, 1.0]) == 1.0

    def test_symmetric_half_l1(self):
        p, q = [0.5, 0.5, 0.0], [0.75, 0.0, 0.25]
        assert total_variation(p, q) == pytest.approx(0.5)
        assert total_variation(q, p) == total_variation(p, q)
