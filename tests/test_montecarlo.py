"""Finite-population Monte Carlo: exactness of the count sampler, engine agreement, halting."""

import hashlib
import itertools
import math
from collections import Counter

import numpy as np
import pytest
from scipy import stats

import qpurify.montecarlo as montecarlo
from qpurify.bell import PAULI_LABEL_SHIFT, BellLabel, bcnot_map, measurement_coincides, rotation_step3
from qpurify.errors import ProtocolHaltError
from qpurify.flags import FLAG_UPDATE_TABLE
from qpurify.montecarlo import MAX_PAIRS, Ensemble, init_ensemble, run_protocol, run_round
from qpurify.noise import NoiseModel
from qpurify.recurrence import (
    BEFORE_BCNOT,
    BEFORE_ROTATION,
    DISCARDED,
    SubensembleState,
    event_cell_table,
    flag_match_weight,
    iterate,
    phi_plus_weight,
)

PLACEMENTS = [BEFORE_ROTATION, BEFORE_BCNOT]

#: (placement, seed) -> (survivors, SHA-256 of the counts) after three rounds
#: from 3001 random-flag Werner-0.7 pairs under :func:`dirichlet_noise`.
PINNED_COUNTS = {
    (BEFORE_ROTATION, 7): (49, "e66777e23f9512d32212a5fd5f468671fe9b9e705317aa134cc7aa06449bc61f"),
    (BEFORE_ROTATION, 8): (48, "0774985948fbc2fea24940afd3facd40cfe91025fb90fffcdae9b1b28a1f0574"),
    (BEFORE_BCNOT, 7): (35, "89f11bd785114e723d9320c3bceb6f6bfa31660333de4b9a3f0a8003155340a8"),
    (BEFORE_BCNOT, 8): (37, "a3bead54fd1acaa4fc3e8203ba80d6de43b3ec815a9ddc63162b7bcffdebbbff"),
}


def werner_07(flag_mode="fixed"):
    return SubensembleState.from_bell_probs([0.7, 0.1, 0.1, 0.1], flag_mode=flag_mode)


def dirichlet_noise(seed=3):
    return NoiseModel(np.random.default_rng(seed).dirichlet(np.ones(16)))


def scalar_survivor(control, target, event, placement):
    """Output cell of one pair of pairs, walked with the scalar label primitives; None if discarded."""

    def noisy(record, mu):
        flag, bell = record >> 2, BellLabel(record & 3)
        shift = PAULI_LABEL_SHIFT[mu]
        if placement == BEFORE_ROTATION:
            bell = rotation_step3(bell.shifted(shift))
        else:
            bell = rotation_step3(bell).shifted(shift)
        return flag ^ shift, bell

    flag1, bell1 = noisy(control, event >> 2)
    flag2, bell2 = noisy(target, event & 3)
    source, target_label = bcnot_map(bell1, bell2)
    if not measurement_coincides(target_label):
        return None
    return (int(FLAG_UPDATE_TABLE[flag1, flag2]) << 2) | int(source)


def records_of(counts):
    return np.repeat(np.arange(16), counts)


def reference_round(records, noise, placement, gen):
    """Per-record reference round: shuffle, pair adjacent records, drop an odd leftover.

    Returns the 17 output counts (the last one counts discarded pairs of pairs).
    """
    shuffled = gen.permutation(records)
    m = shuffled.size // 2
    events = gen.choice(16, size=m, p=noise.f.ravel())
    cells = event_cell_table(placement)[shuffled[0 : 2 * m : 2], shuffled[1 : 2 * m : 2], events]
    return np.bincount(cells, minlength=DISCARDED + 1)


class TestRunRoundMatchesReference:
    @pytest.mark.parametrize("placement", PLACEMENTS)
    @pytest.mark.parametrize("flag_mode", ["fixed", "random"])
    def test_record_for_record(self, placement, flag_mode):
        # a shuffled per-record round, binned into event counts per
        # (control, target, event) and combined by the count round, lands
        # every record where the scalar walk puts it
        noise = dirichlet_noise()
        counts = init_ensemble(werner_07(flag_mode), 3001, seed=7).counts
        gen = np.random.default_rng(11)
        shuffled = gen.permutation(records_of(counts))
        m = shuffled.size // 2
        controls, targets = shuffled[0 : 2 * m : 2], shuffled[1 : 2 * m : 2]
        events = gen.choice(16, size=m, p=noise.f.ravel())
        walked = [scalar_survivor(c, t, e, placement) for c, t, e in zip(controls, targets, events)]
        expected = Counter(cell for cell in walked if cell is not None)

        per_cell = np.bincount((controls * 16 + targets) * 16 + events, minlength=16**3)
        combined = montecarlo._combine(per_cell, event_cell_table(placement))
        assert combined[:DISCARDED].tolist() == [expected[c] for c in range(16)]
        assert combined[DISCARDED] == walked.count(None)

    @pytest.mark.parametrize("placement", PLACEMENTS)
    @pytest.mark.parametrize("records", [[0, 7, 9, 9], [0, 0, 7, 9, 14]], ids=["N4", "N5"])
    def test_exact_enumeration(self, placement, records):
        # every ordering of the N records times every pair of noise events,
        # against the sampler's outcome frequencies over a fixed set of seeds
        noise = dirichlet_noise()
        f = noise.f.ravel()
        m = len(records) // 2
        orderings = Counter(itertools.permutations(records))  # equal records: fewer distinct orders
        total = sum(orderings.values())
        exact: Counter = Counter()
        for order, repeats in orderings.items():
            for events in itertools.product(range(16), repeat=m):
                weight = np.prod(f[list(events)]) * repeats / total
                cells = [
                    scalar_survivor(order[2 * k], order[2 * k + 1], events[k], placement)
                    for k in range(m)
                ]
                exact[tuple(sorted(c for c in cells if c is not None))] += weight
        assert sum(exact.values()) == pytest.approx(1.0)

        counts = np.bincount(records, minlength=16)
        draws = 4000
        sampled: Counter = Counter()
        for seed in range(draws):
            ensemble = Ensemble(counts, seed=seed)
            run_round(ensemble, noise, placement)
            assert ensemble.round_counter == 1
            sampled[tuple(records_of(ensemble.counts).tolist())] += 1
        assert set(sampled) <= set(exact)

        # pool outcomes expected fewer than five times into one bin
        outcomes = sorted(exact, key=exact.get, reverse=True)
        expected = np.array([exact[o] * draws for o in outcomes])
        observed = np.array([sampled[o] for o in outcomes], dtype=float)
        small = expected < 5
        expected = np.append(expected[~small], expected[small].sum())
        observed = np.append(observed[~small], observed[small].sum())
        assert stats.chisquare(observed, expected).pvalue > 1e-3

    @pytest.mark.parametrize("placement", PLACEMENTS)
    @pytest.mark.parametrize("n", [301, 3001])
    def test_moments_match_per_record_sampler(self, placement, n):
        noise = dirichlet_noise()
        counts = init_ensemble(werner_07("random"), n, seed=5).counts
        records = records_of(counts)
        repeats = 1500
        gen = np.random.default_rng(n)
        reference = np.array([reference_round(records, noise, placement, gen) for _ in range(repeats)])
        ensemble_runs = []
        for seed in range(repeats):
            ensemble = Ensemble(counts, seed=seed)
            run_round(ensemble, noise, placement)
            ensemble_runs.append(np.append(ensemble.counts, n // 2 - ensemble.size))
        sampled = np.array(ensemble_runs)

        def moments(x):
            centred = x - x.mean(axis=0)
            var = (centred**2).mean(axis=0)
            return x.mean(axis=0), var, (centred**4).mean(axis=0)

        mean_r, var_r, m4_r = moments(reference)
        mean_s, var_s, m4_s = moments(sampled)
        se_mean = np.sqrt((var_r + var_s) / repeats)
        se_var = np.sqrt((m4_r - var_r**2 + m4_s - var_s**2) / repeats)
        assert np.all(np.abs(mean_s - mean_r) <= 5 * se_mean + 1e-12)
        assert np.all(np.abs(var_s - var_r) <= 5 * se_var + 1e-12)
        assert np.all(sampled.sum(axis=1) == n // 2) and np.all(reference.sum(axis=1) == n // 2)

    @pytest.mark.parametrize("placement, seed", list(PINNED_COUNTS))
    def test_seed_pins_the_counts(self, placement, seed):
        # digests of the count vector after init and each of three rounds; a
        # change to the streams, the sampling or the table moves them
        survivors, digest = PINNED_COUNTS[placement, seed]
        noise = dirichlet_noise()
        ensemble = init_ensemble(werner_07("random"), 3001, seed=seed)
        sha = hashlib.sha256(ensemble.counts.astype("<i8").tobytes())
        for _ in range(3):
            run_round(ensemble, noise, placement)
            sha.update(ensemble.counts.astype("<i8").tobytes())
        assert ensemble.size == survivors
        assert sha.hexdigest() == digest


class TestEngineAgreement:
    def test_fig1_like_run_within_five_sigma(self):
        noise = NoiseModel.from_uniform_residual(0.97)
        rounds = 4
        initial = SubensembleState.from_bell_probs([0.85, 0.05, 0.05, 0.05])
        mc = run_protocol(init_ensemble(initial, 400_000, seed=1), noise, rounds)
        engine = iterate(initial, noise, max_rounds=rounds)
        assert not mc.halted
        assert mc.counts.shape == (rounds + 1, 16) and mc.counts.dtype == np.int64
        survivors = mc.survivors()
        assert survivors[-1] > 5000
        assert mc.rounds == engine.rounds
        sampled = zip(survivors, phi_plus_weight(mc.counts), flag_match_weight(mc.counts))
        exact = zip(engine.fidelities(), engine.conditional_fidelities())
        for (n, phi_plus, matches), (f, fc) in zip(sampled, exact):
            assert abs(phi_plus / n - f) < 5 * np.sqrt(f * (1 - f) / n)
            assert abs(matches / n - fc) < 5 * np.sqrt(fc * (1 - fc) / n)


def scalar_rows(counts):
    """Reference CSV rows, one round at a time in Python arithmetic."""
    rows, previous = [], None
    for r, row in enumerate(counts.tolist()):
        n = sum(row)
        f = sum(row[0::4]) / n if n else math.nan
        f_cond = sum(row[0::5]) / n if n else math.nan
        keep = 1.0 if previous is None else n / (previous // 2)
        stddev = math.sqrt(f * (1.0 - f) / n) if n else math.nan
        rows.append([r, f, f_cond, keep, *[c / n if n else 0.0 for c in row], n, stddev])
        previous = n
    return rows


class TestRows:
    @pytest.mark.parametrize(
        "f00, pairs, seed, rounds",
        [(0.97, 400_000, 1, 4), (0.3, 6, 0, 20)],
        ids=["fig1-like", "emptied"],
    )
    def test_rows_match_scalar_reference(self, f00, pairs, seed, rounds):
        initial = SubensembleState.from_bell_probs([0.85, 0.05, 0.05, 0.05])
        noise = NoiseModel.from_uniform_residual(f00)
        mc = run_protocol(init_ensemble(initial, pairs, seed=seed), noise, rounds)
        rows = mc.rows()
        assert all(len(row) == len(mc.columns) for row in rows)
        # repr compares NaN rows and tells an int from an equal float
        assert repr(rows) == repr(scalar_rows(mc.counts))


class TestHalting:
    def test_run_round_on_one_record_raises(self):
        ensemble = Ensemble(np.eye(16, dtype=np.int64)[0], seed=0)
        with pytest.raises(ProtocolHaltError):
            run_round(ensemble, NoiseModel.identity())

    def test_run_protocol_stops_when_population_runs_out(self):
        ensemble = init_ensemble(werner_07(), 5, seed=2)
        trajectory = run_protocol(ensemble, NoiseModel.identity(), 20)
        assert trajectory.halted
        assert trajectory.survivors()[-1] < 2
        assert len(trajectory.counts) < 21
        assert trajectory.survivors()[0] == 5


class TestValidation:
    def test_rejects_unknown_placement(self):
        ensemble = init_ensemble(werner_07(), 100, seed=0)
        counts = ensemble.counts.copy()
        with pytest.raises(ValueError, match="placement"):
            run_round(ensemble, NoiseModel.identity(), "after_measurement")
        assert ensemble.counts.tolist() == counts.tolist() and ensemble.round_counter == 0

    @pytest.mark.parametrize("n_pairs", [1, MAX_PAIRS])
    def test_rejects_population_size(self, n_pairs):
        with pytest.raises(ValueError, match="pairs"):
            init_ensemble(werner_07(), n_pairs)

    @pytest.mark.parametrize("counts", [[1] * 15, [-1] + [2] * 15, [0.5] * 16])
    def test_rejects_bad_counts(self, counts):
        with pytest.raises(ValueError, match="counts"):
            Ensemble(counts, seed=0)

    def test_init_draws_the_joint_cells(self):
        fixed = init_ensemble(werner_07(), 10_000, seed=4)
        assert fixed.size == 10_000 and fixed.counts[4:].sum() == 0
        flags = init_ensemble(werner_07("random"), 10_000, seed=4).counts.reshape(4, 4)
        assert flags.sum() == 10_000 and np.all(flags.sum(axis=1) > 2000)
