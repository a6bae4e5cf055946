"""Finite-population Monte Carlo: exactness of the count sampler, engine agreement, halting."""

import hashlib
import itertools
import math
from collections import Counter
from functools import partial

import numpy as np
import pytest
from scipy import stats

import qpurify.montecarlo as montecarlo
from qpurify.bell import (
    DISCARDED,
    PAULI_LABEL_SHIFT,
    BellLabel,
    bcnot_map,
    event_cell_table,
    flag_match_weight,
    measurement_coincides,
    phi_plus_weight,
    rotation_step3,
)
from qpurify.errors import ProtocolHaltError
from qpurify.flags import FLAG_UPDATE_TABLE
from qpurify.montecarlo import MAX_PAIRS, Ensemble, init_ensemble, run_protocol, run_round
from qpurify.noise import BEFORE_BCNOT, BEFORE_ROTATION, NoiseModel
from qpurify.recurrence import SubensembleState, iterate

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


def dirichlet_noise(placement=BEFORE_ROTATION, seed=3):
    return NoiseModel(np.random.default_rng(seed).dirichlet(np.ones(16)), placement)


def scalar_survivor(control, target, event, placement):
    """Output cell of one pair of pairs, walked with the scalar label primitives; None if discarded."""

    def noisy(record, mu):
        flag, bell = record >> 2, BellLabel(record & 3)
        shift = PAULI_LABEL_SHIFT[mu]
        if placement == BEFORE_ROTATION:
            bell = rotation_step3(BellLabel(bell ^ shift))
        else:
            bell = BellLabel(rotation_step3(bell) ^ shift)
        return flag ^ shift, bell

    flag1, bell1 = noisy(control, event >> 2)
    flag2, bell2 = noisy(target, event & 3)
    source, target_label = bcnot_map(bell1, bell2)
    if not measurement_coincides(target_label):
        return None
    return (int(FLAG_UPDATE_TABLE[flag1, flag2]) << 2) | int(source)


def records_of(counts):
    return np.repeat(np.arange(16), counts)


def reference_round(records, noise, gen):
    """Per-record reference round: shuffle, pair adjacent records, drop an odd leftover.

    Returns the 17 output counts (the last one counts discarded pairs of pairs).
    """
    shuffled = gen.permutation(records)
    m = shuffled.size // 2
    events = gen.choice(16, size=m, p=noise.f.ravel())
    cells = event_cell_table(noise.placement)[shuffled[0 : 2 * m : 2], shuffled[1 : 2 * m : 2], events]
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
        noise = dirichlet_noise(placement)
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
            run_round(ensemble, noise)
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
        noise = dirichlet_noise(placement)
        counts = init_ensemble(werner_07("random"), n, seed=5).counts
        records = records_of(counts)
        repeats = 1500
        gen = np.random.default_rng(n)
        reference = np.array([reference_round(records, noise, gen) for _ in range(repeats)])
        ensemble_runs = []
        for seed in range(repeats):
            ensemble = Ensemble(counts, seed=seed)
            run_round(ensemble, noise)
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
        noise = dirichlet_noise(placement)
        ensemble = init_ensemble(werner_07("random"), 3001, seed=seed)
        sha = hashlib.sha256(ensemble.counts.astype("<i8").tobytes())
        for _ in range(3):
            run_round(ensemble, noise)
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


def round_transfer(noise):
    """Q[control * 16 + target, cell]: the probability that a pair of pairs lands in each of the 17 cells."""
    cells = event_cell_table(noise.placement).reshape(256, 16).astype(np.int64)
    index = np.arange(256)[:, None] * (DISCARDED + 1) + cells
    weights = np.broadcast_to(noise.f.ravel(), cells.shape)
    return np.bincount(
        index.ravel(), weights=weights.ravel(), minlength=256 * (DISCARDED + 1)
    ).reshape(256, DISCARDED + 1)


def exact_round_mean(counts, q):
    """E[17 output counts | counts] of one round of uniform pairing without replacement.

    An even population of N pairs forms (n n^T - diag n) / (2(N - 1))
    expected (control, target) pairs; an odd one first drops pair r with
    probability n_r / N.
    """
    n = counts.sum()
    if n % 2:
        drops = np.eye(16, dtype=np.int64)
        return sum(c / n * exact_round_mean(counts - drops[r], q) for r, c in enumerate(counts) if c)
    return ((np.outer(counts, counts) - np.diag(counts)) / (2 * (n - 1))).ravel() @ q


def infinite_population_mean(counts, q):
    """The same mean if pairing drew with replacement from an infinite population."""
    return (np.outer(counts, counts) / (2 * counts.sum())).ravel() @ q


#: Noise of the exact-round witness, given its placement.
WITNESS_NOISE = {
    "uniform": partial(NoiseModel.from_uniform_residual, 0.97),
    "product": partial(NoiseModel.from_one_qubit_depolarizing, 0.97),
    "dirichlet": dirichlet_noise,
}
WITNESS_CASES = [
    pytest.param("uniform", placement, n, id=f"{n}-{placement}")
    for n in (11, 200)
    for placement in PLACEMENTS
] + [
    pytest.param(family, placement, n, id=f"{family}-{n}-{placement}")
    for family, placement, n in [
        ("product", BEFORE_ROTATION, 3),
        ("product", BEFORE_BCNOT, 11),
        ("dirichlet", BEFORE_BCNOT, 3),
        ("dirichlet", BEFORE_ROTATION, 11),
    ]
]


class TestExactRoundWitness:
    @pytest.mark.parametrize("family, placement, n", WITNESS_CASES)
    def test_one_round_matches_its_conditional_mean(self, family, placement, n):
        # single seeded rounds from one population, each cell z-scored against
        # the closed form of one round's conditional expectation
        noise = WITNESS_NOISE[family](placement=placement)
        counts = init_ensemble(SubensembleState.werner(0.8), n, seed=5).counts
        repeats = 8000
        outcomes = np.empty((repeats, DISCARDED + 1))
        for s in range(repeats):
            ensemble = Ensemble(counts, seed=1000 + s)
            run_round(ensemble, noise)
            outcomes[s] = np.append(ensemble.counts, n // 2 - ensemble.size)
        mean, spread = outcomes.mean(axis=0), outcomes.std(axis=0, ddof=1)
        varies = spread > 0
        q = round_transfer(noise)

        def max_z(expected):
            return np.abs((mean - expected)[varies] / (spread[varies] / np.sqrt(repeats))).max()

        exact = exact_round_mean(counts, q)
        assert max_z(exact) < 5
        # a cell that never moved is one the formula all but empties
        assert np.all(repeats * exact[~varies] < 5)
        if n <= 11:  # the finite-size term -diag(n) is what tells the two apart
            assert max_z(infinite_population_mean(counts, q)) > 10


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
            run_round(ensemble, NoiseModel.from_one_qubit_depolarizing(1.0))

    def test_run_protocol_stops_when_population_runs_out(self):
        ensemble = init_ensemble(werner_07(), 5, seed=2)
        trajectory = run_protocol(ensemble, NoiseModel.from_one_qubit_depolarizing(1.0), 20)
        assert trajectory.halted
        assert trajectory.survivors()[-1] < 2
        assert len(trajectory.counts) < 21
        assert trajectory.survivors()[0] == 5


class TestValidation:
    def test_rejects_unknown_placement(self):
        # every constructor checks the placement, so no round runs with an unknown one
        constructors = [
            partial(NoiseModel.from_one_qubit_depolarizing, 1.0),
            partial(NoiseModel.from_one_qubit_depolarizing, 0.97),
            partial(NoiseModel.from_uniform_residual, 0.97),
            partial(NoiseModel, [1] + [0] * 15),
        ]
        for build in constructors:
            with pytest.raises(ValueError, match="placement"):
                build(placement="after_measurement")

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
