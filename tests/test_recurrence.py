"""Round map, fixpoint iteration, regimes, thresholds."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import qpurify.recurrence as recurrence
from qpurify.bell import PauliIndex
from qpurify.errors import DegenerateRoundError, NoThresholdError
from qpurify.noise import NoiseModel
from qpurify.recurrence import (
    BEFORE_BCNOT,
    BEFORE_ROTATION,
    Regime,
    RegimeReport,
    SubensembleState,
    classify_regime,
    conditional_fidelity,
    fidelity,
    find_thresholds,
    iterate,
    one_round,
    scan_thresholds,
)

WERNER_085 = [0.85, 0.05, 0.05, 0.05]


def flagless_round(bell_probs, noise, placement=BEFORE_ROTATION):
    """Independent flag-free enumeration of the bell-marginal dynamics.

    Walks every (control label, target label, noise event) combination
    with plain Python ints; used as the oracle for the reduced
    4-variable recurrence.
    """
    rot = [0, 1, 3, 2]
    shift = [0, 1, 3, 2]
    out = [0.0] * 4
    keep = 0.0
    for b1 in range(4):
        for b2 in range(4):
            for mu in range(4):
                for nu in range(4):
                    w = bell_probs[b1] * bell_probs[b2] * noise.f[mu, nu]
                    if placement == BEFORE_ROTATION:
                        c1 = rot[b1 ^ shift[mu]]
                        c2 = rot[b2 ^ shift[nu]]
                    else:
                        c1 = rot[b1] ^ shift[mu]
                        c2 = rot[b2] ^ shift[nu]
                    src = c1 ^ (c2 & 2)
                    tgt = c2 ^ (c1 & 1)
                    if tgt & 1:
                        continue
                    out[src] += w
                    keep += w
    return np.array(out) / keep, keep


def ideal_recurrence(bell_probs):
    """Noiseless closed form with coefficients (A, B, C, D) attached to
    (Phi+, Psi-, Psi+, Phi-): A' = (A^2+B^2)/N, B' = 2CD/N,
    C' = (C^2+D^2)/N, D' = 2AB/N, N = (A+B)^2 + (C+D)^2.

    Input and output use the packed-label vector order
    (Phi+, Psi+, Phi-, Psi-), i.e. (A, C, D, B).
    """
    a, c, d, b = bell_probs
    n = (a + b) ** 2 + (c + d) ** 2
    out = np.array(
        [(a * a + b * b) / n, (c * c + d * d) / n, 2 * a * b / n, 2 * c * d / n]
    )
    return out, n


def reference_round(v, noise, placement=BEFORE_ROTATION):
    """One round as a per-event weighted histogram of the event cell table.

    Every (control, target, event) weight lands in its output cell; this
    is the round map computed without the contracted round tensor.
    """
    table = recurrence.event_cell_table(placement)
    weights = np.einsum("i,j,e->ije", v, v, noise.f.ravel())
    totals = np.bincount(table.ravel(), weights=weights.ravel(), minlength=17)
    keep = totals[:16].sum()
    if keep < recurrence.KEEP_PROBABILITY_FLOOR:
        raise DegenerateRoundError(f"keep probability {keep:.3e}")
    return totals[:16] / keep, keep


def reference_iterate(state, noise, max_rounds, placement=BEFORE_ROTATION, tol=1e-12):
    """Loop of reference rounds under the stop rule of ``iterate``.

    Raises :class:`DegenerateRoundError` at a round that keeps nothing.
    """
    v = state.p.ravel()
    rows, keeps = [v], [1.0]
    converged = False
    for _ in range(max_rounds):
        new, keep = reference_round(v, noise, placement)
        change = np.max(np.abs(new - v))
        rows.append(new)
        keeps.append(keep)
        v = new
        if change < tol:
            converged = True
            break
    return np.array(rows), np.array(keeps), converged


def random_state(seed):
    rng = np.random.default_rng(seed)
    return SubensembleState(rng.dirichlet(np.ones(16)).reshape(4, 4))


def random_noise(seed):
    rng = np.random.default_rng(seed + 1000)
    return NoiseModel(rng.dirichlet(np.ones(16)))


class TestSubensembleState:
    def test_rejects_negative(self):
        p = np.full(16, 1.0 / 16.0)
        p[0] = -0.05
        p[1] += 0.05 + 1.0 / 16.0
        with pytest.raises(ValueError, match="negative"):
            SubensembleState(p)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="sum"):
            SubensembleState(np.full((4, 4), 0.1))

    def test_werner_and_marginals(self):
        state = SubensembleState.werner(0.85)
        assert np.allclose(state.p.sum(axis=0), WERNER_085, atol=1e-15)
        assert np.allclose(state.p.sum(axis=1), [1, 0, 0, 0], atol=1e-15)

    def test_random_flag_mode(self):
        state = SubensembleState.from_bell_probs(WERNER_085, flag_mode="random")
        assert np.allclose(state.p.sum(axis=1), 0.25, atol=1e-15)
        assert np.allclose(state.p.sum(axis=0), WERNER_085, atol=1e-15)

    def test_rejects_bad_flag_mode(self):
        with pytest.raises(ValueError, match="flag_mode"):
            SubensembleState.from_bell_probs(WERNER_085, flag_mode="banana")

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite(self, bad):
        p = np.full(16, 1.0 / 16.0)
        p[3] = bad
        with pytest.raises(ValueError):
            SubensembleState(p)
        with pytest.raises(ValueError, match="probability distribution"):
            SubensembleState.from_bell_probs([bad, 0.0, 0.0, 1.0])


class TestFidelities:
    def test_concentrated_clean(self):
        p = np.zeros((4, 4))
        p[0, 0] = 1.0
        state = SubensembleState(p)
        assert fidelity(state) == 1.0
        assert conditional_fidelity(state) == 1.0

    def test_flag_predicts_state(self):
        p = np.zeros((4, 4))
        p[3, 3] = 1.0  # flag (11), Bell Psi-
        state = SubensembleState(p)
        assert fidelity(state) == 0.0
        assert conditional_fidelity(state) == 1.0

    def test_uniform(self):
        state = SubensembleState(np.full((4, 4), 1.0 / 16.0))
        assert fidelity(state) == pytest.approx(0.25, abs=1e-15)
        assert conditional_fidelity(state) == pytest.approx(0.25, abs=1e-15)


class TestOneRound:
    def test_noiseless_matches_ideal_recurrence(self):
        rng = np.random.default_rng(42)
        identity = NoiseModel.identity()
        for _ in range(20):
            probs = rng.dirichlet(np.ones(4))
            state = SubensembleState.from_bell_probs(probs)
            out, keep = one_round(state, identity)
            expected, expected_keep = ideal_recurrence(probs)
            assert np.max(np.abs(out.p.sum(axis=0) - expected)) < 1e-12
            assert abs(keep - expected_keep) < 1e-12

    def test_noiseless_pure_input_is_fixed_point(self):
        state = SubensembleState.from_bell_probs([1, 0, 0, 0])
        out, keep = one_round(state, NoiseModel.identity())
        assert keep == pytest.approx(1.0, abs=1e-15)
        assert out.p[0, 0] == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("placement", [BEFORE_ROTATION, BEFORE_BCNOT])
    @pytest.mark.parametrize("seed", range(6))
    def test_bell_marginal_matches_flagless_enumeration(self, placement, seed):
        # flags uniform and independent of bells: the bell marginal must
        # follow the reduced flag-free dynamics exactly
        rng = np.random.default_rng(seed)
        probs = rng.dirichlet(np.ones(4))
        state = SubensembleState.from_bell_probs(probs, flag_mode="random")
        noise = random_noise(seed)
        out, keep = one_round(state, noise, placement)
        expected, expected_keep = flagless_round(probs, noise, placement)
        assert np.max(np.abs(out.p.sum(axis=0) - expected)) < 1e-12
        assert abs(keep - expected_keep) < 1e-12

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10_000))
    def test_normalization_and_nonnegativity(self, seed):
        out, keep = one_round(random_state(seed), random_noise(seed))
        assert abs(out.p.sum() - 1.0) < 1e-12
        assert out.p.min() >= 0.0
        assert 0.0 < keep <= 1.0 + 1e-15

    def test_degenerate_round_raises(self):
        # a channel that always amplitude-flips exactly the target pair
        # makes every measurement anti-coincide: keep probability 0
        f = np.zeros(16)
        f[PauliIndex.X] = 1.0  # (mu, nu) = (I, X)
        noise = NoiseModel(f)
        state = SubensembleState.from_bell_probs([1, 0, 0, 0])
        with pytest.raises(DegenerateRoundError):
            one_round(state, noise)

    def test_control_target_relabeling_symmetry(self):
        # both categories are drawn i.i.d. from the same distribution, so
        # relabeling the draw slots cannot change the outcome
        state, noise = random_state(5), random_noise(5)
        v = state.p.ravel()
        w_direct = np.einsum("i,j,e->ije", v, v, noise.f.ravel())
        w_relabel = np.einsum("j,i,e->ije", v, v, noise.f.ravel())
        for placement in (BEFORE_ROTATION, BEFORE_BCNOT):
            table = recurrence.event_cell_table(placement)
            direct = np.bincount(table.ravel(), weights=w_direct.ravel(), minlength=17)
            relabel = np.bincount(table.ravel(), weights=w_relabel.ravel(), minlength=17)
            assert np.max(np.abs(direct - relabel)) < 1e-15

    def test_rejects_unknown_placement(self):
        with pytest.raises(ValueError, match="placement"):
            one_round(random_state(0), random_noise(0), "after_measurement")


class TestRoundTensor:
    @pytest.mark.parametrize("placement", [BEFORE_ROTATION, BEFORE_BCNOT])
    def test_rows_are_distributions_over_cells(self, placement):
        tensor = recurrence.round_tensor(random_noise(3), placement)
        assert tensor.shape == (256, 17)
        assert tensor.min() >= 0.0
        assert np.max(np.abs(tensor.sum(axis=1) - 1.0)) < 1e-15

    @pytest.mark.parametrize("placement", [BEFORE_ROTATION, BEFORE_BCNOT])
    @pytest.mark.parametrize("seed", range(8))
    def test_one_round_matches_reference_histogram(self, placement, seed):
        state, noise = random_state(seed), random_noise(seed)
        out, keep = one_round(state, noise, placement)
        expected, expected_keep = reference_round(state.p.ravel(), noise, placement)
        assert np.max(np.abs(out.p.ravel() - expected)) < 1e-15
        assert abs(keep - expected_keep) < 1e-15

    @pytest.mark.parametrize(
        "noise, initial, max_rounds, placement, converged",
        [
            # near threshold: spectral radius ~0.994, still moving after 2,000 rounds
            (NoiseModel.from_one_qubit_depolarizing(0.8986), SubensembleState.werner(0.85),
             2000, BEFORE_ROTATION, False),
            (NoiseModel.from_uniform_residual(0.97), SubensembleState.werner(0.85),
             500, BEFORE_ROTATION, True),
            (NoiseModel.from_one_qubit_depolarizing(0.95),
             SubensembleState.from_bell_probs([0.8, 0.1, 0.05, 0.05], flag_mode="random"),
             500, BEFORE_BCNOT, True),
        ],
        ids=["near-threshold", "fig1", "bcnot-random-flags"],
    )
    def test_iterate_matches_reference_loop(self, noise, initial, max_rounds, placement, converged):
        traj = iterate(initial, noise, max_rounds=max_rounds, placement=placement)
        rows, keeps, reference_converged = reference_iterate(initial, noise, max_rounds, placement)
        assert traj.converged == reference_converged == converged
        assert traj.rounds == len(rows) - 1
        assert np.max(np.abs(traj.coefficients - rows)) < 1e-12
        assert np.max(np.abs(traj.keeps - keeps)) < 1e-12

    def test_round_buffer_is_not_preallocated(self):
        # a pure Phi+ input is a fixpoint of the noiseless map: one round
        traj = iterate(SubensembleState.from_bell_probs([1, 0, 0, 0]), NoiseModel.identity(),
                       max_rounds=10**15)
        assert traj.converged and traj.rounds == 1

    def test_non_finite_rows_fail_the_batched_check(self, monkeypatch):
        monkeypatch.setattr(recurrence, "round_tensor", lambda noise, placement: np.full((256, 17), np.nan))
        with pytest.raises(ValueError, match="NaN"):
            iterate(SubensembleState.werner(0.85), NoiseModel.identity(), max_rounds=3)
        # a long iteration fails at its first check block, not after running every round
        rounds = []
        real = recurrence._round

        def counting(states, tensors):
            rounds.append(len(states))
            return real(states, tensors)

        monkeypatch.setattr(recurrence, "_round", counting)
        with pytest.raises(ValueError, match="NaN"):
            iterate(SubensembleState.werner(0.85), NoiseModel.identity(), max_rounds=10**6)
        assert 0 < len(rounds) <= recurrence._CHECK_EVERY


class TestIterate:
    def test_noiseless_werner_07_converges_to_unity(self):
        traj = iterate(SubensembleState.werner(0.7), NoiseModel.identity(), max_rounds=200)
        assert traj.converged
        assert traj.limiting_fidelity == pytest.approx(1.0, abs=1e-9)
        f = traj.fidelities()
        assert np.all(np.diff(f) >= -1e-12)

    def test_noiseless_werner_03_fails_to_purify(self):
        traj = iterate(SubensembleState.werner(0.3), NoiseModel.identity(), max_rounds=200)
        assert traj.limiting_fidelity == pytest.approx(0.25, abs=1e-6)

    def test_product_097_purifies_and_is_secure(self):
        noise = NoiseModel.from_one_qubit_depolarizing(0.97)
        traj = iterate(SubensembleState.werner(0.85), noise)
        assert traj.converged
        assert traj.limiting_fidelity > 0.85
        assert 1.0 - traj.limiting_conditional_fidelity < 1e-9

    def test_round_zero_records_input(self):
        state = SubensembleState.werner(0.85)
        traj = iterate(state, NoiseModel.identity(), max_rounds=3)
        assert np.array_equal(traj.coefficients[0], state.p.ravel())
        round_index, f, _, keep, *_ = traj.rows()[0]
        assert round_index == 0
        assert f == pytest.approx(0.85, abs=1e-15)
        assert keep == 1.0
        assert traj.rounds == 3

    def test_secure_regime_conditional_tail_is_geometric(self):
        noise = NoiseModel.from_uniform_residual(0.97)
        traj = iterate(SubensembleState.werner(0.85), noise, max_rounds=40)
        fc = traj.conditional_fidelities()
        assert np.all(np.diff(fc[2:]) >= -1e-12)
        dist = 1.0 - fc
        valid = dist > 1e-12
        ratios = dist[valid][1:] / dist[valid][:-1]
        tail = ratios[4:]
        assert np.all(tail < 1.0)
        assert np.max(np.abs(tail - np.median(tail))) < 0.2

    def test_points_agree_with_rows_and_state_functions(self):
        traj = iterate(SubensembleState.werner(0.85), NoiseModel.from_uniform_residual(0.97), max_rounds=12)
        rows = traj.rows()
        assert len(traj.coefficients) == len(traj.keeps) == len(rows) == traj.rounds + 1
        for n, (row, coefficients, keep) in enumerate(zip(rows, traj.coefficients, traj.keeps)):
            state = SubensembleState(coefficients)
            assert row[0] == n and row[3] == keep and row[4:] == coefficients.tolist()
            assert row[1] == pytest.approx(fidelity(state), abs=1e-15)
            assert row[2] == pytest.approx(conditional_fidelity(state), abs=1e-15)
        assert traj.limiting_fidelity == rows[-1][1]
        assert traj.limiting_conditional_fidelity == rows[-1][2]

    def test_rows_schema(self):
        traj = iterate(SubensembleState.werner(0.85), NoiseModel.identity(), max_rounds=2)
        rows = traj.rows()
        assert len(rows) == 3
        assert all(len(row) == 20 for row in rows)


class TestClassifyRegime:
    def test_low_noise_is_secure(self):
        report = classify_regime(
            NoiseModel.from_one_qubit_depolarizing(0.999), SubensembleState.werner(0.85)
        )
        assert report.regime == Regime.PURIFY_SECURE

    def test_high_noise_no_purification(self):
        report = classify_regime(
            NoiseModel.from_one_qubit_depolarizing(0.80), SubensembleState.werner(0.85)
        )
        assert report.regime == Regime.NO_PURIFICATION
        assert report.f_max == pytest.approx(0.25, abs=1e-6)

    def test_intermediate_regime_at_08985(self):
        report = classify_regime(
            NoiseModel.from_one_qubit_depolarizing(0.8985),
            SubensembleState.werner(0.85),
            max_rounds=3000,
        )
        assert report.regime == Regime.PURIFY_INSECURE
        assert report.f_max > 0.5
        assert 1.0 - report.conditional_limit > 1e-3

    def test_degenerate_maps_to_no_purification(self):
        f = np.zeros(16)
        f[PauliIndex.X] = 1.0
        report = classify_regime(
            NoiseModel(f), SubensembleState.from_bell_probs([1, 0, 0, 0])
        )
        assert report.regime == Regime.NO_PURIFICATION
        assert report.degenerate

    def test_noiseless_limit_is_secure(self):
        report = classify_regime(
            NoiseModel.from_one_qubit_depolarizing(1.0), SubensembleState.werner(0.85)
        )
        assert report.regime == Regime.PURIFY_SECURE


def serial_report(noise, initial, max_rounds, placement, secure_tol=1e-6, purify_margin=1e-4,
                  fixpoint_tol=1e-12):
    """One row classified on its own: the reference loop, then the labels of ``classify_regime``.

    Built on ``reference_iterate``, not on ``iterate``, so it shares no
    loop with the batch it checks.
    """
    f0 = fidelity(initial)
    try:
        rows, _, converged = reference_iterate(initial, noise, max_rounds, placement, fixpoint_tol)
    except DegenerateRoundError:
        return RegimeReport(Regime.NO_PURIFICATION, math.nan, math.nan, 0, False, f0, degenerate=True)
    last = SubensembleState(rows[-1])
    f_max, cond_limit = fidelity(last), conditional_fidelity(last)
    purifies = f_max > 0.25 + purify_margin
    if purifies and 1.0 - cond_limit < secure_tol:
        regime = Regime.PURIFY_SECURE
    elif purifies:
        regime = Regime.PURIFY_INSECURE
    else:
        regime = Regime.NO_PURIFICATION
    return RegimeReport(regime, f_max, cond_limit, len(rows) - 1, converged, f0)


def x_flip_noise():
    f = np.zeros(16)
    f[PauliIndex.X] = 1.0
    return NoiseModel(f)


#: (noise, initial state, placement) rows of one batch, with what each shows
#: at 400 rounds.
BATCH_ROWS = [
    # secure in 24 rounds
    (NoiseModel.from_one_qubit_depolarizing(0.97), SubensembleState.werner(0.85), BEFORE_ROTATION),
    # keep probability 0 in round 1: degenerate
    (x_flip_noise(), SubensembleState.from_bell_probs([1, 0, 0, 0]), BEFORE_ROTATION),
    # still moving at the cap
    (NoiseModel.from_one_qubit_depolarizing(0.8986), SubensembleState.werner(0.85), BEFORE_ROTATION),
    # collapses to the depolarized state in 35 rounds
    (NoiseModel.from_one_qubit_depolarizing(0.80), SubensembleState.werner(0.85), BEFORE_ROTATION),
    # a fixpoint: converges in round 1
    (NoiseModel.identity(), SubensembleState.from_bell_probs([1, 0, 0, 0]), BEFORE_ROTATION),
    # insecure in 41 rounds
    (NoiseModel.from_uniform_residual(0.9), SubensembleState.werner(0.85, flag_mode="random"),
     BEFORE_BCNOT),
]


class TestBatchedClassification:
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("max_rounds", [0, 1, 400])
    def test_batch_matches_each_row_classified_alone(self, max_rounds):
        states = np.array([initial.p.ravel() for _, initial, _ in BATCH_ROWS])
        tensors = np.array([recurrence.round_tensor(noise, placement) for noise, _, placement in BATCH_ROWS])
        # the batch compacts the stack it is handed, so it gets a copy
        batch = recurrence._classify_rows(states, tensors.copy(), 1e-6, 1e-4, max_rounds, 1e-12)
        expected = [serial_report(noise, initial, max_rounds, placement)
                    for noise, initial, placement in BATCH_ROWS]

        def labels(report):
            return (report.regime, report.rounds, report.converged, report.degenerate,
                    report.initial_fidelity)

        def limits(reports):
            return np.array([(r.f_max, r.conditional_limit) for r in reports])

        assert [labels(r) for r in batch] == [labels(r) for r in expected]
        # NaN on the degenerate row, on both sides
        np.testing.assert_allclose(limits(batch), limits(expected), rtol=0, atol=1e-12)
        alone = [
            recurrence._classify_rows(states[k:k + 1], tensors[k:k + 1], 1e-6, 1e-4, max_rounds, 1e-12)[0]
            for k in range(len(BATCH_ROWS))
        ]

        def fields(report):
            # repr compares floats bit for bit and NaN equal to NaN
            return (report.regime, repr(report.f_max), repr(report.conditional_limit), report.rounds,
                    report.converged, report.degenerate, repr(report.initial_fidelity))

        assert [fields(r) for r in batch] == [fields(r) for r in alone]
        if max_rounds == 400:
            assert [(r.regime, r.rounds, r.converged, r.degenerate) for r in batch] == [
                (Regime.PURIFY_SECURE, 24, True, False),
                (Regime.NO_PURIFICATION, 0, False, True),
                (Regime.PURIFY_INSECURE, 400, False, False),
                (Regime.NO_PURIFICATION, 35, True, False),
                (Regime.PURIFY_SECURE, 1, True, False),
                (Regime.PURIFY_INSECURE, 41, True, False),
            ]

    def test_non_finite_rows_fail_at_the_first_check_block(self, monkeypatch):
        rounds = []
        real = recurrence._round

        def counting(states, tensors):
            rounds.append(len(states))
            return real(states, tensors)

        monkeypatch.setattr(recurrence, "_round", counting)
        tensors = np.full((2, 256, 17), np.nan)
        states = np.tile(SubensembleState.werner(0.85).p.ravel(), (2, 1))
        with pytest.raises(ValueError, match="NaN"):
            recurrence._classify_rows(states, tensors, 1e-6, 1e-4, 10_000, 1e-12)
        assert rounds == [2] * recurrence._CHECK_EVERY

    def test_shared_midpoints_are_classified_once(self, monkeypatch):
        # with one initial state, a batch's rows are the parameters whose noise model it built
        batches, built = [], []
        real = recurrence._classify_rows

        def family(x):
            built.append(x)
            return NoiseModel.from_one_qubit_depolarizing(x)

        def counting(states, *args):
            assert len(states) == len(built)
            batches.append(built[:])
            built.clear()
            return real(states, *args)

        monkeypatch.setattr(recurrence, "_classify_rows", counting)
        lo, hi = 0.895, 0.905
        scan = find_thresholds(family, SubensembleState.werner(0.85), lo=lo, hi=hi, bisect_tol=1e-3,
                               max_rounds=500)
        classified = [x for batch in batches for x in batch]
        evaluated = {x for x, _ in scan.evaluations}
        # both chains' evaluations are recorded, but each parameter is iterated once
        assert len(scan.evaluations) > len(evaluated)
        assert len(classified) == len(set(classified))
        assert evaluated <= set(classified)
        # the ends first, then one batch per two of the four bisection levels; the first
        # holds the chains' shared midpoint and both midpoints the next step may visit
        mid = 0.5 * (lo + hi)
        assert batches[0] == [lo, hi] and len(batches) == 1 + 2
        assert batches[1] == [mid, 0.5 * (lo + mid), 0.5 * (mid + hi)]


def reference_lockstep(state, tensor, max_rounds, tol=1e-12):
    """One row through the stop rule, one round at a time.

    Returns its outputs and keeps up to the round it stops at, and
    ``(rounds, converged, degenerate)`` at that round (None when it runs
    no round at all).
    """
    v, rows, keeps = state, [], []
    for n in range(1, max_rounds + 1):
        (new,), (keep,) = recurrence._round(v[None], tensor[None])
        rows.append(new)
        keeps.append(keep)
        settled = np.abs(new - v).max() < tol
        stuck = keep < recurrence.KEEP_PROBABILITY_FLOOR
        if settled or stuck or n == max_rounds:
            return np.array(rows), np.array(keeps), (n, bool(settled), bool(stuck))
        v = new
    return np.empty((0, 16)), np.empty(0), None


def blocked_lockstep(states, tensors, max_rounds, tol=1e-12, owners=None):
    """Every row's outputs, keeps and stop, read from the blocks of ``_lockstep``."""
    rows = [[np.empty((0, 16))] for _ in states]
    keeps = [[np.empty(0)] for _ in states]
    stops = [None] * len(states)
    for block in recurrence._lockstep(states, tensors.copy(), max_rounds, tol, owners):
        for j, k in enumerate(block.live.tolist()):
            if k < 0:  # an idle slot
                continue
            ran = block.ran[j]
            rows[k].append(block.new[:ran, j].copy())
            keeps[k].append(block.keeps[:ran, j].copy())
            if block.stopped[j]:
                stops[k] = (block.start + int(ran), bool(block.converged[j]), bool(block.degenerate[j]))
    return [(np.concatenate(r), np.concatenate(kp), stop) for r, kp, stop in zip(rows, keeps, stops)]


class TestBlockedLockstep:
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("max_rounds", [0, 1, 63, 64, 65, 130, 3000])
    def test_blocks_match_a_per_round_loop(self, max_rounds):
        # BATCH_ROWS stop mid-block (24, 35 and 41 rounds), degenerate in round 1,
        # converged in round 1, and at the cap
        states = np.array([initial.p.ravel() for _, initial, _ in BATCH_ROWS])
        tensors = np.array([recurrence.round_tensor(noise, placement) for noise, _, placement in BATCH_ROWS])
        blocked = blocked_lockstep(states, tensors, max_rounds)
        for k, (rows, keeps, stop) in enumerate(blocked):
            expected_rows, expected_keeps, expected_stop = reference_lockstep(
                states[k], tensors[k], max_rounds)
            # array_equal compares bit for bit; no row here is NaN
            assert np.array_equal(rows, expected_rows)
            assert np.array_equal(keeps, expected_keeps)
            assert stop == expected_stop
        if max_rounds == 3000:
            assert [stop for _, _, stop in blocked] == [
                (24, True, False), (1, False, True), (2409, True, False),
                (35, True, False), (1, True, False), (41, True, False),
            ]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("max_rounds", [1, 65, 3000])
    def test_rows_sharing_a_tensor_match_a_per_round_loop(self, max_rounds, monkeypatch):
        lines = []
        real = recurrence._round

        def recording(states, tensors):
            lines.append(states.shape[:-1])
            return real(states, tensors)

        monkeypatch.setattr(recurrence, "_round", recording)
        tensors = np.array([recurrence.round_tensor(noise, placement) for noise, _, placement in BATCH_ROWS])
        # three more rows, listed first, under the tensors of rows 0 and 2: lines of 3, 1 and 2 rows
        extra = [(SubensembleState.werner(0.6), 0), (SubensembleState.werner(0.95), 2),
                 (SubensembleState.werner(0.9), 0)]
        states = np.array([initial.p.ravel() for initial, _ in extra]
                          + [initial.p.ravel() for _, initial, _ in BATCH_ROWS])
        owners = [owner for _, owner in extra] + list(range(len(BATCH_ROWS)))
        blocked = blocked_lockstep(states, tensors, max_rounds, owners=owners)
        for k, (rows, keeps, stop) in enumerate(blocked):
            expected_rows, expected_keeps, expected_stop = reference_lockstep(
                states[k], tensors[owners[k]], max_rounds)
            assert np.array_equal(rows, expected_rows)
            assert np.array_equal(keeps, expected_keeps)
            assert stop == expected_stop
        # one line of slots per tensor, as long as its longest line of rows
        assert lines[0] == (len(BATCH_ROWS), 3)

    def test_rows_before_a_degenerate_round_are_validated(self):
        # from pure category 0, round 1 makes (1.5, -0.5, 0, ...), keeping everything, and
        # round 2 keeps nothing: only the degenerate round itself is spared the check
        tensor = np.zeros((256, 17))
        tensor[0, :2] = 1.5, -0.5
        tensor[1] = tensor[16] = 1.5 * tensor[0]
        state = np.eye(16)[:1]
        rows, keeps, stop = reference_lockstep(state[0], tensor, 10)
        assert stop == (2, False, True) and rows[0, 1] == -0.5
        with pytest.raises(ValueError, match="negative"):
            blocked_lockstep(state, tensor[None], 10)

    @pytest.mark.parametrize("max_rounds", [0, 1, 63, 64, 65, 130, 3000])
    def test_a_nan_tensor_fails_its_first_block(self, max_rounds, monkeypatch):
        # the NaN row stops only at the cap, so it fails when its first block is validated
        rounds = []
        real = recurrence._round

        def counting(states, tensors):
            rounds.append(len(states))
            return real(states, tensors)

        monkeypatch.setattr(recurrence, "_round", counting)
        noise, initial, placement = BATCH_ROWS[0]
        states = np.array([initial.p.ravel()] * 2)
        tensors = np.array([recurrence.round_tensor(noise, placement), np.full((256, 17), np.nan)])
        if max_rounds == 0:
            assert blocked_lockstep(states, tensors, max_rounds)[1][2] is None
        else:
            with pytest.raises(ValueError, match="NaN"):
                blocked_lockstep(states, tensors, max_rounds)
        assert rounds == [2] * min(max_rounds, recurrence._CHECK_EVERY)


def serial_scan(family, initial, lo, hi, bisect_tol, **settings):
    """``ThresholdScan.as_dict`` of a plain serial bisection: the ends, then one chain after the other.

    Every parameter is classified by ``classify_regime``, once per chain
    that visits it.
    """
    def regime(x):
        return classify_regime(family(x), initial, **settings).regime

    ends = regime(lo), regime(hi)
    evaluations = [(lo, ends[0].value), (hi, ends[1].value)]
    brackets = []
    for predicate in (lambda r: r != Regime.NO_PURIFICATION, lambda r: r == Regime.PURIFY_SECURE):
        if predicate(ends[0]) == predicate(ends[1]):
            brackets.append(None)
            continue
        a, b = lo, hi
        while b - a > bisect_tol:
            mid = 0.5 * (a + b)
            r = regime(mid)
            evaluations.append((mid, r.value))
            if predicate(r) == predicate(ends[1]):
                b = mid
            else:
                a = mid
        brackets.append((a, b))
    midpoints = [None if bracket is None else 0.5 * sum(bracket) for bracket in brackets]
    return {
        "f_purify": midpoints[0],
        "f_secure": midpoints[1],
        "purify_bracket": brackets[0],
        "secure_bracket": brackets[1],
        "range": [lo, hi],
        "bisect_tol": bisect_tol,
        "evaluations": [{"parameter": x, "regime": r} for x, r in evaluations],
    }


#: The initial states of the default scan: the configured input, then the Werner grid.
DEFAULT_SCAN_INITIALS = [SubensembleState.from_bell_probs(WERNER_085)] + [
    SubensembleState.werner(fid) for fid in (0.75, 0.85, 0.95)
]


class TestTwoLevelScan:
    @pytest.mark.parametrize(
        "family, initials, settings",
        [
            # the default scan, with fewer rounds
            (NoiseModel.from_one_qubit_depolarizing, DEFAULT_SCAN_INITIALS,
             dict(bisect_tol=1e-4, max_rounds=1000)),
            (NoiseModel.from_uniform_residual,
             [SubensembleState.werner(fid, flag_mode="random") for fid in (0.85, 0.6)],
             dict(lo=0.8, hi=0.95, bisect_tol=1e-3, max_rounds=500, placement=BEFORE_BCNOT)),
            # 0.04 halves three times before it is within 6e-3: an odd number of levels
            (NoiseModel.from_one_qubit_depolarizing, DEFAULT_SCAN_INITIALS[:2],
             dict(bisect_tol=6e-3, max_rounds=500)),
            # nothing to bisect: only the ends
            (NoiseModel.from_one_qubit_depolarizing, DEFAULT_SCAN_INITIALS[:2],
             dict(bisect_tol=0.1, max_rounds=500)),
            # an initial state listed twice gets two equal scans
            (NoiseModel.from_one_qubit_depolarizing,
             [SubensembleState.werner(fid) for fid in (0.85, 0.95, 0.85)],
             dict(lo=0.895, hi=0.905, bisect_tol=1e-3, max_rounds=500)),
        ],
        ids=["default-grid", "uniform-bcnot", "odd-levels", "tol-above-range", "duplicate-initials"],
    )
    def test_scan_matches_serial_bisection(self, family, initials, settings):
        settings = {"lo": 0.88, "hi": 0.92, **settings}
        scans = scan_thresholds(family, initials, **settings)
        assert [scan.as_dict() for scan in scans] == [
            serial_scan(family, initial, **settings) for initial in initials
        ]

    def test_the_last_of_odd_levels_classifies_no_children(self, monkeypatch):
        rows = []
        real = recurrence._classify_rows

        def counting(states, *args):
            rows.append(len(states))
            return real(states, *args)

        monkeypatch.setattr(recurrence, "_classify_rows", counting)
        (scan,) = scan_thresholds(NoiseModel.from_one_qubit_depolarizing, DEFAULT_SCAN_INITIALS[:1],
                                  bisect_tol=6e-3, max_rounds=500)
        # three levels per chain: the ends, one batch of two levels, then one midpoint per chain
        assert len(scan.evaluations) == 2 + 3 + 3
        assert len(rows) == 3 and rows[0] == 2 and rows[2] <= 2

    def test_a_batch_holds_each_parameter_tensor_once(self, monkeypatch):
        batches = []
        real = recurrence._classify_rows

        def recording(states, tensors, *args):
            owners = args[-1]
            batches.append((len(states), len(tensors), sorted(set(owners))))
            return real(states, tensors, *args)

        monkeypatch.setattr(recurrence, "_classify_rows", recording)
        scan_thresholds(NoiseModel.from_one_qubit_depolarizing, DEFAULT_SCAN_INITIALS,
                        bisect_tol=1e-3, max_rounds=500)
        for rows, tensors, owners in batches:
            assert owners == list(range(tensors))
        # the ends and the first midpoints are shared by all four initial states
        assert batches[0][:2] == (8, 2) and batches[1][:2] == (12, 3)


class TestThresholds:
    def test_product_family_brackets_reference_interval(self):
        scan = find_thresholds(
            NoiseModel.from_one_qubit_depolarizing,
            SubensembleState.werner(0.85),
            lo=0.895,
            hi=0.905,
            bisect_tol=1e-5,
            max_rounds=3000,
        )
        assert scan.f_purify == pytest.approx(0.8983, abs=5e-4)
        assert scan.f_secure == pytest.approx(0.8988, abs=5e-4)
        assert 0.0 < scan.f_secure - scan.f_purify < 1e-3

    def test_insecure_band_is_pinned(self):
        # default scan settings on the product family: the purification
        # threshold lies below the security threshold, leaving a band of
        # noise in which the state purifies but the flags are not perfectly
        # correlated with the Bell labels
        scan = find_thresholds(
            NoiseModel.from_one_qubit_depolarizing,
            SubensembleState.werner(0.85),
            bisect_tol=1e-5,
            max_rounds=3000,
        )
        assert scan.f_purify == pytest.approx(0.8983056640624999, abs=1e-5)
        assert scan.f_secure == pytest.approx(0.8987451171874999, abs=1e-5)
        assert scan.f_secure - scan.f_purify > 3e-4

    def test_all_secure_range_raises(self):
        with pytest.raises(NoThresholdError):
            find_thresholds(
                NoiseModel.from_one_qubit_depolarizing,
                SubensembleState.werner(0.85),
                lo=0.99,
                hi=1.0,
            )

    def test_uniform_family_has_its_own_thresholds(self):
        scan = find_thresholds(
            NoiseModel.from_uniform_residual,
            SubensembleState.werner(0.85),
            lo=0.82,
            hi=0.92,
            bisect_tol=1e-4,
            max_rounds=2000,
        )
        assert scan.f_purify is not None and scan.f_secure is not None
        assert scan.f_purify <= scan.f_secure

    def test_werner_grid(self):
        scans = scan_thresholds(
            NoiseModel.from_one_qubit_depolarizing,
            [SubensembleState.werner(0.85), SubensembleState.werner(0.95)],
            lo=0.895,
            hi=0.905,
            bisect_tol=1e-4,
            max_rounds=2000,
        )
        assert len(scans) == 2
        for scan in scans:
            assert scan.found
            assert scan.f_purify == pytest.approx(0.8983, abs=1e-3)

    def test_rejects_inverted_range(self):
        with pytest.raises(ValueError, match="lo < hi"):
            find_thresholds(
                NoiseModel.from_one_qubit_depolarizing,
                SubensembleState.werner(0.85),
                lo=0.9,
                hi=0.9,
            )

    @pytest.mark.parametrize("bisect_tol", [0.0, -1.0, float("nan")])
    def test_rejects_bisect_tol_that_cannot_end_the_bisection(self, bisect_tol, monkeypatch):
        # a zero or negative tolerance never ends the loop once the bracket
        # reaches adjacent doubles, and a NaN one skips the bisection
        def no_evaluation(*args, **kwargs):
            raise AssertionError("built a round tensor before checking bisect_tol")

        monkeypatch.setattr(recurrence, "round_tensor", no_evaluation)
        with pytest.raises(ValueError, match="bisect_tol must be positive and finite"):
            find_thresholds(
                NoiseModel.from_one_qubit_depolarizing,
                SubensembleState.werner(0.85),
                bisect_tol=bisect_tol,
            )
