"""Round map, fixpoint iteration, regimes, thresholds."""

import math
import tracemalloc
from bisect import bisect_right
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from labels import PauliIndex

import qpurify.bell as bell
import qpurify.recurrence as recurrence
from qpurify.bell import flag_match_weight, phi_plus_weight
from qpurify.errors import DegenerateRoundError, NoThresholdError
from qpurify.noise import BEFORE_BCNOT, BEFORE_ROTATION, NoiseModel
from qpurify.recurrence import (
    Regime,
    RegimeReport,
    SubensembleState,
    classify_regime,
    find_thresholds,
    iterate,
    one_round,
)

WERNER_085 = [0.85, 0.05, 0.05, 0.05]


def flagless_round(bell_probs, noise):
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
                    if noise.placement == BEFORE_ROTATION:
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


def reference_round(v, noise):
    """One round as a per-event weighted histogram of the event cell table.

    Every (control, target, event) weight lands in its output cell; this
    is the round map computed from the composed table, not from its two
    factors as the engine computes it.
    """
    table = bell.event_cell_table(noise.placement)
    weights = np.einsum("i,j,e->ije", v, v, noise.f.ravel())
    totals = np.bincount(table.ravel(), weights=weights.ravel(), minlength=17)
    keep = totals[:16].sum()
    if keep < recurrence.KEEP_PROBABILITY_FLOOR:
        raise DegenerateRoundError(f"keep probability {keep:.3e}")
    return totals[:16] / keep, keep


def reference_iterate(state, noise, max_rounds, tol=1e-12):
    """Loop of reference rounds under the stop rule of ``iterate``.

    Raises :class:`DegenerateRoundError` at a round that keeps nothing.
    """
    v = state.p.ravel()
    rows, keeps = [v], [1.0]
    converged = False
    for _ in range(max_rounds):
        new, keep = reference_round(v, noise)
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


def random_noise(seed, placement=BEFORE_ROTATION):
    rng = np.random.default_rng(seed + 1000)
    return NoiseModel(rng.dirichlet(np.ones(16)), placement)


def run_step(states, tables, gathers):
    """One :func:`recurrence._round_step` round of a stack of rows: (outputs, keeps)."""
    out, keeps = np.empty((len(states), 16)), np.empty(len(states))
    recurrence._round_step(tables, gathers)(states, out, keeps)
    return out, keeps


def counting_steps(monkeypatch, rounds):
    """Record the number of rows of every round step the engine takes."""
    real = recurrence._round_step

    def counting(tables, gathers):
        step = real(tables, gathers)

        def counted(states, out, keeps):
            rounds.append(len(states))
            step(states, out, keeps)

        return counted

    monkeypatch.setattr(recurrence, "_round_step", counting)


def nan_tables(monkeypatch):
    """Make every noise table the engine builds NaN, with the true gather indices."""
    real = recurrence._factors

    def factors(noises):
        tables, gathers = real(noises)
        return np.full_like(tables, np.nan), gathers

    monkeypatch.setattr(recurrence, "_factors", factors)


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

    @pytest.mark.parametrize("bad", [-0.1, 1.5, math.nan, "0.85", None])
    def test_werner_rejects_a_fidelity_outside_the_unit_interval(self, bad):
        with pytest.raises(ValueError, match=r"fidelity: (must be [<>]= [01]\.0|expected a number)"):
            SubensembleState.werner(bad)

    def test_random_flag_mode(self):
        state = SubensembleState.from_bell_probs(WERNER_085, flag_mode="random")
        assert np.allclose(state.p.sum(axis=1), 0.25, atol=1e-15)
        assert np.allclose(state.p.sum(axis=0), WERNER_085, atol=1e-15)

    def test_rejects_bad_flag_mode(self):
        with pytest.raises(ValueError, match="flag_mode"):
            SubensembleState.from_bell_probs(WERNER_085, flag_mode="banana")

    def test_rejects_a_bell_table_of_the_wrong_length(self):
        with pytest.raises(ValueError, match="exactly 4 entries"):
            SubensembleState.from_bell_probs([0.5, 0.5])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite(self, bad):
        p = np.full(16, 1.0 / 16.0)
        p[3] = bad
        with pytest.raises(ValueError):
            SubensembleState(p)
        with pytest.raises(ValueError, match="bell_probs entries"):
            SubensembleState.from_bell_probs([bad, 0.0, 0.0, 1.0])

    @pytest.mark.parametrize(
        "probs",
        [["1", "0", "0", "0"], [True, False, False, False], [1.0, 0.0, 0.0, False],
         [10**400, 0, 0, 0]],
        ids=["strings", "bools", "one-bool", "int-too-large-for-a-float"],
    )
    def test_rejects_strings_and_bools(self, probs):
        with pytest.raises(ValueError, match="bell_probs must hold numbers"):
            SubensembleState.from_bell_probs(probs)
        with pytest.raises(ValueError, match="state must hold numbers"):
            SubensembleState(probs + [0] * 12)


class TestFidelities:
    def test_concentrated_clean(self):
        p = np.zeros((4, 4))
        p[0, 0] = 1.0
        state = SubensembleState(p)
        assert phi_plus_weight(state.p.ravel()) == 1.0
        assert flag_match_weight(state.p.ravel()) == 1.0

    def test_flag_predicts_state(self):
        p = np.zeros((4, 4))
        p[3, 3] = 1.0  # flag (11), Bell Psi-
        state = SubensembleState(p)
        assert phi_plus_weight(state.p.ravel()) == 0.0
        assert flag_match_weight(state.p.ravel()) == 1.0

    def test_uniform(self):
        state = SubensembleState(np.full((4, 4), 1.0 / 16.0))
        assert phi_plus_weight(state.p.ravel()) == pytest.approx(0.25, abs=1e-15)
        assert flag_match_weight(state.p.ravel()) == pytest.approx(0.25, abs=1e-15)


class TestOneRound:
    def test_noiseless_matches_ideal_recurrence(self):
        rng = np.random.default_rng(42)
        identity = NoiseModel.from_one_qubit_depolarizing(1.0)
        for _ in range(20):
            probs = rng.dirichlet(np.ones(4))
            state = SubensembleState.from_bell_probs(probs)
            out, keep = one_round(state, identity)
            expected, expected_keep = ideal_recurrence(probs)
            assert np.max(np.abs(out.p.sum(axis=0) - expected)) < 1e-12
            assert abs(keep - expected_keep) < 1e-12

    def test_noiseless_pure_input_is_fixed_point(self):
        state = SubensembleState.from_bell_probs([1, 0, 0, 0])
        out, keep = one_round(state, NoiseModel.from_one_qubit_depolarizing(1.0))
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
        noise = random_noise(seed, placement)
        out, keep = one_round(state, noise)
        expected, expected_keep = flagless_round(probs, noise)
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
            table = bell.event_cell_table(placement)
            direct = np.bincount(table.ravel(), weights=w_direct.ravel(), minlength=17)
            relabel = np.bincount(table.ravel(), weights=w_relabel.ravel(), minlength=17)
            assert np.max(np.abs(direct - relabel)) < 1e-15

    def test_rejects_unknown_placement(self):
        # a placement is checked where a noise model is built, and by the cell table
        with pytest.raises(ValueError, match="placement"):
            random_noise(0, "after_measurement")
        with pytest.raises(ValueError, match="placement"):
            bell.event_cell_table("after_measurement")


def factored_tensor(noise):
    """The round as a 256x17 quadratic form, built from the two factors of the event cell table.

    Row ``i * 16 + j`` holds where control category ``i`` and target
    category ``j`` land, over the noise events: sigma_mu takes ``i`` to
    ``permutation[mu, i]``, sigma_nu takes ``j`` to ``permutation[nu, j]``,
    and the pair cell table places the pair.
    """
    permutation = bell.event_category_permutation(noise.placement)
    cells = bell.pair_cell_table()[permutation[:, None, :, None], permutation[None, :, None, :]]
    pair = np.arange(256).reshape(16, 16)
    bins = pair[None, None] * 17 + cells  # [mu, nu, i, j]
    weights = np.broadcast_to(noise.f[:, :, None, None], bins.shape)
    return np.bincount(bins.ravel(), weights=weights.ravel(), minlength=256 * 17).reshape(256, 17)


def bell_marginal_transfer(noise):
    """Q[control * 4 + target, label]: where two Bell labels land, label 4 for a discard.

    The two factors of the event cell table with the flags summed out: a
    Pauli's label shift and the pair cell table's Bell label and discard do
    not depend on the flags, so the flag-0 categories carry them.
    """
    labels = bell.event_category_permutation(noise.placement)[:, :4] & 3  # [pauli, label]
    cells = bell.pair_cell_table()[:4, :4][labels[:, None, :, None], labels[None, :, None, :]]
    out = np.where(cells == bell.DISCARDED, 4, cells & 3)  # [mu, nu, control, target]
    bins = np.arange(16).reshape(4, 4)[None, None] * 5 + out
    weights = np.broadcast_to(noise.f[:, :, None, None], bins.shape)
    return np.bincount(bins.ravel(), weights=weights.ravel(), minlength=16 * 5).reshape(16, 5)


def marginal_trajectory(noise, rounds):
    """F and the keep probability of ``rounds`` rounds of the Bell marginal map from Werner 0.85."""
    q = bell_marginal_transfer(noise)
    marginal, fidelities, keeps = np.array(WERNER_085), [WERNER_085[0]], [1.0]
    for _ in range(rounds):
        landed = np.outer(marginal, marginal).ravel() @ q
        keeps.append(landed[:4].sum())
        marginal = landed[:4] / keeps[-1]
        fidelities.append(marginal[0])
    return fidelities, keeps


class TestFactoredRound:
    """The round map, factored through its noise events."""

    @pytest.mark.parametrize("placement", [BEFORE_ROTATION, BEFORE_BCNOT])
    def test_rows_are_distributions_over_cells(self, placement):
        tensor = factored_tensor(random_noise(3, placement))
        assert tensor.min() >= 0.0
        assert np.max(np.abs(tensor.sum(axis=1) - 1.0)) < 1e-15

    @pytest.mark.parametrize("placement", [BEFORE_ROTATION, BEFORE_BCNOT])
    @pytest.mark.parametrize("seed", range(8))
    def test_one_round_matches_reference_histogram(self, placement, seed):
        state, noise = random_state(seed), random_noise(seed, placement)
        out, keep = one_round(state, noise)
        expected, expected_keep = reference_round(state.p.ravel(), noise)
        assert np.max(np.abs(out.p.ravel() - expected)) < 1e-15
        assert abs(keep - expected_keep) < 1e-15

    @pytest.mark.parametrize(
        "noise, initial, max_rounds, converged",
        [
            # near threshold: spectral radius ~0.994, still moving after 2,000 rounds
            (NoiseModel.from_one_qubit_depolarizing(0.8986), SubensembleState.werner(0.85),
             2000, False),
            (NoiseModel.from_uniform_residual(0.97), SubensembleState.werner(0.85),
             500, True),
            (NoiseModel.from_one_qubit_depolarizing(0.95, BEFORE_BCNOT),
             SubensembleState.from_bell_probs([0.8, 0.1, 0.05, 0.05], flag_mode="random"),
             500, True),
        ],
        ids=["near-threshold", "fig1", "bcnot-random-flags"],
    )
    def test_iterate_matches_reference_loop(self, noise, initial, max_rounds, converged):
        traj = iterate(initial, noise, max_rounds=max_rounds)
        rows, keeps, reference_converged = reference_iterate(initial, noise, max_rounds)
        assert traj.converged == reference_converged == converged
        assert traj.rounds == len(rows) - 1
        assert np.max(np.abs(traj.coefficients - rows)) < 1e-12
        assert np.max(np.abs(traj.keeps - keeps)) < 1e-12

    @pytest.mark.parametrize("placement", [BEFORE_ROTATION, BEFORE_BCNOT])
    def test_fig1_trajectory_follows_the_bell_marginal_map(self, placement):
        # F and the keep probability are functions of the 4-label Bell marginal alone
        noise = NoiseModel.from_uniform_residual(0.97, placement)
        traj = iterate(SubensembleState.werner(0.85), noise, max_rounds=10)
        fidelities, keeps = marginal_trajectory(noise, traj.rounds)
        assert traj.rounds == 10
        assert np.max(np.abs(traj.fidelities() - fidelities)) < 1e-14
        assert np.max(np.abs(traj.keeps - keeps)) < 1e-14

    @pytest.mark.parametrize("placement", [BEFORE_ROTATION, BEFORE_BCNOT])
    def test_dirichlet_trajectory_follows_its_placements_marginal_map(self, placement):
        # uniform and product noise commute with the rotation, so their marginal maps
        # agree across placements; Dirichlet noise does not, and only its own map fits
        noise = random_noise(3, placement)
        traj = iterate(SubensembleState.werner(0.85), noise, max_rounds=10)
        other = BEFORE_BCNOT if placement == BEFORE_ROTATION else BEFORE_ROTATION
        fidelities, keeps = marginal_trajectory(noise, traj.rounds)
        other_fidelities, other_keeps = marginal_trajectory(NoiseModel(noise.f, other), traj.rounds)
        assert traj.rounds == 10
        assert np.max(np.abs(traj.fidelities() - fidelities)) < 1e-14
        assert np.max(np.abs(traj.keeps - keeps)) < 1e-14
        assert np.max(np.abs(traj.fidelities() - other_fidelities)) > 1e-2
        assert np.max(np.abs(traj.keeps - other_keeps)) > 1e-2

    def test_round_buffer_is_not_preallocated(self):
        # a pure Phi+ input is a fixpoint of the noiseless map: one round
        traj = iterate(SubensembleState.from_bell_probs([1, 0, 0, 0]), NoiseModel.from_one_qubit_depolarizing(1.0),
                       max_rounds=10**15)
        assert traj.converged and traj.rounds == 1

    def test_non_finite_rows_fail_the_batched_check(self, monkeypatch):
        nan_tables(monkeypatch)
        with pytest.raises(ValueError, match="NaN"):
            iterate(SubensembleState.werner(0.85), NoiseModel.from_one_qubit_depolarizing(1.0), max_rounds=3)
        # a long iteration fails at its first check block, not after running every round
        rounds = []
        counting_steps(monkeypatch, rounds)
        with pytest.raises(ValueError, match="NaN"):
            iterate(SubensembleState.werner(0.85), NoiseModel.from_one_qubit_depolarizing(1.0), max_rounds=10**6)
        assert 0 < len(rounds) <= recurrence._CHECK_EVERY


def mixed_batch(size, seed):
    """Random rows and Dirichlet(0.3) noise models, alternating the two placements."""
    rng = np.random.default_rng(seed)
    noises = [NoiseModel(rng.dirichlet(np.full(16, 0.3)), (BEFORE_ROTATION, BEFORE_BCNOT)[k % 2])
              for k in range(size)]
    return rng.dirichlet(np.ones(16), size=size), noises


class TestRoundStep:
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_the_event_table_reference(self, seed):
        states, noises = mixed_batch(21, seed)
        out, keeps = run_step(states, *recurrence._factors(noises))
        for v, noise, row, keep in zip(states, noises, out, keeps):
            expected, expected_keep = reference_round(v, noise)
            assert np.max(np.abs(row - expected)) <= 1e-15
            assert abs(keep - expected_keep) <= 1e-15

    def test_a_row_is_the_same_bits_in_any_batch(self):
        states, noises = mixed_batch(21, 7)
        tables, gathers = recurrence._factors(noises)
        whole = run_step(states, tables, gathers)
        for size in (1, 2):
            for start in range(0, 21 - size + 1):
                rows = slice(start, start + size)
                part = run_step(states[rows], tables[rows], gathers[rows])
                # array_equal compares bit for bit
                assert np.array_equal(part[0], whole[0][rows]) and np.array_equal(part[1], whole[1][rows])

    def test_every_cell_has_a_run_of_kept_entries(self):
        # reduceat would read an empty run as the next run's first entry
        order, starts = recurrence._cell_runs()
        cells = bell.pair_cell_table().ravel()[order]
        assert np.all(np.diff(starts) > 0) and len(starts) == 16 and len(order) == 128
        assert np.array_equal(cells, np.sort(cells)) and cells[-1] < bell.DISCARDED

    def test_a_degenerate_row_is_floored_not_divided_by_zero(self):
        # with warnings as errors, a 0/0 would raise
        _, gathers = recurrence._factors([x_flip_noise()])
        out, keeps = run_step(np.eye(16)[:1], x_flip_noise().f[None], gathers)
        assert keeps[0] == 0.0 and np.array_equal(out, np.zeros((1, 16)))


class TestIterate:
    def test_noiseless_werner_07_converges_to_unity(self):
        traj = iterate(SubensembleState.werner(0.7), NoiseModel.from_one_qubit_depolarizing(1.0), max_rounds=200)
        assert traj.converged
        assert traj.limiting_fidelity == pytest.approx(1.0, abs=1e-9)
        f = traj.fidelities()
        assert np.all(np.diff(f) >= -1e-12)

    def test_noiseless_werner_03_fails_to_purify(self):
        traj = iterate(SubensembleState.werner(0.3), NoiseModel.from_one_qubit_depolarizing(1.0), max_rounds=200)
        assert traj.limiting_fidelity == pytest.approx(0.25, abs=1e-6)

    def test_product_097_purifies_and_is_secure(self):
        noise = NoiseModel.from_one_qubit_depolarizing(0.97)
        traj = iterate(SubensembleState.werner(0.85), noise)
        assert traj.converged
        assert traj.limiting_fidelity > 0.85
        assert 1.0 - traj.limiting_conditional_fidelity < 1e-9

    def test_round_zero_records_input(self):
        state = SubensembleState.werner(0.85)
        traj = iterate(state, NoiseModel.from_one_qubit_depolarizing(1.0), max_rounds=3)
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
            assert row[1] == pytest.approx(phi_plus_weight(state.p.ravel()), abs=1e-15)
            assert row[2] == pytest.approx(flag_match_weight(state.p.ravel()), abs=1e-15)
        assert traj.limiting_fidelity == rows[-1][1]
        assert traj.limiting_conditional_fidelity == rows[-1][2]

    def test_rows_schema(self):
        traj = iterate(SubensembleState.werner(0.85), NoiseModel.from_one_qubit_depolarizing(1.0), max_rounds=2)
        rows = traj.rows()
        assert len(rows) == 3
        assert all(len(row) == 20 for row in rows)


class TestClassifyRegime:
    def test_low_noise_is_secure(self):
        (report,) = classify_regime(
            [NoiseModel.from_one_qubit_depolarizing(0.999)], [SubensembleState.werner(0.85)]
        )
        assert report.regime == Regime.PURIFY_SECURE

    def test_high_noise_no_purification(self):
        (report,) = classify_regime(
            [NoiseModel.from_one_qubit_depolarizing(0.80)], [SubensembleState.werner(0.85)]
        )
        assert report.regime == Regime.NO_PURIFICATION
        assert report.f_max == pytest.approx(0.25, abs=1e-6)

    def test_intermediate_regime_at_08985(self):
        (report,) = classify_regime(
            [NoiseModel.from_one_qubit_depolarizing(0.8985)],
            [SubensembleState.werner(0.85)],
            max_rounds=3000,
        )
        assert report.regime == Regime.PURIFY_INSECURE
        assert report.f_max > 0.5
        assert 1.0 - report.conditional_limit > 1e-3

    def test_degenerate_maps_to_no_purification(self):
        f = np.zeros(16)
        f[PauliIndex.X] = 1.0
        (report,) = classify_regime(
            [NoiseModel(f)], [SubensembleState.from_bell_probs([1, 0, 0, 0])]
        )
        assert report.regime == Regime.NO_PURIFICATION
        assert report.degenerate

    def test_noiseless_limit_is_secure(self):
        (report,) = classify_regime(
            [NoiseModel.from_one_qubit_depolarizing(1.0)], [SubensembleState.werner(0.85)]
        )
        assert report.regime == Regime.PURIFY_SECURE

    @pytest.mark.parametrize(
        "f0, regime",
        [(0.8987499999999999, Regime.PURIFY_SECURE),
         (0.8982812499999999, Regime.NO_PURIFICATION),
         (0.8983007812499999, Regime.NO_PURIFICATION)],
    )
    def test_defaults_label_as_the_default_scan(self, f0, regime):
        # parameters of the default primary scan whose label takes more than 500 rounds
        (report,) = classify_regime(
            [NoiseModel.from_one_qubit_depolarizing(f0)], [SubensembleState.from_bell_probs(WERNER_085)]
        )
        assert report.regime == regime


def serial_report(noise, initial, max_rounds, secure_tol=1e-6, purify_margin=1e-4, fixpoint_tol=1e-12):
    """One row classified on its own: the reference loop, then the labels of ``classify_regime``.

    Built on ``reference_iterate``, not on ``iterate``, so it shares no
    loop with the batch it checks.
    """
    f0 = phi_plus_weight(initial.p.ravel())
    try:
        rows, _, converged = reference_iterate(initial, noise, max_rounds, fixpoint_tol)
    except DegenerateRoundError:
        return RegimeReport(Regime.NO_PURIFICATION, math.nan, math.nan, 0, False, f0, degenerate=True)
    last = SubensembleState(rows[-1])
    f_max, cond_limit = phi_plus_weight(last.p.ravel()), flag_match_weight(last.p.ravel())
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


#: (noise, initial state) rows of one batch, with what each shows at 400 rounds.
BATCH_ROWS = [
    # secure in 24 rounds
    (NoiseModel.from_one_qubit_depolarizing(0.97), SubensembleState.werner(0.85)),
    # keep probability 0 in round 1: degenerate
    (x_flip_noise(), SubensembleState.from_bell_probs([1, 0, 0, 0])),
    # still moving at the cap
    (NoiseModel.from_one_qubit_depolarizing(0.8986), SubensembleState.werner(0.85)),
    # collapses to the depolarized state in 35 rounds
    (NoiseModel.from_one_qubit_depolarizing(0.80), SubensembleState.werner(0.85)),
    # a fixpoint: converges in round 1
    (NoiseModel.from_one_qubit_depolarizing(1.0), SubensembleState.from_bell_probs([1, 0, 0, 0])),
    # insecure in 41 rounds
    (NoiseModel.from_uniform_residual(0.9, BEFORE_BCNOT), SubensembleState.werner(0.85, flag_mode="random")),
]


class TestBatchedClassification:
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("max_rounds", [0, 1, 400])
    def test_batch_matches_each_row_classified_alone(self, max_rounds):
        initials = [initial for _, initial in BATCH_ROWS]
        noises = [noise for noise, _ in BATCH_ROWS]
        batch = classify_regime(noises, initials, 1e-6, 1e-4, max_rounds, 1e-12)
        expected = [serial_report(noise, initial, max_rounds) for noise, initial in BATCH_ROWS]

        def labels(report):
            return (report.regime, report.rounds, report.converged, report.degenerate,
                    report.initial_fidelity)

        def limits(reports):
            return np.array([(r.f_max, r.conditional_limit) for r in reports])

        assert [labels(r) for r in batch] == [labels(r) for r in expected]
        # NaN on the degenerate row, on both sides
        np.testing.assert_allclose(limits(batch), limits(expected), rtol=0, atol=1e-12)
        alone = [
            classify_regime(noises[k:k + 1], initials[k:k + 1], 1e-6, 1e-4, max_rounds, 1e-12)[0]
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

    @pytest.mark.parametrize(
        "purify_margin, secure_tol, regime",
        [
            # 0.75 > 0.25 + 0.5 is false, and secure alone does not purify
            (0.5, 0.5, Regime.NO_PURIFICATION),
            # 1 - 0.75 < 0.25 is false
            (0.25, 0.25, Regime.PURIFY_INSECURE),
            (0.25, 0.5, Regime.PURIFY_SECURE),
        ],
    )
    def test_a_tie_falls_below_its_threshold(self, purify_margin, secure_tol, regime):
        # F = F_cond = 0.75 and every sum is exact; with no round the input is the final row
        initial = SubensembleState.from_bell_probs([0.75, 0.25, 0, 0])
        noise = NoiseModel.from_one_qubit_depolarizing(1.0)
        (report,) = classify_regime([noise], [initial], secure_tol, purify_margin, 0, 1e-12)
        expected = serial_report(noise, initial, 0, secure_tol, purify_margin)
        assert report.regime == expected.regime == regime
        assert (report.f_max, report.conditional_limit) == (0.75, 0.75)

    def test_non_finite_rows_fail_at_the_first_check_block(self, monkeypatch):
        rounds = []
        counting_steps(monkeypatch, rounds)
        nan_tables(monkeypatch)
        initials = [SubensembleState.werner(0.85)] * 2
        with pytest.raises(ValueError, match="NaN"):
            classify_regime([NoiseModel.from_one_qubit_depolarizing(1.0)] * 2, initials, 1e-6, 1e-4, 10_000, 1e-12)
        assert rounds == [2] * recurrence._CHECK_EVERY

    def test_shared_midpoints_are_classified_once(self, monkeypatch):
        # with one initial state, a batch's rows are the parameters whose noise model it built
        batches, built = [], []
        real = recurrence.classify_regime

        def family(x):
            built.append(x)
            return NoiseModel.from_one_qubit_depolarizing(x)

        def counting(noises, initials, *args):
            assert len(initials) == len(built)
            batches.append(built[:])
            built.clear()
            return real(noises, initials, *args)

        monkeypatch.setattr(recurrence, "classify_regime", counting)
        lo, hi = 0.895, 0.905
        (scan,) = find_thresholds(family, [SubensembleState.werner(0.85)], lo=lo, hi=hi, bisect_tol=1e-3,
                                  max_rounds=500)
        classified = [x for batch in batches for x in batch]
        evaluated = {x for x, _ in scan.evaluations}
        # both bisections read the midpoints they share off the table, so the evaluations
        # repeat them, but each parameter is iterated once
        assert len(scan.evaluations) > len(evaluated)
        assert len(classified) == len(set(classified))
        assert evaluated <= set(classified)
        # the ends first, then one batch per two of the four bisection levels; the first
        # holds the midpoint of the ends' bracket and the midpoints of both its halves
        mid = 0.5 * (lo + hi)
        assert batches[0] == [lo, hi] and len(batches) == 1 + 2
        assert batches[1] == [mid, 0.5 * (lo + mid), 0.5 * (mid + hi)]


def reference_lockstep(state, table, gather, max_rounds, tol=1e-12):
    """One row through the stop rule, one round at a time, in a batch of its own.

    Returns its outputs and keeps up to the round it stops at, and
    ``(rounds, converged, degenerate)`` at that round (None when it runs
    no round at all).
    """
    v, rows, keeps = state, [], []
    for n in range(1, max_rounds + 1):
        (new,), (keep,) = run_step(v[None], table[None], gather[None])
        rows.append(new)
        keeps.append(keep)
        settled = np.abs(new - v).max() < tol
        stuck = keep < recurrence.KEEP_PROBABILITY_FLOOR
        if settled or stuck or n == max_rounds:
            return np.array(rows), np.array(keeps), (n, bool(settled), bool(stuck))
        v = new
    return np.empty((0, 16)), np.empty(0), None


def blocked_lockstep(states, tables, gathers, max_rounds, tol=1e-12):
    """Every row's outputs, keeps and stop, read from the blocks of ``_lockstep``."""
    rows = [[np.empty((0, 16))] for _ in states]
    keeps = [[np.empty(0)] for _ in states]
    stops = [None] * len(states)
    for block in recurrence._lockstep(states, tables, gathers, max_rounds, tol):
        for j, k in enumerate(block.live.tolist()):
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
        states = np.array([initial.p.ravel() for _, initial in BATCH_ROWS])
        tables, gathers = recurrence._factors([noise for noise, _ in BATCH_ROWS])
        blocked = blocked_lockstep(states, tables, gathers, max_rounds)
        for k, (rows, keeps, stop) in enumerate(blocked):
            expected_rows, expected_keeps, expected_stop = reference_lockstep(
                states[k], tables[k], gathers[k], max_rounds)
            # array_equal compares bit for bit; no row here is NaN
            assert np.array_equal(rows, expected_rows)
            assert np.array_equal(keeps, expected_keeps)
            assert stop == expected_stop
        if max_rounds == 3000:
            assert [stop for _, _, stop in blocked] == [
                (24, True, False), (1, False, True), (2409, True, False),
                (35, True, False), (1, True, False), (41, True, False),
            ]

    def test_rows_before_a_degenerate_round_are_validated(self):
        # from pure category 0 this table keeps a third, from events 5 and 7, and round 1
        # makes the row (-1 at cell 5, 2 at cell 15); round 2 keeps -1, below the floor:
        # only the degenerate round itself is spared the check.  Its output is divided by
        # the floor, 1e-9, so the rounds the block runs past it grow fast; three stay finite
        table = np.zeros(16)
        table[[5, 7, 12]] = -1 / 3, 2 / 3, 2 / 3
        tables, gathers = table.reshape(1, 4, 4), recurrence._factors([NoiseModel.from_one_qubit_depolarizing(1.0)])[1]
        state = np.eye(16)[:1]
        rows, keeps, stop = reference_lockstep(state[0], tables[0], gathers[0], 3)
        assert stop == (2, False, True) and rows[0, 5] < -0.9 and keeps[1] < -0.9
        with pytest.raises(ValueError, match="negative"):
            blocked_lockstep(state, tables, gathers, 3)

    @pytest.mark.parametrize("max_rounds", [0, 1, 63, 64, 65, 130, 3000])
    def test_a_nan_noise_table_fails_its_first_block(self, max_rounds, monkeypatch):
        # a NaN noise table: its row stops only at the cap, so it fails when its first
        # block is validated
        rounds = []
        counting_steps(monkeypatch, rounds)
        noise, initial = BATCH_ROWS[0]
        states = np.array([initial.p.ravel()] * 2)
        tables, gathers = recurrence._factors([noise, noise])
        tables[1] = np.nan
        if max_rounds == 0:
            assert blocked_lockstep(states, tables, gathers, max_rounds)[1][2] is None
        else:
            with pytest.raises(ValueError, match="NaN"):
                blocked_lockstep(states, tables, gathers, max_rounds)
        assert rounds == [2] * min(max_rounds, recurrence._CHECK_EVERY)


def serial_scan(regime, lo, hi, bisect_tol):
    """``ThresholdScan.as_dict`` of a plain serial bisection: the ends, then one threshold after the other.

    ``regime(x)`` labels parameter ``x``; it is called once per bisection
    that visits ``x``.
    """
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
            (partial(NoiseModel.from_uniform_residual, placement=BEFORE_BCNOT),
             [SubensembleState.werner(fid, flag_mode="random") for fid in (0.85, 0.6)],
             dict(lo=0.8, hi=0.95, bisect_tol=1e-3, max_rounds=500)),
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
        scans = find_thresholds(family, initials, **settings)
        bisection = {key: settings.pop(key) for key in ("lo", "hi", "bisect_tol")}
        assert [scan.as_dict() for scan in scans] == [
            serial_scan(lambda x: classify_regime([family(x)], [initial], **settings)[0].regime, **bisection)
            for initial in initials
        ]

    def test_the_last_of_odd_levels_classifies_no_children(self, monkeypatch):
        rows = []
        real = recurrence.classify_regime

        def counting(noises, initials, *args):
            rows.append(len(initials))
            return real(noises, initials, *args)

        monkeypatch.setattr(recurrence, "classify_regime", counting)
        (scan,) = find_thresholds(NoiseModel.from_one_qubit_depolarizing, DEFAULT_SCAN_INITIALS[:1],
                                  bisect_tol=6e-3, max_rounds=500)
        # each bisection reads three levels: after the ends, one batch of two levels, then
        # the one midpoint below each bracket still open
        assert len(scan.evaluations) == 2 + 3 + 3
        assert len(rows) == 3 and rows[0] == 2 and rows[2] <= 2

    def test_a_batch_holds_one_noise_table_per_row(self, monkeypatch):
        # one noise model, whose 4x4 table the row carries, per row
        batches, params = [], []
        real_rows = recurrence.classify_regime

        def family(x):
            params.append(x)
            return NoiseModel.from_one_qubit_depolarizing(x)

        def recording(noises, initials, *args):
            batches.append((len(initials), len(noises), len(set(params))))
            params.clear()
            return real_rows(noises, initials, *args)

        monkeypatch.setattr(recurrence, "classify_regime", recording)
        find_thresholds(family, DEFAULT_SCAN_INITIALS)
        for rows, noises, _ in batches:
            assert noises == rows
        # the ends and the first midpoints are shared by all four initial states
        assert batches[0] == (8, 8, 2) and batches[1] == (12, 12, 3)
        assert [rows for rows, *_ in batches] == [8, 12, 12, 12, 12, 21, 21]

    def test_a_scan_makes_no_block_sized_temporary(self):
        # each row carries a 4x4 noise table, so one warmed default scan peaks at about
        # 0.76 MB, nearly all of it block buffers; a block-sized temporary for the changes
        # or the clipped rows would make it about 0.93 MB
        def scan():
            return find_thresholds(NoiseModel.from_one_qubit_depolarizing, DEFAULT_SCAN_INITIALS)

        scan()
        tracemalloc.start()
        try:
            scan()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.85e6


#: The regimes in the order a monotone family meets them as the parameter grows.
REGIME_ORDER = [Regime.NO_PURIFICATION, Regime.PURIFY_INSECURE, Regime.PURIFY_SECURE]


@st.composite
def step_functions(draw, monotone):
    """A regime that steps at up to four points of [0.88, 0.92]: (steps, regime of each piece)."""
    steps = sorted(draw(st.lists(st.floats(0.88, 0.92), max_size=4)))
    pieces = draw(st.lists(st.sampled_from(REGIME_ORDER), min_size=len(steps) + 1, max_size=len(steps) + 1))
    return steps, sorted(pieces, key=REGIME_ORDER.index) if monotone else pieces


class TestRegimeTable:
    """The scan on made-up regimes: each parameter is its own noise model and its own label."""

    @pytest.mark.parametrize("monotone", [True, False], ids=["monotone", "non-monotone"])
    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), bisect_tol=st.sampled_from([1e-3, 6e-3, 0.01, 0.05]))
    def test_scan_matches_serial_bisection(self, monotone, data, bisect_tol):
        functions = data.draw(st.lists(step_functions(monotone), min_size=1, max_size=3))
        regimes = [
            lambda x, steps=steps, pieces=pieces: pieces[bisect_right(steps, x)]
            for steps, pieces in functions
        ]
        initials = [SubensembleState.werner(0.5 + 0.1 * k) for k in range(len(regimes))]
        owner = {initial.p.tobytes(): k for k, initial in enumerate(initials)}
        classified = []

        def labelled(noises, states, *args):
            reports = []
            for state, x in zip(states, noises):
                k = owner[state.p.tobytes()]
                classified.append((k, x))
                reports.append(RegimeReport(regimes[k](x), math.nan, math.nan, 0, True, 0.0))
            return reports

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(recurrence, "classify_regime", labelled)
            scans = find_thresholds(lambda x: x, initials, bisect_tol=bisect_tol)
        assert len(classified) == len(set(classified))
        assert [scan.as_dict() for scan in scans] == [
            serial_scan(regime, 0.88, 0.92, bisect_tol) for regime in regimes
        ]


class TestThresholds:
    def test_product_family_brackets_reference_interval(self):
        (scan,) = find_thresholds(
            NoiseModel.from_one_qubit_depolarizing,
            [SubensembleState.werner(0.85)],
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
        (scan,) = find_thresholds(
            NoiseModel.from_one_qubit_depolarizing,
            [SubensembleState.werner(0.85)],
            bisect_tol=1e-5,
            max_rounds=3000,
        )
        assert scan.f_purify == pytest.approx(0.8983056640624999, abs=1e-5)
        assert scan.f_secure == pytest.approx(0.8987451171874999, abs=1e-5)
        assert scan.f_secure - scan.f_purify > 3e-4

    def test_all_secure_range_raises(self):
        (scan,) = find_thresholds(
            NoiseModel.from_one_qubit_depolarizing,
            [SubensembleState.werner(0.85)],
            lo=0.99,
            hi=1.0,
        )
        with pytest.raises(NoThresholdError):
            scan.require_found()

    def test_uniform_family_has_its_own_thresholds(self):
        (scan,) = find_thresholds(
            NoiseModel.from_uniform_residual,
            [SubensembleState.werner(0.85)],
            lo=0.82,
            hi=0.92,
            bisect_tol=1e-4,
            max_rounds=2000,
        )
        assert scan.f_purify is not None and scan.f_secure is not None
        assert scan.f_purify <= scan.f_secure

    def test_werner_grid(self):
        scans = find_thresholds(
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
                [SubensembleState.werner(0.85)],
                lo=0.9,
                hi=0.9,
            )

    @pytest.mark.parametrize("bisect_tol", [0.0, -1.0, float("nan")])
    def test_rejects_bisect_tol_that_cannot_end_the_bisection(self, bisect_tol, monkeypatch):
        # a zero or negative tolerance never ends the loop once the bracket
        # reaches adjacent doubles, and a NaN one skips the bisection
        def no_evaluation(*args, **kwargs):
            raise AssertionError("built a noise table stack before checking bisect_tol")

        monkeypatch.setattr(recurrence, "_factors", no_evaluation)
        with pytest.raises(ValueError, match="bisect_tol must be positive and finite"):
            find_thresholds(
                NoiseModel.from_one_qubit_depolarizing,
                [SubensembleState.werner(0.85)],
                bisect_tol=bisect_tol,
            )
