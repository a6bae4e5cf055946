"""Dense-oracle derivations, round equivalence, fault injection."""

import ast
import inspect
from pathlib import Path

import numpy as np
import pytest
from labels import PauliIndex
from projectors import two_sided_shift_table

import qpurify.oracle as oracle
import qpurify.recurrence as recurrence
from qpurify.bell import BCNOT_MAP, PAULI_LABEL_SHIFT, ROTATION_MAP
from qpurify.errors import DegenerateRoundError
from qpurify.flags import FLAG_UPDATE_TABLE
from qpurify.noise import BEFORE_BCNOT, BEFORE_ROTATION, PLACEMENTS, NoiseModel
from qpurify.oracle import (
    ATOL,
    derive_bcnot_table,
    derive_flag_update_table,
    derive_pauli_shift_table,
    derive_rotation_table,
    oracle_one_round,
    run_conformance_checks,
)
from qpurify.recurrence import SubensembleState, one_round


class TestUnitaries:
    def test_unitarity(self):
        # the round's two unitaries, each on both pairs
        assert set(oracle._UNITARIES) == {"rotation", "bcnot"}
        for name, u in oracle._UNITARIES.items():
            assert np.max(np.abs(u @ u.conj().T - np.eye(16))) < ATOL, name

    def test_rotation_moves_phi_minus_to_psi_minus(self):
        # |Phi-, Phi+> (row 0b10 * 4 + 0b00 of the two-pair basis) goes to |Psi-, Phi+>
        u, basis = oracle._UNITARIES["rotation"], oracle._TWO_PAIR_BASIS
        rho = u @ np.outer(basis[0b1000], basis[0b1000].conj()) @ u.conj().T
        assert np.max(np.abs(rho - np.outer(basis[0b1100], basis[0b1100].conj()))) < ATOL

    def test_unitaries_are_read_only(self):
        with pytest.raises(ValueError):
            oracle._UNITARIES["bcnot"][0, 0] = 0

    def test_bcnot_is_an_involution(self):
        u = oracle._UNITARIES["bcnot"]
        assert np.max(np.abs(u @ u - np.eye(16))) < ATOL


class TestDerivedTables:
    def test_rotation_table(self):
        derived = derive_rotation_table()
        for label in range(4):
            assert derived[label] == ROTATION_MAP[label]

    def test_bcnot_table(self):
        derived = derive_bcnot_table()
        assert derived.dtype == np.uint8 and derived.shape == (4, 4)
        for src in range(4):
            for tgt in range(4):
                assert derived[src, tgt] == BCNOT_MAP[src, tgt]

    def test_two_sided_shift_table(self):
        # sigma_mu x sigma_nu relabels as sigma_mu then sigma_nu: the one-sided shifts compose
        derived = two_sided_shift_table()
        for label in range(4):
            for event in range(16):
                expected = label ^ PAULI_LABEL_SHIFT[event >> 2] ^ PAULI_LABEL_SHIFT[event & 3]
                assert derived[label, event] == expected
        # the oracle's own table is sigma_p alone on the first qubit: column p * 4
        assert np.array_equal(derive_pauli_shift_table(), derived[:, ::4])

    def test_flag_update_table_derivation(self):
        assert np.array_equal(derive_flag_update_table(), FLAG_UPDATE_TABLE)

    def test_relabeling_rejects_an_image_off_the_basis(self):
        hadamard = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        with pytest.raises(AssertionError, match="not a basis projector"):
            oracle._relabeling(np.kron(hadamard, np.eye(8)))


def names_the_oracle_imports_from_bell() -> list[str]:
    tree = ast.parse(Path(oracle.__file__).read_text())
    return [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == "bell"
        for alias in node.names
    ]


def broken(table):
    """A copy of a label table with every entry changed."""
    return (np.asarray(table) + 1) % 4


def dense_kraus_sum(branches, f):
    """The noise step as dense products: each event's flag-shifted branches conjugated by
    its 16x16 Kraus operator, the events summed in ascending order."""
    # event mu*4 + nu moves flags (a, b) to (a ^ s[mu], b ^ s[nu]), s = _NOISE_FLAG_SHIFT;
    # each shift is its own inverse, so its branch at (a, b) comes from (a ^ s[mu], b ^ s[nu])
    kraus, source = oracle._NOISE_KRAUS, oracle._FLAGS ^ oracle._NOISE_FLAG_SHIFT[:, None]
    return sum(
        f[e] * (kraus[e] @ branches[np.ix_(source[e >> 2], source[e & 3])] @ kraus[e].conj().T)
        for e in np.flatnonzero(f)
    )


def dense_round(monkeypatch, state, noise):
    """``oracle_one_round`` with its noise step replaced by the dense Kraus sum."""
    with monkeypatch.context() as patch:
        patch.setattr(oracle, "_apply_noise", dense_kraus_sum)
        return oracle_one_round(state, noise)


def noise_with_zeros(rng, placement):
    """Dirichlet(0.3) noise with about a quarter of its events at exactly zero."""
    f = rng.dirichlet(np.full(16, 0.3)) * (rng.random(16) > 0.25)
    return NoiseModel(f / f.sum(), placement)


def conformance_instances(monkeypatch):
    """The (state, noise) pairs ``run_conformance_checks`` hands the dense round by default."""
    instances, real = [], oracle.oracle_one_round

    def record(state, noise):
        instances.append((state, noise))
        return real(state, noise)

    with monkeypatch.context() as patch:
        patch.setattr(oracle, "oracle_one_round", record)
        assert run_conformance_checks().ok
    return instances


class TestNoiseStep:
    """The noise step applies each Kraus operator as a checked phase-permutation, to the bit."""

    @pytest.mark.parametrize("seed", range(10))
    def test_equals_the_dense_kraus_sum(self, seed):
        rng = np.random.default_rng(seed)
        half = rng.normal(size=(4, 4, 16, 16, 2)) @ [1, 1j]
        branches = half + half.conj().swapaxes(-1, -2)
        f = noise_with_zeros(rng, BEFORE_ROTATION).f.ravel()
        assert np.array_equal(oracle._apply_noise(branches, f), dense_kraus_sum(branches, f))

    def test_round_equals_the_dense_round_on_the_conformance_instances(self, monkeypatch):
        instances = conformance_instances(monkeypatch)
        assert len(instances) == 20
        assert {noise.placement for _, noise in instances} == set(PLACEMENTS)
        for state, noise in instances:
            out, keep = oracle_one_round(state, noise)
            expected, expected_keep = dense_round(monkeypatch, state, noise)
            assert keep == expected_keep
            assert np.array_equal(out.p, expected.p)

    @pytest.mark.parametrize("placement", PLACEMENTS)
    def test_round_equals_the_dense_round_on_random_instances(self, monkeypatch, placement):
        rng = np.random.default_rng(31)
        for _ in range(60):
            state = SubensembleState(rng.dirichlet(np.ones(16)).reshape(4, 4))
            noise = noise_with_zeros(rng, placement)
            out, keep = oracle_one_round(state, noise)
            expected, expected_keep = dense_round(monkeypatch, state, noise)
            assert keep == expected_keep
            assert np.array_equal(out.p, expected.p)

    def test_makes_no_matrix_product(self):
        tree = ast.parse(inspect.getsource(oracle._apply_noise))
        products = [node for node in ast.walk(tree) if isinstance(node, ast.MatMult)]
        calls = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        assert not products and not calls & {"matmul", "dot", "einsum", "tensordot"}

    @pytest.mark.parametrize(
        "op",
        [
            np.kron(np.array([[1, 1], [1, -1]]) / np.sqrt(2), np.eye(8)),  # Hadamard on qubit 0
            np.kron(np.diag([1, np.exp(0.25j * np.pi)]), np.eye(8)),  # a T gate: phase off +-1, +-i
        ],
        ids=["hadamard", "t-gate"],
    )
    def test_phase_permutation_check_rejects(self, op):
        with pytest.raises(AssertionError, match="not a phase-permutation"):
            oracle._phase_permutation(op[None].astype(complex))


class TestOracleRound:
    def test_noiseless_pure_input(self):
        state = SubensembleState.from_bell_probs([1, 0, 0, 0])
        out, keep = oracle_one_round(state, NoiseModel.from_one_qubit_depolarizing(1.0))
        assert keep == pytest.approx(1.0, abs=1e-12)
        assert out.p[0, 0] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("placement", [BEFORE_ROTATION, BEFORE_BCNOT])
    @pytest.mark.parametrize("seed", range(10))
    def test_matches_engine(self, placement, seed):
        rng = np.random.default_rng(seed)
        state = SubensembleState(rng.dirichlet(np.ones(16)).reshape(4, 4))
        noise = NoiseModel(rng.dirichlet(np.ones(16)), placement)
        engine_state, engine_keep = one_round(state, noise)
        oracle_state, oracle_keep = oracle_one_round(state, noise)
        assert abs(engine_keep - oracle_keep) < 1e-10
        assert np.max(np.abs(engine_state.p - oracle_state.p)) < 1e-10

    @pytest.mark.parametrize("placement", [BEFORE_ROTATION, BEFORE_BCNOT])
    @pytest.mark.parametrize("seed", range(5))
    def test_flags_never_reach_the_bell_marginal(self, placement, seed):
        # two inputs with one Bell marginal and different flag splits: the dense
        # round gives them one output Bell marginal and one keep probability
        rng = np.random.default_rng(seed)
        marginal = rng.dirichlet(np.ones(4))
        noise = NoiseModel(rng.dirichlet(np.ones(16)), placement)
        # split[flag, bell]: how each Bell label's weight is shared among the flags
        splits = [rng.dirichlet(np.ones(4), size=4).T for _ in range(2)]
        (first, first_keep), (second, second_keep) = (
            oracle_one_round(SubensembleState(split * marginal), noise) for split in splits
        )
        assert np.max(np.abs(first.p.sum(axis=0) - second.p.sum(axis=0))) <= 1e-14
        assert abs(first_keep - second_keep) <= 1e-14
        assert np.max(np.abs(first.p - second.p)) > 1e-3  # the flags themselves differ

    def test_keep_probability_in_unit_interval(self):
        rng = np.random.default_rng(99)
        state = SubensembleState(rng.dirichlet(np.ones(16)).reshape(4, 4))
        noise = NoiseModel.from_uniform_residual(0.8)
        _, keep = oracle_one_round(state, noise)
        assert 0.0 < keep <= 1.0 + 1e-12

    def test_noise_flags_come_from_the_oracles_own_derivation(self, monkeypatch):
        # the engine records noise through its per-event permutation; with x and z swapped
        # in it, every label table still passes, and only the dense round, which derives
        # the noise flags itself, tells the engine's rounds apart from the right ones
        real = recurrence.event_category_permutation
        x_and_z_swapped = [PauliIndex.I, PauliIndex.Z, PauliIndex.Y, PauliIndex.X]
        monkeypatch.setattr(recurrence, "event_category_permutation", lambda p: real(p)[x_and_z_swapped])
        report = run_conformance_checks(round_samples=4, seed=0)
        failing = [c.name for c in report.checks if not c.passed]
        assert failing == ["round map vs oracle on 4 random instances (<= 1e-10)"]

    @pytest.mark.parametrize("placement", [BEFORE_ROTATION, BEFORE_BCNOT])
    def test_round_reads_nothing_it_imports_from_bell(self, monkeypatch, placement):
        # what the oracle takes from bell are the shipped tables it referees
        rng = np.random.default_rng(11)
        state = SubensembleState(rng.dirichlet(np.ones(16)).reshape(4, 4))
        noise = NoiseModel(rng.dirichlet(np.ones(16)), placement)
        expected_state, expected_keep = oracle_one_round(state, noise)
        names = names_the_oracle_imports_from_bell()
        assert names
        for name in names:
            monkeypatch.setattr(oracle, name, broken(getattr(oracle, name)))
        oracle_state, oracle_keep = oracle_one_round(state, noise)
        assert oracle_keep == expected_keep
        assert np.array_equal(oracle_state.p, expected_state.p)

    def test_a_kept_pair_off_the_bell_basis_fails_the_round(self, monkeypatch):
        # read in the computational basis, the kept Bell-diagonal pairs have off-diagonal terms
        monkeypatch.setattr(oracle, "BELL_VECTORS", np.eye(4, dtype=complex))
        state = SubensembleState.from_bell_probs([0.85, 0.05, 0.05, 0.05])
        with pytest.raises(AssertionError, match="not Bell-diagonal"):
            oracle_one_round(state, NoiseModel.from_one_qubit_depolarizing(1.0))

    def test_degenerate_raises(self):
        f = np.zeros(16)
        f[1] = 1.0  # always flip the target pair's amplitude
        state = SubensembleState.from_bell_probs([1, 0, 0, 0])
        with pytest.raises(DegenerateRoundError):
            oracle_one_round(state, NoiseModel(f))


FLAG_CORRELATED_NOISE = {
    "product": NoiseModel.from_one_qubit_depolarizing(0.97),
    "uniform": NoiseModel.from_uniform_residual(0.9),
    "dirichlet": NoiseModel(np.random.default_rng(5).dirichlet(np.ones(16))),
}


def off_diagonal_weight(round_map, placement, noise, seed):
    """Weight off the flag-correlated cells k*4 + k after one round from a state on them,
    with the table of ``noise`` acting at ``placement``."""
    p = np.diag(np.random.default_rng(seed).dirichlet(np.ones(4)))
    out, _ = round_map(SubensembleState(p), NoiseModel(noise.f, placement))
    return out.p.sum() - np.trace(out.p)


@pytest.mark.parametrize("round_map", [one_round, oracle_one_round])
@pytest.mark.parametrize("noise", FLAG_CORRELATED_NOISE.values(), ids=FLAG_CORRELATED_NOISE)
class TestFlagCorrelatedSubspace:
    @pytest.mark.parametrize("seed", range(3))
    def test_invariant_before_rotation(self, round_map, noise, seed):
        assert off_diagonal_weight(round_map, BEFORE_ROTATION, noise, seed) <= 1e-12

    def test_not_invariant_before_bcnot(self, round_map, noise):
        # the invariance that makes the secure fixpoint exist is a property
        # of the default placement only
        assert off_diagonal_weight(round_map, BEFORE_BCNOT, noise, 0) > 1e-3


class TestConformance:
    def test_pristine_build_passes(self):
        report = run_conformance_checks(round_samples=6, seed=3)
        assert report.ok, report.lines()

    def test_mutated_flag_table_fails_naming_entry(self, monkeypatch):
        broken = FLAG_UPDATE_TABLE.copy()
        broken[2, 1] = 0b10  # normative entry is (11)
        monkeypatch.setattr(oracle, "FLAG_UPDATE_TABLE", broken)
        report = run_conformance_checks(round_samples=0)
        failing = [c for c in report.checks if not c.passed]
        assert len(failing) == 1
        assert "flag combination" in failing[0].name
        assert "row 10" in failing[0].detail and "column 01" in failing[0].detail

    def test_flag_table_argument_is_checked_in_place_of_the_shipping_table(self):
        broken = FLAG_UPDATE_TABLE.copy()
        broken[2, 1] = 0b10
        report = run_conformance_checks(round_samples=1, flag_table=broken)
        failing = [c.name for c in report.checks if not c.passed]
        assert failing == ["flag combination table vs label-algebra derivation"]

    @pytest.mark.parametrize("side", ["control", "target"])
    def test_mutated_shipping_shift_table_fails(self, monkeypatch, side):
        # event mu * 4 + nu shifts the control pair by entry mu and the target
        # pair by entry nu of the one table, so a swap of x and z reaches both
        events = np.arange(16)
        read = events >> 2 if side == "control" else events & 3
        shift = PAULI_LABEL_SHIFT[[PauliIndex.I, PauliIndex.Z, PauliIndex.Y, PauliIndex.X]]
        moved = shift[read] != PAULI_LABEL_SHIFT[read]
        assert set(read[moved]) == {PauliIndex.X, PauliIndex.Z}
        monkeypatch.setattr(oracle, "PAULI_LABEL_SHIFT", shift)
        report = run_conformance_checks(round_samples=0)
        failing = [c.name for c in report.checks if not c.passed]
        assert failing == ["Pauli label shifts vs dense conjugation"]

    def test_mutated_bcnot_breaks_bijection(self, monkeypatch):
        src, tgt = np.indices((4, 4))
        # drop the amplitude propagation: outputs collide
        broken = (BCNOT_MAP >> 2) * 4 + (tgt | (src & 1))
        monkeypatch.setattr(oracle, "BCNOT_MAP", broken)
        report = run_conformance_checks(round_samples=0)
        names = {c.name for c in report.checks if not c.passed}
        assert any("bijection" in n for n in names)
        assert any("BCNOT label map vs dense" in n for n in names)

    def test_rotation_fault_fails_only_the_rotation_check(self, monkeypatch):
        monkeypatch.setattr(oracle, "ROTATION_MAP", np.arange(4, dtype=np.uint8))
        report = run_conformance_checks(round_samples=0)
        failing = [c for c in report.checks if not c.passed]
        assert [c.name for c in failing] == ["rotation relabeling vs dense conjugation"]
        assert "label 2" in failing[0].detail and "label 3" in failing[0].detail

    def test_a_wrong_rotation_operator_fails_the_rotation_check(self, monkeypatch):
        # the rotation table is read off the 16x16 operator the dense round applies,
        # so a fault in that operator fails the rotation check itself
        monkeypatch.setitem(oracle._UNITARIES, "rotation", np.eye(16, dtype=complex))
        report = run_conformance_checks(round_samples=0)
        failing = [c for c in report.checks if not c.passed]
        assert "rotation relabeling vs dense conjugation" in [c.name for c in failing]
        assert "label 2: table 3, oracle 2" in failing[0].detail
