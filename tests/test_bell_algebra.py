"""Label maps against explicit matrix algebra, plus the Bell-basis reading of dense matrices."""

import hashlib
import itertools

import numpy as np
import pytest
from hypothesis import given, strategies as st
from labels import PauliIndex
from projectors import bell_projector

from qpurify.bell import (
    DISCARDED,
    PAULI_LABEL_SHIFT,
    BellLabel,
    bcnot_map,
    event_category_permutation,
    event_cell_table,
    measurement_coincides,
    pair_cell_table,
    rotation_step3,
)
from qpurify.flags import FLAG_UPDATE_TABLE
from qpurify.noise import BEFORE_ROTATION, PLACEMENTS
from qpurify.oracle import (
    ATOL,
    BELL_VECTORS,
    PAULIS,
    bell_diagonal_overlaps,
    bell_offdiagonal_max,
)

PHI_PLUS = BellLabel.PHI_PLUS
PSI_PLUS = BellLabel.PSI_PLUS
PHI_MINUS = BellLabel.PHI_MINUS
PSI_MINUS = BellLabel.PSI_MINUS


def bits(label):
    return (label >> 1) & 1, label & 1


def dense_conjugate_label(label, op):
    """Independent identification of a conjugated Bell projector."""
    rho = op @ bell_projector(label) @ op.conj().T
    overlaps = bell_diagonal_overlaps(rho)
    hits = np.nonzero(np.abs(overlaps - 1.0) <= ATOL)[0]
    assert len(hits) == 1, f"conjugation did not produce a Bell projector: {overlaps}"
    return int(hits[0])


class TestPauliShift:
    def test_identity(self):
        assert bits(PAULI_LABEL_SHIFT[PauliIndex.I]) == (0, 0)

    def test_flag_rule(self):
        # sigma_x inverts the amplitude bit, sigma_z the phase bit, sigma_y both
        assert bits(PAULI_LABEL_SHIFT[PauliIndex.X]) == (0, 1)
        assert bits(PAULI_LABEL_SHIFT[PauliIndex.Z]) == (1, 0)
        assert bits(PAULI_LABEL_SHIFT[PauliIndex.Y]) == (1, 1)

    @pytest.mark.parametrize("pauli", list(PauliIndex))
    @pytest.mark.parametrize("label", list(BellLabel))
    def test_matches_dense_one_sided_conjugation_both_sides(self, pauli, label):
        left = np.kron(PAULIS[pauli], PAULIS[0])
        right = np.kron(PAULIS[0], PAULIS[pauli])
        expected = label ^ PAULI_LABEL_SHIFT[pauli]
        assert dense_conjugate_label(label, left) == expected
        assert dense_conjugate_label(label, right) == expected


def two_sided(label, mu, nu):
    """Bell label after sigma_mu on one qubit of the pair and sigma_nu on the other."""
    return label ^ PAULI_LABEL_SHIFT[mu] ^ PAULI_LABEL_SHIFT[nu]


class TestTwoSidedPauli:
    def test_trivial_identity(self):
        assert two_sided(PHI_PLUS, PauliIndex.I, PauliIndex.I) == PHI_PLUS

    def test_x_on_one_side(self):
        assert two_sided(PHI_PLUS, PauliIndex.X, PauliIndex.I) == PSI_PLUS

    def test_two_phase_flips_cancel(self):
        assert two_sided(PSI_MINUS, PauliIndex.Z, PauliIndex.Z) == PSI_MINUS

    @pytest.mark.parametrize("mu", list(PauliIndex))
    @pytest.mark.parametrize("nu", list(PauliIndex))
    @pytest.mark.parametrize("label", list(BellLabel))
    def test_exhaustive_against_dense(self, mu, nu, label):
        op = np.kron(PAULIS[mu], PAULIS[nu])
        assert dense_conjugate_label(label, op) == two_sided(label, mu, nu)


class TestRotation:
    def test_fixes_phi_plus_and_psi_plus(self):
        assert rotation_step3(PHI_PLUS) == PHI_PLUS
        assert rotation_step3(PSI_PLUS) == PSI_PLUS

    def test_exchanges_minus_states(self):
        assert rotation_step3(PHI_MINUS) == PSI_MINUS
        assert rotation_step3(PSI_MINUS) == PHI_MINUS

    def test_involution(self):
        for label in BellLabel:
            assert rotation_step3(rotation_step3(label)) == label
            out = label
            for _ in range(4):
                out = rotation_step3(out)
            assert out == label

    @pytest.mark.parametrize("label", list(BellLabel))
    def test_matches_dense_conjugation(self, label):
        half_x_minus = (PAULIS[0] - 1j * PAULIS[1]) / np.sqrt(2)
        half_x_plus = (PAULIS[0] + 1j * PAULIS[1]) / np.sqrt(2)
        op = np.kron(half_x_minus, half_x_plus)
        assert dense_conjugate_label(label, op) == rotation_step3(label)


class TestBcnot:
    @pytest.mark.parametrize(
        "source,target,expected",
        [
            (PHI_PLUS, PHI_PLUS, (PHI_PLUS, PHI_PLUS)),
            (PSI_MINUS, PHI_PLUS, (PSI_MINUS, PSI_PLUS)),
            (PHI_MINUS, PSI_MINUS, (PHI_PLUS, PSI_MINUS)),
        ],
    )
    def test_examples(self, source, target, expected):
        assert bcnot_map(source, target) == expected

    def test_bit_structure(self):
        for source in BellLabel:
            for target in BellLabel:
                (phase1, amplitude1), (phase2, amplitude2) = bits(source), bits(target)
                out_source, out_target = map(bits, bcnot_map(source, target))
                assert out_source == (phase1 ^ phase2, amplitude1)
                assert out_target == (phase2, amplitude1 ^ amplitude2)

    def test_bijection_on_label_pairs(self):
        images = {bcnot_map(s, t) for s in BellLabel for t in BellLabel}
        assert len(images) == 16


class TestMeasurement:
    def test_phi_type_coincides(self):
        assert measurement_coincides(PHI_PLUS)
        assert measurement_coincides(PHI_MINUS)

    def test_psi_type_anticoincides(self):
        assert not measurement_coincides(PSI_PLUS)
        assert not measurement_coincides(PSI_MINUS)


#: SHA-256 of ``event_cell_table(placement).tobytes()``: the Monte Carlo reads this
#: table, so composing it from other factors must not move a byte of it.
EVENT_CELL_TABLE_SHA256 = {
    "before_rotation": "f1dc258c64fdbae9a9fffb09b8dad20509f2c13eb303c3945fd83a643cee77c1",
    "before_bcnot": "c1852f6a6c5ab5ce3a80875f807f268a56e2a90f5c2ad2c827b583c63abf8a67",
}

# plain-int copies of the label maps, as in a hand enumeration
ROTATED = [0, 1, 3, 2]
SHIFT = [0b00, 0b01, 0b11, 0b10]


class TestRoundFactors:
    @pytest.mark.parametrize("placement", PLACEMENTS)
    def test_event_cell_table_is_pinned(self, placement):
        table = event_cell_table(placement)
        assert table.dtype == np.uint8 and table.shape == (16, 16, 16)
        assert hashlib.sha256(table.tobytes()).hexdigest() == EVENT_CELL_TABLE_SHA256[placement]

    @pytest.mark.parametrize("placement", PLACEMENTS)
    def test_permutation_shifts_flag_and_label_around_the_rotation(self, placement):
        permutation = event_category_permutation(placement)
        for pauli, category in itertools.product(range(4), range(16)):
            flag, label, shift = category >> 2, category & 3, SHIFT[pauli]
            if placement == BEFORE_ROTATION:
                label = ROTATED[label ^ shift]
            else:
                label = ROTATED[label] ^ shift
            assert permutation[pauli, category] == (flag ^ shift) * 4 + label
        assert [sorted(row) for row in permutation.tolist()] == [list(range(16))] * 4

    def test_pair_cell_table_is_the_noiseless_bcnot_and_measurement(self):
        table = pair_cell_table()
        for control, target in itertools.product(range(16), range(16)):
            b1, b2 = control & 3, target & 3
            source, measured = b1 ^ (b2 & 2), b2 ^ (b1 & 1)
            flag = FLAG_UPDATE_TABLE[control >> 2, target >> 2]
            assert table[control, target] == (DISCARDED if measured & 1 else flag * 4 + source)

    @pytest.mark.parametrize("placement", PLACEMENTS)
    def test_event_cell_table_composes_the_two_factors(self, placement):
        permutation, pairs = event_category_permutation(placement), pair_cell_table()
        table = event_cell_table(placement)
        for control, target, event in itertools.product(range(16), repeat=3):
            mu, nu = divmod(event, 4)
            assert table[control, target, event] == pairs[permutation[mu, control], permutation[nu, target]]

    @pytest.mark.parametrize("placement", PLACEMENTS)
    def test_flags_never_reach_the_bell_label_or_the_discard(self, placement):
        # [control flag, control label, target flag, target label, event]: every
        # flag pair sees the same output Bell labels and the same discards,
        # so F and the keep probability follow the Bell marginal alone
        table = event_cell_table(placement).reshape(4, 4, 4, 4, 16)
        marginal = np.where(table == DISCARDED, -1, table & 3)
        for control_flag, target_flag in itertools.product(range(4), repeat=2):
            assert np.array_equal(marginal[control_flag, :, target_flag], marginal[0, :, 0])

    def test_tables_are_read_only(self):
        for table in (pair_cell_table(), *map(event_category_permutation, PLACEMENTS),
                      *map(event_cell_table, PLACEMENTS)):
            with pytest.raises(ValueError):
                table[0] = 0


def random_density_matrix(seed):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    rho = g @ g.conj().T
    return rho / np.trace(rho)


def twirl(rho):
    """Bilateral twirl: the average of the four ``sigma_k x sigma_k`` conjugations.

    Built from the Pauli matrices alone, it is a reference for the
    Bell-diagonal part of ``rho`` that does not go through BELL_VECTORS.
    """
    ops = [np.kron(pauli, pauli) for pauli in PAULIS]
    return sum(op @ rho @ op.conj().T for op in ops) / 4.0


class TestTwirl:
    """The Bell-basis reading the oracle uses, against the bilateral twirl."""

    def test_bell_states_are_fixed_points(self):
        for label in BellLabel:
            rho = bell_projector(label)
            assert np.max(np.abs(twirl(rho) - rho)) < ATOL

    def test_product_state_zero_zero(self):
        # |00> = (Phi+ + Phi-)/sqrt2, so the twirl keeps the two Phi projectors
        rho = np.zeros((4, 4), dtype=complex)
        rho[0, 0] = 1.0
        expected = (bell_projector(PHI_PLUS) + bell_projector(PHI_MINUS)) / 2
        assert np.max(np.abs(twirl(rho) - expected)) < ATOL

    @pytest.mark.parametrize("seed", range(8))
    def test_projection_properties(self, seed):
        rho = random_density_matrix(seed)
        out = twirl(rho)
        assert bell_offdiagonal_max(out) < 1e-12
        # a generic state is not Bell-diagonal; the twirl removes exactly that part
        assert bell_offdiagonal_max(rho) > 1e-3
        assert bell_offdiagonal_max(rho - out) == pytest.approx(bell_offdiagonal_max(rho), abs=1e-12)
        # Bell-diagonal entries survive unchanged
        assert np.max(np.abs(bell_diagonal_overlaps(out) - bell_diagonal_overlaps(rho))) < ATOL
        # idempotent
        assert np.max(np.abs(twirl(out) - out)) < 1e-12

    @given(st.integers(0, 10_000))
    def test_twirl_output_is_bell_mixture(self, seed):
        rho = random_density_matrix(seed)
        out = twirl(rho)
        weights = bell_diagonal_overlaps(out)
        rebuilt = sum(w * bell_projector(b) for b, w in enumerate(weights))
        assert np.max(np.abs(out - rebuilt)) < 1e-12

    def test_bell_vectors_orthonormal(self):
        gram = BELL_VECTORS.conj() @ BELL_VECTORS.T
        assert np.max(np.abs(gram - np.eye(4))) < ATOL
