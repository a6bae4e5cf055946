"""Exact Bell-label algebra for the purification primitives.

Bell states are indexed by two bits packed into one integer,
``(phase_bit << 1) | amplitude_bit``:

    ==  =======  ====================
    0   (0, 0)   (|00> + |11>)/sqrt2   Phi+
    1   (0, 1)   (|01> + |10>)/sqrt2   Psi+
    2   (1, 0)   (|00> - |11>)/sqrt2   Phi-
    3   (1, 1)   (|01> - |10>)/sqrt2   Psi-
    ==  =======  ====================

Every operation the protocol uses (local Pauli errors, the bilateral
half-x rotation, the bilateral CNOT, the target measurement) maps Bell
states onto Bell states up to a global phase, so the hot-path arithmetic
happens on these 2-bit labels.  The dense 4x4 layer at the bottom of
this module (Pauli matrices, Bell vectors and projectors, and the
reading of a matrix in the Bell basis) grounds the label maps in
explicit matrix algebra; :mod:`qpurify.oracle` re-derives every label
table from it and the test suite cross-checks the two routes
exhaustively.
"""

from __future__ import annotations

from enum import IntEnum

import numpy as np

__all__ = [
    "ATOL",
    "BellLabel",
    "PauliIndex",
    "PAULI_LABEL_SHIFT",
    "rotation_step3",
    "bcnot_map",
    "measurement_coincides",
    "PAULIS",
    "BELL_VECTORS",
    "bell_projector",
    "bell_diagonal_overlaps",
    "bell_offdiagonal_max",
]

#: Absolute tolerance for dense double-precision checks on 4x4/16x16 matrices.
ATOL = 1e-12


class BellLabel(IntEnum):
    """One of the four Bell states, packed as ``(phase << 1) | amplitude``."""

    PHI_PLUS = 0b00
    PSI_PLUS = 0b01
    PHI_MINUS = 0b10
    PSI_MINUS = 0b11

    @property
    def phase_bit(self) -> int:
        return (self >> 1) & 1

    @property
    def amplitude_bit(self) -> int:
        return self & 1

    def shifted(self, shift: int) -> "BellLabel":
        """Label after XOR-ing in a packed (phase, amplitude) shift."""
        return BellLabel(self ^ (shift & 0b11))


class PauliIndex(IntEnum):
    """sigma_0 .. sigma_3 in the order identity, x, y, z."""

    I = 0
    X = 1
    Y = 2
    Z = 3


#: Packed label shift induced by sigma_p on one qubit of a pair, indexed by
#: :class:`PauliIndex`: identity does nothing, x flips the amplitude bit,
#: z flips the phase bit, y flips both.  The shift is the same whichever
#: side the Pauli acts on, and sigma_mu on one qubit with sigma_nu on the
#: other shifts by ``PAULI_LABEL_SHIFT[mu] ^ PAULI_LABEL_SHIFT[nu]``.
PAULI_LABEL_SHIFT = (0b00, 0b01, 0b11, 0b10)


def rotation_step3(label: BellLabel | int) -> BellLabel:
    """Relabeling induced by the bilateral half-x rotation.

    One party applies ``(1 - i sigma_x)/sqrt2``, the other the conjugate
    ``(1 + i sigma_x)/sqrt2``.  On labels this fixes Phi+ and Psi+ and
    exchanges Phi- with Psi-, i.e. it flips the amplitude bit iff the
    phase bit is set.  An involution.
    """
    return BellLabel(label ^ ((label >> 1) & 1))


def bcnot_map(
    source: BellLabel | int, target: BellLabel | int
) -> tuple[BellLabel, BellLabel]:
    """Bell labels of (source, target) after the bilateral CNOT.

    Phase bits propagate target-to-source, amplitude bits
    source-to-target; the map is a bijection on label pairs.
    """
    return (
        BellLabel(source ^ (target & 0b10)),
        BellLabel(target ^ (source & 0b01)),
    )


def measurement_coincides(target: BellLabel | int) -> bool:
    """True iff z measurements on both halves of the target pair agree.

    Phi-type labels (amplitude bit 0) are supported on |00> and |11>,
    so both sides read the same bit; the sign never matters.
    """
    return (target & 0b01) == 0


# ---------------------------------------------------------------------------
# Dense 4x4 layer.  Basis ordering is |ab> with a the first party's qubit.

PAULIS = np.array(
    [
        [[1, 0], [0, 1]],
        [[0, 1], [1, 0]],
        [[0, -1j], [1j, 0]],
        [[1, 0], [0, -1]],
    ],
    dtype=complex,
)

_SQRT_HALF = 1.0 / np.sqrt(2.0)

#: ``BELL_VECTORS[label]`` is the state vector of that Bell state.
BELL_VECTORS = np.array(
    [
        [_SQRT_HALF, 0.0, 0.0, _SQRT_HALF],
        [0.0, _SQRT_HALF, _SQRT_HALF, 0.0],
        [_SQRT_HALF, 0.0, 0.0, -_SQRT_HALF],
        [0.0, _SQRT_HALF, -_SQRT_HALF, 0.0],
    ],
    dtype=complex,
)


def bell_projector(label: BellLabel | int) -> np.ndarray:
    """Rank-one projector onto the Bell state with this label."""
    v = BELL_VECTORS[label]
    return np.outer(v, v.conj())


def bell_diagonal_overlaps(rho: np.ndarray) -> np.ndarray:
    """The four diagonal matrix elements of ``rho`` in the Bell basis."""
    return np.real(np.einsum("bi,ij,bj->b", BELL_VECTORS.conj(), rho, BELL_VECTORS))


def bell_offdiagonal_max(rho: np.ndarray) -> float:
    """Largest magnitude among Bell-basis off-diagonal elements."""
    transformed = BELL_VECTORS.conj() @ rho @ BELL_VECTORS.T
    off = transformed - np.diag(np.diag(transformed))
    return float(np.max(np.abs(off)))
