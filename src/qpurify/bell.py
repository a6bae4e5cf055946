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
happens on these 2-bit labels.  This module is the one home of every
label-level table: the label maps, the label shift of each Pauli
(:data:`PAULI_LABEL_SHIFT`), which every round reads through
:func:`event_category_permutation`, the two factors of a round and the
event cell table composed from them with the flag table of
:mod:`qpurify.flags` (:func:`event_cell_table`), and the
readers of a row of cells packed ``flag * 4 + bell``
(:func:`phi_plus_weight`, :func:`flag_match_weight`).

A round factors through its noise event.  Each Pauli of an event acts on
one pair alone: it shifts that pair's Bell label and records the same
shift on its flag.  So the event cell table is composed from two
factors:

* :func:`event_category_permutation`, the category each category
  becomes under sigma_p, with the bilateral rotation folded in at the
  placement's side of the noise;
* :func:`pair_cell_table`, the cell that the noiseless bilateral CNOT
  and the target measurement make of a control and a target category.

The Monte Carlo in :mod:`qpurify.montecarlo` pushes its sampled events
through the composed table; the exact engine in
:mod:`qpurify.recurrence` applies the two factors one after the other,
so that a noise model enters a round as its 4x4 table alone.

The dense matrices that ground these maps (Pauli matrices, Bell vectors)
live in :mod:`qpurify.oracle`, which re-derives every label table from
them; the conformance checks and the test suite cross-check the two
routes exhaustively.
"""

from __future__ import annotations

from enum import IntEnum
from functools import lru_cache

import numpy as np

from .flags import FLAG_UPDATE_TABLE
from .noise import BEFORE_ROTATION, check_placement

__all__ = [
    "BellLabel",
    "PAULI_LABEL_SHIFT",
    "rotation_step3",
    "bcnot_map",
    "measurement_coincides",
    "DISCARDED",
    "event_category_permutation",
    "pair_cell_table",
    "event_cell_table",
    "phi_plus_weight",
    "flag_match_weight",
]


class BellLabel(IntEnum):
    """One of the four Bell states, packed as ``(phase << 1) | amplitude``."""

    PHI_PLUS = 0b00
    PSI_PLUS = 0b01
    PHI_MINUS = 0b10
    PSI_MINUS = 0b11


#: Packed label shift induced by sigma_p on one qubit of a pair, indexed by
#: p in the order identity, x, y, z: identity does nothing, x flips the amplitude bit,
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


#: Cell index of a discarded pair of pairs in :func:`pair_cell_table` and
#: :func:`event_cell_table`.
DISCARDED = 16


def _read_only(table: np.ndarray) -> np.ndarray:
    table.setflags(write=False)
    return table


@lru_cache(maxsize=None)
def event_category_permutation(placement: str) -> np.ndarray:
    """Category each category becomes under sigma_p on one qubit of its pair, up to the BCNOT.

    ``table[p, c]``, for Pauli ``p`` (identity, x, y, z) and category
    ``c = flag * 4 + bell``: the shift ``PAULI_LABEL_SHIFT[p]`` is XORed
    into the flag and into the Bell label, and the bilateral rotation
    relabels the Bell label after the shift at ``before_rotation`` and
    before it at ``before_bcnot``.  The shift is the same whichever pair
    sigma_p hits, so one table serves the control and the target pair.
    Each row is a permutation of the sixteen categories; the table is
    read-only uint8.
    """
    check_placement(placement)
    rotated = np.array([rotation_step3(b) for b in range(4)], dtype=np.uint8)
    shift = np.array(PAULI_LABEL_SHIFT, dtype=np.uint8)[:, None]
    category = np.arange(16, dtype=np.uint8)
    flag, bell = category >> 2, category & 3
    if placement == BEFORE_ROTATION:
        bell = rotated[bell ^ shift]
    else:
        bell = rotated[bell] ^ shift
    return _read_only((flag ^ shift) << 2 | bell)


@lru_cache(maxsize=None)
def pair_cell_table() -> np.ndarray:
    """Output cell of a control and a target category under the noiseless BCNOT and measurement.

    ``table[i, j]`` is the surviving ``flag * 4 + bell`` cell of the
    control pair, or :data:`DISCARDED` when the target measurement does
    not coincide; the kept control pair's flag is
    ``FLAG_UPDATE_TABLE[control flag, target flag]``.  Read-only uint8.
    """
    labels = range(4)
    after_bcnot = [[bcnot_map(b1, b2) for b2 in labels] for b1 in labels]
    source = np.array([[s for s, _ in row] for row in after_bcnot], dtype=np.uint8)
    kept = np.array([[measurement_coincides(t) for _, t in row] for row in after_bcnot])
    category = np.arange(16, dtype=np.uint8)
    flag1, bell1 = category[:, None] >> 2, category[:, None] & 3
    flag2, bell2 = category[None, :] >> 2, category[None, :] & 3
    cell = FLAG_UPDATE_TABLE[flag1, flag2] * 4 + source[bell1, bell2]
    return _read_only(np.where(kept[bell1, bell2], cell, DISCARDED).astype(np.uint8))


@lru_cache(maxsize=None)
def event_cell_table(placement: str) -> np.ndarray:
    """Output cell for every (control, target, noise event) combination.

    Index axes are (control category, target category, noise event);
    categories pack ``flag * 4 + bell`` and events pack ``mu * 4 + nu``,
    with sigma_mu shifting the control pair and sigma_nu the target
    pair.  Entries are the surviving ``flag * 4 + bell`` cell, or
    :data:`DISCARDED` for a discarded pair of pairs.  The read-only
    uint8 table composes the two factors:
    ``pair_cell_table()[permutation[mu, i], permutation[nu, j]]`` with
    ``permutation = event_category_permutation(placement)``.
    """
    permutation, events = event_category_permutation(placement), np.arange(16)
    # [category, event]: the category sigma_mu makes of a control, sigma_nu of a target
    control, target = permutation[events >> 2].T, permutation[events & 3].T
    return _read_only(pair_cell_table()[control[:, None, :], target[None, :, :]])


def phi_plus_weight(cells: np.ndarray) -> np.ndarray:
    """Weight on Phi+ summed over flags, per row of sixteen packed cells.

    Phi+ is Bell label 0, so these are the cells ``flag * 4``.  On a
    normalized row this is the fidelity F; on a row of counts it is the
    number of Phi+ pairs.
    """
    return cells[..., 0::4].sum(axis=-1)


def flag_match_weight(cells: np.ndarray) -> np.ndarray:
    """Weight on the cells ``k * 4 + k`` whose flag equals the Bell label, per row.

    On a normalized row this is the conditional fidelity F_cond: the
    weight a flag-conditioned correcting rotation would map onto Phi+.
    """
    return cells[..., 0::5].sum(axis=-1)
