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
happens on these 2-bit labels.  This module holds each label map once,
as a read-only uint8 table: the label shift of each Pauli
(:data:`PAULI_LABEL_SHIFT`), the bilateral rotation
(:data:`ROTATION_MAP`) and the bilateral CNOT (:data:`BCNOT_MAP`).  It
also holds the two factors of a round composed from them, the event cell
table composed from the factors (:func:`event_cell_table`), and the
readers of a row of cells packed ``flag * 4 + bell``
(:func:`phi_plus_weight`, :func:`flag_match_weight`).  The flag
combination table is the one table here that is not a label map: it is
the normative bookkeeping rule, which the oracle re-derives but does not
referee as a map of Bell states, so it lives with the flags in
:mod:`qpurify.flags` (where the benchmark's gate tests import it from),
and this module reads it to build the pair cell table.

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
live in :mod:`qpurify.oracle`, which reads every label table back off
the operators its dense round applies; the conformance checks and the
test suite cross-check the two routes exhaustively.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .flags import FLAG_UPDATE_TABLE
from .noise import BEFORE_ROTATION, check_placement

__all__ = [
    "PAULI_LABEL_SHIFT",
    "ROTATION_MAP",
    "BCNOT_MAP",
    "DISCARDED",
    "event_category_permutation",
    "pair_cell_table",
    "event_cell_table",
    "phi_plus_weight",
    "flag_match_weight",
]


def _read_only(table: np.ndarray) -> np.ndarray:
    table.setflags(write=False)
    return table


#: Packed label shift induced by sigma_p on one qubit of a pair, indexed by
#: p in the order identity, x, y, z: identity does nothing, x flips the amplitude bit,
#: z flips the phase bit, y flips both.  The shift is the same whichever
#: side the Pauli acts on, and sigma_mu on one qubit with sigma_nu on the
#: other shifts by ``PAULI_LABEL_SHIFT[mu] ^ PAULI_LABEL_SHIFT[nu]``.
PAULI_LABEL_SHIFT = _read_only(np.array([0b00, 0b01, 0b11, 0b10], dtype=np.uint8))

#: Label after the bilateral half-x rotation, ``(1 - i sigma_x)/sqrt2`` on one
#: side and its conjugate on the other: the amplitude bit flips iff the phase
#: bit is set, so Phi+ and Psi+ stay and Phi- and Psi- swap.  An involution.
ROTATION_MAP = _read_only(np.array([0b00, 0b01, 0b11, 0b10], dtype=np.uint8))

#: Labels after the bilateral CNOT, ``BCNOT_MAP[source, target]`` packed
#: ``source' * 4 + target'``: the target's phase bit is XORed into the source,
#: the source's amplitude bit into the target.  A bijection on label pairs.
BCNOT_MAP = _read_only(
    np.array(
        [
            [0b0000, 0b0001, 0b1010, 0b1011],
            [0b0101, 0b0100, 0b1111, 0b1110],
            [0b1000, 0b1001, 0b0010, 0b0011],
            [0b1101, 0b1100, 0b0111, 0b0110],
        ],
        dtype=np.uint8,
    )
)

#: Cell index of a discarded pair of pairs in :func:`pair_cell_table` and
#: :func:`event_cell_table`.
DISCARDED = 16


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
    shift = PAULI_LABEL_SHIFT[:, None]
    category = np.arange(16, dtype=np.uint8)
    flag, bell = category >> 2, category & 3
    if placement == BEFORE_ROTATION:
        bell = ROTATION_MAP[bell ^ shift]
    else:
        bell = ROTATION_MAP[bell] ^ shift
    return _read_only((flag ^ shift) << 2 | bell)


@lru_cache(maxsize=None)
def pair_cell_table() -> np.ndarray:
    """Output cell of a control and a target category under the noiseless BCNOT and measurement.

    ``table[i, j]`` is the surviving ``flag * 4 + bell`` cell of the
    control pair, or :data:`DISCARDED` when the target measurement does
    not coincide; the kept control pair's flag is
    ``FLAG_UPDATE_TABLE[control flag, target flag]``.  Read-only uint8.
    """
    category = np.arange(16, dtype=np.uint8)
    flag1, flag2 = category[:, None] >> 2, category[None, :] >> 2
    after_bcnot = BCNOT_MAP[category[:, None] & 3, category[None, :] & 3]
    # z measurements on both halves of the target agree iff its amplitude bit is 0
    kept = (after_bcnot & 1) == 0
    cell = FLAG_UPDATE_TABLE[flag1, flag2] * 4 + (after_bcnot >> 2)
    return _read_only(np.where(kept, cell, DISCARDED).astype(np.uint8))


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
