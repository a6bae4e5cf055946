"""Two-qubit Pauli noise channels for the local operations.

A noise model is a joint distribution ``f[mu, nu]`` over the sixteen
rotations sigma_mu x sigma_nu applied to the two qubits that a local
two-qubit operation touches: on the noisy side, ``mu`` lands on the
control pair's qubit and ``nu`` on the target pair's qubit.  ``f[0, 0]``
is the no-error probability.  The channel fires once per pair of pairs
per purification round; since only relative Bell-label shifts matter,
noise in one laboratory is the canonical setup and noise in both labs
composes into a channel of the same form.  This module knows the
channel only as a table of probabilities: what each Pauli of an event
does to the category of the pair it hits is
:func:`qpurify.bell.event_category_permutation`.

A model also carries its ``placement``, where in the round the channel
acts: before the bilateral rotation (:data:`BEFORE_ROTATION`, the
default) or between the rotation and the bilateral CNOT
(:data:`BEFORE_BCNOT`).  Every round function reads it from the model.

Two named families cover the usual parameterizations:

* ``product``: independent one-qubit depolarizing channels on both
  qubits, ``f[mu, nu] = g[mu] * g[nu]`` with ``g = (f0, r, r, r)`` and
  ``r = (1 - f0)/3``.
* ``uniform``: ``f[0, 0] = f00`` with the remaining probability spread
  evenly over the fifteen error rotations.

The constructors check what the parameter means (a probability, a
normalized table) and raise ValueError for anything else, a number too
large for a float included.

:func:`probability_table` is the one check of a sixteen-entry
probability table, the noise table here and the flagged-pair state of
:mod:`qpurify.recurrence`; :func:`checked_rows` applies the same rule to
the rows the recurrence produces.  An entry may lie below 0 by at most
:data:`PROBABILITY_ATOL` and is then stored as 0, and the entries must
sum to 1 within :data:`PROBABILITY_ATOL`.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

__all__ = [
    "BEFORE_ROTATION",
    "BEFORE_BCNOT",
    "PLACEMENTS",
    "check_placement",
    "NoiseModel",
    "PROBABILITY_ATOL",
    "is_real_type",
    "real_array",
    "check_probability",
    "checked_rows",
    "probability_table",
]

BEFORE_ROTATION = "before_rotation"
BEFORE_BCNOT = "before_bcnot"
PLACEMENTS = (BEFORE_ROTATION, BEFORE_BCNOT)

#: Tolerance of every probability table: on its sum, and below 0 on each entry.
PROBABILITY_ATOL = 1e-12


def check_placement(placement: str) -> None:
    """Raise ValueError unless ``placement`` is one of :data:`PLACEMENTS`."""
    if placement not in PLACEMENTS:
        raise ValueError(f"placement must be one of {PLACEMENTS}, got {placement!r}")


def is_real_type(kind: type) -> bool:
    """True for a type of real numbers, numpy's included, other than bool."""
    return issubclass(kind, numbers.Real) and not issubclass(kind, bool)


def real_array(values, name: str) -> np.ndarray:
    """A float copy of ``values``, or ValueError unless every entry is a real number.

    A bool or a numeric string is refused, where ``np.array(..., dtype=float)``
    would convert it.
    """
    entries = np.array(values, dtype=object)
    if not all(map(is_real_type, set(map(type, entries.flat)))):
        raise ValueError(f"{name} must hold numbers, got {values!r}")
    try:
        return entries.astype(float)
    except OverflowError:
        raise ValueError(f"{name} must hold numbers a float can hold, got {values!r}") from None


def checked_rows(rows: np.ndarray, name: str) -> np.ndarray:
    """Validate rows of probabilities as distributions; clip them at 0 in place.

    Every entry must be at least ``-PROBABILITY_ATOL`` and every row must
    sum to 1 within ``PROBABILITY_ATOL``.  The comparisons are written so
    that a NaN fails them.  Every caller hands in a fresh array, which
    comes back clipped.
    """
    low = rows.min()
    if not low >= -PROBABILITY_ATOL:
        raise ValueError(f"{name} entries must be nonnegative, got a negative or NaN entry {low:.3e}")
    np.clip(rows, 0.0, None, out=rows)
    deviation = np.abs(rows.sum(axis=-1) - 1.0).ravel()
    if not deviation.max() <= PROBABILITY_ATOL:
        worst = float(rows.reshape(-1, rows.shape[-1])[deviation.argmax()].sum())
        raise ValueError(f"{name} entries sum to {worst!r}, not 1")
    return rows


def probability_table(values, name: str) -> np.ndarray:
    """``values``, 16 entries flat or 4x4, as a read-only 4x4 table that passed
    :func:`real_array` and :func:`checked_rows`, or ValueError naming ``name``."""
    table = real_array(values, name)
    if table.shape not in ((16,), (4, 4)):
        raise ValueError(f"{name} must have 16 entries, got shape {table.shape}")
    table = checked_rows(table.reshape(16), name).reshape(4, 4)
    table.setflags(write=False)
    return table


def check_probability(value: float, name: str) -> float:
    """``value`` as a float, or ValueError naming ``name`` unless it is a number in [0, 1]."""
    if not is_real_type(type(value)):
        raise ValueError(f"{name}: expected a number, got {value!r}")
    # compared before the float conversion, so that an int too large for a
    # float fails here; written so that a NaN fails both checks
    if not value >= 0.0:
        raise ValueError(f"{name}: must be >= 0.0, got {value}")
    if not value <= 1.0:
        raise ValueError(f"{name}: must be <= 1.0, got {value}")
    return float(value)


@dataclass(frozen=True, eq=False)
class NoiseModel:
    """Joint distribution over the sixteen two-sided Pauli rotations, and
    the point of the round where it acts (one of :data:`PLACEMENTS`)."""

    f: np.ndarray
    placement: str = BEFORE_ROTATION

    def __post_init__(self):
        object.__setattr__(self, "f", probability_table(self.f, "noise table"))
        check_placement(self.placement)

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_one_qubit_depolarizing(cls, f0: float, placement: str = BEFORE_ROTATION) -> "NoiseModel":
        """Independent depolarizing channel on each of the pair's qubits.

        Each qubit is left alone with probability ``f0`` and rotated by
        each of sigma_x, sigma_y, sigma_z with probability ``(1-f0)/3``.
        """
        f0 = check_probability(f0, "f0")
        g = np.full(4, (1.0 - f0) / 3.0)
        g[0] = f0
        return cls(np.outer(g, g), placement)

    @classmethod
    def from_uniform_residual(cls, f00: float, placement: str = BEFORE_ROTATION) -> "NoiseModel":
        """White-noise family: no error with ``f00``, the rest uniform."""
        f00 = check_probability(f00, "f00")
        f = np.full(16, (1.0 - f00) / 15.0)
        f[0] = f00
        return cls(f, placement)
