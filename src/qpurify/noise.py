"""Two-qubit Pauli noise channels for the local operations.

A noise model is a joint distribution ``f[mu, nu]`` over the sixteen
rotations sigma_mu x sigma_nu applied to the two qubits that a local
two-qubit operation touches: on the noisy side, ``mu`` lands on the
control pair's qubit and ``nu`` on the target pair's qubit.  ``f[0, 0]``
is the no-error probability.  The channel fires once per pair of pairs
per purification round (see :mod:`qpurify.recurrence` for the placement
convention); since only relative Bell-label shifts matter, noise in one
laboratory is the canonical setup and noise in both labs composes into a
channel of the same form.

Two named families cover the usual parameterizations:

* ``product``: independent one-qubit depolarizing channels on both
  qubits, ``f[mu, nu] = g[mu] * g[nu]`` with ``g = (f0, r, r, r)`` and
  ``r = (1 - f0)/3``.
* ``uniform``: ``f[0, 0] = f00`` with the remaining probability spread
  evenly over the fifteen error rotations.

Models are built from the configuration forms ``{"family": "product",
"f0": x}``, ``{"family": "uniform", "f00": x}`` and ``{"family":
"explicit", "f": [16 numbers]}``; :data:`NOISE_FAMILIES` names each
family's parameter key and constructor, and is the only place the
families are told apart.  The constructors check what the parameter
means (a probability, a normalized table) and raise ValueError for
anything else.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .bell import PAULI_LABEL_SHIFT

__all__ = [
    "NoiseModel",
    "NOISE_FAMILIES",
    "EVENT_CONTROL_SHIFTS",
    "EVENT_TARGET_SHIFTS",
    "PROBABILITY_ATOL",
]

#: Tolerance on distribution normalization.
PROBABILITY_ATOL = 1e-12

#: Packed label shift that event ``e = mu * 4 + nu`` puts on the control pair.
EVENT_CONTROL_SHIFTS = np.array(
    [PAULI_LABEL_SHIFT[e >> 2] for e in range(16)], dtype=np.uint8
)

#: Packed label shift that event ``e = mu * 4 + nu`` puts on the target pair.
EVENT_TARGET_SHIFTS = np.array(
    [PAULI_LABEL_SHIFT[e & 3] for e in range(16)], dtype=np.uint8
)


def _check_probability(value: float, name: str) -> float:
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name}: expected a number, got {value!r}")
    value = float(value)
    # written so that a NaN fails both checks
    if not value >= 0.0:
        raise ValueError(f"{name}: must be >= 0.0, got {value}")
    if not value <= 1.0:
        raise ValueError(f"{name}: must be <= 1.0, got {value}")
    return value


@dataclass(frozen=True, eq=False)
class NoiseModel:
    """Joint distribution over the sixteen two-sided Pauli rotations."""

    f: np.ndarray

    def __post_init__(self):
        try:
            f = np.array(self.f, dtype=float)
        except (TypeError, ValueError):
            raise ValueError(f"noise table must hold 16 numbers, got {self.f!r}") from None
        if f.shape == (16,):
            f = f.reshape(4, 4)
        if f.shape != (4, 4):
            raise ValueError(f"noise table must have 16 entries, got shape {f.shape}")
        # written so that a NaN fails both checks
        if not f.min() >= 0.0:
            raise ValueError(f"noise probabilities must be nonnegative, min {f.min()}")
        if not abs(f.sum() - 1.0) <= PROBABILITY_ATOL:
            raise ValueError(f"noise probabilities sum to {f.sum()!r}, not 1")
        f.setflags(write=False)
        object.__setattr__(self, "f", f)

    # -- constructors -------------------------------------------------------

    @classmethod
    def identity(cls) -> "NoiseModel":
        """Deterministic identity channel (no errors)."""
        return cls.from_one_qubit_depolarizing(1.0)

    @classmethod
    def from_one_qubit_depolarizing(cls, f0: float) -> "NoiseModel":
        """Independent depolarizing channel on each of the pair's qubits.

        Each qubit is left alone with probability ``f0`` and rotated by
        each of sigma_x, sigma_y, sigma_z with probability ``(1-f0)/3``.
        """
        f0 = _check_probability(f0, "f0")
        g = np.full(4, (1.0 - f0) / 3.0)
        g[0] = f0
        return cls(np.outer(g, g))

    @classmethod
    def from_uniform_residual(cls, f00: float) -> "NoiseModel":
        """White-noise family: no error with ``f00``, the rest uniform."""
        f00 = _check_probability(f00, "f00")
        f = np.full(16, (1.0 - f00) / 15.0)
        f[0] = f00
        return cls(f)

    @classmethod
    def from_config(cls, doc: dict) -> "NoiseModel":
        """Build a model from one of the three serialized forms."""
        if not isinstance(doc, dict) or "family" not in doc:
            raise ValueError("noise config must be a mapping with a 'family' key")
        if doc["family"] not in NOISE_FAMILIES:
            raise ValueError(f"unknown noise family {doc['family']!r}")
        key, build = NOISE_FAMILIES[doc["family"]]
        if key not in doc:
            raise ValueError(f"{doc['family']} family requires {key!r}")
        return build(doc[key])


#: The serialized noise families: name -> (parameter key, constructor).
#: ``explicit`` takes the 16-entry table, the others one probability.
NOISE_FAMILIES: dict[str, tuple[str, Callable]] = {
    "product": ("f0", NoiseModel.from_one_qubit_depolarizing),
    "uniform": ("f00", NoiseModel.from_uniform_residual),
    "explicit": ("f", NoiseModel),
}
