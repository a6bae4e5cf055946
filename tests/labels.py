"""Named indices for the tests: the packed Bell labels, the Pauli order and the packed error flags."""

from enum import IntEnum


class BellLabel(IntEnum):
    """One of the four Bell states, packed as ``(phase << 1) | amplitude``."""

    PHI_PLUS = 0b00
    PSI_PLUS = 0b01
    PHI_MINUS = 0b10
    PSI_MINUS = 0b11


class PauliIndex(IntEnum):
    """sigma_0 .. sigma_3 in the order identity, x, y, z."""

    I = 0
    X = 1
    Y = 2
    Z = 3


class ErrorFlag(IntEnum):
    """Two error bits packed as ``(phase << 1) | amplitude``."""

    CLEAN = 0b00
    AMPLITUDE = 0b01
    PHASE = 0b10
    BOTH = 0b11
