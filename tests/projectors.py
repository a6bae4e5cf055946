"""Dense Bell-state projectors for the tests that check label maps against matrices."""

import numpy as np

from qpurify.oracle import BELL_VECTORS


def bell_projector(label: int) -> np.ndarray:
    """Rank-one projector onto the Bell state with this label."""
    v = BELL_VECTORS[label]
    return np.outer(v, v.conj())
