"""Dense Bell-state projectors and relabelings for the tests that check label maps against matrices."""

import numpy as np

import qpurify.oracle as oracle
from qpurify.oracle import BELL_VECTORS, PAULIS


def bell_projector(label: int) -> np.ndarray:
    """Rank-one projector onto the Bell state with this label."""
    v = BELL_VECTORS[label]
    return np.outer(v, v.conj())


def two_sided_shift_table() -> np.ndarray:
    """Label map of sigma_mu x sigma_nu conjugation, by dense conjugation: ``table[label, mu*4 + nu]``."""
    return np.stack(
        [oracle._relabeling(np.kron(PAULIS[e >> 2], PAULIS[e & 3]), BELL_VECTORS) for e in range(16)],
        axis=1,
    )
