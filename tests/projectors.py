"""Dense Bell-state projectors and relabelings for the tests that check label maps against matrices."""

import numpy as np

import qpurify.oracle as oracle
from qpurify.oracle import BELL_VECTORS, PAULIS


def bell_projector(label: int) -> np.ndarray:
    """Rank-one projector onto the Bell state with this label."""
    v = BELL_VECTORS[label]
    return np.outer(v, v.conj())


def two_sided_shift_table() -> np.ndarray:
    """Label map of sigma_mu x sigma_nu conjugation, by dense conjugation: ``table[label, mu*4 + nu]``.

    sigma_mu acts on the first party's control qubit and sigma_nu on the
    second party's (qubits 0 and 2 of the two-pair space), and the
    label is read off the control pair of the oracle's relabeling.
    """
    eye = np.eye(2)
    ops = [np.kron(np.kron(PAULIS[e >> 2], eye), np.kron(PAULIS[e & 3], eye)) for e in range(16)]
    return np.stack([oracle._relabeling(op)[::4] >> 2 for op in ops], axis=1)
