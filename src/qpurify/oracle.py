"""Brute-force density-matrix reference for the protocol.

Everything here is dense linear algebra on 4-dim (one pair) and 16-dim
(two pairs) state spaces, and this module owns every dense matrix of the
package: the Pauli matrices (:data:`PAULIS`), the Bell vectors
(:data:`BELL_VECTORS`) and the reading of a matrix in the Bell basis
(:func:`bell_diagonal_overlaps`, :func:`bell_offdiagonal_max`).  The
dense operators are module constants, built and checked once at
import: the three protocol unitaries, the sixteen noise Kraus operators,
the coinciding-measurement projector and the two-pair Bell basis, whose
row ``c*4 + t`` is |B_c, B_t>.  Every Bell-label table is read back from
these operators through one relabeling, :func:`_relabeling`, and one
full noisy purification round is executed on density matrices with the
error flags carried as classical side labels; its sixteen kept branches
are read in the Bell basis in one pass, as one ``(4, 4, 4, 4)`` stack.
The label-based engine in :mod:`qpurify.recurrence` must agree with this
module to 1e-10; the ``verify`` CLI subcommand and the acceptance tests
run the comparison.

The round applies the rotation, the BCNOT and the keep projector as
dense 16x16 products.  Each noise Kraus operator is a Pauli product, a
phase times a permutation; its row permutation and phases are read off
the dense matrix at import, and :func:`_phase_permutation` checks that
they rebuild it exactly.  The noise step, :func:`_apply_noise`, applies
each operator as a gather of those rows and columns times the phases:
every entry of K B K^dagger has one nonzero term and a phase of +-1 or
+-i, so the gather gives the bits of the dense products.

The oracle stays an independent referee.  The dense round records a
noise event on the flags by the one-sided Pauli shift the oracle derives
itself, and reads neither the event cell table
(:func:`qpurify.bell.event_cell_table`) nor the label maps and Pauli
label shifts of :mod:`qpurify.bell` it is composed from; those tables
are what the conformance checks compare against, and the only names
this module takes from :mod:`qpurify.bell`.  The round shares only the
normative flag table, ``FLAG_UPDATE_TABLE``.

Qubit ordering on the two-pair space is fixed once and used everywhere:
(alice_control, alice_target, bob_control, bob_target).  The control
pair lives on qubits 0 and 2, the target pair on qubits 1 and 3; noise
acts on qubits 0 and 1 (the noisy lab's control and target qubits).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .bell import PAULI_LABEL_SHIFT, bcnot_map, rotation_step3
from .errors import DegenerateRoundError
from .flags import FLAG_UPDATE_TABLE
from .noise import BEFORE_ROTATION, PLACEMENTS, NoiseModel
from .recurrence import KEEP_PROBABILITY_FLOOR, SubensembleState, one_round

__all__ = [
    "ATOL",
    "PAULIS",
    "BELL_VECTORS",
    "bell_diagonal_overlaps",
    "bell_offdiagonal_max",
    "derive_rotation_table",
    "derive_two_sided_shift_table",
    "derive_bcnot_table",
    "derive_flag_update_table",
    "oracle_one_round",
    "CheckResult",
    "ConformanceReport",
    "run_conformance_checks",
]

#: Absolute tolerance for dense double-precision checks on 4x4/16x16 matrices.
ATOL = 1e-12

# Basis ordering of one pair is |ab> with a the first party's qubit.

#: sigma_0 .. sigma_3 in the order identity, x, y, z.
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

#: ``BELL_VECTORS[label]`` is the state vector of the Bell state with that
#: packed label (see :mod:`qpurify.bell`).
BELL_VECTORS = np.array(
    [
        [_SQRT_HALF, 0.0, 0.0, _SQRT_HALF],
        [0.0, _SQRT_HALF, _SQRT_HALF, 0.0],
        [_SQRT_HALF, 0.0, 0.0, -_SQRT_HALF],
        [0.0, _SQRT_HALF, -_SQRT_HALF, 0.0],
    ],
    dtype=complex,
)


def bell_diagonal_overlaps(rho: np.ndarray) -> np.ndarray:
    """The four Bell-basis diagonal elements of each matrix in a ``(..., 4, 4)`` stack."""
    return np.real(np.einsum("bi,...ij,bj->...b", BELL_VECTORS.conj(), rho, BELL_VECTORS))


def bell_offdiagonal_max(rho: np.ndarray) -> float:
    """Largest magnitude among Bell-basis off-diagonal elements of a ``(..., 4, 4)`` stack."""
    transformed = BELL_VECTORS.conj() @ rho @ BELL_VECTORS.T
    return float(np.max(np.abs(transformed[..., ~np.eye(4, dtype=bool)])))


_I2 = np.eye(2, dtype=complex)
_CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)
_HALF_X_MINUS = (_I2 - 1j * PAULIS[1]) / np.sqrt(2.0)
_HALF_X_PLUS = (_I2 + 1j * PAULIS[1]) / np.sqrt(2.0)


def _kron(*ops: np.ndarray) -> np.ndarray:
    out = ops[0]
    for op in ops[1:]:
        out = np.kron(out, op)
    return out


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


#: ``rotation_pair`` (4x4, one pair), ``rotation`` (16x16, both pairs) and
#: ``bcnot`` (16x16).
_UNITARIES = {
    "rotation_pair": np.kron(_HALF_X_MINUS, _HALF_X_PLUS),
    "rotation": _kron(_HALF_X_MINUS, _HALF_X_MINUS, _HALF_X_PLUS, _HALF_X_PLUS),
    "bcnot": np.kron(_CNOT, _CNOT),
}
for _name, _u in _UNITARIES.items():
    if np.max(np.abs(_u @ _u.conj().T - np.eye(len(_u)))) > ATOL:
        raise AssertionError(f"{_name} is not unitary within {ATOL}")
    _read_only(_u)
del _name, _u

#: sigma_mu on qubit 0 and sigma_nu on qubit 1, for noise event mu*4 + nu.
_NOISE_KRAUS = _read_only(
    np.array([_kron(PAULIS[e >> 2], PAULIS[e & 3], _I2, _I2) for e in range(16)])
)


def _phase_permutation(ops: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Column and phase of the one nonzero entry in each row of each operator.

    Returns ``(columns, phases)``, both ``ops.shape[:-1]``: row ``i`` of
    ``ops[k]`` is ``phases[k, i]`` at ``columns[k, i]``.  Raises
    AssertionError unless rebuilding from them gives every operator back
    exactly and every phase is +-1 or +-i.
    """
    columns = np.argmax(np.abs(ops), axis=-1)
    phases = np.take_along_axis(ops, columns[..., None], axis=-1)[..., 0]
    rebuilt = np.zeros_like(ops)
    np.put_along_axis(rebuilt, columns[..., None], phases[..., None], axis=-1)
    if not (np.array_equal(rebuilt, ops) and np.isin(phases, (1, -1, 1j, -1j)).all()):
        raise AssertionError("an operator is not a phase-permutation")
    return _read_only(columns), _read_only(phases)


#: Row ``i`` of ``_NOISE_KRAUS[e]`` is ``_NOISE_PHASES[e, i]`` at column ``_NOISE_COLUMNS[e, i]``.
_NOISE_COLUMNS, _NOISE_PHASES = _phase_permutation(_NOISE_KRAUS)

#: Both halves of the target pair (qubits 1 and 3) read the same z value.
_KEEP_PROJECTOR = _read_only(
    sum(_kron(_I2, np.diag(z), _I2, np.diag(z)) for z in ([1, 0], [0, 1]))
)

#: Row ``c*4 + t`` is |B_c, B_t>.  The product of the two Bell vectors lives
#: on (alice_control, bob_control, alice_target, bob_target); swapping the
#: middle qubits reaches the fixed ordering.
_TWO_PAIR_BASIS = _read_only(
    np.einsum("ci,tj->ctij", BELL_VECTORS, BELL_VECTORS)
    .reshape(16, 2, 2, 2, 2)
    .transpose(0, 1, 3, 2, 4)
    .reshape(16, 16)
)


def _relabeling(u: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Index of the basis projector that ``u`` conjugates each basis vector onto.

    ``overlaps[image, source]`` is ``|<image| u |source>|^2``; raises
    AssertionError unless every image is exactly one basis projector.
    """
    overlaps = np.abs(basis.conj() @ u @ basis.T) ** 2
    images = np.argmax(overlaps, axis=0)
    if np.max(np.abs(overlaps[images, np.arange(len(basis))] - 1.0)) > ATOL:
        raise AssertionError("a conjugated basis projector is not a basis projector")
    return images.astype(np.uint8)


def derive_rotation_table() -> np.ndarray:
    """Relabeling of the bilateral half-x rotation, by dense conjugation."""
    return _relabeling(_UNITARIES["rotation_pair"], BELL_VECTORS)


def derive_two_sided_shift_table() -> np.ndarray:
    """Label map of sigma_mu x sigma_nu conjugation, all 4x16 inputs.

    Returns ``table[label, mu*4 + nu]``; the test suite checks it equals
    ``label ^ PAULI_LABEL_SHIFT[mu] ^ PAULI_LABEL_SHIFT[nu]`` everywhere.
    """
    return np.stack(
        [_relabeling(np.kron(PAULIS[e >> 2], PAULIS[e & 3]), BELL_VECTORS) for e in range(16)],
        axis=1,
    )


def derive_bcnot_table() -> np.ndarray:
    """Label-pair map of the bilateral CNOT, by 16-dim conjugation.

    Returns ``table[source, target] = (source', target')``.
    """
    images = _relabeling(_UNITARIES["bcnot"], _TWO_PAIR_BASIS)
    return np.stack([images >> 2, images & 3], axis=-1).reshape(4, 4, 2)


def derive_flag_update_table() -> np.ndarray:
    """Re-derive the flag combination table from the label algebra.

    Treat the two flags as if they were the true Bell labels of the two
    pairs and run a noiseless round on them: combinations consistent
    with keeping the control pair propagate its post-round label, the
    others (where the measurement would have said discard) reset to
    (00).  Reproducing the normative table this way guards against a
    silently transposed row/column convention.
    """
    rotation = derive_rotation_table()
    pairs = derive_bcnot_table()[rotation[:, None], rotation[None, :]]
    src, tgt = pairs[..., 0], pairs[..., 1]
    return np.where((tgt & 1) == 0, src, 0).astype(np.uint8)


#: Flag shift of sigma_p on one qubit of a pair: column p*4 of the derived
#: two-sided table, read at label 0.
_NOISE_FLAG_SHIFT = derive_two_sided_shift_table()[0, ::4]

_FLAGS = np.arange(4)


def _apply_noise(branches: np.ndarray, f: np.ndarray) -> np.ndarray:
    """The noise Kraus sum on a ``(4, 4, 16, 16)`` stack of flag branches, events weighted by ``f``.

    Event mu*4 + nu moves flags (a, b) to (a ^ s[mu], b ^ s[nu]), s =
    ``_NOISE_FLAG_SHIFT``; each shift is its own inverse, so its branch at
    (a, b) comes from (a ^ s[mu], b ^ s[nu]).  With K = ``_NOISE_KRAUS[e]``,
    entry (i, j) of K B K^dagger is ``phases[i] * conj(phases[j]) *
    B[columns[i], columns[j]]``.  Events are summed in ascending order.
    """
    source = _FLAGS ^ _NOISE_FLAG_SHIFT[:, None]
    # [event, a*4 + b]: the flag pair each event's branch at (a, b) is read from
    flag_pairs = (source[:, None, :, None] * 4 + source[None, :, None, :]).reshape(16, 16)
    columns, phases = _NOISE_COLUMNS, _NOISE_PHASES
    entries = (columns[:, :, None] * 16 + columns[:, None, :]).reshape(16, 256)
    stack = branches.reshape(16, 256)

    def term(e: int) -> np.ndarray:
        gathered = stack.take(flag_pairs[e], axis=0).take(entries[e], axis=1)
        gathered *= f[e] * np.outer(phases[e], phases[e].conj()).ravel()
        return gathered

    # summed in place, one term at a time, the step holds no more memory than dense products
    first, *rest = np.flatnonzero(f)
    total = term(first)
    for e in rest:
        total += term(e)
    return total.reshape(branches.shape)


def oracle_one_round(state: SubensembleState, noise: NoiseModel) -> tuple[SubensembleState, float]:
    """One noisy purification round on explicit 16-dim density matrices.

    Builds the two-pair mixed state from the product of the category
    distribution with itself, carrying the flag pair as a classical
    label on each branch; applies the noise as an explicit Kraus sum
    (recording each event on the branch flags) at ``noise.placement``,
    the rotation and BCNOT unitaries, and the coinciding-measurement
    projector; traces out the target pair; and reads the sixteen kept
    branches in the Bell basis in one pass, their overlaps summing to the
    keep probability and combined through the normative flag table.
    Raises DegenerateRoundError on vanishing keep probability and
    AssertionError if a kept branch is not Bell-diagonal.
    """
    p = state.p
    # weights[flag1, flag2, bell1*4 + bell2]; branch = sum_k w_k |v_k><v_k|
    weights = np.einsum("ab,cd->acbd", p, p).reshape(4, 4, 1, 16)
    branches = (_TWO_PAIR_BASIS.T * weights) @ _TWO_PAIR_BASIS.conj()

    f = noise.f.ravel()
    rotation, bcnot = _UNITARIES["rotation"], _UNITARIES["bcnot"]
    if noise.placement == BEFORE_ROTATION:
        branches = rotation @ _apply_noise(branches, f) @ rotation.conj().T
    else:
        branches = _apply_noise(rotation @ branches @ rotation.conj().T, f)
    branches = _KEEP_PROJECTOR @ (bcnot @ branches @ bcnot.conj().T) @ _KEEP_PROJECTOR
    # trace out qubits 1 and 3, leaving the control pair of every branch
    kept = np.einsum("...abcdebgd->...aceg", branches.reshape(4, 4, *[2] * 8))
    kept = kept.reshape(4, 4, 4, 4)

    if bell_offdiagonal_max(kept) > ATOL:
        raise AssertionError("kept pair is not Bell-diagonal")
    overlaps = bell_diagonal_overlaps(kept)
    keep = float(overlaps.sum())
    if keep < KEEP_PROBABILITY_FLOOR:
        raise DegenerateRoundError(
            f"keep probability {keep:.3e} below {KEEP_PROBABILITY_FLOOR:.0e}"
        )
    out = np.zeros((4, 4))
    np.add.at(out, FLAG_UPDATE_TABLE, overlaps)
    return SubensembleState(out / keep), keep


# ---------------------------------------------------------------------------
# Conformance checks for the verify command and for fault-injection tests.


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


@dataclass
class ConformanceReport:
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, name: str, passed: bool, detail: str = "") -> None:
        self.checks.append(CheckResult(name, passed, detail))

    def lines(self) -> list[str]:
        return [
            f"[{'PASS' if c.passed else 'FAIL'}] {c.name}"
            + (f": {c.detail}" if c.detail and not c.passed else "")
            for c in self.checks
        ]


def _compare(
    report: ConformanceReport,
    name: str,
    shipped: np.ndarray,
    derived: np.ndarray,
    entry: Callable[..., str],
) -> None:
    """Add check ``name``: the shipped table equals the derived one everywhere.

    ``entry(*index, shipped_value, derived_value)`` words one mismatched
    entry; the detail joins them in index order.
    """
    shipped, derived = np.asarray(shipped), np.asarray(derived)
    mismatches = [
        entry(*map(int, index), int(shipped[index]), int(derived[index]))
        for index in zip(*np.nonzero(shipped != derived))
    ]
    report.add(name, not mismatches, "; ".join(mismatches))


def run_conformance_checks(
    round_samples: int = 20,
    seed: int = 20260810,
    flag_table: np.ndarray | None = None,
) -> ConformanceReport:
    """Cross-check every shipping label table and the round map against this oracle.

    ``flag_table``, when given, is checked in place of the shipping flag
    combination table; the benchmark's gate tests inject a fault through
    it.  Failures name the offending entry.
    """
    report = ConformanceReport()
    rng = np.random.default_rng(seed)

    _compare(
        report,
        "rotation relabeling vs dense conjugation",
        [rotation_step3(b) for b in range(4)],
        derive_rotation_table(),
        lambda b, table, oracle: f"label {b}: table {table}, oracle {oracle}",
    )

    # column p * 4 is sigma_p alone on the first qubit of a pair
    _compare(
        report,
        "Pauli label shifts vs dense conjugation",
        _FLAGS[:, None] ^ PAULI_LABEL_SHIFT,
        derive_two_sided_shift_table()[:, ::4],
        lambda label, pauli, table, oracle: (
            f"(label {label}, Pauli {pauli}): table {table}, oracle {oracle}"
        ),
    )

    # label pairs packed as source*4 + target
    shipped_bcnot = np.array([[bcnot_map(s, t) for t in range(4)] for s in range(4)]) @ [4, 1]
    _compare(
        report,
        "BCNOT label map vs dense conjugation",
        shipped_bcnot,
        derive_bcnot_table() @ [4, 1],
        lambda s, t, table, oracle: (
            f"(source {s}, target {t}): table {divmod(table, 4)}, oracle {divmod(oracle, 4)}"
        ),
    )
    distinct = len(set(shipped_bcnot.flat))
    report.add(
        "BCNOT label map is a bijection",
        distinct == 16,
        f"only {distinct} distinct outputs",
    )

    _compare(
        report,
        "flag combination table vs label-algebra derivation",
        FLAG_UPDATE_TABLE if flag_table is None else flag_table,
        derive_flag_update_table(),
        lambda f1, f2, table, derived: (
            f"(row {f1:02b}, column {f2:02b}): table ({table:02b}), derived ({derived:02b})"
        ),
    )

    worst = 0.0
    worst_detail = ""
    for index in range(round_samples):
        p = rng.dirichlet(np.ones(16)).reshape(4, 4)
        state = SubensembleState(p)
        f = rng.dirichlet(np.ones(16) * rng.uniform(0.3, 3.0))
        noise = NoiseModel(f, PLACEMENTS[index % 2])
        engine_state, engine_keep = one_round(state, noise)
        oracle_state, oracle_keep = oracle_one_round(state, noise)
        delta = max(
            float(np.max(np.abs(engine_state.p - oracle_state.p))),
            abs(engine_keep - oracle_keep),
        )
        if delta > worst:
            worst = delta
            worst_detail = f"instance {index} ({noise.placement}) deviates by {delta:.3e}"
    report.add(
        f"round map vs oracle on {round_samples} random instances (<= 1e-10)",
        worst <= 1e-10,
        worst_detail,
    )
    return report
