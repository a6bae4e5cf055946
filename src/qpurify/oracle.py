"""Brute-force density-matrix reference for the protocol.

Everything here is dense linear algebra on 4-dim (one pair) and 16-dim
(two pairs) state spaces: the protocol unitaries are built explicitly,
every Bell-label table is re-derived by conjugating projectors, and one
full noisy purification round is executed on density matrices with the
error flags carried as classical side labels.  The label-based engine in
:mod:`qpurify.recurrence` must agree with this module to 1e-10; the
``verify`` CLI subcommand and the acceptance tests run the comparison.
The dense round reads neither the engine's event cell table
(:func:`qpurify.recurrence.event_cell_table`) nor the :mod:`qpurify.bell`
label maps and :mod:`qpurify.noise` event shifts it is composed from;
those tables are what the conformance checks compare against.  The
oracle stays an independent referee and shares only the normative flag
table.

Qubit ordering on the two-pair space is fixed once and used everywhere:
(alice_control, alice_target, bob_control, bob_target).  The control
pair lives on qubits 0 and 2, the target pair on qubits 1 and 3; noise
acts on qubits 0 and 1 (the noisy lab's control and target qubits).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bell import (
    ATOL,
    BELL_VECTORS,
    PAULIS,
    PAULI_LABEL_SHIFT,
    bell_diagonal_overlaps,
    bell_offdiagonal_max,
    bell_projector,
    bcnot_map,
    rotation_step3,
)
from .errors import DegenerateRoundError
from .flags import FLAG_UPDATE_TABLE
from .noise import EVENT_CONTROL_SHIFTS, EVENT_TARGET_SHIFTS, NoiseModel
from .recurrence import (
    BEFORE_ROTATION,
    KEEP_PROBABILITY_FLOOR,
    PLACEMENTS,
    SubensembleState,
    check_placement,
    one_round,
)

__all__ = [
    "build_protocol_unitaries",
    "derive_rotation_table",
    "derive_two_sided_shift_table",
    "derive_bcnot_table",
    "derive_flag_update_table",
    "oracle_one_round",
    "CheckResult",
    "ConformanceReport",
    "run_conformance_checks",
]

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


def _two_pair_vector(control_label: int, target_label: int) -> np.ndarray:
    """State vector |B_control, B_target> in the fixed qubit ordering.

    The natural product lives on (alice_control, bob_control,
    alice_target, bob_target); axes 1 and 2 are swapped to reach
    (alice_control, alice_target, bob_control, bob_target).
    """
    v = np.kron(BELL_VECTORS[control_label], BELL_VECTORS[target_label])
    return v.reshape(2, 2, 2, 2).transpose(0, 2, 1, 3).reshape(16)


def _two_pair_projector(control_label: int, target_label: int) -> np.ndarray:
    v = _two_pair_vector(control_label, target_label)
    return np.outer(v, v.conj())


def _assert_unitary(u: np.ndarray, name: str) -> np.ndarray:
    dim = u.shape[0]
    if np.max(np.abs(u @ u.conj().T - np.eye(dim))) > ATOL:
        raise AssertionError(f"{name} is not unitary within {ATOL}")
    return u


def build_protocol_unitaries() -> dict[str, np.ndarray]:
    """Explicit matrices for the round's unitaries, unitarity-checked.

    Returns ``rotation_pair`` (4x4, one pair), ``rotation`` (16x16, both
    pairs) and ``bcnot`` (16x16).
    """
    rotation_pair = np.kron(_HALF_X_MINUS, _HALF_X_PLUS)
    rotation = _kron(_HALF_X_MINUS, _HALF_X_MINUS, _HALF_X_PLUS, _HALF_X_PLUS)
    bcnot = np.kron(_CNOT, _CNOT)
    return {
        "rotation_pair": _assert_unitary(rotation_pair, "rotation_pair"),
        "rotation": _assert_unitary(rotation, "rotation"),
        "bcnot": _assert_unitary(bcnot, "bcnot"),
    }


def _match_bell_projector(rho: np.ndarray) -> int:
    """Index of the Bell projector equal to ``rho``; asserts one exists."""
    hits = np.flatnonzero(np.abs(bell_diagonal_overlaps(rho) - 1.0) <= ATOL)
    if not hits.size:
        raise AssertionError("conjugated projector is not a Bell projector")
    return int(hits[0])


def derive_rotation_table() -> np.ndarray:
    """Relabeling of the bilateral half-x rotation, by dense conjugation."""
    u = build_protocol_unitaries()["rotation_pair"]
    table = np.zeros(4, dtype=np.uint8)
    for label in range(4):
        table[label] = _match_bell_projector(u @ bell_projector(label) @ u.conj().T)
    return table

def derive_two_sided_shift_table() -> np.ndarray:
    """Label map of sigma_mu x sigma_nu conjugation, all 4x16 inputs.

    Returns ``table[label, mu*4 + nu]``; the test suite checks it equals
    ``label ^ PAULI_LABEL_SHIFT[mu] ^ PAULI_LABEL_SHIFT[nu]`` everywhere.
    """
    table = np.zeros((4, 16), dtype=np.uint8)
    for mu in range(4):
        for nu in range(4):
            op = np.kron(PAULIS[mu], PAULIS[nu])
            for label in range(4):
                rho = op @ bell_projector(label) @ op.conj().T
                table[label, mu * 4 + nu] = _match_bell_projector(rho)
    return table


def derive_bcnot_table() -> np.ndarray:
    """Label-pair map of the bilateral CNOT, by 16-dim conjugation.

    Returns ``table[source, target] = (source', target')``.
    """
    u = build_protocol_unitaries()["bcnot"]
    table = np.zeros((4, 4, 2), dtype=np.uint8)
    for src in range(4):
        for tgt in range(4):
            rho = u @ _two_pair_projector(src, tgt) @ u.conj().T
            hits = [
                (a, b)
                for a in range(4)
                for b in range(4)
                if abs(np.real(np.trace(_two_pair_projector(a, b) @ rho)) - 1.0) <= ATOL
            ]
            if len(hits) != 1:
                raise AssertionError(
                    f"BCNOT image of ({src}, {tgt}) is not a unique Bell product"
                )
            table[src, tgt] = hits[0]
    return table


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
    bcnot = derive_bcnot_table()
    table = np.zeros((4, 4), dtype=np.uint8)
    for flag1 in range(4):
        for flag2 in range(4):
            src, tgt = bcnot[rotation[flag1], rotation[flag2]]
            table[flag1, flag2] = src if (tgt & 1) == 0 else 0
    return table


def _noise_kraus_16() -> list[np.ndarray]:
    """sigma_mu on qubit 0, sigma_nu on qubit 1, for event mu*4 + nu."""
    return [
        _kron(PAULIS[e >> 2], PAULIS[e & 3], _I2, _I2) for e in range(16)
    ]


_KEEP_PROJECTOR = sum(
    _kron(_I2, np.outer(z, z.conj()), _I2, np.outer(z, z.conj()))
    for z in (np.array([1.0, 0.0]), np.array([0.0, 1.0]))
)


def _trace_out_target(rho: np.ndarray) -> np.ndarray:
    """Partial trace over qubits 1 and 3; returns the 4-dim control pair."""
    r = rho.reshape([2] * 8)
    return np.einsum(r, [0, 1, 2, 3, 4, 1, 6, 3], [0, 2, 4, 6]).reshape(4, 4)


def oracle_one_round(
    state: SubensembleState,
    noise: NoiseModel,
    placement: str = BEFORE_ROTATION,
) -> tuple[SubensembleState, float]:
    """One noisy purification round on explicit 16-dim density matrices.

    Builds the two-pair mixed state from the product of the category
    distribution with itself, carrying the flag pair as a classical
    label on each branch; applies the noise as an explicit Kraus sum
    (recording each event on the branch flags), the rotation and BCNOT
    unitaries, and the coinciding-measurement projector; traces out the
    target pair; and re-expresses every kept branch in the Bell basis
    with flags combined through the normative table.  Raises
    DegenerateRoundError on vanishing keep probability and
    AssertionError if a kept branch is not Bell-diagonal.
    """
    check_placement(placement)
    unitaries = build_protocol_unitaries()
    rotation, bcnot = unitaries["rotation"], unitaries["bcnot"]
    kraus = _noise_kraus_16()
    p = state.p

    branches = np.zeros((4, 4, 16, 16), dtype=complex)
    for flag1 in range(4):
        for bell1 in range(4):
            if p[flag1, bell1] == 0.0:
                continue
            for flag2 in range(4):
                for bell2 in range(4):
                    weight = p[flag1, bell1] * p[flag2, bell2]
                    if weight == 0.0:
                        continue
                    branches[flag1, flag2] += weight * _two_pair_projector(bell1, bell2)

    def apply_noise(branches: np.ndarray) -> np.ndarray:
        out = np.zeros_like(branches)
        flat = noise.f.ravel()
        for event in range(16):
            if flat[event] == 0.0:
                continue
            shift1 = PAULI_LABEL_SHIFT[event >> 2]
            shift2 = PAULI_LABEL_SHIFT[event & 3]
            k = kraus[event]
            moved = flat[event] * np.einsum(
                "ab,fgbc,dc->fgad", k, branches, k.conj()
            )
            rows = np.arange(4) ^ shift1
            cols = np.arange(4) ^ shift2
            out[np.ix_(rows, cols)] += moved
        return out

    def conjugate(branches: np.ndarray, u: np.ndarray) -> np.ndarray:
        return np.einsum("ab,fgbc,dc->fgad", u, branches, u.conj())

    if placement == BEFORE_ROTATION:
        branches = conjugate(apply_noise(branches), rotation)
    else:
        branches = apply_noise(conjugate(branches, rotation))
    branches = conjugate(branches, bcnot)

    out = np.zeros((4, 4))
    keep = 0.0
    for flag1 in range(4):
        for flag2 in range(4):
            projected = _KEEP_PROJECTOR @ branches[flag1, flag2] @ _KEEP_PROJECTOR
            kept_pair = _trace_out_target(projected)
            weight = float(np.real(np.trace(kept_pair)))
            keep += weight
            if bell_offdiagonal_max(kept_pair) > ATOL:
                raise AssertionError("kept pair is not Bell-diagonal")
            out[FLAG_UPDATE_TABLE[flag1, flag2]] += bell_diagonal_overlaps(kept_pair)
    if keep < KEEP_PROBABILITY_FLOOR:
        raise DegenerateRoundError(
            f"keep probability {keep:.3e} below {KEEP_PROBABILITY_FLOOR:.0e}"
        )
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

    production_rotation = np.array([int(rotation_step3(b)) for b in range(4)], dtype=np.uint8)
    derived_rotation = derive_rotation_table()
    mismatches = [
        f"label {b}: table {production_rotation[b]}, oracle {derived_rotation[b]}"
        for b in range(4)
        if production_rotation[b] != derived_rotation[b]
    ]
    report.add("rotation relabeling vs dense conjugation", not mismatches, "; ".join(mismatches))

    derived_shifts = derive_two_sided_shift_table()
    for side, shipped, pauli_of in (
        ("control", EVENT_CONTROL_SHIFTS, lambda event: event >> 2),
        ("target", EVENT_TARGET_SHIFTS, lambda event: event & 3),
    ):
        # column p * 4 is sigma_p alone on the first qubit of a pair
        mismatches = [
            f"(label {label}, event {event})"
            for label in range(4)
            for event in range(16)
            if label ^ shipped[event] != derived_shifts[label, pauli_of(event) * 4]
        ]
        name = f"{side}-pair event shifts vs dense conjugation"
        report.add(name, not mismatches, "; ".join(mismatches))

    bcnot_table = np.array([[bcnot_map(s, t) for t in range(4)] for s in range(4)], dtype=np.uint8)
    derived_bcnot = derive_bcnot_table()
    mismatches = [
        f"(source {s}, target {t}): table {tuple(bcnot_table[s, t])}, oracle {tuple(derived_bcnot[s, t])}"
        for s in range(4)
        for t in range(4)
        if tuple(bcnot_table[s, t]) != tuple(derived_bcnot[s, t])
    ]
    report.add("BCNOT label map vs dense conjugation", not mismatches, "; ".join(mismatches))

    flat = {tuple(bcnot_table[s, t]) for s in range(4) for t in range(4)}
    report.add(
        "BCNOT label map is a bijection",
        len(flat) == 16,
        f"only {len(flat)} distinct outputs",
    )

    production_flags = FLAG_UPDATE_TABLE if flag_table is None else flag_table
    derived_flags = derive_flag_update_table()
    mismatches = [
        f"(row {f1:02b}, column {f2:02b}): table ({production_flags[f1, f2]:02b}), derived ({derived_flags[f1, f2]:02b})"
        for f1 in range(4)
        for f2 in range(4)
        if production_flags[f1, f2] != derived_flags[f1, f2]
    ]
    report.add("flag combination table vs label-algebra derivation", not mismatches, "; ".join(mismatches))

    worst = 0.0
    worst_detail = ""
    for index in range(round_samples):
        p = rng.dirichlet(np.ones(16)).reshape(4, 4)
        state = SubensembleState(p)
        f = rng.dirichlet(np.ones(16) * rng.uniform(0.3, 3.0))
        noise = NoiseModel(f)
        placement = PLACEMENTS[index % 2]
        engine_state, engine_keep = one_round(state, noise, placement)
        oracle_state, oracle_keep = oracle_one_round(state, noise, placement)
        delta = max(
            float(np.max(np.abs(engine_state.p - oracle_state.p))),
            abs(engine_keep - oracle_keep),
        )
        if delta > worst:
            worst = delta
            worst_detail = f"instance {index} ({placement}) deviates by {delta:.3e}"
    report.add(
        f"round map vs oracle on {round_samples} random instances (<= 1e-10)",
        worst <= 1e-10,
        worst_detail,
    )
    return report
