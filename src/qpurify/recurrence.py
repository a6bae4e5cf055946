"""Exact evolution of the sixteen per-flag Bell coefficients.

The joint state of the bookkeeping is a distribution ``p[flag, bell]``
over the four error flags and the four Bell labels.  One purification
round draws a control and a target category independently from ``p``
(the ensemble is randomly re-paired every round, so the product form is
exact in the large-population limit), draws one noise event for the pair
of pairs, and pushes everything through the label algebra:

1. the noise event (sigma_mu on the control pair's qubit, sigma_nu on
   the target pair's qubit) shifts each pair's Bell label and is
   recorded on its flag; with placement ``before_rotation`` (default)
   this happens before the bilateral rotation, with ``before_bcnot``
   between the rotation and the CNOT;
2. the bilateral half-x rotation relabels both pairs;
3. the bilateral CNOT mixes the two labels;
4. the pair of pairs is kept iff the target measurement coincides, in
   which case the surviving control pair carries the combined flag.

The round map is generated by exhaustively enumerating every
(control category, target category, noise event) combination; no
closed-form recurrence is transcribed anywhere.  The enumeration is the
event cell table (:func:`event_cell_table`), composed once per placement
from the label maps of :mod:`qpurify.bell`, the event shifts of
:mod:`qpurify.noise` and the flag table of :mod:`qpurify.flags`.  It is
the only encoding of a round: :mod:`qpurify.montecarlo` pushes its
sampled event counts through the same table.

Because control and target are drawn independently from ``p``, a round
is a quadratic form in the sixteen coefficients.  Summing the table's
events against one noise model gives the round tensor
(:func:`round_tensor`), a 256x17 array whose row ``i * 16 + j`` holds
the probability that control category ``i`` and target category ``j``
land in each output cell (the last column is :data:`DISCARDED`).  A
round is then one vector-matrix product, ``outer(v, v).ravel() @ Q``,
followed by renormalization.  The one round step, :func:`_round`,
applies that product to an array of rows, each against its own ``Q``.

One loop runs every fixpoint iteration: :func:`_lockstep` advances a
batch of rows one round per Python step, into buffers allocated once per
batch.  Rows that share a round tensor share one copy of it: the rows
run in a grid with one line of slots per tensor.  Once per block of
:data:`_CHECK_EVERY` rounds the loop applies the stop rule to the whole
block (the change drops below ``fixpoint_tol``, the keep probability
falls below :data:`KEEP_PROBABILITY_FLOOR`, or ``max_rounds`` is
reached), so each row stops at the first round that meets it; it then
validates the rows produced and drops the rows that stopped.
:func:`iterate` is a batch of one that records every round,
:func:`one_round` is an :func:`iterate` of one round, and
:func:`classify_regime` labels the row that leaves a batch of one.

Thresholds are found by bisection.  A threshold scan
(:func:`scan_thresholds`) runs one bisection chain per threshold
(purification, security) per initial state, and advances all of its
chains in lockstep, two bisection levels per batch (:data:`_LEVELS`):
each batch classifies the pending midpoint of every open chain and both
midpoints that its next step may visit, then every chain takes two
steps.  Only the midpoints a chain visits enter its evaluations.  Each
initial state keeps a table of the parameters it has classified, so a
midpoint that both of its chains reach (their first ones coincide until
one of them lands in the insecure band) is iterated once.
:func:`find_thresholds` is a scan of one initial state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from typing import Callable, ClassVar, Iterator, NamedTuple, Sequence

import numpy as np

from .bell import bcnot_map, measurement_coincides, rotation_step3
from .errors import DegenerateRoundError, NoThresholdError
from .flags import FLAG_UPDATE_TABLE
from .noise import EVENT_CONTROL_SHIFTS, EVENT_TARGET_SHIFTS, NoiseModel

__all__ = [
    "BEFORE_ROTATION",
    "BEFORE_BCNOT",
    "PLACEMENTS",
    "DISCARDED",
    "check_placement",
    "event_cell_table",
    "round_tensor",
    "KEEP_PROBABILITY_FLOOR",
    "SubensembleState",
    "COEFFICIENT_COLUMNS",
    "phi_plus_weight",
    "flag_match_weight",
    "fidelity",
    "conditional_fidelity",
    "one_round",
    "Trajectory",
    "iterate",
    "Regime",
    "RegimeReport",
    "classify_regime",
    "ThresholdScan",
    "scan_thresholds",
    "find_thresholds",
]

BEFORE_ROTATION = "before_rotation"
BEFORE_BCNOT = "before_bcnot"
PLACEMENTS = (BEFORE_ROTATION, BEFORE_BCNOT)

#: Below this keep probability the post-selected state is undefined.
KEEP_PROBABILITY_FLOOR = 1e-9

#: Fidelity of the completely depolarized state, the high-noise attractor.
DEPOLARIZED_FIDELITY = 0.25

_STATE_ATOL = 1e-12

#: Cell index of a discarded pair of pairs in :func:`event_cell_table`.
DISCARDED = 16


def check_placement(placement: str) -> None:
    """Raise ValueError unless ``placement`` is one of :data:`PLACEMENTS`."""
    if placement not in PLACEMENTS:
        raise ValueError(f"placement must be one of {PLACEMENTS}, got {placement!r}")


@lru_cache(maxsize=None)
def event_cell_table(placement: str) -> np.ndarray:
    """Output cell for every (control, target, noise event) combination.

    Index axes are (control category, target category, noise event);
    categories pack ``flag * 4 + bell`` and events pack ``mu * 4 + nu``,
    with sigma_mu shifting the control pair and sigma_nu the target
    pair.  Entries are the surviving ``flag * 4 + bell`` cell, or
    :data:`DISCARDED` for a discarded pair of pairs.  The read-only
    uint8 table is composed from the label primitives of
    :mod:`qpurify.bell` and the flag table of :mod:`qpurify.flags`.
    """
    check_placement(placement)
    labels = range(4)
    rotated = np.array([rotation_step3(b) for b in labels], dtype=np.uint8)
    after_bcnot = [[bcnot_map(b1, b2) for b2 in labels] for b1 in labels]
    source = np.array([[s for s, _ in row] for row in after_bcnot], dtype=np.uint8)
    kept = np.array([[measurement_coincides(t) for _, t in row] for row in after_bcnot])

    category = np.arange(16, dtype=np.uint8)[:, None]
    flag, bell = category >> 2, category & 3

    def noisy(shifts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(flag, bell) of each category under each event's shift, before the BCNOT."""
        if placement == BEFORE_ROTATION:
            return flag ^ shifts, rotated[bell ^ shifts]
        return flag ^ shifts, rotated[bell] ^ shifts

    flag1, bell1 = (a[:, None, :] for a in noisy(EVENT_CONTROL_SHIFTS))
    flag2, bell2 = (a[None, :, :] for a in noisy(EVENT_TARGET_SHIFTS))
    cell = FLAG_UPDATE_TABLE[flag1, flag2] * 4 + source[bell1, bell2]
    table = np.where(kept[bell1, bell2], cell, DISCARDED).astype(np.uint8)
    table.setflags(write=False)
    return table


@lru_cache(maxsize=None)
def _tensor_bins(placement: str) -> np.ndarray:
    """Flat index into the 256x17 round tensor of every event-table entry."""
    pair = np.arange(256).reshape(16, 16, 1)
    return (pair * (DISCARDED + 1) + event_cell_table(placement)).ravel()


def round_tensor(noise: NoiseModel, placement: str = BEFORE_ROTATION) -> np.ndarray:
    """The round map of one noise model as a 256x17 quadratic form ``Q``.

    ``Q[i * 16 + j, c]`` is the probability, over the noise event, that
    control category ``i`` and target category ``j`` end in output cell
    ``c`` (column :data:`DISCARDED` collects the discarded pairs of
    pairs), so one round's unnormalized output is
    ``outer(v, v).ravel() @ Q``.  Each row sums to 1.
    """
    totals = np.bincount(
        _tensor_bins(placement),
        weights=np.tile(noise.f.ravel(), 256),
        minlength=256 * (DISCARDED + 1),
    )
    return totals.reshape(256, DISCARDED + 1)


def _round(states: np.ndarray, tensors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One round on an array of rows: the renormalized outputs and the keep probabilities.

    ``states`` is ``(..., 16)``, and ``tensors`` a stack of ``(256, 17)``
    round tensors whose leading axes broadcast against those of
    ``states``: ``(B, 16)`` rows against ``(B, 256, 17)`` tensors, or a
    ``(P, K, 16)`` grid against ``(P, 1, 256, 17)``, whose ``K`` rows of
    each line share one tensor.  A row whose keep probability is below
    :data:`KEEP_PROBABILITY_FLOOR` comes back unnormalized; the caller
    decides what a degenerate row means.
    """
    outer = np.einsum("...i,...j->...ij", states, states).reshape(*states.shape[:-1], 1, 256)
    kept = (outer @ tensors)[..., 0, :DISCARDED]
    keep = kept.sum(axis=-1)
    # the floor changes no valid row's divisor and keeps a degenerate row off 0/0
    return kept / np.maximum(keep, KEEP_PROBABILITY_FLOOR)[..., None], keep


def _checked_rows(rows: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Validate rows of sixteen coefficients as distributions; return them clipped at 0.

    Every coefficient must be at least ``-_STATE_ATOL`` and every row must
    sum to 1 within ``_STATE_ATOL``.  The comparisons are written so that
    a NaN fails them.  The clipped rows are written to ``out`` when it is
    given (it may be ``rows`` itself).
    """
    low = rows.min()
    if not low >= -_STATE_ATOL:
        raise ValueError(f"state has negative or NaN coefficient {low:.3e}")
    rows = np.clip(rows, 0.0, None, out=out)
    deviation = np.abs(rows.sum(axis=-1) - 1.0).ravel()
    if not deviation.max() <= _STATE_ATOL:
        worst = float(rows.reshape(-1, 16)[deviation.argmax()].sum())
        raise ValueError(f"state coefficients sum to {worst!r}, not 1")
    return rows


#: The lockstep loop applies its stop rule and validates the rows it produced
#: once per block of this many rounds, so the rows it holds are bounded by the
#: block, not by ``max_rounds``.
_CHECK_EVERY = 64

#: Rounds per pass of the block-end arithmetic, which bounds its scratch buffer.
_PASS = 16


class _Block(NamedTuple):
    """One block of lockstep rounds, slot by slot.

    The arrays are views of the loop's buffers and are overwritten by the
    next block.  A slot's entries past the ``ran`` rounds its row ran are
    not meaningful, nor is anything of an idle slot, which holds no row.
    """

    live: np.ndarray  # each slot's row index into the batch, -1 for an idle slot
    start: int  # the rounds every row ran before the block
    new: np.ndarray  # (rounds, slots, 16): the outputs, round by round, unclipped
    keeps: np.ndarray  # (rounds, slots): the keep probabilities
    changes: np.ndarray  # (rounds, slots): the sup-norm changes
    ran: np.ndarray  # the rounds of the block each row ran: through its stop, or all
    stopped: np.ndarray  # whether each row stops in the block
    converged: np.ndarray  # whether each row stops with its change below ``fixpoint_tol``
    degenerate: np.ndarray  # whether each row stops with its keep probability below the floor


def _grid(owners: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Lay positions out by owner: a ``(P, K)`` grid of positions, and its ``P`` owners.

    Line ``i`` of the grid holds, in order, the positions whose owner is
    the ``i``-th smallest owner, padded with -1 up to the longest line.
    Positions whose owner is negative are left out.
    """
    lines: dict[int, list[int]] = {}
    for position, owner in enumerate(owners.tolist()):
        if owner >= 0:
            lines.setdefault(owner, []).append(position)
    held = sorted(lines)
    grid = np.full((len(held), max(map(len, lines.values()), default=0)), -1)
    for i, owner in enumerate(held):
        grid[i, : len(lines[owner])] = lines[owner]
    return grid, held


def _lockstep(
    states: np.ndarray,
    tensors: np.ndarray,
    max_rounds: int,
    fixpoint_tol: float,
    owners: Sequence[int] | None = None,
) -> Iterator[_Block]:
    """Iterate a batch of rows in lockstep, in blocks of rounds, until each stops.

    Row ``k`` starts at ``states[k]`` and advances under
    ``tensors[owners[k]]`` (``tensors[k]`` when ``owners`` is None), so
    rows that share a round tensor share one copy.  It stops at the first
    round where its sup-norm change drops below ``fixpoint_tol``, where
    its keep probability falls below :data:`KEEP_PROBABILITY_FLOOR` (it
    is degenerate, and its last output unnormalized), or where it has run
    ``max_rounds`` rounds.

    The rows run in a grid of slots laid out by :func:`_grid`: one line
    per tensor, idle slots padding the shorter lines.  Each Python step
    is one :func:`_round` of the whole grid, written into buffers
    allocated once per batch.  The stop rule is applied to a whole block
    of :data:`_CHECK_EVERY` rounds at once, so a row that stops inside a
    block runs on to its end, and what it produces after its stop is
    never read.  Each block's rows through each one's stop are validated
    like :class:`SubensembleState`, except the last of a row that stops
    degenerate, and the block is yielded as a :class:`_Block`.  The rows
    that stopped then leave the batch and the grid is laid out anew;
    ``tensors`` is compacted in place to the tensors still in use, so
    the stack the caller hands in comes back reordered.
    """
    width = min(_CHECK_EVERY, max(max_rounds, 0))
    grid, held = _grid(np.arange(len(states)) if owners is None else np.asarray(owners))
    # flat buffers, so that every block's views of them are contiguous
    rows = np.empty((width + 1) * grid.size * 16)
    keeps = np.empty(width * grid.size)
    work = np.empty(min(width, _PASS) * grid.size * 16)
    live, latest = np.arange(len(states)), states
    start = 0
    while grid.size and start < max_rounds:
        for i, owner in enumerate(held):
            if i != owner:
                tensors[i] = tensors[owner]
        shape, slots = grid.shape, grid.ravel()
        n, idle = len(slots), slots < 0
        live = np.where(idle, -1, live[slots])
        span = min(width, max_rounds - start)
        block = rows[: (span + 1) * n * 16].reshape(span + 1, *shape, 16)
        kept = keeps[: span * n].reshape(span, *shape)
        block[0] = np.where(idle[:, None], 0.0, latest[slots]).reshape(*shape, 16)
        q = tensors[: shape[0], None]
        for i in range(span):
            block[i + 1], kept[i] = _round(block[i], q)
        block, kept = block.reshape(span + 1, n, 16), kept.reshape(span, n)
        new, old = block[1:], block[:-1]
        parts = [slice(i, i + _PASS) for i in range(0, span, _PASS)]
        changes = np.empty((span, n))
        for part in parts:
            w = work[: new[part].size].reshape(new[part].shape)
            np.abs(np.subtract(new[part], old[part], out=w), out=w).max(axis=2, out=changes[part])
        settled = changes < fixpoint_tol
        stuck = kept < KEEP_PROBABILITY_FLOOR
        done = (settled | stuck) & ~idle
        if start + span == max_rounds:
            done[-1] = ~idle
        stopped = done.any(axis=0)
        last = np.where(stopped, done.argmax(axis=0), span - 1)
        at_last = last, np.arange(n)
        converged, degenerate = stopped & settled[at_last], stopped & stuck[at_last]
        # rows past a stop, a degenerate round and idle slots become uniform rows, which pass
        skip = (np.arange(span)[:, None] >= np.where(degenerate, last, last + 1)) | idle
        for part in parts:
            w = work[: new[part].size].reshape(new[part].shape)
            np.copyto(w, new[part])
            w[skip[part]] = 1 / 16
            _checked_rows(w, out=w)
        yield _Block(live, start, new, kept, changes, last + 1, stopped, converged, degenerate)
        start += span
        latest = new[-1]
        # a slot's line is the index of its tensor in the compacted stack
        grid, held = _grid(np.where(idle | stopped, -1, np.arange(n) // shape[1]))


@dataclass(frozen=True, eq=False)
class SubensembleState:
    """Joint distribution ``p[flag, bell]`` over flags and Bell labels.

    The bell marginal carries the ensemble-level coefficients (the
    fidelity is the Phi+ column summed over flags); the diagonal
    ``p[k, k]`` carries the flag/label correlation that the conditional
    fidelity measures.
    """

    p: np.ndarray

    def __post_init__(self):
        p = np.array(self.p, dtype=float)
        if p.shape == (16,):
            p = p.reshape(4, 4)
        if p.shape != (4, 4):
            raise ValueError(f"state must have 16 coefficients, got shape {p.shape}")
        p = _checked_rows(p.reshape(16)).reshape(4, 4)
        p.setflags(write=False)
        object.__setattr__(self, "p", p)

    @classmethod
    def from_bell_probs(cls, bell_probs, flag_mode: str = "fixed") -> "SubensembleState":
        """Bell-diagonal input with flags all (00) or uniform over flags.

        ``bell_probs`` is indexed by packed label (Phi+, Psi+, Phi-,
        Psi-) and is renormalized after a loose validity check.
        """
        probs = np.array(bell_probs, dtype=float)
        if probs.shape != (4,):
            raise ValueError("bell_probs must have exactly 4 entries")
        if not (probs.min() >= 0.0 and abs(probs.sum() - 1.0) <= 1e-9):
            raise ValueError(f"bell_probs is not a probability distribution: {probs}")
        probs = probs / probs.sum()
        p = np.zeros((4, 4))
        if flag_mode == "fixed":
            p[0] = probs
        elif flag_mode == "random":
            p[:] = probs / 4.0
        else:
            raise ValueError(f"flag_mode must be 'fixed' or 'random', got {flag_mode!r}")
        return cls(p)

    @classmethod
    def werner(cls, fid: float, flag_mode: str = "fixed") -> "SubensembleState":
        """Werner-like input: weight ``fid`` on Phi+, the rest spread evenly."""
        if not 0.0 <= fid <= 1.0:
            raise ValueError(f"fidelity must lie in [0, 1], got {fid}")
        rest = (1.0 - fid) / 3.0
        return cls.from_bell_probs([fid, rest, rest, rest], flag_mode=flag_mode)


#: CSV names of the sixteen coefficients, in packed ``flag * 4 + bell`` order.
COEFFICIENT_COLUMNS = tuple(f"P_f{flag:02b}_b{bell:02b}" for flag in range(4) for bell in range(4))


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


def fidelity(state: SubensembleState) -> float:
    """Overlap of the ensemble with Phi+ (the bell marginal's first entry)."""
    return float(phi_plus_weight(state.p.ravel()))


def conditional_fidelity(state: SubensembleState) -> float:
    """Fidelity attainable if the error flags were disclosed (see :func:`flag_match_weight`)."""
    return float(flag_match_weight(state.p.ravel()))


def one_round(
    state: SubensembleState,
    noise: NoiseModel,
    placement: str = BEFORE_ROTATION,
) -> tuple[SubensembleState, float]:
    """Apply one noisy purification round to the category distribution.

    Returns the renormalized post-selected state and the keep
    probability.  Raises :class:`DegenerateRoundError` when the keep
    probability falls below ``KEEP_PROBABILITY_FLOOR``: the conditional
    state is then undefined.  (This is reachable, e.g. a channel that
    always flips exactly one pair's amplitude makes every measurement
    anti-coincide.)  This is an :func:`iterate` of one round.
    """
    trajectory = iterate(state, noise, max_rounds=1, fixpoint_tol=0.0, placement=placement)
    return SubensembleState(trajectory.coefficients[1]), float(trajectory.keeps[1])


@dataclass
class Trajectory:
    """Per-round records of one fixpoint iteration (round 0 = input).

    ``coefficients`` holds the sixteen coefficients of every round, one
    row per round, and ``keeps`` the keep probability of the round that
    produced each row (1 for round 0).  The per-round fidelities and the
    CSV rows, laid out as :attr:`columns`, are computed from them on
    request.
    """

    #: CSV columns of :meth:`rows`.
    columns: ClassVar[tuple[str, ...]] = ("round", "F", "F_cond", "keep_prob", *COEFFICIENT_COLUMNS)

    coefficients: np.ndarray
    keeps: np.ndarray
    converged: bool
    final_change: float

    @property
    def rounds(self) -> int:
        return len(self.coefficients) - 1

    @property
    def limiting_fidelity(self) -> float:
        """Fidelity at the last recorded round (the F_max estimate)."""
        return float(self.fidelities()[-1])

    @property
    def limiting_conditional_fidelity(self) -> float:
        return float(self.conditional_fidelities()[-1])

    def fidelities(self) -> np.ndarray:
        return phi_plus_weight(self.coefficients)

    def conditional_fidelities(self) -> np.ndarray:
        return flag_match_weight(self.coefficients)

    def rows(self) -> list[list[float]]:
        """CSV rows: round, F, F_cond, keep probability, 16 coefficients."""
        table = np.column_stack(
            [self.fidelities(), self.conditional_fidelities(), self.keeps, self.coefficients]
        )
        return [[n, *row] for n, row in enumerate(table.tolist())]


def iterate(
    state: SubensembleState,
    noise: NoiseModel,
    max_rounds: int = 500,
    fixpoint_tol: float = 1e-12,
    placement: str = BEFORE_ROTATION,
) -> Trajectory:
    """Run rounds until the coefficients stop moving or the cap is hit.

    Convergence means the sup-norm change of the sixteen coefficients
    drops below ``fixpoint_tol``.  The trajectory always starts with a
    round-0 record of the input state (keep probability 1 by convention).
    The iteration is a :func:`_lockstep` batch of one row that records
    every round it ran from each block; its rows are validated like
    :class:`SubensembleState` once per block of 64 rounds
    (:data:`_CHECK_EVERY`), and are recorded clipped at 0.  Raises
    :class:`DegenerateRoundError` at a round whose keep probability
    falls below ``KEEP_PROBABILITY_FLOOR``.
    """
    rows, keeps = [state.p.reshape(1, 16)], [np.ones(1)]
    converged, change = False, math.inf
    tensors = round_tensor(noise, placement)[None]
    for block in _lockstep(rows[0], tensors, max_rounds, fixpoint_tol):
        ran = int(block.ran[0])
        if block.degenerate[0]:
            raise DegenerateRoundError(
                f"keep probability {block.keeps[ran - 1, 0]:.3e} below {KEEP_PROBABILITY_FLOOR:.0e}"
            )
        rows.append(block.new[:ran, 0].copy())
        keeps.append(block.keeps[:ran, 0].copy())
        change = float(block.changes[ran - 1, 0])
        converged = bool(block.converged[0])
    coefficients = np.clip(np.concatenate(rows), 0.0, None)
    return Trajectory(coefficients, np.concatenate(keeps), converged, change)


class Regime(str, Enum):
    NO_PURIFICATION = "NO_PURIFICATION"
    PURIFY_INSECURE = "PURIFY_INSECURE"
    PURIFY_SECURE = "PURIFY_SECURE"


@dataclass
class RegimeReport:
    regime: Regime
    f_max: float
    conditional_limit: float
    rounds: int
    converged: bool
    initial_fidelity: float
    degenerate: bool = False


def _classify_rows(
    states: np.ndarray,
    tensors: np.ndarray,
    secure_tol: float,
    purify_margin: float,
    max_rounds: int,
    fixpoint_tol: float,
    owners: Sequence[int] | None = None,
) -> list[RegimeReport]:
    """Classify a :func:`_lockstep` batch by the rows that leave it.

    Row ``k`` iterates ``states[k]`` under ``tensors[owners[k]]``
    (``tensors[k]`` when ``owners`` is None); its clipped last row gets
    the labels of :func:`classify_regime`.  The loop compacts
    ``tensors`` in place, so the caller's stack comes back reordered.
    """
    count = len(states)
    final = states.copy()
    rounds = np.zeros(count, dtype=int)
    converged = np.zeros(count, dtype=bool)
    degenerate = np.zeros(count, dtype=bool)
    for block in _lockstep(states, tensors, max_rounds, fixpoint_tol, owners):
        stopped = np.flatnonzero(block.stopped)
        rows, ran = block.live[stopped], block.ran[stopped]
        rounds[rows] = block.start + ran
        converged[rows] = block.converged[stopped]
        degenerate[rows] = block.degenerate[stopped]
        final[rows] = np.clip(block.new[ran - 1, stopped], 0.0, None)

    f_max, cond_limit = phi_plus_weight(final), flag_match_weight(final)
    reports = []
    for k, f0 in enumerate(phi_plus_weight(states).tolist()):
        if degenerate[k]:
            reports.append(RegimeReport(
                Regime.NO_PURIFICATION, math.nan, math.nan, 0, False, f0, degenerate=True
            ))
            continue
        purifies = f_max[k] > DEPOLARIZED_FIDELITY + purify_margin
        if purifies and (1.0 - cond_limit[k]) < secure_tol:
            regime = Regime.PURIFY_SECURE
        elif purifies:
            regime = Regime.PURIFY_INSECURE
        else:
            regime = Regime.NO_PURIFICATION
        reports.append(RegimeReport(
            regime, float(f_max[k]), float(cond_limit[k]), int(rounds[k]), bool(converged[k]), f0
        ))
    return reports


def classify_regime(
    noise: NoiseModel,
    initial: SubensembleState,
    secure_tol: float = 1e-6,
    purify_margin: float = 1e-4,
    max_rounds: int = 500,
    fixpoint_tol: float = 1e-12,
    placement: str = BEFORE_ROTATION,
) -> RegimeReport:
    """Label the noise/initial-state combination by its limiting behavior.

    In the high-noise regime the iteration collapses to the completely
    depolarized state, so purifying means the limiting fidelity stays
    above the depolarized value 1/4 by ``purify_margin``.  (Near the
    purification boundary the attracting fixpoint lies well below a
    Werner-0.85 input fidelity, so comparing against the input would
    mislabel a large purifying band; the collapse gap is ~0.5 and makes
    this criterion sharp.)  Secure additionally requires the conditional
    fidelity to reach 1 within ``secure_tol``.  A degenerate round maps
    to NO_PURIFICATION.  This is a batch of one row.
    """
    (report,) = _classify_rows(
        initial.p.reshape(1, 16),
        round_tensor(noise, placement)[None],
        secure_tol,
        purify_margin,
        max_rounds,
        fixpoint_tol,
    )
    return report


@dataclass
class ThresholdScan:
    """Bisection result for one noise family and one initial state.

    ``f_purify`` and ``f_secure`` are bracket midpoints; either may be
    None when the corresponding boundary lies outside the scanned range
    (the other one is then still valid).  When both are None the two
    ends share a regime and nothing is bracketed (see :attr:`found`).
    """

    f_purify: float | None
    f_secure: float | None
    purify_bracket: tuple[float, float] | None
    secure_bracket: tuple[float, float] | None
    evaluations: list[tuple[float, str]]
    lo: float
    hi: float
    bisect_tol: float

    @property
    def found(self) -> bool:
        """Whether the two ends differ in regime, so that some boundary is bracketed."""
        return self.purify_bracket is not None or self.secure_bracket is not None

    def require_found(self) -> "ThresholdScan":
        """Return the scan, or raise :class:`NoThresholdError` when nothing is bracketed."""
        if not self.found:
            regime = self.evaluations[0][1]
            raise NoThresholdError(f"regime {regime} at both ends of [{self.lo}, {self.hi}]")
        return self

    def as_dict(self) -> dict:
        return {
            "f_purify": self.f_purify,
            "f_secure": self.f_secure,
            "purify_bracket": self.purify_bracket,
            "secure_bracket": self.secure_bracket,
            "range": [self.lo, self.hi],
            "bisect_tol": self.bisect_tol,
            "evaluations": [{"parameter": x, "regime": r} for x, r in self.evaluations],
        }


def _purifies(regime: Regime) -> bool:
    return regime != Regime.NO_PURIFICATION


def _secure(regime: Regime) -> bool:
    return regime == Regime.PURIFY_SECURE


#: Bisection levels a threshold scan classifies per batch: every open
#: chain's pending midpoint and, below it, the midpoints of both halves.
_LEVELS = 2


@dataclass
class _Chain:
    """The bisection of one monotone predicate for one initial state."""

    state: int
    predicate: Callable[[Regime], bool]
    at_hi: bool
    a: float
    b: float
    trace: list[tuple[float, str]] = field(default_factory=list)

    def step(self, regimes: dict[float, Regime]) -> None:
        """Bisect once, reading the midpoint's regime from ``regimes``."""
        mid = 0.5 * (self.a + self.b)
        regime = regimes[mid]
        self.trace.append((mid, regime.value))
        if self.predicate(regime) == self.at_hi:
            self.b = mid
        else:
            self.a = mid


def scan_thresholds(
    family: Callable[[float], NoiseModel],
    initials: Sequence[SubensembleState],
    *,
    lo: float = 0.88,
    hi: float = 0.92,
    bisect_tol: float = 1e-5,
    secure_tol: float = 1e-6,
    purify_margin: float = 1e-4,
    max_rounds: int = 3000,
    placement: str = BEFORE_ROTATION,
    fixpoint_tol: float = 1e-12,
) -> list[ThresholdScan]:
    """Bisect the purification and security boundaries of several initial states, one scan each.

    ``family`` maps a parameter in [lo, hi] to a noise model and must be
    monotone (larger parameter = cleaner operations).  Both ends are
    classified first; then, for every initial state, the purification
    chain (regime leaves NO_PURIFICATION) and the security chain (regime
    becomes PURIFY_SECURE) bisect.  Every chain advances in lockstep,
    :data:`_LEVELS` bisection steps per batch (:func:`_classify_rows`):
    a batch classifies every midpoint that each open chain's next steps
    may visit, and each chain then steps through the ones it visits.  A
    chain's evaluations list only those, in the order of a serial
    bisection.  A parameter already classified for the same initial
    state is looked up, not iterated again; it is still recorded in that
    chain's evaluations, which list the ends, then the purification
    chain, then the security chain.  A batch builds each parameter's
    round tensor once, and all its rows share it.  A scan whose two ends
    share a regime brackets nothing (see :attr:`ThresholdScan.found`).
    These keyword defaults are the defaults of every threshold scan.
    """
    if not lo < hi:
        raise ValueError(f"need lo < hi, got [{lo}, {hi}]")
    # a zero, negative or NaN tolerance would never end (or skip) the bisection
    if not 0.0 < bisect_tol < math.inf:
        raise ValueError(f"bisect_tol must be positive and finite, got {bisect_tol}")
    known: list[dict[float, Regime]] = [{} for _ in initials]

    def classify(requests: list[tuple[int, float]]) -> None:
        """Classify the (initial state, parameter) requests not yet known, as one batch."""
        todo = [(k, x) for k, x in dict.fromkeys(requests) if x not in known[k]]
        if not todo:
            return
        # one stack holds each parameter's tensor once, shared by its rows
        owner = {x: i for i, x in enumerate(dict.fromkeys(x for _, x in todo))}
        tensors = np.empty((len(owner), 256, DISCARDED + 1))
        for x, i in owner.items():
            tensors[i] = round_tensor(family(x), placement)
        reports = _classify_rows(
            np.array([initials[k].p.ravel() for k, _ in todo]),
            tensors,
            secure_tol,
            purify_margin,
            max_rounds,
            fixpoint_tol,
            [owner[x] for _, x in todo],
        )
        for (k, x), report in zip(todo, reports):
            known[k][x] = report.regime

    def reachable(a: float, b: float, levels: int) -> list[float]:
        """Every midpoint the bisection of [a, b] may visit in its next ``levels`` steps."""
        if not (levels and b - a > bisect_tol):
            return []
        mid = 0.5 * (a + b)
        return [mid, *reachable(a, mid, levels - 1), *reachable(mid, b, levels - 1)]

    classify([(k, x) for k in range(len(initials)) for x in (lo, hi)])
    chains: list[list[_Chain | None]] = []
    for k, regimes in enumerate(known):
        ends = regimes[lo], regimes[hi]
        chains.append([
            _Chain(k, predicate, predicate(ends[1]), lo, hi)
            if predicate(ends[0]) != predicate(ends[1]) else None
            for predicate in (_purifies, _secure)
        ])

    open_chains = [c for pair in chains for c in pair if c is not None]
    while open_chains := [c for c in open_chains if c.b - c.a > bisect_tol]:
        classify([(c.state, x) for c in open_chains for x in reachable(c.a, c.b, _LEVELS)])
        for chain in open_chains:
            for _ in range(_LEVELS):
                if chain.b - chain.a > bisect_tol:
                    chain.step(known[chain.state])

    scans = []
    for regimes, pair in zip(known, chains):
        brackets = [None if chain is None else (chain.a, chain.b) for chain in pair]
        midpoints = [None if bracket is None else 0.5 * sum(bracket) for bracket in brackets]
        evaluations = [(lo, regimes[lo].value), (hi, regimes[hi].value)]
        evaluations += [e for chain in pair if chain is not None for e in chain.trace]
        scans.append(ThresholdScan(*midpoints, *brackets, evaluations, lo, hi, bisect_tol))
    return scans


def find_thresholds(
    family: Callable[[float], NoiseModel], initial: SubensembleState, **settings
) -> ThresholdScan:
    """The :func:`scan_thresholds` scan of one initial state, with the same keyword settings.

    Raises :class:`NoThresholdError` when both endpoints classify into
    the same regime, since no boundary is bracketed at all.
    """
    (scan,) = scan_thresholds(family, [initial], **settings)
    return scan.require_found()
