"""Exact evolution of the sixteen per-flag Bell coefficients.

The joint state of the bookkeeping is a distribution ``p[flag, bell]``
over the four error flags and the four Bell labels.  One purification
round draws a control and a target category independently from ``p``
(the ensemble is randomly re-paired every round, so the product form is
exact in the large-population limit), draws one noise event for the pair
of pairs, and pushes everything through the label algebra:

1. the noise event (sigma_mu on the control pair's qubit, sigma_nu on
   the target pair's qubit) shifts each pair's Bell label and is
   recorded on its flag; the noise model's placement puts this before
   the bilateral rotation (``before_rotation``, the default) or between
   the rotation and the CNOT (``before_bcnot``);
2. the bilateral half-x rotation relabels both pairs;
3. the bilateral CNOT mixes the two labels;
4. the pair of pairs is kept iff the target measurement coincides, in
   which case the surviving control pair carries the combined flag.

The round map is generated by exhaustively enumerating every
(control category, target category, noise event) combination; no
closed-form recurrence is transcribed anywhere.  The enumeration is the
event cell table of :mod:`qpurify.bell`
(:func:`~qpurify.bell.event_cell_table`), which
:mod:`qpurify.montecarlo` pushes its sampled event counts through; the
engine applies the table's two factors one after the other.

A noise event sigma_mu x sigma_nu acts on each pair alone, so a round
factors through it.  Under sigma_mu the control's category distribution
``v`` is permuted: it becomes ``X[mu] = v[gather[mu]]``, where the
gather index inverts the noise model's row of
:func:`~qpurify.bell.event_category_permutation` (the rotation is
folded in).  Control and target are drawn independently from ``p``, so
the joint distribution of the two categories the BCNOT sees is the
16x16 matrix ``W = X.T @ f @ X``, with ``f`` the model's 4x4 table.
The noiseless BCNOT and measurement send each entry of ``W`` to its
cell of :func:`~qpurify.bell.pair_cell_table`: an output cell is the
sum of its kept entries, and the keep probability the sum of the
cells.  A round is then the renormalized cells.  The round step,
:func:`_round_step`, does this for a stack of rows, each under its own
table and gather index, so a batch may mix placements.  Every operation
in it is per row or elementwise, so a row's output is the same bits in
any batch.

One loop runs every fixpoint iteration: :func:`_lockstep` advances a
batch of rows, each under its own noise table, one round per Python
step.  Once per block of :data:`_CHECK_EVERY` rounds the loop applies
the stop rule to the whole block (the change drops below
``fixpoint_tol``, the keep probability falls below
:data:`KEEP_PROBABILITY_FLOOR`, or ``max_rounds`` is reached), so each
row stops at the first round that meets it; it then validates the rows
produced and drops the rows that stopped.
:func:`iterate` is a batch of one that records every round,
:func:`one_round` is an :func:`iterate` of one round, and
:func:`classify_regime` returns the :class:`Regime` of every row of a
batch, read from the row's last output: a label and nothing else.

Thresholds are found by bisection.  A threshold scan
(:func:`find_thresholds`) first fills a table of regimes for each
initial state, in batches of :func:`classify_regime`: after the ends,
each batch classifies the :data:`_LEVELS` levels of midpoints below
every bracket of neighbouring classified parameters whose regimes
differ and which is wider than ``bisect_tol``.  When no such bracket is
left, each threshold (purification, security) is read off the table by
one serial bisection (:func:`_bisect`); every midpoint it reads is in
the table, so a parameter that both bisections read is iterated once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from itertools import pairwise
from typing import Callable, ClassVar, Iterator, NamedTuple, Sequence

import numpy as np

from .bell import (
    DISCARDED,
    event_category_permutation,
    flag_match_weight,
    pair_cell_table,
    phi_plus_weight,
)
from .errors import DegenerateRoundError, NoThresholdError
from .noise import NoiseModel, check_probability, checked_rows, probability_table, real_array

__all__ = [
    "KEEP_PROBABILITY_FLOOR",
    "SubensembleState",
    "COEFFICIENT_COLUMNS",
    "one_round",
    "Trajectory",
    "iterate",
    "Regime",
    "classify_regime",
    "ThresholdScan",
    "find_thresholds",
]

#: Below this keep probability the post-selected state is undefined.
KEEP_PROBABILITY_FLOOR = 1e-9

#: Fidelity of the completely depolarized state, the high-noise attractor.
DEPOLARIZED_FIDELITY = 0.25


def _factors(noises: Sequence[NoiseModel]) -> tuple[np.ndarray, np.ndarray]:
    """The noise tables and gather indices of a stack of rows, one row per noise model.

    ``tables[k]`` is model ``k``'s 4x4 table ``f``.  ``gathers[k, mu, c]``
    is the category that sigma_mu turns into ``c`` at the model's
    placement: its row of :func:`~qpurify.bell.event_category_permutation`,
    inverted.
    """
    tables = np.array([noise.f for noise in noises])
    gathers = np.array([np.argsort(event_category_permutation(noise.placement), axis=1) for noise in noises])
    return tables, gathers


@lru_cache(maxsize=None)
def _cell_runs() -> tuple[np.ndarray, np.ndarray]:
    """The kept entries of the flattened pair cell table, grouped by cell, and where each group starts.

    Every cell has at least one entry, so the groups are the runs that
    ``np.add.reduceat`` sums.  Both arrays are read-only.
    """
    cells = pair_cell_table().ravel()
    order = np.argsort(cells, kind="stable")[: np.count_nonzero(cells != DISCARDED)]
    runs = order, np.searchsorted(cells[order], np.arange(DISCARDED))
    for array in runs:
        array.setflags(write=False)
    return runs


def _round_step(tables: np.ndarray, gathers: np.ndarray) -> Callable[..., None]:
    """One round of a stack of rows, as a function ``step(states, out, keeps)``.

    Row ``k`` advances under ``tables[k]`` and ``gathers[k]`` (see
    :func:`_factors`).  ``step`` reads the ``(B, 16)`` states and writes
    the renormalized outputs to ``out`` and the keep probabilities to
    ``keeps``, in buffers made here once.  A row whose keep probability
    is below :data:`KEEP_PROBABILITY_FLOOR` comes back unnormalized; the
    caller decides what a degenerate row means.  The kept entries of
    each row are summed into its cells by one fixed-order reduction, not
    a product over the batch, whose summation order would depend on the
    batch.
    """
    rows = np.arange(len(tables))
    order, starts = _cell_runs()
    sources = gathers + 16 * rows[:, None, None]  # flat indices into the states
    kept_entries = order + 256 * rows[:, None]  # flat indices into the joint distributions
    noisy = np.empty(gathers.shape)  # noisy[k, mu]: row k under sigma_mu
    weighted = np.empty(gathers.shape)
    pairs = np.empty((len(rows), 16, 16))
    kept = np.empty(kept_entries.shape)
    cells = np.empty((len(rows), 16))
    divisor = np.empty(len(rows))
    noisy_t, divisor_column = noisy.transpose(0, 2, 1), divisor[:, None]

    # every index is in range; "clip" spares take the copy that its bounds check makes
    def step(states: np.ndarray, out: np.ndarray, keeps: np.ndarray) -> None:
        states.take(sources, out=noisy, mode="clip")
        np.matmul(tables, noisy, out=weighted)
        np.matmul(noisy_t, weighted, out=pairs)
        pairs.take(kept_entries, out=kept, mode="clip")
        np.add.reduceat(kept, starts, axis=1, out=cells)
        np.add.reduce(cells, axis=1, out=keeps)
        # the floor changes no valid row's divisor and keeps a degenerate row off 0/0
        np.maximum(keeps, KEEP_PROBABILITY_FLOOR, out=divisor)
        np.divide(cells, divisor_column, out=out)

    return step


#: The lockstep loop applies its stop rule and validates the rows it produced
#: once per block of this many rounds, so the rows it holds are bounded by the
#: block, not by ``max_rounds``.
_CHECK_EVERY = 64


class _Block(NamedTuple):
    """One block of lockstep rounds of the rows still running, one column per row.

    A row's entries past the ``ran`` rounds it ran are not meaningful.
    """

    live: np.ndarray  # each column's row index into the batch
    new: np.ndarray  # (rounds, rows, 16): the outputs, round by round
    keeps: np.ndarray  # (rounds, rows): the keep probabilities
    changes: np.ndarray  # (rounds, rows): the sup-norm changes
    ran: np.ndarray  # the rounds of the block each row ran: through its stop, or all
    stopped: np.ndarray  # whether each row stops in the block
    converged: np.ndarray  # whether each row stops with its change below ``fixpoint_tol``
    degenerate: np.ndarray  # whether each row stops with its keep probability below the floor


def _lockstep(
    states: np.ndarray, tables: np.ndarray, gathers: np.ndarray, max_rounds: int, fixpoint_tol: float
) -> Iterator[_Block]:
    """Iterate a batch of rows in lockstep, in blocks of rounds, until each stops.

    Row ``k`` starts at ``states[k]`` and advances under ``tables[k]``
    and ``gathers[k]`` (see :func:`_factors`).
    It stops at the first round where its sup-norm change drops below
    ``fixpoint_tol``, where its keep probability falls below
    :data:`KEEP_PROBABILITY_FLOOR` (it is degenerate, and its last output
    unnormalized), or where it has run ``max_rounds`` rounds.

    Each Python step is one :func:`_round_step` of every running row.  The
    stop rule is applied to a whole block of :data:`_CHECK_EVERY` rounds
    at once, so a row that stops inside a block runs on to its end, and
    what it produces after its stop is never read.  Each block's rows
    through each one's stop, except the last of a row that stops
    degenerate, pass :func:`~qpurify.noise.checked_rows`, the check of
    :class:`SubensembleState`, on a copy, and the block is yielded as a
    :class:`_Block`.  The rows that stopped then leave the batch.
    """
    live, latest = np.arange(len(states)), states
    start = 0
    while len(live) and start < max_rounds:
        n, span = len(live), min(_CHECK_EVERY, max_rounds - start)
        rows, keeps = np.empty((span + 1, n, 16)), np.empty((span, n))
        rows[0] = latest
        step = _round_step(tables, gathers)
        for before, after, keep in zip(rows, rows[1:], keeps):
            step(before, after, keep)
        new = rows[1:]
        changes = new - rows[:-1]
        changes = np.abs(changes, out=changes).max(axis=2)
        settled = changes < fixpoint_tol
        stuck = keeps < KEEP_PROBABILITY_FLOOR
        done = settled | stuck
        if start + span == max_rounds:
            done[-1] = True
        stopped = done.any(axis=0)
        last = np.where(stopped, done.argmax(axis=0), span - 1)
        at_last = last, np.arange(n)
        converged, degenerate = stopped & settled[at_last], stopped & stuck[at_last]
        # rows past a stop and a degenerate round become uniform rows, which pass
        skip = np.arange(span)[:, None] >= np.where(degenerate, last, last + 1)
        checked_rows(np.where(skip[..., None], 1 / 16, new), "state")
        yield _Block(live, new, keeps, changes, last + 1, stopped, converged, degenerate)
        start += span
        stay = np.flatnonzero(~stopped)
        live, latest = live[stay], new[-1, stay]
        tables, gathers = tables[stay], gathers[stay]


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
        object.__setattr__(self, "p", probability_table(self.p, "state"))

    @classmethod
    def from_bell_probs(cls, bell_probs, flag_mode: str = "fixed") -> "SubensembleState":
        """Bell-diagonal input with flags all (00) or uniform over flags.

        ``bell_probs`` is indexed by packed label (Phi+, Psi+, Phi-,
        Psi-); it passes :func:`~qpurify.noise.checked_rows`, like every
        probability table, and is then renormalized.
        """
        probs = real_array(bell_probs, "bell_probs")
        if probs.shape != (4,):
            raise ValueError("bell_probs must have exactly 4 entries")
        probs = checked_rows(probs, "bell_probs")
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
        fid = check_probability(fid, "fidelity")
        rest = (1.0 - fid) / 3.0
        return cls.from_bell_probs([fid, rest, rest, rest], flag_mode=flag_mode)


#: CSV names of the sixteen coefficients, in packed ``flag * 4 + bell`` order.
COEFFICIENT_COLUMNS = tuple(f"P_f{flag:02b}_b{bell:02b}" for flag in range(4) for bell in range(4))


def one_round(state: SubensembleState, noise: NoiseModel) -> tuple[SubensembleState, float]:
    """Apply one noisy purification round to the category distribution.

    Returns the renormalized post-selected state and the keep
    probability.  Raises :class:`DegenerateRoundError` when the keep
    probability falls below ``KEEP_PROBABILITY_FLOOR``: the conditional
    state is then undefined.  (This is reachable, e.g. a channel that
    always flips exactly one pair's amplitude makes every measurement
    anti-coincide.)  This is an :func:`iterate` of one round.
    """
    trajectory = iterate(state, noise, max_rounds=1, fixpoint_tol=0.0)
    return SubensembleState(trajectory.coefficients[1]), float(trajectory.keeps[1])


@dataclass
class Trajectory:
    """Per-round records of one fixpoint iteration (round 0 = input).

    ``coefficients`` holds the sixteen coefficients of every round, one
    row per round, and ``keeps`` the keep probability of the round that
    produced each row (1 for round 0).  The per-round fidelities and the
    CSV rows, laid out as :attr:`columns`, are computed from them on
    request.  Every row passed :func:`~qpurify.noise.checked_rows`: it
    sums to 1 within :data:`~qpurify.noise.PROBABILITY_ATOL`, and no
    entry is negative, since a round multiplies, adds and divides
    nonnegative rows and a nonnegative noise table.
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
) -> Trajectory:
    """Run rounds until the coefficients stop moving or the cap is hit.

    Convergence means the sup-norm change of the sixteen coefficients
    drops below ``fixpoint_tol``.  The trajectory always starts with a
    round-0 record of the input state (keep probability 1 by convention).
    The iteration is a :func:`_lockstep` batch of one row that records
    every round it ran from each block; its rows are checked like a
    :class:`SubensembleState`, within
    :data:`~qpurify.noise.PROBABILITY_ATOL`, once per block of 64 rounds
    (:data:`_CHECK_EVERY`), and recorded as the rounds produced them.  Raises
    :class:`DegenerateRoundError` at a round whose keep probability
    falls below ``KEEP_PROBABILITY_FLOOR``.
    """
    rows, keeps = [state.p.reshape(1, 16)], [np.ones(1)]
    converged, change = False, math.inf
    for block in _lockstep(rows[0], *_factors([noise]), max_rounds, fixpoint_tol):
        ran = int(block.ran[0])
        if block.degenerate[0]:
            raise DegenerateRoundError(
                f"keep probability {block.keeps[ran - 1, 0]:.3e} below {KEEP_PROBABILITY_FLOOR:.0e}"
            )
        rows.append(block.new[:ran, 0].copy())
        keeps.append(block.keeps[:ran, 0].copy())
        change = float(block.changes[ran - 1, 0])
        converged = bool(block.converged[0])
    return Trajectory(np.concatenate(rows), np.concatenate(keeps), converged, change)


class Regime(str, Enum):
    NO_PURIFICATION = "NO_PURIFICATION"
    PURIFY_INSECURE = "PURIFY_INSECURE"
    PURIFY_SECURE = "PURIFY_SECURE"


def classify_regime(
    noises: Sequence[NoiseModel],
    initials: Sequence[SubensembleState],
    *,
    secure_tol: float,
    purify_margin: float,
    max_rounds: int,
    fixpoint_tol: float,
) -> list[Regime]:
    """The regime of each noise/initial-state row of a :func:`_lockstep` batch, by its limiting behavior.

    Row ``k`` iterates ``initials[k]`` under ``noises[k]``.  Its final
    row is its last output, or NaN when it stops degenerate.

    In the high-noise regime the iteration collapses to the completely
    depolarized state, so purifying means the limiting fidelity stays
    above the depolarized value 1/4 by ``purify_margin``.  (Near the
    purification boundary the attracting fixpoint lies well below a
    Werner-0.85 input fidelity, so comparing against the input would
    mislabel a large purifying band; the collapse gap is ~0.5 and makes
    this criterion sharp.)  Secure additionally requires the conditional
    fidelity to reach 1 within ``secure_tol``.  A row's rank, an index
    into :class:`Regime`, is 1 if it purifies plus 1 if it is also
    secure.  NaN compares False, so a degenerate row ranks 0,
    NO_PURIFICATION.  Every setting is required: the scan defaults live
    in :class:`~qpurify.config.ScanSettings` alone.
    """
    final = np.array([initial.p.ravel() for initial in initials])
    for block in _lockstep(final.copy(), *_factors(noises), max_rounds, fixpoint_tol):
        final[block.live[block.degenerate]] = math.nan
        stopped = np.flatnonzero(block.stopped & ~block.degenerate)
        final[block.live[stopped]] = block.new[block.ran[stopped] - 1, stopped]

    purifies = phi_plus_weight(final) > DEPOLARIZED_FIDELITY + purify_margin
    # an integer sum: bool + bool would be a logical or
    ranks = purifies.astype(int) + (purifies & (1.0 - flag_match_weight(final) < secure_tol))
    regimes = list(Regime)
    return [regimes[rank] for rank in ranks.tolist()]


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


#: Bisection levels a threshold scan classifies per batch below each open
#: bracket: its midpoint and, below it, the midpoints of both halves.
_LEVELS = 2


def _bisect(
    regimes: dict[float, Regime], rank: int, lo: float, hi: float, bisect_tol: float
) -> tuple[tuple[float, float], list[tuple[float, str]]] | None:
    """The bracket and the trace of a serial bisection read off ``regimes``.

    The bisected predicate is "the regime's rank, its index in
    :class:`Regime`, is at least ``rank``".  The bisection halves
    [lo, hi] until it is within ``bisect_tol``, keeping the half whose
    ends differ in the predicate; the trace lists each midpoint it reads
    with its regime.  None when both ends agree.
    """
    reached = list(Regime)[rank:]
    at_hi = regimes[hi] in reached
    if (regimes[lo] in reached) == at_hi:
        return None
    a, b, trace = lo, hi, []
    while b - a > bisect_tol:
        mid = 0.5 * (a + b)
        trace.append((mid, regimes[mid].value))
        if (regimes[mid] in reached) == at_hi:
            b = mid
        else:
            a = mid
    return (a, b), trace


def find_thresholds(
    family: Callable[[float], NoiseModel],
    initials: Sequence[SubensembleState],
    *,
    lo: float,
    hi: float,
    bisect_tol: float,
    secure_tol: float,
    purify_margin: float,
    max_rounds: int,
    fixpoint_tol: float,
) -> list[ThresholdScan]:
    """Bisect the purification and security boundaries of several initial states, one scan each.

    ``family`` maps a parameter in [lo, hi] to a noise model, placement
    included, and must be monotone (larger parameter = cleaner
    operations).  The scan fills a
    table of regimes per initial state in lockstep batches
    (:func:`classify_regime`): first both ends, then, below every open
    bracket (neighbouring classified parameters whose regimes differ,
    more than ``bisect_tol`` apart), the midpoints of its next
    :data:`_LEVELS` bisection levels, until no bracket is open.  One
    serial bisection (:func:`_bisect`) per threshold then reads the
    table: purification (rank 1, the regime leaves NO_PURIFICATION),
    then security (rank 2, it becomes PURIFY_SECURE).  A bisection
    stands only on brackets whose ends differ in regime, and the first
    parameter classified inside one is its midpoint, so the table holds
    every midpoint it reads.  The evaluations list the ends, then the two traces.  A scan
    whose ends share a regime brackets nothing (see
    :attr:`ThresholdScan.found`), and raises nothing: a caller that
    needs a threshold calls :meth:`ThresholdScan.require_found`.
    Every setting is required; the defaults of a threshold scan are
    those of :class:`~qpurify.config.ScanSettings`.
    """
    if not lo < hi:
        raise ValueError(f"need lo < hi, got [{lo}, {hi}]")
    # a zero, negative or NaN tolerance would never end (or skip) the bisection
    if not 0.0 < bisect_tol < math.inf:
        raise ValueError(f"bisect_tol must be positive and finite, got {bisect_tol}")
    known: list[dict[float, Regime]] = [{} for _ in initials]

    def classify(requests: list[tuple[int, float]]) -> None:
        """Classify (initial state, parameter) requests, none of them known yet, as one batch."""
        noises = [family(x) for _, x in requests]
        states = [initials[k] for k, _ in requests]
        regimes = classify_regime(noises, states, secure_tol=secure_tol, purify_margin=purify_margin,
                                  max_rounds=max_rounds, fixpoint_tol=fixpoint_tol)
        for (k, x), regime in zip(requests, regimes):
            known[k][x] = regime

    def reachable(a: float, b: float, levels: int) -> list[float]:
        """Every midpoint the bisection of [a, b] may visit in its next ``levels`` steps."""
        if not (levels and b - a > bisect_tol):
            return []
        mid = 0.5 * (a + b)
        return [mid, *reachable(a, mid, levels - 1), *reachable(mid, b, levels - 1)]

    requests = [(k, x) for k in range(len(initials)) for x in (lo, hi)]
    while requests:
        classify(requests)
        # reachable lists nothing below a bracket within bisect_tol, which is closed
        requests = [(k, x) for k, regimes in enumerate(known) for a, b in pairwise(sorted(regimes))
                    if regimes[a] != regimes[b] for x in reachable(a, b, _LEVELS)]

    scans = []
    for regimes in known:
        bisections = [_bisect(regimes, rank, lo, hi, bisect_tol) or (None, []) for rank in (1, 2)]
        brackets = [bracket for bracket, _ in bisections]
        midpoints = [None if bracket is None else 0.5 * sum(bracket) for bracket in brackets]
        evaluations = [(lo, regimes[lo].value), (hi, regimes[hi].value)]
        evaluations += [e for _, trace in bisections for e in trace]
        scans.append(ThresholdScan(*midpoints, *brackets, evaluations, lo, hi, bisect_tol))
    return scans
