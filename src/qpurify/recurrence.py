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
applies that product to a stack of rows, each against its own ``Q``;
:func:`one_round` and :func:`iterate` pass it a single row.

Thresholds are found by bisection.  A threshold scan
(:func:`scan_thresholds`) runs one bisection chain per threshold
(purification, security) per initial state, and advances all of its
chains in lockstep: each step classifies the pending midpoint of every
open chain as one batch, every row of which advances one round per
Python step and leaves the batch when it stops.  Each initial state
keeps a table of the parameters it has classified, so a midpoint that
both of its chains reach (their first ones coincide until one of them
lands in the insecure band) is iterated once.
:func:`classify_regime`, :func:`find_thresholds` and
:func:`scan_werner_grid` are such batches over one row, one initial
state and a grid of Werner inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from typing import Callable, ClassVar, Sequence

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
    "scan_werner_grid",
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
    """One round on a stack of rows: the renormalized outputs and the keep probabilities.

    ``states`` is ``(B, 16)`` and ``tensors`` the matching ``(B, 256, 17)``
    stack of round tensors.  A row whose keep probability is below
    :data:`KEEP_PROBABILITY_FLOOR` comes back unnormalized; the caller
    decides what a degenerate row means.
    """
    n = len(states)
    outer = (states[:, :, None] * states[:, None, :]).reshape(n, 1, 256)
    kept = (outer @ tensors)[:, 0, :DISCARDED]
    keep = kept.sum(axis=1)
    # the floor changes no valid row's divisor and keeps a degenerate row off 0/0
    return kept / np.maximum(keep, KEEP_PROBABILITY_FLOOR)[:, None], keep


def _step(v: np.ndarray, tensor: np.ndarray) -> tuple[np.ndarray, float]:
    """One round on a flat 16-vector: the renormalized output and the keep probability."""
    new, keep = _round(v[None], tensor[None])
    keep = float(keep[0])
    if keep < KEEP_PROBABILITY_FLOOR:
        raise DegenerateRoundError(
            f"keep probability {keep:.3e} below {KEEP_PROBABILITY_FLOOR:.0e}"
        )
    return new[0], keep


def _checked_rows(rows: np.ndarray) -> np.ndarray:
    """Validate rows of sixteen coefficients as distributions; return them clipped at 0.

    Every coefficient must be at least ``-_STATE_ATOL`` and every row must
    sum to 1 within ``_STATE_ATOL``.  The comparisons are written so that
    a NaN fails them.
    """
    low = rows.min()
    if not low >= -_STATE_ATOL:
        raise ValueError(f"state has negative or NaN coefficient {low:.3e}")
    rows = np.clip(rows, 0.0, None)
    deviation = np.abs(rows.sum(axis=-1) - 1.0).ravel()
    if not deviation.max() <= _STATE_ATOL:
        worst = float(rows.reshape(-1, 16)[deviation.argmax()].sum())
        raise ValueError(f"state coefficients sum to {worst!r}, not 1")
    return rows


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
    anti-coincide.)
    """
    v, keep = _step(state.p.ravel(), round_tensor(noise, placement))
    return SubensembleState(v), keep


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
    The round tensor is built once and each round advances a bare
    16-vector; the rows are validated like :class:`SubensembleState`
    once the iteration stops.
    """
    tensor = round_tensor(noise, placement)
    v = state.p.ravel()
    rows, keeps = [v], [1.0]
    converged = False
    change = np.inf
    for _ in range(max_rounds):
        new, keep = _step(v, tensor)
        change = float(np.abs(new - v).max())
        rows.append(new)
        keeps.append(keep)
        v = new
        if change < fixpoint_tol:
            converged = True
            break
    return Trajectory(_checked_rows(np.array(rows)), np.array(keeps), converged, change)


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


#: A batched classification validates the rows it produced every this many rounds,
#: so the rows it holds for that are bounded by the block, not by ``max_rounds``.
_CHECK_EVERY = 64


def _classify_rows(
    states: np.ndarray,
    tensors: np.ndarray,
    secure_tol: float,
    purify_margin: float,
    max_rounds: int,
    fixpoint_tol: float,
) -> list[RegimeReport]:
    """Classify a batch of rows, every row advancing one round per step.

    Row ``k`` iterates the input ``states[k]`` under the round tensor
    ``tensors[k]`` with the stop rule of :func:`iterate`, and leaves the
    batch when its change drops below ``fixpoint_tol``, when it has run
    ``max_rounds`` rounds, or when its keep probability falls below
    :data:`KEEP_PROBABILITY_FLOOR`.  The rounds of a row are validated
    like :class:`SubensembleState` every :data:`_CHECK_EVERY` rounds and
    when it leaves, except those of a degenerate row, which
    :func:`iterate` never validates either.  Each row gets the labels of
    :func:`classify_regime`.
    """
    count = len(states)
    final = states.copy()
    rounds = np.zeros(count, dtype=int)
    converged = np.zeros(count, dtype=bool)
    degenerate = np.zeros(count, dtype=bool)
    live = np.arange(count)
    v, q = states, tensors
    pending: list[np.ndarray] = []
    for n in range(1, max_rounds + 1):
        new, keep = _round(v, q)
        settled = np.abs(new - v).max(axis=1) < fixpoint_tol
        stuck = keep < KEEP_PROBABILITY_FLOOR
        done = settled | stuck if n < max_rounds else np.ones(len(live), dtype=bool)
        pending.append(new)
        leaving = done.any()
        if leaving or len(pending) == _CHECK_EVERY:
            block = np.array(pending)[:, ~stuck]
            if block.size:
                _checked_rows(block)
            pending = []
        if not leaving:
            v = new
            continue
        gone = live[done]
        rounds[gone] = n
        converged[gone] = settled[done]
        degenerate[gone] = stuck[done]
        final[gone] = np.clip(new[done], 0.0, None)
        stay = ~done
        v, q, live = new[stay], q[stay], live[stay]
        if not len(live):
            break

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


@dataclass
class _Chain:
    """The bisection of one monotone predicate for one initial state."""

    state: int
    predicate: Callable[[Regime], bool]
    at_hi: bool
    a: float
    b: float
    trace: list[tuple[float, str]] = field(default_factory=list)


def scan_thresholds(
    family: Callable[[float], NoiseModel],
    initials: Sequence[SubensembleState],
    *,
    lo: float,
    hi: float,
    bisect_tol: float,
    secure_tol: float,
    purify_margin: float,
    max_rounds: int,
    placement: str,
    fixpoint_tol: float,
) -> list[ThresholdScan]:
    """Bisect the thresholds of several initial states at once, one scan each.

    The keyword settings are those of :func:`find_thresholds`.  Every
    bisection chain (one threshold of one initial state) advances in
    lockstep: each step classifies the next midpoint of every open chain
    in one batch (:func:`_classify_rows`).  A parameter already
    classified for the same initial state is looked up, not iterated
    again; it is still recorded in that chain's evaluations.  A scan
    whose two ends share a regime brackets nothing (see
    :attr:`ThresholdScan.found`).
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
        parameters = dict.fromkeys(x for _, x in todo)
        tensors = {x: round_tensor(family(x), placement) for x in parameters}
        reports = _classify_rows(
            np.array([initials[k].p.ravel() for k, _ in todo]),
            np.array([tensors[x] for _, x in todo]),
            secure_tol,
            purify_margin,
            max_rounds,
            fixpoint_tol,
        )
        for (k, x), report in zip(todo, reports):
            known[k][x] = report.regime

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
        mids = [0.5 * (c.a + c.b) for c in open_chains]
        classify([(c.state, mid) for c, mid in zip(open_chains, mids)])
        for chain, mid in zip(open_chains, mids):
            regime = known[chain.state][mid]
            chain.trace.append((mid, regime.value))
            if chain.predicate(regime) == chain.at_hi:
                chain.b = mid
            else:
                chain.a = mid

    scans = []
    for regimes, pair in zip(known, chains):
        brackets = [None if chain is None else (chain.a, chain.b) for chain in pair]
        midpoints = [None if bracket is None else 0.5 * sum(bracket) for bracket in brackets]
        evaluations = [(lo, regimes[lo].value), (hi, regimes[hi].value)]
        evaluations += [e for chain in pair if chain is not None for e in chain.trace]
        scans.append(ThresholdScan(*midpoints, *brackets, evaluations, lo, hi, bisect_tol))
    return scans


def find_thresholds(
    family: Callable[[float], NoiseModel],
    initial: SubensembleState,
    *,
    lo: float = 0.88,
    hi: float = 0.92,
    bisect_tol: float = 1e-5,
    secure_tol: float = 1e-6,
    purify_margin: float = 1e-4,
    max_rounds: int = 3000,
    placement: str = BEFORE_ROTATION,
    fixpoint_tol: float = 1e-12,
) -> ThresholdScan:
    """Bisect the purification and security boundaries of a noise family.

    ``family`` maps a parameter in [lo, hi] to a noise model and must be
    monotone (larger parameter = cleaner operations).  Both ends are
    classified first; then the purification chain (regime leaves
    NO_PURIFICATION) and the security chain (regime becomes
    PURIFY_SECURE) bisect in lockstep, each step classifying both
    midpoints in one batch, as :func:`scan_thresholds` does for one
    initial state.  The two chains share their first midpoints until one
    lands in the insecure band; a shared midpoint is classified once and
    recorded in both chains.  ``evaluations`` lists the ends, then the
    purification chain, then the security chain.  Raises
    :class:`NoThresholdError` when both endpoints classify into the same
    regime, since no boundary is bracketed at all.  These keyword
    defaults are the defaults of every threshold scan.
    """
    (scan,) = scan_thresholds(
        family,
        [initial],
        lo=lo,
        hi=hi,
        bisect_tol=bisect_tol,
        secure_tol=secure_tol,
        purify_margin=purify_margin,
        max_rounds=max_rounds,
        placement=placement,
        fixpoint_tol=fixpoint_tol,
    )
    return scan.require_found()


def scan_werner_grid(
    family: Callable[[float], NoiseModel],
    fidelities: Sequence[float] = (0.75, 0.85, 0.95),
    flag_mode: str = "fixed",
    **kwargs,
) -> dict[float, ThresholdScan | None]:
    """Thresholds over a grid of Werner inputs, all in one :func:`scan_thresholds` batch.

    ``kwargs`` are keyword settings of :func:`find_thresholds`, with its
    defaults for the rest.  None marks a fidelity with no threshold.
    """
    settings = {**find_thresholds.__kwdefaults__, **kwargs}
    initials = [SubensembleState.werner(fid, flag_mode=flag_mode) for fid in fidelities]
    scans = scan_thresholds(family, initials, **settings)
    return {fid: scan if scan.found else None for fid, scan in zip(fidelities, scans)}
