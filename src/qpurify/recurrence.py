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
followed by renormalization; :func:`iterate` builds ``Q`` once and
repeats that product on a bare 16-vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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


def _step(v: np.ndarray, tensor: np.ndarray) -> tuple[np.ndarray, float]:
    """One round on a flat 16-vector: the renormalized output and the keep probability."""
    totals = (v[:, None] * v).ravel() @ tensor
    kept = totals[:DISCARDED]
    keep = float(kept.sum())
    if keep < KEEP_PROBABILITY_FLOOR:
        raise DegenerateRoundError(
            f"keep probability {keep:.3e} below {KEEP_PROBABILITY_FLOOR:.0e}"
        )
    return kept / keep, keep


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
    to NO_PURIFICATION.
    """
    f0 = fidelity(initial)
    try:
        traj = iterate(initial, noise, max_rounds, fixpoint_tol, placement)
    except DegenerateRoundError:
        return RegimeReport(
            Regime.NO_PURIFICATION, float("nan"), float("nan"), 0, False, f0, degenerate=True
        )
    f_max = traj.limiting_fidelity
    cond_limit = traj.limiting_conditional_fidelity
    purifies = f_max > DEPOLARIZED_FIDELITY + purify_margin
    secure = purifies and (1.0 - cond_limit) < secure_tol
    if secure:
        regime = Regime.PURIFY_SECURE
    elif purifies:
        regime = Regime.PURIFY_INSECURE
    else:
        regime = Regime.NO_PURIFICATION
    return RegimeReport(regime, f_max, cond_limit, traj.rounds, traj.converged, f0)


@dataclass
class ThresholdScan:
    """Bisection result for one noise family and one initial state.

    ``f_purify`` and ``f_secure`` are bracket midpoints; either may be
    None when the corresponding boundary lies outside the scanned range
    (the other one is then still valid).
    """

    f_purify: float | None
    f_secure: float | None
    purify_bracket: tuple[float, float] | None
    secure_bracket: tuple[float, float] | None
    evaluations: list[tuple[float, str]]
    lo: float
    hi: float
    bisect_tol: float

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


def find_thresholds(
    family: Callable[[float], NoiseModel],
    initial: SubensembleState,
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
    monotone (larger parameter = cleaner operations).  Raises
    :class:`NoThresholdError` when both endpoints classify into the same
    regime, since no boundary is bracketed at all.
    """
    if not lo < hi:
        raise ValueError(f"need lo < hi, got [{lo}, {hi}]")
    # a zero, negative or NaN tolerance would never end (or skip) the bisection
    if not 0.0 < bisect_tol < math.inf:
        raise ValueError(f"bisect_tol must be positive and finite, got {bisect_tol}")
    evaluations: list[tuple[float, str]] = []

    def regime_at(x: float) -> Regime:
        report = classify_regime(
            family(x),
            initial,
            secure_tol=secure_tol,
            purify_margin=purify_margin,
            max_rounds=max_rounds,
            fixpoint_tol=fixpoint_tol,
            placement=placement,
        )
        evaluations.append((x, report.regime.value))
        return report.regime

    regime_lo = regime_at(lo)
    regime_hi = regime_at(hi)
    if regime_lo == regime_hi:
        raise NoThresholdError(
            f"regime {regime_lo.value} at both ends of [{lo}, {hi}]"
        )

    def bisect(predicate: Callable[[Regime], bool]) -> tuple[float, float] | None:
        """Bracket the flip of a monotone predicate; None when not bracketed."""
        at_lo = predicate(regime_lo)
        at_hi = predicate(regime_hi)
        if at_lo == at_hi:
            return None
        a, b = lo, hi
        while b - a > bisect_tol:
            mid = 0.5 * (a + b)
            if predicate(regime_at(mid)) == at_hi:
                b = mid
            else:
                a = mid
        return a, b

    purify_bracket = bisect(lambda r: r != Regime.NO_PURIFICATION)
    secure_bracket = bisect(lambda r: r == Regime.PURIFY_SECURE)
    f_purify = None if purify_bracket is None else 0.5 * sum(purify_bracket)
    f_secure = None if secure_bracket is None else 0.5 * sum(secure_bracket)
    return ThresholdScan(
        f_purify, f_secure, purify_bracket, secure_bracket, evaluations, lo, hi, bisect_tol
    )


def scan_werner_grid(
    family: Callable[[float], NoiseModel],
    fidelities: Sequence[float] = (0.75, 0.85, 0.95),
    flag_mode: str = "fixed",
    **kwargs,
) -> dict[float, ThresholdScan | None]:
    """Thresholds over a grid of Werner inputs; None marks no-threshold."""
    results: dict[float, ThresholdScan | None] = {}
    for fid in fidelities:
        initial = SubensembleState.werner(fid, flag_mode=flag_mode)
        try:
            results[fid] = find_thresholds(family, initial, **kwargs)
        except NoThresholdError:
            results[fid] = None
    return results
