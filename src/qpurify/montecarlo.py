"""Stochastic simulation of a finite population of pairs.

Each pair is one byte, ``(flag << 2) | bell``, in a flat contiguous
array: the same packing as a category of the exact engine.  A round
shuffles the population, pairs adjacent records as (control, target),
samples one noise event per pair of pairs, and then takes the whole
round (noise shifts on labels and flags, rotation, bilateral CNOT,
coincidence measurement, flag combination) as one lookup in the
engine's event cell table, :func:`qpurify.recurrence.event_cell_table`.
Records whose cell is :data:`~qpurify.recurrence.DISCARDED` are
dropped.  An odd leftover record after the shuffle is discarded (an
O(1/N) effect).

Randomness is organized as independent generator streams keyed by
(seed, purpose, round, chunk); per-round noise draws are chunked in
fixed-size blocks, so a fixed (seed, chunk_size) reproduces results
bit-identically regardless of how chunks would be scheduled.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ProtocolHaltError
from .noise import NoiseModel
from .recurrence import BEFORE_ROTATION, DISCARDED, SubensembleState, event_cell_table

__all__ = [
    "DEFAULT_CHUNK_SIZE",
    "Ensemble",
    "RoundStats",
    "McTrajectory",
    "MinimumFidelityCheck",
    "init_ensemble",
    "run_round",
    "run_protocol",
    "check_minimum_fidelity",
    "total_variation",
]

DEFAULT_CHUNK_SIZE = 1 << 16

# Stream purposes (first spawn-key component).
_INIT_BELLS = 0
_INIT_FLAGS = 1
_SHUFFLE = 2
_NOISE = 3
_SACRIFICE = 4


def _stream(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=key))


@dataclass
class Ensemble:
    """A concrete finite population of (bell, flag) records."""

    pairs: np.ndarray
    seed: int
    chunk_size: int = DEFAULT_CHUNK_SIZE
    round_counter: int = 0
    check_counter: int = 0

    @property
    def size(self) -> int:
        return int(self.pairs.size)

    def joint_distribution(self) -> np.ndarray:
        """Empirical (flag, bell) frequencies, shaped like a state's ``p``."""
        if self.pairs.size == 0:
            return np.zeros((4, 4))
        counts = np.bincount(self.pairs, minlength=16)[:16]
        return counts.reshape(4, 4) / self.pairs.size

    def fidelity(self) -> float:
        if self.pairs.size == 0:
            return float("nan")
        return float(np.mean((self.pairs & 3) == 0))

    def conditional_fidelity(self) -> float:
        if self.pairs.size == 0:
            return float("nan")
        return float(np.mean((self.pairs >> 2) == (self.pairs & 3)))

    def as_state(self) -> SubensembleState:
        return SubensembleState(self.joint_distribution())


def init_ensemble(
    bell_probs,
    n_pairs: int,
    flag_mode: str = "fixed",
    seed: int = 0,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
) -> Ensemble:
    """Sample ``n_pairs`` i.i.d. records with Bell labels drawn from ``bell_probs``.

    ``bell_probs`` is indexed by packed label (Phi+, Psi+, Phi-, Psi-).
    Flags start at (00) (``flag_mode="fixed"``) or uniformly random
    (``"random"``; used to verify independence from initialization).
    """
    probs = np.array(bell_probs, dtype=float)
    if probs.shape != (4,) or probs.min() < 0.0 or abs(probs.sum() - 1.0) > 1e-9:
        raise ValueError(f"bell_probs is not a probability distribution: {probs}")
    probs = probs / probs.sum()
    if n_pairs < 2:
        raise ValueError(f"need at least 2 pairs, got {n_pairs}")
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be positive, got {chunk_size}")
    bells = _stream(seed, _INIT_BELLS).choice(4, size=n_pairs, p=probs).astype(np.uint8)
    if flag_mode == "fixed":
        flags = np.zeros(n_pairs, dtype=np.uint8)
    elif flag_mode == "random":
        flags = _stream(seed, _INIT_FLAGS).integers(0, 4, size=n_pairs, dtype=np.uint8)
    else:
        raise ValueError(f"flag_mode must be 'fixed' or 'random', got {flag_mode!r}")
    return Ensemble((flags << 2) | bells, seed, chunk_size)


@dataclass(frozen=True)
class RoundStats:
    """Post-round snapshot of the surviving population."""

    round_index: int
    survivors: int
    keep_fraction: float
    fidelity: float
    conditional_fidelity: float
    sample_stddev_fidelity: float
    joint: np.ndarray = field(repr=False)


def _snapshot(round_index: int, ensemble: Ensemble, keep_fraction: float) -> RoundStats:
    n = ensemble.size
    f = ensemble.fidelity()
    stddev = float(np.sqrt(f * (1.0 - f) / n)) if n else float("nan")
    return RoundStats(
        round_index,
        n,
        keep_fraction,
        f,
        ensemble.conditional_fidelity(),
        stddev,
        ensemble.joint_distribution(),
    )


def _sample_events_chunked(
    noise: NoiseModel, seed: int, round_index: int, chunk_size: int, count: int
) -> np.ndarray:
    events = np.empty(count, dtype=np.int64)
    for chunk, start in enumerate(range(0, count, chunk_size)):
        stop = min(start + chunk_size, count)
        gen = _stream(seed, _NOISE, round_index, chunk)
        events[start:stop] = noise.sample_events(gen, stop - start)
    return events


def run_round(
    ensemble: Ensemble, noise: NoiseModel, placement: str = BEFORE_ROTATION
) -> RoundStats:
    """Advance the population by one purification round, in place.

    Raises :class:`ProtocolHaltError` when fewer than two pairs remain.
    """
    cells = event_cell_table(placement)
    n = ensemble.size
    if n < 2:
        raise ProtocolHaltError(f"cannot pair {n} remaining record(s)")
    round_index = ensemble.round_counter + 1

    order = _stream(ensemble.seed, _SHUFFLE, round_index).permutation(n)
    shuffled = ensemble.pairs[order]
    m = n // 2
    events = _sample_events_chunked(
        noise, ensemble.seed, round_index, ensemble.chunk_size, m
    )
    combined = cells[shuffled[0 : 2 * m : 2], shuffled[1 : 2 * m : 2], events]
    survivors = combined[combined != DISCARDED]
    ensemble.pairs = survivors
    ensemble.round_counter = round_index
    keep_fraction = survivors.size / m
    return _snapshot(round_index, ensemble, keep_fraction)


@dataclass
class McTrajectory:
    """Empirical per-round records, including the round-0 snapshot."""

    points: list[RoundStats]
    halted: bool

    @property
    def final(self) -> RoundStats:
        return self.points[-1]

    def fidelities(self) -> np.ndarray:
        return np.array([pt.fidelity for pt in self.points])

    def conditional_fidelities(self) -> np.ndarray:
        return np.array([pt.conditional_fidelity for pt in self.points])

    def survivors(self) -> np.ndarray:
        return np.array([pt.survivors for pt in self.points])

    def rows(self) -> list[list[float]]:
        """CSV rows matching the engine schema plus survivors and stddev."""
        return [
            [
                pt.round_index,
                pt.fidelity,
                pt.conditional_fidelity,
                pt.keep_fraction,
                *pt.joint.ravel().tolist(),
                pt.survivors,
                pt.sample_stddev_fidelity,
            ]
            for pt in self.points
        ]


def run_protocol(
    ensemble: Ensemble,
    noise: NoiseModel,
    rounds: int,
    placement: str = BEFORE_ROTATION,
) -> McTrajectory:
    """Run up to ``rounds`` purification rounds, recording each snapshot.

    Stops early (with ``halted=True``) once the population cannot form a
    pair of pairs.
    """
    points = [_snapshot(ensemble.round_counter, ensemble, 1.0)]
    halted = False
    for _ in range(rounds):
        try:
            points.append(run_round(ensemble, noise, placement))
        except ProtocolHaltError:
            halted = True
            break
    return McTrajectory(points, halted)


@dataclass(frozen=True)
class MinimumFidelityCheck:
    passed: bool
    estimate: float
    ci_low: float
    ci_high: float
    sacrificed: int


def check_minimum_fidelity(
    ensemble: Ensemble,
    sacrifice_fraction: float,
    f_min: float,
    confidence: float = 0.99,
) -> MinimumFidelityCheck:
    """Estimate the fidelity by measuring and removing a random fraction.

    Counts Phi+ outcomes among the sacrificed records and forms a
    Clopper-Pearson interval at the given confidence; the check passes
    iff the lower bound exceeds ``f_min``.  The sacrificed records are
    removed from the ensemble.
    """
    if not 0.0 < sacrifice_fraction < 1.0:
        raise ValueError(f"sacrifice_fraction must be in (0, 1), got {sacrifice_fraction}")
    n = ensemble.size
    k = int(round(sacrifice_fraction * n))
    if k == 0:
        raise ValueError(f"sacrifice of {sacrifice_fraction} of {n} pairs selects none")
    gen = _stream(ensemble.seed, _SACRIFICE, ensemble.round_counter, ensemble.check_counter)
    chosen = gen.choice(n, size=k, replace=False)
    sacrificed = ensemble.pairs[chosen]
    keep_mask = np.ones(n, dtype=bool)
    keep_mask[chosen] = False
    ensemble.pairs = ensemble.pairs[keep_mask]
    ensemble.check_counter += 1

    from scipy import stats  # imported here: it dominates start-up and only this check needs it

    successes = int(np.count_nonzero((sacrificed & 3) == 0))
    alpha = 1.0 - confidence
    low = 0.0 if successes == 0 else float(stats.beta.ppf(alpha / 2, successes, k - successes + 1))
    high = 1.0 if successes == k else float(stats.beta.ppf(1 - alpha / 2, successes + 1, k - successes))
    return MinimumFidelityCheck(low > f_min, successes / k, low, high, k)


def total_variation(p: np.ndarray, q: np.ndarray) -> float:
    """Total-variation distance between two distributions on the same cells."""
    return 0.5 * float(np.abs(np.asarray(p, dtype=float) - np.asarray(q, dtype=float)).sum())
