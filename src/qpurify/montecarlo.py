"""Stochastic simulation of a finite population of pairs.

A round's outcome depends on nothing but how many pairs sit in each of
the sixteen (flag, Bell) categories, so the population is held as a
16-entry count vector, packed ``flag * 4 + bell`` like a category of
the exact engine.  A round samples exactly the distribution of
"pair the population uniformly at random, drop an odd leftover":

1. an odd population loses one uniformly chosen pair;
2. the controls are a uniformly chosen half (a multivariate
   hypergeometric draw), the targets the rest;
3. each control category draws its partners from the remaining
   targets, giving the 16x16 counts of (control, target) pairs;
4. each (control, target) cell draws its noise events from one
   multinomial;
5. the event counts go through the engine's event cell table,
   :func:`qpurify.recurrence.event_cell_table`, whose
   :data:`~qpurify.recurrence.DISCARDED` column collects the discarded
   pairs of pairs.

A round therefore costs O(16^3) whatever the population size.  Counts
are limited to fewer than :data:`MAX_PAIRS` pairs, numpy's bound for a
multivariate hypergeometric draw.

Randomness is organized as independent generator streams keyed by
(seed, purpose, round), so a fixed seed reproduces a run bit for bit.

A run is recorded as the count vector after every round
(:class:`McTrajectory`); every CSV column is derived from those counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import ProtocolHaltError
from .noise import NoiseModel
from .recurrence import (
    BEFORE_ROTATION,
    DISCARDED,
    SubensembleState,
    Trajectory,
    event_cell_table,
    flag_match_weight,
    phi_plus_weight,
)

__all__ = [
    "MAX_PAIRS",
    "Ensemble",
    "RoundStats",
    "McTrajectory",
    "init_ensemble",
    "run_round",
    "run_protocol",
]

#: Populations must stay below this size (numpy's limit for
#: ``Generator.multivariate_hypergeometric``).
MAX_PAIRS = 10**9

# Stream purposes (first spawn-key component).
_INIT = 0
_PAIRING = 1
_NOISE = 2


def _stream(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=key))


@dataclass
class Ensemble:
    """A finite population, as counts of pairs per ``flag * 4 + bell`` category."""

    counts: np.ndarray
    seed: int
    round_counter: int = 0

    def __post_init__(self):
        counts = np.array(self.counts)
        if counts.shape != (16,) or counts.dtype.kind not in "iu" or counts.min() < 0:
            raise ValueError(f"counts must be 16 nonnegative integers, got {self.counts!r}")
        self.counts = counts.astype(np.int64)

    @property
    def size(self) -> int:
        return int(self.counts.sum())


def init_ensemble(state: SubensembleState, n_pairs: int, seed: int = 0) -> Ensemble:
    """Sample ``n_pairs`` i.i.d. pairs from the (flag, bell) distribution of ``state``."""
    if not 2 <= n_pairs < MAX_PAIRS:
        raise ValueError(f"need at least 2 and fewer than {MAX_PAIRS} pairs, got {n_pairs}")
    return Ensemble(_stream(seed, _INIT).multinomial(n_pairs, state.p.ravel()), seed)


@dataclass(frozen=True)
class RoundStats:
    """What one round left behind."""

    survivors: int


def _pairing(counts: np.ndarray, gen: np.random.Generator) -> np.ndarray:
    """16x16 counts of (control, target) pairs of a uniformly random pairing.

    Distributed exactly like shuffling the population, pairing adjacent
    pairs as (control, target) and dropping an odd leftover.
    """
    if counts.sum() % 2:
        counts = counts - gen.multivariate_hypergeometric(counts, 1)
    controls = gen.multivariate_hypergeometric(counts, counts.sum() // 2)
    targets = counts - controls
    matching = np.zeros((16, 16), dtype=np.int64)
    for i in np.flatnonzero(controls):
        matching[i] = gen.multivariate_hypergeometric(targets, controls[i])
        targets -= matching[i]
    return matching


def _combine(events: np.ndarray, cells: np.ndarray) -> np.ndarray:
    """Output counts of each cell from event counts per (control, target, event).

    ``events`` holds one count per entry of the event cell table
    ``cells``, in its index order; the last of the 17 output counts is
    :data:`DISCARDED`.
    """
    totals = np.bincount(cells.ravel(), weights=events.ravel(), minlength=DISCARDED + 1)
    return totals.astype(np.int64)  # sums of integers below 2**53: exact


def run_round(
    ensemble: Ensemble, noise: NoiseModel, placement: str = BEFORE_ROTATION
) -> RoundStats:
    """Advance the population by one purification round, in place.

    Raises :class:`ProtocolHaltError` when fewer than two pairs remain.
    """
    cells = event_cell_table(placement)
    n = ensemble.size
    if n < 2:
        raise ProtocolHaltError(f"cannot pair {n} remaining pair(s)")
    round_index = ensemble.round_counter + 1

    matching = _pairing(ensemble.counts, _stream(ensemble.seed, _PAIRING, round_index))
    events = _stream(ensemble.seed, _NOISE, round_index).multinomial(
        matching.ravel(), noise.f.ravel()
    )
    ensemble.counts = _combine(events, cells)[:DISCARDED]
    ensemble.round_counter = round_index
    return RoundStats(ensemble.size)


@dataclass
class McTrajectory:
    """One run as a count matrix: a row of sixteen category counts per round.

    Row 0 is the population :func:`run_protocol` started from.  :meth:`rows`
    derives the CSV rows, laid out as :attr:`columns`: the engine's columns
    as empirical frequencies, the survivors and the standard error of F.
    """

    #: CSV columns of :meth:`rows`.
    columns: ClassVar[tuple[str, ...]] = (*Trajectory.columns, "survivors", "sample_stddev_F")

    counts: np.ndarray
    halted: bool

    @property
    def rounds(self) -> int:
        return len(self.counts) - 1

    def survivors(self) -> np.ndarray:
        return self.counts.sum(axis=1)

    def rows(self) -> list[list[float]]:
        """CSV rows; a round that leaves no pair has NaN fidelities and zero frequencies."""
        n = self.survivors()
        keep = np.ones(len(n))
        keep[1:] = n[1:] / (n[:-1] // 2)  # a recorded round started from at least 2 pairs
        joint = np.divide(
            self.counts, n[:, None], out=np.zeros(self.counts.shape), where=n[:, None] > 0
        )
        with np.errstate(invalid="ignore"):  # 0/0: an empty population has no fidelity
            f = phi_plus_weight(self.counts) / n
            f_cond = flag_match_weight(self.counts) / n
            stddev = np.sqrt(f * (1.0 - f) / n)
        table = np.column_stack([f, f_cond, keep, joint]).tolist()
        return [
            [r, *row, survivors, sd]
            for r, (row, survivors, sd) in enumerate(zip(table, n.tolist(), stddev.tolist()))
        ]


def run_protocol(
    ensemble: Ensemble,
    noise: NoiseModel,
    rounds: int,
    placement: str = BEFORE_ROTATION,
) -> McTrajectory:
    """Run up to ``rounds`` purification rounds, recording the counts after each.

    Stops early (with ``halted=True``) once the population cannot form a
    pair of pairs.
    """
    counts = [ensemble.counts]
    halted = False
    for _ in range(rounds):
        try:
            run_round(ensemble, noise, placement)
        except ProtocolHaltError:
            halted = True
            break
        counts.append(ensemble.counts)
    return McTrajectory(np.array(counts), halted)
