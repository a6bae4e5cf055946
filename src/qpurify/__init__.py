"""Recurrence entanglement purification with noisy local operations.

Simulation and analysis of the two-way purification protocol when every
local operation is itself noisy: exact Bell-label algebra, per-pair
error-flag bookkeeping, the sixteen-coefficient round recurrence with
fixpoint/threshold analysis, finite-population Monte Carlo, and a dense
density-matrix oracle that grounds every label map.

The package namespace holds only ``__version__``; every other name is
imported from the module that defines it, e.g.
``from qpurify.recurrence import iterate``.
"""

__version__ = "0.1.0"

__all__ = ["__version__"]
