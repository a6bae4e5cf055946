"""Per-pair classical error-flag bookkeeping.

Noisy local operations are modeled as sampled two-sided Pauli rotations.
A bookkeeping layer in the laboratory records, for each pair, two
classical bits: the error phase bit and the error amplitude bit.  A
sigma_x record inverts the amplitude bit, sigma_z the phase bit, sigma_y
both; recording is an XOR group action, so the order of errors never
matters.  The recording happens inside
:func:`qpurify.bell.event_category_permutation`, which XORs the label
shift of sigma_p (:data:`qpurify.bell.PAULI_LABEL_SHIFT`) into the flag
of the pair it hits, exactly as into that pair's Bell label.

When a control pair is kept after a purification step, its flag is
combined with the measured target pair's flag through a fixed 16-entry
table (``FLAG_UPDATE_TABLE``).  The table is normative here; a
derivation cross-check from the label algebra lives in
:func:`qpurify.oracle.derive_flag_update_table`, and the decisive
end-to-end property (flags become perfectly correlated with the Bell
labels in the low-noise regime, i.e. conditional fidelity -> 1) is
exercised by the recurrence and Monte Carlo suites.
"""

from __future__ import annotations

import numpy as np

__all__ = ["FLAG_UPDATE_TABLE"]


#: Updated flag of a kept control pair, indexed [control flag, target flag].
#: Rows and columns run over (00), (01), (10), (11) in packed order.
FLAG_UPDATE_TABLE = np.array(
    [
        [0b00, 0b00, 0b00, 0b10],
        [0b00, 0b01, 0b11, 0b00],
        [0b00, 0b11, 0b01, 0b00],
        [0b10, 0b00, 0b00, 0b00],
    ],
    dtype=np.uint8,
)
