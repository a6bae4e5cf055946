"""Error-flag bookkeeping: the recording rule and the combination table, as the engine applies them."""

import numpy as np
import pytest
from labels import ErrorFlag, PauliIndex

from qpurify.bell import BellLabel, event_category_permutation, event_cell_table
from qpurify.flags import FLAG_UPDATE_TABLE
from qpurify.noise import BEFORE_ROTATION, PLACEMENTS
from qpurify.oracle import derive_two_sided_shift_table

F00 = ErrorFlag.CLEAN
F01 = ErrorFlag.AMPLITUDE
F10 = ErrorFlag.PHASE
F11 = ErrorFlag.BOTH

# The normative 16-entry combination table, rows = kept control pair,
# columns = measured target pair, both running (00), (01), (10), (11).
NORMATIVE_TABLE = [
    [F00, F00, F00, F10],
    [F00, F01, F11, F00],
    [F00, F11, F01, F00],
    [F10, F00, F00, F00],
]


def engine_flag_update(control, target, placement=BEFORE_ROTATION):
    """Flag the engine gives a kept control pair when both pairs are clean Phi+ pairs.

    Read off the event cell table for the no-error event, so it checks the
    table's orientation as the round uses it.
    """
    cell = event_cell_table(placement)[control * 4, target * 4, 0]
    assert cell & 3 == BellLabel.PHI_PLUS
    return ErrorFlag(cell >> 2)


def record(flag, pauli):
    """Flag after sigma_pauli is recorded on a pair, as the engine records it.

    Read off the category permutation every round applies to the pair
    that sigma_pauli hits, whichever pair that is; the rotation moves only
    the Bell label, so both placements record the same flag.
    """
    recorded = {
        int(event_category_permutation(placement)[pauli, flag * 4]) >> 2
        for placement in PLACEMENTS
    }
    assert len(recorded) == 1
    return ErrorFlag(recorded.pop())


def test_table_is_encoded_verbatim():
    assert np.array_equal(FLAG_UPDATE_TABLE, np.array(NORMATIVE_TABLE, dtype=np.uint8))


@pytest.mark.parametrize("control", list(ErrorFlag))
@pytest.mark.parametrize("target", list(ErrorFlag))
def test_flag_update_matches_table(control, target):
    for placement in PLACEMENTS:
        assert engine_flag_update(control, target, placement) == NORMATIVE_TABLE[control][target]


@pytest.mark.parametrize(
    "control,target,expected",
    [(F00, F11, F10), (F10, F01, F11), (F11, F11, F00)],
)
def test_flag_update_examples(control, target, expected):
    assert engine_flag_update(control, target) == expected


def test_error_free_history_stays_error_free():
    assert engine_flag_update(F00, F00) == F00


class TestRecording:
    def test_x_inverts_amplitude_bit(self):
        assert record(F00, PauliIndex.X) == F01

    def test_y_inverts_both_bits(self):
        assert record(F11, PauliIndex.Y) == F00

    def test_identity_records_nothing(self):
        assert record(F01, PauliIndex.I) == F01

    def test_z_inverts_phase_bit(self):
        assert record(F00, PauliIndex.Z) == F10

    @pytest.mark.parametrize("flag", list(ErrorFlag))
    @pytest.mark.parametrize("pauli", list(PauliIndex))
    def test_self_inverse(self, flag, pauli):
        assert record(record(flag, pauli), pauli) == flag

    @pytest.mark.parametrize("flag", list(ErrorFlag))
    def test_composition_order_is_irrelevant(self, flag):
        for first in PauliIndex:
            for second in PauliIndex:
                forward = record(record(flag, first), second)
                backward = record(record(flag, second), first)
                assert forward == backward


class TestRecordTwoSided:
    """Errors on both qubits of one pair (noise in both laboratories) land on its one flag."""

    def test_same_error_both_sides_cancels(self):
        assert record(record(F00, PauliIndex.X), PauliIndex.X) == F00

    def test_one_sided_z(self):
        assert record(record(F00, PauliIndex.Z), PauliIndex.I) == F10

    def test_mixed_errors(self):
        # (0,1) ^ (1,1) ^ (1,0) = (0,0)
        assert record(record(F01, PauliIndex.Y), PauliIndex.Z) == F00

    @pytest.mark.parametrize("flag", list(ErrorFlag))
    def test_equals_two_single_records(self, flag):
        # two one-sided records follow the pair's label under dense sigma_mu x sigma_nu
        dense = derive_two_sided_shift_table()
        for mu in PauliIndex:
            for nu in PauliIndex:
                assert record(record(flag, mu), nu) == dense[flag, mu * 4 + nu]
