"""Noise-channel construction and validation."""

from functools import partial

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qpurify.noise import BEFORE_BCNOT, BEFORE_ROTATION, NoiseModel
from qpurify.recurrence import SubensembleState

#: A parameter no float can hold: refused with ValueError, not OverflowError.
TOO_LARGE = pytest.param(10**400, id="int-too-large-for-a-float")


class TestProductFamily:
    def test_noiseless(self):
        model = NoiseModel.from_one_qubit_depolarizing(1.0)
        assert model.f[0, 0] == 1.0
        assert model.f.sum() == 1.0

    def test_f0_097_entries(self):
        model = NoiseModel.from_one_qubit_depolarizing(0.97)
        assert model.f[0, 0] == pytest.approx(0.9409, abs=1e-15)
        for j in range(1, 4):
            assert model.f[0, j] == pytest.approx(0.0097, abs=1e-15)
            assert model.f[j, 0] == pytest.approx(0.0097, abs=1e-15)
            for k in range(1, 4):
                assert model.f[j, k] == pytest.approx(0.0001, abs=1e-15)

    def test_boundary_f0_zero(self):
        model = NoiseModel.from_one_qubit_depolarizing(0.0)
        assert model.f[0, 0] == 0.0
        for j in range(1, 4):
            for k in range(1, 4):
                assert model.f[j, k] == pytest.approx(1.0 / 9.0, abs=1e-15)

    @pytest.mark.parametrize("bad", [-0.01, 1.01, 2.0, TOO_LARGE])
    def test_out_of_range(self, bad):
        with pytest.raises(ValueError, match="f0"):
            NoiseModel.from_one_qubit_depolarizing(bad)


class TestUniformFamily:
    def test_noiseless(self):
        model = NoiseModel.from_uniform_residual(1.0)
        assert model.f[0, 0] == 1.0

    def test_f00_097(self):
        model = NoiseModel.from_uniform_residual(0.97)
        residual = model.f.ravel()[1:]
        assert np.allclose(residual, 0.002, atol=1e-15)

    def test_maximal_noise_is_uniform(self):
        model = NoiseModel.from_uniform_residual(1.0 / 16.0)
        assert np.allclose(model.f, 1.0 / 16.0, atol=1e-15)

    @pytest.mark.parametrize("bad", [-0.5, 1.5, TOO_LARGE])
    def test_out_of_range(self, bad):
        with pytest.raises(ValueError, match="f00"):
            NoiseModel.from_uniform_residual(bad)


@given(st.floats(0.0, 1.0))
def test_both_constructors_always_yield_distributions(parameter):
    for model in (
        NoiseModel.from_one_qubit_depolarizing(parameter),
        NoiseModel.from_uniform_residual(parameter),
    ):
        assert model.f.min() >= 0.0
        assert abs(model.f.sum() - 1.0) <= 1e-12


class TestValidation:
    def test_rejects_negative(self):
        f = np.full(16, 1.0 / 16.0)
        f[3] = -0.01
        f[4] += 0.01
        with pytest.raises(ValueError, match="nonnegative"):
            NoiseModel(f)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="sum"):
            NoiseModel(np.full(16, 0.1))

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError, match="16 entries"):
            NoiseModel(np.full(8, 0.125))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite(self, bad):
        f = np.zeros(16)
        f[0] = bad
        with pytest.raises(ValueError):
            NoiseModel(f)

    def test_rejects_an_int_too_large_for_a_float(self):
        # a Python list: a float array cannot hold the int
        with pytest.raises(ValueError, match="noise table"):
            NoiseModel([10**400] + [0] * 15)

    @pytest.mark.parametrize(
        "table",
        [["1"] + ["0"] * 15, [True] + [False] * 15, np.array([True] + [False] * 15),
         [1.0] + [0.0] * 14 + [False]],
        ids=["strings", "bools", "bool-array", "one-bool"],
    )
    def test_rejects_strings_and_bools(self, table):
        # each would convert to a valid table of floats
        assert np.array(table, dtype=float).sum() == 1.0
        with pytest.raises(ValueError, match="noise table must hold numbers"):
            NoiseModel(table)

    def test_accepts_integers_and_numpy_scalars(self):
        table = [np.int64(1)] + [0] * 14 + [np.float64(0.0)]
        assert NoiseModel(table).f[0, 0] == 1.0


#: Each kind of probability table, built from its first two entries padded with
#: zeros, and read back as its stored row.
TABLE_BUILDERS = {
    "noise": lambda head: NoiseModel(head + [0.0] * 14).f.ravel(),
    "state": lambda head: SubensembleState(head + [0.0] * 14).p.ravel(),
    "bell_probs": lambda head: SubensembleState.from_bell_probs(head + [0.0] * 2).p[0],
}


@pytest.mark.parametrize("build", TABLE_BUILDERS.values(), ids=TABLE_BUILDERS)
class TestSharedTableCheck:
    """Noise tables, states and Bell tables pass one check, with one tolerance."""

    def test_an_entry_just_below_zero_is_stored_as_zero(self, build):
        table = build([1.0 + 1e-13, -1e-13])
        assert table[1] == 0.0 and not np.signbit(table[1])
        assert not table.flags.writeable

    def test_an_entry_below_the_tolerance_is_rejected(self, build):
        with pytest.raises(ValueError, match="nonnegative"):
            build([1.0 + 1e-11, -1e-11])

    def test_a_sum_off_by_more_than_the_tolerance_is_rejected(self, build):
        with pytest.raises(ValueError, match="sum to"):
            build([1.0 + 1e-10, 0.0])


#: Every way to build a noise model, given its placement.
CONSTRUCTORS = {
    "table": partial(NoiseModel, [1.0] + [0.0] * 15),
    "product": partial(NoiseModel.from_one_qubit_depolarizing, 0.97),
    "uniform": partial(NoiseModel.from_uniform_residual, 0.97),
}


@pytest.mark.parametrize("build", CONSTRUCTORS.values(), ids=CONSTRUCTORS)
class TestPlacement:
    def test_defaults_to_before_rotation(self, build):
        assert build().placement == BEFORE_ROTATION

    def test_is_carried_by_the_model(self, build):
        assert build(placement=BEFORE_BCNOT).placement == BEFORE_BCNOT
