"""Noise-channel construction, validation and configuration documents."""

import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qpurify.noise import NoiseModel


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

    @pytest.mark.parametrize("bad", [-0.01, 1.01, 2.0])
    def test_out_of_range(self, bad):
        with pytest.raises(ValueError):
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

    @pytest.mark.parametrize("bad", [-0.5, 1.5])
    def test_out_of_range(self, bad):
        with pytest.raises(ValueError):
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


def from_stored_document(doc):
    """The model of a literal noise document after a trip through JSON, as a config file stores it."""
    return NoiseModel.from_config(json.loads(json.dumps(doc)))


class TestSerialization:
    def test_product_round_trip(self):
        model = from_stored_document({"family": "product", "f0": 0.93})
        assert np.array_equal(model.f, NoiseModel.from_one_qubit_depolarizing(0.93).f)

    def test_uniform_round_trip(self):
        model = from_stored_document({"family": "uniform", "f00": 0.42})
        assert np.array_equal(model.f, NoiseModel.from_uniform_residual(0.42).f)

    def test_explicit_round_trip(self):
        f = np.random.default_rng(3).dirichlet(np.ones(16))
        model = from_stored_document({"family": "explicit", "f": f.tolist()})
        assert np.array_equal(model.f, NoiseModel(f).f)

    def test_rejects_missing_parameter(self):
        with pytest.raises(ValueError, match="product family requires 'f0'"):
            NoiseModel.from_config({"family": "product"})

    @pytest.mark.parametrize(
        "doc",
        [
            {"family": "product", "f0": [0.9]},
            {"family": "uniform", "f00": "0.9"},
            {"family": "explicit", "f": {"mu": 0, "nu": 0}},
        ],
        ids=["list", "string", "mapping"],
    )
    def test_rejects_non_number_parameter(self, doc):
        with pytest.raises(ValueError, match="number"):
            NoiseModel.from_config(doc)

    def test_rejects_unknown_family(self):
        with pytest.raises(ValueError, match="unknown noise family"):
            NoiseModel.from_config({"family": "amplitude_damping", "gamma": 0.1})

    def test_rejects_non_mapping(self):
        with pytest.raises(ValueError, match="mapping"):
            NoiseModel.from_config([1, 2, 3])
