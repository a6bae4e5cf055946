"""Configuration parsing: rejection cases, seed overrides, round trips."""

import json
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from qpurify.config import PRESETS, ExperimentConfig, ScanSettings, load_config_file
from qpurify.errors import ConfigError
from qpurify.noise import PLACEMENTS, NoiseModel

PRODUCT = {"family": "product", "f0": 0.97}
NAN = float("nan")


def with_noise(**extra):
    return {"noise": PRODUCT, **extra}


REJECTED = [
    ([], "expected a mapping"),
    ({}, "missing required key 'noise'"),
    (with_noise(mode="engine"), "unknown key"),
    (with_noise(colour="red"), "unknown key"),
    ({"noise": {"family": "product"}}, "requires 'f0'"),
    ({"noise": {"family": "product", "f0": 1.5}}, "must be <= 1.0"),
    ({"noise": {"family": "product", "f0": True}}, "expected a number"),
    ({"noise": {"family": "uniform", "f0": 0.9}}, "unknown key"),
    ({"noise": {"family": "mystery"}}, "family"),
    ({"noise": {"family": "explicit", "f": [1.0 / 15] * 15}}, "list of 16 numbers"),
    ({"noise": {"family": "explicit", "f": [True] + [False] * 15}}, "list of 16 numbers"),
    ({"noise": {"family": "explicit", "f": ["0.0625"] * 16}}, "list of 16 numbers"),
    ({"noise": {"family": "explicit", "f": [0.1] * 16}}, "sum to"),
    (with_noise(initial={"bell_probs": [0.5, 0.5]}), "list of 4 numbers"),
    (with_noise(initial={"bell_probs": [1, False, 0, 0]}), "list of 4 numbers"),
    (with_noise(initial={"bell_probs": [0.5, 0.5, 0.5, -0.5]}), "bell_probs entries must be nonnegative"),
    (with_noise(initial={"flag_mode": "banana"}), "flag_mode"),
    (with_noise(rounds=0), "rounds: must be >= 1"),
    (with_noise(pairs=1), "pairs: must be >= 2"),
    (with_noise(seed=-1), "seed: must be >= 0"),
    (with_noise(seed=1.5), "expected an integer"),
    (with_noise(chunk_size=65536), "unknown key"),
    (with_noise(placement="after_measurement"), "placement"),
    (with_noise(fixpoint_tol=-1e-3), "fixpoint_tol"),
    (with_noise(scan={"lo": 0.9, "hi": 0.9}), "need lo < hi"),
    (with_noise(scan={"family": "explicit"}), "unknown key"),
    (with_noise(scan={"werner_grid": [0.2]}), "werner_grid"),
    (with_noise(scan={"werner_grid": [0.85, 0.95, 0.85]}), "repeated fidelity"),
    (with_noise(scan={"max_rounds": 0}), "max_rounds"),
    # json.loads accepts NaN and Infinity; none of them may reach the engine
    ({"noise": {"family": "explicit", "f": [NAN] + [0.0] * 15}, "rounds": 3}, "list of 16 numbers"),
    (with_noise(scan={"bisect_tol": NAN}), "bisect_tol: must be finite"),
    ({"noise": {"family": "product", "f0": float("inf")}}, "f0: must be finite"),
    ({"noise": {"family": "product", "f0": 10**400}}, "f0: must be finite"),
    (with_noise(initial={"bell_probs": [NAN, 0.05, 0.05, 0.05]}), "list of 4 numbers"),
    # numpy's multivariate hypergeometric draw needs fewer than 10**9 pairs
    (with_noise(pairs=10**9), "pairs: must be <= 999999999"),
    # what a document means is checked by the constructor that owns it
    ({"noise": {"family": "uniform", "f00": -0.1}}, "f00: must be >= 0.0"),
    (with_noise(initial={"bell_probs": [0.6, 0.1, 0.1, 0.1]}), "bell_probs entries sum to"),
    (with_noise(initial={"flag_mode": 3}), "flag_mode"),
    # the noise document is read once, here: its mapping, its family, its parameter's shape
    ({"noise": [1, 2, 3]}, "expected a mapping"),
    ({"noise": {"family": []}}, "must be one of"),
    ({"noise": {"family": {}}}, "must be one of"),
    ({"noise": {"family": "product", "f0": [0.9]}}, "expected a number"),
    ({"noise": {"family": "uniform", "f00": "0.9"}}, "expected a number"),
    ({"noise": {"family": "explicit", "f": {"mu": 0, "nu": 0}}}, "list of 16 numbers"),
]


@pytest.mark.parametrize("doc, message", REJECTED)
def test_rejected_documents(doc, message):
    with pytest.raises(ConfigError, match=message):
        ExperimentConfig.from_document(doc)


ACCEPTED = [
    with_noise(),
    PRESETS["fig1"],
    {
        "noise": {"family": "explicit", "f": [1, 0, 0, 0] + [0] * 12},
        "initial": {"bell_probs": [0.7, 0.1, 0.1, 0.1], "flag_mode": "random"},
        "placement": "before_bcnot",
        "scan": {"lo": 0.8, "hi": 0.95, "werner_grid": [0.9]},
    },
]


@pytest.mark.parametrize("doc", ACCEPTED)
def test_effective_round_trip(doc):
    config = ExperimentConfig.from_document(doc)
    effective = config.effective()
    assert "mode" not in effective and "chunk_size" not in effective
    again = ExperimentConfig.from_document(effective)
    assert again == config
    assert again.effective() == effective


def test_effective_pins_every_default():
    assert ExperimentConfig.from_document({"noise": PRODUCT}).effective() == {
        "noise": {"family": "product", "f0": 0.97},
        "initial": {"bell_probs": [0.85, 0.05, 0.05, 0.05], "flag_mode": "fixed"},
        "rounds": 10,
        "pairs": 1_000_000,
        "seed": 0,
        "placement": "before_rotation",
        "fixpoint_tol": 1e-12,
        "scan": {
            "lo": 0.88,
            "hi": 0.92,
            "bisect_tol": 1e-5,
            "werner_grid": [0.75, 0.85, 0.95],
            "secure_tol": 1e-6,
            "purify_margin": 1e-4,
            "max_rounds": 3000,
        },
    }


def dotted_keys(doc, prefix=""):
    """Every key path of a nested mapping, parents first, joined with dots."""
    for key, value in doc.items():
        yield prefix + key
        if isinstance(value, dict):
            yield from dotted_keys(value, f"{prefix}{key}.")


def test_readme_names_every_key():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    keys = list(dotted_keys(ExperimentConfig.from_document(with_noise()).effective()))
    assert "scan.max_rounds" in keys
    assert [key for key in keys if f"`{key}`" not in readme] == []


def test_noise_and_scan_family_carry_the_placement():
    config = ExperimentConfig.from_document(with_noise(placement="before_bcnot"))
    assert config.noise_model().placement == "before_bcnot"
    assert config.scan_family()(0.9).placement == "before_bcnot"
    assert ExperimentConfig.from_document(with_noise()).noise_model().placement == "before_rotation"


#: Each family's noise document, and its constructor given the placement.
DIRICHLET = np.random.default_rng(3).dirichlet(np.ones(16))
NOISE_DOCUMENTS = {
    "product": ({"family": "product", "f0": 0.93}, partial(NoiseModel.from_one_qubit_depolarizing, 0.93)),
    "uniform": ({"family": "uniform", "f00": 0.42}, partial(NoiseModel.from_uniform_residual, 0.42)),
    "explicit": ({"family": "explicit", "f": DIRICHLET.tolist()}, partial(NoiseModel, DIRICHLET)),
}


@pytest.mark.parametrize("placement", PLACEMENTS)
@pytest.mark.parametrize("family", NOISE_DOCUMENTS)
def test_a_stored_noise_document_builds_its_constructors_model(family, placement):
    noise, build = NOISE_DOCUMENTS[family]
    stored = json.loads(json.dumps({"noise": noise, "placement": placement}))
    model = ExperimentConfig.from_document(stored).noise_model()
    assert np.array_equal(model.f, build(placement=placement).f)
    assert model.placement == placement


@pytest.mark.parametrize("placement", PLACEMENTS)
@pytest.mark.parametrize("family, key", [("product", "f0"), ("uniform", "f00")])
def test_scan_family_builds_the_configured_model(family, key, placement):
    scanned = ExperimentConfig.from_document({"noise": {"family": family, key: 0.5}, "placement": placement})
    for x in (0.0, 0.89, 0.97, 1.0):
        configured = ExperimentConfig.from_document({"noise": {"family": family, key: x}, "placement": placement})
        model, expected = scanned.scan_family()(x), configured.noise_model()
        assert np.array_equal(model.f, expected.f)
        assert model.placement == expected.placement == placement


def test_effective_survives_json(tmp_path):
    config = ExperimentConfig.from_preset("fig1")
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config.effective()))
    assert load_config_file(path) == config


def test_load_config_file_reports_syntax_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"noise":\n  }')
    with pytest.raises(ConfigError, match=r"broken.json:2:3"):
        load_config_file(path)


@pytest.mark.parametrize(
    "content, message",
    [(b"\xff\xfe{}", "not UTF-8 text"), (b"[" * 100_000, "JSON nested too deeply")],
    ids=["not-utf8", "too-deep"],
)
def test_load_config_file_refuses_an_unreadable_file(tmp_path, content, message):
    path = tmp_path / "unreadable.json"
    path.write_bytes(content)
    with pytest.raises(ConfigError, match=rf"unreadable.json: {message}"):
        load_config_file(path)


def test_unknown_preset():
    with pytest.raises(ConfigError, match="unknown preset"):
        ExperimentConfig.from_preset("fig9")


class TestSeedOverride:
    def test_valid_seed_replaces(self):
        config = ExperimentConfig.from_preset("fig1").with_seed(12)
        assert config.seed == 12

    @pytest.mark.parametrize("seed", [-1, True, 1.0])
    def test_invalid_seed_rejected(self, seed):
        with pytest.raises(ConfigError, match="seed"):
            ExperimentConfig.from_preset("fig1").with_seed(seed)


def test_scan_settings_defaults_round_trip():
    config = ExperimentConfig.from_document(with_noise())
    assert config.scan == ScanSettings()
    assert ExperimentConfig.from_document(with_noise(scan=config.effective()["scan"])).scan == config.scan
