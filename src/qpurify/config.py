"""Experiment configuration: parsing, validation, defaults, presets.

Configuration documents are JSON mappings.  Unknown keys are rejected,
every default is made explicit by :meth:`ExperimentConfig.effective`,
and that effective form is embedded in all output files so a run is
reproducible from its own metadata.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from .errors import ConfigError
from .montecarlo import MAX_PAIRS
from .noise import NoiseModel
from .recurrence import PLACEMENTS, SubensembleState

__all__ = ["ScanSettings", "ExperimentConfig", "PRESETS", "load_config_file"]

_FLAG_MODES = ("fixed", "random")
_SCAN_FAMILIES: dict[str, Callable[[float], NoiseModel]] = {
    "product": NoiseModel.from_one_qubit_depolarizing,
    "uniform": NoiseModel.from_uniform_residual,
}

#: Named configurations.  ``fig1`` pins the white-noise trajectory setup:
#: uniform-residual noise at 97% noise fidelity, Werner 0.85 input with
#: fixed flags, seed 1, ten rounds, and a 1e7-pair population.
PRESETS: dict[str, dict] = {
    "fig1": {
        "noise": {"family": "uniform", "f00": 0.97},
        "initial": {"bell_probs": [0.85, 0.05, 0.05, 0.05], "flag_mode": "fixed"},
        "rounds": 10,
        "pairs": 10_000_000,
        "seed": 1,
    },
}


def _require_mapping(doc, path: str) -> dict:
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: expected a mapping, got {type(doc).__name__}")
    return doc


def _reject_unknown(doc: dict, allowed: set[str], path: str) -> None:
    unknown = sorted(set(doc) - allowed)
    if unknown:
        raise ConfigError(f"{path}: unknown key(s) {', '.join(map(repr, unknown))}")


def _is_finite_number(value) -> bool:
    """True for an int or float (not a bool) whose float value is finite."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int too large for a float
        return False


def _get_number(doc: dict, key: str, path: str, default, lo=None, hi=None) -> float:
    value = doc.get(key, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}.{key}: expected a number, got {value!r}")
    if not _is_finite_number(value):
        raise ConfigError(f"{path}.{key}: must be finite, got {value!r}")
    value = float(value)
    if lo is not None and value < lo:
        raise ConfigError(f"{path}.{key}: must be >= {lo}, got {value}")
    if hi is not None and value > hi:
        raise ConfigError(f"{path}.{key}: must be <= {hi}, got {value}")
    return value


def _get_int(doc: dict, key: str, path: str, default, lo=None, hi=None) -> int:
    value = doc.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path}.{key}: expected an integer, got {value!r}")
    if lo is not None and value < lo:
        raise ConfigError(f"{path}.{key}: must be >= {lo}, got {value}")
    if hi is not None and value > hi:
        raise ConfigError(f"{path}.{key}: must be <= {hi}, got {value}")
    return value


def _get_number_list(doc: dict, key: str, path: str, default, length: int) -> list[float]:
    value = doc.get(key, default)
    if not isinstance(value, list) or len(value) != length or not all(
        _is_finite_number(x) for x in value
    ):
        raise ConfigError(f"{path}.{key}: expected a list of {length} numbers, got {value!r}")
    return [float(x) for x in value]


def _get_choice(doc: dict, key: str, path: str, default, choices) -> str:
    value = doc.get(key, default)
    if value not in choices:
        raise ConfigError(f"{path}.{key}: must be one of {choices}, got {value!r}")
    return value


def _validate_noise(doc, path: str) -> dict:
    doc = _require_mapping(doc, path)
    family = doc.get("family")
    if family == "product":
        _reject_unknown(doc, {"family", "f0"}, path)
        if "f0" not in doc:
            raise ConfigError(f"{path}: product family requires 'f0'")
        _get_number(doc, "f0", path, None, 0.0, 1.0)
    elif family == "uniform":
        _reject_unknown(doc, {"family", "f00"}, path)
        if "f00" not in doc:
            raise ConfigError(f"{path}: uniform family requires 'f00'")
        _get_number(doc, "f00", path, None, 0.0, 1.0)
    elif family == "explicit":
        _reject_unknown(doc, {"family", "f"}, path)
        _get_number_list(doc, "f", path, None, 16)
    else:
        raise ConfigError(
            f"{path}.family: must be one of ('product', 'uniform', 'explicit'), got {family!r}"
        )
    try:
        NoiseModel.from_config(doc)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    return dict(doc)


def _validate_initial(doc, path: str) -> dict:
    doc = _require_mapping(doc, path)
    _reject_unknown(doc, {"bell_probs", "flag_mode"}, path)
    probs = _get_number_list(doc, "bell_probs", path, [0.85, 0.05, 0.05, 0.05], 4)
    if any(x < 0 for x in probs) or abs(sum(probs) - 1.0) > 1e-9:
        raise ConfigError(f"{path}.bell_probs: not a probability distribution: {probs}")
    flag_mode = _get_choice(doc, "flag_mode", path, "fixed", _FLAG_MODES)
    return {"bell_probs": probs, "flag_mode": flag_mode}


@dataclass(frozen=True)
class ScanSettings:
    family: str = "product"
    lo: float = 0.88
    hi: float = 0.92
    bisect_tol: float = 1e-5
    werner_grid: tuple[float, ...] = (0.75, 0.85, 0.95)
    secure_tol: float = 1e-6
    purify_margin: float = 1e-4
    max_rounds: int = 3000

    @classmethod
    def from_document(cls, doc, path: str = "scan") -> "ScanSettings":
        doc = _require_mapping(doc, path)
        _reject_unknown(
            doc,
            {"family", "lo", "hi", "bisect_tol", "werner_grid", "secure_tol",
             "purify_margin", "max_rounds"},
            path,
        )
        family = _get_choice(doc, "family", path, "product", tuple(_SCAN_FAMILIES))
        lo = _get_number(doc, "lo", path, 0.88, 0.0, 1.0)
        hi = _get_number(doc, "hi", path, 0.92, 0.0, 1.0)
        if not lo < hi:
            raise ConfigError(f"{path}: need lo < hi, got [{lo}, {hi}]")
        grid = doc.get("werner_grid", [0.75, 0.85, 0.95])
        if not isinstance(grid, list) or any(
            isinstance(x, bool) or not isinstance(x, (int, float)) or not 0.25 < x <= 1.0
            for x in grid
        ):
            raise ConfigError(f"{path}.werner_grid: expected a list of fidelities in (0.25, 1]")
        if len(set(grid)) != len(grid):
            raise ConfigError(f"{path}.werner_grid: repeated fidelity in {grid}")
        return cls(
            family=family,
            lo=lo,
            hi=hi,
            bisect_tol=_get_number(doc, "bisect_tol", path, 1e-5, 1e-12, 0.1),
            werner_grid=tuple(float(x) for x in grid),
            secure_tol=_get_number(doc, "secure_tol", path, 1e-6, 0.0, 1.0),
            purify_margin=_get_number(doc, "purify_margin", path, 1e-4, 0.0, 0.5),
            max_rounds=_get_int(doc, "max_rounds", path, 3000, 1),
        )

    def family_constructor(self) -> Callable[[float], NoiseModel]:
        return _SCAN_FAMILIES[self.family]

    def as_dict(self) -> dict:
        return {
            "family": self.family,
            "lo": self.lo,
            "hi": self.hi,
            "bisect_tol": self.bisect_tol,
            "werner_grid": list(self.werner_grid),
            "secure_tol": self.secure_tol,
            "purify_margin": self.purify_margin,
            "max_rounds": self.max_rounds,
        }


@dataclass(frozen=True)
class ExperimentConfig:
    noise: dict
    initial: dict = field(default_factory=lambda: {"bell_probs": [0.85, 0.05, 0.05, 0.05], "flag_mode": "fixed"})
    rounds: int = 10
    pairs: int = 1_000_000
    seed: int = 0
    placement: str = "before_rotation"
    fixpoint_tol: float = 1e-12
    scan: ScanSettings = field(default_factory=ScanSettings)

    @classmethod
    def from_document(cls, doc, source: str = "config") -> "ExperimentConfig":
        doc = _require_mapping(doc, source)
        _reject_unknown(
            doc,
            {"noise", "initial", "rounds", "pairs", "seed", "placement", "fixpoint_tol", "scan"},
            source,
        )
        if "noise" not in doc:
            raise ConfigError(f"{source}: missing required key 'noise'")
        return cls(
            noise=_validate_noise(doc["noise"], f"{source}.noise"),
            initial=_validate_initial(
                doc.get("initial", {"bell_probs": [0.85, 0.05, 0.05, 0.05]}),
                f"{source}.initial",
            ),
            rounds=_get_int(doc, "rounds", source, 10, 1),
            pairs=_get_int(doc, "pairs", source, 1_000_000, 2, MAX_PAIRS - 1),
            seed=_get_int(doc, "seed", source, 0, 0),
            placement=_get_choice(doc, "placement", source, "before_rotation", PLACEMENTS),
            fixpoint_tol=_get_number(doc, "fixpoint_tol", source, 1e-12, 0.0, 1.0),
            scan=ScanSettings.from_document(doc.get("scan", {}), f"{source}.scan"),
        )

    @classmethod
    def from_preset(cls, name: str) -> "ExperimentConfig":
        if name not in PRESETS:
            raise ConfigError(f"unknown preset {name!r}; available: {sorted(PRESETS)}")
        return cls.from_document(PRESETS[name], source=f"preset {name}")

    def with_seed(self, seed: int) -> "ExperimentConfig":
        """Copy with the seed replaced, validated like the ``seed`` key."""
        return dataclasses.replace(self, seed=_get_int({"seed": seed}, "seed", "override", None, 0))

    def noise_model(self) -> NoiseModel:
        return NoiseModel.from_config(self.noise)

    def engine_initial_state(self) -> SubensembleState:
        return SubensembleState.from_bell_probs(
            self.initial["bell_probs"], flag_mode=self.initial["flag_mode"]
        )

    def effective(self) -> dict:
        """Full configuration with every default made explicit."""
        return {
            "noise": dict(self.noise),
            "initial": dict(self.initial),
            "rounds": self.rounds,
            "pairs": self.pairs,
            "seed": self.seed,
            "placement": self.placement,
            "fixpoint_tol": self.fixpoint_tol,
            "scan": self.scan.as_dict(),
        }


def load_config_file(path: str | Path) -> ExperimentConfig:
    """Parse and validate a JSON configuration file.

    JSON syntax errors are reported with their line and column.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"{path}: {exc.strerror or exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    return ExperimentConfig.from_document(doc, source=str(path))
