"""Experiment configuration: parsing, defaults, presets.

Configuration documents are JSON mappings.  Each key is declared once, as
a dataclass field holding its default and its parser; the allowed keys and
the echo :meth:`ExperimentConfig.effective`, which makes every default
explicit and is embedded in all output files, are derived from the fields.
This module checks the shape of outside JSON (mappings, unknown and missing
keys, finite non-boolean numbers, list lengths, ranges of plain settings).
What a value means is checked by the constructor that owns it:
:class:`~qpurify.noise.NoiseModel` for the noise and
:meth:`~qpurify.recurrence.SubensembleState.from_bell_probs` for the
initial state.

The noise takes one of three forms, ``{"family": "product", "f0": x}``,
``{"family": "uniform", "f00": x}`` and ``{"family": "explicit", "f":
[16 numbers]}``; ``_NOISE_FAMILIES`` names each family's parameter key,
the parser of its shape and its constructor, and is the only place the
families are told apart.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field
from functools import cached_property, partial
from pathlib import Path
from typing import Callable

from .errors import ConfigError
from .montecarlo import MAX_PAIRS
from .noise import BEFORE_ROTATION, PLACEMENTS, NoiseModel
from .recurrence import SubensembleState

__all__ = ["ScanSettings", "InitialSettings", "ExperimentConfig", "PRESETS", "load_config_file"]

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


def _reject_unknown(doc: dict, allowed, path: str) -> None:
    unknown = sorted(set(doc) - set(allowed))
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


def _check_range(value, path: str, lo, hi) -> None:
    if lo is not None and value < lo:
        raise ConfigError(f"{path}: must be >= {lo}, got {value}")
    if hi is not None and value > hi:
        raise ConfigError(f"{path}: must be <= {hi}, got {value}")


def _number(value, path: str, lo=None, hi=None) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {value!r}")
    if not _is_finite_number(value):
        raise ConfigError(f"{path}: must be finite, got {value!r}")
    value = float(value)
    _check_range(value, path, lo, hi)
    return value


def _integer(value, path: str, lo=None, hi=None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path}: expected an integer, got {value!r}")
    _check_range(value, path, lo, hi)
    return value


def _number_list(value, path: str, length: int) -> tuple[float, ...]:
    if not isinstance(value, list) or len(value) != length or not all(
        _is_finite_number(x) for x in value
    ):
        raise ConfigError(f"{path}: expected a list of {length} numbers, got {value!r}")
    return tuple(float(x) for x in value)


def _choice(value, path: str, choices: tuple) -> str:
    if value not in choices:
        raise ConfigError(f"{path}: must be one of {choices}, got {value!r}")
    return value


#: The noise families: name -> (parameter key, parser, constructor).  Each
#: constructor takes the parameter and a placement; ``explicit``'s
#: parameter is the 16-entry table, the others' one probability.
_NOISE_FAMILIES: dict[str, tuple[str, Callable, Callable]] = {
    "product": ("f0", _number, NoiseModel.from_one_qubit_depolarizing),
    "uniform": ("f00", _number, NoiseModel.from_uniform_residual),
    "explicit": ("f", partial(_number_list, length=16), NoiseModel),
}

#: Families a scan can bisect: those with one probability as parameter.
_SCAN_FAMILIES = tuple(name for name, (_, parse, _) in _NOISE_FAMILIES.items() if parse is _number)


def _as_is(value, path: str):
    return value


def _key(default, parse: Callable, **bounds):
    """A configuration key: its default and its parser, ``parse(value, path, **bounds)``."""
    return field(default=default, metadata={"parse": partial(parse, **bounds)})


def _settings(doc, path: str, cls):
    """Build ``cls`` from a mapping with one key per field; absent keys take their default.

    The constructor checks what the values mean; its ValueError becomes a ConfigError.
    """
    doc = _require_mapping(doc, path)
    fields = dataclasses.fields(cls)
    _reject_unknown(doc, (f.name for f in fields), path)
    values = {}
    for f in fields:
        if f.name in doc:
            values[f.name] = f.metadata["parse"](doc[f.name], f"{path}.{f.name}")
        elif f.default is dataclasses.MISSING:
            raise ConfigError(f"{path}: missing required key {f.name!r}")
    try:
        return cls(**values)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _plain(value):
    """A parsed value as JSON data: settings objects as mappings, tuples as lists."""
    if isinstance(value, (str, int, float)):
        return value
    if isinstance(value, tuple):
        return list(value)
    if isinstance(value, dict):
        return dict(value)
    return {name: _plain(getattr(value, name)) for name in value.__dataclass_fields__}


def _noise(doc, path: str) -> dict:
    """A noise document, checked once: its shape here, its meaning by the family's constructor."""
    doc = _require_mapping(doc, path)
    # a tuple compares by ==: an unhashable family is refused, not a TypeError
    family = _choice(doc.get("family"), f"{path}.family", tuple(_NOISE_FAMILIES))
    key, parse, build = _NOISE_FAMILIES[family]
    _reject_unknown(doc, ("family", key), path)
    if key not in doc:
        raise ConfigError(f"{path}: {family} family requires {key!r}")
    parse(doc[key], f"{path}.{key}")
    try:
        build(doc[key])
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    return dict(doc)


def _werner_grid(grid, path: str) -> tuple[float, ...]:
    if not isinstance(grid, list) or not all(_is_finite_number(x) and 0.25 < x <= 1.0 for x in grid):
        raise ConfigError(f"{path}: expected a list of fidelities in (0.25, 1]")
    if len(set(grid)) != len(grid):
        raise ConfigError(f"{path}: repeated fidelity in {grid}")
    return tuple(float(x) for x in grid)


@dataclass(frozen=True)
class InitialSettings:
    """The input ensemble: Bell-label probabilities and how flags start."""

    bell_probs: tuple[float, ...] = _key((0.85, 0.05, 0.05, 0.05), _number_list, length=4)
    flag_mode: str = _key("fixed", _as_is)

    def __post_init__(self):
        self.state  # building the state checks the distribution and the flag mode

    @cached_property
    def state(self) -> SubensembleState:
        return SubensembleState.from_bell_probs(self.bell_probs, flag_mode=self.flag_mode)


@dataclass(frozen=True)
class ScanSettings:
    """Threshold-scan settings.

    A scan bisects the parameter of the configured ``noise.family`` over
    ``[lo, hi]``.  Every setting but ``werner_grid`` is the
    :func:`~qpurify.recurrence.find_thresholds` parameter of that name,
    with the same default; ``secure_tol``, ``purify_margin`` and
    ``max_rounds`` are also :func:`~qpurify.recurrence.classify_regime`
    parameters, with the same defaults.
    """

    lo: float = _key(0.88, _number, lo=0.0, hi=1.0)
    hi: float = _key(0.92, _number, lo=0.0, hi=1.0)
    bisect_tol: float = _key(1e-5, _number, lo=1e-12, hi=0.1)
    werner_grid: tuple[float, ...] = _key((0.75, 0.85, 0.95), _werner_grid)
    secure_tol: float = _key(1e-6, _number, lo=0.0, hi=1.0)
    purify_margin: float = _key(1e-4, _number, lo=0.0, hi=0.5)
    max_rounds: int = _key(3000, _integer, lo=1)

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError(f"need lo < hi, got [{self.lo}, {self.hi}]")

    def as_dict(self) -> dict:
        return _plain(self)


@dataclass(frozen=True)
class ExperimentConfig:
    noise: dict = field(metadata={"parse": _noise})
    initial: InitialSettings = _key(InitialSettings(), _settings, cls=InitialSettings)
    rounds: int = _key(10, _integer, lo=1)
    pairs: int = _key(1_000_000, _integer, lo=2, hi=MAX_PAIRS - 1)
    seed: int = _key(0, _integer, lo=0)
    placement: str = _key(BEFORE_ROTATION, _choice, choices=PLACEMENTS)
    fixpoint_tol: float = _key(1e-12, _number, lo=0.0, hi=1.0)
    scan: ScanSettings = _key(ScanSettings(), _settings, cls=ScanSettings)

    @classmethod
    def from_document(cls, doc, source: str = "config") -> "ExperimentConfig":
        return _settings(doc, source, cls)

    @classmethod
    def from_preset(cls, name: str) -> "ExperimentConfig":
        if name not in PRESETS:
            raise ConfigError(f"unknown preset {name!r}; available: {sorted(PRESETS)}")
        return cls.from_document(PRESETS[name], source=f"preset {name}")

    def with_seed(self, seed: int) -> "ExperimentConfig":
        """Copy with the seed replaced, validated like the ``seed`` key."""
        parse = self.__dataclass_fields__["seed"].metadata["parse"]
        return dataclasses.replace(self, seed=parse(seed, "override.seed"))

    def noise_model(self) -> NoiseModel:
        """The configured noise, acting at the configured placement."""
        key, _, build = _NOISE_FAMILIES[self.noise["family"]]
        return build(self.noise[key], self.placement)

    def scan_family(self) -> Callable[[float], NoiseModel]:
        """The constructor of ``noise.family`` with the placement bound; a scan bisects its parameter."""
        family = self.noise["family"]
        if family not in _SCAN_FAMILIES:
            raise ConfigError(f"noise.family: a scan needs one of {_SCAN_FAMILIES}, got {family!r}")
        return partial(_NOISE_FAMILIES[family][2], placement=self.placement)

    def effective(self) -> dict:
        """Full configuration with every default made explicit."""
        return _plain(self)


def load_config_file(path: str | Path) -> ExperimentConfig:
    """Parse and validate a JSON configuration file, read as UTF-8 like all JSON.

    JSON syntax errors are reported with their line and column.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"{path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text (byte {exc.start}: {exc.reason})") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    except RecursionError as exc:
        raise ConfigError(f"{path}: JSON nested too deeply") from exc
    return ExperimentConfig.from_document(doc, source=str(path))
