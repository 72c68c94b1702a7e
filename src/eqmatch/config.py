"""Run configuration: one JSON-serializable object per training run.

`to_dict`/`from_dict` are the one JSON codec of every config dataclass. A
field's JSON key is its name unless its `key` metadata renames it, and
tuples are written as lists. A missing or null key takes the field's
default, and a missing, null or `{}` section the section's default;
`schedule` needs `kind`. Numbers are converted to the annotated int or
float (an int field takes only an integral number, a float field only a
finite one, and neither takes a boolean), a bool field takes only a JSON
boolean, and a key that names no field is an error. Malformed input raises
ValidationError naming the key path; a dataset's values are checked by
building its distribution. The dict round-trips exactly and is embedded
verbatim in checkpoints, so a checkpoint is self-describing.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from pathlib import Path
from types import UnionType
from typing import get_args, get_origin, get_type_hints

import numpy as np

from .data import KINDS as TOY_KINDS, ToyDistribution, fixed_memorization_set
from .model import ModelConfig
from .objective import ObjectiveError, check_pairing
from .sampler import SamplerConfig
from .schedule import Schedule

DATASET_KINDS = (*TOY_KINDS, "memorization")
LABELED_KINDS = ("gaussian-mixture", "two-moons")


class ValidationError(ValueError):
    """A config field or field combination is invalid."""


def _require_non_negative(key: str, value) -> None:
    if not value >= 0:
        raise ValidationError(f"{key}: {value} must be >= 0")


@dataclass
class DatasetSpec:
    """Training data source: a toy distribution sampled as an endless stream,
    or the fixed memorization set used by the overfitting checks."""

    kind: str = "gaussian-mixture"
    modes: list | None = None
    mode_std: float | list | None = None
    weights: list | None = None
    box: list | None = None
    noise_scale: float | None = None
    k: int = 8
    data_seed: int = 0

    def __post_init__(self):
        if self.kind not in DATASET_KINDS:
            raise ValidationError(f"dataset.kind '{self.kind}' not one of {DATASET_KINDS}")
        if not 1 <= self.k <= 12:
            raise ValidationError(f"dataset.k: {self.k} is outside 1..12")
        _require_non_negative("dataset.data_seed", self.data_seed)
        if self.kind != "memorization":
            self.distribution()  # a malformed value fails while the config is read

    @property
    def labeled(self) -> bool:
        return self.kind in LABELED_KINDS

    def distribution(self) -> ToyDistribution:
        if self.kind == "memorization":
            raise ValidationError("memorization datasets have no distribution")
        kw = {"kind": self.kind}
        if self.modes is not None:
            kw["modes"] = np.asarray(self.modes)
        if self.mode_std is not None:
            kw["mode_std"] = self.mode_std
        if self.weights is not None:
            kw["weights"] = np.asarray(self.weights)
        if self.box is not None:
            kw["box"] = tuple(self.box)
        if self.noise_scale is not None:
            kw["noise_scale"] = self.noise_scale
        try:
            return ToyDistribution(**kw)
        except ValueError as e:
            raise ValidationError(f"dataset: {e}") from e

    def memorization_points(self) -> np.ndarray:
        return fixed_memorization_set(self.k, self.data_seed)


@dataclass
class OptimizerSettings:
    lr: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    weight_decay: float = 0.0
    epsilon: float = 1e-8

    def __post_init__(self):
        _require_non_negative("optimizer.lr", self.lr)
        for name in ("beta1", "beta2"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ValidationError(f"optimizer.{name}: {getattr(self, name)} "
                                      "is outside [0, 1)")
        if not self.epsilon > 0.0:
            raise ValidationError(f"optimizer.epsilon: {self.epsilon} must be > 0")
        _require_non_negative("optimizer.weight_decay", self.weight_decay)


@dataclass
class TrainSettings:
    steps: int = 20_000
    batch_size: int = 64
    log_every: int = 100
    checkpoint_every: int = 0  # 0 disables periodic checkpoints

    def __post_init__(self):
        if self.steps < 1 or self.batch_size < 1:
            raise ValidationError("train.steps and train.batch_size must be >= 1")
        _require_non_negative("train.log_every", self.log_every)
        _require_non_negative("train.checkpoint_every", self.checkpoint_every)


@dataclass
class RunConfig:
    seed: int = 0
    objective: str = "eqm"
    allow_non_equilibrium: bool = False
    dataset: DatasetSpec = field(default_factory=DatasetSpec)
    model: ModelConfig = field(default_factory=ModelConfig)
    schedule: Schedule = field(default_factory=lambda: Schedule(kind="truncated", a=0.8, lam=4.0))
    optimizer: OptimizerSettings = field(default_factory=OptimizerSettings)
    train: TrainSettings = field(default_factory=TrainSettings)
    sampler: SamplerConfig = field(default_factory=SamplerConfig)
    out_dir: str | None = None

    def validate(self) -> None:
        _require_non_negative("seed", self.seed)
        _require_non_negative("model.init_seed", self.model.init_seed)
        try:
            check_pairing(self.objective, self.model)
        except ObjectiveError as e:
            raise ValidationError(str(e)) from e
        m = self.model
        if m.num_classes > 0 and not self.dataset.labeled:
            raise ValidationError(f"model.num_classes={m.num_classes} but dataset "
                                  f"'{self.dataset.kind}' provides no labels")

    def to_dict(self) -> dict:
        return to_dict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        cfg = from_dict(cls, d)
        cfg.validate()
        return cfg


# ---------------------------------------------------------------------------
# JSON codec


# get_type_hints evaluates the string annotations anew on every call, which
# took about three quarters of a config load
_type_hints = functools.cache(get_type_hints)


def _json_key(f) -> str:
    return f.metadata.get("key", f.name)


def to_dict(obj) -> dict:
    """The JSON form of a config dataclass (nested sections included)."""
    out = {}
    for f in fields(obj):
        value = getattr(obj, f.name)
        if is_dataclass(value):
            value = to_dict(value)
        elif isinstance(value, tuple):
            value = list(value)
        out[_json_key(f)] = value
    return out


def from_dict(cls, d, path: str = ""):
    """Build the config dataclass `cls` from its JSON form; `path` is the key
    path of `d` in the run config, used in error messages."""
    if not isinstance(d, dict):
        raise ValidationError(f"{path or 'run config'}: expected an object, "
                              f"got {type(d).__name__}")
    hints = _type_hints(cls)
    known = {_json_key(f) for f in fields(cls)}
    unknown = sorted(k for k in d if k not in known)
    if unknown:
        key = f"{path}.{unknown[0]}" if path else unknown[0]
        raise ValidationError(f"{key}: unknown key; the keys of "
                              f"{path or 'run config'} are {', '.join(sorted(known))}")
    kwargs = {}
    for f in fields(cls):
        name = _json_key(f)
        key = f"{path}.{name}" if path else name
        value = d.get(name)
        if value is None or (value == {} and is_dataclass(hints[f.name])):
            if f.default is MISSING and f.default_factory is MISSING:
                raise ValidationError(f"{key} is required")
            continue
        kwargs[f.name] = _coerce(hints[f.name], value, key)
    try:
        return cls(**kwargs)
    except ValidationError:
        raise
    except ValueError as e:
        raise ValidationError(f"{path}: {e}" if path else str(e)) from e


def _coerce(hint, value, key: str):
    """`value` read as the annotated type `hint`: an int takes an integral
    number, a float a finite number, bool must be a JSON boolean, tuple[int, ...]
    is read from a list, str and list must match, and an optional type is
    read as its one non-None member."""
    if get_origin(hint) is UnionType:
        members = [a for a in get_args(hint) if a is not type(None)]
        if len(members) > 1:
            return value  # a float or a per-mode list: checked where it is used
        hint = members[0]
    if is_dataclass(hint):
        return from_dict(hint, value, key)
    if get_origin(hint) is tuple:
        if isinstance(value, list):
            return tuple(_coerce(get_args(hint)[0], v, key) for v in value)
    elif hint in (int, float):
        # an int field takes only an integral number, so 5.0 reads as 5 and
        # 5.7 is an error; a float field takes no NaN or infinity (JSON's
        # NaN, Infinity); a JSON boolean is not a number here
        try:
            if not isinstance(value, bool) and (
                    hint is float or isinstance(value, int) or float(value).is_integer()):
                number = hint(value)
                if hint is int or math.isfinite(number):
                    return number
        except (TypeError, ValueError, OverflowError):
            pass
    elif isinstance(value, hint):
        return value
    name = "finite float" if hint is float else \
        hint.__name__ if isinstance(hint, type) else str(hint)
    raise ValidationError(f"{key}: cannot read {value!r:.60} as {name}")


def save_config(path, config: RunConfig) -> None:
    Path(path).write_text(json.dumps(config.to_dict(), indent=2, sort_keys=True) + "\n")


def load_config(path) -> RunConfig:
    try:
        payload = json.loads(Path(path).read_text())
    except json.JSONDecodeError as e:
        raise ValidationError(f"config file {path} is not valid JSON: {e}") from e
    return RunConfig.from_dict(payload)
