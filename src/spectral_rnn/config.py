"""Flat key-value experiment configuration.

Config files are plain text lines `section.key = value` with `#` comments.
Unknown keys are rejected with a close-match suggestion; defaults are filled
in so a serialized config always lists every key.
"""

from __future__ import annotations

import difflib
import hashlib
import math
from dataclasses import dataclass, field
from typing import Any


class ConfigError(ValueError):
    pass


def _parse_int_list(text: str) -> list[int]:
    return [int(tok) for tok in str(text).replace(",", " ").split()]


def _fmt(value: Any) -> str:
    if isinstance(value, list):
        return ",".join(str(v) for v in value)
    return str(value)


# key -> (converter, default); None default means the key is required
_SCHEMA: dict[str, tuple] = {
    "model.d_x": (int, None),
    "model.d_h": (int, None),
    "model.d_y": (int, None),
    "model.l": (int, 2),
    "model.seed": (int, 0),
    "model.a1_scale": (float, 1.0),
    "model.u_scale": (float, 0.0),
    "model.norm_check": (str, "strict"),
    "input.w_scale": (float, 0.5),
    "input.sigma": (str, "auto"),
    "input.init": (str, "stationary"),
    "estimation.n": (int, 100000),
    "estimation.n_grid": (_parse_int_list, [10000, 100000]),
    "estimation.seeds": (_parse_int_list, [0, 1, 2]),
    "estimation.burn_in": (int, 10),
    "output.dir": (str, "out"),
    "output.format": (str, "spt1"),
}


@dataclass
class ExperimentConfig:
    values: dict = field(default_factory=dict)

    def __getitem__(self, key: str) -> Any:
        return self.values[key]

    @property
    def d_x(self) -> int:
        return self.values["model.d_x"]

    @property
    def d_h(self) -> int:
        return self.values["model.d_h"]

    @property
    def d_y(self) -> int:
        return self.values["model.d_y"]

    @property
    def l(self) -> int:
        return self.values["model.l"]


def _positive_number(text: str) -> bool:
    try:
        return 0.0 < float(text) < math.inf
    except ValueError:
        return False


def _validate(values: dict) -> None:
    for key in ("model.d_x", "model.d_h", "model.d_y"):
        if values[key] <= 0:
            raise ConfigError(f"{key}: dimension must be positive")
    if values["model.d_h"] > values["model.d_x"]:
        raise ConfigError("model.d_h: need model.d_h <= model.d_x, got "
                          f"{values['model.d_h']} > {values['model.d_x']}")
    if values["model.seed"] < 0:
        raise ConfigError("model.seed: seeds must be nonnegative")
    if values["model.l"] < 1:
        raise ConfigError("model.l: unit degree must be >= 1")
    for key in ("model.a1_scale", "model.u_scale"):
        if not math.isfinite(values[key]):
            raise ConfigError(f"{key}: expected a finite number, got {values[key]}")
    if values["model.norm_check"] not in ("strict", "off"):
        raise ConfigError("model.norm_check: expected 'strict' or 'off'")
    if values["model.l"] >= 2 and values["model.norm_check"] == "strict":
        total = values["model.a1_scale"] + values["model.u_scale"]
        if total > 1.0 + 1e-12:
            raise ConfigError(
                "model.a1_scale/model.u_scale: the stability assumption "
                f"||A1|| + ||U|| <= 1 is violated (got {total:g})")
    if not 0.0 <= values["input.w_scale"] < 1.0:
        raise ConfigError("input.w_scale: need 0 <= w_scale < 1 for a stable chain")
    if values["input.sigma"] != "auto" and not _positive_number(values["input.sigma"]):
        raise ConfigError("input.sigma: expected 'auto' or a positive number")
    if values["input.init"] not in ("stationary", "zero"):
        raise ConfigError("input.init: expected 'stationary' or 'zero'")
    if values["output.format"] not in ("spt1", "csv"):
        raise ConfigError("output.format: expected 'spt1' or 'csv'")
    if values["estimation.burn_in"] < 0:
        raise ConfigError("estimation.burn_in: must be nonnegative")
    if len(values["estimation.n_grid"]) < 1 or len(values["estimation.seeds"]) < 1:
        raise ConfigError("estimation.n_grid/seeds: need at least one entry")
    if min(values["estimation.seeds"]) < 0:
        raise ConfigError("estimation.seeds: seeds must be nonnegative")
    shortest = values["estimation.burn_in"] + 4  # a moment at score shift +-1 needs one position
    for key, n in (("estimation.n", values["estimation.n"]),
                   ("estimation.n_grid", min(values["estimation.n_grid"]))):
        if n < shortest:
            raise ConfigError(f"{key}: need at least estimation.burn_in + 4 = {shortest} "
                              f"positions, got {n}")


def _convert(key: str, raw: Any) -> Any:
    conv, _ = _SCHEMA[key]
    try:
        return conv(raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{key}: cannot parse value {raw!r}") from exc


def from_items(items: dict) -> ExperimentConfig:
    """Validate a key-value mapping against the schema and fill defaults."""
    values: dict = {}
    for key, raw in items.items():
        if key not in _SCHEMA:
            close = difflib.get_close_matches(key, _SCHEMA, n=1)
            hint = f" (did you mean {close[0]!r}?)" if close else ""
            raise ConfigError(f"unknown key {key!r}{hint}")
        values[key] = _convert(key, raw)
    for key, (_, default) in _SCHEMA.items():
        if key in values:
            continue
        if default is None:
            raise ConfigError(f"missing required key {key!r}")
        values[key] = default
    _validate(values)
    return ExperimentConfig(values=values)


def parse_config(path: str, overrides: dict | None = None) -> ExperimentConfig:
    items: dict = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            if "=" not in text:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, raw = (part.strip() for part in text.split("=", 1))
            items[key] = raw
    if overrides:
        items.update(overrides)
    return from_items(items)


def serialize(config: ExperimentConfig) -> str:
    lines = [f"{key} = {_fmt(config.values[key])}" for key in _SCHEMA]
    return "\n".join(lines) + "\n"


def config_hash(config: ExperimentConfig) -> str:
    return hashlib.sha256(serialize(config).encode("utf-8")).hexdigest()
