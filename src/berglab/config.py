"""Experiment configuration: one JSON document, validated before any compute.

Symbols are declared once under "symbols" and referenced by name from the
operator block and the CLI commands; every reference is resolved during
validation so misconfigurations fail before assembly starts.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from . import spaces
from .operators import MatrixSymbol, ball_indicator_symbol, constant_symbol, poly_symbol
from .spaces import SpaceSpec, space_from_dict, space_to_dict


class ConfigError(ValueError):
    """Configuration/precondition failure with a JSON-serializable payload."""

    def __init__(self, message: str, **details):
        super().__init__(message)
        self.details = {"error": message, **details}


def _int_at_least(key: str, value, minimum: int) -> int:
    """value itself if it is an integer >= minimum (a bool or a float is not); else ConfigError."""
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise ConfigError(f"{key} must be an integer >= {minimum}, got {value!r}")
    return value


def _number(key: str, value, above: float) -> float:
    """float(value) if value is a finite real > above (not a bool or a string); else ConfigError."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not math.isfinite(value) or value <= above):
        raise ConfigError(f"{key} must be a finite number > {above:g}, got {value!r}")
    return float(value)


def _parse_scalar_point(data) -> complex:
    if isinstance(data, dict):
        try:
            return complex(float(data.get("re", 0.0)), float(data.get("im", 0.0)))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad point {data!r}") from exc
    if isinstance(data, (list, tuple)) and len(data) == 2:
        return complex(float(data[0]), float(data[1]))
    if isinstance(data, (int, float)):
        return complex(data)
    raise ConfigError(f"bad point {data!r}")


def parse_point(space: SpaceSpec, data):
    """Point from config: {re, im}, [re, im] or plain real per factor; on a product
    space, a list with one such entry per factor."""
    k = space.nfactors
    if k > 1 and not (isinstance(data, (list, tuple)) and len(data) == k):
        raise ConfigError(f"{space.kind} point needs {k} entries, got {data!r}")
    return spaces.point(space, [_parse_scalar_point(e) for e in (data if k > 1 else [data])])


def _parse_matrix(space: SpaceSpec, data) -> np.ndarray:
    arr = np.array([[_parse_scalar_point(e) for e in row] for row in data], dtype=complex)
    if arr.shape != (space.d, space.d):
        raise ConfigError(f"matrix must be {space.d}x{space.d}, got {arr.shape}")
    return arr


def parse_symbol(space: SpaceSpec, name: str, spec: dict) -> MatrixSymbol:
    """Symbol from its config spec; any malformed field raises ConfigError."""
    try:
        return _parse_symbol(space, name, spec)
    except ConfigError:
        raise
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        reason = f"missing field {exc}" if isinstance(exc, KeyError) else str(exc)
        raise ConfigError(f"symbol {name!r}: {reason}") from exc


def _parse_symbol(space: SpaceSpec, name: str, spec: dict) -> MatrixSymbol:
    kind = spec.get("type")
    if kind == "poly":
        k = space.nfactors
        keys = [f"{p}{i + 1}" if k > 1 else p for i in range(k) for p in "ab"]
        entries: Dict = {}
        for item in spec.get("entries", []):
            terms = {}
            for t in item.get("terms", []):
                terms[tuple(t[key] for key in keys)] = _parse_scalar_point(t["c"])
            entries[(item["i"], item["k"])] = terms
        return poly_symbol(space, entries, label=name)
    if kind == "ball":
        if space.nfactors > 1:
            raise ConfigError(f"symbol {name!r}: ball symbols are single-factor")
        return ball_indicator_symbol(
            space, _parse_scalar_point(spec["center"]), float(spec["radius"]),
            _parse_matrix(space, spec["matrix"]),
            ball_metric=spec.get("metric", "euclidean"), label=name)
    if kind == "const":
        return constant_symbol(space, _parse_matrix(space, spec["matrix"]), label=name)
    raise ConfigError(f"symbol {name!r}: unknown type {kind!r}")


_KNOWN_KEYS = {
    "space", "n_modes", "radial_order", "angular_order", "symbols", "operator",
    "z_grid", "radii", "angles", "shells", "p", "berezin_threshold",
    "essnorm_threshold", "covering_r", "rf", "rank1", "schur_kernel_file",
    "seed", "kernel_points",
}

_DEFAULT_RAW = {
    "space": {"kind": "bergman_disc", "alpha": 0.0, "d": 2},
    "n_modes": 24,
}


@dataclass
class ExperimentConfig:
    space: SpaceSpec
    n_modes: int = 24
    radial_order: Optional[int] = None
    angular_order: Optional[int] = None
    symbol_specs: Dict[str, dict] = field(default_factory=dict)
    operator: Optional[dict] = None
    z_grid: Optional[list] = None
    radii: Optional[List[float]] = None
    angles: Optional[List[float]] = None
    shells: Optional[List[float]] = None
    p: float = 4.0
    berezin_threshold: float = 0.05
    essnorm_threshold: float = 0.25
    covering_r: List[float] = field(default_factory=lambda: [0.5, 1.0, 2.0, 4.0])
    rf: dict = field(default_factory=lambda: {"r": 3.0, "s": 3.0})
    rank1: dict = field(default_factory=lambda: {"n_pairs": 50, "degree": 4})
    schur_kernel_file: Optional[str] = None
    seed: int = 0
    kernel_points: Optional[list] = None
    raw: dict = field(default_factory=dict)

    def symbol(self, name: str) -> MatrixSymbol:
        if name not in self.symbol_specs:
            raise ConfigError(f"symbol {name!r} not defined",
                              defined=sorted(self.symbol_specs))
        return parse_symbol(self.space, name, self.symbol_specs[name])

    def points(self, data) -> list:
        return [parse_point(self.space, entry) for entry in data]

    def echo(self) -> dict:
        payload = dict(self.raw)
        payload["space"] = space_to_dict(self.space)
        return payload


def config_from_dict(raw: dict) -> ExperimentConfig:
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(raw) - _KNOWN_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    merged = {**_DEFAULT_RAW, **raw}
    try:
        space = space_from_dict(dict(merged["space"]))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad space block: {exc}") from exc
    for key in ("radial_order", "angular_order"):
        if merged.get(key) is not None:
            _int_at_least(key, merged[key], 1)
    rank1 = merged.get("rank1", {})
    if not isinstance(rank1, dict):
        raise ConfigError(f"rank1 must be an object, got {rank1!r}")
    rank1 = {"n_pairs": 50, "degree": 4, **rank1}
    _int_at_least("rank1.n_pairs", rank1["n_pairs"], 1)
    _int_at_least("rank1.degree", rank1["degree"], 0)
    rf = merged.get("rf", {})
    if not isinstance(rf, dict):
        raise ConfigError(f"rf must be an object, got {rf!r}")
    for block, keys, known in (("rank1", rank1, {"n_pairs", "degree"}), ("rf", rf, {"r", "s"})):
        if set(keys) - known:
            raise ConfigError(f"unknown {block} keys: {sorted(set(keys) - known)}")
    rf = {key: _number(f"rf.{key}", v, 0.0) for key, v in {"r": 3.0, "s": 3.0, **rf}.items()}
    covering_r = merged.get("covering_r", [0.5, 1.0, 2.0, 4.0])
    if not isinstance(covering_r, list) or not covering_r:
        raise ConfigError(f"covering_r must be a non-empty list of radii, got {covering_r!r}")
    cfg = ExperimentConfig(
        space=space,
        n_modes=_int_at_least("n_modes", merged.get("n_modes", 24), 1),
        radial_order=merged.get("radial_order"),
        angular_order=merged.get("angular_order"),
        symbol_specs=dict(merged.get("symbols", {})),
        operator=merged.get("operator"),
        z_grid=merged.get("z_grid"),
        radii=merged.get("radii"),
        angles=merged.get("angles"),
        shells=merged.get("shells"),
        p=_number("p", merged.get("p", 4.0), 1.0),
        berezin_threshold=_number("berezin_threshold", merged.get("berezin_threshold", 0.05), 0.0),
        essnorm_threshold=_number("essnorm_threshold", merged.get("essnorm_threshold", 0.25), 0.0),
        covering_r=[_number(f"covering_r[{i}]", r, 0.0) for i, r in enumerate(covering_r)],
        rf=rf,
        rank1=rank1,
        schur_kernel_file=merged.get("schur_kernel_file"),
        seed=_int_at_least("seed", merged.get("seed", 0), 0),
        kernel_points=merged.get("kernel_points"),
        raw=merged,
    )
    # resolve every declared point, symbol and operator reference up front
    for key in ("z_grid", "kernel_points"):
        if merged.get(key) is not None:
            if not isinstance(merged[key], list):
                raise ConfigError(f"{key} must be a list of points")
            cfg.points(merged[key])
    for name in cfg.symbol_specs:
        cfg.symbol(name)
    if cfg.operator is not None:
        _validate_operator_block(cfg)
    return cfg


def _validate_operator_block(cfg: ExperimentConfig) -> None:
    block = cfg.operator
    kind = block.get("type")
    if kind == "identity":
        return
    if kind == "toeplitz":
        cfg.symbol(block.get("symbol", ""))
        return
    if kind == "toeplitz_product":
        names = block.get("symbols", [])
        if not names:
            raise ConfigError("toeplitz_product needs a nonempty symbol list")
        for name in names:
            cfg.symbol(name)
        return
    raise ConfigError(f"unknown operator type {kind!r}")


def load_config(path: Optional[str]) -> ExperimentConfig:
    if path is None:
        return config_from_dict(dict(_DEFAULT_RAW))
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}", path=str(path)) from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}", path=str(path)) from exc
    return config_from_dict(raw)
