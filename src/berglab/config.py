"""Experiment configuration: one JSON document, parsed once before any compute.

Each key is a field of `ExperimentConfig` whose metadata holds its JSON
default and its parser, and parsing turns the key into the value the runners
use: the space into a SpaceSpec, symbols into MatrixSymbols, points into
complex points, and the operator block into the names of its Toeplitz
factors.  Any malformed value raises ConfigError naming its key, so
misconfigurations fail before assembly starts.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass, field, fields
from typing import Dict, List, Optional, Tuple

import numpy as np

from . import spaces
from .operators import MatrixSymbol, _poly_terms, ball_indicator_symbol, constant_symbol
from .spaces import SpaceSpec


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


def _number(key: str, value, above: float = -math.inf) -> float:
    """float(value) if value is a finite real > above (not a bool or a string); else ConfigError."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not math.isfinite(value) or value <= above):
        bound = f" > {above:g}" if above > -math.inf else ""
        raise ConfigError(f"{key} must be a finite number{bound}, got {value!r}")
    return float(value)


def _require_object(key: str, value, allowed=None) -> dict:
    """value itself if it is an object with no key outside allowed (when given); else ConfigError."""
    if not isinstance(value, dict):
        raise ConfigError(f"{key} must be an object, got {value!r}")
    unknown = sorted(set(value) - set(value if allowed is None else allowed))
    if unknown:
        raise ConfigError(f"unknown {key} keys: {unknown}")
    return value


def _parse_scalar_point(data) -> complex:
    """{re, im}, [re, im] or a plain real as a complex number; anything else raises ConfigError."""
    if isinstance(data, dict):
        parts = [data.get("re", 0.0), data.get("im", 0.0)]
    elif isinstance(data, (list, tuple)) and len(data) == 2:
        parts = list(data)
    else:
        parts = [data, 0.0]
    try:
        return complex(*(_number("point", v) for v in parts))
    except ConfigError:
        raise ConfigError(f"bad point {data!r}") from None


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
    allowed = {"poly": ("type", "entries"), "const": ("type", "matrix"),
               "ball": ("type", "center", "radius", "matrix", "metric")}
    _require_object(f"symbol {name!r}", spec, allowed.get(kind))
    if kind == "poly":   # one term-table row per config term, in order: repeated terms add up
        k = space.nfactors
        keys = [f"{p}{i + 1}" if k > 1 else p for i in range(k) for p in "ab"]
        names, values = [], []
        for item in spec.get("entries", []):
            ik = (_require_object(f"symbol {name!r} entry", item, ("i", "k", "terms"))["i"], item["k"])
            for t in item.get("terms", []):
                _require_object(f"symbol {name!r} term", t, keys + ["c"])
                names.append((ik, tuple(t[key] for key in keys)))
                values.append(_parse_scalar_point(t["c"]))
        return MatrixSymbol(space, poly=_poly_terms(space, names, values))
    if kind == "ball":
        if space.nfactors > 1:
            raise ConfigError(f"symbol {name!r}: ball symbols are single-factor")
        return ball_indicator_symbol(
            space, _parse_scalar_point(spec["center"]),
            _number(f"symbol {name!r}: radius", spec["radius"], 0.0),
            _parse_matrix(space, spec["matrix"]), ball_metric=spec.get("metric", "euclidean"))
    if kind == "const":
        return constant_symbol(space, _parse_matrix(space, spec["matrix"]))
    raise ConfigError(f"symbol {name!r}: unknown type {kind!r}")


# ---------------------------------------------------------------------------
# key parsers: parse(key, value, the keys of the same object parsed before it)

def _int(minimum: int):
    return lambda key, value, _: _int_at_least(key, value, minimum)


def _num(above: float):
    return lambda key, value, _: _number(key, value, above)


def _numbers(above: float = -math.inf):
    """A non-empty list of finite numbers > above, as floats."""
    def parse(key, value, _):
        if not isinstance(value, list) or not value:
            raise ConfigError(f"{key} must be a non-empty list of numbers, got {value!r}")
        return [_number(f"{key}[{i}]", v, above) for i, v in enumerate(value)]
    return parse


def _optional(parse):
    return lambda key, value, parsed: None if value is None else parse(key, value, parsed)


def _string(key, value, _) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{key} must be a string, got {value!r}")
    return value


def _object(key: str, value, table: dict, prefix: str) -> dict:
    """Every key of table, parsed in order from the object value (its default where
    absent); a key outside the table raises ConfigError."""
    _require_object(key, value, table)
    out: dict = {}
    for name, (default, parse) in table.items():
        out[name] = parse(prefix + name, value.get(name, default), out)
    return out


def _block(table: dict):
    return lambda key, value, _: _object(key, value, table, f"{key}.")


_SPACE_FIELDS = {spaces.KIND_DISC: ("kind", "d", "alpha", "r_max"),
                 spaces.KIND_FOCK: ("kind", "d", "fock_probe_radius"),
                 spaces.KIND_BIDISC: ("kind", "d", "alpha", "alpha2", "r_max")}
_SPACE_DEFAULTS = {f.name: f.default for f in fields(SpaceSpec)}


def _space(key, block, _) -> SpaceSpec:
    """SpaceSpec's fields; one the kind does not use may only hold its default, as the report echo
    names them all.  Values are checked, not converted, so the echo repeats them as given."""
    _require_object(key, block, _SPACE_DEFAULTS)
    for name, value in block.items():
        if name == "d":
            _int_at_least("space.d", value, 1)
        elif name != "kind" and not (name == "alpha2" and value is None):
            _number(f"space.{name}", value)
    try:
        space = SpaceSpec(**block)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad space block: {exc}") from exc
    unused = [n for n, v in block.items() if n not in _SPACE_FIELDS[space.kind] and v != _SPACE_DEFAULTS[n]]
    if unused:
        raise ConfigError(f"{key} fields {unused} do not apply to kind {space.kind}")
    return space


def _points(key, value, parsed) -> list:
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{key} must be a non-empty list of points, got {value!r}")
    try:
        return [parse_point(parsed["space"], entry) for entry in value]
    except ConfigError as exc:
        raise ConfigError(f"{key}: {exc}") from exc


def _symbols(key, value, parsed) -> Dict[str, MatrixSymbol]:
    return {name: parse_symbol(parsed["space"], name, _require_object(f"{key}.{name}", spec))
            for name, spec in _require_object(key, value).items()}


def _operator(key, block, parsed) -> Optional[Tuple[str, ...]]:
    """The operator block as the symbol names of its Toeplitz factors; () is the identity."""
    if block is None:
        return None
    kind = _require_object(key, block).get("type")
    if kind == "identity":
        _require_object(key, block, ("type",))
        names = []
    elif kind == "toeplitz":
        names = [_require_object(key, block, ("type", "symbol")).get("symbol")]
    elif kind == "toeplitz_product":
        names = _require_object(key, block, ("type", "symbols")).get("symbols")
        if not isinstance(names, list) or not names:
            raise ConfigError(f"{key}.symbols must be a non-empty list, got {names!r}")
    else:
        raise ConfigError(f"unknown {key} type {kind!r}")
    for name in names:
        if not (isinstance(name, str) and name in parsed["symbols"]):
            raise ConfigError(f"{key}: symbol {name!r} not defined",
                              defined=sorted(parsed["symbols"]))
    return tuple(names)


def _key(default, parse):
    """A config key: its JSON default and its parser, in the field's metadata."""
    return field(metadata={"key": (default, parse)})


@dataclass
class ExperimentConfig:
    """The parsed config: one field per key, parsed in field order (points and
    symbols need the space, the operator needs the symbols), plus the JSON as given."""

    space: SpaceSpec = _key({"kind": spaces.KIND_DISC, "alpha": 0.0, "d": 2}, _space)
    n_modes: int = _key(24, _int(1))
    radial_order: Optional[int] = _key(None, _optional(_int(1)))
    angular_order: Optional[int] = _key(None, _optional(_int(1)))
    symbols: Dict[str, MatrixSymbol] = _key({}, _symbols)
    operator: Optional[Tuple[str, ...]] = _key(None, _operator)
    z_grid: Optional[list] = _key(None, _optional(_points))
    kernel_points: Optional[list] = _key(None, _optional(_points))
    radii: Optional[List[float]] = _key(None, _optional(_numbers()))
    angles: Optional[List[float]] = _key(None, _optional(_numbers()))
    shells: Optional[List[float]] = _key(None, _optional(_numbers()))
    p: float = _key(4.0, _num(1.0))
    berezin_threshold: float = _key(0.05, _num(0.0))
    essnorm_threshold: float = _key(0.25, _num(0.0))
    covering_r: List[float] = _key([0.5, 1.0, 2.0, 4.0], _numbers(0.0))
    rf: dict = _key({}, _block({"r": (3.0, _num(0.0)), "s": (3.0, _num(0.0))}))
    rank1: dict = _key({}, _block({"n_pairs": (50, _int(1)), "degree": (4, _int(0))}))
    schur_kernel_file: Optional[str] = _key(None, _optional(_string))
    seed: int = _key(0, _int(0))
    raw: dict = field(default_factory=dict)

    def echo(self) -> dict:
        """The config as given, naming the full space and the truncation."""
        return {**self.raw, "space": asdict(self.space), "n_modes": self.n_modes}


_KEYS = {f.name: f.metadata["key"] for f in fields(ExperimentConfig) if "key" in f.metadata}


def config_from_dict(raw: dict) -> ExperimentConfig:
    parsed = _object("config", raw, _KEYS, "")
    return ExperimentConfig(**parsed, raw=dict(raw))


def load_config(path: Optional[str]) -> ExperimentConfig:
    if path is None:
        return config_from_dict({})
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}", path=str(path)) from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}", path=str(path)) from exc
    cfg = config_from_dict(raw)
    if cfg.schur_kernel_file is not None:     # relative to the config file; an absolute path stays
        cfg.schur_kernel_file = os.path.join(os.path.dirname(path), cfg.schur_kernel_file)
    return cfg
