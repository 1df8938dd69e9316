"""Plain-text key=value scenario configuration.

Lines are ``key = value``; blank lines and ``#`` comments are ignored.
Unknown keys are rejected, as are values outside the documented ranges.

Keys (defaults in parentheses):
    shape            shape spec string, e.g. fourier(1;2:0.1)   (required)
    vol              prescribed torsion mass, (0, 1e6]          (1.0)
    m                boundary samples, even, 16..2048           (128)
    n_radial         radial quadrature order, 4..64             (24)
    law              "quadratic" or "poly:c0,c1,..."            (quadratic)
    dt0              initial step, (0, 10]; 0 = CFL choice      (0)
    cfl              CFL fraction, (0, 1]                       (0.4)
    t_end            final time, (0, 1e4]                       (10)
    tol_stationary   stationarity threshold on max |V|, (0, 1)  (1e-7)
    snapshot_stride  steps between stored snapshots, >= 1       (50)
    filter_strength  spectral filter exponent, >= 0; 0 = default (0)
    seed             nonnegative integer, echoed into outputs   (0)
    outdir           output directory                           (".")
"""
from __future__ import annotations

from dataclasses import dataclass, fields

from .dynamics import polynomial_law, quadratic_law
from .errors import ConfigError
from .geometry import parse_shape


@dataclass
class ScenarioConfig:
    shape: str
    vol: float = 1.0
    m: int = 128
    n_radial: int = 24
    law: str = "quadratic"
    dt0: float = 0.0
    cfl: float = 0.4
    t_end: float = 10.0
    tol_stationary: float = 1e-7
    snapshot_stride: int = 50
    filter_strength: float = 0.0
    seed: int = 0
    outdir: str = "."

    def velocity_law(self):
        return _parse_law(self.law)

    def as_dict(self):
        return {f.name: getattr(self, f.name) for f in fields(self)}


def _parse_law(text):
    s = text.strip().lower()
    if s == "quadratic":
        return quadratic_law()
    if s.startswith("poly:"):
        try:
            coeffs = [float(c) for c in s[5:].split(",")]
        except ValueError as exc:
            raise ConfigError(f"bad polynomial law {text!r}") from exc
        try:
            return polynomial_law(coeffs)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    raise ConfigError(f"unknown velocity law {text!r}")


_PARSERS = {
    "shape": str,
    "vol": float,
    "m": int,
    "n_radial": int,
    "law": str,
    "dt0": float,
    "cfl": float,
    "t_end": float,
    "tol_stationary": float,
    "snapshot_stride": int,
    "filter_strength": float,
    "seed": int,
    "outdir": str,
}

_RANGES = {
    "vol": lambda v: 0.0 < v <= 1e6,
    "m": lambda v: 16 <= v <= 2048 and v % 2 == 0,
    "n_radial": lambda v: 4 <= v <= 64,
    "dt0": lambda v: 0.0 <= v <= 10.0,
    "cfl": lambda v: 0.0 < v <= 1.0,
    "t_end": lambda v: 0.0 < v <= 1e4,
    "tol_stationary": lambda v: 0.0 < v < 1.0,
    "snapshot_stride": lambda v: v >= 1,
    "filter_strength": lambda v: v >= 0.0,
    "seed": lambda v: v >= 0,
}


def parse_config_text(text, source="<config>"):
    seen = {}
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{ln}: expected 'key = value'")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in _PARSERS:
            raise ConfigError(f"{source}:{ln}: unknown key {key!r}")
        if key in seen:
            raise ConfigError(f"{source}:{ln}: duplicate key {key!r}")
        try:
            seen[key] = _PARSERS[key](val)
        except ValueError as exc:
            raise ConfigError(f"{source}:{ln}: bad value for {key!r}: {val!r}") from exc
    if "shape" not in seen:
        raise ConfigError(f"{source}: missing required key 'shape'")
    for key, ok in _RANGES.items():
        if key in seen and not ok(seen[key]):
            raise ConfigError(f"{source}: value for {key!r} out of range: {seen[key]!r}")
    cfg = ScenarioConfig(**seen)
    try:
        parse_shape(cfg.shape)
    except Exception as exc:
        raise ConfigError(f"{source}: bad shape spec: {exc}") from exc
    _parse_law(cfg.law)
    return cfg


def parse_config(path):
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    return parse_config_text(text, source=str(path))
