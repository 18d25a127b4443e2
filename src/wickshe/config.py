"""Run configuration: strict plain-text parsing with dotted section keys.

Format: one ``key = value`` per line, ``#`` starts a comment, keys are
dotted (``mc.n_paths``), probe points are ``t,x`` pairs joined by ``;``.
Unknown keys are rejected with a close-match suggestion; out-of-range values
name the offending key.  Defaults are filled for everything except the seed
and echoed into run reports.
"""

from __future__ import annotations

import difflib
from dataclasses import dataclass, fields, replace
from pathlib import Path

from .kernels import INITIAL_CONDITIONS, covers, initial_condition_from_tag

__all__ = ["RunConfig", "ConfigError", "parse_config", "DEFAULTS"]


class ConfigError(ValueError):
    """Configuration file rejected; maps to exit code 2."""


@dataclass(frozen=True)
class RunConfig:
    seed: int = 12345
    truncation_order: int = 4          # truncation.N
    truncation_modes: int = 6          # truncation.J
    quadrature_half_width: float = 12.0   # quadrature.L
    quadrature_panels: int = 48
    mc_dt: float = 1e-3
    mc_n_paths: int = 100_000
    mc_n_noise: int = 200
    mc_delta_a_factor: float = 0.79    # delta_a = factor * sqrt(dt)
    mc_dump_ensembles: bool = False    # opt-in: per-path and local-time CSV dumps (large)
    ic_tag: str = "constant"
    ic_amplitude: float = 1.0
    probes: tuple[tuple[float, float], ...] = ((0.5, 0.0), (1.0, 0.0))
    output_dir: str = "out"
    threads: int = 1

    @property
    def delta_a(self) -> float:
        return self.mc_delta_a_factor * self.mc_dt ** 0.5

    def initial_condition(self):
        return initial_condition_from_tag(self.ic_tag, amplitude=self.ic_amplitude)


DEFAULTS = RunConfig()

# dotted key -> (RunConfig field, value type, closed range or None)
_KEYS = {
    "seed": ("seed", int, (0, 2 ** 64 - 1)),
    "truncation.N": ("truncation_order", int, (0, 40)),
    "truncation.J": ("truncation_modes", int, (1, 64)),
    "quadrature.L": ("quadrature_half_width", float, (4.0, 64.0)),
    "quadrature.panels": ("quadrature_panels", int, (8, 512)),
    "mc.dt": ("mc_dt", float, (1e-6, 0.1)),
    "mc.n_paths": ("mc_n_paths", int, (100, 10_000_000)),
    "mc.n_noise": ("mc_n_noise", int, (10, 1_000_000)),
    "mc.delta_a_factor": ("mc_delta_a_factor", float, (0.05, 10.0)),
    "mc.dump_ensembles": ("mc_dump_ensembles", "bool", None),
    "initial_condition.tag": ("ic_tag", str, None),
    "initial_condition.amplitude": ("ic_amplitude", float, (-100.0, 100.0)),
    "probes": ("probes", "probes", None),
    "output_dir": ("output_dir", str, None),
    "threads": ("threads", int, (1, 256)),
}


def _parse_probes(text: str, key: str) -> tuple[tuple[float, float], ...]:
    out = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split(",")
        if len(parts) != 2:
            raise ConfigError(f"{key}: each probe must be 't,x', got '{chunk}'")
        try:
            t, x = float(parts[0]), float(parts[1])
        except ValueError as exc:
            raise ConfigError(f"{key}: non-numeric probe '{chunk}'") from exc
        out.append((t, x))
    if not out:
        raise ConfigError(f"{key}: no probe points given")
    return tuple(out)


def parse_config(path: str | Path, overrides: dict | None = None) -> RunConfig:
    """Parse and validate a config file; unknown keys are rejected with a
    suggestion, range violations name the key.  ``overrides`` (already typed)
    are applied after the file, e.g. from command-line flags."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    values: dict = {}
    for lineno, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got '{raw.strip()}'")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in _KEYS:
            hint = difflib.get_close_matches(key, _KEYS.keys(), n=1, cutoff=0.5)
            suggestion = f"; did you mean '{hint[0]}'?" if hint else ""
            raise ConfigError(f"{path}:{lineno}: unknown key '{key}'{suggestion}")
        attr, typ, _ = _KEYS[key]
        if typ == "probes":
            values[attr] = _parse_probes(val, key)
        elif typ == "bool":
            low = val.lower()
            if low not in ("true", "false"):
                raise ConfigError(f"{path}:{lineno}: {key}: expected true or false, got '{val}'")
            values[attr] = low == "true"
        elif typ is str:
            values[attr] = val
        else:
            try:
                values[attr] = typ(val)
            except ValueError as exc:
                raise ConfigError(f"{path}:{lineno}: {key}: cannot parse '{val}' "
                                  f"as {typ.__name__}") from exc
    cfg = replace(DEFAULTS, **values)
    if overrides:
        cfg = replace(cfg, **overrides)
    _validate(cfg)
    return cfg


def _validate(cfg: RunConfig):
    for key, (attr, _, bounds) in _KEYS.items():
        if bounds is None:
            continue
        lo, hi = bounds
        val = getattr(cfg, attr)
        if not (lo <= val <= hi):
            raise ConfigError(f"{key}: value {val} outside [{lo}, {hi}]")
    if cfg.ic_tag not in INITIAL_CONDITIONS:
        raise ConfigError(f"initial_condition.tag: unknown tag '{cfg.ic_tag}' "
                          f"(choose from {', '.join(INITIAL_CONDITIONS)})")
    for (t, x) in cfg.probes:
        if t <= 0:
            raise ConfigError(f"probes: time {t} must be positive")
        if not covers(cfg.quadrature_half_width, t, x):
            raise ConfigError(f"probes: ({t}, {x}) needs |x| + 6 sqrt(t) <= quadrature.L "
                              f"= {cfg.quadrature_half_width}")


def config_items(cfg: RunConfig) -> list[tuple[str, str]]:
    """Resolved config as (dotted key, value string) rows for report echoing.

    The worker-thread count is omitted: it cannot affect any emitted number
    (block reductions are order-fixed), and reports must stay byte-identical
    across worker counts.
    """
    rev = {attr: key for key, (attr, _, _) in _KEYS.items()}
    rows = []
    for f in fields(cfg):
        if f.name == "threads":
            continue
        key = rev.get(f.name, f.name)
        val = getattr(cfg, f.name)
        if f.name == "probes":
            val = "; ".join(f"{t:g},{x:g}" for t, x in val)
        rows.append((key, str(val)))
    return sorted(rows)
