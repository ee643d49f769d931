"""Tolerance defaults and configuration-file handling.

Every numerical gate reads its threshold from the frozen :class:`Config`
passed down as the keyword-only ``cfg``, whose default is the constant
:data:`DEFAULTS`; other thresholds come from a new value such as
``dataclasses.replace(DEFAULTS, borchardt_tol=1e-12)``.  :func:`load_config`
applies a ``key=value`` file named by ``SIMPLEFRAC_CONFIG``, then an explicit
path; command-line flags override both.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass

from .errors import DomainError, require_int, require_real

ENV_VAR = "SIMPLEFRAC_CONFIG"

# the int fields that count grid points, so need 2; every other needs 1
_AT_LEAST_TWO = ("supnorm_min_grid", "komarov_points")
# the float fields that must be positive, not only non-negative: the
# refinement cannot reach 0, and the Borchardt residual divides by the floor
_POSITIVE = ("supnorm_xtol", "residual_floor")


@dataclass(frozen=True)
class Config:
    # ellipse membership: |canonical residual| below this counts as "on"
    ellipse_on_tol: float = 1e-12
    # closure membership for pole-localization reports
    ellipse_closure_tol: float = 1e-10
    # backward-error gate for roots of T_n(x) = c, relative to 1 + |x T_n'(x)|
    solve_t_residual_tol: float = 1e-13
    # Newton acceptance gate for candidate poles, relative to max(1, |Q'|)
    candidate_root_residual_tol: float = 1e-10
    # sup-norm engine: grid points per unit degree, floor, and refinement
    supnorm_grid_per_degree: int = 30
    supnorm_min_grid: int = 64
    supnorm_xtol: float = 1e-10
    # a pole with |Im z| below this and |Re z| <= 1 sits on the segment
    pole_on_segment_tol: float = 1e-12
    # evaluation refuses points closer than this to a pole
    pole_proximity_tol: float = 1e-14
    # equioscillation certificates: level equality, relative
    certify_level_rtol: float = 1e-3
    # pole separation required by the alternance criterion
    min_pole_separation: float = 1e-9
    # residual below this (times the data scale) counts as identically zero
    degenerate_residual_tol: float = 1e-13
    # Borchardt / determinant checks
    borchardt_tol: float = 1e-10
    residual_floor: float = 1e-300
    permanent_max_n: int = 20
    # conditioning report gates for random matrix instances
    node_separation_gate: float = 1e-3
    pole_interval_gate: float = 0.05
    det_condition_gate: float = 1e5
    # decomposition identity validation
    komarov_tol: float = 1e-9
    komarov_points: int = 50
    komarov_margin: float = 0.1

    def __post_init__(self):
        """Int fields must be integers >= 1 and float fields finite and >= 0,
        with the exceptions named in _AT_LEAST_TWO and _POSITIVE; raises
        DomainError naming the field."""
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if f.type == "int":
                value = require_int(f.name, value, 2 if f.name in _AT_LEAST_TWO else 1)
            else:
                value = require_real(f.name, value, 0.0, inclusive=f.name not in _POSITIVE)
            object.__setattr__(self, f.name, value)


DEFAULTS = Config()


def parse_config_file(path: str) -> dict[str, float]:
    """Parse a ``key=value`` file (blank lines and ``#`` comments allowed)."""
    values: dict[str, float] = {}
    valid = {f.name: f.type for f in dataclasses.fields(Config)}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise DomainError(f"{path}:{lineno}: expected key=value, got {raw!r}")
            key, _, val = line.partition("=")
            key = key.strip()
            if key not in valid:
                raise DomainError(f"{path}:{lineno}: unknown configuration key {key!r}")
            try:
                values[key] = int(val) if "int" in str(valid[key]) else float(val)
            except ValueError as exc:
                raise DomainError(f"{path}:{lineno}: bad value for {key}: {val.strip()!r}") from exc
    return values


def load_config(path: str | None = None) -> Config:
    """Build a Config from defaults, the environment-named file, and `path`.

    Later sources win.  Missing env file raises; unset env var is ignored.
    """
    overrides: dict[str, float] = {}
    env_path = os.environ.get(ENV_VAR)
    if env_path:
        overrides.update(parse_config_file(env_path))
    if path is not None:
        overrides.update(parse_config_file(path))
    return dataclasses.replace(Config(), **overrides)


def non_defaults(cfg: Config) -> dict[str, float]:
    """The fields of cfg that differ from ``Config()``, by name."""
    base = dataclasses.asdict(Config())
    return {k: v for k, v in dataclasses.asdict(cfg).items() if v != base[k]}

