"""What both flow backends share: states, monitor records, scenario configuration."""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..errors import ConfigurationError

CFL_MAX = 0.25


class derived:
    """A state field computed by ``derive(state)`` on first read and stored
    in the instance dict, where later reads find it: Python 3.11's
    ``cached_property`` without its lock (no state is shared by threads)."""

    def __init__(self, derive):
        self.derive = derive

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, state, owner=None):
        if state is None:
            return self
        value = state.__dict__[self.name] = self.derive(state)
        return value


@dataclass(frozen=True)
class TorusState:
    """Periodic graph map T^n -> T^m, stored as winding + periodic residual.

    The lift is f(x) = winding @ x + u(x); the flow equation acts on the
    lift, so any real-valued winding matrix is admissible (integer windings
    are the homotopically distinct classes).  States are frozen and derive
    ``padded`` (``u`` with a periodic ghost layer; a step stores it for the
    state it makes) and ``df`` on first read, once (``derived`` fields);
    writing into ``u`` after reading either is unsupported.
    """

    n: int
    m: int
    resolution: int
    winding: np.ndarray          # (m, n)
    u: np.ndarray                # (m, N, ..., N) periodic residual
    t: float = 0.0
    steps: int = 0

    h = property(lambda s: 2.0 * math.pi / s.resolution)
    padded = derived(lambda s: torus.ghost_padded(s.u))
    df = derived(lambda s: torus.first_derivatives(s))

    backend = "torus"


@dataclass(frozen=True)
class EquivariantState:
    """Rotationally symmetric sphere-pair profile rho(r) on r_j = j pi / J.

    rho(0) = 0 and rho(pi) is 0 (trivial class) or pi (identity class);
    both poles are held fixed and ghost values extend the profile by odd
    reflection about the pole values.  States are frozen and derive, each
    on first read and once (``derived`` fields), the read-only nodes ``r``
    of ``equivariant.source_side``, ``rhop``, its absolute value
    ``abs_rhop`` (lambda_1, which the step's breakdown check and the
    spectrum share), ``trig`` (cos rho, sin rho) and the projected
    ``frame``; writing into ``rho`` after reading any is unsupported.
    """

    resolution: int              # J: number of intervals
    rho: np.ndarray              # (J + 1,)
    t: float = 0.0
    steps: int = 0

    h = property(lambda s: math.pi / s.resolution)
    # looked up in the backend module when called: wrappers there see each call
    r = derived(lambda s: equivariant.source_side(s.resolution)["r"])
    rhop = derived(lambda s: equivariant.profile_derivative(s))
    abs_rhop = derived(lambda s: np.abs(s.rhop))
    trig = derived(lambda s: equivariant.profile_trig(s))
    frame = derived(lambda s: equivariant.frame(s))

    backend = "equivariant_sphere"
    n = m = 2


@dataclass(frozen=True)
class MonitorRecord:
    t: float
    min_phi: float               # NaN sentinel when flagged
    max_two_dilation: float
    max_lambda: float
    sup_a2: float
    flagged: bool = False

    def row(self):
        return (self.t, self.min_phi, self.max_two_dilation,
                self.max_lambda, self.sup_a2)


@dataclass(frozen=True)
class ScenarioConfig:
    backend: str = "torus"
    n: int = 2
    m: int = 2
    resolution: int = 64
    initial: str = "sine"
    amplitude: float = 0.5
    cfl: float = 0.2
    t_max: float = 8.0
    lambda_stop: float = 1e-3
    cadence: int = 25
    monotonicity_c: float = 10.0   # per-step tolerance C*(h^2 + dt); artifact calibration
    steady_c: float = 1.0          # steady threshold C*h^2; artifact calibration

    def __post_init__(self):
        if self.backend not in BACKENDS:
            raise ConfigurationError(f"unknown backend {self.backend!r} "
                                     f"(one of: {', '.join(sorted(BACKENDS))})")
        BACKENDS[self.backend]["validate"](self)
        if not 0 < self.cfl <= CFL_MAX:
            raise ConfigurationError(f"cfl must lie in (0, {CFL_MAX}]")
        if self.resolution < 8:
            raise ConfigurationError("resolution must be at least 8")
        for key in ("cadence", "n", "m"):
            if getattr(self, key) < 1:
                raise ConfigurationError(f"{key} must be at least 1")
        for key in ("amplitude", "t_max", "lambda_stop", "monotonicity_c", "steady_c"):
            if not math.isfinite(getattr(self, key)):
                raise ConfigurationError(f"{key} must be finite")
        for key in ("t_max", "lambda_stop"):
            if not getattr(self, key) > 0:
                raise ConfigurationError(f"{key} must be positive")
        for key in ("monotonicity_c", "steady_c"):
            if getattr(self, key) < 0:
                raise ConfigurationError(f"{key} must not be negative")


def parse_scenario(source) -> ScenarioConfig:
    """Parse a plain-text key = value scenario: a pathlib.Path is read as a
    file, a str is the scenario text itself.

    Lines starting with # are comments; keys are the ScenarioConfig fields,
    each cast to its annotated type.
    """
    from typing import get_type_hints
    field_types = get_type_hints(ScenarioConfig)
    text = source.read_text() if isinstance(source, Path) else source
    values = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigurationError(f"line {lineno}: expected key = value, got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip().lower().replace("-", "_")
        val = val.strip()
        if key not in field_types:
            raise ConfigurationError(f"line {lineno}: unknown key {key!r}")
        try:
            values[key] = field_types[key](val)
        except ValueError as exc:
            raise ConfigurationError(f"line {lineno}: {exc}") from exc
    return ScenarioConfig(**values)


def initial_state(config: ScenarioConfig):
    return BACKENDS[config.backend]["initial"](config)


from . import equivariant, torus  # noqa: E402  (they import this module's names)

# the one map from a backend name to its table of operations (docs/decisions.md)
BACKENDS = {"torus": torus.OPERATIONS, "equivariant_sphere": equivariant.OPERATIONS}
