"""JSON encodings for matrices, battery specs, and state specs.

Complex matrices serialize as row-major nested lists of [re, im] pairs.
Battery and state specs are either named families or explicit matrices:

    {"ising": {"J1": 0.5, "J2": 1.0, "J3": 0.5, "b": 0.45}}
    {"explicit": {"HA": M, "HB": M, "V": M, "g": 1.0}}

    {"thermal_mixture": {"alpha": 0.96, "T": 1.5}}
    {"matrix": M}

The thermal-mixture state derives its marginals from the battery's local
Hamiltonians at the given temperature.  A family object holds only the keys
shown, and every number must be finite.
"""

from __future__ import annotations

import math
from functools import partial

import numpy as np

from .battery import BatteryHamiltonian, battery_hamiltonian, gibbs_state, ising_battery, thermal_mixture_state
from .linalg import DensityMatrix

__all__ = [
    "ConfigError",
    "matrix_to_json",
    "matrix_from_json",
    "battery_from_spec",
    "battery_to_spec",
    "state_from_spec",
]


ISING_KEYS = ("J1", "J2", "J3", "b")
THERMAL_MIXTURE_KEYS = ("alpha", "T")
BATTERY_FAMILIES = ("ising", "explicit")
STATE_FAMILIES = ("thermal_mixture", "matrix")


class ConfigError(ValueError):
    """Invalid configuration; carries the offending key path."""

    def __init__(self, key: str, message: str):
        super().__init__(f"{key}: {message}")
        self.key = key


def matrix_to_json(m: np.ndarray) -> list:
    """Row-major nested lists of [re, im] pairs."""
    m = np.asarray(m, dtype=np.complex128)
    return [[[float(x.real), float(x.imag)] for x in row] for row in m]


def matrix_from_json(obj, key: str = "matrix") -> np.ndarray:
    """Parse the [re, im]-pair encoding back into a complex matrix."""
    try:
        arr = np.asarray(obj, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ConfigError(key, f"not a numeric matrix: {exc}") from None
    if arr.ndim != 3 or arr.shape[2] != 2:
        raise ConfigError(key, f"expected rows of [re, im] pairs, got shape {arr.shape}")
    return arr[..., 0] + 1j * arr[..., 1]


def _require(obj: dict, key: str, context: str):
    if not isinstance(obj, dict):
        raise ConfigError(context, "must be a JSON object")
    if key not in obj:
        raise ConfigError(f"{context}.{key}", "missing required key")
    return obj[key]


def _known_keys(obj: dict, allowed, context: str) -> None:
    """A ConfigError at ``context.<key>`` for the first key of ``obj`` not in ``allowed``."""
    unknown = sorted(set(obj) - set(allowed))
    if unknown:
        raise ConfigError(f"{context}.{unknown[0]}", "unknown configuration key")


def _family_name(spec, families, section: str) -> str:
    """The one family key of a battery or state spec; anything else is a ConfigError at ``section``."""
    if not isinstance(spec, dict) or len(spec) != 1:
        raise ConfigError(section, f"expected exactly one of {families[0]!r} or {families[1]!r}")
    return next(iter(spec))


def _family(spec: dict, name: str, keys, section: str) -> dict:
    """The ``name`` family object of a battery or state spec, holding only ``keys``."""
    p = spec[name]
    if not isinstance(p, dict):
        raise ConfigError(f"{section}.{name}", "must be a JSON object")
    _known_keys(p, keys, f"{section}.{name}")
    return p


def _number(value, key: str, kind: type = float, check=None):
    """``kind(value)`` for a finite config value; a failed conversion or ``check`` is a ConfigError at ``key``.

    A float with a fractional part is refused where an ``int`` is expected
    (tested on the float itself: 64-bit seeds do not survive a float round trip).
    """
    try:
        x = kind(value)
        if isinstance(x, float) and not math.isfinite(x):
            raise ValueError(f"must be finite, got {x}")
        if kind is int and isinstance(value, float) and not value.is_integer():
            raise ValueError(f"must be an integer, got {value}")
        if check is not None:
            check(x)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(key, str(exc)) from None
    return x


def _required_number(obj: dict, key: str, context: str, check=None) -> float:
    return _number(_require(obj, key, context), f"{context}.{key}", check=check)


def _positive(x: float) -> None:
    if not x > 0:
        raise ValueError(f"must be positive, got {x}")


def battery_from_spec(spec: dict) -> BatteryHamiltonian:
    """The battery of a spec; one the build refuses (say, an overflowing weight) is a ConfigError at its family."""
    name = _family_name(spec, BATTERY_FAMILIES, "battery")
    if name == "ising":
        p = _family(spec, "ising", ISING_KEYS, "battery")
        j1, j2, j3, b = (_required_number(p, key, "battery.ising") for key in ISING_KEYS)
        build = partial(ising_battery, j1, j2, j3, b)
    elif name == "explicit":
        p = _family(spec, "explicit", ("HA", "HB", "V", "g"), "battery")
        ha, hb, v = (
            matrix_from_json(_require(p, key, "battery.explicit"), f"battery.explicit.{key}") for key in ("HA", "HB", "V")
        )
        build = partial(battery_hamiltonian, ha, hb, v, g=_required_number(p, "g", "battery.explicit"))
    else:
        raise ConfigError("battery", f"unknown battery family {list(spec)!r}")
    try:
        return build()
    except ValueError as exc:
        raise ConfigError(f"battery.{name}", str(exc)) from None


def battery_to_spec(h: BatteryHamiltonian) -> dict:
    return {
        "explicit": {
            "HA": matrix_to_json(h.ha),
            "HB": matrix_to_json(h.hb),
            "V": matrix_to_json(h.v),
            "g": h.g,
        }
    }


def state_from_spec(spec: dict, battery: BatteryHamiltonian) -> DensityMatrix:
    _family_name(spec, STATE_FAMILIES, "state")
    if "thermal_mixture" in spec:
        p = _family(spec, "thermal_mixture", THERMAL_MIXTURE_KEYS, "state")
        alpha = _required_number(p, "alpha", "state.thermal_mixture")
        temperature = _required_number(p, "T", "state.thermal_mixture", check=_positive)
        if not 0.0 <= alpha <= 1.0:
            raise ConfigError("state.thermal_mixture.alpha", f"mixing ratio must lie in [0, 1], got {alpha}")
        tau_a = gibbs_state(battery.ha, temperature)
        tau_b = gibbs_state(battery.hb, temperature)
        try:
            return thermal_mixture_state(alpha, tau_a, tau_b)
        except ValueError as exc:
            raise ConfigError("state", str(exc)) from None
    if "matrix" in spec:
        m = matrix_from_json(spec["matrix"], "state.matrix")
        dim = battery.d**2
        if m.shape != (dim, dim):
            raise ConfigError("state.matrix", f"expected a {dim} x {dim} state for this battery, got {m.shape}")
        try:
            return DensityMatrix(m)
        except ValueError as exc:
            raise ConfigError("state.matrix", str(exc)) from None
    raise ConfigError("state", f"unknown state family {list(spec)!r}")
