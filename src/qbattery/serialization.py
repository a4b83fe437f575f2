"""JSON encodings for matrices, battery specs, and state specs.

Complex matrices serialize as row-major nested lists of [re, im] pairs.
Battery and state specs are either named families or explicit matrices:

    {"ising": {"J1": 0.5, "J2": 1.0, "J3": 0.5, "b": 0.45}}
    {"explicit": {"HA": M, "HB": M, "V": M, "g": 1.0}}

    {"thermal_mixture": {"alpha": 0.96, "T": 1.5}}
    {"matrix": M}

The thermal-mixture state derives its marginals from the battery's local
Hamiltonians at the given temperature.  A family object holds only the keys
shown, and every number must be finite.  This is the one module that reads
these formats; ``thermal_mixtures`` builds a point run's state and a sweep's.
"""

from __future__ import annotations

import math
from functools import partial

import numpy as np

from .battery import (
    BatteryHamiltonian,
    _check_alpha,
    _check_temperature,
    battery_hamiltonian,
    gibbs_state,
    ising_battery,
    thermal_mixture_stack,
)
from .linalg import DensityMatrix
from .workstats import _state_data

__all__ = [
    "ConfigError",
    "matrix_from_json",
    "battery_from_spec",
    "ising_params",
    "state_from_spec",
    "thermal_mixtures",
]


ISING_KEYS = ("J1", "J2", "J3", "b")
#: The keys of each family's object, per section; a ``matrix`` state is a matrix, not an object.
FAMILIES = {
    "battery": {"ising": ISING_KEYS, "explicit": ("HA", "HB", "V", "g")},
    "state": {"thermal_mixture": ("alpha", "T"), "matrix": None},
}


class ConfigError(ValueError):
    """Invalid configuration; carries the offending key path."""

    def __init__(self, key: str, message: str):
        super().__init__(f"{key}: {message}")
        self.key = key


def matrix_from_json(obj, key: str = "matrix") -> np.ndarray:
    """Parse the [re, im]-pair encoding back into a complex matrix; each entry is a config number (``_number``).

    ``asarray`` converts the whole matrix at once but takes numeric strings, bools and null, and
    refuses "x" or an int beyond the float range in its own words: so unless every entry is a finite
    int or float, each goes through ``_number``.  Only bad nesting has a message of its own.
    """
    try:
        arr = np.asarray(obj, dtype=np.float64)
    except (TypeError, ValueError, OverflowError):
        arr = np.asarray(obj, dtype=object)  # an entry no float takes, or ragged nesting
    if arr.ndim != 3 or arr.shape[2] != 2:
        raise ConfigError(key, f"expected rows of [re, im] pairs, got shape {arr.shape}")
    numbers = arr.dtype != object and {type(x) for row in obj for pair in row for x in pair} <= {int, float}
    if not (numbers and np.isfinite(arr).all()):
        for x in np.asarray(obj, dtype=object).flat:
            _number(x, key)  # refuses the first entry that is no finite number
    return arr[..., 0] + 1j * arr[..., 1]


def _require(obj: dict, key: str, context: str):
    if key not in obj:
        raise ConfigError(f"{context}.{key}", "missing required key")
    return obj[key]


def _family(spec, section: str) -> tuple[str, object]:
    """The one family of a battery or state spec and its value; a family object holds only its family's keys."""
    families = FAMILIES[section]
    if not isinstance(spec, dict) or len(spec) != 1:
        raise ConfigError(section, f"expected exactly one of {' or '.join(map(repr, families))}")
    [(name, p)] = spec.items()
    if name not in families:
        raise ConfigError(section, f"unknown {section} family {[name]!r}")
    if families[name] is not None:
        if not isinstance(p, dict):
            raise ConfigError(f"{section}.{name}", "must be a JSON object")
        unknown = sorted(set(p) - set(families[name]))
        if unknown:
            raise ConfigError(f"{section}.{name}.{unknown[0]}", "unknown configuration key")
    return name, p


def _number(value, key: str, kind: type = float, check=None):
    """``kind(value)`` for a finite config value; a failed conversion or ``check`` is a ConfigError at ``key``.

    Only a JSON number is one: a bool or a numeric string is refused.  A
    float with a fractional part is refused where an ``int`` is expected
    (tested on the float itself: 64-bit seeds do not survive a float round trip).
    """
    try:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise TypeError(f"must be a number, got {value!r}")
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


def battery_from_spec(spec: dict) -> BatteryHamiltonian:
    """The battery of a spec; one the build refuses (say, an overflowing weight) is a ConfigError at its family."""
    name, p = _family(spec, "battery")
    if name == "ising":
        build = partial(ising_battery, *(_required_number(p, key, "battery.ising") for key in ISING_KEYS))
    else:
        ha, hb, v = (
            matrix_from_json(_require(p, key, "battery.explicit"), f"battery.explicit.{key}") for key in ("HA", "HB", "V")
        )
        build = partial(battery_hamiltonian, ha, hb, v, g=_required_number(p, "g", "battery.explicit"))
    try:
        return build()
    except ValueError as exc:
        raise ConfigError(f"battery.{name}", str(exc)) from None


def ising_params(spec: dict) -> dict:
    """The numbers given in a sweep's ``ising`` battery spec; ``battery_from_spec`` reports missing ones."""
    name, p = _family(spec, "battery")
    if name != "ising":
        raise ConfigError("battery", "this sweep requires the 'ising' battery family")
    return {key: _number(p[key], f"battery.ising.{key}") for key in ISING_KEYS if key in p}


def thermal_mixtures(spec: dict, batteries: list[BatteryHamiltonian], alphas: list[float]) -> tuple[float, np.ndarray]:
    """The temperature of a ``thermal_mixture`` state spec and its states on each battery, (B, A, d^2, d^2).

    Row b holds the mixtures of battery b's halves' Gibbs states at every
    ratio of ``alphas``, built from one stacked ``gibbs_state`` and one
    ``thermal_mixture_stack``.  Another state family, and marginals that no
    correlated pure state has, are a ConfigError at ``state``.
    """
    name, p = _family(spec, "state")
    if name != "thermal_mixture":
        raise ConfigError("state", "this sweep requires the 'thermal_mixture' state family")
    temperature = _required_number(p, "T", "state.thermal_mixture", check=_check_temperature)
    try:
        taus = gibbs_state(np.stack([(h.ha, h.hb) for h in batteries]), temperature)
        return temperature, thermal_mixture_stack(alphas, taus[:, 0], taus[:, 1])
    except ValueError as exc:
        raise ConfigError("state", str(exc)) from None


def state_from_spec(spec: dict, battery: BatteryHamiltonian) -> DensityMatrix:
    """The state of a spec on this battery; a thermal mixture is the stack of one of ``thermal_mixtures``."""
    name, p = _family(spec, "state")
    if name == "thermal_mixture":
        alpha = _required_number(p, "alpha", "state.thermal_mixture", check=_check_alpha)
        return DensityMatrix(thermal_mixtures(spec, [battery], [alpha])[1][0, 0])
    m = matrix_from_json(p, "state.matrix")
    try:
        rho = DensityMatrix(m)
        _state_data(rho, battery.d)
    except ValueError as exc:
        raise ConfigError("state.matrix", str(exc)) from None
    return rho
