"""JSON encodings for matrices, battery specs, and state specs.

Complex matrices serialize as row-major nested lists of [re, im] pairs.
Battery and state specs are either named families or explicit matrices:

    {"ising": {"J1": 0.5, "J2": 1.0, "J3": 0.5, "b": 0.45}}
    {"explicit": {"HA": M, "HB": M, "V": M, "g": 1.0}}

    {"thermal_mixture": {"alpha": 0.96, "T": 1.5}}
    {"matrix": M}

The thermal-mixture state derives its marginals from the battery's local
Hamiltonians at the given temperature.
"""

from __future__ import annotations

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
    if key not in obj:
        raise ConfigError(f"{context}.{key}", "missing required key")
    return obj[key]


def battery_from_spec(spec: dict) -> BatteryHamiltonian:
    if not isinstance(spec, dict) or len(spec) != 1:
        raise ConfigError("battery", "expected exactly one of 'ising' or 'explicit'")
    if "ising" in spec:
        p = spec["ising"]
        return ising_battery(
            j1=float(_require(p, "J1", "battery.ising")),
            j2=float(_require(p, "J2", "battery.ising")),
            j3=float(_require(p, "J3", "battery.ising")),
            b=float(_require(p, "b", "battery.ising")),
        )
    if "explicit" in spec:
        p = spec["explicit"]
        return battery_hamiltonian(
            ha=matrix_from_json(_require(p, "HA", "battery.explicit"), "battery.explicit.HA"),
            hb=matrix_from_json(_require(p, "HB", "battery.explicit"), "battery.explicit.HB"),
            v=matrix_from_json(_require(p, "V", "battery.explicit"), "battery.explicit.V"),
            g=float(_require(p, "g", "battery.explicit")),
        )
    raise ConfigError("battery", f"unknown battery family {list(spec)!r}")


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
    if not isinstance(spec, dict) or len(spec) != 1:
        raise ConfigError("state", "expected exactly one of 'thermal_mixture' or 'matrix'")
    if "thermal_mixture" in spec:
        p = spec["thermal_mixture"]
        alpha = float(_require(p, "alpha", "state.thermal_mixture"))
        temperature = float(_require(p, "T", "state.thermal_mixture"))
        if not 0.0 <= alpha <= 1.0:
            raise ConfigError("state.thermal_mixture.alpha", f"mixing ratio must lie in [0, 1], got {alpha}")
        if temperature <= 0:
            raise ConfigError("state.thermal_mixture.T", f"temperature must be positive, got {temperature}")
        tau_a = gibbs_state(battery.ha, temperature)
        tau_b = gibbs_state(battery.hb, temperature)
        return thermal_mixture_state(alpha, tau_a, tau_b)
    if "matrix" in spec:
        m = matrix_from_json(spec["matrix"], "state.matrix")
        try:
            return DensityMatrix(m)
        except ValueError as exc:
            raise ConfigError("state.matrix", str(exc)) from None
    raise ConfigError("state", f"unknown state family {list(spec)!r}")
