import json
from dataclasses import asdict

import numpy as np
import pytest

from qbattery.battery import battery_hamiltonian, gibbs_state, ising_battery, thermal_mixture_state
from qbattery.linalg import random_hermitian
from qbattery.runner import ExperimentConfig
from qbattery.serialization import (
    ConfigError,
    _number,
    battery_from_spec,
    matrix_from_json,
    state_from_spec,
)

from oracles import battery_to_spec, matrix_to_json


def test_matrix_round_trip(rng):
    m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    again = matrix_from_json(matrix_to_json(m))
    np.testing.assert_allclose(again, m, atol=0)


def test_matrix_json_is_plain_data(rng):
    m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    text = json.dumps(matrix_to_json(m))
    np.testing.assert_allclose(matrix_from_json(json.loads(text)), m, atol=0)


def test_matrix_rejects_malformed():
    for obj in ([[1.0, 2.0]], "nope", [[[1.0, 2.0], [3.0]]]):
        with pytest.raises(ConfigError, match=r"^matrix: expected rows of \[re, im\] pairs, got shape"):
            matrix_from_json(obj)


@pytest.mark.parametrize(
    "value", ["x", "0.5", 10**399, True, None, float("nan")], ids=["x", "numeric_string", "int_400_digits", "bool", "null", "nan"]
)
def test_a_matrix_entry_is_refused_as_a_scalar_key_is(value):
    matrix = [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, value]]]
    with pytest.raises(ConfigError) as entry:
        matrix_from_json(matrix, "state.matrix")
    with pytest.raises(ConfigError) as scalar:
        _number(value, "state.matrix")
    assert str(entry.value) == str(scalar.value)


def test_battery_spec_round_trip():
    h = ising_battery(0.5, 1.0, 0.5, 0.45)
    again = battery_from_spec(battery_to_spec(h))
    np.testing.assert_allclose(again.total, h.total, atol=1e-14)
    assert again.g == h.g


def test_battery_spec_requires_known_family():
    with pytest.raises(ConfigError, match="battery"):
        battery_from_spec({"isinng": {}})
    with pytest.raises(ConfigError, match="J2"):
        battery_from_spec({"ising": {"J1": 0.5, "J3": 0.5, "b": 0.0}})


def test_explicit_battery_above_the_dimension_limit_is_a_config_error():
    d = 17
    zero = matrix_to_json(np.zeros((d, d)))
    spec = {"explicit": {"HA": zero, "HB": zero, "V": matrix_to_json(np.zeros((d * d, d * d))), "g": 1.0}}
    with pytest.raises(ConfigError) as info:
        battery_from_spec(spec)
    assert info.value.key == "battery.explicit"


def test_state_spec_thermal_and_explicit():
    h = ising_battery(0.5, 1.0, 0.5, 0.45)
    rho = state_from_spec({"thermal_mixture": {"alpha": 0.5, "T": 1.5}}, h)
    assert rho.dim == 16
    again = state_from_spec({"matrix": matrix_to_json(rho.data)}, h)
    np.testing.assert_allclose(again.data, rho.data, atol=1e-14)
    with pytest.raises(ConfigError, match="state.matrix"):
        state_from_spec({"matrix": matrix_to_json(np.eye(4))}, h)


def _equal_halves_battery(d: int) -> dict:
    """An explicit battery spec whose halves are one random Hamiltonian, so both Gibbs spectra agree.

    The interaction X (x) Y of traceless X, Y has no local part to fold into either half.
    """
    rng = np.random.default_rng(d)
    h, x, y = (random_hermitian(rng, d) for _ in range(3))
    x, y = (m - np.trace(m).real / d * np.eye(d) for m in (x, y))
    return battery_to_spec(battery_hamiltonian(h, h, np.kron(x, y), g=0.7))


@pytest.mark.parametrize(
    "battery",
    [{"ising": {"J1": 0.5, "J2": 1.0, "J3": 0.5, "b": 0.45}}, *(_equal_halves_battery(d) for d in (2, 3, 8))],
)
@pytest.mark.parametrize("alpha", [0.0, 0.3, 0.96, 1.0])
def test_a_point_runs_thermal_state_is_the_per_point_build_bitwise(battery, alpha):
    h = battery_from_spec(battery)
    rho = state_from_spec({"thermal_mixture": {"alpha": alpha, "T": 1.5}}, h)
    expected = thermal_mixture_state(alpha, gibbs_state(h.ha, 1.5), gibbs_state(h.hb, 1.5))
    assert rho.data.shape == (h.d**2, h.d**2)
    assert np.array_equal(rho.data, expected.data)


@pytest.mark.parametrize("alpha, temperature, key", [(1.2, 1.5, "alpha"), (-0.1, 1.5, "alpha"), (0.5, 0.0, "T")])
def test_thermal_mixture_spec_out_of_range(alpha, temperature, key):
    h = ising_battery(0.5, 1.0, 0.5, 0.45)
    with pytest.raises(ConfigError) as info:
        state_from_spec({"thermal_mixture": {"alpha": alpha, "T": temperature}}, h)
    assert info.value.key == f"state.thermal_mixture.{key}"


def test_config_round_trip():
    raw = {
        "protocol": "tpm",
        "battery": {"ising": {"J1": 0.5, "J2": 1.0, "J3": 0.5, "b": 0.45}},
        "state": {"thermal_mixture": {"alpha": 0.7, "T": 1.5}},
        "parameters": {"eps_grid": [0.2, 0.5, 1.0], "alpha_grid": [0.1, 0.9]},
        "sampling": {"seed": 11, "n_unitaries": 500},
    }
    cfg = ExperimentConfig.from_dict(raw)
    assert asdict(cfg) == raw
    assert asdict(ExperimentConfig.from_dict(asdict(cfg))) == raw


def test_config_rejects_unknown_keys_and_empty_grids():
    with pytest.raises(ConfigError, match="protocol"):
        ExperimentConfig.from_dict({"protocol": "nonsense"})
    with pytest.raises(ConfigError, match="grid"):
        ExperimentConfig.from_dict({"parameters": {"alpha_grid": []}})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"unexpected": 1})


def test_config_requires_seed_for_mc():
    cfg = ExperimentConfig.from_dict({"sampling": {"n_unitaries": 100}})
    with pytest.raises(ConfigError, match="seed"):
        cfg.sampler()
