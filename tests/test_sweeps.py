"""The stacked sweeps against their per-point oracles, row by row and bit for bit."""

import numpy as np
import pytest

from qbattery.battery import gibbs_state, ising_battery, spectral_decomposition, thermal_mixture_stack, thermal_mixture_state
from qbattery.runner import ExperimentConfig, run_tpm_sweep, run_variance_sweep
from qbattery.tpm import tpm_variance_closed_form
from qbattery.witness import detect_schmidt_number, detect_schmidt_number_stack


def _taus(h, temperature=1.5):
    return gibbs_state(h.ha, temperature), gibbs_state(h.hb, temperature)


def test_every_default_variance_sweep_row_is_the_per_point_witness():
    rows = run_variance_sweep(ExperimentConfig())
    assert len(rows) == 494
    taus = {}
    for row in rows:
        h = ising_battery(row["J1"], row["J2"], row["J3"], row["b"])
        if row["b"] not in taus:
            taus[row["b"]] = _taus(h, row["T"])
        rep = detect_schmidt_number(thermal_mixture_state(row["alpha"], *taus[row["b"]]), h)
        assert row["variance"] == rep.variance_used
        assert row["detected_sn"] == rep.detected_sn_lower_bound
        assert row["ppt_min_eig"] == rep.ppt_min_eig
        bounds = {key: value for key, value in row.items() if key.startswith("bound_k")}
        assert bounds == {f"bound_k{k}": bound for k, bound in rep.thresholds[:-1]}
        assert type(row["variance"]) is float and type(row["detected_sn"]) is int


def test_every_default_tpm_sweep_row_is_the_per_point_closed_form():
    rows = run_tpm_sweep(ExperimentConfig(protocol="tpm"))
    assert len(rows) == 63
    h = ising_battery(0.5, 1.0, 0.5, 0.45)
    spec = spectral_decomposition(h)
    taus = _taus(h)
    for row in rows:
        rep = tpm_variance_closed_form(thermal_mixture_state(row["alpha"], *taus), spec, row["eps_a"], row["eps_b"])
        assert row["var_tpm"] == rep.var_tpm
        assert row["var_diag"] == rep.var_diag
        assert (row["n0"], row["n1"], row["n_noisy"]) == (rep.weights.n0, rep.weights.n1, rep.weights.n_noisy)


def test_mixture_stack_rows_are_the_mixture_states():
    h = ising_battery(0.4, 1.0, 0.4, 0.3)
    alphas = [0.0, 0.125, 0.3, 0.96, 1.0]
    stack = thermal_mixture_stack(alphas, *_taus(h, 1.2))
    assert stack.shape == (5, 16, 16)
    for alpha, m in zip(alphas, stack):
        assert np.array_equal(m, thermal_mixture_state(alpha, *_taus(h, 1.2)).data)


@pytest.mark.parametrize("alphas", [[0.5, 1.5], [-0.1], [float("nan")], [[0.5]]])
def test_mixture_stack_rejects_ratios_outside_the_unit_interval(alphas):
    h = ising_battery(0.5, 1.0, 0.5, 0.45)
    with pytest.raises(ValueError, match="mixing ratios"):
        thermal_mixture_stack(alphas, *_taus(h))


def test_mixture_stack_validates_its_endpoints():
    h = ising_battery(0.5, 1.0, 0.5, 0.45)
    tau_a, tau_b = _taus(h)
    with pytest.raises(ValueError, match="incompatible marginals"):
        thermal_mixture_stack([0.5], tau_a, gibbs_state(ising_battery(0.5, 1.0, 0.9, 0.45).hb, 1.5))
    with pytest.raises(ValueError, match="unit trace"):
        thermal_mixture_stack([0.5], tau_a.data * 2, tau_b.data * 2)


def test_witness_stack_rejects_a_wrongly_shaped_stack():
    h = ising_battery(0.5, 1.0, 0.5, 0.45)
    with pytest.raises(ValueError, match="expected a 16 x 16 state"):
        detect_schmidt_number_stack(np.zeros((3, 9, 9)), h)


def test_witness_stack_raises_when_the_routes_disagree(monkeypatch):
    h = ising_battery(0.5, 1.0, 0.5, 0.45)
    stack = thermal_mixture_stack([0.0, 0.96], *_taus(h))
    import qbattery.witness as witness

    real = witness.purity
    # halve tr[rho^2] but not the marginal purities: the purity route then certifies less
    monkeypatch.setattr(witness, "purity", lambda m: real(m) * (0.5 if m.shape[-1] == 16 else 1.0))
    with pytest.raises(RuntimeError, match="variance route 4, purity route 2"):
        detect_schmidt_number_stack(stack, h)
