"""The stacked sweeps and Monte-Carlo passes against their per-point oracles, row by row and bit for bit."""

import numpy as np
import pytest

import qbattery.runner as runner
from qbattery.battery import gibbs_state, ising_battery, spectral_decomposition, thermal_mixture_stack, thermal_mixture_state
from qbattery.haar import SamplerConfig, chunk_size
from qbattery.runner import ExperimentConfig, run_tpm_sweep, run_variance_sweep
from qbattery.tpm import mc_tpm_statistics, tpm_variance_closed_form
from qbattery.witness import detect_schmidt_number, detect_schmidt_number_stack
from qbattery.workstats import iter_samples, summarize

from conftest import tag_chunks


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


# 2 alpha x 2 eps at n = 4,101: two chunks of the d = 4 stream, the second holding 5 pairs
_MC_SWEEP = {
    "protocol": "tpm",
    "parameters": {"alpha_grid": [0.0, 0.96], "eps_grid": [0.5, 1.0]},
    "sampling": {"seed": 3, "n_unitaries": 4101},
}
_TWIRL_CHECKS = ["single_copy_twirl_vs_mc", "two_copy_twirl_vs_mc", "two_copy_local_twirl_vs_mc"]


def _per_probe_check(sample, probes, targets, d, n, cfg):
    """Verify's probe check with one Monte-Carlo pass per probe."""
    deviations = []
    for p, target in zip(probes, targets):
        [stats] = summarize(iter_samples(lambda ua, ub: sample(ua, ub, p), d, n, cfg))
        deviations.append(abs(stats.mean - target) / (stats.se_mean + 1e-12))
    return {"deviation": max(deviations)}


def _run_check(name, d, n):
    idx = list(runner.CHECKS).index(name)
    return runner.CHECKS[name](np.random.default_rng(99 + idx), d, n, SamplerConfig(d=d, seed=99, stream=idx))


def test_every_monte_carlo_tpm_sweep_row_is_the_point_estimator():
    rows = run_tpm_sweep(ExperimentConfig.from_dict(_MC_SWEEP))
    assert len(rows) == 4
    h = ising_battery(0.5, 1.0, 0.5, 0.45)
    spec = spectral_decomposition(h)
    taus = _taus(h)
    for row in rows:
        rho = thermal_mixture_state(row["alpha"], *taus)
        stats = mc_tpm_statistics(rho, spec, row["eps_a"], row["eps_b"], 4101, SamplerConfig(d=4, seed=3))
        assert stats.n_samples == 4101
        assert (row["mc_mean"], row["mc_variance"], row["mc_se_variance"]) == (stats.mean, stats.variance, stats.se_variance)


@pytest.mark.parametrize("d", [2, 4])
@pytest.mark.parametrize("name", _TWIRL_CHECKS)
def test_each_twirl_check_deviation_is_its_per_probe_reference(monkeypatch, name, d):
    stacked = _run_check(name, d, 4101)
    monkeypatch.setattr(runner, "_probe_check", _per_probe_check)
    assert stacked == _run_check(name, d, 4101)


def test_a_monte_carlo_tpm_sweep_draws_each_chunk_once(monkeypatch):
    _, drawn = tag_chunks(monkeypatch)
    run_tpm_sweep(ExperimentConfig.from_dict(_MC_SWEEP))
    assert sorted(drawn) == [0, 1]


@pytest.mark.parametrize("name, kernel", zip(_TWIRL_CHECKS, ["conjugation_traces", "pair_traces", "pair_traces"]))
def test_a_twirl_check_calls_its_kernel_once_per_chunk(monkeypatch, name, kernel):
    """All of a check's probes are read from one call on the chunk, not one call per probe."""
    traces, calls = getattr(runner, kernel), []

    def counted(*args):
        calls.append(len(args[0]))
        return traces(*args)

    monkeypatch.setattr(runner, kernel, counted)
    _run_check(name, 2, 4101)
    assert sorted(calls) == [5, 4096]


@pytest.mark.parametrize("d, n", [(2, 4101), (4, 9000), (8, 2500)])
def test_a_twirl_check_draws_each_chunk_once(monkeypatch, d, n):
    _, drawn = tag_chunks(monkeypatch)
    _run_check("two_copy_twirl_vs_mc", d, n)
    assert sorted(drawn) == list(range(-(-n // chunk_size(d))))
