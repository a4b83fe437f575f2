"""The stacked sweeps and Monte-Carlo passes against their per-point oracles, row by row and bit for bit."""

import csv
import json
import re
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest

import qbattery.bloch as bloch
import qbattery.linalg as linalg
import qbattery.runner as runner
import qbattery.tpm as tpm
from qbattery.battery import gibbs_state, ising_battery, spectral_decomposition, thermal_mixture_stack, thermal_mixture_state
from qbattery.cli import main
from qbattery.haar import SamplerConfig, chunk_size
from qbattery.linalg import partial_transpose_min_eig, random_density_matrix, random_hermitian
from qbattery.runner import ExperimentConfig, run_histogram, run_tpm_sweep, run_variance_sweep
from qbattery.serialization import ConfigError, thermal_mixtures
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
        bounds = {key: row[key] for key in rows.dtype.names if key.startswith("bound_k")}
        assert bounds == {f"bound_k{k}": bound for k, bound in rep.thresholds[:-1]}
    assert all(rows.dtype[key] == (np.int64 if key == "detected_sn" else np.float64) for key in rows.dtype.names)


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


_B_GRID = [0.0, 0.05, 0.45, 0.9]  # b = 0 leaves each half's Gibbs spectrum degenerate


def _marginal_pairs(temperature=1.5):
    """Marginal pairs of Ising batteries over ``_B_GRID`` and of two random batteries with equal spectra, stacked (B, 2, d, d)."""
    hs = [np.stack([h.ha, h.hb]) for h in (ising_battery(0.5, 1.0, 0.5, b) for b in _B_GRID)]
    rng = np.random.default_rng(31)
    for _ in range(2):
        ha = random_hermitian(rng, 4)
        u = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))[0]
        hs.append(np.stack([ha, u @ ha @ u.conj().T]))
    return np.stack(hs), temperature


def test_stacked_gibbs_states_are_the_per_hamiltonian_calls_bitwise():
    hamiltonians, temperature = _marginal_pairs()
    taus = gibbs_state(hamiltonians, temperature)
    assert taus.shape == hamiltonians.shape
    for tau_pair, h_pair in zip(taus, hamiltonians):
        for tau, h in zip(tau_pair, h_pair):
            assert np.array_equal(tau, gibbs_state(h, temperature).data)


def test_mixture_stack_of_marginal_pairs_is_the_per_pair_calls_bitwise():
    taus = gibbs_state(*_marginal_pairs())
    alphas = [0.0, 0.3, 0.96, 1.0]
    stack = thermal_mixture_stack(alphas, taus[:, 0], taus[:, 1])
    assert stack.shape == (len(taus), 4, 16, 16)
    for row, (tau_a, tau_b) in zip(stack, taus):
        assert np.array_equal(row, thermal_mixture_stack(alphas, tau_a, tau_b))
    nested = thermal_mixture_stack(alphas, taus[None, :, 0], taus[None, :, 1])
    assert np.array_equal(nested[0], stack)


@pytest.mark.parametrize("k", [0, 2, 4])
@pytest.mark.parametrize("defect", ["spectra", "trace"])
def test_mixture_stack_raises_what_the_first_failing_pair_raises(k, defect):
    taus = gibbs_state(*_marginal_pairs())
    tau_a, tau_b = taus[:, 0].copy(), taus[:, 1].copy()
    if defect == "spectra":
        tau_b[k] = gibbs_state(ising_battery(0.5, 1.0, 0.9, 0.45).hb, 1.5).data
    else:
        tau_a[k] *= 2
        tau_b[k] *= 2
    # a later pair with the other defect must not be the one reported
    tau_b[-1] = tau_b[-1] * 2 if defect == "spectra" else gibbs_state(ising_battery(0.5, 1.0, 0.9, 0.45).hb, 1.5).data
    with pytest.raises(ValueError) as alone:
        thermal_mixture_stack([0.5], tau_a[k], tau_b[k])
    with pytest.raises(ValueError) as stacked:
        thermal_mixture_stack([0.5], tau_a, tau_b)
    assert str(stacked.value) == str(alone.value)
    assert ("incompatible marginals" if defect == "spectra" else "unit trace") in str(stacked.value)


def test_witness_stack_with_per_battery_weights_is_the_per_battery_calls_bitwise():
    batteries = [ising_battery(0.5, 1.0, 0.5, b) for b in _B_GRID]
    alphas = [0.0, 0.5, 0.96, 1.0]
    states = np.stack([thermal_mixture_stack(alphas, *_taus(h)) for h in batteries])
    weights = (np.array([[getattr(h, w)] for h in batteries]) for w in ("ha2", "hb2", "g2v2"))
    stacked = detect_schmidt_number_stack(states, 4, *weights)
    for i, h in enumerate(batteries):
        alone = detect_schmidt_number_stack(states[i], 4, h.ha2, h.hb2, h.g2v2)
        for name, column in stacked._asdict().items():
            assert np.array_equal(column[i], getattr(alone, name)), name


def _block_rows(monkeypatch, budget, config, run=run_variance_sweep):
    monkeypatch.setattr(runner, "_SWEEP_BLOCK_BYTES", budget)
    return run(ExperimentConfig.from_dict(config))


# 2 alpha x 3 eps at n = 4,101: two chunks of the d = 4 stream, the second holding 5 pairs
_MC_SWEEP = {
    "protocol": "tpm",
    "parameters": {"alpha_grid": [0.0, 0.96], "eps_grid": [0.0, 0.5, 1.0]},
    "sampling": {"seed": 3, "n_unitaries": 4101},
}


@pytest.mark.parametrize(
    "run, config",
    [(run_variance_sweep, {}), (run_tpm_sweep, {"protocol": "tpm"}), (run_tpm_sweep, _MC_SWEEP)],
    ids=["variance", "tpm", "tpm_mc"],
)
@pytest.mark.parametrize("states", [1 / 4096, 7, 20, 60])
def test_the_variance_sweep_block_walk_moves_no_bits(monkeypatch, run, config, states):
    """Every budget gives either sweep's one-block rows, bit for bit and field types included.

    One byte is one state per block, 7 states are parts of a b row, 20 are one fewer than the default TPM
    sweep's 21 alphas (a row in two parts), and 60 hold two of the variance sweep's 26-alpha b rows.
    """
    rows = run(ExperimentConfig.from_dict(config))
    walked = _block_rows(monkeypatch, int(states * 16**2 * 16), config, run)
    assert np.array_equal(walked, rows) and walked.dtype == rows.dtype
    assert walked.tobytes() == rows.tobytes()


@pytest.mark.parametrize(
    "n_alphas, eps_grid, gate_mib",
    [(2000, [0.2, 0.5, 1.0], 16), (200, np.linspace(0.0, 1.0, 20).tolist(), 8)],
    ids=["3_eps", "20_eps"],
)
def test_a_monte_carlo_tpm_sweep_peak_memory_is_bounded_by_the_block_budget(monkeypatch, n_alphas, eps_grid, gate_mib):
    """A budget of 64 states' bytes (1 MiB), which counts each state's Xi per eps.

    2,000 alphas alone take 7.8 MiB and their three Xi stacks 23 MiB; 200 alphas' twenty Xi stacks take 16 MiB,
    so a block of 64 states without its Xi in the budget peaks near 14 MiB.
    """
    grid = {"alpha_grid": np.linspace(0.0, 1.0, n_alphas).tolist(), "eps_grid": eps_grid}
    config = {"protocol": "tpm", "parameters": grid, "sampling": {"seed": 1, "n_unitaries": 50}}
    monkeypatch.setattr(runner, "_SWEEP_BLOCK_BYTES", 64 * 16**2 * 16)
    tracemalloc.start()
    try:
        rows = run_tpm_sweep(ExperimentConfig.from_dict(config))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(rows) == n_alphas * len(eps_grid) and peak < gate_mib * 2**20, peak


def test_a_fine_histogram_peak_memory_is_its_table():
    """README's histogram at n = 20,000 and bin width 1e-5 has 197,402 bins: 4.5 MiB as a table, 47 MiB as row dicts."""
    config = {"protocol": "histogram", "parameters": {"bin_width": 1e-5}, "sampling": {"seed": 11, "n_unitaries": 20_000}}
    tracemalloc.start()
    try:
        rows, _ = run_histogram(ExperimentConfig.from_dict(config))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(rows) == 197_402 and peak < 24 * 2**20, peak


def test_every_non_default_variance_sweep_row_is_the_per_point_witness(monkeypatch):
    grid = {"b_grid": [0.0, 0.9], "alpha_grid": [0.0, 0.5, 1.0]}
    for budget in (runner._SWEEP_BLOCK_BYTES, 1):
        rows = _block_rows(monkeypatch, budget, {"parameters": grid})
        assert [(row["b"], row["alpha"]) for row in rows] == [(b, a) for b in grid["b_grid"] for a in grid["alpha_grid"]]
        for row in rows:
            h = ising_battery(row["J1"], row["J2"], row["J3"], row["b"])
            rep = detect_schmidt_number(thermal_mixture_state(row["alpha"], *_taus(h, row["T"])), h)
            assert (row["variance"], row["detected_sn"], row["ppt_min_eig"]) == (rep.variance_used, rep.detected_sn_lower_bound, rep.ppt_min_eig)
            assert [row[f"bound_k{k}"] for k in range(1, 4)] == [bound for _, bound in rep.thresholds[:-1]]


@pytest.mark.parametrize(
    "config, message",
    [
        ({"parameters": {"b_grid": [0.1, 1e308, 0.2]}}, "parameters.b_grid: b = 1e+308: ha has a non-finite entry"),
        ({"parameters": {"b_grid": [0.1, 1e200]}}, "parameters.b_grid: b = 1e+200: the weight ha2 = inf is not finite"),
        ({"battery": {"ising": {"J1": 0.5, "J2": 1e200, "J3": 0.5}}}, "battery.ising: the weight g^2 v2 = inf is not finite"),
        (
            {"battery": {"ising": {"J1": 0.5, "J2": 1e200, "J3": 0.5}}, "parameters": {"b_grid": [1e308]}},
            "battery.ising: the weight g^2 v2 = inf is not finite",
        ),
        ({"battery": {"ising": {"J2": 1.0, "J3": 0.5}}}, "battery.ising.J1: missing required key"),
    ],
)
def test_a_variance_sweep_refuses_its_first_failing_field_at_its_grid_and_failing_couplings_as_theirs(config, message):
    with pytest.raises(ConfigError) as exc:
        run_variance_sweep(ExperimentConfig.from_dict(config))
    assert str(exc.value) == message


def _ising_ppt_oracle(j, temperature, b, alpha):
    """Least eigenvalue of a thermal mixture's partial transpose, from the shared Gibbs spectrum p of either half.

    Each half of the Ising chain (J1 = J3 = j) has the energies j + 2b, -j, -j, j - 2b.  The partial transpose of
    alpha |phi><phi| + (1 - alpha) tau (x) tau, |phi> = sum_i sqrt(p_i) |e_i f_i>, has the eigenvalues
    alpha p_i + (1 - alpha) p_i^2 and, for i < k, (1 - alpha) p_i p_k +- alpha sqrt(p_i p_k).
    """
    energies = np.array([j + 2 * b, -j, -j, j - 2 * b])
    p = np.exp(-(energies - energies.min()) / temperature)
    p /= p.sum()
    i, k = np.triu_indices(4, 1)
    pairs = np.sqrt(p[i] * p[k])
    spectrum = [alpha * p + (1 - alpha) * p**2, (1 - alpha) * pairs**2 + alpha * pairs, (1 - alpha) * pairs**2 - alpha * pairs]
    return min(x.min() for x in spectrum)


def _ppt_grid(seed):
    if seed is None:
        return ExperimentConfig()
    rng = np.random.default_rng(seed)
    j, j2, temperature = rng.uniform(0.1, 2.0), rng.uniform(0.1, 2.0), rng.uniform(0.3, 3.0)
    grid = {"b_grid": rng.uniform(-2.0, 2.0, 7).tolist(), "alpha_grid": [0.0, 1.0, *rng.uniform(0.0, 1.0, 9).tolist()]}
    battery = {"ising": {"J1": j, "J2": j2, "J3": j, "b": 0.0}}
    return ExperimentConfig.from_dict({"battery": battery, "state": {"thermal_mixture": {"alpha": 0.5, "T": temperature}}, "parameters": grid})


@pytest.mark.parametrize("seed", [None, 1, 2, 3])
def test_ppt_min_eig_is_the_closed_form_partial_transpose_spectrum_and_each_solver_route_is_exact(seed):
    """The sweep's ppt_min_eig column against the thermal mixture's closed-form partial-transpose spectrum.

    Those states are real, so their partial transposes go to the real eigensolver: it agrees with the complex one
    to 1e-14, and in a stack that mixes real and complex states each entry is bitwise its call alone.
    """
    cfg = _ppt_grid(seed)
    rows = run_variance_sweep(cfg)
    for row in rows:
        oracle = _ising_ppt_oracle(row["J1"], row["T"], row["b"], row["alpha"])
        assert abs(row["ppt_min_eig"] - oracle) <= 1e-12
    batteries = [ising_battery(row["J1"], row["J2"], row["J3"], row["b"]) for row in rows[:: len(set(rows["alpha"]))]]
    states = thermal_mixtures(cfg.state, batteries, sorted(set(rows["alpha"].tolist())))[1].reshape(-1, 16, 16)
    assert not np.any(states.imag)
    transposed = states.reshape(-1, 4, 4, 4, 4).swapaxes(1, 3).reshape(states.shape)
    assert np.max(np.abs(partial_transpose_min_eig(states, 4) - np.linalg.eigvalsh(transposed)[:, 0])) <= 1e-14
    rng = np.random.default_rng([17, seed or 0])
    mixed = np.stack([m for real in states[:6] for m in (real, random_density_matrix(rng, 16).data)]).reshape(2, 6, 16, 16)
    stacked = partial_transpose_min_eig(mixed, 4)
    assert stacked.shape == (2, 6)
    for m, value in zip(mixed.reshape(-1, 16, 16), stacked.ravel()):
        assert value == partial_transpose_min_eig(m, 4)


def test_witness_stack_rejects_a_wrongly_shaped_stack():
    h = ising_battery(0.5, 1.0, 0.5, 0.45)
    with pytest.raises(ValueError, match="expected a 16 x 16 state"):
        detect_schmidt_number_stack(np.zeros((3, 9, 9)), h.d, h.ha2, h.hb2, h.g2v2)


def test_witness_stack_raises_when_the_routes_disagree(monkeypatch):
    h = ising_battery(0.5, 1.0, 0.5, 0.45)
    stack = thermal_mixture_stack([0.0, 0.96], *_taus(h))
    import qbattery.witness as witness

    real = witness.purity
    # halve tr[rho^2] but not the marginal purities: the purity route then certifies less
    monkeypatch.setattr(witness, "purity", lambda m: real(m) * (0.5 if m.shape[-1] == 16 else 1.0))
    with pytest.raises(RuntimeError, match="variance route 4, purity route 2"):
        detect_schmidt_number_stack(stack, h.d, h.ha2, h.hb2, h.g2v2)


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
    return runner.CHECKS[name](np.random.default_rng(99 + idx), d, n, SamplerConfig(seed=99, stream=idx))


def test_every_monte_carlo_tpm_sweep_row_is_the_point_estimator():
    rows = run_tpm_sweep(ExperimentConfig.from_dict(_MC_SWEEP))
    assert len(rows) == 6
    h = ising_battery(0.5, 1.0, 0.5, 0.45)
    spec = spectral_decomposition(h)
    taus = _taus(h)
    for row in rows:
        rho = thermal_mixture_state(row["alpha"], *taus)
        stats = mc_tpm_statistics(rho, spec, row["eps_a"], row["eps_b"], 4101, SamplerConfig(seed=3))
        assert stats.n_samples == 4101
        assert {key: row[f"mc_{key}"] for key in asdict(stats)} == asdict(stats)


_HISTOGRAM = {"protocol": "histogram", "parameters": {"bin_width": 0.01}, "sampling": {"seed": 11, "n_unitaries": 2000}}


@pytest.mark.parametrize(
    "command, config, run, ints",
    [
        ("sweep", {"parameters": {"b_grid": [0.45], "alpha_grid": [0.08, 0.96]}}, run_variance_sweep, {"detected_sn"}),
        ("sweep", _MC_SWEEP, run_tpm_sweep, {"mc_n_samples"}),
        ("histogram", _HISTOGRAM, lambda cfg: run_histogram(cfg)[0], {"count"}),
    ],
    ids=["variance", "tpm_mc", "histogram"],
)
def test_the_cli_csv_and_json_rows_are_the_table(tmp_path, command, config, run, ints):
    """The CSV header is the table's field names, every float cell parses back bit for bit, every int field is an int
    literal, and the ``--format json`` rows are the table's ``tolist`` rows as dicts (a histogram's summary, its sidecar's)."""
    rows = run(ExperimentConfig.from_dict(config))
    path, out = tmp_path / "config.json", tmp_path / "rows.csv"
    path.write_text(json.dumps(config))
    assert main([command, "--config", str(path), "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        assert fh.readline().startswith("# schema=qbattery.")
        header, *cells = csv.reader(fh)
    assert tuple(header) == rows.dtype.names and len(cells) == len(rows)
    assert {name for name in header if rows.dtype[name] == np.int64} == ints
    for name, column in zip(header, zip(*cells)):
        if name in ints:
            assert all(re.fullmatch(r"-?[0-9]+", cell) for cell in column)
            assert [int(cell) for cell in column] == rows[name].tolist()
        else:
            assert np.array([float(cell) for cell in column]).tobytes() == rows[name].tobytes(), name
    assert main([command, "--config", str(path), "--format", "json", "--out", str(out)]) == 0
    document = json.loads(out.read_text())
    assert document["bins" if command == "histogram" else "rows"] == [dict(zip(rows.dtype.names, row)) for row in rows.tolist()]
    if command == "histogram":  # the CSV run's sidecar holds the summary the JSON run writes
        assert json.loads((tmp_path / "rows.csv.summary.json").read_text()) == document["summary"]


@pytest.mark.parametrize("d", [2, 4])
@pytest.mark.parametrize("name", _TWIRL_CHECKS)
def test_each_twirl_check_deviation_is_its_per_probe_reference(monkeypatch, name, d):
    stacked = _run_check(name, d, 4101)
    monkeypatch.setattr(runner, "_probe_check", _per_probe_check)
    assert stacked == _run_check(name, d, 4101)


def test_verify_passes_with_the_gell_mann_route_refused(monkeypatch):
    """The proof check reads explicit dephasing, so verify runs with every Gell-Mann entry point raising."""

    def refuse(*args, **kwargs):
        raise AssertionError("verify read the Gell-Mann route")

    for module in (bloch, tpm, runner):
        for name in ("gell_mann_basis", "bloch_decompose", "tpm_spectral_stats"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    report = runner.run_verify(ExperimentConfig.from_dict({"parameters": {"d": 2}, "sampling": {"n_unitaries": 1500}}))
    assert report["passed"]
    [proof] = [check for check in report["checks"] if check["name"] == "proof_inequalities"]
    assert set(proof["detail"]) == {"min_slack", "length_dev"}


@pytest.mark.parametrize("dephasing", ["state", "joint", "local_a", "local_b"])
@pytest.mark.parametrize("sector", range(3))
def test_a_dephased_length_off_by_1e8_relative_fails_the_proof_check(monkeypatch, dephasing, sector):
    exact = runner._dephased_sectors

    def perturbed(states, spec):
        sectors = exact(states, spec)
        lengths = list(sectors[dephasing])
        lengths[sector] *= 1 + 1e-8
        return {**sectors, dephasing: tuple(lengths)}

    assert _run_check("proof_inequalities", 2, 0)["deviation"] <= 1.0
    monkeypatch.setattr(runner, "_dephased_sectors", perturbed)
    assert _run_check("proof_inequalities", 2, 0)["deviation"] > 1.0


def test_a_monte_carlo_tpm_sweep_draws_each_chunk_once(monkeypatch):
    _, drawn = tag_chunks(monkeypatch)
    run_tpm_sweep(ExperimentConfig.from_dict(_MC_SWEEP))
    assert sorted(drawn) == [0, 1]


def test_the_tpm_monte_carlo_validates_no_state_again(monkeypatch):
    """A sweep's stack is validated once, when it is built, and a raw state once, by the intake."""
    validate, calls = linalg._first_invalid_density, []

    def counted(a):
        calls.append(a.shape)
        return validate(a)

    monkeypatch.setattr(linalg, "_first_invalid_density", counted)
    rows = run_tpm_sweep(ExperimentConfig.from_dict({"protocol": "tpm", "sampling": {"seed": 3, "n_unitaries": 30}}))
    assert len(rows) == 63 and len(calls) == 1
    h = ising_battery(0.5, 1.0, 0.5, 0.45)
    rho = thermal_mixture_state(0.5, *_taus(h)).data
    calls.clear()
    mc_tpm_statistics(rho, spectral_decomposition(h), 0.5, 0.5, 30, SamplerConfig(seed=3))
    assert len(calls) == 1


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
