"""Configuration-driven experiment runner: sweeps, histograms, verification.

Configs are JSON dicts with the sections ``battery``, ``state``,
``protocol``, ``parameters`` and ``sampling``; a run refuses any key
``CONFIG_KEYS`` does not list for it.  Only ``serialization`` reads the
battery and state formats, and ``thermal_mixtures`` builds the states of a
point run and of both sweeps.  Each input rule is one ``_check_*`` function
that the runner passes to ``_number`` for the key path.  Sweeps return one
table row per grid point with the swept parameters echoed, so any row can
be reproduced by a direct library call; ``cli`` writes the tables.  A seed
is mandatory for anything that samples unitaries.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import asdict, dataclass, field, fields, replace
from functools import partial
from typing import Callable

import numpy as np

from .battery import (
    BatteryHamiltonian,
    SpectralDecomposition,
    _check_alpha,
    _ising_stack,
    battery_hamiltonian,
    spectral_decomposition,
)
from .coincidence import _check_h2, avg_coincidence_closed, coincidence_bound, mc_coincidence
from .haar import SamplerConfig, _check_u64, twirl1, twirl2, two_copy_local_twirl_probe
from .linalg import DensityMatrix, _check_dimension, random_density_matrix, random_hermitian, sector_lengths, swap_operator
from .serialization import (
    ConfigError,
    _number,
    _required_number,
    battery_from_spec,
    ising_params,
    state_from_spec,
    thermal_mixtures,
)
from .tpm import (
    _check_eps,
    _dephased_sectors,
    _explicit_dephasings,
    mc_tpm_stack,
    mc_tpm_statistics,
    tpm_variance_closed_form,
    tpm_variance_stack,
    tpm_weights,
)
from .witness import detect_schmidt_number, detect_schmidt_number_stack
from .workstats import (
    WorkStatistics,
    _check_bin_width,
    _check_samples,
    analytic_work_variance,
    conjugation_traces,
    iter_samples,
    mc_work_statistics,
    pair_traces,
    summarize,
    work_sample_summary,
)

__all__ = [
    "ExperimentConfig",
    "run_variance_sweep",
    "run_tpm_sweep",
    "run_histogram",
    "run_point",
    "run_verify",
]

DEFAULT_BATTERY = {"ising": {"J1": 0.5, "J2": 1.0, "J3": 0.5, "b": 0.45}}
DEFAULT_STATE = {"thermal_mixture": {"alpha": 0.96, "T": 1.5}}
DEFAULT_VERIFY_SEED = 20240901
MC_GATE_SE = 5.0  # verify's Monte-Carlo checks pass within this many standard errors

_POINT_RUNS = ("variance", "witness", "histogram", "tpm", "coincidence")
_SAMPLING_RUNS = ("variance", "histogram", "tpm", "coincidence", "tpm sweep")

#: Every config key -> (runs that read it, CLI flag, grid a sweep scans instead); a sweep is "<protocol> sweep".
#: ``battery`` and ``state`` are whole sections; ``battery.ising.b`` and ``state.thermal_mixture.alpha`` are flag rows.
CONFIG_KEYS = {
    "battery": ((*_POINT_RUNS, "variance sweep", "tpm sweep"), None, None),
    "state": ((*_POINT_RUNS, "variance sweep", "tpm sweep"), None, None),
    "state.thermal_mixture.alpha": (_POINT_RUNS, "--alpha", "parameters.alpha_grid"),
    "battery.ising.b": ((*_POINT_RUNS, "tpm sweep"), "--b", "parameters.b_grid"),
    "parameters.eps": (("tpm", "coincidence"), "--eps", "parameters.eps_grid"),
    "parameters.eps_a": (("tpm",), "--eps-a", "parameters.eps_grid"),
    "parameters.eps_b": (("tpm",), "--eps-b", "parameters.eps_grid"),
    "parameters.eps_grid": (("tpm sweep",), None, None),
    "parameters.alpha_grid": (("variance sweep", "tpm sweep"), None, None),
    "parameters.b_grid": (("variance sweep",), None, None),
    "parameters.bin_width": (("histogram",), "--bin-width", None),
    "parameters.d": (("verify",), "--d", None),
    "sampling.seed": ((*_SAMPLING_RUNS, "verify"), "--seed", None),
    "sampling.n_unitaries": ((*_SAMPLING_RUNS, "verify"), "--n", None),
}
_RUNS = tuple(dict.fromkeys(run for runs, _, _ in CONFIG_KEYS.values() for run in runs))


@dataclass
class ExperimentConfig:
    """Validated runner configuration; ``asdict`` round-trips it.  ``None`` marks a section not given."""

    protocol: str | None = None
    battery: dict | None = None
    state: dict | None = None
    parameters: dict = field(default_factory=dict)
    sampling: dict = field(default_factory=dict)

    @classmethod
    def from_dict(cls, obj: dict) -> "ExperimentConfig":
        if not isinstance(obj, dict):
            raise ConfigError("config", "top level must be a JSON object")
        unknown = [key for key in obj if key not in {f.name for f in fields(cls)}]
        if unknown:
            raise ConfigError(unknown[0], "unknown configuration key")
        if "protocol" in obj and obj["protocol"] not in (run.split()[0] for run in _RUNS):
            raise ConfigError("protocol", f"unknown protocol {obj['protocol']!r}")
        for key in ("parameters", "sampling", "battery", "state"):
            if key in obj and not isinstance(obj[key], dict):
                raise ConfigError(key, "must be a JSON object")
        cfg = cls(**obj)
        for k, grid in cfg.parameters.items():
            if k.endswith("_grid") and not (isinstance(grid, list) and grid):
                raise ConfigError(f"parameters.{k}", "grid must be a non-empty list")
        return cfg

    def check(self, run: str) -> None:
        """Refuse, at its path, the first given key that ``run`` does not read; then fill in its defaults."""
        if self.protocol not in (None, run.split()[0]) or run not in _RUNS:
            raise ConfigError("protocol", f"no {run} run takes protocol {self.protocol!r}")
        given = [section for section in ("battery", "state") if getattr(self, section) is not None]
        given += [f"{section}.{key}" for section in ("parameters", "sampling") for key in getattr(self, section)]
        for path in given:
            if path not in CONFIG_KEYS:
                raise ConfigError(path, "unknown configuration key")
            if run not in CONFIG_KEYS[path][0]:
                raise ConfigError(path, f"{run} does not read this key")
        self.protocol = run.split()[0]
        for section, default in (("battery", DEFAULT_BATTERY), ("state", DEFAULT_STATE)):
            if getattr(self, section) is None and run in CONFIG_KEYS[section][0]:
                setattr(self, section, json.loads(json.dumps(default)))

    def sampler(self, default_seed: int | None = None) -> SamplerConfig:
        """Sampler config from the sampling section; the seed is mandatory unless a default is given."""
        seed = self.sampling.get("seed", default_seed)
        if seed is None:
            raise ConfigError("sampling.seed", "a seed is mandatory for Monte-Carlo runs")
        return SamplerConfig(seed=_number(seed, "sampling.seed", int, check=partial(_check_u64, name="seed")))

    def samples(self) -> bool:
        """Whether a variance, tpm, coincidence or TPM-sweep run adds its Monte-Carlo estimate: when n is given."""
        return "n_unitaries" in self.sampling

    def n_unitaries(self, default: int = 100_000) -> int:
        return _number(self.sampling.get("n_unitaries", default), "sampling.n_unitaries", int, check=_check_samples)


def _eps_param(cfg: ExperimentConfig, key: str) -> float:
    """parameters.<key>, falling back to the symmetric parameters.eps, then 1."""
    name = key if key in cfg.parameters else "eps"
    return _number(cfg.parameters.get(name, 1.0), f"parameters.{name}", check=_check_eps)


def _alpha_grid(cfg: ExperimentConfig, step: float) -> list[float]:
    """The mixing ratios of a sweep: parameters.alpha_grid, by default 0..1 in steps of ``step``."""
    default = np.round(np.arange(0.0, 1.001, step), 10)
    return [_number(x, "parameters.alpha_grid", check=_check_alpha) for x in cfg.parameters.get("alpha_grid", default)]


def _field_batteries(ip: dict, b_grid: list[float]) -> list[BatteryHamiltonian]:
    """The Ising batteries of a variance sweep at each field b, from one stacked build.

    The first field whose build fails is a ConfigError at its grid, with the
    error of that field's build alone.
    """
    batteries = _ising_stack(*(_required_number(ip, key, "battery.ising") for key in ("J1", "J2", "J3")), b_grid)
    for b, h in zip(b_grid, batteries):
        if isinstance(h, ValueError):
            battery_from_spec({"ising": {**ip, "b": 0.0}})  # couplings that fail at any field are reported as theirs
            raise ConfigError("parameters.b_grid", f"b = {b}: {h}")
    return batteries


#: Bytes of (d^2, d^2) matrices in one sweep block: its states, and with a TPM Monte Carlo each state's Xi per eps.
#: Each default grid is one block, so one TPM Monte-Carlo pass.
_SWEEP_BLOCK_BYTES = 4 * 2**20


def _sweep_blocks(spec: dict, batteries: list[BatteryHamiltonian], a_grid: list[float], per_state: int = 1):
    """A (battery x alpha) grid's (battery slice, alphas, temperature, states) blocks, b-major, one ``thermal_mixtures``
    call each: whole b rows while one row of ``per_state`` matrices a state fits ``_SWEEP_BLOCK_BYTES``, else
    consecutive parts of one row."""
    per_block = max(1, _SWEEP_BLOCK_BYTES // (per_state * batteries[0].d ** 4 * 16))  # complex (d^2, d^2) matrices
    n_rows, n_alphas = max(1, per_block // len(a_grid)), min(per_block, len(a_grid))
    for b in range(0, len(batteries), n_rows):
        for a in range(0, len(a_grid), n_alphas):
            alphas = a_grid[a : a + n_alphas]
            yield slice(b, b + n_rows), alphas, *thermal_mixtures(spec, batteries[b : b + n_rows], alphas)


def _table(shape: tuple[int, ...], columns: dict) -> np.ndarray:
    """A block's rows in row-major grid order: each column broadcast over ``shape``, int64 if integer, else float64."""
    arrays = {key: np.asarray(value) for key, value in columns.items()}
    table = np.empty(shape, [(key, np.int64 if a.dtype.kind in "iu" else np.float64) for key, a in arrays.items()])
    for key, a in arrays.items():
        table[key] = a
    return table.reshape(-1)


def run_variance_sweep(cfg: ExperimentConfig) -> np.ndarray:
    """Closed-form variance, per-k bounds, detected level, and PPT on a (b, alpha) grid.

    The default grid spans field strengths 0..0.9 and mixing ratios 0..1 for
    the Ising family, the setting in which stronger mixing crosses the
    detection thresholds.  Each block of ``_sweep_blocks`` (the default grid
    is one) is evaluated by one witness call that reads each b's weights;
    every row is bitwise what ``detect_schmidt_number`` reports for
    ``thermal_mixture_state`` at that point.
    """
    cfg.check("variance sweep")
    ip = ising_params(cfg.battery)
    a_grid = _alpha_grid(cfg, 0.04)
    default = np.round(np.arange(0.0, 0.901, 0.05), 10)
    b_grid = [_number(x, "parameters.b_grid") for x in cfg.parameters.get("b_grid", default)]
    batteries = _field_batteries(ip, b_grid)
    d = batteries[0].d
    keys = ("J1", "J2", "J3", "T", "b", "alpha", "variance", "detected_sn", "ppt_min_eig")
    keys += tuple(f"bound_k{k}" for k in range(1, d))  # k = d is never violable
    tables = []
    for block, alphas, temperature, states in _sweep_blocks(cfg.state, batteries, a_grid):
        weights = (np.array([[getattr(h, w)] for h in batteries[block]]) for w in ("ha2", "hb2", "g2v2"))
        det = detect_schmidt_number_stack(states, d, *weights)
        head = (ip["J1"], ip["J2"], ip["J3"], temperature, np.array(b_grid[block])[:, None], alphas)
        point = (det.variance, det.detected_sn_lower_bound, det.ppt_min_eig, *np.moveaxis(det.thresholds, -1, 0)[:-1])
        tables.append(_table(det.variance.shape, dict(zip(keys, (*head, *point)))))
    return np.concatenate(tables)


def run_tpm_sweep(cfg: ExperimentConfig) -> np.ndarray:
    """Closed-form TPM variance and weights on an (alpha, eps) grid.

    Each block of ``_sweep_blocks`` is evaluated at every eps in one
    ``tpm_variance_stack`` call, whose columns the rows read, each cell
    bitwise ``tpm_variance_closed_form`` at its point.  The
    Monte-Carlo columns, ``mc_<field>`` for each ``WorkStatistics`` field,
    appear when the sampling section gives ``n_unitaries``; a seed is then
    mandatory.  One ``mc_tpm_stack`` pass per block (one for the default
    grid) draws the same pairs, so each row's are bitwise ``mc_tpm_statistics``.
    """
    cfg.check("tpm sweep")
    ip = ising_params(cfg.battery)
    a_grid = _alpha_grid(cfg, 0.05)
    eps_values = cfg.parameters.get("eps_grid", (0.2, 0.5, 1.0))
    eps_grid = [_number(x, "parameters.eps_grid", check=_check_eps) for x in eps_values]
    eps_pairs = [(eps, eps) for eps in eps_grid]
    h = battery_from_spec(cfg.battery)
    spec = spectral_decomposition(h)
    per_state = 1 + len(eps_pairs) if cfg.samples() else 1  # a Monte Carlo holds each state's Xi per eps
    head = {key: ip[key] for key in ("J1", "J2", "J3", "b")}
    closed_keys = ("eps_a", "eps_b", "var_tpm", "var_diag", "n0", "n1", "n_noisy")
    mc_keys = [f.name for f in fields(WorkStatistics)]
    tables = []
    for _, alphas, temperature, [states] in _sweep_blocks(cfg.state, [h], a_grid, per_state):
        closed = tpm_variance_stack(states, spec, eps_pairs)
        columns = {**head, "T": temperature, "alpha": np.array(alphas)[:, None]}
        columns.update({key: getattr(closed, key) for key in closed_keys})
        if cfg.samples():
            mc = mc_tpm_stack(states, spec, eps_pairs, cfg.n_unitaries(), cfg.sampler())
            columns.update({f"mc_{key}": [[getattr(s, key) for s in row] for row in mc] for key in mc_keys})
        tables.append(_table((len(alphas), len(eps_pairs)), columns))
    return np.concatenate(tables)


def run_histogram(cfg: ExperimentConfig) -> tuple[np.ndarray, dict]:
    """Binned work counts plus a summary with sample mean/variance and SEs."""
    cfg.check("histogram")
    h = battery_from_spec(cfg.battery)
    rho = state_from_spec(cfg.state, h)
    bin_width = _number(cfg.parameters.get("bin_width", 0.1), "parameters.bin_width", check=partial(_check_bin_width, h=h))
    stats, hist = work_sample_summary(rho, h, cfg.n_unitaries(), cfg.sampler(), bin_width=bin_width)
    edges = hist.edges()
    rows = _table(hist.counts.shape, {"bin_left": edges[:-1], "bin_right": edges[1:], "count": hist.counts})
    closed = analytic_work_variance(rho, h)
    summary = {**asdict(stats), "closed_form_mean": closed.mean, "closed_form_variance": closed.variance}
    summary.update(bin_width=bin_width, origin=hist.origin)
    return rows, summary


def run_point(cfg: ExperimentConfig) -> dict:
    """Single-point evaluation for the variance/witness/tpm/coincidence protocols (default variance)."""
    protocol = cfg.protocol or "variance"
    if protocol not in ("variance", "witness", "tpm", "coincidence"):
        raise ConfigError("protocol", f"{protocol!r} is not a single-point protocol")
    cfg.check(protocol)
    h = battery_from_spec(cfg.battery)
    rho = state_from_spec(cfg.state, h)
    if protocol == "witness":
        return {"protocol": protocol, **asdict(detect_schmidt_number(rho, h))}
    if protocol == "variance":
        stats = analytic_work_variance(rho, h)
        closed = {"mean": stats.mean, "variance": stats.variance}
        sample = partial(mc_work_statistics, rho, h)
    elif protocol == "tpm":
        spec = spectral_decomposition(h)
        eps_a, eps_b = _eps_param(cfg, "eps_a"), _eps_param(cfg, "eps_b")
        closed = asdict(tpm_variance_closed_form(rho, spec, eps_a, eps_b))
        sample = partial(mc_tpm_statistics, rho, spec, eps_a, eps_b)
    else:
        eps = _eps_param(cfg, "eps")
        _number(min(h.ha2, h.hb2), "battery", check=_check_h2)
        closed = asdict(coincidence_bound(rho, h, eps))
        sample = lambda n, sampler: mc_coincidence(rho, spectral_decomposition(h), eps, eps, n, sampler)
    out = {"protocol": protocol, **closed}
    if cfg.samples():
        stats = sample(cfg.n_unitaries(), cfg.sampler())
        if protocol == "coincidence":
            out.update(cbar_mc=stats.mean, cbar_mc_se=stats.se_mean)
        else:
            out["mc"] = asdict(stats)
    return out


# ---------------------------------------------------------------------------
# Verification suite: every closed form against an independent Monte-Carlo
# or sweep oracle, reported with measured deviations.
# ---------------------------------------------------------------------------


def _deviation(stat: WorkStatistics, target: float, moment: str = "mean") -> float:
    """|moment - target| in standard errors of that Monte-Carlo moment."""
    return abs(getattr(stat, moment) - target) / (getattr(stat, f"se_{moment}") + 1e-12)


def _probe_check(sample, probes, targets, d, n, cfg) -> dict:
    """Largest |MC mean - closed form| / SE over scalar probes P, each a column of one Monte-Carlo pass.

    ``sample(ua, ub, P)`` takes one probe, giving (k,), or a stack, giving (k, G), each
    column bitwise its stack of one.  The pass draws the pairs once and calls it once
    per chunk on the stack; each probe's moments are bitwise those of a pass of its own.
    """
    stack = np.stack(probes)
    stats = summarize(iter_samples(lambda ua, ub: sample(ua, ub, stack), d, n, cfg))
    return {"deviation": max(_deviation(s, target) for s, target in zip(stats, targets))}


def _check_single_copy_twirl(rng, d, n, cfg) -> dict:
    """tr[P U X U^dag] against tr[P twirl1(X)]; P = 1 has no MC variance and pins the coefficient."""
    x = random_hermitian(rng, d)
    probes = [np.eye(d), random_hermitian(rng, d), random_hermitian(rng, d)]
    targets = [np.vdot(p, twirl1(x)).real for p in probes]
    return _probe_check(lambda ua, ub, p: conjugation_traces(ua, x, p), probes, targets, d, n, cfg)


def _check_two_copy_twirl(rng, d, n, cfg) -> dict:
    """tr[P (U (x) U) X (...)^dag] against tr[P twirl2(X)]; P = 1 and SWAP have no MC variance."""
    x = random_hermitian(rng, d * d)
    probes = [np.eye(d * d), swap_operator(d), random_hermitian(rng, d * d), random_hermitian(rng, d * d)]
    targets = [np.vdot(p, twirl2(x)).real for p in probes]
    return _probe_check(lambda ua, ub, p: pair_traces(ua, ua, x, p), probes, targets, d, n, cfg)


def _check_two_copy_local_twirl(rng, d, n, cfg) -> dict:
    """tr[P U rho U^dag]^2 against ``two_copy_local_twirl_probe``, one probe per term, squared after the traces.

    P = 1 has no MC variance; with P_A, P_B traceless, P_A (x) 1, 1 (x) P_B and
    P_A (x) P_B read the rA^2, rB^2 and t^2 terms alone.
    """
    rho = random_density_matrix(rng, d * d)
    pa, pb = (h - np.trace(h).real / d * np.eye(d) for h in (random_hermitian(rng, d), random_hermitian(rng, d)))
    probes = [np.eye(d * d), np.kron(pa, np.eye(d)), np.kron(np.eye(d), pb), np.kron(pa, pb)]
    targets = [two_copy_local_twirl_probe(rho, d, p) for p in probes]
    return _probe_check(lambda ua, ub, p: pair_traces(ua, ub, rho.data, p) ** 2, probes, targets, d, n, cfg)


def _random_point(rng, d) -> tuple[BatteryHamiltonian, SpectralDecomposition, DensityMatrix]:
    """A random battery (its canonicalization warnings silenced), its spectral decomposition and a random state."""
    ha, hb, v = random_hermitian(rng, d), random_hermitian(rng, d), random_hermitian(rng, d * d)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        h = battery_hamiltonian(ha, hb, v, g=1.0)
    return h, spectral_decomposition(h), random_density_matrix(rng, d * d)


def _check_work_variance(rng, d, n, cfg) -> dict:
    h, _, rho = _random_point(rng, d)
    closed = analytic_work_variance(rho, h).variance
    return {"deviation": _deviation(mc_work_statistics(rho, h, n, cfg), closed, "variance")}


def _check_tpm(rng, d, n, cfg, moment: str, report_field: str) -> dict:
    _, spec, rho = _random_point(rng, d)
    closed = getattr(tpm_variance_closed_form(rho, spec, 0.6, 0.8), report_field)
    return {"deviation": _deviation(mc_tpm_statistics(rho, spec, 0.6, 0.8, n, cfg), closed, moment)}


def _check_coincidence(rng, d, n, cfg) -> dict:
    _, spec, rho = _random_point(rng, d)
    closed = avg_coincidence_closed(rho, spec, 0.7, 0.4)
    return {"deviation": _deviation(mc_coincidence(rho, spec, 0.7, 0.4, n, cfg), closed)}


def _check_proof_inequalities(rng, d, n, cfg) -> dict:
    """TPM noise-bound inequalities at 50 random points, with ``_dephased_sectors`` checked against explicit dephasing.

    ``length_dev`` is the largest deviation of its twelve lengths from ``sector_lengths`` of the
    states ``tpm._explicit_dephasings`` forms; ``min_slack`` is the least margin (positive = ok) by
    which dephasing shortens rA^2 and rB^2 (joint) and t^2 (joint, side A, side B).
    """
    worst, length_dev = np.inf, 0.0
    for _ in range(50):
        _, spec, rho = _random_point(rng, d)
        sectors = _dephased_sectors(rho.data, spec)
        explicit = _explicit_dephasings(rho.data, spec)
        lengths = dict(zip(explicit, np.transpose(sector_lengths(np.stack(list(explicit.values())), d))))
        for name, reference in lengths.items():
            length_dev = max(length_dev, float(np.max(np.abs(np.subtract(sectors[name], reference)))))
        (r_a2, r_b2, t2), (c1, c2, c3) = lengths["state"], sectors["joint"]
        slacks = [r_a2 - c1, r_b2 - c2, t2 - c3, t2 - sectors["local_a"][2], t2 - sectors["local_b"][2]]
        worst = min(worst, min(slacks))
    return {"deviation": max(-worst, length_dev) / 1e-10, "detail": {"min_slack": worst, "length_dev": length_dev}}


def _check_weight_functions(rng, d, n, cfg) -> dict:
    eps = np.linspace(0.0, 1.0, 101)
    worst = 0.0
    for e in eps:
        w = tpm_weights(float(e), float(e), d)
        vals = (w.n0, w.n1, w.n_noisy)
        worst = max(worst, abs(sum(vals) - 1.0))
        if min(vals) < -1e-15 or max(vals) > 1 + 1e-15:
            worst = max(worst, 1.0)
    return {"deviation": worst / 1e-12}


CHECKS: dict[str, Callable] = {
    "single_copy_twirl_vs_mc": _check_single_copy_twirl,
    "two_copy_twirl_vs_mc": _check_two_copy_twirl,
    "two_copy_local_twirl_vs_mc": _check_two_copy_local_twirl,
    "work_variance_vs_mc": _check_work_variance,
    "tpm_mean_vs_mc": partial(_check_tpm, moment="mean", report_field="mean_tpm"),
    "tpm_variance_vs_mc": partial(_check_tpm, moment="variance", report_field="var_tpm"),
    "coincidence_vs_mc": _check_coincidence,
    "proof_inequalities": _check_proof_inequalities,
    "weight_functions": _check_weight_functions,
}


def run_verify(cfg: ExperimentConfig) -> dict:
    """Cross-check every closed form against its independent oracle.

    MC checks pass when the measured deviation stays below ``MC_GATE_SE``
    standard errors; identity sweeps use fixed tolerances.  The report
    echoes seed and sizes so a rerun reproduces it bit for bit.
    """
    cfg.check("verify")
    p = cfg.parameters
    d = _number(p.get("d", 2), "parameters.d", int, check=_check_dimension)
    n = cfg.n_unitaries(10_000)
    base = cfg.sampler(DEFAULT_VERIFY_SEED)
    checks = []
    for idx, (name, fn) in enumerate(CHECKS.items()):
        rng = np.random.default_rng(base.seed + 10_000 + idx)
        result = fn(rng, d, n, replace(base, stream=idx))
        deviation = float(result["deviation"])
        threshold = 1.0 if name in ("proof_inequalities", "weight_functions") else MC_GATE_SE
        entry = {"name": name, "passed": bool(deviation <= threshold), "deviation": deviation, "threshold": threshold}
        if "detail" in result:
            entry["detail"] = result["detail"]
        checks.append(entry)
    return {"seed": base.seed, "d": d, "n": n, "passed": all(entry["passed"] for entry in checks), "checks": checks}
