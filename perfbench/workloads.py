"""The benchmark's workloads: seeded inputs, runner jobs and their checks.

Every input is generated here from the workload seed with numpy alone and
handed to ``qbattery`` as a JSON-style config, the way the CLI hands it
over; jobs go through the runner entry points the CLI calls.  A round is the
closed-loop unit of work: the harness runs rounds back to back, one client,
and times each.  Each job returns the list of its failed checks.  README.md
says why each workload was chosen and which layers it stresses.
"""

from __future__ import annotations

import numpy as np

SE_GATE = 5.0  # Monte-Carlo results must sit within this many SEs of the closed form
WEIGHT_TOL = 1e-12  # n0 + n1 + n_noisy = 1, and var_tpm <= var_diag up to rounding


def job_seed(seed: int, *key: int) -> int:
    """A 64-bit sampler seed derived from the workload seed and a job key."""
    return int(np.random.SeedSequence([seed, *key]).generate_state(1, np.uint64)[0])


def matrix_json(m: np.ndarray) -> list:
    """Row-major [re, im] pairs, the runner's matrix encoding."""
    return np.stack([m.real, m.imag], axis=-1).tolist()


def _within_se(failures: list, label: str, value: float, target: float, se: float) -> None:
    if not abs(value - target) <= SE_GATE * se:
        failures.append(f"{label}: MC {value!r} vs closed form {target!r}, SE {se!r}")


def _check_tpm(failures: list, weights: dict, var_tpm: float, var_diag: float) -> None:
    total = weights["n0"] + weights["n1"] + weights["n_noisy"]
    if not abs(total - 1.0) <= WEIGHT_TOL:
        failures.append(f"tpm weights sum to {total!r} at eps {weights['eps_a']}, {weights['eps_b']}")
    if not var_tpm <= var_diag + WEIGHT_TOL * abs(var_diag):
        failures.append(f"var_tpm {var_tpm!r} exceeds var_diag {var_diag!r}")


def _config(protocol: str, battery: dict, state: dict, parameters: dict, sampling: dict | None = None) -> dict:
    return {
        "protocol": protocol,
        "battery": battery,
        "state": state,
        "parameters": parameters,
        "sampling": sampling or {},
    }


def _ising(b: float, j: float = 0.5) -> dict:
    return {"ising": {"J1": j, "J2": 1.0, "J3": j, "b": b}}


def _thermal(alpha: float, temperature: float = 1.5) -> dict:
    return {"thermal_mixture": {"alpha": alpha, "T": temperature}}


def _build(qb, battery: dict, state: dict) -> None:
    h = qb.serialization.battery_from_spec(battery)
    qb.serialization.state_from_spec(state, h)
    qb.battery.spectral_decomposition(h)


class McD4:
    """Histogram, TPM MC and coincidence MC on the default Ising battery."""

    name = "mc_d4"
    trace_rounds = 3
    pool = 32

    def __init__(self, seed: int, tiny: bool):
        self.seed = seed
        self.n = 512 if tiny else 20_000
        self.trace_rounds = 1 if tiny else self.trace_rounds
        rng = np.random.default_rng([seed, 1])
        self.points = [
            {"alpha": float(rng.uniform(0.0, 1.0)), "b": float(rng.uniform(0.0, 0.9)), "eps": float(rng.uniform(0.2, 1.0))}
            for _ in range(self.pool)
        ]

    def sizes(self) -> dict:
        return {"d": 4, "pairs_per_job": self.n, "jobs_per_round": 3, "bin_width": 0.1, "points": self.pool}

    def setup(self, qb) -> None:
        for p in self.points:
            _build(qb, _ising(p["b"]), _thermal(p["alpha"]))
        p = self.points[0]
        cfg = _config("histogram", _ising(p["b"]), _thermal(p["alpha"]), {"bin_width": 0.1}, {"seed": 0, "n_unitaries": 256})
        qb.runner.run_histogram(qb.runner.ExperimentConfig.from_dict(cfg))

    def round(self, qb, i: int):
        p = self.points[i % self.pool]
        battery, state, n = _ising(p["b"]), _thermal(p["alpha"]), self.n
        runner = qb.runner

        def sampling(job: int) -> dict:
            return {"seed": job_seed(self.seed, i, job), "n_unitaries": n}

        def histogram():
            cfg = _config("histogram", battery, state, {"bin_width": 0.1}, sampling(0))
            rows, s = runner.run_histogram(runner.ExperimentConfig.from_dict(cfg))
            failures = []
            counted = sum(r["count"] for r in rows)
            if counted != n or s["n_samples"] != n:
                failures.append(f"histogram holds {counted} of {n} samples")
            _within_se(failures, "work mean", s["mean"], s["closed_form_mean"], s["se_mean"])
            _within_se(failures, "work variance", s["variance"], s["closed_form_variance"], s["se_variance"])
            return failures

        def tpm():
            cfg = _config("tpm", battery, state, {"eps": p["eps"]}, sampling(1))
            rep = runner.run_point(runner.ExperimentConfig.from_dict(cfg))
            failures = []
            _within_se(failures, "tpm mean", rep["mc"]["mean"], rep["mean_tpm"], rep["mc"]["se_mean"])
            _within_se(failures, "tpm variance", rep["mc"]["variance"], rep["var_tpm"], rep["mc"]["se_variance"])
            _check_tpm(failures, rep["weights"], rep["var_tpm"], rep["var_diag"])
            return failures

        def coincidence():
            cfg = _config("coincidence", battery, state, {"eps": p["eps"]}, sampling(2))
            rep = runner.run_point(runner.ExperimentConfig.from_dict(cfg))
            failures = []
            _within_se(failures, "coincidence mean", rep["cbar_mc"], rep["cbar_closed"], rep["cbar_mc_se"])
            return failures

        return 3 * n, [("histogram", histogram), ("tpm", tpm), ("coincidence", coincidence)]


class SweepD4:
    """The default variance and TPM sweeps, closed forms only."""

    name = "sweep_d4"
    trace_rounds = 5
    pool = 8
    # The runner's default grids: 19 b x 26 alpha and 21 alpha x 3 eps.
    variance_rows = 494
    tpm_rows = 63

    def __init__(self, seed: int, tiny: bool):
        self.grids = ({}, {})
        if tiny:
            self.grids = ({"b_grid": [0.0, 0.45], "alpha_grid": [0.0, 0.5, 1.0]}, {"alpha_grid": [0.0, 1.0], "eps_grid": [0.2, 1.0]})
            self.variance_rows, self.tpm_rows, self.trace_rounds = 6, 4, 1
        rng = np.random.default_rng([seed, 2])
        # J1 = J3 keeps both halves' Gibbs spectra equal, as thermal_mixture requires.
        self.points = [{"J": float(rng.uniform(0.3, 0.7)), "T": float(rng.uniform(1.0, 2.0))} for _ in range(self.pool)]

    def sizes(self) -> dict:
        return {"d": 4, "variance_points": self.variance_rows, "tpm_points": self.tpm_rows, "points": self.pool}

    def setup(self, qb) -> None:
        for p in self.points:
            _build(qb, _ising(0.45, p["J"]), _thermal(0.96, p["T"]))
        p = self.points[0]
        runner = qb.runner
        cfg = _config("variance", _ising(0.45, p["J"]), _thermal(0.96, p["T"]), {"b_grid": [0.45], "alpha_grid": [0.0, 1.0]})
        runner.run_variance_sweep(runner.ExperimentConfig.from_dict(cfg))
        cfg = _config("tpm", _ising(0.45, p["J"]), _thermal(0.96, p["T"]), {"alpha_grid": [0.5], "eps_grid": [0.5]})
        runner.run_tpm_sweep(runner.ExperimentConfig.from_dict(cfg))

    def round(self, qb, i: int):
        p = self.points[i % self.pool]
        battery, state = _ising(0.45, p["J"]), _thermal(0.96, p["T"])
        runner = qb.runner

        def variance():
            cfg = _config("variance", battery, state, dict(self.grids[0]))
            rows = runner.run_variance_sweep(runner.ExperimentConfig.from_dict(cfg))
            failures = []
            if len(rows) != self.variance_rows:
                failures.append(f"variance sweep has {len(rows)} rows, expected {self.variance_rows}")
            for r in rows:
                if r["alpha"] == 0.0 and r["detected_sn"] != 1:
                    failures.append(f"separable point b={r['b']} reports Schmidt number {r['detected_sn']}")
            return failures

        def tpm():
            cfg = _config("tpm", battery, state, dict(self.grids[1]))
            rows = runner.run_tpm_sweep(runner.ExperimentConfig.from_dict(cfg))
            failures = []
            if len(rows) != self.tpm_rows:
                failures.append(f"tpm sweep has {len(rows)} rows, expected {self.tpm_rows}")
            for r in rows:
                _check_tpm(failures, r, r["var_tpm"], r["var_diag"])
            return failures

        return self.variance_rows + self.tpm_rows, [("variance_sweep", variance), ("tpm_sweep", tpm)]


class LargeD8:
    """Variance, witness, TPM and coincidence reports with MC on random d = 8 inputs."""

    name = "large_d8"
    trace_rounds = 1
    pool = 3

    def __init__(self, seed: int, tiny: bool):
        self.seed = seed
        self.d = 3 if tiny else 8
        self.n = 256 if tiny else 4096
        rng = np.random.default_rng([seed, 3])
        self.points = [self._point(rng) for _ in range(self.pool)]

    def _point(self, rng) -> dict:
        d = self.d

        def hermitian(dim):
            a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            return (a + a.conj().T) / 2

        # Full-rank interaction with its identity and single-sided parts
        # removed, so the runner keeps it as given (no canonicalization).
        v = hermitian(d * d)
        v4 = v.reshape(d, d, d, d)
        eye = np.eye(d)
        offset = np.trace(v).real / d**2
        local_a = np.einsum("abcb->ac", v4) / d - offset * eye
        local_b = np.einsum("abae->be", v4) / d - offset * eye
        v = v - offset * np.eye(d * d) - np.kron(local_a, eye) - np.kron(eye, local_b)
        g = rng.standard_normal((d * d, d * d)) + 1j * rng.standard_normal((d * d, d * d))
        rho = g @ g.conj().T
        rho = (rho + rho.conj().T) / 2
        rho /= np.trace(rho).real
        return {
            "battery": {
                "explicit": {
                    "HA": matrix_json(hermitian(d)),
                    "HB": matrix_json(hermitian(d)),
                    "V": matrix_json(v),
                    "g": float(rng.uniform(0.5, 1.5)),
                }
            },
            "state": {"matrix": matrix_json(rho)},
            "eps_a": float(rng.uniform(0.3, 1.0)),
            "eps_b": float(rng.uniform(0.3, 1.0)),
            "eps": float(rng.uniform(0.3, 1.0)),
        }

    def sizes(self) -> dict:
        return {"d": self.d, "pairs_per_mc_job": self.n, "jobs_per_round": 4, "points": self.pool}

    def setup(self, qb) -> None:
        for p in self.points:
            _build(qb, p["battery"], p["state"])
        p = self.points[0]
        qb.runner.run_point(qb.runner.ExperimentConfig.from_dict(_config("variance", p["battery"], p["state"], {})))

    def round(self, qb, i: int):
        p = self.points[i % self.pool]
        runner, d = qb.runner, self.d

        def run(protocol: str, parameters: dict, job: int) -> dict:
            sampling = {"seed": job_seed(self.seed, i, job), "n_unitaries": self.n} if job >= 0 else {}
            return runner.run_point(runner.ExperimentConfig.from_dict(_config(protocol, p["battery"], p["state"], parameters, sampling)))

        def variance():
            rep = run("variance", {}, 0)
            failures = []
            _within_se(failures, "work mean", rep["mc"]["mean"], rep["mean"], rep["mc"]["se_mean"])
            _within_se(failures, "work variance", rep["mc"]["variance"], rep["variance"], rep["mc"]["se_variance"])
            return failures

        def witness():
            rep = run("witness", {}, -1)
            sn = rep["detected_sn_lower_bound"]
            return [] if 1 <= sn <= d else [f"detected Schmidt number {sn} outside 1..{d}"]

        def tpm():
            rep = run("tpm", {"eps_a": p["eps_a"], "eps_b": p["eps_b"]}, 1)
            failures = []
            _within_se(failures, "tpm mean", rep["mc"]["mean"], rep["mean_tpm"], rep["mc"]["se_mean"])
            _within_se(failures, "tpm variance", rep["mc"]["variance"], rep["var_tpm"], rep["mc"]["se_variance"])
            _check_tpm(failures, rep["weights"], rep["var_tpm"], rep["var_diag"])
            return failures

        def coincidence():
            rep = run("coincidence", {"eps": p["eps"]}, 2)
            failures = []
            _within_se(failures, "coincidence mean", rep["cbar_mc"], rep["cbar_closed"], rep["cbar_mc_se"])
            if not rep["slack"] >= 0.0:
                failures.append(f"coincidence bound violated, slack {rep['slack']!r}")
            return failures

        return 1, [("variance", variance), ("witness", witness), ("tpm", tpm), ("coincidence", coincidence)]


WORKLOADS = {w.name: w for w in (McD4, SweepD4, LargeD8)}
