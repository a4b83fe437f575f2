"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Tolerances: Monte-Carlo
cross-checks allow 5 estimated standard errors; exact identities carry the
stated absolute tolerances (1e-12 / 1e-10 / 1e-9).  All runs are seeded and
deterministic.
"""

import time

import numpy as np
import pytest

from qbattery.battery import (
    gibbs_state,
    ising_battery,
    spectral_decomposition,
    thermal_mixture_state,
)
from qbattery.bloch import bloch_decompose, gell_mann_basis
from qbattery.coincidence import avg_coincidence_closed, coincidence_bound, mc_coincidence
from qbattery.haar import HaarSampler, SamplerConfig, twirl2
from qbattery.linalg import (
    DensityMatrix,
    purity,
    random_density_matrix,
    random_hermitian,
    swap_operator,
)
from qbattery.montecarlo import MomentAccumulator
from qbattery.tpm import (
    mc_tpm_statistics,
    tpm_spectral_stats,
    tpm_variance_closed_form,
    tpm_weights,
)
from qbattery.witness import detect_schmidt_number
from qbattery.workstats import analytic_work_variance, mc_work_statistics, work_sample_summary

from conftest import make_random_battery
from oracles import bloch_reconstruct


def _report(name: str, passed: bool, detail: str, t0: float) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"[acceptance] {name}: {status} ({detail}, {time.time() - t0:.1f}s)")
    assert passed, f"{name}: {detail}"


def _ising():
    return ising_battery(0.5, 1.0, 0.5, 0.45)


def _mixture(alpha, b=0.45, temperature=1.5):
    h = ising_battery(0.5, 1.0, 0.5, b)
    ta = gibbs_state(h.ha, temperature)
    tb = gibbs_state(h.hb, temperature)
    return h, thermal_mixture_state(alpha, ta, tb)


def test_criterion_01_two_copy_twirl_oracle():
    t0 = time.time()
    n = 100_000
    worst = 0.0
    for dim in (2, 3, 4):
        t_dim = time.time()
        rng = np.random.default_rng(100 + dim)
        xs = [random_hermitian(rng, dim * dim) for _ in range(10)]
        targets = [twirl2(x) for x in xs]
        sums = [np.zeros((dim * dim, dim * dim), complex) for _ in xs]
        sq = [np.zeros((2, dim * dim, dim * dim)) for _ in xs]
        sampler = HaarSampler(SamplerConfig(seed=1000 + dim), dim)
        left = n
        while left:
            k = min(2048, left)
            u = sampler.unitaries(k)
            uu = np.einsum("nab,ncd->nacbd", u, u).reshape(k, dim * dim, dim * dim)
            for i, x in enumerate(xs):
                vals = uu @ x @ uu.conj().transpose(0, 2, 1)
                sums[i] += vals.sum(axis=0)
                sq[i][0] += np.sum(vals.real**2, axis=0)
                sq[i][1] += np.sum(vals.imag**2, axis=0)
            left -= k
        for i, target in enumerate(targets):
            mean = sums[i] / n
            var = np.clip(
                np.stack([sq[i][0] / n - mean.real**2, sq[i][1] / n - mean.imag**2]), 0, None
            )
            se = np.sqrt(var / (n - 1))
            dev = np.stack([np.abs(mean.real - target.real), np.abs(mean.imag - target.imag)])
            worst = max(worst, float(np.max(dev / (se + 1e-12))))
        assert time.time() - t_dim < 60, f"per-dimension runtime budget exceeded at D={dim}"
    _report("C1 two-copy twirl vs MC (10 X, D in 2..4, n=1e5)", worst < 5, f"max dev {worst:.2f} SE", t0)


def test_criterion_02_work_variance_closed_form():
    t0 = time.time()
    n = 100_000
    worst = 0.0
    seed = 2000
    for b in (0.0, 0.45, 0.9):
        for alpha in (0.08, 0.5, 0.96):
            h, rho = _mixture(alpha, b=b)
            closed = analytic_work_variance(rho, h).variance
            seed += 1
            stats = mc_work_statistics(rho, h, n, SamplerConfig(seed=seed))
            worst = max(worst, abs(stats.variance - closed) / stats.se_variance)
    passed = worst < 5 and time.time() - t0 < 300
    _report("C2 ideal work variance vs MC (3x3 grid, n=1e5)", passed, f"max dev {worst:.2f} SE", t0)


def test_criterion_03_schmidt_detection_endpoints():
    t0 = time.time()
    h, strong = _mixture(0.96)
    rep_hi = detect_schmidt_number(strong, h)
    _, weak = _mixture(0.08)
    rep_lo = detect_schmidt_number(weak, h)
    ok_hi = rep_hi.detected_sn_lower_bound >= 4 and rep_hi.variance_used > dict(rep_hi.thresholds)[3]
    ok_lo = rep_lo.detected_sn_lower_bound == 1 and rep_lo.variance_used <= dict(rep_lo.thresholds)[1]
    _report(
        "C3 detection endpoints (alpha=0.96 -> SN>=4, alpha=0.08 -> separable-compatible)",
        ok_hi and ok_lo,
        f"var(0.96)={rep_hi.variance_used:.4f} > k3={dict(rep_hi.thresholds)[3]:.4f}; "
        f"var(0.08)={rep_lo.variance_used:.4f} <= k1={dict(rep_lo.thresholds)[1]:.4f}",
        t0,
    )


def test_criterion_04_histogram_reproduction():
    t0 = time.time()
    n = 1_000_000
    results = {}
    for seed, alpha in ((4001, 0.96), (4002, 0.08)):
        h, rho = _mixture(alpha)
        closed = analytic_work_variance(rho, h).variance
        stats, hist = work_sample_summary(rho, h, n, SamplerConfig(seed=seed), bin_width=0.1)
        assert hist is not None and hist.counts.sum() == n
        results[alpha] = (stats, closed)
    dev_hi = abs(results[0.96][0].variance - results[0.96][1]) / results[0.96][0].se_variance
    dev_lo = abs(results[0.08][0].variance - results[0.08][1]) / results[0.08][0].se_variance
    ordered = results[0.96][0].variance > results[0.08][0].variance
    # the weak-mixing sample variance also sits below the k = 1 detection cap
    h, weak = _mixture(0.08)
    rep = detect_schmidt_number(weak, h)
    below_cap = results[0.08][0].variance <= dict(rep.thresholds)[1]
    passed = ordered and below_cap and dev_hi < 5 and dev_lo < 5 and time.time() - t0 < 900
    _report(
        "C4 histogram at n=1e6, bin 0.1",
        passed,
        f"var(0.96)={results[0.96][0].variance:.5f} > var(0.08)={results[0.08][0].variance:.5f}; "
        f"devs {dev_hi:.2f}/{dev_lo:.2f} SE",
        t0,
    )


def test_criterion_05_tpm_closed_form_and_bound():
    t0 = time.time()
    h = _ising()
    spec = spectral_decomposition(h)
    worst = 0.0
    seed = 5000
    for eps in (0.2, 0.5, 1.0):
        for alpha in (0.1, 0.5, 0.9):
            _, rho = _mixture(alpha)
            rep = tpm_variance_closed_form(rho, spec, eps, eps)
            seed += 1
            stats = mc_tpm_statistics(rho, spec, eps, eps, 10_000, SamplerConfig(seed=seed))
            worst = max(worst, abs(stats.variance - rep.var_tpm) / stats.se_variance)
    # noise never increases the variance above the diagonal-Hamiltonian value
    min_slack = np.inf
    for dim in (2, 4):
        rng = np.random.default_rng(500 + dim)
        for _ in range(50):
            hb = make_random_battery(rng, dim)
            spec_r = spectral_decomposition(hb)
            rho_r = random_density_matrix(rng, dim * dim)
            ea, eb = rng.uniform(0, 1, 2)
            rep_r = tpm_variance_closed_form(rho_r, spec_r, float(ea), float(eb))
            min_slack = min(min_slack, rep_r.var_diag - rep_r.var_tpm)
    passed = worst < 5 and min_slack >= -1e-12 and time.time() - t0 < 600
    _report(
        "C5 noisy TPM variance vs MC (3x3 grid, n=1e4) and var_tpm <= var_diag (100 random)",
        passed,
        f"max dev {worst:.2f} SE, min slack {min_slack:.2e}",
        t0,
    )


def test_criterion_06_weight_functions():
    t0 = time.time()
    d = 4
    grid = np.linspace(0.0, 1.0, 101)
    sum_dev = 0.0
    in_range = True
    for eps in grid:
        w = tpm_weights(float(eps), float(eps), d)
        sum_dev = max(sum_dev, abs(w.n0 + w.n1 + w.n_noisy - 1.0))
        in_range &= -1e-15 <= min(w.n0, w.n1, w.n_noisy) and max(w.n0, w.n1, w.n_noisy) <= 1 + 1e-15
    end0 = tpm_weights(0.0, 0.0, d)
    end1 = tpm_weights(1.0, 1.0, d)
    passed = sum_dev < 1e-12 and in_range and abs(end0.n0 - 1) < 1e-12 and end1.n1 == 1.0
    _report(
        "C6 weight functions on 101-point grid",
        passed,
        f"max |sum-1| {sum_dev:.2e}, n0(0)={end0.n0}, n1(1)={end1.n1}",
        t0,
    )


def test_criterion_07_coincidence_closed_form_and_bound():
    t0 = time.time()
    n = 100_000
    worst = 0.0
    seed = 7000
    for dim in (2, 4):
        rng = np.random.default_rng(700 + dim)
        for state_idx in range(5):
            hb = make_random_battery(rng, dim)
            spec = spectral_decomposition(hb)
            rho = random_density_matrix(rng, dim * dim)
            for eps in (0.3, 0.7, 1.0):
                closed = avg_coincidence_closed(rho, spec, eps, eps)
                seed += 1
                mc = mc_coincidence(rho, spec, eps, eps, n, SamplerConfig(seed=seed))
                worst = max(worst, abs(mc.mean - closed) / (mc.se_mean + 1e-15))
    min_slack = np.inf
    h = _ising()
    rng = np.random.default_rng(7777)
    for _ in range(100):
        rho = random_density_matrix(rng, 16)
        eps = float(rng.uniform(0, 1))
        min_slack = min(min_slack, coincidence_bound(rho, h, eps).slack)
    passed = worst < 5 and min_slack >= -1e-12 and time.time() - t0 < 600
    _report(
        "C7 two-copy coincidence vs MC (10 states x 3 eps, n=1e5) and bound sweep",
        passed,
        f"max dev {worst:.2f} SE, min slack {min_slack:.2e}",
        t0,
    )


def test_criterion_08_property_suites():
    t0 = time.time()
    n_inst = 100
    worst = {"roundtrip": 0.0, "purity": 0.0, "ineq": np.inf, "closing": 0.0}
    for d in (2, 3, 4):
        rng = np.random.default_rng(800 + d)
        lam = gell_mann_basis(d).matrices
        gram = np.einsum("iab,jba->ij", lam, lam).real
        assert np.max(np.abs(gram - d * np.eye(d * d - 1))) < 1e-12
        s = swap_operator(d)
        assert np.max(np.abs(s @ s - np.eye(d * d))) < 1e-12
        assert np.max(np.abs(s - s.conj().T)) < 1e-12
        assert abs(np.trace(s) - d) < 1e-12
        a = random_hermitian(rng, d)
        b = random_hermitian(rng, d)
        assert abs(np.trace(s @ np.kron(a, b)) - np.trace(a @ b)) < 1e-10
        for _ in range(n_inst):
            rho = random_density_matrix(rng, d * d)
            form = bloch_decompose(rho, d)
            worst["roundtrip"] = max(
                worst["roundtrip"], float(np.max(np.abs(bloch_reconstruct(form) - rho.data)))
            )
            worst["purity"] = max(worst["purity"], abs(form.purity() - purity(rho)))
            hb = make_random_battery(rng, d)
            spec = spectral_decomposition(hb)
            st = tpm_spectral_stats(rho, spec)
            ca = float(np.sum(st.zeta_a * (form.t @ form.t.T)))
            cb = float(np.sum(st.zeta_b * (form.t.T @ form.t)))
            worst["ineq"] = min(
                worst["ineq"],
                form.r_a2 - (d * st.p_a2 - 1),
                form.r_b2 - (d * st.p_b2 - 1),
                form.t2 - (d * d * st.p_ab2 - d * st.p_a2 - d * st.p_b2 + 1),
                form.t2 - ca,
                form.t2 - cb,
            )
            closing = float(np.einsum("ab,cd,ac,bd->", form.t, form.t, st.zeta_a, st.zeta_b))
            worst["closing"] = max(
                worst["closing"],
                abs(closing - (d * d * st.p_ab2 - d * st.p_a2 - d * st.p_b2 + 1)),
            )
    passed = (
        worst["roundtrip"] < 1e-12
        and worst["purity"] < 1e-10
        and worst["ineq"] >= -1e-10
        and worst["closing"] < 1e-10
    )
    _report(
        "C8 property suites (100 instances per d in 2..4)",
        passed,
        f"roundtrip {worst['roundtrip']:.1e}, purity {worst['purity']:.1e}, "
        f"min ineq slack {worst['ineq']:.1e}, closing {worst['closing']:.1e}",
        t0,
    )


def test_criterion_09_separable_soundness():
    t0 = time.time()
    false_positives = 0
    total = 0
    ising = _ising()
    for d, n_states, seed in ((4, 100, 901), (3, 50, 902), (2, 50, 903)):
        rng = np.random.default_rng(seed)
        h = ising if d == 4 else make_random_battery(rng, d)
        for _ in range(n_states):
            n_terms = int(rng.integers(1, 6))
            weights = rng.dirichlet(np.ones(n_terms))
            rho = np.zeros((d * d, d * d), dtype=complex)
            for w in weights:
                rho += w * np.kron(
                    random_density_matrix(rng, d).data, random_density_matrix(rng, d).data
                )
            rep = detect_schmidt_number(DensityMatrix(rho), h)
            total += 1
            false_positives += rep.detected_sn_lower_bound > 1
    _report(
        "C9 soundness on 200 separable states",
        false_positives == 0 and total == 200,
        f"{false_positives} false positives in {total}",
        t0,
    )


def test_criterion_10_isotropic_threshold():
    t0 = time.time()
    d = 4
    h = _ising()
    tau = DensityMatrix(np.eye(d) / d)
    alphas = np.linspace(0.0, 1.0, 1000)
    resolution = alphas[1] - alphas[0]
    analytic = {k: np.sqrt((k * d - 1) / (d * d - 1)) for k in range(1, d)}
    mismatches = 0
    first_detect = {k: None for k in range(1, d)}
    for alpha in alphas:
        rho = thermal_mixture_state(float(alpha), tau, tau)
        rep = detect_schmidt_number(rho, h)
        t2 = alpha**2 * (d * d - 1)  # brute-force oracle for the hot family
        oracle = 1 + sum(1 for k in range(1, d + 1) if t2 > k * d - 1)
        mismatches += rep.detected_sn_lower_bound != oracle
        for k in range(1, d):
            if first_detect[k] is None and rep.detected_sn_lower_bound >= k + 1:
                first_detect[k] = alpha
    boundary_ok = all(
        first_detect[k] is not None and abs(first_detect[k] - analytic[k]) <= resolution
        for k in range(1, d)
    )
    _report(
        "C10 isotropic detection thresholds on 1000-point grid",
        mismatches == 0 and boundary_ok,
        f"{mismatches} grid mismatches; thresholds "
        + ", ".join(f"k={k}: {first_detect[k]:.4f}~{analytic[k]:.4f}" for k in range(1, d)),
        t0,
    )
