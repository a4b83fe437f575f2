import numpy as np
import pytest

from qbattery.battery import battery_hamiltonian, gibbs_state, ising_battery, spectral_decomposition, thermal_mixture_state
import qbattery.coincidence as coincidence_module
from qbattery.coincidence import (
    SLACK_ROUNDING,
    avg_coincidence_closed,
    coincidence_bound,
    coincidence_povm,
    coincidence_probability,
    mc_coincidence,
)
from qbattery.haar import HaarSampler, SamplerConfig
from qbattery.linalg import DensityMatrix, random_density_matrix

from conftest import make_random_battery
from oracles import subsystem_permutation


def _ising_spec(b=0.45):
    h = ising_battery(0.5, 1.0, 0.5, b)
    return h, spectral_decomposition(h)


def _mixture(alpha):
    h = ising_battery(0.5, 1.0, 0.5, 0.45)
    ta = gibbs_state(h.ha, 1.5)
    tb = gibbs_state(h.hb, 1.5)
    return thermal_mixture_state(alpha, ta, tb)


def test_povm_limits_and_trace(rng):
    for d in (2, 3):
        spec = spectral_decomposition(make_random_battery(rng, d))
        pair = np.einsum("iab,icd->acbd", spec.proj_a, spec.proj_a).reshape(d * d, d * d)
        np.testing.assert_allclose(coincidence_povm(spec.proj_a, 1.0), pair, atol=1e-13)
        np.testing.assert_allclose(coincidence_povm(spec.proj_a, 0.0), np.eye(d * d) / d, atol=1e-13)
        for eps in (0.0, 0.4, 1.0):
            p = coincidence_povm(spec.proj_a, eps)
            assert abs(np.trace(p).real - d) < 1e-12
            eig = np.linalg.eigvalsh(p)
            assert eig[0] >= -1e-12 and eig[-1] <= 1 + 1e-12


def test_closed_form_trivials():
    _, spec = _ising_spec()
    mixed = np.eye(16) / 16
    assert abs(avg_coincidence_closed(mixed, spec, 0.7, 0.3) - 1 / 16) < 1e-14
    rho = _mixture(0.8)
    assert abs(avg_coincidence_closed(rho, spec, 0.0, 0.0) - 1 / 16) < 1e-14


def test_per_unitary_identity_vs_four_copy_trace(rng):
    # sum_ij m_ij^2 equals the literal two-copy joint measurement probability
    for d in (2, 3):
        spec = spectral_decomposition(make_random_battery(rng, d))
        rho = random_density_matrix(rng, d * d).data
        ea, eb = 0.6, 0.35
        paa = coincidence_povm(spec.proj_a, ea)
        pbb = coincidence_povm(spec.proj_b, eb)
        perm = subsystem_permutation((0, 2, 1, 3), (d, d, d, d))  # (A,A',B,B') -> (A,B,A',B')
        big = perm @ np.kron(paa, pbb) @ perm.T
        u = np.kron(
            HaarSampler(SamplerConfig(seed=81), d).unitaries(1)[0],
            HaarSampler(SamplerConfig(seed=82), d).unitaries(1)[0],
        )
        rot = u @ rho @ u.conj().T
        literal = np.trace(big @ np.kron(rot, rot)).real
        assert abs(coincidence_probability(rot, spec, ea, eb) - literal) < 1e-12


def test_sharp_limit_matches_projective_enumeration(rng):
    # eps = 1: probability that both copies give identical outcome pairs
    d = 2
    spec = spectral_decomposition(make_random_battery(rng, d))
    rho = random_density_matrix(rng, d * d).data
    u = np.kron(
        HaarSampler(SamplerConfig(seed=83), d).unitaries(1)[0],
        HaarSampler(SamplerConfig(seed=84), d).unitaries(1)[0],
    )
    rot = u @ rho @ u.conj().T
    prob = 0.0
    for i in range(d):
        for j in range(d):
            pij = np.kron(spec.proj_a[i], spec.proj_b[j])
            prob += np.trace(pij @ rot).real ** 2
    assert abs(coincidence_probability(rot, spec, 1.0, 1.0) - prob) < 1e-12


def test_mc_matches_closed_form():
    _, spec = _ising_spec()
    rho = _mixture(0.7)
    cfg = SamplerConfig(seed=85)
    closed = avg_coincidence_closed(rho, spec, 0.6, 0.35)
    mc = mc_coincidence(rho, spec, 0.6, 0.35, 15_000, cfg)
    assert mc.n_samples == 15_000
    assert abs(mc.mean - closed) < 5 * mc.se_mean


def test_mc_maximally_mixed():
    _, spec = _ising_spec()
    mc = mc_coincidence(np.eye(16) / 16, spec, 0.5, 0.5, 2000, SamplerConfig(seed=86))
    assert abs(mc.mean - 1 / 16) < max(5 * mc.se_mean, 1e-12)


def test_mc_determinism_and_convergence():
    _, spec = _ising_spec()
    rho = _mixture(0.4)
    cfg = SamplerConfig(seed=87)
    a = mc_coincidence(rho, spec, 0.8, 0.8, 4000, cfg)
    b = mc_coincidence(rho, spec, 0.8, 0.8, 4000, cfg)
    assert a == b
    se_small = mc_coincidence(rho, spec, 0.8, 0.8, 1000, cfg).se_mean
    se_large = mc_coincidence(rho, spec, 0.8, 0.8, 10_000, cfg).se_mean
    assert 2.0 < se_small / se_large < 5.0  # ~sqrt(10)


def test_closed_form_monotonicity():
    # C rises with each efficiency and with each sector length
    _, spec = _ising_spec()
    rho = _mixture(0.6)
    eps_grid = np.linspace(0, 1, 11)
    along_a = [avg_coincidence_closed(rho, spec, float(e), 0.5) for e in eps_grid]
    along_b = [avg_coincidence_closed(rho, spec, 0.5, float(e)) for e in eps_grid]
    assert np.all(np.diff(along_a) >= -1e-15)
    assert np.all(np.diff(along_b) >= -1e-15)
    alphas = np.linspace(0, 1, 11)
    along_alpha = [avg_coincidence_closed(_mixture(float(a)), spec, 0.5, 0.5) for a in alphas]
    assert np.all(np.diff(along_alpha) >= -1e-15)


def test_bound_equality_for_maximally_mixed():
    h, _ = _ising_spec()
    rep = coincidence_bound(np.eye(16) / 16, h, 0.5)
    assert abs(rep.cbar_closed - 1 / 16) < 1e-14
    assert abs(rep.bound_rhs - 1 / 16) < 1e-14
    assert abs(rep.slack) < 1e-14


def test_bound_nonnegative_excess_branch():
    # strong coupling: c >= 0, so the |c| - c correction vanishes
    h, _ = _ising_spec()
    rho = _mixture(0.9)
    eps = 0.4
    rep = coincidence_bound(rho, h, eps)
    assert rep.c_excess > 0
    expected_rhs = (1 + (h.d - 1) * eps**2 * rep.variance / rep.h2_min) / h.d**2
    assert abs(rep.bound_rhs - expected_rhs) < 1e-14


def test_bound_holds_on_random_sweep(rng):
    h, _ = _ising_spec()
    for _ in range(50):
        rho = random_density_matrix(rng, 16)
        eps = float(rng.uniform(0, 1))
        rep = coincidence_bound(rho, h, eps)
        assert rep.slack >= -1e-12
        assert 0 <= rep.cbar_closed <= 1


def test_bound_exact_zero_slack_on_tuned_isotropic():
    # symmetric weights, c = 0, vanishing local lengths: equality case
    d = 2
    eps = 0.6
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    z = np.diag([1.0, -1.0]).astype(complex)
    h2 = 1.0  # ha2 = hb2 = 1 for Z
    g = np.sqrt((d - 1) * h2 * eps**2)  # makes c exactly 0
    h = battery_hamiltonian(z, z, np.kron(x, x), g=g)
    v = np.array([1, 0, 0, 1]) / np.sqrt(2)
    iso = DensityMatrix(0.5 * np.outer(v, v.conj()) + 0.5 * np.eye(4) / 4)
    rep = coincidence_bound(iso, h, eps)
    assert abs(rep.c_excess) < 1e-12
    assert abs(rep.slack) < 1e-12


def _tight_d8():
    """The d = 8 nearest-neighbour battery (X (x) X, ha2 = hb2, c < 0) and a thermal mixture, where the bound is tight."""
    d = 8
    hop = np.array([[float(abs(a - c) == 1) for c in range(d)] for a in range(d)])
    local = np.diag((d - 1) / 2 - np.arange(d)).astype(complex)
    h = battery_hamiltonian(local, local, np.kron(hop, hop), g=0.5)
    return thermal_mixture_state(0.7, gibbs_state(h.ha, 1.5), gibbs_state(h.hb, 1.5)), h


def test_slack_is_exactly_zero_where_the_bound_is_tight_at_d8():
    """There the bound minus C rounds to -3.5e-18."""
    rho, h = _tight_d8()
    rep = coincidence_bound(rho, h, 0.6)
    assert rep.c_excess < 0 and h.ha2 == h.hb2
    assert rep.bound_rhs - rep.cbar_closed < 0  # the rounded difference the slack no longer reports
    assert rep.slack == 0.0


@pytest.mark.parametrize("excess", [1e-9, 1e-3])
def test_a_closed_form_above_the_bound_is_reported_as_a_negative_slack(excess, monkeypatch):
    """A C beyond rounding above the bound (here a perturbed closed form) is a violation and shows, not the closed slack."""
    rho, h = _tight_d8()
    exact = coincidence_bound(rho, h, 0.6)
    sector_coincidence = coincidence_module._sector_coincidence
    monkeypatch.setattr(
        coincidence_module, "_sector_coincidence", lambda *args: sector_coincidence(*args) * (1.0 + excess)
    )
    rep = coincidence_bound(rho, h, 0.6)
    assert rep.slack == rep.bound_rhs - rep.cbar_closed < 0.0
    assert rep.slack == pytest.approx(-excess * exact.cbar_closed, rel=1e-4)


def test_a_closed_form_above_the_bound_by_rounding_keeps_the_closed_slack(monkeypatch):
    rho, h = _tight_d8()
    sector_coincidence = coincidence_module._sector_coincidence
    monkeypatch.setattr(coincidence_module, "_sector_coincidence", lambda *args: sector_coincidence(*args) * (1.0 + 1e-14))
    rep = coincidence_bound(rho, h, 0.6)
    assert -SLACK_ROUNDING * rep.bound_rhs < rep.bound_rhs - rep.cbar_closed < 0.0
    assert rep.slack == 0.0


def test_bound_rejects_flat_local_hamiltonian():
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    h = battery_hamiltonian(np.zeros((2, 2)), np.zeros((2, 2)), np.kron(x, x), g=1.0)
    with pytest.raises(ValueError, match="h\\^2"):
        coincidence_bound(np.eye(4) / 4, h, 0.5)


def test_report_serializes():
    import json
    from dataclasses import asdict

    h, _ = _ising_spec()
    text = json.dumps(asdict(coincidence_bound(_mixture(0.5), h, 0.7)))
    assert "cbar_closed" in text
