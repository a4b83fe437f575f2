import numpy as np
import pytest

from qbattery.battery import battery_hamiltonian, gibbs_state, ising_battery, thermal_mixture_state
from qbattery.bloch import bloch_decompose
from qbattery.haar import HaarSampler, SamplerConfig
from qbattery.linalg import DensityMatrix, random_density_matrix
from qbattery.witness import (
    detect_schmidt_number,
    detect_schmidt_number_stack,
    schmidt_t2_cap,
    work_variance_bound,
)
from qbattery.workstats import analytic_work_variance

from conftest import make_random_battery, max_entangled_state
from oracles import random_pure_state

X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.diag([1.0, -1.0]).astype(complex)


def _ising(b=0.45):
    return ising_battery(0.5, 1.0, 0.5, b)


def _mixture(alpha, h, temperature=1.5):
    ta = gibbs_state(h.ha, temperature)
    tb = gibbs_state(h.hb, temperature)
    return thermal_mixture_state(alpha, ta, tb)


def test_t2_cap_collapses_without_local_lengths():
    assert schmidt_t2_cap(1, 4, 0, 0) == 3
    for k in range(1, 5):
        assert schmidt_t2_cap(k, 4, 0, 0) == 4 * k - 1


def test_t2_cap_symmetric_lengths():
    r2 = 0.37
    for k, d in [(1, 3), (2, 3), (3, 4)]:
        expected = k * d - 1 + (k * d - 2) * r2
        assert abs(schmidt_t2_cap(k, d, r2, r2) - expected) < 1e-14


def test_t2_cap_monotone_in_k(rng):
    for _ in range(50):
        d = int(rng.integers(2, 5))
        ra2, rb2 = rng.uniform(0, d - 1, 2)
        caps = [schmidt_t2_cap(k, d, ra2, rb2) for k in range(1, d + 1)]
        assert np.all(np.diff(caps) >= -1e-12)


def test_t2_cap_rejects_bad_k():
    with pytest.raises(ValueError):
        schmidt_t2_cap(0, 3, 0, 0)
    with pytest.raises(ValueError):
        schmidt_t2_cap(4, 3, 0, 0)


def test_variance_bound_at_k_equals_d_never_violated(rng):
    # s_d >= t^2 for every physical state, so the k = d bound caps the variance
    for d in (2, 3):
        h = make_random_battery(rng, d)
        for _ in range(30):
            rho = random_density_matrix(rng, d * d)
            form = bloch_decompose(rho, d)
            var = analytic_work_variance(rho, h).variance
            bound = work_variance_bound(d, d, form.r_a2, form.r_b2, h.ha2, h.hb2, h.g2v2)
            assert var <= bound + 1e-12


def test_variance_bound_flat_without_interaction(rng):
    bounds = [work_variance_bound(k, 4, 0.2, 0.3, 1.0, 1.0, 0.0) for k in range(1, 5)]
    assert np.ptp(bounds) == 0


def test_detects_nothing_for_maximally_mixed():
    h = _ising()
    rep = detect_schmidt_number(np.eye(16) / 16, h)
    assert rep.detected_sn_lower_bound == 1
    assert rep.purity_route_sn == 1


def test_strong_mixing_detects_full_schmidt_number():
    rep = detect_schmidt_number(_mixture(0.96, _ising()), _ising())
    assert rep.detected_sn_lower_bound == 4
    assert rep.variance_used > dict(rep.thresholds)[3]


def test_weak_mixing_compatible_with_separable():
    rep = detect_schmidt_number(_mixture(0.08, _ising()), _ising())
    assert rep.detected_sn_lower_bound == 1
    assert rep.variance_used <= dict(rep.thresholds)[1]


def test_threshold_hierarchy_non_decreasing():
    rep = detect_schmidt_number(_mixture(0.5, _ising()), _ising())
    bounds = [b for _, b in rep.thresholds]
    assert np.all(np.diff(bounds) >= -1e-15)


def test_ppt_reported_but_not_merged():
    # close to the product state: PPT already negative, witness still at 1
    h = _ising()
    for alpha in np.linspace(0, 1, 21):
        rep = detect_schmidt_number(_mixture(float(alpha), h), h)
        assert rep.detected_sn_lower_bound >= 1
    rep = detect_schmidt_number(_mixture(0.2, h), h)
    assert rep.ppt_min_eig < 0 and rep.detected_sn_lower_bound == 1


def test_ppt_threshold_below_witness_threshold():
    # entanglement (PPT) onset occurs at weaker mixing than witness detection
    h = _ising()
    alphas = np.linspace(0, 1, 201)
    ppt_cross = None
    witness_cross = None
    for alpha in alphas:
        rep = detect_schmidt_number(_mixture(float(alpha), h), h)
        if ppt_cross is None and rep.ppt_min_eig < 0:
            ppt_cross = alpha
        if witness_cross is None and rep.detected_sn_lower_bound > 1:
            witness_cross = alpha
    assert ppt_cross is not None and witness_cross is not None
    assert ppt_cross < witness_cross


def test_local_unitary_invariance(rng):
    h = _ising()
    rho = _mixture(0.8, h)
    va = HaarSampler(SamplerConfig(seed=51), 4).unitaries(1)[0]
    vb = HaarSampler(SamplerConfig(seed=52), 4).unitaries(1)[0]
    u = np.kron(va, vb)
    rotated = DensityMatrix(u @ rho.data @ u.conj().T)
    a = detect_schmidt_number(rho, h)
    b = detect_schmidt_number(rotated, h)
    assert a.detected_sn_lower_bound == b.detected_sn_lower_bound
    assert abs(a.variance_used - b.variance_used) < 1e-10


def test_witness_routes_agree_on_random_states(rng):
    h = _ising()
    for _ in range(50):
        rho = random_density_matrix(rng, 16)
        rep = detect_schmidt_number(rho, h)  # raises internally on mismatch
        assert rep.purity_route_sn == rep.detected_sn_lower_bound


@pytest.mark.parametrize("g", [5e-5, 3.2e-5])
def test_weak_coupling_bell_state_does_not_raise(g):
    # g^2 v^2 is above the absolute margin, but one k-step of the variance caps is not
    bell = np.zeros((4, 4), dtype=complex)
    bell[np.ix_([0, 3], [0, 3])] = 0.5
    rep = detect_schmidt_number(bell, battery_hamiltonian(Z, Z, np.kron(Z, Z), g))
    assert rep.purity_route_sn == 2
    assert rep.detected_sn_lower_bound <= rep.purity_route_sn


def test_soundness_on_separable_states(rng):
    # products and their mixtures can never violate the k = 1 bound
    h = _ising()
    for _ in range(50):
        n_terms = int(rng.integers(1, 6))
        weights = rng.dirichlet(np.ones(n_terms))
        rho = np.zeros((16, 16), dtype=complex)
        for w in weights:
            rho += w * np.kron(random_density_matrix(rng, 4).data, random_density_matrix(rng, 4).data)
        rep = detect_schmidt_number(DensityMatrix(rho), h)
        assert rep.detected_sn_lower_bound == 1


def test_isotropic_detection_threshold_small_grid():
    # hot isotropic family: detection of SN >= k+1 exactly at alpha^2 (d^2-1) > kd-1
    h = _ising()
    tau = DensityMatrix(np.eye(4) / 4)
    for alpha in np.linspace(0.05, 0.95, 19):
        rep = detect_schmidt_number(thermal_mixture_state(float(alpha), tau, tau), h)
        t2 = 15 * alpha**2
        expected = 1 + sum(1 for k in range(1, 5) if t2 > 4 * k - 1 + 1e-12)
        assert rep.detected_sn_lower_bound == expected


def _isotropic_levels(d, p):
    """The stacked witness's levels on rho_p = (1 - p) 1/d^2 + p |Phi+><Phi+| at each p, in stacks of at most 2 MiB."""
    h = make_random_battery(np.random.default_rng(1100 + d), d)
    phi = np.eye(d).reshape(d * d) / np.sqrt(d)
    levels = []
    for part in np.array_split(p, -(-len(p) * d**4 * 16 // 2**21)):
        states = (1 - part)[:, None, None] * np.eye(d * d) / d**2 + part[:, None, None] * np.outer(phi, phi)
        levels.append(detect_schmidt_number_stack(states, d, h.ha2, h.hb2, h.g2v2).detected_sn_lower_bound)
    return np.concatenate(levels)


@pytest.mark.parametrize("d", [2, 3, 4, 8, 16])
def test_the_witness_certifies_an_isotropic_state_at_its_closed_form_level_and_never_above_its_schmidt_number(d):
    """On isotropic states t^2 = p^2 (d^2 - 1) with maximally mixed marginals, so the work witness certifies k + 1
    exactly where p^2 > (kd - 1)/(d^2 - 1).  Their Schmidt number is ceil(d F), F = p + (1 - p)/d^2 (Terhal and
    Horodecki 2000), which exceeds k where p > (kd - 1)/(d^2 - 1): the same threshold on p instead of p^2, so the
    witness is sound and loses levels.
    """
    p = np.linspace(0.0, 1.0, 201)
    levels = _isotropic_levels(d, p)
    ks = np.arange(1, d + 1)
    assert np.array_equal(levels, 1 + np.max(np.where(p[:, None] ** 2 > (ks * d - 1) / (d * d - 1), ks, 0), axis=1))
    schmidt_number = np.ceil(d * (p + (1 - p) / d**2) - 1e-9)
    assert np.all(levels <= schmidt_number)
    assert levels[-1] == schmidt_number[-1] == d


@pytest.mark.parametrize("d, k", [(d, k) for d in (2, 3, 4, 8, 16) for k in sorted({1, 2, d // 2, d - 1, d})])
def test_a_state_maximally_entangled_on_k_levels_is_certified_at_exactly_k(d, k):
    h = make_random_battery(np.random.default_rng(1000 + d), d)
    assert h.g2v2 > 0
    psi = np.zeros(d * d, dtype=complex)
    psi[: k * (d + 1) : d + 1] = 1 / np.sqrt(k)
    rep = detect_schmidt_number(DensityMatrix(np.outer(psi, psi.conj())), h)
    assert rep.detected_sn_lower_bound == rep.purity_route_sn == k


def test_pure_state_report_maximally_entangled():
    d = 4
    h = _ising()
    rep = detect_schmidt_number(max_entangled_state(d), h).pure_state_branch
    assert abs(rep.t2 - (d * d - 1)) < 1e-9
    # the cap is saturated (equality) only at k = d
    assert abs(rep.t2 - dict(rep.t2_caps)[d]) < 1e-9
    assert rep.detected_sn_lower_bound == d


def test_pure_state_flat_interaction_gives_constant_variance(rng):
    # g^2 v^2 = h^2 (d^2 - 1) makes the variance t^2-independent; the three
    # Pauli products give v^2 = 3 exactly in floating point
    y = np.array([[0, -1j], [1j, 0]])
    v = np.kron(X, X) + np.kron(y, y) + np.kron(Z, Z)
    h = battery_hamiltonian(Z, Z, v, g=1.0)
    assert h.g2v2 / 3 == h.ha2
    values = []
    for seed in range(5):
        rng2 = np.random.default_rng(seed)
        psi = random_pure_state(rng2, 4)
        rep = detect_schmidt_number(psi, h).pure_state_branch
        assert rep.bound_direction == "flat"
        values.append(rep.variance)
    assert np.ptp(values) < 1e-10


def test_pure_state_purity_constraint(rng):
    d = 3
    for _ in range(20):
        psi = random_pure_state(rng, d * d)
        form = bloch_decompose(psi, d)
        assert abs(form.r_a2 + form.r_b2 - (d * d - 1 - form.t2)) < 1e-9


def test_pure_state_direction_signs():
    weak = battery_hamiltonian(Z, Z, np.kron(X, X), g=0.1)
    strong = battery_hamiltonian(Z, Z, np.kron(X, X), g=10.0)
    psi = max_entangled_state(2)
    assert detect_schmidt_number(psi, weak).pure_state_branch.bound_direction == "lower"
    assert detect_schmidt_number(psi, strong).pure_state_branch.bound_direction == "upper"


def test_pure_state_report_rejects_mixed_and_asymmetric(rng):
    h = _ising()
    assert detect_schmidt_number(np.eye(16) / 16, h).pure_state_branch is None
    asym = ising_battery(0.5, 1.0, 0.9, 0.45)
    assert asym.ha2 != asym.hb2
    assert detect_schmidt_number(max_entangled_state(4), asym).pure_state_branch is None


def test_report_serializes(rng):
    import json
    from dataclasses import asdict

    rep = detect_schmidt_number(_mixture(0.96, _ising()), _ising())
    text = json.dumps(asdict(rep))
    assert "detected_sn_lower_bound" in text


@pytest.mark.parametrize("d", [2, 4, 8, 16])
def test_maximally_mixed_state_has_exactly_zero_sector_lengths(d):
    rep = detect_schmidt_number(np.eye(d * d) / d**2, make_random_battery(np.random.default_rng(d), d))
    assert (rep.r_a2, rep.r_b2, rep.t2) == (0.0, 0.0, 0.0)
