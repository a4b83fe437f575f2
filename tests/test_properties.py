"""Property tests over random batteries, states and detector efficiencies, d = 2..6.

Each example draws a local dimension and a numpy seed; the seed fixes the
battery, the state and the local unitaries.  Runs are derandomized, so the
examples are the same on every run.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_random_battery
from oracles import random_pure_state
from qbattery.battery import spectral_decomposition
from qbattery.coincidence import avg_coincidence_closed, coincidence_bound
from qbattery.haar import HaarSampler, SamplerConfig
from qbattery.linalg import DensityMatrix, random_density_matrix
from qbattery.tpm import tpm_variance_closed_form
from qbattery.witness import detect_schmidt_number
from qbattery.workstats import analytic_work_variance

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=1500)
dims = st.integers(2, 6)
seeds = st.integers(0, 2**32 - 1)
efficiencies = st.floats(0.0, 1.0)


@PROPERTY
@given(d=dims, seed=seeds, eps_a=efficiencies, eps_b=efficiencies)
def test_variance_and_coincidence_are_local_unitary_invariant(d, seed, eps_a, eps_b):
    rng = np.random.default_rng(seed)
    h = make_random_battery(rng, d)
    spec = spectral_decomposition(h)
    rho = random_density_matrix(rng, d * d)
    u = np.kron(HaarSampler(SamplerConfig(seed, 0), d).unitaries(1)[0], HaarSampler(SamplerConfig(seed, 1), d).unitaries(1)[0])
    rotated = DensityMatrix(u @ rho.data @ u.conj().T)
    np.testing.assert_allclose(
        analytic_work_variance(rotated, h).variance, analytic_work_variance(rho, h).variance, rtol=1e-10
    )
    np.testing.assert_allclose(
        avg_coincidence_closed(rotated, spec, eps_a, eps_b), avg_coincidence_closed(rho, spec, eps_a, eps_b), rtol=1e-10
    )


@PROPERTY
@given(d=dims, seed=seeds, eps=efficiencies, g=st.floats(0.0, 3.0), mixing=st.floats(0.0, 1.0))
def test_coincidence_slack_is_non_negative_and_the_bound_minus_the_closed_form(d, seed, eps, g, mixing):
    rng = np.random.default_rng(seed)
    h = make_random_battery(rng, d, g=g)
    rho = DensityMatrix(mixing * random_pure_state(rng, d * d).data + (1.0 - mixing) * np.eye(d * d) / d**2)
    rep = coincidence_bound(rho, h, eps)
    assert rep.slack >= 0.0
    assert abs(rep.slack - (rep.bound_rhs - rep.cbar_closed)) <= 1e-14 * rep.bound_rhs


@PROPERTY
@given(d=dims, seed=seeds, eps_a=efficiencies, eps_b=efficiencies)
def test_tpm_weights_are_a_partition_and_noise_never_adds_variance(d, seed, eps_a, eps_b):
    rng = np.random.default_rng(seed)
    spec = spectral_decomposition(make_random_battery(rng, d))
    rep = tpm_variance_closed_form(random_density_matrix(rng, d * d), spec, eps_a, eps_b)
    w = rep.weights
    for n in (w.n0, w.n1, w.n_noisy):
        assert 0.0 <= n <= 1.0 + 1e-12
    assert abs(w.n0 + w.n1 + w.n_noisy - 1.0) < 1e-12
    assert rep.var_tpm <= rep.var_diag * (1.0 + 1e-12)


@PROPERTY
@given(d=dims, seed=seeds, terms=st.integers(1, 4))
def test_witness_never_certifies_a_separable_state(d, seed, terms):
    rng = np.random.default_rng(seed)
    h = make_random_battery(rng, d)
    weights = rng.dirichlet(np.ones(terms))
    products = [np.kron(random_pure_state(rng, d).data, random_pure_state(rng, d).data) for _ in range(terms)]
    rho = DensityMatrix(sum(p * m for p, m in zip(weights, products)))
    assert detect_schmidt_number(rho, h).detected_sn_lower_bound == 1


def _haar(rng, d):
    q, r = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


@PROPERTY
@given(dk=st.integers(2, 5).flatmap(lambda d: st.tuples(st.just(d), st.integers(1, d))), seed=seeds, terms=st.integers(1, 3))
def test_witness_never_certifies_above_the_schmidt_number(dk, seed, terms):
    """Mixtures of (U_A (x) U_B) sum_{i<k} s_i |ii> have Schmidt number at most k; neither route may certify more."""
    d, k = dk
    rng = np.random.default_rng(seed)
    h = make_random_battery(rng, d)
    weights = rng.dirichlet(np.ones(terms))
    m = np.zeros((d * d, d * d), dtype=complex)
    for p in weights:
        psi = np.zeros(d * d, dtype=complex)
        psi[: k * (d + 1) : d + 1] = np.sqrt(rng.dirichlet(np.ones(k)))
        psi = np.kron(_haar(rng, d), _haar(rng, d)) @ psi
        m += p * np.outer(psi, psi.conj())
    rep = detect_schmidt_number(DensityMatrix(m), h)
    assert rep.detected_sn_lower_bound <= k
    assert rep.purity_route_sn <= k
