import numpy as np
import pytest

from conftest import make_random_battery
from designs import (
    clifford_group,
    coincidence_mean,
    frame_potential,
    probe_square_mean,
    tpm_moments,
    twirl,
    work_moments,
)
from qbattery.battery import spectral_decomposition
from qbattery.coincidence import avg_coincidence_closed
from qbattery.haar import twirl1, twirl2, two_copy_local_twirl_probe
from qbattery.linalg import random_density_matrix, random_hermitian, swap_operator
from qbattery.tpm import tpm_variance_closed_form
from qbattery.workstats import analytic_work_variance

_GROUPS = {d: clifford_group(d) for d in (2, 3, 5)}  # 24, 216 and 3,000 elements


@pytest.mark.parametrize("d, size", [(2, 24), (3, 216), (5, 3000)])
def test_clifford_group_is_a_unitary_2_design(d, size):
    group = _GROUPS[d]
    assert len(group) == size
    np.testing.assert_allclose(group @ group.conj().transpose(0, 2, 1), np.broadcast_to(np.eye(d), group.shape), atol=1e-12)
    assert frame_potential(group) == pytest.approx(2.0, rel=1e-12)


@pytest.mark.parametrize("d", [2, 3])
def test_closed_forms_are_exact_over_every_clifford_pair(rng, d):
    """Work variance, coincidence and the TPM mean and variance equal their average over all |C|^2 local pairs."""
    group, h, rho = _GROUPS[d], make_random_battery(rng, d), random_density_matrix(rng, d * d)
    spec = spectral_decomposition(h)
    closed = analytic_work_variance(rho, h)
    assert work_moments(group, rho.data, h.total) == pytest.approx((closed.mean, closed.variance), rel=1e-12)
    for eps_a, eps_b in [(0.6, 0.8), (0.0, 1.0), (1.0, 1.0), (0.3, 0.3)]:
        report = tpm_variance_closed_form(rho, spec, eps_a, eps_b)
        moments = tpm_moments(group, rho.data, spec, eps_a, eps_b)
        assert moments == pytest.approx((report.mean_tpm, report.var_tpm), rel=1e-12)
        coincidence = avg_coincidence_closed(rho, spec, eps_a, eps_b)
        assert coincidence_mean(group, rho.data, spec, eps_a, eps_b) == pytest.approx(coincidence, rel=1e-12)


def _assert_relative(value, closed, rel=1e-12):
    assert np.linalg.norm(np.subtract(value, closed)) <= rel * np.linalg.norm(closed)


@pytest.mark.parametrize("d", [2, 3, 5])
def test_twirls_are_exact_over_the_clifford_group(rng, d):
    """twirl1 over every element U, and twirl2 over every U (x) U, at 1e-12 relative on random Hermitian inputs."""
    group = _GROUPS[d]
    x1, x2 = random_hermitian(rng, d), random_hermitian(rng, d * d)
    _assert_relative(twirl(group, x1), twirl1(x1))
    _assert_relative(twirl(group, x2, copies=2), twirl2(x2))


@pytest.mark.parametrize("d", [2, 3])
def test_two_copy_local_twirl_probe_is_exact_over_every_clifford_pair(rng, d):
    """The probes 1, SWAP and a random Hermitian P, averaged as tr[P U rho U^dag]^2 over all |C|^2 local pairs."""
    group, rho = _GROUPS[d], random_density_matrix(rng, d * d)
    for p in (np.eye(d * d), swap_operator(d), random_hermitian(rng, d * d)):
        _assert_relative(probe_square_mean(group, rho.data, p), two_copy_local_twirl_probe(rho, d, p))
