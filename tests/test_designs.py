import numpy as np
import pytest

from conftest import make_random_battery
from designs import clifford_group, coincidence_mean, frame_potential, tpm_moments, work_moments
from qbattery.battery import spectral_decomposition
from qbattery.coincidence import avg_coincidence_closed
from qbattery.linalg import random_density_matrix
from qbattery.tpm import tpm_variance_closed_form
from qbattery.workstats import analytic_work_variance

_GROUPS = {d: clifford_group(d) for d in (2, 3)}


@pytest.mark.parametrize("d, size", [(2, 24), (3, 216)])
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
