"""Boundary inputs at the largest supported local dimension, d = 16.

Each case runs the witness, the TPM and coincidence closed forms and the
work Monte Carlo (64 pairs) with numpy's RuntimeWarning raised as an error,
and asserts values that follow from the input alone.
"""

import warnings

import numpy as np
import pytest

from qbattery.battery import battery_hamiltonian, spectral_decomposition
from qbattery.coincidence import coincidence_bound
from qbattery.haar import SamplerConfig
from qbattery.linalg import DensityMatrix, purity, random_density_matrix, random_hermitian
from qbattery.tpm import tpm_variance_closed_form
from qbattery.witness import detect_schmidt_number
from qbattery.workstats import analytic_work_variance, mc_work_statistics

from oracles import random_pure_state

D = 16


def _traceless(rng):
    x = random_hermitian(rng, D)
    return x - np.trace(x).real / D * np.eye(D)


def _battery(rng, ha, hb):
    """A battery whose interaction is a product of traceless factors, so no local part moves into ha or hb."""
    return battery_hamiltonian(ha, hb, np.kron(_traceless(rng), _traceless(rng)), g=1.0)


def _degenerate(rng):
    levels = np.diag([1.0] * 8 + [-1.0] * 8)  # each level 8-fold degenerate
    return _battery(rng, levels, levels), random_density_matrix(rng, D * D), 0.5


def _pure(rng):
    ha = random_hermitian(rng, D)
    return _battery(rng, ha, ha), random_pure_state(rng, D * D), 0.5


def _maximally_entangled(rng):
    ha = random_hermitian(rng, D)
    phi = np.eye(D).reshape(-1) / np.sqrt(D)
    return _battery(rng, ha, ha), DensityMatrix(np.outer(phi, phi)), 0.5


def _weak_detector(rng):
    return _battery(rng, random_hermitian(rng, D), random_hermitian(rng, D)), random_density_matrix(rng, D * D), 1e-8


@pytest.mark.parametrize("case", [_degenerate, _pure, _maximally_entangled, _weak_detector])
def test_d16_boundary(case):
    rng = np.random.default_rng(16)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        h, rho, eps = case(rng)
        spec = spectral_decomposition(h)
        report = detect_schmidt_number(rho, h)
        tpm = tpm_variance_closed_form(rho, spec, eps, eps)
        bound = coincidence_bound(rho, h, eps)
        mc = mc_work_statistics(rho, h, 64, SamplerConfig(seed=5))
    closed = analytic_work_variance(rho, h)

    # the sector lengths split the purity: d^2 tr rho^2 = 1 + rA^2 + rB^2 + t^2
    assert D * D * purity(rho) == pytest.approx(1 + report.r_a2 + report.r_b2 + report.t2, rel=1e-12)
    assert report.variance_used == closed.variance
    assert 1 <= report.detected_sn_lower_bound <= D
    w = tpm.weights
    assert w.n0 + w.n1 + w.n_noisy == pytest.approx(1.0, abs=1e-12)
    assert tpm.var_tpm <= tpm.var_diag * (1 + 1e-12)
    assert bound.slack >= -1e-15 and 0.0 <= bound.cbar_closed <= 1.0
    assert abs(mc.mean - closed.mean) < 5 * mc.se_mean
    assert abs(mc.variance - closed.variance) < 5 * mc.se_variance

    if case is _degenerate:
        assert (h.ha2, h.hb2) == (1.0, 1.0)
        assert np.count_nonzero(np.isclose(spec.energies_a, 1.0)) == 8
    if case in (_pure, _maximally_entangled):
        branch = report.pure_state_branch
        assert branch is not None and branch.t2 == report.t2
        assert branch.variance == pytest.approx(report.variance_used, rel=1e-10)
        assert report.r_a2 == pytest.approx(report.r_b2, abs=1e-10)  # equal Schmidt spectra
    if case is _maximally_entangled:
        assert (report.r_a2, report.r_b2, report.t2) == pytest.approx((0.0, 0.0, D * D - 1), abs=1e-10)
        assert report.ppt_min_eig == pytest.approx(-1 / D, abs=1e-12)  # the partial transpose is SWAP / d
        assert report.detected_sn_lower_bound == D
    if case is _weak_detector:
        # eps -> 0: the diagonal variance is recovered and each coincidence is 1/d
        assert tpm.var_tpm == pytest.approx(tpm.var_diag, rel=1e-12)
        assert bound.cbar_closed == pytest.approx(1 / D**2, rel=1e-12)
