"""Golden values pinning the sampling contract and the closed forms.

Sampling: (seed, stream, chunk) -> samples.  Closed forms: the TPM split,
the witness thresholds and the work variance at fixed inputs.  The numbers
were recorded from the implementation and must not move unless the
reproducibility contract or a formula is changed on purpose.
"""

import warnings

import numpy as np
import pytest

from qbattery.battery import (
    battery_hamiltonian,
    gibbs_state,
    ising_battery,
    spectral_decomposition,
    thermal_mixture_state,
)
from qbattery.coincidence import mc_coincidence
from qbattery.haar import DEFAULT_CHUNK, HaarSampler, SamplerConfig
from qbattery.linalg import random_density_matrix, random_hermitian
from qbattery.tpm import mc_tpm_statistics, tpm_variance_closed_form
from qbattery.witness import detect_schmidt_number
from qbattery.workstats import analytic_work_variance, mc_work_statistics, work_sample_summary

FIRST_UNITARY_D3_SEED20240901_STREAM2 = np.array(
    [
        [
            0.43638043941528526 + 0.3128568634044298j,
            0.27207741876191527 - 0.20982889638983312j,
            -0.3544471916993931 - 0.6841093449533899j,
        ],
        [
            0.11128168006457453 + 0.8330841017489333j,
            -0.23600758522817225 + 0.041332655480675884j,
            -0.19361949910050258 + 0.4457474486398456j,
        ],
        [
            0.006145698098551358 + 0.07240298755247714j,
            0.26503995077790704 - 0.8684996075053837j,
            0.34101913456652416 + 0.2321384153958481j,
        ],
    ]
)
MC_WORK_MEAN_N1000_SEED7_STREAM1 = -0.8357497109355763
MC_WORK_VARIANCE_N1000_SEED7_STREAM1 = 0.07436027663230564
MC_TPM_MEAN_N1000_SEED7_STREAM1 = -0.8381196677560298  # eps_a = 0.6, eps_b = 0.8
MC_TPM_SE_MEAN_N1000_SEED7_STREAM1 = 0.005619528907309764
MC_COINCIDENCE_MEAN_N1000_SEED7_STREAM1 = 0.066361779489197  # eps_a = 0.7, eps_b = 0.4
MC_COINCIDENCE_SE_N1000_SEED7_STREAM1 = 4.4030963317066995e-05
MC_COINCIDENCE_VARIANCE_N1000_SEED7_STREAM1 = 1.9387257306289005e-06
HISTOGRAM_ORIGIN_N1000_SEED7_STREAM1 = -1.75  # bin width 0.05
HISTOGRAM_COUNTS_N1000_SEED7_STREAM1 = [
    1, 1, 1, 1, 6, 6, 7, 4, 14, 18, 29, 33, 39, 46, 75, 64, 59, 77, 69,
    74, 73, 61, 50, 59, 29, 33, 14, 16, 10, 11, 7, 2, 5, 3, 2, 0, 1,
]  # fmt: skip


def test_first_haar_unitary_is_pinned():
    u = HaarSampler(SamplerConfig(seed=20240901, stream=2), 3).unitaries(1)[0]
    np.testing.assert_allclose(u, FIRST_UNITARY_D3_SEED20240901_STREAM2, rtol=0, atol=1e-12)


def _default_point():
    h = ising_battery(0.5, 1.0, 0.5, 0.45)
    rho = thermal_mixture_state(0.96, gibbs_state(h.ha, 1.5), gibbs_state(h.hb, 1.5))
    return h, rho, SamplerConfig(seed=7, stream=1)


def test_mc_work_statistics_is_pinned():
    assert DEFAULT_CHUNK == 4096  # the chunk the pinned run was drawn with
    h, rho, cfg = _default_point()
    stats = mc_work_statistics(rho, h, 1000, cfg)
    assert abs(stats.mean - MC_WORK_MEAN_N1000_SEED7_STREAM1) < 1e-12
    assert abs(stats.variance - MC_WORK_VARIANCE_N1000_SEED7_STREAM1) < 1e-12


def test_work_histogram_is_pinned():
    h, rho, cfg = _default_point()
    hist = work_sample_summary(rho, h, 1000, cfg, bin_width=0.05)[1]
    assert hist.origin == HISTOGRAM_ORIGIN_N1000_SEED7_STREAM1
    assert hist.counts.tolist() == HISTOGRAM_COUNTS_N1000_SEED7_STREAM1
    assert hist.n_samples == 1000


def test_mc_tpm_statistics_is_pinned():
    h, rho, cfg = _default_point()
    stats = mc_tpm_statistics(rho, spectral_decomposition(h), 0.6, 0.8, 1000, cfg)
    assert abs(stats.mean - MC_TPM_MEAN_N1000_SEED7_STREAM1) < 1e-12
    assert abs(stats.se_mean - MC_TPM_SE_MEAN_N1000_SEED7_STREAM1) < 1e-12


def test_mc_coincidence_is_pinned():
    h, rho, cfg = _default_point()
    stats = mc_coincidence(rho, spectral_decomposition(h), 0.7, 0.4, 1000, cfg)
    assert abs(stats.mean - MC_COINCIDENCE_MEAN_N1000_SEED7_STREAM1) < 1e-12
    assert abs(stats.se_mean - MC_COINCIDENCE_SE_N1000_SEED7_STREAM1) < 1e-12
    assert abs(stats.variance - MC_COINCIDENCE_VARIANCE_N1000_SEED7_STREAM1) < 1e-12


# Closed forms, pinned to 1e-12 relative.  TPM rows: (eps_a, eps_b) ->
# var_tpm, ideal, projective and noisy terms, n0, n1, n_noisy for the
# seeded d = 3 battery and state of _seeded_d3_point.
TPM_CLOSED_FORM_D3_SEED314159 = {
    (0.6, 0.8): (
        0.06429251547643985,
        0.023430401728458613,
        0.008961339391175608,
        0.03190077435680564,
        0.17249873098953258,
        0.14728754305760652,
        0.6802137259528606,
    ),
    (1e-8, 1e-8): (
        0.1358294150574383,
        0.13582941505743829,
        8.499368506823653e-34,
        2.2664983100676667e-17,
        1.0,
        1.1249999587213206e-32,
        2.999999944961761e-16,
    ),
}
WITNESS_VARIANCE_DEFAULT_POINT = 0.07268752138344028
WITNESS_THRESHOLDS_DEFAULT_POINT = (
    (1, 0.026974386120857282),
    (2, 0.047272450787784984),
    (3, 0.06757051545471268),
    (4, 0.08786858012164038),
)
ANALYTIC_WORK_MEAN_DEFAULT_POINT = -0.8409451502654683
ANALYTIC_WORK_VARIANCE_DEFAULT_POINT = 0.07268752138344028


def _assert_rel(actual, expected):
    np.testing.assert_allclose(actual, expected, rtol=1e-12, atol=0)


def _seeded_d3_point():
    rng = np.random.default_rng(314159)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the random interaction carries local parts
        h = battery_hamiltonian(random_hermitian(rng, 3), random_hermitian(rng, 3), random_hermitian(rng, 9), g=0.7)
    return spectral_decomposition(h), random_density_matrix(rng, 9)


@pytest.mark.parametrize("eps", sorted(TPM_CLOSED_FORM_D3_SEED314159))
def test_tpm_closed_form_is_pinned(eps):
    spec, rho = _seeded_d3_point()
    rep = tpm_variance_closed_form(rho, spec, *eps)
    w = rep.weights
    actual = (rep.var_tpm, rep.ideal_term, rep.projective_term, rep.noisy_term, w.n0, w.n1, w.n_noisy)
    _assert_rel(actual, TPM_CLOSED_FORM_D3_SEED314159[eps])


def test_witness_thresholds_are_pinned():
    h, rho, _ = _default_point()
    rep = detect_schmidt_number(rho, h)
    _assert_rel(rep.variance_used, WITNESS_VARIANCE_DEFAULT_POINT)
    assert [k for k, _ in rep.thresholds] == [k for k, _ in WITNESS_THRESHOLDS_DEFAULT_POINT]
    _assert_rel([b for _, b in rep.thresholds], [b for _, b in WITNESS_THRESHOLDS_DEFAULT_POINT])


def test_analytic_work_variance_is_pinned():
    h, rho, _ = _default_point()
    stats = analytic_work_variance(rho, h)
    _assert_rel(stats.mean, ANALYTIC_WORK_MEAN_DEFAULT_POINT)
    _assert_rel(stats.variance, ANALYTIC_WORK_VARIANCE_DEFAULT_POINT)
