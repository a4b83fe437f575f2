import re
import threading
import time
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from qbattery import workstats
from qbattery.battery import battery_hamiltonian, gibbs_state, ising_battery, spectral_decomposition, thermal_mixture_state
from qbattery.coincidence import avg_coincidence_closed, coincidence_bound, mc_coincidence
from qbattery.haar import HaarSampler, SamplerConfig, chunk_size, pair_chunk
from qbattery.linalg import DensityMatrix, random_density_matrix, random_hermitian
from qbattery.tpm import (
    instrument_average,
    mc_tpm_statistics,
    tpm_run,
    tpm_shot_sample,
    tpm_spectral_stats,
    tpm_variance_closed_form,
)
from qbattery.witness import detect_schmidt_number
from qbattery.workstats import (
    MAX_HISTOGRAM_BINS,
    _block,
    _pair_coordinates,
    _projector_coordinates,
    _real_adjoint,
    _rotated_planes,
    analytic_work_variance,
    conjugation_traces,
    histogram_fits,
    iter_samples,
    iter_work_values,
    mc_work_statistics,
    pair_kron,
    pair_traces,
    rotated_energies,
    rotated_populations,
    summarize,
    work,
    work_sample_summary,
)

from conftest import bell_state, make_random_battery, tag_chunks
from oracles import random_pure_state

X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.diag([1.0, -1.0]).astype(complex)


def _bell_battery(g=0.7):
    return battery_hamiltonian(Z, Z, np.kron(X, X), g=g)


def test_work_identity_unitary_gives_zero(rng):
    h = make_random_battery(rng, 2)
    rho = random_density_matrix(rng, 4)
    assert abs(work(rho, h, np.eye(2), np.eye(2))) < 1e-12


def test_work_zero_for_commuting_invariant_state():
    # diagonal state, diagonal Hamiltonian, diagonal (phase) unitaries
    h = ising_battery(0.5, 1.0, 0.5, 0.45)
    rho = DensityMatrix(np.diag([0.4, 0.3, 0.2, 0.1]))
    rho16 = DensityMatrix(np.kron(rho.data, rho.data))
    ua = np.diag(np.exp(1j * np.array([0.3, -1.2, 0.5, 2.0])))
    ub = np.diag(np.exp(1j * np.array([1.0, 0.1, -0.4, 0.9])))
    assert abs(work(rho16, h, ua, ub)) < 1e-12


def test_work_dual_path(rng):
    h = make_random_battery(rng, 3)
    rho = random_density_matrix(rng, 9)
    ua = HaarSampler(SamplerConfig(seed=8), 3).unitaries(1)[0]
    ub = HaarSampler(SamplerConfig(seed=9), 3).unitaries(1)[0]
    u = np.kron(ua, ub)
    expected = np.trace(rho.data @ h.total).real - np.trace(rho.data @ u.conj().T @ h.total @ u).real
    assert abs(work(rho, h, ua, ub) - expected) < 1e-12


def test_analytic_mean_trivials(rng):
    h = make_random_battery(rng, 2)
    hh = battery_hamiltonian(
        h.ha - np.trace(h.ha) / 2 * np.eye(2), h.hb - np.trace(h.hb) / 2 * np.eye(2), h.v, h.g
    )
    assert abs(np.trace(hh.total)) < 1e-10
    assert abs(analytic_work_variance(np.eye(4) / 4, hh).mean) < 1e-12


def test_mean_shift_invariance(rng):
    h = make_random_battery(rng, 2)
    rho = random_density_matrix(rng, 4)
    shifted = battery_hamiltonian(h.ha + 2.5 * np.eye(2), h.hb, h.v, h.g)
    assert abs(analytic_work_variance(rho, h).mean - analytic_work_variance(rho, shifted).mean) < 1e-12


def test_variance_shift_invariance(rng):
    h = make_random_battery(rng, 3)
    rho = random_density_matrix(rng, 9)
    shifted = battery_hamiltonian(h.ha + 1.1 * np.eye(3), h.hb - 0.4 * np.eye(3), h.v, h.g)
    a = analytic_work_variance(rho, h).variance
    b = analytic_work_variance(rho, shifted).variance
    assert abs(a - b) < 1e-12


def test_variance_trivials():
    h = _bell_battery()
    assert analytic_work_variance(np.eye(4) / 4, h).variance == 0


def test_bell_state_variance_closed_value():
    # rA2 = rB2 = 0, t2 = 3, v2 = 1 collapse the closed form to g^2/3
    g = 0.7
    stats = analytic_work_variance(bell_state(), _bell_battery(g))
    assert abs(stats.variance - g**2 / 3) < 1e-12


def test_bell_state_variance_matches_mc():
    stats = mc_work_statistics(bell_state(), _bell_battery(), 30_000, SamplerConfig(seed=21))
    closed = 0.7**2 / 3
    assert abs(stats.variance - closed) < 5 * stats.se_variance


def test_mc_matches_closed_form_random(rng):
    for d in (2, 3):
        h = make_random_battery(rng, d)
        rho = random_density_matrix(rng, d * d)
        closed = analytic_work_variance(rho, h)
        stats = mc_work_statistics(rho, h, 20_000, SamplerConfig(seed=40 + d))
        assert abs(stats.variance - closed.variance) < 5 * stats.se_variance
        assert abs(stats.mean - closed.mean) < 5 * stats.se_mean


def test_oracle_equivalence_twenty_random_batteries():
    # closed form vs n = 1e5 Monte Carlo across dimensions and instances
    worst = 0.0
    count = 0
    for d, n_inst in ((2, 7), (3, 7), (4, 6)):
        rng2 = np.random.default_rng(600 + d)
        for _ in range(n_inst):
            h = make_random_battery(rng2, d)
            rho = random_density_matrix(rng2, d * d)
            closed = analytic_work_variance(rho, h).variance
            count += 1
            stats = mc_work_statistics(rho, h, 100_000, SamplerConfig(seed=660 + count))
            worst = max(worst, abs(stats.variance - closed) / stats.se_variance)
    assert count == 20
    assert worst < 5


def test_mc_determinism():
    h = _bell_battery()
    cfg = SamplerConfig(seed=3)
    a = mc_work_statistics(bell_state(), h, 5000, cfg)
    b = mc_work_statistics(bell_state(), h, 5000, cfg)
    assert a == b


def test_mc_se_shrinks_with_n():
    h = _bell_battery()
    small = mc_work_statistics(bell_state(), h, 1000, SamplerConfig(seed=5))
    large = mc_work_statistics(bell_state(), h, 100_000, SamplerConfig(seed=6))
    ratio = small.se_variance / large.se_variance
    assert 6 < ratio < 16  # expect ~10x for 100x samples


def test_mc_maximally_mixed_variance_near_zero():
    h = _bell_battery()
    stats = mc_work_statistics(np.eye(4) / 4, h, 3000, SamplerConfig(seed=10))
    assert stats.variance < 1e-25  # exactly zero work for every unitary


def test_mc_rejects_tiny_n():
    with pytest.raises(ValueError):
        mc_work_statistics(bell_state(), _bell_battery(), 1, SamplerConfig(seed=1))


@pytest.mark.parametrize("n, message", [(10**30, "at most 2^63 - 1"), (3.5, "must be an integer")])
def test_mc_refuses_an_n_beyond_the_counter_or_not_an_integer(n, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        mc_work_statistics(bell_state(), _bell_battery(), n, SamplerConfig(seed=1))


@pytest.mark.parametrize(
    "run",
    [
        lambda rho, h, cfg: mc_work_statistics(rho, h, 10, cfg),
        lambda rho, h, cfg: work_sample_summary(rho, h, 10, cfg, bin_width=0.1)[1],
        lambda rho, h, cfg: mc_coincidence(rho, spectral_decomposition(h), 0.5, 0.5, 10, cfg),
        # every other entry point that takes a state for a battery reads it through the same intake
        lambda rho, h, cfg: work(rho, h, np.eye(4), np.eye(4)),
        lambda rho, h, cfg: analytic_work_variance(rho, h),
        lambda rho, h, cfg: instrument_average(rho, spectral_decomposition(h), 0.5, 0.5),
        lambda rho, h, cfg: tpm_run(rho, spectral_decomposition(h), 0.5, 0.5, np.eye(4), np.eye(4)),
        lambda rho, h, cfg: tpm_shot_sample(
            rho, spectral_decomposition(h), 0.5, 0.5, np.eye(4), np.eye(4), 10, np.random.default_rng(1)
        ),
        lambda rho, h, cfg: mc_tpm_statistics(rho, spectral_decomposition(h), 0.5, 0.5, 10, cfg),
        lambda rho, h, cfg: tpm_variance_closed_form(rho, spectral_decomposition(h), 0.5, 0.5),
        lambda rho, h, cfg: tpm_spectral_stats(rho, spectral_decomposition(h)),
        lambda rho, h, cfg: avg_coincidence_closed(rho, spectral_decomposition(h), 0.5, 0.5),
        lambda rho, h, cfg: coincidence_bound(rho, h, 0.5),
        lambda rho, h, cfg: detect_schmidt_number(rho, h),
    ],
)
def test_a_monte_carlo_run_refuses_a_state_of_the_wrong_size_as_work_does(run):
    h = ising_battery(0.5, 1.0, 0.5, 0.45)
    with pytest.raises(ValueError, match=re.escape("state dimension 9 does not match battery d^2 = 16")):
        run(np.eye(9) / 9, h, SamplerConfig(seed=1))
    with pytest.raises(ValueError, match=re.escape("density matrix must have unit trace, got 16.0")):
        run(np.eye(16), h, SamplerConfig(seed=1))


def test_histogram_counts_sum():
    h = _bell_battery()
    hist = work_sample_summary(bell_state(), h, 4000, SamplerConfig(seed=11), bin_width=0.1)[1]
    assert hist.counts.sum() == 4000
    assert abs(hist.origin / 0.1 - round(hist.origin / 0.1)) < 1e-9  # anchored at 0
    assert len(hist.edges()) == len(hist.counts) + 1


def test_histogram_symmetric_for_mixed_state_sign_flip_oracle(rng):
    # maximally mixed battery state with traceless H gives symmetric work
    h = ising_battery(0.5, 1.0, 0.5, 0.45)
    mixed = DensityMatrix(np.eye(16) / 16)
    values = np.concatenate(list(iter_work_values(mixed, h, 20_000, SamplerConfig(seed=12))))
    g1 = _skew(values)
    flips = rng.choice([-1.0, 1.0], size=(200, values.size))
    boot = np.array([_skew(values * f) for f in flips])
    assert abs(g1) < 5 * boot.std()


def _skew(x):
    c = x - x.mean()
    m2 = np.mean(c**2)
    if m2 == 0:
        return 0.0
    return np.mean(c**3) / m2**1.5


def test_summary_consistent_with_parts():
    h = _bell_battery()
    cfg = SamplerConfig(seed=13)
    stats, hist = work_sample_summary(bell_state(), h, 3000, cfg, bin_width=0.05)
    assert hist is not None and hist.counts.sum() == 3000
    again = mc_work_statistics(bell_state(), h, 3000, cfg)
    assert again == stats


def test_histogram_rejects_bad_bin_width():
    with pytest.raises(ValueError):
        work_sample_summary(bell_state(), _bell_battery(), 100, SamplerConfig(seed=1), bin_width=0.0)


def test_histogram_matches_direct_binning_across_chunks():
    # 10_000 samples span three chunks, so the bin counts are merged twice
    h = ising_battery(0.5, 1.0, 0.5, 0.45)
    rho = DensityMatrix(np.eye(16) / 16)
    cfg = SamplerConfig(seed=21)
    hist = work_sample_summary(rho, h, 10_000, cfg, bin_width=0.05)[1]
    idx = np.floor(np.concatenate(list(iter_work_values(rho, h, 10_000, cfg))) / 0.05).astype(np.int64)
    assert hist.origin == idx.min() * 0.05
    assert hist.counts.tolist() == np.bincount(idx - idx.min()).tolist()
    assert hist.counts[0] > 0 and hist.counts[-1] > 0
    assert len(hist.counts) <= np.ptp(np.linalg.eigvalsh(h.total)) / 0.05 + 2
    assert histogram_fits(h, 0.05)


def test_histogram_rejects_too_many_bins_before_sampling():
    h = _bell_battery()
    assert np.ptp(np.linalg.eigvalsh(h.total)) / 1e-12 + 2 > MAX_HISTOGRAM_BINS
    assert not histogram_fits(h, 1e-12)
    with pytest.raises(ValueError, match="bins"):
        work_sample_summary(bell_state(), h, 100, SamplerConfig(seed=1), bin_width=1e-12)


def test_subnormal_bin_width_is_refused_without_a_numpy_warning():
    h = _bell_battery()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert not histogram_fits(h, 5e-324)
        assert histogram_fits(h, 1e308)
        with pytest.raises(ValueError, match="bins"):
            work_sample_summary(bell_state(), h, 100, SamplerConfig(seed=1), bin_width=5e-324)


@pytest.mark.parametrize("d", [2, 8, 16])
def test_the_bin_width_is_decided_as_eigvalsh_decides(d):
    """Widths at and around the limit: the SVD bound leaves these to eigvalsh (d = 2 and d = 16 never take it)."""
    h = make_random_battery(np.random.default_rng(60 + d), d)
    spectrum = np.linalg.eigvalsh(h.total)
    width = spectrum[-1] - spectrum[0]
    for factor in (1.0, 1 - 1e-13, 1 + 1e-13, 1 - 1e-9, 1 + 1e-9, 0.5, 2.0):
        bin_width = width * factor / (MAX_HISTOGRAM_BINS - 2)
        assert histogram_fits(h, bin_width) == (width <= (MAX_HISTOGRAM_BINS - 2) * bin_width)


def test_a_d8_bin_width_far_from_the_limit_is_decided_with_no_hermitian_eigensolve(monkeypatch):
    h = make_random_battery(np.random.default_rng(68), 8)
    spectrum = np.linalg.eigvalsh(h.total)
    width = spectrum[-1] - spectrum[0]

    def refused(*args, **kwargs):
        raise AssertionError("eigvalsh called")

    monkeypatch.setattr(np.linalg, "eigvalsh", refused)
    assert histogram_fits(h, 2 * width / (MAX_HISTOGRAM_BINS - 2))
    assert not histogram_fits(h, width / 2 / (MAX_HISTOGRAM_BINS - 2))
    with pytest.raises(AssertionError, match="eigvalsh called"):
        histogram_fits(h, width / (MAX_HISTOGRAM_BINS - 2))


def test_mc_estimators_need_three_samples():
    h = _bell_battery()
    spec = spectral_decomposition(h)
    cfg = SamplerConfig(seed=1)
    with pytest.raises(ValueError, match="three"):
        mc_work_statistics(bell_state(), h, 2, cfg)
    with pytest.raises(ValueError, match="three"):
        mc_tpm_statistics(bell_state(), spec, 0.5, 0.5, 2, cfg)
    with pytest.raises(ValueError, match="three"):
        mc_coincidence(bell_state(), spec, 0.5, 0.5, 2, cfg)
    assert mc_coincidence(bell_state(), spec, 0.5, 0.5, 3, cfg).se_mean >= 0


def _kernel_case(case: str, d: int):
    """(spec, x, obs) for the one-side kernels: a battery's eigenbasis, a Hermitian x and an observable."""
    rng = np.random.default_rng(900 + d)
    if case == "ising":  # degenerate local spectra, computational eigenbasis
        h = ising_battery(0.5, 1.0, 0.5, 0.45)
        rho = thermal_mixture_state(0.96, gibbs_state(h.ha, 1.5), gibbs_state(h.hb, 1.5))
    else:
        h = make_random_battery(rng, d)
        rho = random_pure_state(rng, d * d) if case == "rank1" else random_density_matrix(rng, d * d)
    spec = spectral_decomposition(h)
    if case == "xi_eps1":  # the jointly dephased state: degenerate in x's spectrum
        return spec, instrument_average(rho, spec, 1.0, 1.0), spec.h_diag
    if case == "indefinite":  # negative eigenvalues enter with their sign
        return spec, random_hermitian(rng, d * d), h.total
    return spec, rho.data, h.total


_KERNEL_CASES = [("mixed", d) for d in (2, 3, 4, 8, 16)] + [("rank1", 3), ("xi_eps1", 4), ("ising", 4), ("indefinite", 3)]


@pytest.mark.parametrize("case, d", _KERNEL_CASES)
def test_pair_traces_match_the_kronecker_reference(case, d):
    spec, x, obs = _kernel_case(case, d)
    sampler = HaarSampler(SamplerConfig(seed=31), d)
    ua, ub = sampler.unitaries(5), sampler.unitaries(5)
    reference = conjugation_traces(pair_kron(ua, ub), x, obs)
    assert np.max(np.abs(pair_traces(ua, ub, x, obs) - reference)) < 1e-12
    # a stack of observables: each column is the reference and bitwise its own single-observable call
    stack = np.stack([obs, spec.h_diag, x])
    stacked, references = pair_traces(ua, ub, x, stack), conjugation_traces(pair_kron(ua, ub), x, stack)
    assert stacked.shape == references.shape == (5, 3)
    for g, o in enumerate(stack):
        assert np.max(np.abs(stacked[:, g] - references[:, g])) < 1e-12
        assert np.array_equal(stacked[:, g], pair_traces(ua, ub, x, o))
        assert np.array_equal(references[:, g], conjugation_traces(pair_kron(ua, ub), x, o))


@pytest.mark.parametrize("case, d", _KERNEL_CASES)
def test_rotated_populations_match_the_kronecker_reference(case, d):
    spec, x, _ = _kernel_case(case, d)
    sampler = HaarSampler(SamplerConfig(seed=32), d)
    ua, ub = sampler.unitaries(5), sampler.unitaries(5)
    basis = np.kron(spec.vecs_a, spec.vecs_b)
    u = pair_kron(ua, ub)
    rotated = basis.conj().T @ u @ x @ u.conj().transpose(0, 2, 1) @ basis
    reference = np.einsum("nxx->nx", rotated).real.reshape(5, d, d)
    assert np.max(np.abs(rotated_populations(x, spec)(ua, ub) - reference)) < 1e-12


@pytest.mark.parametrize("d, block", [(3, 3236), (4, 1024), (8, 64), (16, 4)])
def test_one_side_kernels_do_not_depend_on_the_block_size(d, block, monkeypatch):
    monkeypatch.setattr(workstats, "_cpus", lambda: 16)
    assert _block(10**6, d) == block  # outside a pool, max(1, 2^18 / d^4) whatever the CPUs: a (block, d^2, d^2) complex buffer is 4 MiB at most
    spec, x, obs = _kernel_case("mixed", d)
    sampler = HaarSampler(SamplerConfig(seed=33), d)
    k = 2 * block + 5  # two full blocks and a ragged tail
    ua, ub = sampler.unitaries(k), sampler.unitaries(k)
    populations = rotated_populations(x, spec)
    pairs = [(ua[i : i + 1], ub[i : i + 1]) for i in range(k)]
    assert np.array_equal(pair_traces(ua, ub, x, obs), np.concatenate([pair_traces(a, b, x, obs) for a, b in pairs]))
    assert np.array_equal(populations(ua, ub), np.concatenate([populations(a, b) for a, b in pairs]))
    stack = np.stack([obs, x])
    assert np.array_equal(pair_traces(ua, ub, x, stack), np.concatenate([pair_traces(a, b, x, stack) for a, b in pairs]))


@pytest.mark.parametrize("case, d", _KERNEL_CASES)
def test_rotated_energies_match_the_kronecker_reference(case, d):
    spec, x, _ = _kernel_case(case, d)
    sampler = HaarSampler(SamplerConfig(seed=39), d)
    ua, ub = sampler.unitaries(5), sampler.unitaries(5)
    reference = conjugation_traces(pair_kron(ua, ub), x, spec.h_diag)
    stacked = rotated_energies(np.stack([x, 2 * x]), spec)(ua, ub)
    assert np.max(np.abs(stacked - reference[:, None] * [1, 2])) < 1e-12
    assert np.array_equal(stacked[:, :1], rotated_energies(x[None], spec)(ua, ub))  # a column is bitwise its stack of one


@pytest.mark.parametrize("d, block", [(3, 3236), (4, 1024), (8, 64), (16, 4)])
def test_rotated_energies_do_not_depend_on_the_block_size(d, block):
    assert _block(10**6, d) == block
    spec, x, _ = _kernel_case("mixed", d)
    sampler = HaarSampler(SamplerConfig(seed=33), d)
    k = 2 * block + 5  # two full blocks and a ragged tail
    ua, ub = sampler.unitaries(k), sampler.unitaries(k)
    energies = rotated_energies(np.stack([x, spec.h_diag]), spec)
    assert np.array_equal(energies(ua, ub), np.concatenate([energies(ua[i : i + 1], ub[i : i + 1]) for i in range(k)]))


def _dense_hermitian_basis(d):
    """The basis G_mu of ``_pair_coordinates``, entry by entry: E_aa, then E_ab + E_ba and i (E_ab - E_ba) for a < b."""
    pairs = list(zip(*np.triu_indices(d, 1)))
    basis = np.zeros((d * d, d, d), dtype=complex)
    for a in range(d):
        basis[a, a, a] = 1
    for mu, (a, b) in enumerate(pairs):
        basis[d + mu, a, b] = basis[d + mu, b, a] = 1
        basis[d + len(pairs) + mu, a, b], basis[d + len(pairs) + mu, b, a] = 1j, -1j
    return basis


@pytest.mark.parametrize("d", [2, 3, 4, 8, 16])
def test_pair_coordinates_are_the_traces_against_the_product_basis(d):
    rng = np.random.default_rng(950 + d)
    x = random_hermitian(rng, d * d)
    g = _dense_hermitian_basis(d)
    dense = np.einsum("abce,mca,neb->mn", x.reshape(d, d, d, d), g, g, optimize=True).real  # tr[x (G_mu (x) G_nu)]
    assert np.max(np.abs(_pair_coordinates(x, d) - dense)) < 1e-13
    # the projector coordinates are those of the same basis: R_i = sum_mu p[i, mu] G_mu
    m = rng.normal(size=(3, d, d)) + 1j * rng.normal(size=(3, d, d))
    p = _projector_coordinates(m.real, m.imag, np.triu_indices(d, 1), np.empty((3, d, d * d)))
    projectors = np.einsum("nia,nib->niab", m.conj(), m)  # r_i r_i^dag with r_i = (row i of m)^dag
    assert np.max(np.abs(np.einsum("nim,mab->niab", p, g) - projectors)) < 1e-12


@pytest.mark.parametrize("d", [2, 3, 4, 8, 16])
def test_the_real_product_rotation_is_the_complex_product(d):
    spec, _, _ = _kernel_case("mixed", d)
    u = HaarSampler(SamplerConfig(seed=42), d).unitaries(7)
    for vecs in (spec.vecs_a, spec.vecs_b):
        assert np.any(vecs.imag) and _real_adjoint(vecs) is not None  # a complex eigenbasis, not the identity
        re, im = _rotated_planes(_real_adjoint(vecs), u, np.empty((7, 2 * d, d)), np.empty((7, 2 * d, d)))
        assert np.max(np.abs(re + 1j * im - vecs.conj().T @ u)) < 1e-14


def test_the_default_battery_keeps_the_identity_eigenbases_of_the_no_product_route():
    spec = spectral_decomposition(ising_battery(0.5, 1.0, 0.5, 0.45))
    for vecs in (spec.vecs_a, spec.vecs_b):
        assert np.array_equal(vecs, np.eye(4)) and _real_adjoint(vecs) is None
    u = HaarSampler(SamplerConfig(seed=43), 4).unitaries(3)
    re, im = _rotated_planes(None, u, np.empty((3, 8, 4)), np.empty((3, 8, 4)))
    assert np.shares_memory(re, u) and np.shares_memory(im, u)  # U's own planes, no product


def test_the_no_product_route_gives_the_bits_of_the_real_products_on_an_ising_battery(monkeypatch):
    h = ising_battery(0.5, 1.0, 0.5, 0.45)
    spec = spectral_decomposition(h)
    rho = thermal_mixture_state(0.96, gibbs_state(h.ha, 1.5), gibbs_state(h.hb, 1.5))
    cfg, n = SamplerConfig(seed=44), chunk_size(4) + 100  # a full chunk and a ragged one
    ua, ub = pair_chunk(cfg, 4, 0, 600)

    def outputs():
        return (
            rotated_populations(rho.data, spec)(ua, ub),
            rotated_energies(np.stack([rho.data, spec.h_diag]), spec)(ua, ub),
            np.array([mc_work_statistics(rho, h, n, cfg), mc_tpm_statistics(rho, spec, 0.5, 0.3, n, cfg)]),
            np.array(mc_coincidence(rho, spec, 0.7, 0.6, n, cfg)),
        )

    fast = outputs()
    monkeypatch.setattr(workstats, "_real_adjoint", lambda vecs: np.eye(2 * len(vecs)))  # V = 1 through the real product
    for a, b in zip(fast, outputs()):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("d", [2, 3, 4, 8, 16])
def test_a_multiple_of_the_identity_gives_constant_populations_exactly(d):
    spec, _, _ = _kernel_case("mixed", d)
    sampler = HaarSampler(SamplerConfig(seed=40), d)
    ua, ub = sampler.unitaries(7), sampler.unitaries(7)
    for c in (1.0, 0.3, -2.7):
        x = c / d**2 * np.eye(d * d)  # c times the maximally mixed state: tr(x)/d^2 = c/d^2
        assert np.all(rotated_populations(x, spec)(ua, ub) == c / d**2)
        assert np.all(rotated_energies(x[None], spec)(ua, ub) == c / d**2 * float(spec.e_joint.sum()))


@pytest.mark.parametrize("alpha", [0.0, 0.8, 1.0])
def test_the_ising_work_read_from_the_populations_is_the_pair_traces_work(alpha):
    h = ising_battery(0.5, 1.0, 0.5, 0.45)
    m = thermal_mixture_state(alpha, gibbs_state(h.ha, 1.5), gibbs_state(h.hb, 1.5)).data
    cfg, n = SamplerConfig(seed=41), chunk_size(4) + 100  # a full chunk and a ragged one
    values = np.concatenate(list(iter_work_values(m, h, n, cfg)))
    energy = float(np.vdot(h.total, m).real)
    reference = np.concatenate([energy - pair_traces(*pair_chunk(cfg, 4, c, k), m, h.total) for c, k in [(0, n - 100), (1, 100)]])
    assert np.max(np.abs(values - reference)) < 1e-12


@pytest.mark.parametrize("family", ["ising", "random"])
def test_the_work_calls_pair_traces_exactly_when_the_interaction_leaves_the_local_eigenbases(family, monkeypatch):
    rng = np.random.default_rng(4300)
    h = ising_battery(0.5, 1.0, 0.5, 0.45) if family == "ising" else make_random_battery(rng, 4)
    rho = random_density_matrix(rng, 16)
    traces, calls = workstats.pair_traces, []

    def counted(*args):
        calls.append(len(args[0]))
        return traces(*args)

    monkeypatch.setattr(workstats, "pair_traces", counted)
    mc_work_statistics(rho, h, 5000, SamplerConfig(seed=42))
    assert spectral_decomposition(h).v_od.any() == (family == "random")
    assert sorted(calls) == ([904, 4096] if family == "random" else [])  # one call per chunk


@pytest.mark.parametrize("d, n", [(4, 20000), (8, 4096), (16, 256)])
def test_mc_estimators_peak_memory_stays_below_64_mib(d, n, monkeypatch):
    rng = np.random.default_rng(4100 + d)
    h = make_random_battery(rng, d)
    spec = spectral_decomposition(h)
    rho = random_density_matrix(rng, d * d)
    cfg = SamplerConfig(seed=34)
    estimators = {
        "work": lambda: mc_work_statistics(rho, h, n, cfg),
        "tpm": lambda: mc_tpm_statistics(rho, spec, 0.6, 0.8, n, cfg),
        "coincidence": lambda: mc_coincidence(rho, spec, 0.7, 0.4, n, cfg),
    }
    for cpus in (1, 2):
        monkeypatch.setattr(workstats, "_cpus", lambda: cpus)
        for name, run in estimators.items():
            tracemalloc.start()
            try:
                run()
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 64 * 2**20, (name, cpus, peak)


@pytest.mark.parametrize("d, n", [(2, 9000), (3, 9000), (4, 9000), (8, 5000)])
def test_the_worker_count_changes_no_bit(d, n, monkeypatch):
    rng = np.random.default_rng(4200 + d)
    h = make_random_battery(rng, d)
    spec = spectral_decomposition(h)
    rho = random_density_matrix(rng, d * d)

    def outputs():
        stats, hist = work_sample_summary(rho, h, n, SamplerConfig(seed=35), bin_width=0.05)
        tpm = mc_tpm_statistics(rho, spec, 0.6, 0.8, n, SamplerConfig(seed=36))
        coincidence = mc_coincidence(rho, spec, 0.7, 0.4, n, SamplerConfig(seed=37))
        values = np.concatenate(list(iter_work_values(rho, h, n, SamplerConfig(seed=35))))
        return stats, hist.origin, hist.counts.tolist(), tpm, coincidence, values.tolist()

    runs = []
    for cpus in (1, 2, 3):  # 3 threads do not divide the chunks of d = 8, n = 5000
        monkeypatch.setattr(workstats, "_cpus", lambda: cpus)
        runs.append(outputs())
    assert runs[0] == runs[1] == runs[2]


def test_the_block_budget_is_shared_by_the_threads_started(monkeypatch):
    monkeypatch.setattr(workstats, "_cpus", lambda: 16)
    baseline = threading.active_count()
    together = threading.Barrier(4, timeout=30)  # each chunk waits until four run at once
    seen = []

    def record(ua, ub):
        together.wait()
        seen.append((threading.active_count() - baseline, _block(len(ua), 8)))
        return ua[:, 0, 0].real

    # d = 8, 4,096 pairs: four 1,024-pair chunks start four threads, which share 2^18 / 8^4 = 64 pairs
    assert sum(len(c) for c in iter_samples(record, 8, 4096, SamplerConfig(seed=1))) == 4096
    assert seen == [(4, 16)] * 4
    assert threading.active_count() == baseline

    def inline(ua, ub):
        seen.append((threading.active_count() - baseline, _block(len(ua), ua.shape[1])))
        return ua[:, 0, 0].real

    for d, n, block in [(4, 4096, 1024), (16, 600, 4)]:  # one chunk, or d = 16: no thread, the whole budget
        seen.clear()
        assert sum(len(c) for c in iter_samples(inline, d, n, SamplerConfig(seed=1))) == n
        assert set(seen) == {(0, block)}


@pytest.mark.parametrize("d, n, slices", [(2, 5000, [4096, 904]), (4, 5000, [512] * 9 + [392]), (8, 5000, [32] * 156 + [8]), (16, 300, [4] * 75)])
def test_each_chunk_is_cut_into_one_slice_per_worker_and_block(d, n, slices, monkeypatch):
    """At two CPUs a chunk is one worker's slice, which a kernel cuts into blocks of 2^18 / d^4 / T pairs."""
    monkeypatch.setattr(workstats, "_cpus", lambda: 2)
    apply, seen = workstats.apply_pair, []

    def record(ua, ub, x, tmp, out):
        seen.append((len(ua), threading.current_thread() is threading.main_thread()))
        return apply(ua, ub, x, tmp, out)

    monkeypatch.setattr(workstats, "apply_pair", record)
    _, x, obs = _kernel_case("mixed", d)
    chunks = [len(c) for c in iter_samples(lambda ua, ub: pair_traces(ua, ub, x, obs), d, n, SamplerConfig(seed=1))]
    assert sum(chunks) == n and len(chunks) == -(-n // chunk_size(d))
    assert sorted((b for b, _ in seen), reverse=True) == sorted(slices * 2, reverse=True)  # two apply_pair calls per block
    assert {on_caller for _, on_caller in seen} == {d > 8}  # d = 16 runs on the caller, d <= 8 on the two workers


def test_a_worker_error_reaches_the_caller_and_every_thread_ends(monkeypatch):
    current, _ = tag_chunks(monkeypatch)
    cfg = SamplerConfig(seed=3)
    baseline = threading.active_count()

    def sample(ua, ub, failing):
        if current.c == failing:
            raise RuntimeError(f"chunk {failing} failed")
        return ua[:, 0, 0].real

    for cpus in (1, 2):
        monkeypatch.setattr(workstats, "_cpus", lambda: cpus)
        for failing in (0, 1, 4):  # the first chunk, a chunk in flight with it, the ragged last
            with pytest.raises(RuntimeError, match=f"chunk {failing} failed"):
                summarize(iter_samples(lambda ua, ub: sample(ua, ub, failing), 2, 4 * 4096 + 5, cfg))
            assert threading.active_count() == baseline


def test_chunk_sizes_keep_a_chunks_unitary_stacks_at_2_mib():
    def sizes(d, n):
        return [len(c) for c in iter_samples(lambda ua, ub: ua[:, 0, 0], d, n, SamplerConfig(seed=1))]

    assert [chunk_size(d) for d in (2, 3, 4, 8, 16)] == [4096, 4096, 4096, 1024, 256]
    assert all(2 * chunk_size(d) * d * d * 16 <= 2**21 for d in range(2, 17))  # side A and B, complex128
    assert sizes(2, 9000) == [4096, 4096, 808]
    assert sizes(4, 5000) == [4096, 904]
    assert sizes(8, 2500) == [1024, 1024, 452]
    assert sizes(16, 600) == [256, 256, 88]


def test_a_break_cancels_the_queued_chunks_and_every_thread_ends(monkeypatch):
    submitted = []

    class CountingPool(ThreadPoolExecutor):
        def submit(self, fn, c):
            submitted.append(c)
            return super().submit(fn, c)

    monkeypatch.setattr(workstats, "ThreadPoolExecutor", CountingPool)
    monkeypatch.setattr(workstats, "_cpus", lambda: 2)
    current, drawn = tag_chunks(monkeypatch)
    cfg = SamplerConfig(seed=3)
    baseline = threading.active_count()
    assert sum(len(c) for c in iter_samples(lambda ua, ub: ua[:, 0, 0], 2, 9000, cfg)) == 9000
    assert sorted(drawn) == submitted == [0, 1, 2]
    assert threading.active_count() == baseline
    drawn.clear()
    submitted.clear()

    def slow_after_the_first(ua, ub):
        if current.c:
            time.sleep(0.5)  # keeps a thread on chunk 1, and on chunk 2 if it starts, while the caller breaks
        return ua[:, 0, 0].real

    for _ in iter_samples(slow_after_the_first, 2, 10 * 4096, cfg):
        break
    assert submitted == [0, 1, 2, 3]  # at most 2T chunks in flight
    assert set(drawn) <= {0, 1, 2}  # chunk 3 was queued and is cancelled
    assert threading.active_count() == baseline


def test_a_draw_error_reaches_the_caller_of_mc_work_statistics(monkeypatch):
    draw = HaarSampler.unitaries
    calls = []

    def ragged_draw_fails(self, n):
        calls.append(n)
        if n == 904:  # side A of the ragged last chunk, drawn on a worker
            raise RuntimeError("draw failed")
        return draw(self, n)

    monkeypatch.setattr(workstats, "_cpus", lambda: 2)
    monkeypatch.setattr(HaarSampler, "unitaries", ragged_draw_fails)
    rng = np.random.default_rng(12)
    h, rho = make_random_battery(rng, 2), random_density_matrix(rng, 4)
    baseline = threading.active_count()
    with pytest.raises(RuntimeError, match="draw failed"):
        mc_work_statistics(rho, h, 3 * 4096 + 904, SamplerConfig(seed=1))
    assert sorted(calls) == [904] + [4096] * 6
    assert threading.active_count() == baseline


def test_mc_at_d16_matches_every_closed_form():
    rng = np.random.default_rng(1616)
    h = make_random_battery(rng, 16)
    spec = spectral_decomposition(h)
    rho = random_density_matrix(rng, 256)
    n = 2000
    work_mc = mc_work_statistics(rho, h, n, SamplerConfig(seed=71))
    closed = analytic_work_variance(rho, h)
    assert abs(work_mc.mean - closed.mean) < 5 * work_mc.se_mean
    assert abs(work_mc.variance - closed.variance) < 5 * work_mc.se_variance
    tpm_mc = mc_tpm_statistics(rho, spec, 0.6, 0.8, n, SamplerConfig(seed=72))
    tpm_closed = tpm_variance_closed_form(rho, spec, 0.6, 0.8)
    assert abs(tpm_mc.mean - tpm_closed.mean_tpm) < 5 * tpm_mc.se_mean
    assert abs(tpm_mc.variance - tpm_closed.var_tpm) < 5 * tpm_mc.se_variance
    coincidence = mc_coincidence(rho, spec, 0.7, 0.4, n, SamplerConfig(seed=73))
    assert abs(coincidence.mean - avg_coincidence_closed(rho, spec, 0.7, 0.4)) < 5 * coincidence.se_mean
