import json
import re
from dataclasses import asdict

import numpy as np
import pytest

from qbattery.battery import gibbs_state, ising_battery, joint_populations, spectral_decomposition, thermal_mixture_state
from qbattery.bloch import bloch_decompose, gell_mann_basis
from qbattery.coincidence import _coincidence_batch, avg_coincidence_closed, coincidence_probability, mc_coincidence
from qbattery.haar import HaarSampler, SamplerConfig, chunk_size
from qbattery.linalg import DensityMatrix, random_density_matrix, sector_lengths
from qbattery.tpm import (
    _dephased_sectors,
    _diagonal_weights,
    _explicit_dephasings,
    _instrument_stack,
    _zeta,
    energy_labels,
    instrument_average,
    mc_tpm_stack,
    mc_tpm_statistics,
    noisy_povm,
    povm_root_coeffs,
    tpm_run,
    tpm_spectral_stats,
    tpm_variance_closed_form,
    tpm_variance_stack,
    tpm_weights,
)
from qbattery.workstats import sector_variance

from conftest import make_random_battery


def _ising_spec(b=0.45):
    return spectral_decomposition(ising_battery(0.5, 1.0, 0.5, b))


def _mixture(alpha, temperature=1.5):
    h = ising_battery(0.5, 1.0, 0.5, 0.45)
    ta = gibbs_state(h.ha, temperature)
    tb = gibbs_state(h.hb, temperature)
    return thermal_mixture_state(alpha, ta, tb)


# --- POVM ------------------------------------------------------------------


def test_povm_limits():
    spec = _ising_spec()
    sharp = noisy_povm(spec.proj_a, 1.0)
    np.testing.assert_allclose(sharp.elements, spec.proj_a, atol=1e-14)
    blind = noisy_povm(spec.proj_a, 0.0)
    np.testing.assert_allclose(blind.elements, np.broadcast_to(np.eye(4) / 4, (4, 4, 4)), atol=1e-14)


def test_povm_completeness_and_roots(rng):
    for d, eps in [(2, 0.3), (3, 0.62), (4, 0.9)]:
        spec = spectral_decomposition(make_random_battery(rng, d))
        for proj in (spec.proj_a, spec.proj_b):
            povm = noisy_povm(proj, eps)
            np.testing.assert_allclose(povm.elements.sum(axis=0), np.eye(d), atol=1e-12)
            for root, elem in zip(povm.roots, povm.elements):
                np.testing.assert_allclose(root @ root, elem, atol=1e-12)
            assert abs(povm.f**2 + 2 * povm.f * povm.g + d * povm.g**2 - 1) < 1e-12


def test_povm_rejects_bad_epsilon():
    spec = _ising_spec()
    with pytest.raises(ValueError):
        noisy_povm(spec.proj_a, 1.2)
    with pytest.raises(ValueError):
        povm_root_coeffs(-0.1, 4)


# --- energy labels ---------------------------------------------------------


def test_labels_reduce_to_energies_at_unit_efficiency():
    spec = _ising_spec()
    np.testing.assert_allclose(energy_labels(spec, 1.0, 1.0), spec.e_joint, atol=1e-12)


def test_labels_unbiased_for_diagonal_hamiltonian(rng):
    # sum_ij m_ij e_ij = tr[rho H_D] because H_D = sum e_ij P_i (x) P_j
    for d in (2, 4):
        spec = spectral_decomposition(make_random_battery(rng, d))
        rho = random_density_matrix(rng, d * d)
        for ea, eb in [(1.0, 1.0), (0.6, 0.85), (0.2, 0.9)]:
            labels = energy_labels(spec, ea, eb)
            pa = noisy_povm(spec.proj_a, ea)
            pb = noisy_povm(spec.proj_b, eb)
            povm = np.einsum("iab,jcd->ijacbd", pa.elements, pb.elements).reshape(d * d, d * d, d * d)
            m = np.einsum("mab,ba->m", povm, rho.data).real
            lhs = float(m @ labels.ravel())
            rhs = float(np.trace(rho.data @ spec.h_diag).real)
            assert abs(lhs - rhs) < 1e-10
            # and the operator identity itself
            rebuilt = np.einsum("m,mab->ab", labels.ravel(), povm)
            np.testing.assert_allclose(rebuilt, spec.h_diag, atol=1e-10)


def test_labels_shift_uniformly_under_energy_offset(rng):
    h = ising_battery(0.5, 1.0, 0.5, 0.45)
    from qbattery.battery import battery_hamiltonian

    shifted = battery_hamiltonian(h.ha + 0.7 * np.eye(4), h.hb, h.v, h.g)
    a = energy_labels(spectral_decomposition(h), 0.4, 0.6)
    b = energy_labels(spectral_decomposition(shifted), 0.4, 0.6)
    np.testing.assert_allclose(b - a, 0.7, atol=1e-10)  # all labels shift alike


def test_labels_diverge_at_zero_epsilon():
    with pytest.raises(ValueError, match="diverge"):
        energy_labels(_ising_spec(), 0.0, 0.5)


_LABELS_DIVERGE = " must be > 0: the TPM energy labels diverge at 0, where only the closed form exists"


def test_zero_epsilon_is_one_message_from_the_labels_the_simulation_and_the_cli(capsys):
    """Only the labels refuse eps = 0; the simulation forms none, so it and the CLI sample there."""
    from qbattery.cli import main

    with pytest.raises(ValueError, match=re.escape("eps_a" + _LABELS_DIVERGE)):
        energy_labels(_ising_spec(), 0.0, 0.5)
    with pytest.raises(ValueError, match=re.escape("eps_b" + _LABELS_DIVERGE)):
        energy_labels(_ising_spec(), 0.5, 0.0)
    stats = mc_tpm_statistics(_mixture(0.5), _ising_spec(), 0.5, 0.0, 10, SamplerConfig(seed=1))
    assert stats.n_samples == 10 and np.isfinite([stats.mean, stats.variance]).all()
    assert main(["tpm", "--eps", "0", "--seed", "1", "--n", "10"]) == 0
    captured = capsys.readouterr()
    assert captured.err == "" and json.loads(captured.out)["mc"]["n_samples"] == 10


def test_simulation_names_the_efficiency_out_of_range():
    with pytest.raises(ValueError, match=re.escape("eps_a must lie in [0, 1], got 1.5")):
        mc_tpm_statistics(_mixture(0.5), _ising_spec(), 1.5, 0.5, 10, SamplerConfig(seed=1))
    # the closed forms and the coincidence protocol name the failing side the same way
    for run in (
        lambda: tpm_variance_closed_form(_mixture(0.5), _ising_spec(), 0.5, 1.5),
        lambda: instrument_average(_mixture(0.5), _ising_spec(), 0.5, 1.5),
        lambda: tpm_weights(0.5, 1.5, 4),
        lambda: avg_coincidence_closed(_mixture(0.5), _ising_spec(), 0.5, 1.5),
        lambda: mc_coincidence(_mixture(0.5), _ising_spec(), 0.5, 1.5, 10, SamplerConfig(seed=1)),
    ):
        with pytest.raises(ValueError, match=re.escape("eps_b must lie in [0, 1], got 1.5")):
            run()


# --- exact per-unitary protocol --------------------------------------------


def test_tpm_run_zero_for_trivial_round():
    # identity unitary, sharp detectors, state diagonal in the energy basis
    spec = _ising_spec()
    rho = DensityMatrix(np.diag([0.3, 0.2, 0.15, 0.05, 0.1, 0.05, 0.05, 0.02, 0.02, 0.01, 0.01, 0.01, 0.01, 0.0, 0.01, 0.01]))
    val = tpm_run(rho, spec, 1.0, 1.0, np.eye(4), np.eye(4))
    assert abs(val) < 1e-12


def test_tpm_run_zero_for_maximally_mixed():
    spec = _ising_spec()
    ua = HaarSampler(SamplerConfig(seed=61), 4).unitaries(1)[0]
    ub = HaarSampler(SamplerConfig(seed=62), 4).unitaries(1)[0]
    assert abs(tpm_run(np.eye(16) / 16, spec, 0.7, 0.9, ua, ub)) < 1e-12


def test_tpm_run_projective_matches_enumeration_oracle(rng):
    # independent oracle: explicit projective two-point statistics
    d = 2
    spec = spectral_decomposition(make_random_battery(rng, d))
    rho = random_density_matrix(rng, d * d).data
    ua = HaarSampler(SamplerConfig(seed=63), d).unitaries(1)[0]
    ub = HaarSampler(SamplerConfig(seed=64), d).unitaries(1)[0]
    u = np.kron(ua, ub)
    value = 0.0
    for i in range(d):
        for j in range(d):
            pij = np.kron(spec.proj_a[i], spec.proj_b[j])
            m_ij = np.trace(pij @ rho).real
            post = u @ (pij @ rho @ pij) @ u.conj().T
            for k in range(d):
                for l in range(d):
                    pkl = np.kron(spec.proj_a[k], spec.proj_b[l])
                    m_klij = np.trace(pkl @ post).real  # joint, m_ij already inside
                    value += m_klij * (spec.e_joint[i, j] - spec.e_joint[k, l])
    assert abs(tpm_run(rho, spec, 1.0, 1.0, ua, ub) - value) < 1e-12


def test_tpm_run_matches_instrument_identity(rng):
    # W(U) = tr[rho H_D] - tr[U Xi U^dag H_D] exactly
    for d in (2, 4):
        spec = spectral_decomposition(make_random_battery(rng, d))
        rho = random_density_matrix(rng, d * d)
        xi = instrument_average(rho, spec, 0.45, 0.8)
        base = np.trace(rho.data @ spec.h_diag).real
        sampler = HaarSampler(SamplerConfig(seed=65), d)
        for _ in range(3):
            ua, ub = sampler.unitaries(1)[0], sampler.unitaries(1)[0]
            u = np.kron(ua, ub)
            expected = base - np.trace(u @ xi @ u.conj().T @ spec.h_diag).real
            assert abs(tpm_run(rho, spec, 0.45, 0.8, ua, ub) - expected) < 1e-10


def test_instrument_average_kappa_combination(rng):
    # sum_ij sqrt(P) rho sqrt(P) regroups into dephasings weighted by kappas
    d = 3
    spec = spectral_decomposition(make_random_battery(rng, d))
    rho = random_density_matrix(rng, d * d).data
    ea, eb = 0.37, 0.81
    w = tpm_weights(ea, eb, d)
    eye = np.eye(d)
    ka = np.einsum("iab,cd->iacbd", spec.proj_a, eye).reshape(d, d * d, d * d)
    kb = np.einsum("ab,icd->iacbd", eye, spec.proj_b).reshape(d, d * d, d * d)
    kab = np.einsum("iab,jcd->ijacbd", spec.proj_a, spec.proj_b).reshape(d * d, d * d, d * d)
    deph_a = np.einsum("iab,bc,icd->ad", ka, rho, ka)
    deph_b = np.einsum("iab,bc,icd->ad", kb, rho, kb)
    deph_ab = np.einsum("mab,bc,mcd->ad", kab, rho, kab)
    expected = (
        w.f_a**2 * w.f_b**2 * deph_ab + w.kappa_a * deph_a + w.kappa_b * deph_b + w.kappa_ab * rho
    )
    np.testing.assert_allclose(instrument_average(rho, spec, ea, eb), expected, atol=1e-12)


def _instrument_average_reference(rho, spec, eps_a, eps_b):
    """sum_ij sqrt(P_ij) rho sqrt(P_ij) over the explicit stack of d^2 Kraus operators."""
    d = spec.d
    ra = noisy_povm(spec.proj_a, eps_a).roots
    rb = noisy_povm(spec.proj_b, eps_b).roots
    kr = np.einsum("iab,jcd->ijacbd", ra, rb).reshape(d * d, d * d, d * d)
    return np.einsum("mab,bc,mdc->ad", kr, rho, kr.conj())


@pytest.mark.parametrize("d", [2, 3, 5, "ising"])
def test_instrument_average_matches_kraus_sum(rng, d):
    # "ising" is the degenerate, computational-basis eigenbasis of the default battery
    spec = _ising_spec() if d == "ising" else spectral_decomposition(make_random_battery(rng, d))
    rho = random_density_matrix(rng, spec.d**2).data
    for ea, eb in ((0.37, 0.81), (1.0, 0.2), (0.0, 0.5), (1.0, 1.0)):
        np.testing.assert_allclose(
            instrument_average(rho, spec, ea, eb), _instrument_average_reference(rho, spec, ea, eb), atol=1e-12
        )


@pytest.mark.parametrize("d", [3, 4, 8, 16])
def test_instrument_stack_cells_are_the_per_state_averages(d):
    """Each (state, pair) cell of a stack is bitwise ``instrument_average`` there, as is a stack of one."""
    rng = np.random.default_rng(1900 + d)
    spec = spectral_decomposition(make_random_battery(rng, d))
    states = np.stack([random_density_matrix(rng, d * d).data for _ in range(2)])
    pairs = [(0.3, 0.9), (1.0, 0.0), (0.5, 0.5), (0.0, 0.0), (1.0, 1.0)]
    stack = _instrument_stack(states, spec, [tpm_weights(ea, eb, d) for ea, eb in pairs])
    assert stack.shape == (2, len(pairs), d * d, d * d)
    for m, row in zip(states, stack):
        for (ea, eb), cell in zip(pairs, row):
            one = _instrument_stack(m[None], spec, [tpm_weights(ea, eb, d)])[0, 0]
            average = instrument_average(m, spec, ea, eb)
            assert np.array_equal(average, one) and np.array_equal(average, cell)


def test_zeta_matches_explicit_trace_loop(rng):
    for d in (2, 3, 4):
        spec = spectral_decomposition(make_random_battery(rng, d))
        lam = gell_mann_basis(d).matrices
        n_basis = d * d - 1
        expected = np.zeros((n_basis, n_basis))
        for proj in spec.proj_a:
            for i in range(n_basis):
                for j in range(n_basis):
                    expected[i, j] += np.trace(proj @ lam[i] @ proj @ lam[j]).real / d
        np.testing.assert_allclose(_zeta(spec.proj_a, lam, d), expected, atol=1e-12)


def test_probability_closure(rng):
    d = 3
    spec = spectral_decomposition(make_random_battery(rng, d))
    rho = random_density_matrix(rng, d * d).data
    ea, eb = 0.55, 0.3
    pa = noisy_povm(spec.proj_a, ea)
    pb = noisy_povm(spec.proj_b, eb)
    povm = np.einsum("iab,jcd->ijacbd", pa.elements, pb.elements).reshape(d * d, d * d, d * d)
    m = np.einsum("mab,ba->m", povm, rho).real
    assert abs(m.sum() - 1) < 1e-12
    kr = np.einsum("iab,jcd->ijacbd", pa.roots, pb.roots).reshape(d * d, d * d, d * d)
    u = np.kron(
        HaarSampler(SamplerConfig(seed=66), d).unitaries(1)[0],
        HaarSampler(SamplerConfig(seed=67), d).unitaries(1)[0],
    )
    for idx in range(d * d):
        if m[idx] < 1e-14:
            continue
        sigma = u @ (kr[idx] @ rho @ kr[idx]) @ u.conj().T / m[idx]
        cond = np.einsum("oab,ba->o", povm, sigma).real
        assert abs(cond.sum() - 1) < 1e-12


# --- weights ----------------------------------------------------------------


def test_weight_limits():
    for d in (2, 4):
        w0 = tpm_weights(0.0, 0.0, d)
        assert abs(w0.n0 - 1) < 1e-12 and abs(w0.n1) < 1e-15 and abs(w0.n_noisy) < 1e-12
        w1 = tpm_weights(1.0, 1.0, d)
        assert w1.n1 == 1.0 and w1.n0 == 0.0 and w1.n_noisy == 0.0
        assert w1.f_a == 1.0 and w1.g_a == 0.0


def test_weights_sum_to_one_on_grid():
    for d in (2, 4):
        for eps in np.linspace(0, 1, 101):
            w = tpm_weights(float(eps), float(eps), d)
            assert abs(w.n0 + w.n1 + w.n_noisy - 1) < 1e-12
            assert -1e-15 <= min(w.n0, w.n1, w.n_noisy)
            assert max(w.n0, w.n1, w.n_noisy) <= 1 + 1e-15


def test_kappa_ab_product_form_matches_ratio():
    for d in (2, 4):
        for ea, eb in [(0.2, 0.9), (0.5, 0.5), (0.99, 0.01)]:
            w = tpm_weights(ea, eb, d)
            ratio = w.kappa_a * w.kappa_b / (w.f_a**2 * w.f_b**2)
            assert abs(w.kappa_ab - ratio) < 1e-12


# --- spectral stats and inequalities ----------------------------------------


def test_spectral_stats_closure(rng):
    for d in (2, 3, 4):
        spec = spectral_decomposition(make_random_battery(rng, d))
        rho = random_density_matrix(rng, d * d)
        st = tpm_spectral_stats(rho, spec)
        assert abs(st.p_joint.sum() - 1) < 1e-12
        for val in (st.p_ab2, st.p_a2, st.p_b2):
            assert 0 < val <= 1 + 1e-12
        np.testing.assert_allclose(st.zeta_a, st.zeta_a.T, atol=1e-12)


def test_proof_inequalities(rng):
    for d in (2, 3, 4):
        for _ in range(30):
            spec = spectral_decomposition(make_random_battery(rng, d))
            rho = random_density_matrix(rng, d * d)
            form = bloch_decompose(rho, d)
            st = tpm_spectral_stats(rho, spec)
            assert d * st.p_a2 - 1 <= form.r_a2 + 1e-10
            assert d * st.p_b2 - 1 <= form.r_b2 + 1e-10
            assert d * d * st.p_ab2 - d * st.p_a2 - d * st.p_b2 + 1 <= form.t2 + 1e-10
            ca = float(np.sum(st.zeta_a * (form.t @ form.t.T)))
            cb = float(np.sum(st.zeta_b * (form.t.T @ form.t)))
            assert ca <= form.t2 + 1e-10
            assert cb <= form.t2 + 1e-10


def test_zeta_closing_identity(rng):
    for d in (2, 3):
        spec = spectral_decomposition(make_random_battery(rng, d))
        rho = random_density_matrix(rng, d * d)
        form = bloch_decompose(rho, d)
        st = tpm_spectral_stats(rho, spec)
        lhs = float(np.einsum("ab,cd,ac,bd->", form.t, form.t, st.zeta_a, st.zeta_b))
        rhs = d * d * st.p_ab2 - d * st.p_a2 - d * st.p_b2 + 1
        assert abs(lhs - rhs) < 1e-10


@pytest.mark.parametrize("d", [2, 3, 8, 16])
def test_dephased_sectors_match_the_gell_mann_lengths_of_explicit_dephasing(d):
    rng = np.random.default_rng(100 + d)
    spec = spectral_decomposition(make_random_battery(rng, d, g=0.7))
    rho = random_density_matrix(rng, d * d).data
    sectors = _dephased_sectors(rho, spec)
    for name, state in _explicit_dephasings(rho, spec).items():
        form = bloch_decompose(state, d)
        np.testing.assert_allclose(sectors[name], (form.r_a2, form.r_b2, form.t2), rtol=1e-13, atol=0)


@pytest.mark.parametrize("d", range(2, 17))
def test_maximally_mixed_dephased_lengths_and_tpm_variance_are_non_negative(d):
    spec = spectral_decomposition(make_random_battery(np.random.default_rng(d), d))
    rho = np.eye(d * d) / d**2
    for lengths in _dephased_sectors(rho, spec).values():
        assert min(lengths) >= 0.0
    assert tpm_variance_closed_form(rho, spec, 0.5, 0.5).var_tpm >= 0.0


# --- closed-form variance ----------------------------------------------------


def test_integral_terms_regroup_to_closed_form(rng):
    for d in (2, 4):
        spec = spectral_decomposition(make_random_battery(rng, d))
        rho = random_density_matrix(rng, d * d)
        for ea, eb in [(0.3, 0.3), (0.15, 0.95), (1.0, 1.0)]:
            rep = tpm_variance_closed_form(rho, spec, ea, eb)
            recomposed = (
                rep.weights.n0 * rep.var_diag
                + rep.weights.n1 * rep.var_projective
                + rep.weights.n_noisy * rep.var_noisy
            )
            assert abs(recomposed - rep.var_tpm) < 1e-12


@pytest.mark.parametrize("d", [2, 3, 4, 8, 16])
def test_variance_is_the_ideal_form_of_h_diag_at_the_instrument_average(d):
    # W(U) = tr[rho H_D] - tr[U Xi U^dag H_D], so var_tpm is the ideal H_D variance of Xi, not of the dephasings
    rng = np.random.default_rng(400 + d)
    for _ in range(5):
        spec = spectral_decomposition(make_random_battery(rng, d))
        rho = random_density_matrix(rng, d * d)
        for ea, eb in [(0.6, 0.8), (0.2, 0.2), (1.0, 1.0), (0.0, 0.5), (0.0, 0.0), (1.0, 0.3)]:
            xi = instrument_average(rho, spec, ea, eb)
            oracle = sector_variance(*sector_lengths(xi, d), *_diagonal_weights(spec), d)
            var_tpm = tpm_variance_closed_form(rho, spec, ea, eb).var_tpm
            assert abs(var_tpm - oracle) <= 1e-12 * abs(oracle)


@pytest.mark.parametrize("d", [3, 8])
def test_stack_reports_are_the_per_point_reports(d):
    """Each (state, pair) cell of the stack's columns is the per-point report's number, its weights' n0, n1, n_noisy."""
    rng = np.random.default_rng(500 + d)
    spec = spectral_decomposition(make_random_battery(rng, d))
    states = np.stack([random_density_matrix(rng, d * d).data for _ in range(4)])
    pairs = [(0.0, 0.0), (1.0, 1.0), (0.2, 0.9), (0.7, 0.7)]
    with np.errstate(all="raise"):
        stack = tpm_variance_stack(states, spec, pairs)
        for column in stack:
            assert column.shape == (len(states), len(pairs)) and column.dtype == np.float64
        for i, m in enumerate(states):
            for j, (ea, eb) in enumerate(pairs):
                rep = asdict(tpm_variance_closed_form(m, spec, ea, eb))
                rep.update(rep.pop("weights"))
                assert {name: column[i, j] for name, column in stack._asdict().items()} == {name: rep[name] for name in stack._fields}


@pytest.mark.parametrize("d", [3, 8])
def test_monte_carlo_stack_columns_are_the_per_point_estimates(d):
    rng = np.random.default_rng(600 + d)
    spec = spectral_decomposition(make_random_battery(rng, d))
    states = np.stack([random_density_matrix(rng, d * d).data for _ in range(3)])
    pairs = [(1.0, 1.0), (0.2, 0.9), (0.7, 0.4)]
    n, cfg = chunk_size(d) + 7, SamplerConfig(seed=74)  # the last chunk holds 7 pairs
    stats = mc_tpm_stack(states, spec, pairs, n, cfg)
    assert stats == [[mc_tpm_statistics(m, spec, ea, eb, n, cfg) for ea, eb in pairs] for m in states]


def test_stack_rejects_a_single_state_or_a_wrong_dimension():
    spec = _ising_spec()
    rho = _mixture(0.5).data
    for states in (rho, np.stack([rho[:9, :9]])):
        with pytest.raises(ValueError, match="expected a stack"):
            tpm_variance_stack(states, spec, [(0.5, 0.5)])
        with pytest.raises(ValueError, match="expected a stack"):
            mc_tpm_stack(states, spec, [(0.5, 0.5)], 10, SamplerConfig(seed=1))


def test_variance_bounded_by_diagonal_variance(rng):
    for d in (2, 4):
        for _ in range(25):
            spec = spectral_decomposition(make_random_battery(rng, d))
            rho = random_density_matrix(rng, d * d)
            ea, eb = rng.uniform(0, 1, 2)
            rep = tpm_variance_closed_form(rho, spec, float(ea), float(eb))
            assert rep.var_tpm <= rep.var_diag + 1e-12


def test_variance_saturates_in_weak_limit(rng):
    spec = _ising_spec()
    rho = _mixture(0.7)
    rep = tpm_variance_closed_form(rho, spec, 1e-8, 1e-8)
    assert abs(rep.var_tpm - rep.var_diag) < 1e-6


def test_sharp_limit_depends_only_on_populations(rng):
    # at eps = 1 the closed form sees the state only through p_ij
    spec = _ising_spec()
    rho = _mixture(0.9)
    dephased = instrument_average(rho, spec, 1.0, 1.0)  # joint dephasing
    a = tpm_variance_closed_form(rho, spec, 1.0, 1.0)
    b = tpm_variance_closed_form(DensityMatrix(dephased), spec, 1.0, 1.0)
    assert abs(a.var_tpm - b.var_tpm) < 1e-12
    # while the states differ in their correlation content
    assert bloch_decompose(rho, 4).t2 > bloch_decompose(dephased, 4).t2 + 0.1


def test_diagonal_variance_matches_full_form_when_already_diagonal():
    # the Ising interaction is diagonal, so H_D = H and both forms agree
    h = ising_battery(0.5, 1.0, 0.5, 0.45)
    spec = spectral_decomposition(h)
    rho = _mixture(0.6)
    from qbattery.workstats import analytic_work_variance

    var_diag = tpm_variance_closed_form(rho, spec, 0.5, 0.5).var_diag
    assert abs(var_diag - analytic_work_variance(rho, h).variance) < 1e-12


def test_closed_form_matches_mc():
    spec = _ising_spec()
    rho = _mixture(0.5)
    cfg = SamplerConfig(seed=71)
    for eps in (0.2, 1.0):
        rep = tpm_variance_closed_form(rho, spec, eps, eps)
        stats = mc_tpm_statistics(rho, spec, eps, eps, 8000, cfg)
        assert abs(stats.variance - rep.var_tpm) < 5 * stats.se_variance
        assert abs(stats.mean - rep.mean_tpm) < 5 * stats.se_mean


@pytest.mark.parametrize("eps_a, eps_b", [(0.0, 0.0), (0.0, 0.7)])
def test_closed_form_matches_mc_at_zero_efficiency(eps_a, eps_b):
    """At eps = 0 the estimator samples the instrument average Xi (rho when both are 0), as the closed form does."""
    spec = _ising_spec()
    rho = _mixture(0.96)
    rep = tpm_variance_closed_form(rho, spec, eps_a, eps_b)
    stats = mc_tpm_statistics(rho, spec, eps_a, eps_b, 8000, SamplerConfig(seed=76))
    assert abs(stats.variance - rep.var_tpm) < 5 * stats.se_variance
    assert abs(stats.mean - rep.mean_tpm) < 5 * stats.se_mean


def test_mean_closed_form(rng):
    d = 3
    spec = spectral_decomposition(make_random_battery(rng, d))
    rho = random_density_matrix(rng, d * d)
    stats = mc_tpm_statistics(rho, spec, 0.5, 0.75, 8000, SamplerConfig(seed=72))
    assert abs(stats.mean - tpm_variance_closed_form(rho, spec, 0.5, 0.75).mean_tpm) < 5 * stats.se_mean


def test_mc_determinism_and_guards():
    spec = _ising_spec()
    rho = _mixture(0.5)
    cfg = SamplerConfig(seed=73)
    a = mc_tpm_statistics(rho, spec, 0.5, 0.5, 2000, cfg)
    b = mc_tpm_statistics(rho, spec, 0.5, 0.5, 2000, cfg)
    assert a == b
    with pytest.raises(ValueError):
        mc_tpm_statistics(rho, spec, 1.5, 0.5, 100, cfg)


def test_report_serializes():
    spec = _ising_spec()
    rho = _mixture(0.5)
    import json

    text = json.dumps(asdict(tpm_variance_closed_form(rho, spec, 0.4, 0.4)))
    assert "var_tpm" in text and "n_noisy" in text


def test_shot_sampling_converges_to_exact(rng):
    from qbattery.tpm import tpm_shot_sample

    spec = _ising_spec()
    rho = _mixture(0.6)
    ua = HaarSampler(SamplerConfig(seed=74), 4).unitaries(1)[0]
    ub = HaarSampler(SamplerConfig(seed=75), 4).unitaries(1)[0]
    exact = tpm_run(rho, spec, 0.7, 0.7, ua, ub)
    draws = np.array(
        [tpm_shot_sample(rho, spec, 0.7, 0.7, ua, ub, 4000, np.random.default_rng(s)) for s in range(12)]
    )
    se = draws.std(ddof=1) / np.sqrt(draws.size)
    assert abs(draws.mean() - exact) < 5 * se
    # deterministic given the generator state
    a = tpm_shot_sample(rho, spec, 0.7, 0.7, ua, ub, 500, np.random.default_rng(1))
    b = tpm_shot_sample(rho, spec, 0.7, 0.7, ua, ub, 500, np.random.default_rng(1))
    assert a == b


@pytest.mark.parametrize("d", [2, 3, 4, 8, 16])
def test_joint_populations_match_the_projector_einsum(d):
    """The populations of tpm_spectral_stats and the coincidence oracle against the six-index einsum over the projectors."""
    rng = np.random.default_rng(800 + d)
    spec = spectral_decomposition(make_random_battery(rng, d))
    rho = random_density_matrix(rng, d * d)
    p_joint = np.einsum("abce,ica,jeb->ij", rho.data.reshape(d, d, d, d), spec.proj_a, spec.proj_b).real
    assert np.max(np.abs(joint_populations(rho.data, spec.vecs_a, spec.vecs_b) - p_joint)) < 1e-12
    assert np.max(np.abs(tpm_spectral_stats(rho, spec).p_joint - p_joint)) < 1e-12
    literal = float(_coincidence_batch(p_joint[None], 0.7, 0.4)[0])
    assert abs(coincidence_probability(rho.data, spec, 0.7, 0.4) - literal) < 1e-12
