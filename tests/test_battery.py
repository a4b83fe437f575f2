import re
import warnings

import numpy as np
import pytest

from qbattery.battery import (
    _ising_stack,
    battery_hamiltonian,
    gibbs_state,
    ising_battery,
    spectral_decomposition,
    thermal_mixture_state,
)
from qbattery.bloch import bloch_decompose, interaction_coeffs
from qbattery.linalg import partial_trace, random_density_matrix, random_hermitian
from qbattery.workstats import analytic_work_variance

from conftest import make_random_battery
from oracles import operator_coeffs

Z = np.diag([1.0, -1.0])


def _ising(b=0.45):
    return ising_battery(0.5, 1.0, 0.5, b)


def _thermal_pair(h, temperature=1.5):
    return gibbs_state(h.ha, temperature), gibbs_state(h.hb, temperature)


def test_ising_scalar_identifications():
    j1, j2, j3, b = 0.5, 1.0, 0.5, 0.45
    h = ising_battery(j1, j2, j3, b)
    assert abs(h.ha2 - (j1**2 + 2 * b**2)) < 1e-12
    assert abs(h.hb2 - (j3**2 + 2 * b**2)) < 1e-12
    assert abs(h.g2v2 - j2**2) < 1e-12


def test_ising_zero_parameters():
    h = ising_battery(0, 0, 0, 0)
    assert np.max(np.abs(h.total)) == 0
    assert h.ha2 == 0 and h.hb2 == 0 and h.g2v2 == 0


@pytest.mark.parametrize("d", [*range(2, 9), "ising"])
def test_weights_match_the_gell_mann_coefficients(rng, d):
    # a random V carries local parts, so its weights are read after canonicalization
    h = _ising() if d == "ising" else make_random_battery(rng, d, g=0.7)
    d = h.d
    assert h.ha2 == pytest.approx(np.sum(operator_coeffs(h.ha, d) ** 2), rel=1e-12)
    assert h.hb2 == pytest.approx(np.sum(operator_coeffs(h.hb, d) ** 2), rel=1e-12)
    assert h.v2 == pytest.approx(np.sum(interaction_coeffs(h.v, d) ** 2), rel=1e-12)
    no_local = battery_hamiltonian(np.zeros((d, d)), np.zeros((d, d)), h.v, g=1.0)
    assert no_local.ha2 == 0.0 and no_local.hb2 == 0.0


def test_interaction_canonicalization_warns_and_preserves_physics(rng):
    d = 3
    ha = random_hermitian(rng, d)
    hb = random_hermitian(rng, d)
    v = random_hermitian(rng, d * d)  # generic: has local parts
    g = 0.7
    raw_total = np.kron(ha, np.eye(d)) + np.kron(np.eye(d), hb) + g * v
    with pytest.warns(UserWarning, match="local"):
        h = battery_hamiltonian(ha, hb, v, g)
    # canonical v has no local or identity parts
    assert np.max(np.abs(partial_trace(h.v, "A", d))) < 1e-12
    assert np.max(np.abs(partial_trace(h.v, "B", d))) < 1e-12
    assert abs(np.trace(h.v)) < 1e-12
    # the total changes only by the dropped identity offset
    diff = raw_total - h.total
    offset = np.trace(diff) / d**2
    assert np.max(np.abs(diff - offset * np.eye(d * d))) < 1e-12


def test_gibbs_trivials():
    assert np.max(np.abs(gibbs_state(np.zeros((3, 3)), 1.0).data - np.eye(3) / 3)) < 1e-14
    h = _ising()
    hot = gibbs_state(h.ha, 1e9)
    assert np.max(np.abs(hot.data - np.eye(4) / 4)) < 1e-8


def test_gibbs_matches_direct_exponentiation():
    # Z-type local Hamiltonian is diagonal, so weights follow directly
    h = _ising()
    t = 1.5
    energies = np.diagonal(h.ha).real
    weights = np.exp(-energies / t)
    weights /= weights.sum()
    tau = gibbs_state(h.ha, t)
    np.testing.assert_allclose(np.diagonal(tau.data).real, weights, atol=1e-12)
    assert np.max(np.abs(tau.data - np.diag(np.diagonal(tau.data)))) < 1e-12


def test_gibbs_at_a_subnormal_temperature_is_its_zero_temperature_limit_without_a_warning():
    """At T = 1e-320, (E - E_0) / T overflows to inf, and exp(-inf) = 0 is the exact limit T = 1e-300 already gives."""
    h = _ising()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.array_equal(gibbs_state(h.ha, 1e-320).data, gibbs_state(h.ha, 1e-300).data)


def test_gibbs_rejects_nonpositive_temperature():
    with pytest.raises(ValueError, match="temperature"):
        gibbs_state(np.eye(2), 0.0)


def test_thermal_mixture_marginals():
    h = _ising()
    ta, tb = _thermal_pair(h)
    for alpha in (0.0, 0.5, 1.0):
        rho = thermal_mixture_state(alpha, ta, tb)
        np.testing.assert_allclose(partial_trace(rho, "A", 4).data, ta.data, atol=1e-10)
        np.testing.assert_allclose(partial_trace(rho, "B", 4).data, tb.data, atol=1e-10)


def test_thermal_mixture_alpha_zero_is_product():
    h = _ising()
    ta, tb = _thermal_pair(h)
    rho = thermal_mixture_state(0.0, ta, tb)
    np.testing.assert_allclose(rho.data, np.kron(ta.data, tb.data), atol=1e-14)


def test_thermal_mixture_infinite_temperature_is_isotropic():
    # hot limit: marginals maximally mixed, the pure part maximally entangled
    h = _ising()
    ta, tb = _thermal_pair(h, temperature=1e9)
    for alpha in (0.3, 1.0):
        rho = thermal_mixture_state(alpha, ta, tb)
        form = bloch_decompose(rho, 4)
        assert form.r_a2 < 1e-8 and form.r_b2 < 1e-8
        assert abs(form.t2 - alpha**2 * 15) < 1e-6


def test_thermal_mixture_rejects_mismatched_spectra():
    h = ising_battery(0.5, 1.0, 0.9, 0.45)  # j1 != j3
    ta, tb = _thermal_pair(h)
    with pytest.raises(ValueError, match="incompatible marginals"):
        thermal_mixture_state(0.5, ta, tb)


def test_thermal_mixture_rejects_bad_alpha():
    h = _ising()
    ta, tb = _thermal_pair(h)
    with pytest.raises(ValueError, match="mixing ratio"):
        thermal_mixture_state(1.2, ta, tb)


def test_pairing_freedom_leaves_sector_lengths_invariant(rng):
    # re-phasing the B-side eigenvectors is a valid alternative pairing
    h = _ising()
    ta, tb = _thermal_pair(h)
    rho = thermal_mixture_state(0.7, ta, tb)
    phases = np.exp(1j * rng.uniform(0, 2 * np.pi, 4))
    w, u = np.linalg.eigh(tb.data)
    vb = (u * phases) @ u.conj().T
    rotated = np.kron(np.eye(4), vb) @ rho.data @ np.kron(np.eye(4), vb).conj().T
    f0 = bloch_decompose(rho, 4)
    f1 = bloch_decompose(rotated, 4)
    assert abs(f0.t2 - f1.t2) < 1e-10
    assert abs(f0.r_a2 - f1.r_a2) < 1e-10
    assert abs(f0.r_b2 - f1.r_b2) < 1e-10
    assert not np.allclose(f0.t, f1.t)  # t itself does change


def test_mixture_family_sector_lengths_vs_alpha():
    # marginals are alpha-independent; variance grows with alpha when g != 0
    h = _ising()
    ta, tb = _thermal_pair(h)
    alphas = np.linspace(0, 1, 11)
    r_a2 = []
    variances = []
    for alpha in alphas:
        rho = thermal_mixture_state(float(alpha), ta, tb)
        form = bloch_decompose(rho, 4)
        r_a2.append(form.r_a2)
        variances.append(analytic_work_variance(rho, h).variance)
    assert np.max(np.abs(np.diff(r_a2))) < 1e-12
    assert np.all(np.diff(variances) > -1e-12)


def test_spectral_decomposition_ising_is_computational():
    h = _ising()
    spec = spectral_decomposition(h)
    np.testing.assert_allclose(spec.vecs_a, np.eye(4), atol=1e-14)
    assert np.max(np.abs(spec.v_od)) < 1e-14
    np.testing.assert_allclose(spec.energies_a, np.diagonal(h.ha).real, atol=1e-14)


@pytest.mark.parametrize("b", [0.0, 0.45, 0.9])
@pytest.mark.parametrize("j", [0.3, 0.5])
def test_ising_eigenbases_are_identities_and_v_od_is_exactly_zero(b, j):
    h = ising_battery(j, 1.0, j, b)
    spec = spectral_decomposition(h)
    assert np.array_equal(spec.vecs_a, np.eye(4)) and np.array_equal(spec.vecs_b, np.eye(4))
    assert not spec.v_od.any()
    assert np.array_equal(spec.d_mat.ravel(), np.diagonal(h.v).real)
    assert np.array_equal(spec.h_diag, h.total)


def test_spectral_decomposition_random_battery(rng):
    for d in (2, 3):
        h = make_random_battery(rng, d)
        spec = spectral_decomposition(h)
        # completeness and rank-1
        np.testing.assert_allclose(spec.proj_a.sum(axis=0), np.eye(d), atol=1e-12)
        for p in spec.proj_a:
            assert abs(np.trace(p) - 1) < 1e-12
            np.testing.assert_allclose(p @ p, p, atol=1e-12)
        # off-diagonal remainder has no diagonal components
        overlaps = np.einsum(
            "abce,ica,jeb->ij", spec.v_od.reshape(d, d, d, d), spec.proj_a, spec.proj_b
        )
        assert np.max(np.abs(overlaps)) < 1e-12
        # exact splits
        np.testing.assert_allclose(spec.h_diag + h.g * spec.v_od, h.total, atol=1e-12)
        rebuilt = np.einsum(
            "ij,iab,jcd->acbd", spec.e_joint, spec.proj_a, spec.proj_b
        ).reshape(d * d, d * d)
        np.testing.assert_allclose(rebuilt, spec.h_diag, atol=1e-12)


@pytest.mark.parametrize("d", [2, 3, 4, 8, 16])
def test_spectral_decomposition_matches_the_projector_einsums(d):
    """d_mat and v_od from B = V_A (x) V_B against the six-index einsums over the projector stacks."""
    h = make_random_battery(np.random.default_rng(700 + d), d)
    spec = spectral_decomposition(h)
    d_mat = np.einsum("abce,ica,jeb->ij", h.v.reshape(d, d, d, d), spec.proj_a, spec.proj_b).real
    v_diag = np.einsum("ij,iab,jcd->acbd", d_mat, spec.proj_a, spec.proj_b).reshape(d * d, d * d)
    assert np.max(np.abs(spec.d_mat - d_mat)) < 1e-12
    assert np.max(np.abs(spec.v_od - (h.v - v_diag))) < 1e-12


def test_battery_rejects_non_hermitian():
    with pytest.raises(ValueError, match="Hermitian"):
        battery_hamiltonian(np.array([[0, 1], [0, 0]]), np.eye(2), np.eye(4), 1.0)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: ising_battery(0.5, 1.0, 0.5, 1e308), "ha has a non-finite entry"),
        (lambda: battery_hamiltonian(np.eye(2), np.diag([0.0, np.nan]), np.zeros((4, 4)), 1.0), "hb has a non-finite"),
        (lambda: ising_battery(0.5, 1.0, 0.5, 1e200), "the weight ha2 = inf is not finite"),
        (lambda: ising_battery(0.5, 1.0, 1e200, 0.45), "the weight hb2 = inf is not finite"),
        (lambda: ising_battery(0.5, 1e200, 0.5, 0.45), "the weight g^2 v2 = inf is not finite"),
    ],
)
def test_battery_refuses_a_non_finite_entry_or_weight_by_name(build, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # refused before any overflow warning
        with pytest.raises(ValueError, match=re.escape(message)):
            build()


_BATTERY_FIELDS = ("ha", "hb", "v", "g", "ha2", "hb2", "v2")


def _random_couplings_and_fields(seed):
    rng = np.random.default_rng(seed)
    return tuple(rng.uniform(-2.0, 2.0, 3).tolist()), rng.uniform(-3.0, 3.0, int(rng.integers(1, 60))).tolist()


@pytest.mark.parametrize("seed", [None, 1, 2, 3, 4])
def test_the_stacked_ising_build_is_the_per_field_build_bitwise(seed):
    """One stacked build over a field grid gives each field's ``ising_battery``, every field bit for bit.

    The default variance sweep's 19 fields, then random couplings and grids; each local term is also the
    chain's formula j * ZZ + b * (Z1 + Z2) as numpy's kron spells it.
    """
    default = ((0.5, 1.0, 0.5), np.round(np.arange(0.0, 0.901, 0.05), 10).tolist())
    couplings, fields = default if seed is None else _random_couplings_and_fields(seed)
    zz, field = np.kron(Z, Z), np.kron(Z, np.eye(2)) + np.kron(np.eye(2), Z)
    stack = _ising_stack(*couplings, fields)
    assert len(stack) == len(fields)
    for b, h in zip(fields, stack):
        alone = ising_battery(*couplings, b)
        for name in _BATTERY_FIELDS:
            x, y = getattr(h, name), getattr(alone, name)
            assert type(x) is type(y) and np.asarray(x).tobytes() == np.asarray(y).tobytes(), name
        assert np.array_equal(h.ha, couplings[0] * zz + b * field)
        assert np.array_equal(h.hb, couplings[2] * zz + b * field)


def test_a_stacked_build_gives_each_failing_field_the_error_of_its_build_alone():
    stack = _ising_stack(0.5, 1.0, 0.5, [0.1, 1e308, 0.2, 1e200])
    assert [type(h) for h in stack] == [type(_ising()), ValueError, type(_ising()), ValueError]
    for b, h in zip((1e308, 1e200), stack[1::2]):
        with pytest.raises(ValueError) as alone:
            ising_battery(0.5, 1.0, 0.5, b)
        assert str(h) == str(alone.value)
    assert [str(h) for h in _ising_stack(0.5, 1e200, 0.5, [0.1, 1e308])] == [
        "the weight g^2 v2 = inf is not finite",
        "ha has a non-finite entry",
    ]
