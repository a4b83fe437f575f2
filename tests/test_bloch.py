import numpy as np
import pytest

from qbattery.bloch import bloch_decompose, gell_mann_basis, interaction_coeffs
from qbattery.linalg import purity, random_density_matrix, random_hermitian, sector_lengths

from conftest import bell_state
from oracles import bloch_reconstruct, operator_coeffs, random_pure_state

PAULI = {
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]]),
    "Z": np.diag([1.0, -1.0]).astype(complex),
}


@pytest.mark.parametrize("d", [2, 3, 4])
def test_basis_count_hermitian_traceless(d):
    lam = gell_mann_basis(d).matrices
    assert lam.shape == (d * d - 1, d, d)
    for m in lam:
        np.testing.assert_allclose(m, m.conj().T, atol=1e-14)
        assert abs(np.trace(m)) < 1e-14


@pytest.mark.parametrize("d", [2, 3, 4])
def test_basis_gram_matrix(d):
    lam = gell_mann_basis(d).matrices
    gram = np.einsum("iab,jba->ij", lam, lam).real
    np.testing.assert_allclose(gram, d * np.eye(d * d - 1), atol=1e-12)


def test_basis_is_pauli_at_d2():
    lam = gell_mann_basis(2).matrices
    np.testing.assert_allclose(lam[0], PAULI["X"], atol=1e-15)
    np.testing.assert_allclose(lam[1], PAULI["Y"], atol=1e-15)
    np.testing.assert_allclose(lam[2], PAULI["Z"], atol=1e-15)


def test_basis_rejects_bad_dimension():
    with pytest.raises(ValueError):
        gell_mann_basis(1)
    with pytest.raises(ValueError):
        gell_mann_basis(17)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_bloch_round_trip(rng, d):
    for _ in range(100):
        rho = random_density_matrix(rng, d * d)
        form = bloch_decompose(rho, d)
        np.testing.assert_allclose(bloch_reconstruct(form), rho.data, atol=1e-12)


def test_maximally_mixed_has_zero_coefficients():
    form = bloch_decompose(np.eye(9) / 9, 3)
    assert form.r_a2 == 0 and form.r_b2 == 0 and form.t2 == 0


def test_bell_state_correlation_matrix():
    form = bloch_decompose(bell_state(), 2)
    np.testing.assert_allclose(form.t, np.diag([1.0, -1.0, 1.0]), atol=1e-12)
    np.testing.assert_allclose(form.r_a, 0, atol=1e-12)
    np.testing.assert_allclose(form.r_b, 0, atol=1e-12)
    assert abs(form.t2 - 3) < 1e-12


def test_product_state_factorizes(rng):
    d = 3
    ta = random_density_matrix(rng, d)
    tb = random_density_matrix(rng, d)
    form = bloch_decompose(np.kron(ta.data, tb.data), d)
    np.testing.assert_allclose(form.t, np.outer(form.r_a, form.r_b), atol=1e-12)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_purity_identity_dual_path(rng, d):
    for _ in range(100):
        rho = random_density_matrix(rng, d * d)
        form = bloch_decompose(rho, d)
        assert abs(form.purity() - purity(rho)) < 1e-10


@pytest.mark.parametrize("d", [8, 16])
def test_purity_identity_large_dimension(rng, d):
    for _ in range(3):
        rho = random_density_matrix(rng, d * d)
        assert abs(bloch_decompose(rho, d).purity() - purity(rho)) < 1e-12


@pytest.mark.parametrize("d", range(2, 17))
def test_sector_lengths_match_the_gell_mann_lengths(rng, d):
    for rho in (random_density_matrix(rng, d * d), random_pure_state(rng, d * d)):
        form = bloch_decompose(rho, d)
        np.testing.assert_allclose(sector_lengths(rho, d), (form.r_a2, form.r_b2, form.t2), rtol=1e-13, atol=0)


def test_sector_lengths_reject_a_wrongly_shaped_state():
    with pytest.raises(ValueError):
        sector_lengths(np.eye(4) / 4, 3)
    with pytest.raises(ValueError):
        sector_lengths(np.eye(9)[:, :8], 3)


def test_dimension_mismatch_rejected(rng):
    with pytest.raises(ValueError):
        bloch_decompose(np.eye(4) / 4, 3)


def test_operator_coeffs_reconstruct(rng):
    d = 3
    h = random_hermitian(rng, d)
    coeffs = operator_coeffs(h, d)
    lam = gell_mann_basis(d).matrices
    rebuilt = np.trace(h) / d * np.eye(d) + np.einsum("i,iab->ab", coeffs, lam)
    np.testing.assert_allclose(rebuilt, h, atol=1e-12)


def test_interaction_coeffs_reconstruct(rng):
    d = 2
    lam = gell_mann_basis(d).matrices
    v_true = rng.standard_normal((3, 3))
    v = np.einsum("ij,iab,jcd->acbd", v_true, lam, lam).reshape(4, 4)
    np.testing.assert_allclose(interaction_coeffs(v, d), v_true, atol=1e-12)


def test_interaction_coeffs_reconstruct_d8(rng):
    d = 8
    lam = gell_mann_basis(d).matrices
    v_true = rng.standard_normal((d * d - 1, d * d - 1))
    v = np.einsum("ij,iab,jcd->acbd", v_true, lam, lam).reshape(d * d, d * d)
    np.testing.assert_allclose(interaction_coeffs(v, d), v_true, atol=1e-12)
