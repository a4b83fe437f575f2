import warnings

import numpy as np
import pytest

from qbattery import workstats
from qbattery.bloch import gell_mann_basis
from qbattery.haar import HaarSampler, SamplerConfig
from qbattery.linalg import (
    MAX_LOCAL_DIM,
    POOL_DIM,
    PSD_TOL,
    DensityMatrix,
    check_density,
    partial_trace,
    partial_transpose_min_eig,
    product_basis_rotation,
    purity,
    random_density_matrix,
    random_hermitian,
    sector_lengths,
    swap_operator,
)

from conftest import bell_state
from oracles import random_pure_state, subsystem_permutation


def test_density_matrix_rejects_non_hermitian():
    m = np.array([[0.5, 0.5], [0.0, 0.5]])
    with pytest.raises(ValueError, match="Hermitian"):
        DensityMatrix(m)


def test_density_matrix_rejects_bad_trace():
    with pytest.raises(ValueError, match="trace"):
        DensityMatrix(np.eye(2))


def test_density_matrix_rejects_negative_eigenvalue():
    m = np.diag([1.5, -0.5]).astype(complex)
    with pytest.raises(ValueError, match="negative eigenvalue"):
        DensityMatrix(m)


def test_density_matrix_accepts_tiny_negative_rounding():
    DensityMatrix(np.diag([1 + 5e-10, -5e-10]))


def test_partial_trace_of_product(rng):
    for d in (2, 3):
        ta = random_density_matrix(rng, d)
        tb = random_density_matrix(rng, d)
        rho = DensityMatrix(np.kron(ta.data, tb.data))
        np.testing.assert_allclose(partial_trace(rho, "A", d).data, ta.data, atol=1e-12)
        np.testing.assert_allclose(partial_trace(rho, "B", d).data, tb.data, atol=1e-12)


def test_partial_trace_of_bell_is_maximally_mixed():
    red = partial_trace(bell_state(), "A", 2)
    np.testing.assert_allclose(red.data, np.eye(2) / 2, atol=1e-12)


def test_partial_trace_preserves_trace(rng):
    rho = random_density_matrix(rng, 9)
    assert abs(np.trace(partial_trace(rho, "B", 3).data) - 1) < 1e-12


def test_ppt_of_product_state(rng):
    for d in (2, 3):
        rho = np.kron(random_density_matrix(rng, d).data, random_density_matrix(rng, d).data)
        assert partial_transpose_min_eig(rho, d) >= -1e-12


def test_ppt_of_bell_state():
    assert abs(partial_transpose_min_eig(bell_state(), 2) + 0.5) < 1e-12


def test_swap_properties(rng):
    for d in (2, 3, 4):
        s = swap_operator(d)
        np.testing.assert_allclose(s, s.conj().T, atol=1e-14)
        np.testing.assert_allclose(s @ s, np.eye(d * d), atol=1e-14)
        assert abs(np.trace(s) - d) < 1e-12
        a = random_hermitian(rng, d)
        b = random_hermitian(rng, d)
        lhs = np.trace(s @ np.kron(a, b))
        rhs = np.trace(a @ b)
        assert abs(lhs - rhs) < 1e-10


def test_swap_equals_basis_sum():
    # dual construction route: S = (1 + sum_i lam_i (x) lam_i) / d
    for d in (2, 3, 4):
        lam = gell_mann_basis(d).matrices
        alt = (np.eye(d * d) + np.einsum("iab,icd->acbd", lam, lam).reshape(d * d, d * d)) / d
        np.testing.assert_allclose(swap_operator(d), alt, atol=1e-12)


def test_swap_rejects_small_dimension():
    with pytest.raises(ValueError):
        swap_operator(1)


def test_subsystem_permutation_action():
    d = 3
    p = subsystem_permutation((1, 0), (d, d))
    psi = np.zeros(d * d)
    psi[1 * d + 2] = 1.0  # |1,2>
    out = p @ psi
    assert out[2 * d + 1] == 1.0 and out.sum() == 1.0


def test_purity_range(rng):
    assert abs(purity(np.eye(4) / 4) - 0.25) < 1e-14
    assert abs(purity(random_pure_state(rng, 5)) - 1) < 1e-12


@pytest.mark.parametrize("d", [2, 3, 4, 16])
def test_stacked_kernels_equal_the_per_matrix_calls_bitwise(d):
    rng = np.random.default_rng(1000 + d)
    n = 3 if d == 16 else 6
    stack = np.stack([random_density_matrix(rng, d * d).data for _ in range(n)])
    lengths = sector_lengths(stack, d)
    purities = purity(stack)
    minima = partial_transpose_min_eig(stack, d)
    assert all(x.shape == (n,) for x in (*lengths, purities, minima))
    for i, m in enumerate(stack):
        assert tuple(x[i] for x in lengths) == sector_lengths(m, d)
        assert purities[i] == purity(m)
        assert minima[i] == partial_transpose_min_eig(m, d)
        assert np.array_equal(partial_trace(stack, "B", d)[i], partial_trace(m, "B", d))
    nested = stack[: n // 3 * 3].reshape(n // 3, 3, d * d, d * d)
    assert np.array_equal(sector_lengths(nested, d)[2], lengths[2][: n // 3 * 3].reshape(n // 3, 3))


@pytest.mark.parametrize("d", range(2, MAX_LOCAL_DIM + 1))
def test_partial_traces_are_the_diagonal_sums_of_ndarray_trace_bitwise(d):
    """The einsum spelling of both partial traces, which sector lengths and the witness's purity route read, against
    ``ndarray.trace`` over the same axes: one operator and a stack, entries spread over 1e-150..1e150."""
    rng = np.random.default_rng(1200 + d)
    m = rng.standard_normal((3, d * d, d * d)) + 1j * rng.standard_normal((3, d * d, d * d))
    m *= 10.0 ** rng.integers(-150, 150, m.shape)
    r4 = m.reshape(3, d, d, d, d)
    for side, axes in (("A", (-3, -1)), ("B", (-4, -2))):
        reference = r4.trace(axis1=axes[0], axis2=axes[1])
        assert partial_trace(m, side, d).tobytes() == reference.tobytes()
        assert partial_trace(m[1], side, d).tobytes() == reference[1].tobytes()


def test_single_matrix_kernels_return_floats():
    rho = np.eye(4) / 4
    assert type(purity(rho)) is float
    assert type(partial_transpose_min_eig(rho, 2)) is float
    assert all(type(x) is float for x in sector_lengths(rho, 2))


@pytest.mark.parametrize("call", [sector_lengths, partial_transpose_min_eig, lambda m, d: partial_trace(m, "A", d)])
def test_wrongly_shaped_stack_is_refused(call):
    with pytest.raises(ValueError, match="expected a 9 x 9"):
        call(np.zeros((2, 16, 16)), 3)
    with pytest.raises(ValueError, match="expected a 9 x 9"):
        call(np.zeros((2, 9, 8)), 3)


def _out_of_place_lengths(m, d):
    """sector_lengths and purity as written with a temporary per step, the reference for the in-place sums."""
    squares = lambda x: (x.real**2 + x.imag**2).sum(axis=(-2, -1))
    r4 = m.reshape(m.shape[:-2] + (d, d, d, d))
    eye = np.eye(d) / d
    loc_a = r4.trace(axis1=-3, axis2=-1) - eye
    red_b = r4.trace(axis1=-4, axis2=-2)
    corr = r4.copy()
    np.einsum("...abcb->...acb", corr)[...] -= loc_a[..., None] / d
    np.einsum("...abae->...abe", corr)[...] -= red_b[..., None, :, :] / d
    return (d * squares(loc_a), d * squares(red_b - eye), d * d * squares(corr.reshape(m.shape))), squares(m)


@pytest.mark.parametrize("d", [2, 3, 4, 8, 16])
def test_in_place_sums_of_squares_are_the_out_of_place_formula_bitwise(d):
    rng = np.random.default_rng(1100 + d)
    stack = np.stack([random_density_matrix(rng, d * d).data for _ in range(2 if d == 16 else 5)])
    lengths, purities = _out_of_place_lengths(stack, d)
    assert all(np.array_equal(x, y) for x, y in zip(sector_lengths(stack, d), lengths))
    assert np.array_equal(purity(stack), purities)
    # a transposed (non-contiguous) view and the input itself are left as they were
    view = stack.swapaxes(-1, -2)
    before = view.copy()
    assert np.array_equal(purity(view), _out_of_place_lengths(view, d)[1])
    assert np.array_equal(view, before)


def test_a_stack_is_refused_for_its_first_invalid_matrix_by_its_first_failed_check():
    good = np.eye(4) / 4
    negative = np.diag([0.6, 0.5, 0.0, -0.1]).astype(complex)
    non_hermitian = good + np.triu(np.full((4, 4), 0.1), 1)
    for rows, match in (
        ([good, negative, non_hermitian], "negative eigenvalue -0.1"),
        ([good, non_hermitian, negative], "must be Hermitian"),
        ([good, good * 2, negative], "unit trace, got 2.0"),
        ([good, np.full((4, 4), np.nan), negative], "must be Hermitian"),
    ):
        with pytest.raises(ValueError) as alone:
            DensityMatrix(next(m for m in rows if m is not good))
        with pytest.raises(ValueError, match=match) as stacked:
            check_density(np.stack(rows))
        assert str(stacked.value) == str(alone.value)
    check_density(np.stack([good, good]))
    with pytest.raises(ValueError, match="square"):
        check_density(np.zeros((2, 4, 3)))


def _unitary_pair(d):
    return HaarSampler(SamplerConfig(40 + d, 0), d).unitaries(1)[0], HaarSampler(SamplerConfig(40 + d, 1), d).unitaries(1)[0]


@pytest.mark.parametrize("d", [2, 3, 4, 8, 16])
@pytest.mark.parametrize("lead", [(), (3,), (2, 2)])
def test_product_basis_rotation_equals_the_kron_basis_formula(d, lead):
    rng = np.random.default_rng(900 + d)
    va, vb = _unitary_pair(d)
    basis = np.kron(va, vb)
    x = rng.standard_normal(lead + (d * d, d * d)) + 1j * rng.standard_normal(lead + (d * d, d * d))
    forward = product_basis_rotation(x, va, vb)
    inverse = product_basis_rotation(x, va, vb, inverse=True)
    assert forward.shape == inverse.shape == x.shape
    assert np.max(np.abs(forward - basis.conj().T @ x @ basis)) < 1e-12
    assert np.max(np.abs(inverse - basis @ x @ basis.conj().T)) < 1e-12
    assert np.max(np.abs(product_basis_rotation(forward, va, vb, inverse=True) - x)) < 1e-12


def test_product_basis_rotation_by_identities_is_exact():
    rng = np.random.default_rng(5)
    eye = np.eye(4, dtype=np.complex128)
    x = rng.standard_normal((2, 16, 16)) + 1j * rng.standard_normal((2, 16, 16))
    assert np.array_equal(product_basis_rotation(x, eye, eye), x)
    assert np.array_equal(product_basis_rotation(x, eye, eye, inverse=True), x)


def _state_with_least_eigenvalue(lowest, dim, seed, rank=None):
    """A unit-trace Hermitian matrix U diag(w) U^dag with least eigenvalue ``lowest``; ``rank`` < dim keeps that many others."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    u, _ = np.linalg.qr(g)
    w = np.zeros(dim)
    rest = rng.uniform(0.5, 1.0, min(rank or dim, dim - 1))
    w[: len(rest)] = rest / rest.sum() * (1.0 - lowest)
    w[-1] = lowest
    m = (u * w) @ u.conj().T
    return (m + m.conj().T) / 2


def _eigvalsh_verdict(m):
    lowest = np.linalg.eigvalsh(m)[0]
    return None if lowest >= PSD_TOL else f"density matrix has negative eigenvalue {lowest}"


def _check_verdict(m):
    try:
        check_density(m)
    except ValueError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("d", [2, 4, 8, 16])
def test_the_state_check_decides_as_eigvalsh_at_its_threshold(d):
    """At and around PSD_TOL, at 0 and on a rank-1 state, every accept/refuse decision and message is eigvalsh's."""
    cases = [_state_with_least_eigenvalue(PSD_TOL + s * 1e-11, d * d, 10 * d + k) for k, s in enumerate((-1, 1, -0.1, 0.1))]
    cases += [_state_with_least_eigenvalue(0.0, d * d, 20 * d), _state_with_least_eigenvalue(PSD_TOL, d * d, 30 * d)]
    cases += [_state_with_least_eigenvalue(0.0, d * d, 60 * d, rank=1)]
    # Hermitian to within HERMITICITY_TOL only: eigvalsh reads the lower triangle, and so does the bound.  The
    # second one's upper triangle alone adds 1e-10 v v^dag along its least eigenvector v, which lifts the least
    # eigenvalue of its Hermitian part above PSD_TOL while eigvalsh's stays below.
    skewed = _state_with_least_eigenvalue(PSD_TOL + 1e-11, d * d, 40 * d)
    skewed[np.triu_indices(d * d, 1)] += 5e-10
    lifted = _state_with_least_eigenvalue(PSD_TOL - 1e-11, d * d, 50 * d)
    v = np.linalg.eigh(lifted)[1][:, 0]
    lifted += 2e-10 * np.triu(np.outer(v, v.conj()), 1)
    verdicts = []
    for m in cases + [skewed, lifted]:
        verdicts.append(_check_verdict(m))
        assert verdicts[-1] == _eigvalsh_verdict(m)
    assert verdicts[0] is not None and verdicts[1] is None and verdicts[-1] is not None
    # a stack reports its first refused matrix with the same message
    assert _check_verdict(np.stack(cases)) == next(v for v in verdicts if v is not None)


def test_a_valid_d8_state_passes_with_no_hermitian_eigensolve(monkeypatch):
    d = 8
    assert d * d == POOL_DIM
    eigvalsh = np.linalg.eigvalsh

    def refused(a, *args, **kwargs):
        if np.size(a):
            raise AssertionError("eigvalsh called")
        return eigvalsh(a, *args, **kwargs)  # an empty stack solves nothing

    rank_one = _state_with_least_eigenvalue(0.0, d * d, d, rank=1)
    mixed = _state_with_least_eigenvalue(1e-4, d * d, d + 1)
    assert np.linalg.matrix_rank(rank_one, tol=1e-10) == 1
    expected = [_eigvalsh_verdict(m) for m in (rank_one, mixed)]
    monkeypatch.setattr(np.linalg, "eigvalsh", refused)
    assert [_check_verdict(m) for m in (rank_one, mixed)] == expected == [None, None]
    DensityMatrix(rank_one)
    check_density(np.stack([rank_one, mixed]))
    with pytest.raises(AssertionError, match="eigvalsh called"):
        check_density(_state_with_least_eigenvalue(-1e-3, d * d, d + 2))


def test_pool_dim_is_the_state_dimension_of_the_last_threaded_d(monkeypatch):
    """The SVD bound covers exactly the states of the largest d whose Monte Carlo runs on several threads."""
    monkeypatch.setattr(workstats, "_cpus", lambda: 2)
    threaded = [d for d in range(2, MAX_LOCAL_DIM + 1) if workstats._workers(d) > 1]
    assert POOL_DIM == max(threaded) ** 2


@pytest.mark.parametrize("d", [4, 16])
def test_a_state_of_any_other_size_is_decided_by_eigvalsh(d, monkeypatch):
    """Below d = 8 eigvalsh wakes no OpenBLAS worker; above it the Monte Carlo runs on one thread."""
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counted(a, *args, **kwargs):
        calls.append(np.shape(a))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    DensityMatrix(_state_with_least_eigenvalue(1e-4, d * d, d))
    assert calls == [(1, d * d, d * d)]


def test_a_state_whose_norm_overflows_is_refused_by_eigvalsh():
    """Entries of 1e200 give an infinite ||m||_F, so the SVD bound leaves the matrix to eigvalsh."""
    m = np.eye(64, dtype=np.complex128) / 64
    m[0, 1] = m[1, 0] = 1e200
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as refused:
            DensityMatrix(m)
    assert str(refused.value) == _eigvalsh_verdict(m)
