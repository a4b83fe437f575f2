"""Dense complex linear algebra for small bipartite systems.

Everything here works on plain ``numpy`` arrays in double precision; the
targeted scale is local dimension d <= 16 (total dimension d^2 <= 256), for
which dense eigensolvers are fast and well conditioned.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

__all__ = [
    "HERMITICITY_TOL",
    "PSD_TOL",
    "MAX_LOCAL_DIM",
    "DensityMatrix",
    "check_density",
    "dagger",
    "is_hermitian",
    "kron",
    "partial_trace",
    "partial_transpose_min_eig",
    "product_basis_rotation",
    "purity",
    "sector_lengths",
    "swap_operator",
    "random_hermitian",
    "random_density_matrix",
]

# Construction of thermal / mixture states incurs rounding at the 1e-12
# level; these tolerances accept that without letting real defects through.
HERMITICITY_TOL = 1e-9
PSD_TOL = -1e-9
#: Margin, in units of the shift c = ||m||_F, within which ``_shifted_spectrum``'s
#: eigenvalue bounds leave a decision to ``eigvalsh``: over 1e3 times the
#: rounding bound n eps ||m + c 1|| <= 2 n eps c of either route at n = 64.
SPECTRUM_MARGIN = 1e-10
#: The least n at which OpenBLAS threads a Hermitian eigensolve of an n x n
#: matrix (at 63 it does not): a d = 8 state, the largest whose Monte Carlo
#: runs on every CPU (``workstats._workers``).  Below it ``eigvalsh`` wakes
#: nothing and is about twice as fast as an SVD; above it the Monte Carlo
#: runs on one thread, which OpenBLAS's worker does not slow, so the SVD
#: would only cost time.  ``_shifted_spectrum`` bounds only this size.
POOL_DIM = 64
MAX_LOCAL_DIM = 16


def _check_dimension(d: int) -> None:
    """Refuse a local dimension d outside 2..MAX_LOCAL_DIM: a battery's, a sampler's, a basis's or verify's."""
    if not 2 <= d <= MAX_LOCAL_DIM:
        raise ValueError(f"local dimension must lie in 2..{MAX_LOCAL_DIM}, got {d}")


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose, of each matrix in a stack (..., n, n)."""
    return a.conj().swapaxes(-1, -2)


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a (x) b for two matrices, or for each pair of two stacks (..., m, m) and (..., n, n).

    The products np.kron forms, without its per-call overhead.
    """
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    return out.reshape(out.shape[:-4] + (a.shape[-2] * b.shape[-2], a.shape[-1] * b.shape[-1]))


def is_hermitian(a: np.ndarray, tol: float = HERMITICITY_TOL):
    """Check Hermiticity in max-norm: a bool for one matrix, the array (...) of checks for a stack (..., n, n)."""
    return _scalar(np.max(np.abs(a - dagger(a)), axis=(-2, -1)) <= tol, bool)


@dataclass(frozen=True)
class DensityMatrix:
    """A validated density operator.

    Construction enforces Hermiticity and unit trace within
    ``HERMITICITY_TOL`` and positive semidefiniteness down to ``PSD_TOL``.
    """

    data: np.ndarray

    def __post_init__(self) -> None:
        a = np.asarray(self.data, dtype=np.complex128)
        if a.ndim != 2:
            raise ValueError(f"density matrix must be square, got shape {a.shape}")
        check_density(a)
        a.flags.writeable = False
        object.__setattr__(self, "data", a)

    @property
    def dim(self) -> int:
        return self.data.shape[0]


StateLike = Union[DensityMatrix, np.ndarray]


def _shifted_spectrum(m: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """Least and greatest eigenvalues (lo, hi) of each Hermitian matrix of a stack (k, n, n), and the shift c.

    Each matrix m is taken as ``eigvalsh`` reads it: the lower triangle, with
    the diagonal's real part.  With c = ||m||_F >= ||m||_2, m + c 1 is positive
    semidefinite, so its singular values are the eigenvalues of m shifted by
    c: lo = s_min - c and hi = s_max - c, each within rounding of order
    n eps c.  The singular values come from one stacked ``svd`` without
    vectors, which, unlike a Hermitian eigensolve or a BLAS-3 product, does
    not start OpenBLAS's worker threads at n = 64 (a d = 8 state).  At any
    n other than ``POOL_DIM`` there are no bounds (None); where c is not
    finite they are NaN, which every comparison fails.  Either way the
    callers leave the decision to ``eigvalsh``.
    """
    if m.shape[-1] != POOL_DIM:
        return None
    lo, hi = np.full((2, len(m)), np.nan)
    h = np.where(np.tri(m.shape[-1], dtype=bool), m, dagger(m))
    diagonal = np.einsum("...ii->...i", h)
    if np.iscomplexobj(h):
        diagonal.imag = 0.0
    with np.errstate(over="ignore"):  # an overflowing norm is refused below, not warned about
        c = np.linalg.norm(h, axis=(-2, -1))
    finite = np.isfinite(c)
    if finite.any():
        diagonal.real += np.where(finite, c, 0.0)[:, None]
        s = np.linalg.svd(h if finite.all() else h[finite], compute_uv=False)
        lo[finite] = s[:, -1] - c[finite]
        hi[finite] = s[:, 0] - c[finite]
    return lo, hi, c


def _first_invalid_density(a: np.ndarray) -> tuple[int, str] | None:
    """The flat index and error of the first matrix of a stack (..., D, D) that is no density matrix, or None.

    The checks run in order: Hermiticity and unit trace within
    ``HERMITICITY_TOL``, then the least eigenvalue down to ``PSD_TOL``.  The
    stack is bounded by one ``_shifted_spectrum`` call; a matrix that passed
    the first two checks and that the bound places at least
    ``SPECTRUM_MARGIN`` c above ``PSD_TOL`` passes, and only the rest of
    those go to one stacked ``eigvalsh``, which decides and whose value
    fills the message.  So every decision and message is the eigensolver's,
    while a valid state of dimension ``POOL_DIM`` passes with no Hermitian
    eigensolve.  The error names the first failed check of that
    matrix, so a stack reports what the matrices one by one would.
    """
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"density matrix must be square, got shape {a.shape}")
    m = a.reshape((-1,) + a.shape[-2:])
    herm = np.max(np.abs(m - dagger(m)), axis=(-2, -1)) <= HERMITICITY_TOL
    tr = np.trace(m, axis1=-2, axis2=-1).real
    unit = ~(np.abs(tr - 1.0) > HERMITICITY_TOL)
    valid = herm & unit
    lo, near = np.full(len(m), np.inf), valid
    bounds = _shifted_spectrum(m)
    if bounds is not None:
        lo, _, c = bounds
        near = valid & ~(lo >= PSD_TOL + SPECTRUM_MARGIN * c)
    lo[near] = np.linalg.eigvalsh(m if near.all() else m[near])[:, 0]
    bad = ~valid | (lo < PSD_TOL)
    if not bad.any():
        return None
    i = int(np.argmax(bad))
    if not herm[i]:
        return i, "density matrix must be Hermitian"
    if not unit[i]:
        return i, f"density matrix must have unit trace, got {tr[i]}"
    return i, f"density matrix has negative eigenvalue {lo[i]}"


def check_density(a: np.ndarray) -> None:
    """Validate a density matrix, or each of a stack (..., D, D): the ``ValueError`` of ``_first_invalid_density``."""
    failure = _first_invalid_density(a)
    if failure is not None:
        raise ValueError(failure[1])


def _raw(rho: StateLike) -> np.ndarray:
    return rho.data if isinstance(rho, DensityMatrix) else np.asarray(rho, dtype=np.complex128)


def _bipartite(m: np.ndarray, d: int, what: str) -> np.ndarray:
    """View of one d x d bipartite operator, or a stack (..., d^2, d^2) of them, as (..., d, d, d, d)."""
    if m.ndim < 2 or m.shape[-2:] != (d * d, d * d):
        raise ValueError(f"expected a {d * d} x {d * d} {what}, got shape {m.shape}")
    return m.reshape(m.shape[:-2] + (d, d, d, d))


def _scalar(x: np.ndarray, kind: type = float):
    """A 0-d result as a Python float (or ``kind``); a stack's results stay an array."""
    return kind(x) if x.ndim == 0 else x


#: The partial traces on the (..., d, d, d, d) layout r[a, b, c, e], keeping side A or B, as einsum diagonal sums:
#: bitwise ``ndarray.trace`` over the same axes at every d from 2 to 16, in one call instead of a view and a sum.
_REDUCTIONS = {"A": "...abcb->...ac", "B": "...abae->...be"}


def partial_trace(rho: StateLike, side: str, d: int):
    """Trace out one half of a d x d bipartite operator, keeping ``side``.

    ``side`` names the subsystem that is kept ('A' or 'B').  Density-matrix
    input yields density-matrix output; raw arrays pass through as arrays,
    and a stack (..., d^2, d^2) gives the stack (..., d, d) of reductions.
    """
    if side not in _REDUCTIONS:
        raise ValueError(f"side must be 'A' or 'B', got {side!r}")
    out = np.einsum(_REDUCTIONS[side], _bipartite(_raw(rho), d, "operator"))
    if isinstance(rho, DensityMatrix):
        return DensityMatrix(out)
    return out


def partial_transpose_min_eig(rho: StateLike, d: int):
    """Minimum eigenvalue of the partial transpose on the first subsystem; >= 0 means PPT.

    A float for one d^2 x d^2 operator; for a stack (..., d^2, d^2) the array
    (...) of minima.  A matrix whose imaginary part is exactly zero (every
    thermal mixture of the Ising family) has a real symmetric partial
    transpose, formed from its real part and solved by the real eigensolver;
    the others by the complex one.  The route is chosen per matrix and each
    route is one stacked ``eigvalsh``, so every entry is bitwise its call alone.
    """
    m = _raw(rho)
    r4 = _bipartite(m, d, "operator")
    flat = m.reshape((-1,) + m.shape[-2:])
    real = ~np.any(flat.imag, axis=(-2, -1))
    out = np.empty(len(flat))
    for route, part in ((real, r4.real), (~real, r4)):
        if route.any():
            x = part.reshape((-1,) + part.shape[-4:])
            x = x if route.all() else x[route]
            out[route] = np.linalg.eigvalsh(x.swapaxes(-4, -2).reshape((-1,) + m.shape[-2:]))[:, 0]
    return _scalar(out.reshape(m.shape[:-2]))


def product_basis_rotation(x: np.ndarray, va: np.ndarray, vb: np.ndarray, inverse: bool = False) -> np.ndarray:
    """B^dag x B with B = V_A (x) V_B, or B x B^dag if ``inverse``, for x of shape (..., d^2, d^2).

    Each factor acts on its own index of the (..., d, d, d, d) layout as d x d
    products: 4 d^5 multiply-adds per matrix, against 2 d^6 through B, and no
    product with a side of d^2, so none that starts OpenBLAS's worker
    threads at d = 8.  A side whose V is exactly the identity (every
    diagonal local Hamiltonian, so the Ising family) takes no product, so
    there the output is x bit for bit.
    """
    d = len(va)
    lead = x.shape[:-2]
    y = x
    if not np.array_equal(va, np.eye(d)):
        left = va if inverse else dagger(va)
        y = np.matmul(left, y.reshape(lead + (d, d**3)))
        y = np.matmul(left.conj(), y.reshape(lead + (d * d, d, d)))
    if not np.array_equal(vb, np.eye(d)):
        left = vb if inverse else dagger(vb)
        y = np.matmul(left, y.reshape(lead + (d, d, d * d)))
        y = np.matmul(y.reshape(lead + (d**3, d)), dagger(left))
    return x.astype(np.complex128) if y is x else y.reshape(x.shape)


def _sum_squares(c: np.ndarray) -> np.ndarray:
    """Sum over the last two axes of |c_ij|^2 = re^2 + im^2 for a complex array, overwriting it.

    Each matrix is summed pairwise over its own D^2 entries, in its memory
    order, so it gives the same bits alone and inside a stack; working in
    place leaves no temporary the size of the stack.
    """
    re, im = c.real, c.imag
    np.square(re, out=re)
    np.square(im, out=im)
    return np.add(re, im, out=re).sum(axis=(-2, -1))


def purity(rho: StateLike):
    """tr[rho^2] as the squared Frobenius norm of a Hermitian matrix.

    A float for one matrix; for a stack (..., D, D) the array (...) of
    purities, each bitwise its matrix alone.
    """
    return _scalar(_sum_squares(np.array(_raw(rho), order="K")))


def sector_lengths(rho: StateLike, d: int):
    """Sector lengths (rA^2, rB^2, t^2) of a d x d bipartite state as squared traceless norms.

    rA^2 = d ||rho_A - 1/d||^2, likewise rB^2, and t^2 = d^2 ||rho - rho_A (x) 1/d - 1/d (x) rho_B + 1/d^2||^2:
    sums of squares, never negative and exactly 0 for the maximally mixed state.
    One state gives three floats; a stack (..., d^2, d^2) gives three arrays
    (...), each entry bitwise equal to the call on that state alone.  Each
    part is squared in place: the correlation part in the one copy of the
    stack it is formed in.
    """
    return _lengths_and_reductions(rho, d)[0]


def _lengths_and_reductions(rho: StateLike, d: int) -> tuple[tuple, tuple[np.ndarray, np.ndarray]]:
    """``sector_lengths`` and the reductions (rho_A, rho_B) it forms them from, for a caller that reads both."""
    m = _raw(rho)
    r4 = _bipartite(m, d, "state")
    eye = np.eye(d) / d
    red_a, red_b = (np.einsum(_REDUCTIONS[side], r4) for side in "AB")
    loc_a = red_a - eye
    corr = r4.copy()  # minus loc_a (x) 1/d and 1/d (x) rho_B, through writable diagonal views
    np.einsum("...abcb->...acb", corr)[...] -= loc_a[..., None] / d
    np.einsum("...abae->...abe", corr)[...] -= red_b[..., None, :, :] / d
    parts = ((d, loc_a), (d, red_b - eye), (d * d, corr.reshape(m.shape)))
    return tuple(k * _scalar(_sum_squares(x)) for k, x in parts), (red_a, red_b)


def swap_operator(d: int) -> np.ndarray:
    """SWAP on two d-dimensional factors: S|a>|b> = |b>|a>."""
    if d < 2:
        raise ValueError(f"dimension must be at least 2, got {d}")
    return np.eye(d * d).reshape(d, d, d, d).transpose(1, 0, 2, 3).reshape(d * d, d * d)


def random_hermitian(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Random Hermitian matrix with Gaussian entries (GUE-like, unnormalized)."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (g + dagger(g)) / 2


def random_density_matrix(rng: np.random.Generator, dim: int) -> DensityMatrix:
    """Random full-rank mixed state from a normalized square Ginibre product G G^dag."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = g @ dagger(g)
    return DensityMatrix(m / np.trace(m).real)
