"""Generalized traceless Hermitian basis and Bloch-type decompositions.

The basis generalizes the Pauli matrices to dimension d and is normalized to
tr[lam_i lam_j] = d * delta_ij, so that at d = 2 it is exactly {X, Y, Z}.
A d x d bipartite state decomposes as

    rho = (1/d^2) ( 1 + sum_i rA_i lam_i (x) 1 + sum_i rB_i 1 (x) lam_i
                      + sum_ij t_ij lam_i (x) lam_j ),

and the squared coefficient norms rA^2, rB^2, t^2 ("sector lengths") are
invariant under local unitaries.  No closed form and no run reads this
basis: the tests use it as an independent reference for the sector lengths.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .linalg import StateLike, _check_dimension, _raw

__all__ = ["interaction_coeffs"]


@dataclass(frozen=True)
class HermitianBasis:
    """Ordered traceless Hermitian basis lam_1 .. lam_{d^2-1}.

    Ordering is fixed for reproducibility of correlation-matrix entries:
    symmetric off-diagonal pairs in row-major index order, then the
    antisymmetric pairs in the same order, then the d-1 diagonal matrices.
    """

    d: int
    matrices: np.ndarray  # shape (d^2 - 1, d, d)


@functools.lru_cache(maxsize=None)
def gell_mann_basis(d: int) -> HermitianBasis:
    """Build the basis at dimension d with tr[lam_i lam_j] = d * delta_ij."""
    _check_dimension(d)
    scale = np.sqrt(d / 2.0)  # standard Gell-Mann matrices carry tr[lam^2] = 2
    mats = []
    for j in range(d):
        for k in range(j + 1, d):
            m = np.zeros((d, d), dtype=np.complex128)
            m[j, k] = m[k, j] = 1.0
            mats.append(scale * m)
    for j in range(d):
        for k in range(j + 1, d):
            m = np.zeros((d, d), dtype=np.complex128)
            m[j, k] = -1j
            m[k, j] = 1j
            mats.append(scale * m)
    for level in range(1, d):
        diag = np.zeros(d)
        diag[:level] = 1.0
        diag[level] = -level
        mats.append(scale * np.sqrt(2.0 / (level * (level + 1))) * np.diag(diag).astype(np.complex128))
    arr = np.stack(mats)
    arr.flags.writeable = False
    return HermitianBasis(d=d, matrices=arr)


@dataclass(frozen=True)
class BlochForm:
    """Bloch coefficients of a bipartite state: local vectors and t-matrix."""

    d: int
    r_a: np.ndarray
    r_b: np.ndarray
    t: np.ndarray

    @property
    def r_a2(self) -> float:
        return float(np.dot(self.r_a, self.r_a))

    @property
    def r_b2(self) -> float:
        return float(np.dot(self.r_b, self.r_b))

    @property
    def t2(self) -> float:
        return float(np.sum(self.t * self.t))

    def purity(self) -> float:
        """tr[rho^2] = (1 + rA^2 + rB^2 + t^2) / d^2."""
        return (1.0 + self.r_a2 + self.r_b2 + self.t2) / self.d**2


def _correlation_matrix(r4: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Real part of tr[op (lam_i (x) lam_j)] for op reshaped to (d, d, d, d).

    Contracts one side at a time, O(d^6) instead of O(d^8).  Plain einsum
    keeps exact zeros exact (a BLAS product leaves ~1e-66 residues for the
    maximally mixed state).
    """
    half = np.einsum("abce,ica->ibe", r4, lam)
    return np.einsum("ibe,jeb->ij", half, lam).real


def bloch_decompose(rho: StateLike, d: int) -> BlochForm:
    """Extract r_i^A = tr[rho (lam_i (x) 1)], t_ij = tr[rho (lam_i (x) lam_j)]."""
    m = _raw(rho)
    if m.shape != (d * d, d * d):
        raise ValueError(f"expected a {d * d} x {d * d} state, got shape {m.shape}")
    lam = gell_mann_basis(d).matrices
    r4 = m.reshape(d, d, d, d)
    red_a = np.einsum("abcb->ac", r4)
    red_b = np.einsum("abae->be", r4)
    r_a = np.einsum("iab,ba->i", lam, red_a).real
    r_b = np.einsum("iab,ba->i", lam, red_b).real
    return BlochForm(d=d, r_a=r_a, r_b=r_b, t=_correlation_matrix(r4, lam))


def interaction_coeffs(op: np.ndarray, d: int) -> np.ndarray:
    """Correlation coefficients v_ij = tr[op (lam_i (x) lam_j)] / d^2."""
    lam = gell_mann_basis(d).matrices
    return _correlation_matrix(op.reshape(d, d, d, d), lam) / d**2
