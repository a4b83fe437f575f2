"""Reference routes that only the tests compare the library against.

Each is an independent, slower or more explicit spelling of something the
library computes another way: the Gell-Mann reconstruction of a state, the
d^4 x d^4 two-copy local twirl, explicit subsystem permutations, and the
matrix and battery spec writers that round-trip through ``matrix_from_json``
and ``battery_from_spec``.
"""

from typing import Sequence

import numpy as np

from qbattery.battery import BatteryHamiltonian
from qbattery.bloch import BlochForm, gell_mann_basis
from qbattery.linalg import DensityMatrix, StateLike, sector_lengths


def bloch_reconstruct(form: BlochForm) -> np.ndarray:
    """Rebuild the state matrix from its Bloch coefficients."""
    d = form.d
    lam = gell_mann_basis(d).matrices
    eye = np.eye(d)
    total = np.eye(d * d, dtype=np.complex128)
    total += np.einsum("i,iab,cd->acbd", form.r_a, lam, eye).reshape(d * d, d * d)
    total += np.einsum("i,ab,icd->acbd", form.r_b, eye, lam).reshape(d * d, d * d)
    total += np.einsum("ij,iab,jcd->acbd", form.t, lam, lam).reshape(d * d, d * d)
    return total / d**2


def operator_coeffs(op: np.ndarray, d: int) -> np.ndarray:
    """Traceless-basis coefficients h_i = tr[op lam_i] / d of a local operator."""
    lam = gell_mann_basis(d).matrices
    return np.einsum("iab,ba->i", lam, op).real / d


def subsystem_permutation(perm: Sequence[int], dims: Sequence[int]) -> np.ndarray:
    """Operator P with (P psi)(i_0, ..) = psi(i_perm[0], ..) on product indices."""
    dims = tuple(dims)
    total = int(np.prod(dims))
    src = np.arange(total).reshape(dims).transpose(perm).ravel()
    p = np.zeros((total, total))
    p[np.arange(total), src] = 1.0
    return p


def two_copy_local_twirl(rho: StateLike, d: int) -> np.ndarray:
    """Closed form of rho^(x)2 averaged over independent local unitary pairs.

    The average of (U_A (x) U_B)^(x)2 rho^(x)2 (...)^dag depends on rho only
    through the sector lengths rA^2, rB^2, t^2 and is built from the local
    two-copy SWAPs.  Subsystem ordering of the returned d^4 x d^4 matrix is
    (A, B, A', B'), matching ``np.kron(rho, rho)``.
    """
    r_a2, r_b2, t2 = sector_lengths(rho, d)
    dims = (d, d, d, d)
    swap_a = subsystem_permutation((2, 1, 0, 3), dims)
    swap_b = subsystem_permutation((0, 3, 2, 1), dims)
    eye = np.eye(d**4)
    ga = d * swap_a - eye
    gb = d * swap_b - eye
    dd = d * d - 1
    out = eye + (r_a2 * ga + r_b2 * gb + t2 * (ga @ gb) / dd) / dd
    return out.astype(np.complex128) / d**4


def random_pure_state(rng: np.random.Generator, dim: int) -> DensityMatrix:
    """Haar-random pure state as a rank-1 density matrix."""
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    v /= np.linalg.norm(v)
    return DensityMatrix(np.outer(v, v.conj()))


def matrix_to_json(m: np.ndarray) -> list:
    """The JSON encoding ``matrix_from_json`` reads: row-major nested lists of [re, im] pairs."""
    m = np.asarray(m, dtype=np.complex128)
    return [[[float(x.real), float(x.imag)] for x in row] for row in m]


def battery_to_spec(h: BatteryHamiltonian) -> dict:
    """The ``explicit`` battery spec of h, which ``battery_from_spec`` reads back."""
    return {
        "explicit": {
            "HA": matrix_to_json(h.ha),
            "HB": matrix_to_json(h.hb),
            "V": matrix_to_json(h.v),
            "g": h.g,
        }
    }
