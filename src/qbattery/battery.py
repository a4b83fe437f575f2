"""Bipartite battery Hamiltonians, example families, and spectral views.

A battery is a d x d system with H = H_A (x) 1 + 1 (x) H_B + g V where the
interaction V carries no identity or single-sided components.  Arbitrary
input interactions are canonicalized to that form: extracted local parts are
folded (scaled by g) into H_A, H_B and the identity offset is dropped with a
warning, since it cannot affect any work value.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .linalg import (
    DensityMatrix,
    StateLike,
    check_density,
    dagger,
    is_hermitian,
    kron,
    partial_trace,
    product_basis_rotation,
    _check_dimension,
    _first_invalid_density,
    _raw,
)

__all__ = [
    "BatteryHamiltonian",
    "SpectralDecomposition",
    "battery_hamiltonian",
    "ising_battery",
    "gibbs_state",
    "thermal_mixture_state",
    "thermal_mixture_stack",
    "joint_populations",
    "spectral_decomposition",
]


@dataclass(frozen=True)
class BatteryHamiltonian:
    """H = ha (x) 1 + 1 (x) hb + g * v with a canonical (no local parts) v.

    ha2, hb2 and v2 are normalized squared norms of the traceless parts:
    ha2 = ||ha - tr(ha)/d 1||^2 / d, likewise hb2, and v2 = ||v||^2 / d^2.
    They deliberately exclude identity components, which is forced by the
    shift invariance of extracted work; they and g^2 v2 are finite.
    """

    d: int
    ha: np.ndarray
    hb: np.ndarray
    v: np.ndarray
    g: float
    ha2: float
    hb2: float
    v2: float

    @property
    def g2v2(self) -> float:
        return self.g**2 * self.v2

    @property
    def total(self) -> np.ndarray:
        """Full d^2 x d^2 Hamiltonian matrix."""
        eye = np.eye(self.d)
        return kron(self.ha, eye) + kron(eye, self.hb) + self.g * self.v


def _sq_norm(m: np.ndarray) -> float:
    return float(np.vdot(m, m).real)


def battery_hamiltonian(
    ha: np.ndarray,
    hb: np.ndarray,
    v: np.ndarray,
    g: float,
) -> BatteryHamiltonian:
    """Assemble and canonicalize a battery Hamiltonian: ``_battery_stack`` of one.

    ``ha``/``hb`` are Hermitian d x d local terms, d as ``_check_dimension`` allows;
    ``v`` is a Hermitian d^2 x d^2 interaction; ``g`` its coupling strength.
    A non-finite entry or weight (ha2, hb2, g^2 v2) is a ValueError naming it.
    """
    stack = (np.asarray(m, dtype=np.complex128)[None] for m in (ha, hb))
    return _built(_battery_stack(*stack, v, g)[0])


def _built(entry: BatteryHamiltonian | ValueError) -> BatteryHamiltonian:
    """A battery of a ``_battery_stack``; an entry whose build failed raises its error."""
    if isinstance(entry, ValueError):
        raise entry
    return entry


def _battery_stack(ha: np.ndarray, hb: np.ndarray, v: np.ndarray, g: float) -> list[BatteryHamiltonian | ValueError]:
    """The batteries of two stacks (n, d, d) of local terms with one interaction ``v`` and coupling ``g``.

    Entry i is the battery of (ha[i], hb[i]), bitwise its build alone, or the
    ValueError of the first check that build fails, in the order: each term
    finite, then Hermitian (ha, hb, v), then each weight finite (ha2, hb2,
    g^2 v2).  A wrong shape or dimension is every entry's, and is raised.
    The shared interaction is checked and canonicalized once: its identity
    and single-sided components are split off, the local parts folded
    (scaled by g) into every pair's local terms with one warning.
    """
    d = ha.shape[1]
    _check_dimension(d)
    v = np.asarray(v, dtype=np.complex128)
    if ha.shape[1:] != (d, d) or hb.shape[1:] != (d, d):
        raise ValueError("local Hamiltonians must be square and equal-sized")
    if v.shape != (d * d, d * d):
        raise ValueError(f"interaction must be {d * d} x {d * d}, got {v.shape}")
    terms = (("ha", ha), ("hb", hb), ("v", v))
    passed = np.empty((2 * len(terms), len(ha)), dtype=bool)  # each entry's checks, in the order of a build alone
    with np.errstate(invalid="ignore"):  # inf - inf in a non-finite term, which its finiteness check refuses first
        for k, (name, m) in enumerate(terms):
            passed[2 * k] = np.isfinite(m).all(axis=(-2, -1))
            passed[2 * k + 1] = is_hermitian(m, tol=1e-10)
    messages = [f"{name} {rule}" for name, _ in terms for rule in ("has a non-finite entry", "must be Hermitian")]
    errors = [None if ok else messages[k] for ok, k in zip(passed.all(axis=0).tolist(), passed.argmin(axis=0).tolist())]
    if all(errors):
        return [ValueError(message) for message in errors]

    # Split off identity and single-sided components of v.
    offset = np.trace(v).real / d**2
    eye = np.eye(d)
    local_a = partial_trace(v, "A", d) / d - offset * eye
    local_b = partial_trace(v, "B", d) / d - offset * eye
    v_corr = v - offset * np.eye(d * d) - kron(local_a, eye) - kron(eye, local_b)
    moved = max(abs(offset), np.max(np.abs(local_a)), np.max(np.abs(local_b)))
    if moved > 1e-12:
        warnings.warn(
            "interaction had identity/local components; local parts were folded "
            "(scaled by g) into the local Hamiltonians and the identity offset dropped",
            stacklevel=3,
        )
        ha = ha + g * local_a
        hb = hb + g * local_b
        v = v_corr

    # Each pair's weights: squared norms of the traceless parts, one vdot per matrix, so an entry has its build's bits
    with np.errstate(invalid="ignore", over="ignore"):  # a failed entry's terms may be inf; its weights are not read
        ha0, hb0 = (m - (np.trace(m, axis1=-2, axis2=-1) / d)[:, None, None] * eye for m in (ha, hb))
    v2 = _sq_norm(v_corr) / d**2
    batteries = []
    for a, b, a0, b0, error in zip(ha, hb, ha0, hb0, errors):
        if error is None:
            h = BatteryHamiltonian(d=d, ha=a, hb=b, v=v, g=float(g), ha2=_sq_norm(a0) / d, hb2=_sq_norm(b0) / d, v2=v2)
            # g * g, not the property's g**2: a float's ** raises OverflowError where * gives inf
            weights = (("ha2", h.ha2), ("hb2", h.hb2), ("g^2 v2", h.g * h.g * h.v2))
            error = next((f"the weight {name} = {w} is not finite" for name, w in weights if not math.isfinite(w)), None)
        batteries.append(h if error is None else ValueError(error))
    return batteries


_PAULI_Z = np.diag([1.0, -1.0]).astype(np.complex128)
_EYE2 = np.eye(2)
# The constant two-qubit terms of ``ising_battery``: ZZ, the field Z1 + Z2, and the middle bond Z2 (x) Z3.
_ISING_ZZ = np.kron(_PAULI_Z, _PAULI_Z)
_ISING_FIELD = np.kron(_PAULI_Z, _EYE2) + np.kron(_EYE2, _PAULI_Z)
_ISING_BOND = np.kron(np.kron(_EYE2, _PAULI_Z), np.kron(_PAULI_Z, _EYE2))


def ising_battery(j1: float, j2: float, j3: float, b: float) -> BatteryHamiltonian:
    """Four-qubit Ising chain with a homogeneous Z field, split (1,2 | 3,4): ``_ising_stack`` of one.

    Each battery half is a two-qubit system (d = 4) with ZZ coupling j1
    (resp. j3) and field b; the halves couple through the middle ZZ bond of
    strength j2, i.e. Z on qubit 2 with Z on qubit 3.  The derived scalars
    satisfy ha2 = j1^2 + 2 b^2, hb2 = j3^2 + 2 b^2 and g2v2 = j2^2.
    """
    return _built(_ising_stack(j1, j2, j3, [b])[0])


def _ising_stack(j1: float, j2: float, j3: float, fields) -> list[BatteryHamiltonian | ValueError]:
    """The Ising batteries at each field b of ``fields``, one ``_battery_stack`` with the bond canonicalized once."""
    b = np.asarray(fields)[:, None, None]
    with np.errstate(over="ignore"):  # an overflowing entry is inf, which the build refuses by name
        ha = j1 * _ISING_ZZ + b * _ISING_FIELD
        hb = j3 * _ISING_ZZ + b * _ISING_FIELD
    return _battery_stack(ha, hb, _ISING_BOND, g=j2)


def _check_temperature(temperature: float) -> None:
    """The temperature rule of ``gibbs_state`` and of a ``thermal_mixture`` config: T > 0."""
    if not temperature > 0:
        raise ValueError(f"temperature must be positive, got {temperature}")


def _check_alpha(alpha: float) -> None:
    """The mixing-ratio rule of ``thermal_mixture_stack`` and of every config alpha: it lies in [0, 1]."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"mixing ratios must lie in [0, 1], got {alpha}")


def gibbs_state(h: np.ndarray, temperature: float) -> DensityMatrix | np.ndarray:
    """Thermal state exp(-H/T)/Z via eigendecomposition (shift-stabilized).

    One Hamiltonian gives a ``DensityMatrix``.  A stack (..., d, d) gives the
    array of states from one stacked ``eigh``, validated by one
    ``check_density``; each is bitwise its call alone.
    """
    _check_temperature(temperature)
    h = np.asarray(h, dtype=np.complex128)
    w, u = np.linalg.eigh(h)
    with np.errstate(over="ignore"):  # (w - w_min) / T overflows to inf at a tiny T, and exp(-inf) = 0 is the limit
        x = np.exp(-(w - w.min(axis=-1, keepdims=True)) / temperature)
    rho = (u * x[..., None, :]) @ dagger(u)
    rho = rho / np.trace(rho, axis1=-2, axis2=-1).real[..., None, None]
    if rho.ndim == 2:
        return DensityMatrix(rho)
    check_density(rho)
    return rho


def _fix_phases(u: np.ndarray) -> np.ndarray:
    """Make each column's largest-magnitude entry real positive, in each matrix of a stack."""
    idx = np.argmax(np.abs(u), axis=-2)
    lead = np.take_along_axis(u, idx[..., None, :], axis=-2)[..., 0, :]
    lead = np.where(np.abs(lead) > 0, lead, 1.0)
    return u * (np.abs(lead) / lead)[..., None, :]


def thermal_mixture_state(
    alpha: float,
    tau_a: StateLike,
    tau_b: StateLike,
) -> DensityMatrix:
    """Mixture of a correlated pure state with the product of its marginals.

    rho = alpha |phi><phi| + (1 - alpha) tau_A (x) tau_B, where
    |phi> = sum_i sqrt(p_i) |e_i>|f_i> pairs the eigenvectors of tau_A and
    tau_B in descending-eigenvalue order.  Both marginals of rho equal the
    given tau's for every alpha, which requires the two spectra to agree
    within 1e-9.  The pairing freedom (phases, degenerate
    rotations) amounts to a local unitary and leaves all sector lengths
    unchanged.  This is the one-row ``thermal_mixture_stack``.
    """
    return DensityMatrix(thermal_mixture_stack([alpha], tau_a, tau_b)[0])


_INCOMPATIBLE = (
    "incompatible marginals: tau_A and tau_B spectra differ beyond tolerance, "
    "no correlated pure state has both as reductions"
)


def thermal_mixture_stack(alphas, tau_a: StateLike, tau_b: StateLike) -> np.ndarray:
    """``thermal_mixture_state`` at every mixing ratio, as one (A, d^2, d^2) stack.

    Stacks of marginal pairs (..., d, d) give (..., A, d^2, d^2), one row of
    A mixtures per pair, from one stacked ``eigh`` per side; each row is
    bitwise the call on its pair alone.  The two endpoints of each pair,
    |phi><phi| (alpha = 1) and tau_A (x) tau_B (alpha = 0), are validated
    once, together with the equal spectra; each mixture is a convex
    combination of them and so a density matrix without a check of its own.
    The ``ValueError`` is the one the first failing pair alone raises.
    """
    a = np.asarray(alphas, dtype=np.float64)
    if a.ndim != 1:
        raise ValueError(f"mixing ratios must form a list, got {alphas}")
    for alpha in a.tolist():
        _check_alpha(alpha)
    ta = _raw(tau_a)
    tb = _raw(tau_b)
    if ta.shape != tb.shape:
        raise ValueError("marginals must have equal dimension")
    wa, ua = np.linalg.eigh(ta)
    wb, ub = np.linalg.eigh(tb)
    wa, ua = wa[..., ::-1], _fix_phases(ua[..., ::-1])
    wb, ub = wb[..., ::-1], _fix_phases(ub[..., ::-1])
    p = np.clip((wa + wb) / 2, 0.0, None)
    phi = np.einsum("...i,...ai,...bi->...ab", np.sqrt(p), ua, ub).reshape(p.shape[:-1] + (-1,))
    pure = phi[..., :, None] * phi.conj()[..., None, :]
    product = kron(ta, tb)
    # The first pair that fails any check, by its first failed check: equal spectra, then the two endpoints.
    unequal = np.flatnonzero(np.max(np.abs(wa - wb), axis=-1) > 1e-9)
    failures = [(i, 0, _INCOMPATIBLE) for i in unequal[:1]]
    for check, endpoint in enumerate((pure, product), start=1):
        failure = _first_invalid_density(endpoint)
        if failure is not None:
            failures.append((failure[0], check, failure[1]))
    if failures:
        raise ValueError(min(failures)[2])
    out = a[:, None, None] * pure[..., None, :, :]
    # one alpha at a time, so no second array of the stack's size is made
    for row, weight in zip(np.moveaxis(out, -3, 0), 1.0 - a):
        row += weight * product
    return out


@dataclass(frozen=True)
class SpectralDecomposition:
    """Rank-1 local eigenprojectors and the diagonal part of the interaction.

    ``d_mat`` holds the interaction's diagonal matrix elements in the local
    product eigenbasis; ``v_od`` the off-diagonal remainder.  The joint
    diagonal spectrum is e_joint[i, j] = E_i^A + E_j^B + g * d_mat[i, j] and
    h_diag = H - g * v_od = sum_ij e_joint[i, j] P_i^A (x) P_j^B.
    """

    d: int
    g: float
    energies_a: np.ndarray  # (d,)
    energies_b: np.ndarray
    proj_a: np.ndarray  # (d, d, d) stack of rank-1 projectors
    proj_b: np.ndarray
    vecs_a: np.ndarray  # (d, d), columns are the projector vectors
    vecs_b: np.ndarray
    d_mat: np.ndarray  # (d, d)
    v_od: np.ndarray  # (d^2, d^2)
    e_joint: np.ndarray  # (d, d)
    h_diag: np.ndarray  # (d^2, d^2)


def _local_eigenbasis(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Energies and eigenvector columns with a deterministic ordering.

    A Hamiltonian diagonal in the computational basis keeps that basis and
    ordering (covers degenerate spectra of Z-type models); otherwise
    eigenvectors are sorted by descending energy, ties broken by the index
    of each vector's largest-magnitude component.
    """
    d = h.shape[0]
    if np.max(np.abs(h - np.diag(np.diagonal(h)))) <= 1e-12:
        return np.diagonal(h).real.copy(), np.eye(d, dtype=np.complex128)
    w, u = np.linalg.eigh(h)
    u = _fix_phases(u)
    lead = np.argmax(np.abs(u), axis=0)
    order = sorted(range(d), key=lambda i: (-w[i], lead[i]))
    return w[order], u[:, order]


def joint_populations(m: np.ndarray, vecs_a: np.ndarray, vecs_b: np.ndarray) -> np.ndarray:
    """tr[(P_i^A (x) P_j^B) m] as a real (d, d) array: the diagonal of B^dag m B with B = V_A (x) V_B.

    The columns of ``vecs_a``/``vecs_b`` are the projector vectors; m is a
    d^2 x d^2 operator (a state's joint populations, or the interaction's
    level shifts ``d_mat``).  B^dag m B comes from ``product_basis_rotation``,
    4 d^5 multiply-adds in d x d products, with B never formed.
    """
    d = len(vecs_a)
    rotated = product_basis_rotation(m, vecs_a, vecs_b).reshape(d, d, d, d)
    return np.einsum("ijij->ij", rotated).real.copy()


def spectral_decomposition(h: BatteryHamiltonian) -> SpectralDecomposition:
    """Split the interaction into level shifts and eigenbasis changes.

    With B = V_A (x) V_B, d_mat is the diagonal of B^dag V B and
    V - v_od = B diag(d_mat) B^dag, both through ``product_basis_rotation``
    (no d^2-sized product, and B is never formed).  Where both local
    eigenbases are the identity (every diagonal local Hamiltonian, so the
    Ising family) the rotations take no product, d_mat is exactly V's
    diagonal and v_od exactly V minus it.
    """
    d = h.d
    ea, ua = _local_eigenbasis(h.ha)
    eb, ub = _local_eigenbasis(h.hb)
    proj_a = np.einsum("ai,bi->iab", ua, ua.conj())
    proj_b = np.einsum("ai,bi->iab", ub, ub.conj())
    d_mat = joint_populations(h.v, ua, ub)
    v_od = h.v - product_basis_rotation(np.diag(d_mat.ravel()), ua, ub, inverse=True)
    e_joint = ea[:, None] + eb[None, :] + h.g * d_mat
    h_diag = h.total - h.g * v_od
    return SpectralDecomposition(
        d=d,
        g=h.g,
        energies_a=ea,
        energies_b=eb,
        proj_a=proj_a,
        proj_b=proj_b,
        vecs_a=ua,
        vecs_b=ub,
        d_mat=d_mat,
        v_od=v_od,
        e_joint=e_joint,
        h_diag=h_diag,
    )
