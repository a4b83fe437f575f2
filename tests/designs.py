"""The single-qudit Clifford groups at d = 2, 3 and 5: finite unitary 2-designs.

Every closed form of the library is a second moment of local Haar unitaries,
so it equals the average over all pairs (U_A, U_B) of a local unitary
2-design exactly.  The pair averages run at d = 2 and 3 (576 and 46,656
pairs); at d = 5 (9e6 pairs) only the twirls are averaged, over the group.  Over a Clifford group that average is a finite sum: an
oracle with no sampling noise, which fails a wrong coefficient at any size.
The per-pair values here are written out from the definitions (rotated state,
noisy POVM, Lueders instrument), independent of the library's kernels.
"""

import numpy as np


def _without_phase(u: np.ndarray) -> np.ndarray:
    """u with its global phase removed: its first nonzero entry made real and positive."""
    first = u.flat[np.flatnonzero(np.abs(u) > 1e-9)[0]]
    return u * (abs(first) / first)


def clifford_group(d: int) -> np.ndarray:
    """The Clifford group of one qudit modulo global phase, (|C|, d, d), closed from the Fourier, phase and shift gates.

    The phase gate is diag(1, i) at d = 2 and diag(omega^(j^2)) at odd prime d, where the group has d^3 (d^2 - 1)
    elements.
    """
    j = np.arange(d)
    omega = np.exp(2j * np.pi / d)
    fourier = omega ** np.outer(j, j) / np.sqrt(d)
    phase = np.diag([1, 1j]) if d == 2 else np.diag(omega ** (j**2))
    shift = np.roll(np.eye(d), 1, axis=0)
    found = {}
    frontier = [np.eye(d, dtype=np.complex128)]
    while frontier:
        grown = []
        for u in frontier:
            key = tuple(np.rint(np.concatenate([u.real.ravel(), u.imag.ravel()]) * 1e8).astype(np.int64))
            if key not in found:
                found[key] = u
                grown += [_without_phase(g @ u) for g in (fourier, phase, shift)]
        frontier = grown
    return np.array(list(found.values()))


def frame_potential(group: np.ndarray) -> float:
    """The mean of |tr g|^4 over a group: 2 exactly for a unitary 2-design (d >= 2)."""
    return float(np.mean(np.abs(np.trace(group, axis1=1, axis2=2)) ** 4))


def _rotated(group: np.ndarray, x: np.ndarray):
    """(U_A (x) U_B) x (U_A (x) U_B)^dag for every pair of the group, one stack (|C|, D, D) per U_A."""
    d = group.shape[1]
    for ua in group:
        u = np.einsum("ab,ncd->nacbd", ua, group).reshape(len(group), d * d, d * d)
        yield u @ x @ u.conj().transpose(0, 2, 1)


def twirl(group: np.ndarray, x: np.ndarray, copies: int = 1) -> np.ndarray:
    """The average of U^(x)copies x (U^dag)^(x)copies over every element U of the group (copies 1 or 2)."""
    d = group.shape[1]
    u = group if copies == 1 else np.einsum("nab,ncd->nacbd", group, group).reshape(len(group), d * d, d * d)
    return np.mean(u @ x @ u.conj().transpose(0, 2, 1), axis=0)


def _moments(values) -> tuple[float, float]:
    """Mean and population variance of the concatenated per-pair values."""
    v = np.concatenate(list(values))
    return float(v.mean()), float(v.var())


def work_moments(group: np.ndarray, rho: np.ndarray, h: np.ndarray) -> tuple[float, float]:
    """Mean and variance over all pairs of the work tr[(rho - U rho U^dag) H]."""
    base = np.vdot(h, rho).real
    return _moments(base - np.einsum("nab,ba->n", r, h).real for r in _rotated(group, rho))


def _noisy_povm(vecs: np.ndarray, eps: float) -> np.ndarray:
    """eps |v_i><v_i| + (1 - eps)/d for each eigenvector column v_i, (d, d, d)."""
    d = len(vecs)
    return eps * np.einsum("ai,bi->iab", vecs, vecs.conj()) + (1.0 - eps) / d * np.eye(d)


def _sqrt_psd(m: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(m)
    return (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.conj().T


def tpm_moments(group: np.ndarray, rho: np.ndarray, spec, eps_a: float, eps_b: float) -> tuple[float, float]:
    """Mean and variance over all pairs of the presumed TPM work tr[rho H_D] - tr[U Xi U^dag H_D].

    Xi = sum_ij K_ij rho K_ij^dag is the outcome-summed Lueders update, K_ij = sqrt(P_i^A) (x) sqrt(P_j^B);
    the energy labels are unbiased for H_D, so the label-weighted second outcome averages to tr[. H_D].
    """
    roots_a = [_sqrt_psd(p) for p in _noisy_povm(spec.vecs_a, eps_a)]
    roots_b = [_sqrt_psd(p) for p in _noisy_povm(spec.vecs_b, eps_b)]
    kraus = [np.kron(ra, rb) for ra in roots_a for rb in roots_b]
    xi = sum(k @ rho @ k.conj().T for k in kraus)
    base = np.vdot(spec.h_diag, rho).real
    return _moments(base - np.einsum("nab,ba->n", r, spec.h_diag).real for r in _rotated(group, xi))


def coincidence_mean(group: np.ndarray, rho: np.ndarray, spec, eps_a: float, eps_b: float) -> float:
    """Mean over all pairs of the two-copy coincidence probability sum_ij tr[(P_i^A (x) P_j^B) U rho U^dag]^2."""
    povm = np.einsum(
        "iab,jcd->ijacbd", _noisy_povm(spec.vecs_a, eps_a), _noisy_povm(spec.vecs_b, eps_b)
    ).reshape(spec.d, spec.d, spec.d**2, spec.d**2)
    return _moments((np.einsum("ijab,nba->nij", povm, r).real ** 2).sum(axis=(1, 2)) for r in _rotated(group, rho))[0]


def probe_square_mean(group: np.ndarray, rho: np.ndarray, p: np.ndarray) -> float:
    """Mean over all pairs of tr[P U rho U^dag]^2: tr[(P (x) P) T] for T the two-copy local twirl of rho."""
    return _moments(np.einsum("ab,nba->n", p, r).real ** 2 for r in _rotated(group, rho))[0]
