"""Noisy two-point measurement (TPM) of battery energy with random rotations.

Each side measures a noisy version of its local energy eigenbasis: outcome i
fires on the POVM element P_i = eps * Pi_i + (1 - eps)/d * 1.  The state
updates through the von Neumann-Lueders instrument (conjugation by sqrt(P)),
a random local unitary pair acts, and the measurement repeats.  Outcomes
carry rescaled energy labels e_ij chosen so that the label-weighted
probabilities stay unbiased for the diagonal Hamiltonian

    H_D = H - g V_od = sum_ij E_ij Pi_i^A (x) Pi_j^B,   E_ij = E_i^A + E_j^B + g D_ij.

The presumed per-unitary work is W = sum m_ij m_kl|ij (e_ij - e_kl), and its
Haar variance decomposes exactly into ideal / projective / noise-induced
contributions with weights n0 + n1 + n_noisy = 1.  Labels diverge at
eps = 0, so only the calls that form them refuse it; the Monte-Carlo
estimator, like the weights and the closed-form variance, extends to that
weak-measurement limit, where the instrument average is the state itself.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from .battery import SpectralDecomposition, joint_populations
from .bloch import gell_mann_basis
from .haar import SamplerConfig
from .linalg import StateLike, product_basis_rotation, sector_lengths
from .workstats import (
    WorkStatistics,
    _state_data,
    expectation,
    iter_samples,
    mean_work,
    rotated_energies,
    sector_variance,
    summarize,
)

__all__ = [
    "NoisyPovm",
    "TpmWeights",
    "TpmVarianceReport",
    "TpmVarianceStack",
    "povm_root_coeffs",
    "noisy_povm",
    "energy_labels",
    "instrument_average",
    "tpm_run",
    "tpm_shot_sample",
    "mc_tpm_stack",
    "mc_tpm_statistics",
    "tpm_weights",
    "tpm_spectral_stats",
    "tpm_variance_stack",
    "tpm_variance_closed_form",
]


def _check_eps(eps: float, name: str = "epsilon") -> None:
    """Detector efficiencies lie in [0, 1]."""
    if not 0.0 <= eps <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {eps}")


def _check_detectors(eps_a: float, eps_b: float) -> None:
    """The rule of a detector pair: each efficiency lies in [0, 1], a failure named by its side."""
    _check_eps(eps_a, "eps_a")
    _check_eps(eps_b, "eps_b")


def povm_root_coeffs(epsilon: float, d: int) -> tuple[float, float]:
    """Coefficients (f, g) with sqrt(P_i) = f * Pi_i + g * 1.

    f = sqrt(eps + (1-eps)/d) - sqrt((1-eps)/d), g = sqrt((1-eps)/d); the
    normalization f^2 + 2 f g + d g^2 = 1 holds identically.
    """
    _check_eps(epsilon)
    g = np.sqrt((1.0 - epsilon) / d)
    f = np.sqrt(epsilon + (1.0 - epsilon) / d) - g
    return float(f), float(g)


@dataclass(frozen=True)
class NoisyPovm:
    """Noisy local energy POVM with closed-form square roots.

    elements[i] = eps * Pi_i + (1-eps)/d * 1 and roots[i] = sqrt(elements[i])
    = f * Pi_i + g * 1; the POVM sums to the identity for every eps.
    """

    elements: np.ndarray  # (d, d, d)
    roots: np.ndarray  # (d, d, d)
    f: float
    g: float


def noisy_povm(proj: np.ndarray, epsilon: float) -> NoisyPovm:
    """POVM elements eps * Pi_i + (1-eps)/d * 1 for one side's (d, d, d) projector stack."""
    d = proj.shape[-1]
    f, g = povm_root_coeffs(epsilon, d)
    eye = np.eye(d)
    return NoisyPovm(elements=epsilon * proj + (1.0 - epsilon) / d * eye, roots=f * proj + g * eye, f=f, g=g)


def energy_labels(spec: SpectralDecomposition, eps_a: float, eps_b: float) -> np.ndarray:
    """Outcome energy labels e_ij making the noisy estimate unbiased.

    e_ij = E_i^A/eps_A + E_j^B/eps_B + g D_ij/(eps_A eps_B)
           - (1-eps_A)/(d eps_A) tr[H_A] - (1-eps_B)/(d eps_B) tr[H_B],

    which is exactly the decomposition H_D = sum_ij e_ij P_i^A (x) P_j^B.
    Labels attach to outcome indices, so degenerate energies stay distinct.
    """
    _check_detectors(eps_a, eps_b)
    for name, eps in (("eps_a", eps_a), ("eps_b", eps_b)):
        if eps == 0.0:
            raise ValueError(f"{name} must be > 0: the TPM energy labels diverge at 0, where only the closed form exists")
    d = spec.d
    tra = float(spec.energies_a.sum())
    trb = float(spec.energies_b.sum())
    return (
        spec.energies_a[:, None] / eps_a
        + spec.energies_b[None, :] / eps_b
        + spec.g * spec.d_mat / (eps_a * eps_b)
        - (1.0 - eps_a) / (d * eps_a) * tra
        - (1.0 - eps_b) / (d * eps_b) * trb
    )


def _check_stack(states: np.ndarray, d: int) -> None:
    """Refuse anything but a stack (n, d^2, d^2) of states."""
    if states.ndim != 3 or states.shape[1:] != (d * d, d * d):
        raise ValueError(f"expected a stack (n, {d * d}, {d * d}) of states, got shape {states.shape}")


def _eigenbasis_state(m: np.ndarray, spec: SpectralDecomposition) -> tuple[np.ndarray, ...]:
    """(r, same_a, same_b): r[a, b, c, e] = <ab| B^dag m B |ce> in the product eigenbasis B = V_A (x) V_B.

    ``m`` is the data of a validated state, or a stack (n, d^2, d^2) of them
    (r then gains the leading axis), rotated by ``product_basis_rotation``.
    Dephasing side A (B) in its energy eigenbasis keeps the entries with
    a = c (b = e), the mask same_a (same_b).
    """
    d = spec.d
    r = product_basis_rotation(m, spec.vecs_a, spec.vecs_b).reshape(m.shape[:-2] + (d, d, d, d))
    same_a = np.eye(d)[:, None, :, None]  # delta_ac on r[a, b, c, e]
    same_b = np.eye(d)[None, :, None, :]  # delta_be
    return r, same_a, same_b


def _instrument_stack(states: np.ndarray, spec: SpectralDecomposition, weights: list[TpmWeights]) -> np.ndarray:
    """(n, G, d^2, d^2): the outcome-summed instrument output of each state of a stack at each pair's weights.

    ``states`` is a stack (n, d^2, d^2), taken as valid.  The output is f_A^2 f_B^2 * (jointly dephased rho)
    + kappa_A * (A-dephased) + kappa_B * (B-dephased) + kappa_AB * rho.  In the product eigenbasis every
    dephasing is an entrywise mask, one per pair, so the stack costs one rotation into that basis and one back.
    """
    d = spec.d
    r, same_a, same_b = _eigenbasis_state(states, spec)
    masks = [w.f_a**2 * w.f_b**2 * same_a * same_b + w.kappa_a * same_a + w.kappa_b * same_b + w.kappa_ab for w in weights]
    masked = (r[:, None] * np.stack(masks)).reshape(len(states), len(weights), d * d, d * d)
    return product_basis_rotation(masked, spec.vecs_a, spec.vecs_b, inverse=True)


def instrument_average(rho: StateLike, spec: SpectralDecomposition, eps_a: float, eps_b: float) -> np.ndarray:
    """Outcome-summed post-measurement state sum_ij sqrt(P) rho sqrt(P): ``_instrument_stack`` of one."""
    return _instrument_stack(_state_data(rho, spec.d)[None], spec, [tpm_weights(eps_a, eps_b, spec.d)])[0, 0]


def _joint_instrument(
    spec: SpectralDecomposition, eps_a: float, eps_b: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flat outcome labels e_ij, joint POVM elements and joint Kraus operators."""
    d = spec.d
    labels = energy_labels(spec, eps_a, eps_b).ravel()
    pa = noisy_povm(spec.proj_a, eps_a)
    pb = noisy_povm(spec.proj_b, eps_b)
    povm = np.einsum("iab,jcd->ijacbd", pa.elements, pb.elements).reshape(d * d, d * d, d * d)
    kraus = np.einsum("iab,jcd->ijacbd", pa.roots, pb.roots).reshape(d * d, d * d, d * d)
    return labels, povm, kraus


def tpm_run(
    rho: StateLike,
    spec: SpectralDecomposition,
    eps_a: float,
    eps_b: float,
    ua: np.ndarray,
    ub: np.ndarray,
) -> float:
    """Exact presumed work of one noisy TPM round at a fixed unitary pair.

    Enumerates all (i, j) -> (k, l) outcome branches; a branch with zero
    first-outcome probability has a vanishing update operator and simply
    contributes zero weight.
    """
    m = _state_data(rho, spec.d)
    labels, povm, kr = _joint_instrument(spec, eps_a, eps_b)
    first = np.einsum("mab,ba->m", povm, m).real
    joint = np.einsum("mab,bc,mdc->mad", kr, m, kr.conj())
    u = np.kron(ua, ub)
    rotated = np.einsum("ab,mbc,dc->mad", u, joint, u.conj())
    second = np.einsum("oab,mba->mo", povm, rotated).real
    return float(first @ labels - second.sum(axis=0) @ labels)


def tpm_shot_sample(
    rho: StateLike,
    spec: SpectralDecomposition,
    eps_a: float,
    eps_b: float,
    ua: np.ndarray,
    ub: np.ndarray,
    shots: int,
    rng: np.random.Generator,
) -> float:
    """Finite-shot demonstration of one TPM round (sampled outcome pairs).

    Draws ``shots`` outcome trajectories instead of summing exact branch
    probabilities and returns the empirical mean presumed work; converges to
    ``tpm_run`` as shots grow.  Demonstration only; the estimators elsewhere
    use exact per-unitary expectations.
    """
    if shots < 1:
        raise ValueError(f"need at least one shot, got {shots}")
    m = _state_data(rho, spec.d)
    labels, povm, kr = _joint_instrument(spec, eps_a, eps_b)
    first_probs = np.clip(np.einsum("mab,ba->m", povm, m).real, 0.0, None)
    first_probs /= first_probs.sum()
    u = np.kron(ua, ub)
    counts = rng.multinomial(shots, first_probs)
    total = 0.0
    for idx in np.nonzero(counts)[0]:
        joint = u @ (kr[idx] @ m @ kr[idx]) @ u.conj().T
        cond = np.clip(np.einsum("oab,ba->o", povm, joint).real, 0.0, None)
        cond /= cond.sum()
        second = rng.multinomial(counts[idx], cond)
        total += counts[idx] * labels[idx] - float(second @ labels)
    return total / shots


def mc_tpm_stack(
    states: np.ndarray,
    spec: SpectralDecomposition,
    eps_pairs: list[tuple[float, float]],
    n: int,
    cfg: SamplerConfig,
) -> list[list[WorkStatistics]]:
    """Monte-Carlo moments of the presumed TPM work over n unitary pairs, stats[i][j] for state i at eps_pairs[j].

    Uses the exact per-unitary identity W(U) = tr[rho H_D] - tr[U Xi U^dag H_D]
    with Xi the outcome-summed instrument output, so each sample costs one
    rotation instead of a branch enumeration.  H_D is diagonal in the product
    eigenbasis, so the trace is sum_ij e_joint[i, j] q_ij(U; Xi) over the
    rotated populations of Xi (``rotated_energies``).  Like
    ``tpm_variance_stack`` it takes a stack (n, d^2, d^2) as valid, and one
    ``_instrument_stack`` call forms every Xi.  One pass draws the pairs
    once, and per pair one d^5 product serves every (state, pair) column,
    which then costs a d^4 dot product and is bitwise what a stack of one
    gives.  No labels are formed, so eps = 0 is sampled: there Xi = rho,
    and the estimate converges to the closed form's var_tpm = var_diag.
    """
    _check_stack(states, spec.d)
    weights = [tpm_weights(eps_a, eps_b, spec.d) for eps_a, eps_b in eps_pairs]
    xis = _instrument_stack(states, spec, weights).reshape((-1, *states.shape[1:]))
    bases = np.repeat([expectation(m, spec.h_diag) for m in states], len(eps_pairs))
    energies = rotated_energies(xis, spec)

    def sample(ua: np.ndarray, ub: np.ndarray) -> np.ndarray:
        return bases - energies(ua, ub)

    stats, g = summarize(iter_samples(sample, spec.d, n, cfg)), len(eps_pairs)
    return [stats[i * g : (i + 1) * g] for i in range(len(states))]


def mc_tpm_statistics(
    rho: StateLike,
    spec: SpectralDecomposition,
    eps_a: float,
    eps_b: float,
    n: int,
    cfg: SamplerConfig,
) -> WorkStatistics:
    """Monte-Carlo moments of the presumed TPM work over n unitary pairs: ``mc_tpm_stack`` of one."""
    return mc_tpm_stack(_state_data(rho, spec.d)[None], spec, [(eps_a, eps_b)], n, cfg)[0][0]


@dataclass(frozen=True)
class TpmWeights:
    """Noise-mixing coefficients of the TPM variance decomposition.

    n0 weighs the ideal work variance, n1 the noiseless projective TPM, and
    n_noisy the cross terms; they are non-negative and sum to one for all
    error levels (n0(0) = 1, n1(1) = 1).
    """

    d: int
    eps_a: float
    eps_b: float
    f_a: float
    g_a: float
    f_b: float
    g_b: float
    kappa_a: float
    kappa_b: float
    kappa_ab: float
    n0: float
    n1: float
    n_noisy: float


def tpm_weights(eps_a: float, eps_b: float, d: int) -> TpmWeights:
    """All f/g/kappa/n coefficients for given detector errors.

    kappa_AB uses the product form g_A g_B (2 f_A + d g_A)(2 f_B + d g_B),
    equal to kappa_A kappa_B / (f_A^2 f_B^2) wherever the latter is defined
    and regular at eps = 0.
    """
    _check_detectors(eps_a, eps_b)
    fa, ga = povm_root_coeffs(eps_a, d)
    fb, gb = povm_root_coeffs(eps_b, d)
    kappa_a = fa**2 * gb * (2 * fb + d * gb)
    kappa_b = fb**2 * ga * (2 * fa + d * ga)
    kappa_ab = ga * gb * (2 * fa + d * ga) * (2 * fb + d * gb)
    ff = fa**2 * fb**2
    n0 = kappa_ab**2
    n1 = ff**2 + kappa_a**2 + kappa_b**2
    n_noisy = 2 * (ff * (kappa_a + kappa_b + kappa_ab) + kappa_a * kappa_b + kappa_a * kappa_ab + kappa_b * kappa_ab)
    return TpmWeights(
        d=d,
        eps_a=eps_a,
        eps_b=eps_b,
        f_a=fa,
        g_a=ga,
        f_b=fb,
        g_b=gb,
        kappa_a=kappa_a,
        kappa_b=kappa_b,
        kappa_ab=kappa_ab,
        n0=n0,
        n1=n1,
        n_noisy=n_noisy,
    )


@dataclass(frozen=True)
class TpmSpectralStats:
    """Populations of the joint eigenbasis and basis-overlap matrices.

    zeta_a[a, b] = sum_i tr(Pi_i lam_a Pi_i lam_b) / d encodes how much of
    each basis direction survives dephasing in the A eigenbasis (likewise
    zeta_b).
    """

    p_joint: np.ndarray  # (d, d)
    p_ab2: float
    p_a2: float
    p_b2: float
    zeta_a: np.ndarray  # (d^2-1, d^2-1)
    zeta_b: np.ndarray


def _zeta(proj: np.ndarray, lam: np.ndarray, d: int) -> np.ndarray:
    # Rank-1 Pi_n factorize tr(Pi_n lam_i Pi_n lam_j) = tr(Pi_n lam_i) tr(Pi_n lam_j).
    x = np.einsum("nab,iba->ni", proj, lam).real
    return x.T @ x / d


def tpm_spectral_stats(rho: StateLike, spec: SpectralDecomposition) -> TpmSpectralStats:
    """Joint-population matrix, its and its marginals' purities, and the dephasing overlaps."""
    d = spec.d
    p_joint = joint_populations(_state_data(rho, d), spec.vecs_a, spec.vecs_b)
    lam = gell_mann_basis(d).matrices
    return TpmSpectralStats(
        p_joint=p_joint,
        p_ab2=float(np.sum(p_joint**2)),
        p_a2=float(np.sum(p_joint.sum(axis=1) ** 2)),
        p_b2=float(np.sum(p_joint.sum(axis=0) ** 2)),
        zeta_a=_zeta(spec.proj_a, lam, d),
        zeta_b=_zeta(spec.proj_b, lam, d),
    )


def _diagonal_weights(spec: SpectralDecomposition) -> tuple[float, float, float]:
    """Traceless weights (ha2, hb2, g^2 v^2) of the diagonal Hamiltonian H_D.

    The local weights come from the spectra; the interaction weight is
    g^2 (sum_ij D_ij^2) / d^2.
    """
    d = spec.d
    ea, eb = spec.energies_a, spec.energies_b
    ha2 = float(np.sum(ea**2) / d - (np.sum(ea) / d) ** 2)
    hb2 = float(np.sum(eb**2) / d - (np.sum(eb) / d) ** 2)
    return ha2, hb2, spec.g**2 * float(np.sum(spec.d_mat**2)) / d**2


_DEPHASINGS = ("state", "joint", "local_a", "local_b")


def _dephased_sectors(states: np.ndarray, spec: SpectralDecomposition) -> dict[str, tuple]:
    """Sector lengths (rA^2, rB^2, t^2) of a state's data and of its dephased versions.

    'joint' dephases both sides in their local energy eigenbases, 'local_a'
    side A only and 'local_b' side B only; 'state' is the state itself.
    Sector lengths are local-unitary invariants, so each is read off the
    masked state in the product eigenbasis, all four in one stacked call.
    One state (d^2, d^2) gives floats; a stack (n, d^2, d^2) gives arrays
    (n,), each entry bitwise what that state gives alone.
    """
    d = spec.d
    r, same_a, same_b = _eigenbasis_state(states, spec)
    masks = np.stack(np.broadcast_arrays(1.0, same_a * same_b, same_a, same_b))
    dephased = (r[..., None, :, :, :, :] * masks).reshape(states.shape[:-2] + (4, d * d, d * d))
    lengths = sector_lengths(dephased, d)
    return {name: tuple(x[..., k] for x in lengths) for k, name in enumerate(_DEPHASINGS)}


def _explicit_dephasings(m: np.ndarray, spec: SpectralDecomposition) -> dict[str, np.ndarray]:
    """Reference for ``_dephased_sectors``: its four states of a state's data m, formed explicitly, (d^2, d^2) each.

    Side A's dephasing sum_i (Pi_i (x) 1) m (Pi_i (x) 1) over ``spec.proj_a`` is, for rank-1 Pi_i,
    sum_i Pi_i (x) tr_A[(Pi_i (x) 1) m]: two d^5 contractions on the (d, d, d, d) layout, with no
    eigenbasis rotation and no mask.  Side B's is side A's on the swapped halves; 'joint' applies it to side A's.
    """
    d, swap = spec.d, (1, 0, 3, 2)  # r[a, b, c, e] -> r[b, a, e, c]

    def dephase_a(r: np.ndarray, proj: np.ndarray) -> np.ndarray:
        blocks = np.tensordot(proj, r, axes=([2, 1], [0, 2]))  # (i, b, e): tr_A[(Pi_i (x) 1) m]
        return np.tensordot(proj, blocks, axes=(0, 0)).transpose(0, 2, 1, 3)

    state = m.reshape(d, d, d, d)
    local_a = dephase_a(state, spec.proj_a)
    local_b, joint = (dephase_a(r.transpose(swap), spec.proj_b).transpose(swap) for r in (state, local_a))
    return {name: r.reshape(d * d, d * d) for name, r in zip(_DEPHASINGS, (state, joint, local_a, local_b))}


@dataclass(frozen=True)
class TpmVarianceReport:
    """Closed-form TPM variance with its ideal/projective/noisy split.

    var_tpm = ideal_term + projective_term + noisy_term
            = n0 * var_diag + n1 * var_projective + n_noisy * var_noisy,
    and var_tpm <= var_diag for every error pair (saturated as eps -> 0).
    var_diag is the ideal work variance of the diagonal Hamiltonian H_D.
    """

    d: int
    eps_a: float
    eps_b: float
    mean_tpm: float
    var_tpm: float
    var_diag: float
    var_projective: float
    var_noisy: float
    ideal_term: float
    projective_term: float
    noisy_term: float
    ha2: float
    hb2: float
    g2v2_diag: float
    weights: TpmWeights


class TpmVarianceStack(NamedTuple):
    """The numbers of ``TpmVarianceReport`` for a stack of states at a list of detector pairs.

    Each field is a (states, pairs) array.  The weights' n0, n1 and n_noisy
    stand in for the report's ``weights``; ``tpm_weights`` gives the rest.
    """

    eps_a: np.ndarray
    eps_b: np.ndarray
    mean_tpm: np.ndarray
    var_tpm: np.ndarray
    var_diag: np.ndarray
    var_projective: np.ndarray
    var_noisy: np.ndarray
    ideal_term: np.ndarray
    projective_term: np.ndarray
    noisy_term: np.ndarray
    ha2: np.ndarray
    hb2: np.ndarray
    g2v2_diag: np.ndarray
    n0: np.ndarray
    n1: np.ndarray
    n_noisy: np.ndarray


def tpm_variance_stack(
    states: np.ndarray, spec: SpectralDecomposition, eps_pairs: list[tuple[float, float]]
) -> TpmVarianceStack:
    """``tpm_variance_closed_form`` of every state of a stack at every detector pair, as columns.

    ``states`` is a stack (n, d^2, d^2) of density matrices, taken as valid
    and not re-validated, as in ``detect_schmidt_number_stack``; cell [i, j]
    of each column is bitwise what the per-state call reports for state i at
    the pair eps_pairs[j] = (eps_a, eps_b).  The variance is a sum of ten Haar
    integrals, each a product of kappa weights with the work variance under
    H_D of one state of ``_dephased_sectors``: the joint, local_a, local_b
    and state squares, and six cross terms that enter twice.  The state
    square is the ideal term, the other squares the projective term and the
    cross terms the noisy one.  The trace of H_D is irrelevant (work values
    are label differences), so the traceless shift of H_D is used implicitly.
    """
    d = spec.d
    _check_stack(states, d)
    diag = _diagonal_weights(spec)
    sectors = _dephased_sectors(states, spec)
    var = {name: sector_variance(*lengths, *diag, d)[:, None] for name, lengths in sectors.items()}
    ws = [tpm_weights(eps_a, eps_b, d) for eps_a, eps_b in eps_pairs]
    coeffs = []  # Python floats: a float's x**2 is libm pow, which an array's square need not match bitwise
    for w in ws:
        ff, ka, kb, kab = w.f_a**2 * w.f_b**2, w.kappa_a, w.kappa_b, w.kappa_ab
        coeffs.append((ff**2, ka**2, kb**2, kab**2, ff * ka, ff * kb, ka * kb, ff * kab, ka * kab, kb * kab))
    c = np.reshape(coeffs, (-1, 10)).T  # one row per integral, one column per pair
    joint, local_a, local_b = var["joint"], var["local_a"], var["local_b"]
    with np.errstate(invalid="ignore"):  # inf * 0 at an overflowed variance is nan, which the CLI refuses by name
        ideal = c[3] * var["state"]
        proj = c[0] * joint + c[1] * local_a + c[2] * local_b
        noisy = 2.0 * sum(coeff * v for coeff, v in zip(c[4:], (joint, joint, joint, joint, local_a, local_b)))
    pair = {key: np.array([getattr(w, key) for w in ws], float) for key in ("eps_a", "eps_b", "n0", "n1", "n_noisy")}
    cells = dict(
        mean_tpm=np.array([mean_work(m, spec.h_diag) for m in states])[:, None],
        var_tpm=ideal + proj + noisy,
        var_diag=var["state"],
        var_projective=np.divide(proj, pair["n1"], out=np.zeros_like(proj), where=pair["n1"] > 0),
        var_noisy=np.divide(noisy, pair["n_noisy"], out=np.zeros_like(noisy), where=pair["n_noisy"] > 0),
        ideal_term=ideal,
        projective_term=proj,
        noisy_term=noisy,
        **dict(zip(("ha2", "hb2", "g2v2_diag"), diag)),
        **pair,
    )
    return TpmVarianceStack(**{name: np.broadcast_to(x, proj.shape) for name, x in cells.items()})


def tpm_variance_closed_form(
    rho: StateLike, spec: SpectralDecomposition, eps_a: float, eps_b: float
) -> TpmVarianceReport:
    """Closed-form variance of the presumed TPM work over Haar unitary pairs: ``tpm_variance_stack`` of one."""
    stack = tpm_variance_stack(_state_data(rho, spec.d)[None], spec, [(eps_a, eps_b)])
    cells = {f.name: float(getattr(stack, f.name)[0, 0]) for f in fields(TpmVarianceReport)[1:-1]}
    return TpmVarianceReport(spec.d, **cells, weights=tpm_weights(eps_a, eps_b, spec.d))
