"""Two-copy noisy energy-coincidence measurement.

Two copies of the battery state receive the *same* random local unitary
pair, then each side tests whether its two copies produce the same noisy
energy outcome.  The per-unitary coincidence probability is the purity-like
quantity C(U) = sum_ij m_ij(U)^2 with m_ij the joint noisy outcome
probabilities; averaged over Haar pairs it has the closed form

    C = (1/d^2) [ 1 + (rA^2 epsA^2 + rB^2 epsB^2)/(d+1)
                    + t^2 epsA^2 epsB^2/(d+1)^2 ],

which rises with every sector length, so coincidences upper-bound by a
function of the work variance.  Coincidence is outcome-indexed: degenerate
energies count as distinct outcomes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .battery import BatteryHamiltonian, SpectralDecomposition, joint_populations
from .haar import SamplerConfig
from .linalg import StateLike, sector_lengths
from .tpm import _check_detectors, _check_eps
from .workstats import WorkStatistics, _state_data, iter_samples, rotated_populations, sector_variance, summarize

__all__ = [
    "CoincidenceReport",
    "coincidence_povm",
    "avg_coincidence_closed",
    "mc_coincidence",
    "coincidence_bound",
]

#: Relative rounding of bound_rhs - cbar_closed: both are sums of a few terms
#: of size up to bound_rhs, so their difference rounds within a few 1e-16
#: bound_rhs (below 5e-16 over 300 random batteries).
SLACK_ROUNDING = 1e-12


def coincidence_povm(proj: np.ndarray, epsilon: float) -> np.ndarray:
    """Dichotomic same-outcome POVM element on the doubled local space.

    P = eps^2 * sum_i Pi_i (x) Pi_i + (1 - eps^2)/d * 1 for one side's
    (d, d, d) projector stack, satisfying 0 <= P <= 1 and tr[P] = d for
    every eps.
    """
    _check_eps(epsilon)
    d = proj.shape[-1]
    pair = np.einsum("iab,icd->acbd", proj, proj).reshape(d * d, d * d)
    return epsilon**2 * pair + (1.0 - epsilon**2) / d * np.eye(d * d)


def _sector_coincidence(r_a2: float, r_b2: float, t2: float, eps_a: float, eps_b: float, d: int) -> float:
    """The closed-form coincidence average of the module docstring from sector lengths."""
    return (
        1.0
        + (r_a2 * eps_a**2 + r_b2 * eps_b**2) / (d + 1)
        + t2 * eps_a**2 * eps_b**2 / (d + 1) ** 2
    ) / d**2


def avg_coincidence_closed(
    rho: StateLike, spec: SpectralDecomposition, eps_a: float, eps_b: float
) -> float:
    """Haar-averaged two-copy coincidence probability (closed form).

    Depends on the state only through its sector lengths; the choice of
    rank-1 eigenprojectors drops out of the average.
    """
    _check_detectors(eps_a, eps_b)
    return _sector_coincidence(*sector_lengths(_state_data(rho, spec.d), spec.d), eps_a, eps_b, spec.d)


def coincidence_probability(
    rho: np.ndarray,
    spec: SpectralDecomposition,
    eps_a: float,
    eps_b: float,
) -> float:
    """Exact two-copy coincidence probability of a (rotated) state.

    Equal to tr[(P_AA' (x) P_BB') rho (x) rho] = sum_ij m_ij^2 with
    m_ij = tr[(P_i^A (x) P_j^B) rho].
    """
    q = joint_populations(rho, spec.vecs_a, spec.vecs_b)
    return float(_coincidence_batch(q[None], eps_a, eps_b)[0])


def _coincidence_batch(q: np.ndarray, eps_a: float, eps_b: float) -> np.ndarray:
    """sum_ij m_ij^2 per sample from the (n, d, d) ideal joint populations q."""
    d = q.shape[-1]
    qa = q.sum(axis=2)
    qb = q.sum(axis=1)
    m = (
        eps_a * eps_b * q
        + eps_a * (1.0 - eps_b) / d * qa[:, :, None]
        + (1.0 - eps_a) * eps_b / d * qb[:, None, :]
        + (1.0 - eps_a) * (1.0 - eps_b) / d**2
    )
    return np.einsum("nij,nij->n", m, m)


def mc_coincidence(
    rho: StateLike,
    spec: SpectralDecomposition,
    eps_a: float,
    eps_b: float,
    n: int,
    cfg: SamplerConfig,
) -> WorkStatistics:
    """Monte-Carlo moments of the coincidence probability over n unitary pairs.

    Both copies share one unitary pair per sample; the protocol has no
    independent-rotations mode because the closed form requires identical
    rotations on the copies.
    """
    _check_detectors(eps_a, eps_b)
    populations = rotated_populations(_state_data(rho, spec.d), spec)

    def sample(ua: np.ndarray, ub: np.ndarray) -> np.ndarray:
        return _coincidence_batch(populations(ua, ub), eps_a, eps_b)

    return summarize(iter_samples(sample, spec.d, n, cfg))[0]


@dataclass(frozen=True)
class CoincidenceReport:
    """Closed-form coincidence and the variance bound.

    ``c_excess`` is the part of the interaction weight beyond h^2 eps^2 in
    g^2 v^2 = (d-1)(h^2 eps^2 + c); only its negative part enters the bound.
    ``slack`` = bound_rhs - cbar_closed, evaluated in its closed form: a sum
    of non-negative terms, so non-negative whenever h^2 > 0, even where the
    bound and the closed form agree to rounding.  A computed difference
    below -``SLACK_ROUNDING`` bound_rhs, which rounding cannot give, is a
    violated bound and is reported as it is, negative.
    """

    d: int
    eps_a: float
    eps_b: float
    cbar_closed: float
    bound_rhs: float
    slack: float
    c_excess: float
    h2_min: float
    variance: float
    t2: float


def _check_h2(h2: float) -> None:
    """The rule of the coincidence bound: the lesser local weight h^2 = min(ha2, hb2) is positive."""
    if not h2 > 0:
        raise ValueError(f"the coincidence bound needs non-zero local Hamiltonians, got h^2 = {h2}")


def coincidence_bound(
    rho: StateLike,
    h: BatteryHamiltonian,
    epsilon: float,
) -> CoincidenceReport:
    """Upper bound on the averaged coincidence from the work variance.

    With symmetric detector error eps and h^2 = min(ha2, hb2) > 0, writing
    g^2 v^2 = (d-1)(h^2 eps^2 + c),

        C <= (1/d^2) [ 1 + (d-1) eps^2 Var/h^2
                         + t^2 eps^2 (|c| - c) / (2 (d+1)^2 h^2) ].

    Subtracting C leaves the slack

        (eps^2/d^2) [ (rA^2 (ha^2 - h^2) + rB^2 (hb^2 - h^2)) / ((d+1) h^2)
                      + t^2 (|c| + c) / (2 (d+1)^2 h^2) ],

    which is what ``slack`` reports, rather than the rounded difference.
    The closed form cannot be negative, so it checks nothing; the computed
    difference does, and where it falls below -``SLACK_ROUNDING`` rhs it is
    reported instead.
    """
    _check_eps(epsilon)
    d = h.d
    h2 = min(h.ha2, h.hb2)
    _check_h2(h2)
    r_a2, r_b2, t2 = sector_lengths(_state_data(rho, d), d)
    var = sector_variance(r_a2, r_b2, t2, h.ha2, h.hb2, h.g2v2, d)
    c = h.g2v2 / (d - 1) - h2 * epsilon**2
    rhs = (
        1.0
        + (d - 1) * epsilon**2 * var / h2
        + t2 * epsilon**2 * (abs(c) - c) / (2 * (d + 1) ** 2 * h2)
    ) / d**2
    lhs = _sector_coincidence(r_a2, r_b2, t2, epsilon, epsilon, d)
    slack = (
        epsilon**2
        / d**2
        * ((r_a2 * (h.ha2 - h2) + r_b2 * (h.hb2 - h2)) / ((d + 1) * h2) + t2 * (abs(c) + c) / (2 * (d + 1) ** 2 * h2))
    )
    if rhs - lhs < -SLACK_ROUNDING * rhs:
        slack = rhs - lhs
    return CoincidenceReport(
        d=d,
        eps_a=epsilon,
        eps_b=epsilon,
        cbar_closed=lhs,
        bound_rhs=rhs,
        slack=slack,
        c_excess=c,
        h2_min=h2,
        variance=var,
        t2=t2,
    )
