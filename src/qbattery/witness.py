"""Schmidt-number witnesses from work fluctuations.

A state of Schmidt number k obeys tr[rho^2] <= k * min(tr[rho_A^2],
tr[rho_B^2]), which in sector lengths reads t^2 <= s(k), with

    s(k) = k d - 1 + (k d - 2)/2 (rA^2 + rB^2) - k d / 2 |rA^2 - rB^2|.

Plugging this cap into the closed-form work variance yields a hierarchy of
variance bounds, one per k; exceeding the bound at k certifies Schmidt
number at least k + 1.  The PPT minimum eigenvalue is reported alongside as
an independent (entangled / not-entangled only) reference and never merged
into the detected Schmidt number.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .battery import BatteryHamiltonian
from .linalg import StateLike, as_density, partial_trace, partial_transpose_min_eig, purity, sector_lengths
from .workstats import sector_variance

__all__ = [
    "DETECTION_MARGIN",
    "WitnessReport",
    "PureStateReport",
    "schmidt_t2_cap",
    "work_variance_bound",
    "detect_schmidt_number",
    "pure_state_report",
]

#: Relative margin for strict-inequality violation checks, floored at an
#: absolute 1e-9 so boundary round-off never produces a false positive.
DETECTION_MARGIN = 1e-9
#: Tolerance on purity and on ha2 = hb2 (relative) for the pure-state form.
_PURE_TOL = 1e-9


def _violates(value: float, cap: float) -> bool:
    return value - cap > DETECTION_MARGIN * max(1.0, abs(value), abs(cap))


def schmidt_t2_cap(k: int, d: int, r_a2: float, r_b2: float) -> float:
    """Largest t^2 compatible with Schmidt number k at given local lengths."""
    if not 1 <= k <= d:
        raise ValueError(f"k must lie in 1..{d}, got {k}")
    if r_a2 < 0 or r_b2 < 0:
        raise ValueError("squared sector lengths must be non-negative")
    kd = k * d
    return kd - 1 + (kd - 2) / 2 * (r_a2 + r_b2) - kd / 2 * abs(r_a2 - r_b2)


def work_variance_bound(
    k: int, d: int, r_a2: float, r_b2: float, ha2: float, hb2: float, g2v2: float
) -> float:
    """Work-variance cap for states of Schmidt number at most k."""
    return sector_variance(r_a2, r_b2, schmidt_t2_cap(k, d, r_a2, r_b2), ha2, hb2, g2v2, d)


@dataclass(frozen=True)
class PureStateReport:
    """Pure-state criterion in terms of t^2 with the interaction-weight split.

    ``g_term`` = g^2 v^2/(d^2-1) - h^2 controls the direction: for positive
    values the variance caps from above (stronger fluctuations certify more
    entanglement); for negative values the bound flips and weaker
    fluctuations would certify more.
    """

    g_term: float
    h2: float
    variance: float
    t2: float
    t2_caps: tuple[tuple[int, float], ...]
    detected_sn_lower_bound: int
    bound_direction: str  # 'upper' | 'lower' | 'flat'


@dataclass(frozen=True)
class WitnessReport:
    """Variance value, per-k bounds, detected Schmidt number, PPT reference."""

    d: int
    variance_used: float
    thresholds: tuple[tuple[int, float], ...]
    detected_sn_lower_bound: int
    purity_route_sn: int
    ppt_min_eig: float
    r_a2: float
    r_b2: float
    t2: float
    ha2: float
    hb2: float
    g2v2: float
    pure_state_branch: PureStateReport | None = None


def detect_schmidt_number(rho: StateLike, h: BatteryHamiltonian) -> WitnessReport:
    """Evaluate the variance-bound hierarchy and report the certified level.

    The purity-form criterion (tr[rho^2] vs k * min marginal purity) is
    evaluated as a second route; with a nonzero interaction weight it is the
    same inequality rewritten and the two routes must agree.  Agreement is
    enforced only where the variance route can resolve one k-step: the caps
    of consecutive k differ by at least g^2 v^2 d / (d^2 - 1)^2, and below the
    detection margin (in particular at g^2 v^2 = 0) only the purity route
    can detect.
    """
    rho = as_density(rho)
    d = h.d
    if rho.dim != d * d:
        raise ValueError(f"state dimension {rho.dim} does not match battery d^2 = {d * d}")
    r_a2, r_b2, t2 = sector_lengths(rho, d)
    var = sector_variance(r_a2, r_b2, t2, h.ha2, h.hb2, h.g2v2, d)
    thresholds = tuple((k, work_variance_bound(k, d, r_a2, r_b2, h.ha2, h.hb2, h.g2v2)) for k in range(1, d + 1))
    violated = [k for k, cap in thresholds if _violates(var, cap)]
    detected = 1 + max(violated, default=0)

    pur = purity(rho)
    min_marginal = min(purity(partial_trace(rho.data, "A", d)), purity(partial_trace(rho.data, "B", d)))
    purity_violated = [k for k in range(1, d + 1) if _violates(pur, k * min_marginal)]
    purity_sn = 1 + max(purity_violated, default=0)

    k_step = h.g2v2 * d / (d * d - 1) ** 2
    if k_step > DETECTION_MARGIN * max(1.0, abs(var)) and purity_sn != detected:
        raise RuntimeError(
            f"witness routes disagree: variance route {detected}, purity route {purity_sn}"
        )

    branch = None
    if abs(pur - 1.0) <= _PURE_TOL and abs(h.ha2 - h.hb2) <= _PURE_TOL * max(1.0, h.ha2, h.hb2):
        branch = pure_state_report(rho, h)

    return WitnessReport(
        d=d,
        variance_used=var,
        thresholds=thresholds,
        detected_sn_lower_bound=detected,
        purity_route_sn=purity_sn,
        ppt_min_eig=partial_transpose_min_eig(rho, d),
        r_a2=r_a2,
        r_b2=r_b2,
        t2=t2,
        ha2=h.ha2,
        hb2=h.hb2,
        g2v2=h.g2v2,
        pure_state_branch=branch,
    )


def pure_state_report(rho: StateLike, h: BatteryHamiltonian) -> PureStateReport:
    """Pure-state criterion t^2 <= d^2 + 1 - 2d/k with the variance rewrite.

    Requires a pure input and symmetric local weights ha2 = hb2 = h2 (within
    ``_PURE_TOL``); then the variance collapses to h2 + g_term * t^2 / (d^2 - 1)
    with g_term = g^2 v^2/(d^2-1) - h2.
    """
    rho = as_density(rho)
    d = h.d
    pur = purity(rho)
    if abs(pur - 1.0) > _PURE_TOL:
        raise ValueError(f"state must be pure within {_PURE_TOL}, got purity {pur}")
    if abs(h.ha2 - h.hb2) > _PURE_TOL * max(1.0, h.ha2, h.hb2):
        raise ValueError("local weights must be symmetric (ha2 = hb2) for the pure-state form")
    h2 = (h.ha2 + h.hb2) / 2
    t2 = sector_lengths(rho, d)[2]
    dd = d * d - 1
    g_term = h.g2v2 / dd - h2
    var = h2 + g_term * t2 / dd
    caps = tuple((k, d * d + 1 - 2 * d / k) for k in range(1, d + 1))
    violated = [k for k, cap in caps if _violates(t2, cap)]
    if g_term > 0:
        direction = "upper"
    elif g_term < 0:
        direction = "lower"
    else:
        direction = "flat"
    return PureStateReport(
        g_term=g_term,
        h2=h2,
        variance=var,
        t2=t2,
        t2_caps=caps,
        detected_sn_lower_bound=1 + max(violated, default=0),
        bound_direction=direction,
    )
