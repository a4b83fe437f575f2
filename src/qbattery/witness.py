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
from typing import NamedTuple

import numpy as np

from .battery import BatteryHamiltonian
from .linalg import StateLike, _lengths_and_reductions, partial_transpose_min_eig, purity
from .workstats import _state_data, sector_variance

__all__ = [
    "DETECTION_MARGIN",
    "WitnessReport",
    "PureStateReport",
    "schmidt_t2_cap",
    "work_variance_bound",
    "WitnessStack",
    "detect_schmidt_number",
    "detect_schmidt_number_stack",
]

#: Relative margin for strict-inequality violation checks, floored at an
#: absolute 1e-9 so boundary round-off never produces a false positive.
DETECTION_MARGIN = 1e-9
#: Tolerance on purity and on ha2 = hb2 (relative) for the pure-state form.
_PURE_TOL = 1e-9


def _violates(value, cap):
    """value > cap beyond the detection margin; elementwise on arrays."""
    with np.errstate(invalid="ignore"):  # inf - inf at an overflowed variance is nan, which violates no cap
        return value - cap > DETECTION_MARGIN * np.maximum(1.0, np.maximum(np.abs(value), np.abs(cap)))


def _detected_level(value, caps: np.ndarray) -> np.ndarray:
    """1 + the largest k whose cap ``value`` violates (1 if none), with caps[..., k - 1] the cap at k.

    The rule every route of the hierarchy certifies by; ``value`` has the
    batch shape of ``caps`` without its last axis.
    """
    ks = np.arange(1, caps.shape[-1] + 1)
    return 1 + np.max(np.where(_violates(np.asarray(value)[..., None], caps), ks, 0), axis=-1)


def schmidt_t2_cap(k, d: int, r_a2, r_b2):
    """Largest t^2 compatible with Schmidt number k at given local lengths.

    Broadcasts over array-valued k and lengths.
    """
    if np.any((np.asarray(k) < 1) | (np.asarray(k) > d)):
        raise ValueError(f"k must lie in 1..{d}, got {k}")
    if np.any(np.asarray(r_a2) < 0) or np.any(np.asarray(r_b2) < 0):
        raise ValueError("squared sector lengths must be non-negative")
    kd = k * d
    return kd - 1 + (kd - 2) / 2 * (r_a2 + r_b2) - kd / 2 * abs(r_a2 - r_b2)


def work_variance_bound(k, d: int, r_a2, r_b2, ha2: float, hb2: float, g2v2: float):
    """Work-variance cap for states of Schmidt number at most k (broadcasts like ``schmidt_t2_cap``)."""
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


class WitnessStack(NamedTuple):
    """Both detection routes and the PPT reference for a stack of states, one entry per state.

    ``thresholds[..., k - 1]`` is the variance cap at Schmidt number k.
    """

    variance: np.ndarray
    thresholds: np.ndarray
    detected_sn_lower_bound: np.ndarray
    purity_route_sn: np.ndarray
    ppt_min_eig: np.ndarray
    purity: np.ndarray
    r_a2: np.ndarray
    r_b2: np.ndarray
    t2: np.ndarray


def detect_schmidt_number_stack(states: np.ndarray, d: int, ha2, hb2, g2v2) -> WitnessStack:
    """``detect_schmidt_number``'s hierarchy on a stack (..., d^2, d^2) of density matrices.

    ``ha2``, ``hb2`` and ``g2v2`` are the battery's weights (the
    ``BatteryHamiltonian`` fields), scalars or arrays that broadcast over the
    stack's leading axes, so one call serves states of several batteries.
    The rows are taken as valid states and are not re-validated (a convex
    mixture of validated states, as ``thermal_mixture_stack`` builds, needs
    no check).  The purity route reads the marginals that the sector lengths
    are formed from.  Every entry is bitwise what the per-state call reports,
    which runs this on a stack of one.  Raises ``RuntimeError`` on the first state
    whose two routes disagree where the variance route resolves a k-step.
    """
    (r_a2, r_b2, t2), reductions = _lengths_and_reductions(states, d)
    var = sector_variance(r_a2, r_b2, t2, ha2, hb2, g2v2, d)
    ks = np.arange(1, d + 1)
    weights = (np.asarray(w)[..., None] for w in (ha2, hb2, g2v2))
    thresholds = work_variance_bound(ks, d, r_a2[..., None], r_b2[..., None], *weights)
    detected = _detected_level(var, thresholds)

    pur = purity(states)
    min_marginal = np.minimum(*map(purity, reductions))
    purity_sn = _detected_level(pur, ks * min_marginal[..., None])

    k_step = g2v2 * d / (d * d - 1) ** 2
    disagree = (k_step > DETECTION_MARGIN * np.maximum(1.0, np.abs(var))) & (purity_sn != detected)
    if np.any(disagree):
        i = np.flatnonzero(disagree)[0]
        raise RuntimeError(
            f"witness routes disagree: variance route {detected.flat[i]}, purity route {purity_sn.flat[i]}"
        )
    return WitnessStack(
        variance=var,
        thresholds=thresholds,
        detected_sn_lower_bound=detected,
        purity_route_sn=purity_sn,
        ppt_min_eig=partial_transpose_min_eig(states, d),
        purity=pur,
        r_a2=r_a2,
        r_b2=r_b2,
        t2=t2,
    )


def detect_schmidt_number(rho: StateLike, h: BatteryHamiltonian) -> WitnessReport:
    """Evaluate the variance-bound hierarchy and report the certified level.

    The purity-form criterion (tr[rho^2] vs k * min marginal purity) is
    evaluated as a second route; with a nonzero interaction weight it is the
    same inequality rewritten and the two routes must agree.  Agreement is
    enforced only where the variance route can resolve one k-step: the caps
    of consecutive k differ by at least g^2 v^2 d / (d^2 - 1)^2, and below the
    detection margin (in particular at g^2 v^2 = 0) only the purity route
    can detect.  The evaluation is ``detect_schmidt_number_stack`` on a
    stack of one.
    """
    d = h.d
    det = detect_schmidt_number_stack(_state_data(rho, d)[None], d, h.ha2, h.hb2, h.g2v2)
    pur = float(det.purity[0])
    branch = None
    if abs(pur - 1.0) <= _PURE_TOL and abs(h.ha2 - h.hb2) <= _PURE_TOL * max(1.0, h.ha2, h.hb2):
        branch = _pure_state_form(float(det.t2[0]), h)

    return WitnessReport(
        d=d,
        variance_used=float(det.variance[0]),
        thresholds=tuple(zip(range(1, d + 1), det.thresholds[0].tolist())),
        detected_sn_lower_bound=int(det.detected_sn_lower_bound[0]),
        purity_route_sn=int(det.purity_route_sn[0]),
        ppt_min_eig=float(det.ppt_min_eig[0]),
        r_a2=float(det.r_a2[0]),
        r_b2=float(det.r_b2[0]),
        t2=float(det.t2[0]),
        ha2=h.ha2,
        hb2=h.hb2,
        g2v2=h.g2v2,
        pure_state_branch=branch,
    )


def _pure_state_form(t2: float, h: BatteryHamiltonian) -> PureStateReport:
    """Pure-state criterion t^2 <= d^2 + 1 - 2d/k of a pure state of correlation length ``t2``.

    On symmetric local weights ha2 = hb2 = h2 (checked by the caller) the variance is
    h2 + g_term * t^2 / (d^2 - 1) with g_term = g^2 v^2/(d^2-1) - h2.
    """
    d = h.d
    h2 = (h.ha2 + h.hb2) / 2
    dd = d * d - 1
    g_term = h.g2v2 / dd - h2
    var = h2 + g_term * t2 / dd
    caps = tuple((k, d * d + 1 - 2 * d / k) for k in range(1, d + 1))
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
        detected_sn_lower_bound=int(_detected_level(t2, np.array([cap for _, cap in caps]))),
        bound_direction=direction,
    )
