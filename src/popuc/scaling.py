"""Construction and validation of scaling sequences.

Constant scalings admit a sharp threshold: q is a valid constant scaling for
a finite chain sequence of N - 1 terms exactly when q exceeds the squared
largest zero of the symmetric (c = 0) recurrence member W_N built from it.
For conceptually infinite sequences the threshold is the limit of those
squared zeros and validity holds at the threshold itself (non-strict): 4 d
for a constant d <= 1/4, and 1 for the ultraspherical sequences, whose terms
tend to 1/4.

The ultraspherical family supplies the standard dominants: for lam >= 0 the
extremal constant of Ismail and Li, for -1/2 < lam < 0 a rescaled Legendre
(lam = -1/2) chain sequence that dominates every other member of the family.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .chainseq import ChainSeq, ScalingSeq, UltrasphericalRule, ismail_li_constant
from .errors import BoundaryCaseError, InputError, NonConvergenceError
# zeros_W stays importable from here: perfbench's tracer wraps this binding
from .recurrence import _bisection_steps, _count_above, zeros_W  # noqa: F401
from .transforms import CdParams, VerblunskySeq, cd_from_verblunsky

# Relative half-width of the band around the constant-scaling threshold in
# which float arithmetic cannot decide strict-versus-nonstrict membership.
BOUNDARY_BAND = 1e-12

_STURM_HORIZON_CAP = 2 ** 14


def constant_scaling_threshold(d: ChainSeq, xtol: float = 1e-12) -> float:
    """Squared largest zero of the symmetric W_N over the N - 1 terms of ``d``.

    A constant q is a scaling sequence for ``d`` iff q > threshold (finite,
    strict); q must also satisfy q <= 1.
    """
    N = len(d.values) + 1
    if N < 2:
        raise InputError("threshold needs at least one chain-sequence term")
    # the top zero alone of the c = 0 member over d, whose W_n are
    # polynomials in x, by the same bisection steps as zeros_W
    cd = CdParams.from_sequences(np.zeros(N), d)
    c, dl = cd.c.tolist(), cd.d.values.tolist()
    lo, hi = -1.0, 1.0
    for _ in range(_bisection_steps(xtol)):
        mid = 0.5 * (lo + hi)
        if _count_above(c, dl, N, mid) >= 1:
            lo = mid
        else:
            hi = mid
    x = 0.5 * (lo + hi)
    if x >= 1.0:
        raise BoundaryCaseError(
            1, f"zero 1 of degree {N} is not resolvable in double precision: "
               "it rounds to x = +-1 or ties its neighbour")
    return x ** 2


def constant_scaling_threshold_infinite(d: ChainSeq, tol: float = 1e-6) -> float:
    """Limit of the squared largest symmetric zeros at growing horizons.

    A constant q is a scaling sequence for the infinite ``d`` iff
    q >= threshold (non-strict at the limit).  A rule with a closed form
    (``ChainRule.threshold_closed``) gives the limit exactly and ``tol`` is
    only checked.  Otherwise the finite thresholds of doubling prefixes are
    extrapolated until they move by less than ``tol``; they increase to the
    limit, so that value is only a lower bound on it.
    """
    if d.kind != "truncated-infinite":
        raise InputError("infinite threshold needs a rule-backed chain sequence")
    if not 0 < tol < math.inf:
        raise InputError(f"tol must be positive and finite, got {tol}")
    closed = d.rule.threshold_closed()
    if closed is not None:
        return closed
    prev, horizon = None, 64
    while horizon <= _STURM_HORIZON_CAP:
        cur = constant_scaling_threshold(ChainSeq.from_values(d.prefix(horizon - 1)))
        if prev is not None and abs(cur - prev) < tol:
            return cur
        prev, horizon = cur, 2 * horizon
    raise NonConvergenceError(f"threshold extrapolation did not stabilize to {tol:g} "
                              f"within horizon {_STURM_HORIZON_CAP}")


def constant_scaling_verdict(d: ChainSeq, q: float, tol: float = 1e-12) -> str:
    """Classify a constant ``q`` against the threshold: valid/invalid/boundary.

    Values within ``BOUNDARY_BAND`` (relatively) of the threshold are flagged
    ``boundary`` since strictness there is float-undecidable.  For a
    rule-backed ``d`` without a closed-form threshold the extrapolated value
    is only a lower bound on the limit, so a ``valid`` just above it may not
    be.
    """
    if d.kind == "truncated-infinite":
        thr = constant_scaling_threshold_infinite(d, tol=tol)
        strict = False
    else:
        thr = constant_scaling_threshold(d)
        strict = True
    if abs(q - thr) <= BOUNDARY_BAND * max(thr, 1.0):
        return "boundary"
    if q > 1.0 or q <= 0.0:
        return "invalid"
    if q > thr or (not strict and q >= thr):
        return "valid"
    return "invalid"


def legendre_dominant(N: int) -> ChainSeq:
    """Rescaled Legendre chain sequence dominating every ultraspherical one.

    Elements d_{n+1} = (n^2 / (4 n^2 - 1)) / cos^2(pi / (2 N)) for
    n = 1 .. N - 1; the rescaling constant exceeds the squared largest zero
    of the degree-N Legendre polynomial, so this is a valid finite chain
    sequence, and it dominates the lam > -1/2 family termwise.
    """
    if N < 2:
        raise InputError(f"N must be >= 2, got {N}")
    base = UltrasphericalRule(-0.5).terms(N - 1)
    scale = math.cos(math.pi / (2.0 * N)) ** 2
    return ChainSeq.from_values(base / scale)


def _dominant_scaling(d: np.ndarray, dominant: str, N: int) -> ScalingSeq:
    """Scaling q = d / dhat over the first N - 1 terms of ``d``.

    ``dominant`` names dhat at degree N: ``ismail-li`` (the extremal
    constant), ``legendre`` (the rescaled Legendre dominant) or ``quarter``
    (the constant 1/4), each a chain sequence by theorem.  d/q is not walked:
    q <= 1 holds exactly when d <= dhat (d / dhat rounds above 1 if d > dhat),
    which makes d a chain sequence by Wall's comparison test and q a scaling
    for it, d/q being dhat up to the rounding of q.
    """
    if dominant == "ismail-li":
        dhat = ismail_li_constant(N)
    elif dominant == "legendre":
        dhat = legendre_dominant(N).values
    else:
        dhat = 0.25
    d = d[:N - 1]
    return ScalingSeq(d / dhat, ChainSeq.from_values(d))


def default_scaling_for(alpha: VerblunskySeq, N: int,
                        cd: Optional[CdParams] = None) -> ScalingSeq:
    """Per-family dominant turned into a scaling for degree N, with no walk of d/q.

    geronimus      -> constant dominant 1/4 (q = 4 d, constant)
    lambda-eta     -> Ismail-Li constant for lam >= 0, rescaled Legendre
                      dominant for -1/2 < lam < 0
    alternating    -> dominant 1/4; with b1 != b2 only inside the region
                      |b1|, |b2| >= 1/2 with b1 b2 > 0 where d stays below 1/4
    """
    if N < 2:
        raise InputError(f"N must be >= 2, got {N}")
    if cd is None:
        cd = cd_from_verblunsky(alpha, n_terms=N)
    family = alpha.family
    if family == "geronimus":
        dominant = "quarter"
    elif family == "lambda-eta":
        dominant = "ismail-li" if alpha.params["lam"] >= 0.0 else "legendre"
    elif family == "alternating":
        b1 = alpha.params["b1"]
        b2 = alpha.params["b2"]
        if b1 != b2 and not (abs(b1) >= 0.5 and abs(b2) >= 0.5 and b1 * b2 > 0.0):
            raise InputError(
                "no default scaling for alternating family with b1 != b2 outside "
                "|b1|, |b2| >= 1/2 and b1*b2 > 0; supply q explicitly")
        dominant = "quarter"
    else:
        raise InputError(f"no default scaling for family {family!r}; supply q")
    return _dominant_scaling(cd.d.values, dominant, N)
