"""Construction and validation of scaling sequences.

Constant scalings admit a sharp threshold: q is a valid constant scaling for
a finite chain sequence of N - 1 terms exactly when q exceeds the squared
largest zero of the symmetric (c = 0) recurrence member W_N built from it.
For conceptually infinite sequences the threshold is the limit of those
squared zeros and validity holds at the threshold itself (non-strict).

The ultraspherical family supplies the standard dominants: for lam >= 0 the
extremal constant of Ismail and Li, for -1/2 < lam < 0 a rescaled Legendre
(lam = -1/2) chain sequence that dominates every other member of the family.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .chainseq import (ChainSeq, ScalingSeq, UltrasphericalRule, chain_failure_index,
                       ismail_li_constant, make_scaling)
from .errors import (BoundaryCaseError, InputError, NonConvergenceError,
                     NotChainSequenceError)
# zeros_W stays importable from here: perfbench's tracer wraps this binding
from .recurrence import _bisection_steps, _count_above, zeros_W  # noqa: F401
from .transforms import CdParams, VerblunskySeq, cd_from_verblunsky

# Relative half-width of the band around the constant-scaling threshold in
# which float arithmetic cannot decide strict-versus-nonstrict membership.
BOUNDARY_BAND = 1e-12

_STURM_HORIZON_CAP = 2 ** 14


def _symmetric_cd(d: ChainSeq) -> CdParams:
    """c = 0 member over ``d``; its W_n are polynomials in x."""
    return CdParams.from_sequences(np.zeros(len(d.values) + 1), d)


def constant_scaling_threshold(d: ChainSeq, xtol: float = 1e-12) -> float:
    """Squared largest zero of the symmetric W_N over the N - 1 terms of ``d``.

    A constant q is a scaling sequence for ``d`` iff q > threshold (finite,
    strict); q must also satisfy q <= 1.
    """
    N = len(d.values) + 1
    if N < 2:
        raise InputError("threshold needs at least one chain-sequence term")
    cd = _symmetric_cd(d)
    # the top zero alone, by the same bisection steps as zeros_W
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


def _largest_zero_sturm(d: np.ndarray, xtol: float) -> float:
    """Largest zero of the symmetric W_N via Sturm-count bisection on [0, 1].

    With c = 0 the W_n are the characteristic polynomials of the Jacobi
    matrix with zero diagonal and off-diagonal entries sqrt(d), so only the
    top zero is bisected, on Python floats.  A zero at or above x = 1 means
    ``d`` is not a chain sequence at this length; that raises
    :class:`NotChainSequenceError` where the bisection would saturate at 1.
    """
    n = len(d) + 1
    c = [0.0] * n
    d = d.tolist()
    if _count_above(c, d, n, 1.0) > 0:
        bad = chain_failure_index(ChainSeq.from_values(d)) or n - 1
        raise NotChainSequenceError(
            bad, f"d is not a positive chain sequence at n={bad}: the symmetric "
                 f"W_{n} has a zero at or above x = 1")
    lo, hi = 0.0, 1.0
    while hi - lo > xtol:
        mid = 0.5 * (lo + hi)
        if _count_above(c, d, n, mid) >= 1:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def constant_scaling_threshold_infinite(d: ChainSeq, tol: float = 1e-6) -> float:
    """Limit of the squared largest symmetric zeros at growing horizons.

    A constant q is a scaling sequence for the infinite ``d`` iff
    q >= threshold (non-strict at the limit).  The limit is approached from
    below, doubling the horizon until the move is under ``tol``.
    """
    if d.kind != "truncated-infinite":
        raise InputError("infinite threshold needs a rule-backed chain sequence")
    if tol <= 0:
        raise InputError("tol must be positive")
    xtol = min(tol / 100.0, 1e-10)
    horizon = 64
    prev = _largest_zero_sturm(d.prefix(horizon - 1), xtol) ** 2
    while True:
        horizon *= 2
        if horizon > _STURM_HORIZON_CAP:
            raise NonConvergenceError(
                f"threshold extrapolation did not stabilize to {tol:g} "
                f"within horizon {_STURM_HORIZON_CAP}")
        cur = _largest_zero_sturm(d.prefix(horizon - 1), xtol) ** 2
        if abs(cur - prev) < tol:
            return cur
        prev = cur


def constant_scaling_verdict(d: ChainSeq, q: float, tol: float = 1e-12) -> str:
    """Classify a constant ``q`` against the threshold: valid/invalid/boundary.

    Values within ``BOUNDARY_BAND`` (relatively) of the threshold are flagged
    ``boundary`` since strictness there is float-undecidable.
    """
    if d.kind == "truncated-infinite":
        thr = constant_scaling_threshold_infinite(d, tol=max(tol, 1e-8))
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


def default_scaling_for(alpha: VerblunskySeq, N: int,
                        cd: Optional[CdParams] = None) -> ScalingSeq:
    """Per-family dominant chain sequence turned into a scaling for degree N.

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
    d = cd.d.values[:N - 1]
    family = alpha.family
    if family == "geronimus":
        dhat = np.full(N - 1, 0.25)
    elif family == "lambda-eta":
        lam = alpha.params["lam"]
        if lam >= 0.0:
            dhat = np.full(N - 1, ismail_li_constant(N))
        else:
            dhat = legendre_dominant(N).values
    elif family == "alternating":
        b1 = alpha.params["b1"]
        b2 = alpha.params["b2"]
        if b1 != b2 and not (abs(b1) >= 0.5 and abs(b2) >= 0.5 and b1 * b2 > 0.0):
            raise InputError(
                "no default scaling for alternating family with b1 != b2 outside "
                "|b1|, |b2| >= 1/2 and b1*b2 > 0; supply q explicitly")
        dhat = np.full(N - 1, 0.25)
    else:
        raise InputError(f"no default scaling for family {family!r}; supply q")
    return make_scaling(ChainSeq.from_values(d), d / dhat)
