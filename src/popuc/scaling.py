"""Construction and validation of scaling sequences.

Constant scalings admit a sharp threshold: q is a valid constant scaling for
a finite chain sequence of N - 1 terms exactly when q exceeds the squared
largest zero of the symmetric (c = 0) recurrence member W_N built from it.
For an infinite constant or ultraspherical sequence the threshold is the
limit of those squared zeros, known in closed form, and validity holds at
the threshold itself (non-strict): 4 d for a constant d <= 1/4, and 1 for
the ultraspherical sequences, whose terms tend to 1/4.

The ultraspherical family supplies the standard dominants: for lam >= 0 the
extremal constant of Ismail and Li, for -1/2 < lam < 0 a rescaled Legendre
(lam = -1/2) chain sequence that dominates every other member of the family.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .chainseq import ScalingSeq, chain_failure_index, ismail_li_constant
from .errors import InputError, NotChainSequenceError
# zeros_W stays importable from here: perfbench's tracer wraps this binding
from .recurrence import (_BISECTION_STEPS, _count_above, _unresolvable,  # noqa: F401
                         zeros_W)
from .transforms import CdParams, VerblunskySeq, cd_from_verblunsky


def constant_scaling_threshold(d: np.ndarray) -> float:
    """Squared largest zero of the symmetric W_N over the N - 1 terms of ``d``.

    A constant q is a scaling sequence for ``d`` iff q > threshold (finite,
    strict); q must also satisfy q <= 1.
    """
    N = len(d) + 1
    if N < 2:
        raise InputError("threshold needs at least one chain-sequence term")
    bad = chain_failure_index(d)
    if bad is not None:
        raise NotChainSequenceError(
            bad, f"d is not a positive chain sequence at n={bad}")
    # the top zero alone of the c = 0 member over d, whose W_n are
    # polynomials in x, by the same bisection steps as zeros_W
    c, dl = [0.0] * N, np.asarray(d, dtype=float).tolist()
    lo, hi = -1.0, 1.0
    for _ in range(_BISECTION_STEPS):
        mid = 0.5 * (lo + hi)
        if _count_above(c, dl, N, mid) >= 1:
            lo = mid
        else:
            hi = mid
    x = 0.5 * (lo + hi)
    if x >= 1.0:
        raise _unresolvable(1, N)
    return x ** 2


def constant_scaling_threshold_infinite(d: Optional[float]) -> float:
    """Limit of the squared largest symmetric zeros at growing horizons, for
    the constant chain sequence ``d`` or, when ``d`` is None, for every
    ultraspherical one.

    A constant q is a scaling sequence for the infinite sequence iff
    q >= threshold (non-strict at the limit).  The finite thresholds of a
    constant d are 4 d cos^2(pi / (N + 1)), which increase to 4 d.  The
    ultraspherical d_n tend to 1/4, so the essential spectrum of the
    symmetric Jacobi matrix ends at 1, and the chain property leaves no
    eigenvalue above it (Chihara 1978; Ismail & Li 1992).
    """
    if d is None:
        return 1.0
    if not 0 < d < math.inf:
        raise InputError(f"chain sequence elements must be positive and finite, got {d}")
    if d > 0.25:
        raise InputError(f"constant d = {float(d)!r} > 1/4 is not an infinite "
                         "positive chain sequence")
    return 4.0 * d


def legendre_dominant(N: int) -> np.ndarray:
    """Rescaled Legendre chain sequence dominating every ultraspherical one.

    Elements d_{n+1} = (n^2 / (4 n^2 - 1)) / cos^2(pi / (2 N)) for
    n = 1 .. N - 1; the rescaling constant exceeds the squared largest zero
    of the degree-N Legendre polynomial, so this is a valid finite chain
    sequence, and it dominates the lam > -1/2 family termwise.
    """
    if N < 2:
        raise InputError(f"N must be >= 2, got {N}")
    # the ultraspherical terms at lam = -1/2, rounded as the general formula
    # n (n + 2 lam + 1) / (4 (n + lam)(n + lam + 1)) rounds them
    n = np.arange(1, N, dtype=float)
    base = 0.25 * n * n / ((n - 0.5) * (n + 0.5))
    scale = math.cos(math.pi / (2.0 * N)) ** 2
    return base / scale


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
        dhat = legendre_dominant(N)
    else:
        dhat = 0.25
    d = d[:N - 1]
    return ScalingSeq(d / dhat, d)


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
    return _dominant_scaling(cd.d, dominant, N)
