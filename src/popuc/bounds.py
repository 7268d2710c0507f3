"""Closed-form enclosures for extreme zeros, support arcs and gap certificates.

For a scaling sequence {q_{n+1}} of the chain sequence {d_{n+1}}, the pair
(c_n, c_{n+1}, q_{n+1}) feeds the quadratic

    (1 - q) u^2 - (a + b) u + (a b - q) = 0,

whose roots u^{(-)} <= u^{(+)} (with the convention u^{(+-)} = +-inf at
q = 1 when +-(a + b) >= 0) bound the zeros of the transplanted recurrence
members in the cotangent variable u = cot(theta / 2).  Mapping through
x = u / sqrt(1 + u^2) and taking extrema over n yields an open interval
(A_N, B_N) containing every zero of W_N, hence an open arc containing every
zero of R_N and, in the limit, the support of the mass-free family member.

Method tags follow the operation names: ``thm44`` is the pairwise quadratic
bound, ``thm46`` its single-coefficient weakening, ``cor45``/``cor47`` the
trivial-scaling specializations of each.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import count
from typing import Optional

import numpy as np

from .chainseq import (ChainSeq, ScalingSeq, _chunks, _forward_params, _frozen,
                       _require_positive, chain_failure_index, make_scaling)
from .errors import BoundaryCaseError, InputError
from .transforms import TWO_PI, CdParams, VerblunskySeq, _rotated_blocks
# gap_certificate streams what rotated_cd computes whole; perfbench's tracer
# still wraps the name here (tracer.BY_VALUE)
from .transforms import rotated_cd  # noqa: F401

# A support-arc extremum counts as stabilized when halving the horizon moves
# it by less than this.
STABILIZATION_TOL = 1e-8


@dataclass(frozen=True)
class Arc:
    """Circular arc from theta1 to theta2 (radians), open or closed.

    theta1 may be negative and theta2 may exceed 2*pi on input; normalization
    shifts the start into [0, 2*pi) keeping the width in (0, 2*pi].
    """

    theta1: float
    theta2: float
    closed: bool = True

    def __post_init__(self):
        if not 0.0 < self.theta2 - self.theta1 <= TWO_PI:
            raise InputError(
                f"arc width must lie in (0, 2*pi], got {self.theta2 - self.theta1}")

    @classmethod
    def normalized(cls, theta1: float, theta2: float, closed: bool = True) -> "Arc":
        width = theta2 - theta1
        start = theta1 % TWO_PI
        return cls(start, start + width, closed)

    @property
    def width(self) -> float:
        return self.theta2 - self.theta1


def quadratic_roots(a: float, b: float, q: float) -> tuple:
    """Roots u^(-) <= u^(+) of (1 - q) u^2 - (a + b) u + (a b - q) for q in
    [0, 1], as the pair (u^(-), u^(+)).

    For q < 1 the discriminant is nonnegative and both roots are real; at
    q = 1 the leading coefficient vanishes and the unbounded root is reported
    as a signed infinity.
    """
    if not 0.0 <= q <= 1.0:
        raise InputError(f"q must lie in [0, 1], got {q}")
    s = a + b
    if q == 1.0:
        if s > 0.0:
            return (a * b - 1.0) / s, math.inf
        if s < 0.0:
            return -math.inf, (a * b - 1.0) / s
        return -math.inf, math.inf
    lead = 1.0 - q
    prod = a * b - q
    disc = s * s - 4.0 * lead * prod
    disc = max(disc, 0.0)  # nonnegative analytically; clip rounding dust
    root = math.sqrt(disc)
    if s >= 0.0:
        big = (s + root) / (2.0 * lead)
    else:
        big = (s - root) / (2.0 * lead)
    if big == 0.0:  # s == 0 and a b == q: double root at the origin
        return 0.0, 0.0
    other = prod / (lead * big)
    return (other, big) if other <= big else (big, other)


def _x_from_u(u: float) -> float:
    """cot(theta/2) -> cos(theta/2), sending +-inf to +-1."""
    if math.isinf(u):
        return 1.0 if u > 0 else -1.0
    return u / math.hypot(1.0, u)


def _x_from_quarter(u: float) -> float:
    """cot(theta/4) = u  ->  cos(theta/2) = (u^2 - 1) / (u^2 + 1), which is 1
    once u^2 overflows."""
    uu = u * u
    if math.isinf(uu):
        return 1.0
    return (uu - 1.0) / (uu + 1.0)


@dataclass(frozen=True)
class Enclosure:
    """Open interval (A, B) containing the zeros of W_N.

    ``argmin_index`` / ``argmax_index`` report the n attaining the extremum
    (smallest such n on ties), matching the bracketed annotations used when
    tabulating the bounds; one-sided methods leave the trivial side None.
    """

    A: float
    B: float
    argmin_index: Optional[int]
    argmax_index: Optional[int]
    method: str

    def __post_init__(self):
        if not (-1.0 <= self.A < self.B <= 1.0):
            raise InputError(f"invalid enclosure ({self.A}, {self.B})")

    @property
    def theta1(self) -> float:
        """Lower arc endpoint 2 arccos(B)."""
        return 2.0 * math.acos(self.B)

    @property
    def theta2(self) -> float:
        """Upper arc endpoint 2 arccos(A)."""
        return 2.0 * math.acos(self.A)


def _coerce_scaling(cd: CdParams, q, N: int) -> np.ndarray:
    """Scaling values q_2 .. q_N, walked against d_2 .. d_N by ``make_scaling``
    unless ``q`` is a ScalingSeq whose ``chain`` starts with these d."""
    vals = q.values if isinstance(q, ScalingSeq) else np.asarray(q, dtype=float)
    if len(vals) < N - 1:
        raise InputError(f"need {N - 1} scaling terms for degree {N}, have {len(vals)}")
    chain = getattr(q, "chain", None)
    vals, d = vals[:N - 1], cd.d.values[:N - 1]
    if chain is None or not np.array_equal(chain.values[:N - 1], d):
        make_scaling(ChainSeq.from_values(d), vals)
    return vals


def _check_degree(cd: CdParams, N: int):
    if N < 2:
        raise InputError(f"bound computations need degree N >= 2, got {N}")
    if cd.n < N:
        raise InputError(f"need coefficients c_1..c_{N}, have {cd.n}")
    # the enclosures' domain: it keeps c^2, c_n c_{n+1}, (c_n + c_{n+1})^2 and
    # the discriminant of the bounding quadratic below 1e301
    c = cd.c[:N]
    if c.max() > 1e150 or c.min() < -1e150:  # no temporary array of N terms
        k = int(np.argmax(np.abs(c) > 1e150))
        raise InputError(f"c_{k + 1} = {float(cd.c[k])!r} lies outside the enclosures' "
                         "domain |c_n| <= 1e150")


def enclosure_thm44(cd: CdParams, q, N: int) -> Enclosure:
    """Pairwise quadratic enclosure from u^{(+-)}(c_{n-1}, c_n, q_n), n = 2..N;
    d/q is walked unless ``q`` is a ScalingSeq whose ``chain`` is this d."""
    _check_degree(cd, N)
    qv = _coerce_scaling(cd, q, N)
    best_lo = math.inf
    best_hi = -math.inf
    arg_lo = arg_hi = None
    for i, c_prev, c_next, q_blk in _chunks(cd.c[:N - 1], cd.c[1:N], qv):
        for m, a, b, qm in zip(count(i + 2), c_prev, c_next, q_blk):
            u_minus, u_plus = quadratic_roots(a, b, qm)
            x_lo = _x_from_u(u_minus)
            x_hi = _x_from_u(u_plus)
            if x_lo < best_lo:
                best_lo, arg_lo = x_lo, m
            if x_hi > best_hi:
                best_hi, arg_hi = x_hi, m
    return Enclosure(best_lo, best_hi, arg_lo, arg_hi, "thm44")


def _staggered_max(q: np.ndarray, N: int) -> np.ndarray:
    """q_n^{(1,N)}: q_2, max(q_n, q_{n+1}) for 2 <= n <= N-1, then q_N."""
    out = np.empty(N)
    out[0] = q[0]
    # max(a, b) keeps a unless b > a
    out[1:N - 1] = np.where(q[1:N - 1] > q[:N - 2], q[1:N - 1], q[:N - 2])
    out[N - 1] = q[N - 2]
    return out


def enclosure_thm46(cd: CdParams, q, N: int) -> Enclosure:
    """Single-coefficient enclosure from staggered maxima of q, checked as thm44's."""
    _check_degree(cd, N)
    qv = _coerce_scaling(cd, q, N)
    qs = _staggered_max(qv, N)
    best_lo = math.inf
    best_hi = -math.inf
    arg_lo = arg_hi = None
    for i, c_blk, q_blk in _chunks(cd.c[:N], qs):
        for n, cn, qn in zip(count(i + 1), c_blk, q_blk):
            root = math.sqrt(cn * cn + (1.0 - qn))
            sq = math.sqrt(qn)
            u1 = (cn + root) / (1.0 + sq)
            x_lo = _x_from_quarter(u1)
            den = -cn + root
            if den == 0.0:
                x_hi = 1.0
            else:
                x_hi = _x_from_quarter((1.0 + sq) / den)
            if x_lo < best_lo:
                best_lo, arg_lo = x_lo, n
            if x_hi > best_hi:
                best_hi, arg_hi = x_hi, n
    return Enclosure(best_lo, best_hi, arg_lo, arg_hi, "thm46")


def enclosure_cor45(cd: CdParams, N: int) -> Enclosure:
    """One-sided trivial-scaling enclosure; needs c_n + c_{n+1} of constant sign.

    With all sums positive the zeros stay in (A_N, 1); mirrored for negative.
    A sign change (or an exact zero sum) makes the statement trivial and the
    full interval (-1, 1) is returned.
    """
    _check_degree(cd, N)
    sums = cd.c[:N - 1] + cd.c[1:N]
    lower = bool((sums > 0.0).all())
    if not lower and not (sums < 0.0).all():
        return Enclosure(-1.0, 1.0, None, None, "cor45")
    # at q = 1 the pairwise quadratic keeps one finite root,
    # (c_{n-1} c_n - 1) / (c_{n-1} + c_n), on the bound side: the lower one for
    # positive sums, the upper one for negative sums
    enc = enclosure_thm44(cd, ScalingSeq(np.ones(N - 1), cd.d), N)
    if lower:
        return Enclosure(enc.A, 1.0, enc.argmin_index, None, "cor45")
    return Enclosure(-1.0, enc.B, None, enc.argmax_index, "cor45")


def enclosure_cor47(cd: CdParams, N: int) -> Enclosure:
    """Single-coefficient enclosure at the trivial scaling q = 1."""
    enc = enclosure_thm46(cd, ScalingSeq(np.ones(N - 1), cd.d), N)
    return Enclosure(enc.A, enc.B, enc.argmin_index, enc.argmax_index, "cor47")


_METHODS = {
    "thm44": enclosure_thm44,
    "thm46": enclosure_thm46,
    "cor45": lambda cd, q, N: enclosure_cor45(cd, N),
    "cor47": lambda cd, q, N: enclosure_cor47(cd, N),
}


@dataclass(frozen=True)
class SupportArc:
    """Finite-horizon support estimate A[theta1, theta2].

    The closed arc contains every zero up to the horizon degree and, when the
    per-degree extrema have stabilized, approximates the enclosing arc of the
    support of the mass-free family member.  ``stabilized_*`` compare the
    extrema at the horizon against the half horizon.
    """

    enclosure: Enclosure
    stabilized_lower: bool
    stabilized_upper: bool

    @property
    def theta1(self) -> float:
        return self.enclosure.theta1

    @property
    def theta2(self) -> float:
        return self.enclosure.theta2


def support_arc(cd: CdParams, q, N_max: int, method: str = "thm44") -> SupportArc:
    """Tightest arc statement available at horizon ``N_max``.

    B_N increases and A_N decreases with N, so the horizon values give the
    largest finite-degree arc; the stabilization flags report whether another
    doubling of the horizon still moved them by more than
    ``STABILIZATION_TOL``.
    """
    if method not in _METHODS:
        raise InputError(f"unknown method {method!r}")
    fn = _METHODS[method]
    full = fn(cd, q, N_max)
    half_n = max(2, N_max // 2)
    half = fn(cd, q, half_n)
    return SupportArc(full,
                      stabilized_lower=bool(abs(full.A - half.A) < STABILIZATION_TOL),
                      stabilized_upper=bool(abs(full.B - half.B) < STABILIZATION_TOL))


@dataclass(frozen=True)
class GapCertificate:
    """Outcome of the arc-emptiness test for supp(mu) against A(theta1, theta2).

    ``verified_to(N)`` means the head condition held and every ratio m_n up
    to the horizon stayed in (0, 1): the arc is gap-consistent as far as the
    horizon can see (and truly a gap when this persists for all n).
    ``violated(n)`` is conclusive: the arc meets the support.  Terms are
    computed, checked and walked a block at a time (64 terms, doubling to
    4096), so an input fault in a block past the violation's raises nothing,
    and of two faulty blocks the first one's error is raised.
    """

    verdict: str  # "verified" | "violated"
    horizon: int
    violated_at: Optional[int]
    c1_condition: bool
    m: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "m", _frozen(self.m))

    @property
    def verified(self) -> bool:
        return self.verdict == "verified"


def gap_certificate(alpha: VerblunskySeq, theta1: float, theta2: float,
                    N: int) -> GapCertificate:
    """Test whether the open arc (theta1, theta2) avoids the measure's support.

    Rotates the parametrization so the arc's upper endpoint plays z = 1, then
    drives the chain-sequence ratio recursion of the rotated coefficients at
    the probe point x* = cos((2*pi + theta1 - theta2) / 2).  The support
    avoids the arc iff cot((2*pi + theta1 - theta2)/2) < c_1 and every ratio
    stays in (0, 1); the first escape is a conclusive overlap witness.

    The rotated (c, g) arrive a block at a time, and each block is checked
    (d > 0, no probe on a cotangent direction) and walked before the next is
    computed; the bits are those of ``rotated_cd(alpha, theta2, N + 1)``.
    """
    if theta2 <= 0.0:
        raise InputError(f"theta2 must be positive, got {theta2}")
    width = theta2 - theta1
    if not 0.0 < width <= TWO_PI:
        raise InputError(f"arc width must lie in (0, 2*pi], got {width}")
    if N < 1:
        raise InputError(f"horizon must be >= 1, got {N}")
    half = 0.5 * (TWO_PI - width)
    x_star = math.cos(half)
    sin_half = math.sin(half)
    s = math.sqrt(max(0.0, 1.0 - x_star * x_star))
    m = np.empty(N + 1)  # m_0 = 0, m_1, ..
    m[0] = 0.0
    for first, c, g in _rotated_blocks(alpha, theta2, N + 1):
        t = x_star - c * s  # t[k] = x* - c_{first+k+1} sqrt(1 - x*^2)
        if first:  # d_{first+1} and its scale reach back into the last block
            d = (1.0 - np.concatenate(([g_last], g[:-1]))) * g
            scale = np.concatenate(([t_last], t[:-1])) * t
        else:
            d = (1.0 - g[:-1]) * g[1:]
            scale = t[:-1] * t[1:]
        at = max(first - 1, 0)  # d[0] is d_{at+2}, the factor of m_{at+1}
        _require_positive(d, at)
        if not first and not (sin_half > 0.0 and (x_star / sin_half) < c[0]):
            return GapCertificate("violated", N, 0, False, np.empty(0))
        tiny = np.abs(t) < 1e-13
        if tiny.any():
            k = first + int(np.argmax(tiny)) + 1
            raise BoundaryCaseError(k, f"probe point lies on the cotangent direction "
                                    f"of c_{k}; arc endpoint sits on the support "
                                    "boundary")
        # m_n = d_{n+1} / (t_n t_{n+1} (1 - m_{n-1})), m_0 = 0
        walk, n = _forward_params(d, head=m[at], scale=scale)
        m[at + 1:at + len(walk)] = walk[1:]
        if n is not None:
            return GapCertificate("violated", N, at + n, True, m[1:at + n + 1])
        g_last, t_last = g[-1], t[-1]
    return GapCertificate("verified", N, None, True, m[1:])


def two_interval_enclosure(cd: CdParams, A: float, B: float, C: float, D: float,
                           N: int) -> bool:
    """Alternating-coefficient test keeping zeros inside (A, C) u (D, B).

    Requires even N.  True when (A, B) passes the base enclosure conditions
    and, for one of the two parities, every even-indexed c_n sits in the low
    cotangent band and every odd-indexed one in the high band (or vice
    versa); all zeros of W_n, n <= N, then avoid [C, D].
    """
    if N < 2 or N % 2:
        raise InputError(f"N must be even and >= 2, got {N}")
    _check_degree(cd, N)
    if not (-1.0 < A < C < D < B < 1.0):
        raise InputError("need -1 < A < C < D < B < 1")

    def cot_of(x: float) -> float:
        return x / math.sqrt(1.0 - x * x)

    a_, b_, c_, d_ = cot_of(A), cot_of(B), cot_of(C), cot_of(D)
    cvals = cd.c[:N]
    if not (a_ < cvals[0] < b_):
        return False
    for x in (A, B):
        s = math.sqrt(1.0 - x * x)
        den = (x - cvals[:-1] * s) * (x - cvals[1:] * s)
        if (den <= 0.0).any():
            return False
        frak = cd.d.values[:N - 1] / den
        if (frak <= 0.0).any():
            return False
        if chain_failure_index(ChainSeq.from_values(frak)) is not None:
            return False
    even = cvals[1::2]  # c_2, c_4, ...
    odd = cvals[0::2]   # c_1, c_3, ...
    for low, high in ((even, odd), (odd, even)):
        if ((low > a_) & (low < c_)).all() and ((high > d_) & (high < b_)).all():
            return True
    return False
