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
from typing import Optional

import numpy as np

from .chainseq import (_CHUNK, ScalingSeq, _forward_params, _frozen, _require_positive,
                       make_scaling)
from .errors import BoundaryCaseError, InputError
from .transforms import TWO_PI, CdParams, VerblunskySeq, _rotated_blocks
# rotated_cd joins the blocks that gap_certificate walks; perfbench's tracer
# still wraps the name here (tracer.BY_VALUE)
from .transforms import rotated_cd  # noqa: F401

# A support-arc extremum counts as stabilized when halving the horizon moves
# it by less than this.
STABILIZATION_TOL = 1e-8

# np.hypot and math.hypot round x = u / hypot(1, u) apart by at most 2 ulps;
# the degrees within this of a block's extremum are decided by ``_x_from_u``.
_HYPOT_SLACK = 2.0 ** -40


def _roots(a: np.ndarray, b: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Roots u^(-) <= u^(+) of (1 - q) u^2 - (a + b) u + (a b - q) termwise,
    as the rows of one array; q is taken to lie in [0, 1], unchecked.  At
    q = 1 the unbounded root is a signed infinity.  Every operation rounds as
    the formula does on Python floats."""
    s = a + b
    lead = 1.0 - q
    prod = a * b - q
    # max(disc, 0.0) clips rounding dust; disc is never -0.0 (s * s >= +0),
    # so np.maximum is that max
    root = np.sqrt(np.maximum(s * s - 4.0 * lead * prod, 0.0))
    big = (s + np.copysign(root, s + 0.0)) / (2.0 * lead)  # s - root only at s < 0.0
    # at q = 1, big is the signed infinity and the other root (a b - 1) / s
    other = prod / np.where(lead == 0.0, s, lead * big)
    # (other, big) if other <= big else (big, other): a NaN other comes
    # second, a NaN big has a NaN other, and at big = 0 both are set below
    u = np.array((np.fmin(other, big), np.maximum(other, big)))
    finite = np.isfinite(other)  # false at big = 0, at q = 1 and s = 0, on overflow
    if not finite[finite.argmin()]:
        u[:, big == 0.0] = 0.0  # s == 0 and a b == q: double root at the origin
        # q = 1: (other, inf) at s > 0, (-inf, other) at s < 0, else (-inf, inf)
        at = lead == 0.0
        u[0, at] = np.where(s[at] > 0.0, other[at], -np.inf)
        u[1, at] = np.where(s[at] < 0.0, other[at], np.inf)
    return u


def _x_from_u(u: float) -> float:
    """cot(theta/2) -> cos(theta/2), sending +-inf to +-1."""
    if math.isinf(u):
        return 1.0 if u > 0 else -1.0
    return u / math.hypot(1.0, u)


def _least_x(u: np.ndarray, first: int, best: list, arg: list) -> None:
    """Fold into ``best[k]`` and ``arg[k]`` the least x = _x_from_u(u[k]) at
    degrees first, first + 1, ..; ties keep the smaller degree.  np.hypot
    picks the candidates and ``_x_from_u`` decides among them."""
    v = np.maximum(np.minimum(u, 1e300), -1e300)  # x(+-inf) = +-1 = x(+-1e300)
    x = v / np.hypot(1.0, v)
    side, n = (x <= x.min(axis=1, keepdims=True) + _HYPOT_SLACK).nonzero()
    vals = u[side, n]
    if len(n) > 2:  # past one per row: a run of equal u has one x, at its first degree
        new = np.concatenate(([True], (vals[1:] != vals[:-1]) | (side[1:] != side[:-1])))
        side, n, vals = side[new], n[new], vals[new]
    for k, m, w in zip(side.tolist(), n.tolist(), vals.tolist()):
        w = _x_from_u(w)
        if w < best[k]:
            best[k], arg[k] = w, first + m


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
    vals, d = vals[:N - 1], cd.d[:N - 1]
    if chain is None or chain is not cd.d and not np.array_equal(chain[:N - 1], d):
        make_scaling(d, vals)
    return vals


def _check_degree(cd: CdParams, N: int):
    if N < 2:
        raise InputError(f"bound computations need degree N >= 2, got {N}")
    if cd.n < N:
        raise InputError(f"need coefficients c_1..c_{N}, have {cd.n}")
    # the enclosures' domain: it keeps c^2, c_n c_{n+1}, (c_n + c_{n+1})^2 and
    # the discriminant of the bounding quadratic below 1e301
    c = cd.c[:N]
    if c[c.argmax()] > 1e150 or c[c.argmin()] < -1e150:  # no temporary array of N terms
        k = int(np.argmax(np.abs(c) > 1e150))
        raise InputError(f"c_{k + 1} = {float(cd.c[k])!r} lies outside the enclosures' "
                         "domain |c_n| <= 1e150")


def enclosure_thm44(cd: CdParams, q, N: int) -> Enclosure:
    """Pairwise quadratic enclosure from u^{(+-)}(c_{n-1}, c_n, q_n), n = 2..N;
    d/q is walked unless ``q`` is a ScalingSeq whose ``chain`` is this d."""
    _check_degree(cd, N)
    qv = _coerce_scaling(cd, q, N)
    a, b = cd.c[:N - 1], cd.c[1:N]
    best, arg = [math.inf, math.inf], [None, None]  # x_lo and -x_hi
    with np.errstate(all="ignore"):  # q = 1 divides by zero
        for i in range(0, N - 1, _CHUNK):
            u = _roots(a[i:i + _CHUNK], b[i:i + _CHUNK], qv[i:i + _CHUNK])
            u[1] *= -1.0  # x(-u) = -x(u): both extrema are minima
            _least_x(u, i + 2, best, arg)
    return Enclosure(best[0], -best[1], arg[0], arg[1], "thm44")


def _staggered_max(q: np.ndarray, N: int) -> np.ndarray:
    """q_n^{(1,N)}: q_2, max(q_n, q_{n+1}) for 2 <= n <= N-1, then q_N."""
    out = np.empty(N)
    out[0], out[N - 1] = q[0], q[N - 2]
    # q in (0, 1] holds no signed zero or NaN, so np.maximum is max
    np.maximum(q[1:], q[:-1], out=out[1:N - 1])
    return out


def enclosure_thm46(cd: CdParams, q, N: int) -> Enclosure:
    """Single-coefficient enclosure from staggered maxima of q, checked as thm44's."""
    _check_degree(cd, N)
    c, qs = cd.c[:N], _staggered_max(_coerce_scaling(cd, q, N), N)
    best_lo, best_hi, arg_lo, arg_hi = math.inf, -math.inf, None, None
    with np.errstate(all="ignore"):  # u^2 may overflow, and den = 0 divides
        for i in range(0, N, _CHUNK):
            cn, qn = c[i:i + _CHUNK], qs[i:i + _CHUNK]
            root = np.sqrt(cn * cn + (1.0 - qn))
            sq = 1.0 + np.sqrt(qn)
            # u = cot(theta/4) at x_lo and at x_hi (den = -c + root); x =
            # (u^2 - 1) / (u^2 + 1) rounds to 1 at every u^2 >= 1e300, so capped
            # there an infinite u^2 (or u, at den = 0) gives 1, not inf / inf
            u = np.array(((cn + root) / sq, sq / (root - cn)))
            uu = np.minimum(u * u, 1e300)
            x = (uu - 1.0) / (uu + 1.0)
            j, k = x[0].argmin(), x[1].argmax()
            if x[0, j] < best_lo:
                best_lo, arg_lo = float(x[0, j]), i + 1 + int(j)
            if x[1, k] > best_hi:
                best_hi, arg_hi = float(x[1, k]), i + 1 + int(k)
    return Enclosure(best_lo, best_hi, arg_lo, arg_hi, "thm46")


def enclosure_cor45(cd: CdParams, N: int) -> Enclosure:
    """One-sided trivial-scaling enclosure; needs c_n + c_{n+1} of constant sign.

    With all sums positive the zeros stay in (A_N, 1); mirrored for negative.
    A sign change (or an exact zero sum) makes the statement trivial and the
    full interval (-1, 1) is returned.
    """
    _check_degree(cd, N)
    a, b = cd.c[:N - 1], cd.c[1:N]
    sums = a + b
    lower = bool((sums > 0.0).all())
    if not lower and not (sums < 0.0).all():
        return Enclosure(-1.0, 1.0, None, None, "cor45")
    # at q = 1 thm44's pairwise quadratic keeps one finite root,
    # (c_{n-1} c_n - 1) / (c_{n-1} + c_n), on the bound side: the lower one for
    # positive sums, the upper one for negative sums, where x(-u) = -x(u)
    best, arg = [math.inf], [None]
    with np.errstate(all="ignore"):  # the root may overflow
        for i in range(0, N - 1, _CHUNK):
            u = (a[i:i + _CHUNK] * b[i:i + _CHUNK] - 1.0) / sums[i:i + _CHUNK]
            _least_x((u if lower else -u)[None], i + 2, best, arg)
    if lower:
        return Enclosure(best[0], 1.0, arg[0], None, "cor45")
    return Enclosure(-1.0, -best[0], None, arg[0], "cor45")


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
    largest finite-degree arc; the stabilization flags report whether going
    from half the horizon, ``max(2, N_max // 2)``, to ``N_max`` moved them by
    less than ``STABILIZATION_TOL``.
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
    for first, _, c, g in _rotated_blocks(alpha, theta2, N + 1):
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
