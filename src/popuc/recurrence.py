"""Three-term recurrences on the circle and their interval transplants.

The circle-side polynomials R_n follow

    R_{n+1}(z) = [(1 + i c_{n+1}) z + (1 - i c_{n+1})] R_n(z) - 4 d_{n+1} z R_{n-1}(z)

with R_{-1} = 0, R_0 = 1; all their zeros are simple, sit on the unit circle
and interlace between consecutive degrees.  Substituting z = e^{i theta} and
x = cos(theta / 2) transplants them to real functions W_n on [-1, 1],

    W_{n+1}(x) = (x - c_{n+1} sqrt(1 - x^2)) W_n(x) - d_{n+1} W_{n-1}(x),

with W_n(x) = 2^{-n} e^{-i n theta / 2} R_n(e^{i theta}).  Zeros of W_N are
found by counting.  The ratios r_k = W_k(x) / W_{k-1}(x) follow

    r_1 = x - c_1 s,    r_k = (x - c_k s) - d_k / r_{k-1},    s = sqrt(1 - x^2),

and W_0 .. W_n is a generalized Sturm sequence, so the number of negative
r_k with k <= n is the number of zeros of W_n above x.  Bisection on that
count (Barth, Martin & Wilkinson, Numer. Math. 9 (1967)) pins down the j-th
largest zero of any degree on its own, with no brackets carried between
degrees; a zero ratio is replaced by a tiny positive one so the recursion
never divides by zero (Demmel, Dhillon & Ren, ETNA 3 (1995)).

The halvings run as multisection (Lo, Philippe & Sameh, SIAM J. Sci. Stat.
Comput. 8 (1987)): a pass counts, in one call, every midpoint that the next
h halvings of each distinct bracket could visit, up to ``_POINT_BUDGET``
points, and replays bisection's h decisions from those counts.  Midpoints
come from the same ``0.5 * (lo + hi)`` and each decision reads the count at
the midpoint bisection visits, so the output is plain bisection's bit for
bit, with no appeal to the count being monotone in x.  The array count runs
``_BLOCK`` steps at a time and defers the zero-ratio guard to the points
that need it, which it counts again step by step.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from itertools import chain, repeat
from typing import NamedTuple

import numpy as np

from .chainseq import _frozen
from .errors import BoundaryCaseError, InputError, InvariantError
from .transforms import TWO_PI, CdParams

# Rescale the running recurrence pair every this many steps to keep the
# magnitudes representable; growth per step is bounded by ~(1 + |c| + 1).
_RESCALE_EVERY = 32

# Stand-in for a ratio W_k / W_{k-1} that rounds to zero; d_k / _TINY stays
# finite for every admissible d_k <= 1.
_TINY = 1e-100

# Halvings of [-1, 1] per zero: they leave adjacent doubles for |x| >= 1/4
# and a bracket of 2^-55 below it, which moves theta = 2 arccos(x) by less
# than half an ulp of pi.
_BISECTION_STEPS = 56

# Steps per block of the array count: x - c_k s for a block is one outer
# product, and its sign counts and zero checks are one call each.
_BLOCK = 64

# Midpoints counted per pass of the array bisection, over all brackets,
# unless one per bracket is already more.
_POINT_BUDGET = 1024


class ScaledValue(NamedTuple):
    """A real number stored as mantissa * 2**exp2 to dodge overflow."""

    mantissa: float
    exp2: int

    @property
    def value(self) -> float:
        return math.ldexp(self.mantissa, self.exp2)

    @property
    def sign(self) -> int:
        return int(self.mantissa > 0) - int(self.mantissa < 0)

    @property
    def log2_abs(self) -> float:
        if self.mantissa == 0.0:
            return -math.inf
        return math.log2(abs(self.mantissa)) + self.exp2


def _coeffs(cd: CdParams, n: int):
    if n < 0:
        raise InputError(f"degree must be >= 0, got {n}")
    if cd.n < n:
        raise InputError(f"need {n} coefficients c_1..c_{n}, have {cd.n}")
    return cd.c, cd.d.values


def eval_R(cd: CdParams, n: int, z: complex) -> complex:
    """R_n(z) by the forward recurrence.

    Plain complex arithmetic; magnitudes grow like 2^n on the circle, so for
    degrees beyond a few hundred prefer :func:`eval_W`, which carries an
    explicit exponent.
    """
    c, d = _coeffs(cd, n)
    r_prev = 0.0 + 0.0j
    r = 1.0 + 0.0j
    for k in range(n):
        coef = (1.0 + 1j * c[k]) * z + (1.0 - 1j * c[k])
        if k == 0:
            r, r_prev = coef * r, r
        else:
            r, r_prev = coef * r - 4.0 * d[k - 1] * z * r_prev, r
    return r


def eval_W(cd: CdParams, n: int, x: float) -> ScaledValue:
    """W_n(x) as (mantissa, base-2 exponent).

    The returned sign is exact barring mantissa underflow, which the
    periodic rescaling rules out.
    """
    c, d = _coeffs(cd, n)
    if not -1.0 <= x <= 1.0:
        raise InputError(f"x must lie in [-1, 1], got {x}")
    mant, exp2 = _eval_W_grid(c, d, n, np.array([x], dtype=float))
    return ScaledValue(float(mant[0]), int(exp2[0]))


def _eval_W_grid(c: np.ndarray, d: np.ndarray, n: int, xs: np.ndarray,
                 track_peak: bool = False):
    """Vectorized W_n over ``xs``; returns (mantissa, exp2) arrays.

    With ``track_peak`` a third array gives log2 of the largest magnitude the
    recurrence passed through at each point, which bounds the evaluation's
    rounding-noise floor.
    """
    xs = np.asarray(xs, dtype=float)
    s = np.sqrt(np.maximum(0.0, 1.0 - xs * xs))
    w_prev = np.zeros_like(xs)
    w = np.ones_like(xs)
    exp2 = np.zeros(len(xs), dtype=np.int64)
    peak = np.zeros_like(xs) if track_peak else None
    for k in range(n):
        w, w_prev = (xs - c[k] * s) * w - (d[k - 1] * w_prev if k else 0.0), w
        if track_peak:
            mag = np.abs(w)
            big = mag > 0.0
            np.maximum(peak, np.where(big, np.log2(np.where(big, mag, 1.0)) + exp2,
                                      -np.inf), out=peak)
        if (k + 1) % _RESCALE_EVERY == 0:
            m = np.maximum(np.abs(w), np.abs(w_prev))
            nonzero = m > 0.0
            e = np.where(nonzero, np.frexp(m)[1], 0).astype(np.int64)
            scale = np.ldexp(1.0, -e)
            w = w * scale
            w_prev = w_prev * scale
            exp2 += e
    if track_peak:
        return w, exp2, peak
    return w, exp2


def _count_above(c, d, degree, x):
    """Number of zeros of W_degree above ``x``: the negative r_k, k <= degree.

    ``x`` is either one Python float, with ``c`` and ``d`` given as lists so
    the loop runs on Python floats, or an array of points, where ``degree``
    may also give one degree per point.  A ratio that rounds to zero becomes
    ``_TINY``: W_k(x) = 0 then counts with the sign of W_{k-1}(x), and the
    next step divides by a representable number.
    """
    if isinstance(x, np.ndarray):
        return _count_blocked(c, d, degree, x)
    return _count_steps(c, d, degree, x)


def _count_steps(c, d, degree, x):
    """``_count_above`` one step at a time, on a float or an array of points."""
    s = (np.sqrt if isinstance(x, np.ndarray) else math.sqrt)(1.0 - x * x)
    top = int(np.max(degree))
    # r_k counts when it is below its limit: 0 up to the point's own degree
    # and -inf past it, so one pass serves points of different degrees
    limits = (repeat(0.0) if np.ndim(degree) == 0 else
              (np.where(k < degree, 0.0, -np.inf) for k in range(top)))
    r = 1.0
    count = 0
    # d_1 = 0 makes the first step r_1 = x - c_1 s
    for ck, dk, limit in zip(c[:top], chain((0.0,), d), limits):
        r = x - ck * s - dk / r
        r = r + (r == 0.0) * _TINY
        count = count + (r < limit)
    return count


def _count_blocked(c, d, degree, x):
    """``_count_above`` on an array of points, ``_BLOCK`` steps at a time.

    One outer product gives x - c_k s for a whole block, so a step costs one
    divide and one subtract, and the signs are counted once per block.  The
    ``_TINY`` guard is deferred: the ratios are the step loop's up to the
    first one that rounds to zero, and the few points that reach one are
    counted again by ``_count_steps``, so every count is the step loop's.
    """
    degree = np.asarray(degree)
    top = int(degree.max())
    per_point = degree.ndim != 0
    c = np.asarray(c[:top])
    # d_1 = 0 and r_0 = 1 make the first step r_1 = x - c_1 s
    d = [0.0, *np.asarray(d[:top - 1]).tolist()]
    s = np.sqrt(1.0 - x * x)
    count = np.zeros(len(x), dtype=np.int64)
    zero = np.zeros(len(x), dtype=bool)
    # row 0 holds the ratio before the block, rows 1..b the block's ratios
    rows = np.empty((min(top, _BLOCK) + 1, len(x)))
    rows[0] = 1.0
    views = list(rows)
    quotient = np.empty(len(x))
    # past a zero ratio the block divides by zero and may form inf - inf, on
    # points that are counted again; a ratio so near 0 that d_{k+1} / r_k
    # overflows makes r_{k+1} infinite, with the sign it has to count by.  The
    # warnings are filtered rather than switched off by np.errstate, under
    # which every ufunc runs a few per cent slower
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "divide by zero|invalid value|overflow",
                                RuntimeWarning)
        for k0 in range(0, top, _BLOCK):
            b = min(_BLOCK, top - k0)
            block = rows[1:b + 1]
            np.multiply.outer(c[k0:k0 + b], s, out=block)
            np.subtract(x, block, out=block)
            for dk, prev, r in zip(d[k0:k0 + b], views, views[1:b + 1]):
                np.divide(dk, prev, out=quotient)
                np.subtract(r, quotient, out=r)
            negative = block < 0.0
            if per_point:
                negative &= np.arange(k0, k0 + b)[:, None] < degree
            count += np.count_nonzero(negative, axis=0)
            if not block.all():
                zero |= ~block.all(axis=0)
            rows[0] = rows[b]
        if zero.any():
            count[zero] = _count_steps(c, d[1:], degree[zero] if per_point else degree,
                                       x[zero])
    return count


def _bisect_zeros(cd: CdParams, N: int, degree, j) -> np.ndarray:
    """x of the j-th largest zero of W_degree, for each (degree, j) pair.

    ``N`` is the largest degree asked for.  Each point bisects [-1, 1] on
    whether at least j zeros lie above the midpoint, ``_BISECTION_STEPS``
    times: neighbouring zeros can sit closer than any coarse tolerance near
    support endpoints.

    A pass takes the next h halvings at once (multisection; Lo, Philippe &
    Sameh, SIAM J. Sci. Stat. Comput. 8 (1987)).  For each distinct bracket it
    forms the 2^h + 1 edges that h halvings can leave, each midpoint by the
    same ``0.5 * (lo + hi)`` bisection computes, counts the 2^h - 1 interior
    ones in one call, and replays bisection's h decisions from those counts.
    So every bracket takes plain bisection's path, bit for bit, whether or
    not the computed count is monotone in x.  h is the largest that keeps the
    points of a pass within ``_POINT_BUDGET``, and at least 1.
    """
    if N < 1:
        raise InputError(f"degree must be >= 1, got {N}")
    c, d = _coeffs(cd, N)
    n = len(j)
    lo = np.full(n, -1.0)
    hi = np.full(n, 1.0)
    degree = np.asarray(degree)
    per_point = degree.ndim != 0
    # equal brackets (of equal degree) are counted once.  They are nodes of
    # one bisection tree, so once a pass finds them all distinct only
    # brackets shrunk to a single double could meet again, and the search
    # for equal ones stops
    each = np.arange(n)
    merge = True
    steps = _BISECTION_STEPS
    while steps:
        if merge:
            key = lo + 1j * hi
            if per_point:
                key = np.unique(key, return_inverse=True)[1] * (N + 1) + degree
            _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
            merge = len(first) < n
        else:
            first = inverse = each
        h = min(steps, max(1, (_POINT_BUDGET // len(first) + 1).bit_length() - 1))
        edges = np.column_stack((lo[first], hi[first]))
        for _ in range(h):
            finer = np.empty((len(first), 2 * edges.shape[1] - 1))
            finer[:, 0::2] = edges
            finer[:, 1::2] = 0.5 * (edges[:, :-1] + edges[:, 1:])
            edges = finer
        width = 2 ** h - 1
        counts = _count_above(c, d, np.repeat(degree[first], width) if per_point else degree,
                              edges[:, 1:-1].ravel())
        # the bracket between edges a and a + 2^(t+1) halves at edge
        # a + 2^t, whose count sits at position a + 2^t - 1 of its row
        offset = inverse * width - 1
        a = np.zeros(n, dtype=np.int64)
        for t in reversed(range(h)):
            a += (counts[offset + a + 2 ** t] >= j) * 2 ** t
        lo = edges[inverse, a]
        hi = edges[inverse, a + 1]
        steps -= h
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class ZeroList:
    """Zeros of a degree-n member: x descending in (-1, 1), theta ascending.

    ``theta[j] = 2 arccos(x[j])`` maps the interval zeros back to the circle;
    the descending x ordering makes theta increase.
    """

    n: int
    x: np.ndarray
    theta: np.ndarray

    def __post_init__(self):
        x, theta = _frozen(self.x), _frozen(self.theta)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "theta", theta)
        if len(x) != self.n or len(theta) != self.n:
            raise InputError("zero count must equal the degree")
        if self.n:
            if not (np.diff(x) < 0).all():
                raise InvariantError("zeros in x must be strictly decreasing")
            if x[0] >= 1.0 or x[-1] <= -1.0:
                raise InvariantError("zeros must be interior to (-1, 1)")


def zeros_ladder(cd: CdParams, N: int):
    """Zeros (ascending in x) of every member W_1 .. W_N.

    All N (N + 1) / 2 zeros are bisected in one pass, one point per
    (degree, j) pair: the count for degree n is the count for N stopped
    after n steps.
    """
    sizes = np.arange(1, N + 1)
    degree = np.repeat(sizes, sizes)
    j = np.arange(len(degree)) - degree * (degree - 1) // 2 + 1
    x = _bisect_zeros(cd, N, degree, j)
    return [level[::-1] for level in np.split(x, np.cumsum(sizes)[:-1])]


def zeros_W(cd: CdParams, N: int) -> ZeroList:
    """All N zeros of W_N, each bisected on the zero count.

    A zero that rounds to an endpoint or ties its neighbour cannot be told
    apart in double precision and raises :class:`BoundaryCaseError`.
    """
    x = _bisect_zeros(cd, N, N, np.arange(1, N + 1))
    unresolved = np.abs(x) >= 1.0
    unresolved[1:] |= x[1:] >= x[:-1]
    if unresolved.any():
        j = int(np.argmax(unresolved)) + 1
        raise BoundaryCaseError(
            j, f"zero {j} of degree {N} is not resolvable in double precision: "
               "it rounds to x = +-1 or ties its neighbour")
    return ZeroList(N, x, 2.0 * np.arccos(x))


def zeros_R(cd: CdParams, N: int) -> ZeroList:
    """Zeros of R_N as angles theta = 2 arccos(x) of the zeros of W_N."""
    return zeros_W(cd, N)


def count_zeros_in_arc(zl: ZeroList, arc) -> int:
    """Number of zero angles inside a circular arc.

    ``arc`` provides ``theta1``, ``theta2`` and ``closed`` (an Arc or any
    duck-typed object / tuple).  theta2 may exceed 2*pi to wrap through the
    point z = 1; a zero-width arc counts nothing.
    """
    if isinstance(arc, tuple):
        theta1, theta2 = arc[0], arc[1]
        closed = arc[2] if len(arc) > 2 else True
    else:
        theta1, theta2 = arc.theta1, arc.theta2
        closed = getattr(arc, "closed", True)
    width = theta2 - theta1
    if width < 0:
        raise InputError("arc must have theta2 >= theta1")
    if width == 0:
        return 0
    if width >= TWO_PI:
        return zl.n
    start = theta1 % TWO_PI
    rel = (zl.theta - start) % TWO_PI
    if closed:
        inside = rel <= width
        # points exactly at the start angle have rel == 0 and are included
    else:
        inside = (rel > 0) & (rel < width)
    return int(np.count_nonzero(inside))
