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


def _bisect_zeros(cd: CdParams, N: int, degree, j) -> np.ndarray:
    """x of the j-th largest zero of W_degree, for each (degree, j) pair.

    ``N`` is the largest degree asked for.  Each point bisects [-1, 1] on
    whether at least j zeros lie above the midpoint, ``_BISECTION_STEPS``
    times: neighbouring zeros can sit closer than any coarse tolerance near
    support endpoints.
    """
    if N < 1:
        raise InputError(f"degree must be >= 1, got {N}")
    c, d = _coeffs(cd, N)
    lo = np.full(len(j), -1.0)
    hi = np.full(len(j), 1.0)
    # a ratio r_k so near 0 that d_{k+1} / r_k overflows makes r_{k+1}
    # infinite, with the sign it has to count by; the warning is filtered
    # rather than switched off by np.errstate, under which every ufunc of the
    # loop runs a few per cent slower
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "overflow encountered", RuntimeWarning)
        for _ in range(_BISECTION_STEPS):
            mid = 0.5 * (lo + hi)
            above = _count_above(c, d, degree, mid) >= j
            lo = np.where(above, mid, lo)
            hi = np.where(above, hi, mid)
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
