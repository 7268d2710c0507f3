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
Comput. 8 (1987)): a pass fills, in place, every midpoint that the next h
halvings of each distinct bracket could visit, up to ``_POINT_BUDGET``
points, counts them in one call and replays bisection's h decisions from
those counts.  Midpoints come from the same ``0.5 * (lo + hi)`` and each
decision reads the count at the midpoint bisection visits, so the output is
plain bisection's bit for bit, with no appeal to the count being monotone in
x.  Where a bracket's counts happen not to rise, bisection's walk ends after
the run of midpoints with count >= j, and one ``searchsorted`` finds that
end for every point; otherwise the pass walks level by level.  The array
count runs ``_BLOCK`` steps at a time on operands prepared once per
bisection: each block's x - c_k s is one ``einsum``, and each step one
divide and one subtract by 0-d arrays into preallocated outputs.  It sums
each block's signs in uint8 and counts the few points that reach a zero
ratio again on Python floats.  Commands bisect only the zeros they print:
``tables`` its extreme ones.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .chainseq import _frozen
from .errors import BoundaryCaseError, InputError, InvariantError
from .transforms import CdParams

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


def _coeffs(cd: CdParams, n: int):
    if n < 0:
        raise InputError(f"degree must be >= 0, got {n}")
    if cd.n < n:
        raise InputError(f"need {n} coefficients c_1..c_{n}, have {cd.n}")
    return cd.c, cd.d


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
    """``_count_above`` one step at a time, on one Python float ``x``."""
    s = math.sqrt(1.0 - x * x)
    r = 1.0
    count = 0
    # d_1 = 0 makes the first step r_1 = x - c_1 s
    for ck, dk in zip(c[:degree], chain((0.0,), d)):
        r = x - ck * s - dk / r
        if r == 0.0:
            r = _TINY
        count += r < 0.0
    return count


def _count_blocked(c, d, degree, x):
    """``_count_above`` on an array of points, ``_BLOCK`` steps at a time.

    ``x - c_k s`` for a whole block is one ``einsum`` outer product into the
    block's rows, so a step costs one divide and one subtract, each with a
    positional output.  ``d`` may hold the d_k as 0-d float64 arrays, as
    ``_bisect_zeros`` prepares them once per call, so that the step loop
    converts no Python float.  The block's signs fill one bool array, summed
    in uint8, which 64 rows cannot wrap.  The ``_TINY`` guard is deferred:
    the ratios are the step loop's up to the first one that rounds to zero,
    and the few points that reach one are counted again by ``_count_steps``,
    so every count is the step loop's.  ``einsum`` adds each product to a
    zeroed output, so a product that is -0.0 comes out +0.0; that changes at
    most the sign of a zero ratio, and every zero ratio is counted again.
    """
    degree = np.asarray(degree)
    top = int(degree.max())
    per_point = degree.ndim != 0
    c = np.asarray(c[:top])
    # d_1 = 0 and r_0 = 1 make the first step r_1 = x - c_1 s
    d = [np.zeros(()), *d[:top - 1]]
    s = np.sqrt(1.0 - x * x)
    count = np.zeros(len(x), dtype=np.int64)
    zero = np.zeros(len(x), dtype=bool)
    # row 0 holds the ratio before the block, rows 1..b the block's ratios
    rows = np.empty((min(top, _BLOCK) + 1, len(x)))
    rows[0] = 1.0
    views = list(rows)
    quotient = np.empty(len(x))
    signs = np.empty((len(rows) - 1, len(x)), dtype=bool)
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
            np.einsum("i,j->ij", c[k0:k0 + b], s, out=block)
            np.subtract(x, block, block)
            for dk, prev, r in zip(d[k0:k0 + b], views, views[1:b + 1]):
                np.divide(dk, prev, quotient)
                np.subtract(r, quotient, r)
            negative = np.less(block, 0.0, signs[:b])
            if per_point:
                negative &= np.arange(k0, k0 + b)[:, None] < degree
            count += np.add.reduce(negative.view(np.uint8), axis=0, dtype=np.uint8)
            if not block.all():
                zero |= ~block.all(axis=0)
            rows[0] = rows[b]
    if zero.any():
        c, d, degree = c.tolist(), [float(dk) for dk in d[1:]], degree.tolist()
        for i in np.flatnonzero(zero).tolist():
            count[i] = _count_steps(c, d, degree[i] if per_point else degree, float(x[i]))
    return count


def _bisect_zeros(cd: CdParams, N: int, degree, j) -> np.ndarray:
    """x of the j-th largest zero of W_degree, for each (degree, j) pair.

    ``N`` is the largest degree asked for.  Each point bisects [-1, 1] on
    whether at least j zeros lie above the midpoint, ``_BISECTION_STEPS``
    times: neighbouring zeros can sit closer than any coarse tolerance near
    support endpoints.

    A pass takes the next h halvings at once (multisection; Lo, Philippe &
    Sameh, SIAM J. Sci. Stat. Comput. 8 (1987)).  For each distinct bracket it
    fills, level by level and in place, one row of the 2^h + 1 edges that h
    halvings can leave, each midpoint by the same ``0.5 * (lo + hi)``
    bisection computes.  It counts the 2^h - 1 interior ones in one call and
    replays bisection's h decisions (count >= j at the midpoint) from those
    counts.  h is the largest that keeps the points of a pass within
    ``_POINT_BUDGET``, and at least 1.

    Where a bracket's counts do not rise from edge to edge, each of its
    points reads a row of decisions that is a run of True then False.  Every
    decision the walk reads then lies in the run or after it, and it moves
    right exactly when it lies in the run, so the walk ends in the bracket
    that starts at the run's last edge: the leaf is the run's length, the
    number of interior edges whose count is >= j.  One ``searchsorted``
    finds it for every point.  A pass with any rising
    count takes the per-level walk instead.  So every bracket takes plain
    bisection's path, bit for bit, whether or not the computed count is
    monotone in x.  The d_k are made 0-d float64 arrays once per call, so that
    the count's step loop converts no Python float.
    """
    if N < 1:
        raise InputError(f"degree must be >= 1, got {N}")
    c, d = _coeffs(cd, N)
    d = [np.array(dk) for dk in d[:N - 1].tolist()]
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
        width = 2 ** h - 1
        # the edges a level adds, every gap-th from gap / 2, are the midpoints
        # of their neighbours on the level above
        edges = np.empty((len(first), width + 2))
        edges[:, 0] = lo[first]
        edges[:, -1] = hi[first]
        for level in range(h):
            gap = 2 ** (h - level)
            mid = edges[:, gap // 2::gap]
            np.add(edges[:, :-1:gap], edges[:, gap::gap], mid)
            np.multiply(0.5, mid, mid)
        counts = _count_above(c, d, np.repeat(degree[first], width) if per_point else degree,
                              edges[:, 1:-1].ravel())
        # keyed by bracket and then by falling count, the counts of a pass
        # sort as one array exactly when no bracket's count rises; a point's
        # leaf is then where (its bracket, j) falls in its bracket's row
        runs = (np.arange(len(first))[:, None] * (N + 2) - counts.reshape(-1, width)).ravel()
        if (runs[1:] >= runs[:-1]).all():
            a = np.searchsorted(runs, inverse * (N + 2) - j, side="right") - inverse * width
        else:
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


def zeros_W(cd: CdParams, N: int) -> ZeroList:
    """All N zeros of W_N, each bisected on the zero count.

    A zero that rounds to an endpoint or ties its neighbour cannot be told
    apart in double precision and raises :class:`BoundaryCaseError`.
    """
    x = _bisect_zeros(cd, N, N, np.arange(1, N + 1))
    unresolved = np.abs(x) >= 1.0
    unresolved[1:] |= x[1:] >= x[:-1]
    if unresolved.any():
        raise _unresolvable(int(np.argmax(unresolved)) + 1, N)
    return ZeroList(N, x, 2.0 * np.arccos(x))


def extreme_zeros(cd: CdParams, degrees) -> np.ndarray:
    """x of the largest and the smallest zero of W_n, one row per n of
    ``degrees``, all bisected in one pass: the first and last zero of
    ``zeros_W(cd, n)``, bit for bit.

    A pair that rounds to an endpoint or is out of order cannot be told apart
    in double precision and raises :class:`BoundaryCaseError`, for j = 1
    before j = n.
    """
    degrees = np.asarray(degrees)
    j = np.column_stack((np.ones_like(degrees), degrees)).ravel()
    x = _bisect_zeros(cd, int(degrees.max()), np.repeat(degrees, 2), j).reshape(-1, 2)
    for N, (first, last) in zip(degrees.tolist(), x.tolist()):
        bad = 1 if first >= 1.0 else N if last <= -1.0 or first <= last and N > 1 else 0
        if bad:
            raise _unresolvable(bad, N)
    return x


def _unresolvable(j: int, N: int) -> BoundaryCaseError:
    return BoundaryCaseError(
        j, f"zero {j} of degree {N} is not resolvable in double precision: "
           "it rounds to x = +-1 or ties its neighbour")


def zeros_R(cd: CdParams, N: int) -> ZeroList:
    """Zeros of R_N as angles theta = 2 arccos(x) of the zeros of W_N."""
    return zeros_W(cd, N)
