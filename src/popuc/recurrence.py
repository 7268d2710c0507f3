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
r_k with k <= n is the number of zeros of W_n above x.  The r_k / s are the
pivots of t B - A at t = x / s, for the Hermitian-definite pencil with A
tridiagonal, c_k on its diagonal and -+i sqrt(d_{k+1}) beside it, and
B = tridiag(sqrt d, 1, sqrt d); so by Sylvester's law of inertia the count
is the number of pencil eigenvalues above t (Ismail & Masson 1995; Zhedanov,
J. Approx. Theory 101 (1999)).  Bisection on that count (Barth, Martin &
Wilkinson, Numer. Math. 9 (1967)) pins down the j-th largest zero of any
degree on its own, with no brackets carried between degrees; a zero ratio is
replaced by a tiny positive one so the recursion never divides by zero
(Demmel, Dhillon & Ren, ETNA 3 (1995)).

The halvings run in passes, and a pass counts all its midpoints in one
array call.  A bracket that holds one zero follows a predicted path: the
secant of W_N through the bracket's ends crosses zero at x_hat, the next K
midpoints are the ones bisection visits if every decision goes toward x_hat,
and the zero takes them down to and including the first level whose count
disagrees.  A bracket that several zeros share, or with no usable W_N at its
ends, takes a multisection subtree (Lo, Philippe & Sameh, SIAM J. Sci. Stat.
Comput. 8 (1987)): every midpoint its next h halvings could visit, h from a
cost model of a pass.  Either way each midpoint is bisection's
``0.5 * (lo + hi)`` and each decision reads the count at the midpoint
bisection visits, so the output is plain bisection's bit for bit, with no
appeal to the count being monotone in x or to the prediction being right.
W_N comes with the count: the product of each block's ratios, which is also
its check for a ratio that rounds to zero.  The array count runs ``_BLOCK``
steps at a time on operands and buffers prepared once per bisection: each
block's x - c_k s is one product and one subtraction, and each step one
divide and one subtract by 0-d arrays into rows of a buffer the kernel
keeps.  It sums each block's signs in uint8 and counts the few points that
reach a zero ratio again on Python floats.  A pass costs its N
divide-and-subtract pairs and a fixed part: about 16 us of count set-up,
10 us per block, and 70 us of bookkeeping plus 30 ns a point (2-vCPU Xeon,
numpy 2.4).  Commands bisect only the zeros they print: ``tables`` its
extreme ones.
"""

from __future__ import annotations

import math
import warnings
from functools import lru_cache
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
# product, and its sign counts and its product of ratios are one call each.
_BLOCK = 64

# numpy's ufunc buffer, in elements, while points are counted.  numpy copies
# the operands of a ufunc that broadcasts over rows shorter than a third of
# its buffer through that buffer: at its default of 8192 elements that is
# every block of fewer than 2731 points, and x - c_k s then cost 1.0-1.5 ns a
# point-step against 0.5.  Below 256 a cast, as of the uint8 sign sums into
# the int64 counts, runs in chunks too small for its loop (2-vCPU Xeon,
# numpy 2.4)
_BUFFER = 256

# A kernel for degrees up to this compares its row indices and per-point
# degrees as int32: at 50 x 290 points the mask takes 9 us against 15 us on
# int64 (2-vCPU Xeon, numpy 2.4).
_INT32_MAX = np.iinfo(np.int32).max

# Cost of a count call in point-steps, one step of the ratio recursion on one
# point (2.4-3.5 ns): a fixed part and a part per step of the recursion,
# whatever the number of points.  Least squares over N = 20-300 and 2-2000
# points on a 2-vCPU Xeon gave 30-50 us and 1.3-1.7 us; with kept buffers it
# gives 19 us and 0.8 us.  The constants stay, as they fix the schedule.
_PASS_COST = 14000
_STEP_COST = 550

# A predicted path is as long as the halvings its zero has taken, less
# _LEAD: from a bracket of level L the secant keeps bisection's path for a
# median of L - 9 to L - 1 further levels (lambda-eta, random alpha and
# random cd, N = 40-300).
_LEAD = 5

_POWERS = 2.0 ** np.arange(_BISECTION_STEPS + 1)
# K, the path length, by the number of halvings taken
_PATH = np.minimum(_BISECTION_STEPS - np.arange(_BISECTION_STEPS + 1),
                   np.arange(_BISECTION_STEPS + 1) - _LEAD)
# the largest double below 1: a path's digits then never leave its bracket
_BELOW_ONE = 1.0 - 2.0 ** -53


def _count_above(c, d, degree, x):
    """Number of zeros of W_degree above the Python float ``x``: the negative
    r_k, k <= degree, one step at a time on Python floats, with ``c`` and
    ``d`` given as lists.  By Sylvester's law of inertia it is also the
    number of eigenvalues of the pencil (A, B) of the module docstring above
    t = x / sqrt(1 - x^2).  A ratio that rounds to zero becomes ``_TINY``:
    W_k(x) = 0 then counts with the sign of W_{k-1}(x), and the next step
    divides by a representable number.
    """
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


class _quiet(warnings.catch_warnings):
    """Past a zero ratio the array count divides by zero and may form
    inf - inf, on points that are counted again; a ratio so near 0 that
    d_{k+1} / r_k overflows makes r_{k+1} infinite, with the sign it has to
    count by.  The warnings are filtered rather than switched off by
    np.errstate, under which every ufunc runs a few per cent slower.  Inside,
    numpy's ufunc buffer holds ``_BUFFER`` elements."""

    def __enter__(self):
        super().__enter__()
        warnings.filterwarnings("ignore", "divide by zero|invalid value|overflow",
                                RuntimeWarning)
        self.bufsize = np.setbufsize(_BUFFER)

    def __exit__(self, *exc_info):
        np.setbufsize(self.bufsize)
        return super().__exit__(*exc_info)


class _ArrayCount:
    """``_count_above`` on arrays of points, ``_BLOCK`` steps at a time, on
    operands prepared once for degrees up to ``top``: each block's c_k as a
    column, its d_k as 0-d float64 arrays, so that the step loop converts no
    Python float, and its row indices as a column for per-point degrees
    (int32 when ``top`` fits, as the degrees then are).
    Its buffers, grown geometrically, outlive the calls, each of which views
    their leading part as contiguous arrays.  Callers run it under ``_quiet``.

    ``x - c_k s`` for a whole block is one product of the c_k column by the
    s row and one subtraction from x, into the block's rows, so a step costs
    one divide and one subtract, each with a positional output; the block's
    first step divides by the last ratio of the block before, read before
    the product overwrites it.  Where each point has its own degree, the
    ratios past it become 1, which neither counts nor moves W.  The block's
    signs fill one bool array, summed in uint8, which 64 rows cannot wrap.
    Each call returns the counts and W_degree at the points, as mantissa +
    1j * exponent: the product of each block's ratios is folded into a
    mantissa that ``np.frexp`` keeps in [0.5, 1).  That product is the zero
    check as well: a ratio that rounds to zero makes it 0 or NaN, and the
    few points where it is are counted again by ``_count_above``, so every
    count is the step loop's; their W is NaN.
    """

    def __init__(self, c, d, top):
        self.c = np.asarray(c[:top], dtype=float)
        # d_1 = 0 and r_0 = 1 make the first step r_1 = x - c_1 s
        self.d = [np.zeros(()), *map(np.array, np.asarray(d[:top - 1], dtype=float).tolist())]
        self.index = np.int32 if top <= _INT32_MAX else np.int64
        self.blocks = [(k0, self.c[k0:k0 + _BLOCK, None], self.d[k0:k0 + _BLOCK],
                        np.arange(k0, min(k0 + _BLOCK, top), dtype=self.index)[:, None])
                       for k0 in range(0, top, _BLOCK)]
        self.one = np.ones(())
        self.height = min(top, _BLOCK)
        self.size = 0

    def _grow(self, size):
        self.size, cells = size, self.height * size
        self.rows = np.empty(cells)
        self.signs, self.dead = np.empty((2, cells), dtype=bool)
        self.s, self.quotient, self.product = np.empty((3, size))
        self.sums, self.e = np.empty(size, dtype=np.uint8), np.empty(size, dtype=np.int32)

    def count(self, degree, x):
        degree = np.asarray(degree)
        per_point = degree.ndim != 0
        top = int(degree.max()) if per_point else int(degree)
        if per_point:  # degrees go up to the kernel's top, so none wraps
            degree = degree.astype(self.index, copy=False)
        p = len(x)
        if p > self.size:
            self._grow(max(p, 2 * self.size))
        height = min(top, _BLOCK)
        rows = self.rows[:height * p].reshape(height, p)
        signs = self.signs[:height * p].reshape(height, p)
        views = list(rows)
        s, quotient, product = self.s[:p], self.quotient[:p], self.product[:p]
        sums, e = self.sums[:p], self.e[:p]
        np.sqrt(np.subtract(1.0, np.multiply(x, x, s), s), s)
        count = np.zeros(p, dtype=np.int64)
        w = np.empty(p, dtype=complex)
        w.fill(1.0)
        mantissa, exponent = w.real, w.imag
        carry, divide, subtract = self.one, np.divide, np.subtract
        for k0, c, d, index in self.blocks[:-(-top // _BLOCK)]:
            b = min(_BLOCK, top - k0)
            if b < len(c):
                c, d, index = c[:b], d[:b], index[:b]
            divide(d[0], carry, quotient)
            block = rows[:b]
            np.subtract(x, np.multiply(c, s, block), block)
            subtract(views[0], quotient, views[0])
            for dk, prev, r in zip(d[1:], views, views[1:b]):
                divide(dk, prev, quotient)
                subtract(r, quotient, r)
            carry = views[b - 1]
            if per_point:
                np.putmask(block, np.greater_equal(index, degree,
                                                   self.dead[:b * p].reshape(b, p)), 1.0)
            negative = np.less(block, 0.0, signs[:b])
            np.multiply.reduce(block, axis=0, out=product)
            np.add(count, np.add.reduce(negative.view(np.uint8), axis=0, dtype=np.uint8,
                                        out=sums), count)
            np.frexp(np.multiply(mantissa, product, mantissa), mantissa, e)
            np.add(exponent, e, exponent)
        # 0 and NaN fail the test, and a mantissa that overflowed to inf
        # marks no zero ratio
        ok = np.abs(mantissa) >= 0.5
        if not ok.all():
            zero = ~ok
            c, d, degree = self.c.tolist(), [float(dk) for dk in self.d[1:]], degree.tolist()
            for i in zero.nonzero()[0].tolist():
                count[i] = _count_above(c, d, degree[i] if per_point else degree, float(x[i]))
            mantissa[zero] = np.nan
        return count, w


@lru_cache(maxsize=1024)
def _levels(brackets, N, steps):
    """Halvings h of a multisection pass over ``brackets`` brackets of degree
    up to ``N``, at most ``steps``: the h that minimises the pass's cost per
    halving, (_PASS_COST + N _STEP_COST + brackets (2^h - 1) N) / h."""
    fixed = _PASS_COST + N * _STEP_COST

    def cost(h):
        return (fixed + brackets * (2 ** h - 1) * N) / h

    h = 1
    while h < steps and cost(h + 1) < cost(h):
        h += 1
    return h


@lru_cache(maxsize=_BISECTION_STEPS)
def _halves(h):
    """Where, as fractions of its bracket, the two edges lie that each
    interior edge i = 1 .. 2^h - 1 of an h-level subtree halves: i - 2^z and
    i + 2^z over 2^h, z the trailing zeros of i."""
    i = np.arange(1, 2 ** h)
    low = i & -i
    return _frozen(np.array([i - low, i + low]) / 2.0 ** h)


# One record per zero still bisecting: its bracket, W_degree at the bracket's
# ends (unknown at -1 and 1), the halvings taken, its j and degree, and its
# place in the output
_ZERO = np.dtype([("lo", float), ("hi", float), ("wlo", complex), ("whi", complex),
                  ("done", np.int64), ("j", np.int64), ("degree", np.int64), ("id", np.int64)])


def _bisect_zeros(cd: CdParams, N: int, degree, j) -> np.ndarray:
    """x of the j-th largest zero of W_degree, for each (degree, j) pair.

    ``N`` is the largest degree asked for.  Each point bisects [-1, 1] on
    whether at least j zeros lie above the midpoint, ``_BISECTION_STEPS``
    times: neighbouring zeros can sit closer than any coarse tolerance near
    support endpoints.  The halvings run in passes, and each pass counts all
    its points in one ``_ArrayCount.count`` call, which also gives W_degree
    at them; a bracket carries W at its ends.

    Every end a bracket can reach t halvings down is the dyadic
    lo + (hi - lo) a / 2^t, for its index a among the 2^t brackets there:
    exact to level 54, and at level 55, where the midpoint of adjacent
    doubles rounds to one of them, rounded as bisection's midpoint is.  So
    each point below is ``0.5 * (lo + hi)`` of two such ends, computed
    without the levels between, and is the double bisection visits.  At
    levels 55 and 56 a midpoint can round onto an end of its bracket;
    bisection then takes that end's decision, and so does a prediction.

    A zero whose bracket holds only it, and across which W changes sign,
    follows a predicted path: the secant of W through the bracket ends
    crosses zero at x_hat, and the next K midpoints are those bisection visits
    if every decision goes toward x_hat, the binary digits of x_hat's place in the
    bracket.  K is the number of halvings the zero has taken, less
    ``_LEAD``.  The zero follows its path down to and including the first
    level whose count disagrees with the prediction, so each decision it
    takes is read at the midpoint bisection visits.  The path's bracket
    below a point that rounds onto an end can shrink to that end where
    bisection's keeps both, but the 56th midpoint and the final
    ``0.5 * (lo + hi)`` are the same doubles.

    Any other bracket, one that several zeros share or with no usable W,
    takes a multisection subtree (Lo, Philippe & Sameh, SIAM J. Sci. Stat.
    Comput. 8 (1987)): the 2^h - 1 interior edges that h halvings can leave,
    each the midpoint of the two edges it halves, and a replay of
    bisection's h decisions (count >= j at the midpoint) from their counts.
    h minimises the pass's cost per halving (``_levels``), and a zero takes a
    path only when K is at least the h of a pass over every bracket.  The
    replay walks level by level, so every zero takes plain bisection's path,
    bit for bit, whether or not the computed count is monotone in x.

    The zeros still bisecting are one ``_ZERO`` record array.  A pass that
    sends them all one way updates it in place; one that splits them
    between paths and subtrees gathers each kind and puts it back.
    """
    if N < 1:
        raise InputError(f"degree must be >= 1, got {N}")
    if cd.n < N:
        raise InputError(f"need {N} coefficients c_1..c_{N}, have {cd.n}")
    kernel = _ArrayCount(cd.c, cd.d, N)
    x = np.empty(len(j))
    degree = np.asarray(degree)
    per_point = degree.ndim != 0
    zeros = np.zeros(len(j), _ZERO)
    zeros["lo"], zeros["hi"] = -1.0, 1.0
    zeros["wlo"] = zeros["whi"] = complex(np.nan, 0.0)
    zeros["j"], zeros["degree"], zeros["id"] = j, degree, np.arange(len(j))
    merge = True
    with _quiet():
        while len(zeros):
            done = zeros["done"]
            # zeros of one bracket (and degree) sit next to each other; they
            # are counted once and take no path.  They are nodes of one
            # bisection tree, so once a pass finds them all distinct only
            # brackets shrunk to a single double could meet again, and the
            # search for equal ones stops
            if merge:
                # cut[i]: zeros i - 1 and i lie in different brackets, with
                # a cut before the first zero and after the last
                lo, hi, cut = zeros["lo"], zeros["hi"], np.ones(len(zeros) + 1, dtype=bool)
                cut[1:-1] = (lo[1:] != lo[:-1]) | (hi[1:] != hi[:-1])
                if per_point:
                    deg = zeros["degree"]
                    cut[1:-1] |= deg[1:] != deg[:-1]
                merge = not cut.all()
            if merge:
                first = cut[:-1].nonzero()[0]
                inverse = cut[:-1].cumsum() - 1
            # a zero takes a path where it is expected to go deeper than a
            # multisection pass over every bracket would.  Where that pass is
            # one halving, plain bisection, a pass costs less than its points
            # and the tail of a path that fails costs more than it saves
            every = _levels(len(first) if merge else len(zeros), N, _BISECTION_STEPS)
            paths = 0
            if every > 1:
                guess = done >= every + _LEAD
                if merge:
                    guess &= cut[:-1] & cut[1:]
                if np.count_nonzero(guess):
                    # W at the upper end over W at the lower end: where it is
                    # negative the secant of W crosses zero in the bracket
                    wlo, whi = zeros["wlo"], zeros["whi"]
                    rho = whi.real / wlo.real * np.exp2(whi.imag - wlo.imag)
                    guess &= rho < 0.0
                    paths = np.count_nonzero(guess)
            # the zeros of each kind: the state itself where a pass takes
            # them all one way, gathered where it splits them
            if paths == 0:
                tree, path = zeros, None
            elif paths == len(zeros):
                tree, path = None, zeros
            else:
                on, off = guess.nonzero()[0], (~guess).nonzero()[0]
                tree, path = zeros.take(off), zeros.take(on)
                rho = rho[on]
            points, degrees = [], []
            m = 0
            if tree is not None:
                if not merge:
                    brackets, rows = tree, np.arange(len(tree))
                elif path is None:
                    brackets, rows = zeros.take(first), inverse
                else:
                    kept = ~guess[first]
                    brackets, rows = zeros.take(first[kept]), (kept.cumsum() - 1)[inverse[off]]
                h = _levels(len(brackets), N, _BISECTION_STEPS - brackets["done"].max())
                width = 2 ** h - 1
                m = len(brackets) * width
                # the two edges each interior edge halves, side by side
                lo = brackets["lo"]
                halved = np.multiply.outer(brackets["hi"] - lo, _halves(h))
                halved += lo[:, None, None]
                mids = np.add(halved[:, 0], halved[:, 1])
                mids *= 0.5
                points.append(mids.ravel())
                degrees.append(brackets["degree"].repeat(width) if per_point else None)
            if path is not None:
                L = path["done"]
                K = _PATH[L]
                ends = K.cumsum()
                starts = ends - K
                # point p is level t + 1 of its path, in the bracket of index
                # a among the 2^t that t halvings leave; the binary digits of
                # u, where the secant crosses zero, are the predicted decisions
                t = np.arange(ends[-1]) - starts.repeat(K)
                scale = _POWERS.take(t)
                u = np.minimum(1.0 / (1.0 - rho), _BELOW_ONE)
                # rows: each point's bracket ends, the point and a
                left, mids, right, a = table = np.empty((4, len(t)))
                v = u.repeat(K) * scale
                bits = v - np.floor(v, a) >= 0.5
                lo = path["lo"]
                base = lo.repeat(K)
                step = (path["hi"] - lo).repeat(K) / scale
                # each end is its dyadic rounded once, as bisection's are
                np.multiply(step, a, left)
                np.add(base, np.add(left, step, right), right)
                left += base
                np.multiply(0.5, np.add(left, right, mids), mids)
                # a midpoint that rounds onto an end takes that end's decision
                bits |= mids == left
                bits &= mids != right
                points.append(mids)
                degrees.append(path["degree"].repeat(K) if per_point else None)
            counts, w = kernel.count(np.concatenate(degrees) if per_point else degree,
                                     np.concatenate(points) if len(points) > 1 else points[0])
            if tree is not None:
                # the bracket between edges a and a + 2^(t+1) halves at edge
                # a + 2^t, whose count sits 2^t - 1 past where edge a + 1's
                # would
                jm = tree["j"]
                offset = at = rows * width
                for t in reversed(range(h)):
                    at = at + (counts[2 ** t - 1:][at] >= jm) * 2 ** t
                # the leaf's edges, of which the interior ones are the
                # count's points; the bracket's own ends keep their W
                leaf = at - offset
                new_lo, new_hi = leaf > 0, leaf < width
                low = at - 1
                tree_points, wt = points[0], w[:m]
                np.copyto(tree["lo"], tree_points[low], where=new_lo)
                np.copyto(tree["hi"], tree_points.take(at, mode="clip"), where=new_hi)
                np.copyto(tree["wlo"], wt[low], where=new_lo)
                np.copyto(tree["whi"], wt.take(at, mode="clip"), where=new_hi)
                tree["done"] += h
            if path is not None:
                above = counts[m:] >= path["j"].repeat(K)
                stop = above != bits
                stop[ends - 1] = True
                at = stop.nonzero()[0]
                s = at[at.searchsorted(starts)]
                ab = above[s]
                left_s, ms, right_s, a_s = table.take(s, axis=1)
                # the end that stays was last moved at s - 1 - z, z the
                # trailing zeros of the bracket's index a[s] (left end) or of
                # a[s] + 1 (right end); a bit above the path's stands for the
                # bracket's own end, which keeps its W
                n = s - starts
                z = np.add(a_s, ab, dtype=np.int64, casting="unsafe") | (1 << n)
                q = s - np.frexp(z & -z)[1]
                moved = q >= starts
                wp = w[m:]
                ws, wq = wp[s], wp[q]
                # the midpoint is the new lower end where the zero lies above
                # it, the new upper end where it lies below; the other end
                # takes W from the point that last moved it
                below = ~ab
                np.copyto(path["lo"], left_s)
                np.copyto(path["hi"], right_s)
                np.copyto(path["lo"], ms, where=ab)
                np.copyto(path["hi"], ms, where=below)
                np.copyto(path["wlo"], wq, where=moved)
                np.copyto(path["whi"], wq, where=moved)
                np.copyto(path["wlo"], ws, where=ab)
                np.copyto(path["whi"], ws, where=below)
                L += n + 1
            if tree is not None and path is not None:
                zeros.put(off, tree)
                zeros.put(on, path)
            end = zeros["done"] == _BISECTION_STEPS
            if np.count_nonzero(end):
                out = zeros.compress(end)
                x[out["id"]] = 0.5 * (out["lo"] + out["hi"])
                zeros = zeros.compress(~end)
    return x


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
