import math
import warnings
from itertools import chain, repeat

import numpy as np
import pytest

from popuc import CdParams, InputError, chainseq
from popuc.bounds import _roots
from popuc.recurrence import _BISECTION_STEPS, _TINY, _ArrayCount, _bisect_zeros, _quiet

# Rescale the running recurrence pair every this many steps to keep the
# magnitudes representable; growth per step is bounded by ~(1 + |c| + 1).
_RESCALE_EVERY = 32


def random_alpha(rng, n, rmax=0.9):
    """n coefficients with modulus below rmax, uniform in modulus and phase."""
    mod = rng.uniform(0.0, rmax, n)
    phase = rng.uniform(0.0, 2.0 * np.pi, n)
    return mod * np.exp(1j * phase)


def one_term_roots(a, b, q):
    """``bounds._roots`` on one-term arrays, as the pair (u^(-), u^(+))."""
    with np.errstate(all="ignore"):  # q = 1 divides by zero
        u = _roots(*np.array([[a], [b], [q]], dtype=float))
    return float(u[0, 0]), float(u[1, 0])


def ultraspherical_d(lam, count):
    """d_2 .. d_{count+1} of the ultraspherical chain sequence (lam >= -1/2),

        d_{n+1} = n (n + 2 lam + 1) / (4 (n + lam)(n + lam + 1)),

    the d of every lambda-eta source."""
    n = np.arange(1, count + 1, dtype=float)
    return 0.25 * n * (n + 2 * lam + 1) / ((n + lam) * (n + lam + 1))


def random_cd_q(rng, n, trivial_prob=0.2):
    """Random (cd, q) pair with q a valid scaling by construction.

    Draws a dominant chain sequence dhat from interior parameters and sets
    d = q * dhat termwise, so d <= dhat is a chain sequence and d / q = dhat
    exactly.
    """
    h = rng.uniform(0.15, 0.85, n)
    dhat = (1.0 - h[:-1]) * h[1:]
    if rng.random() < trivial_prob:
        q = np.ones(n - 1)
    else:
        q = rng.uniform(0.3, 1.0, n - 1)
    d = q * dhat
    c = rng.uniform(-2.5, 2.5, n)
    return CdParams.from_sequences(c, d), q


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


def below_noise_floor(cd, degree, points):
    """True where the evaluated |W_degree(point)| is under its rounding noise.

    At such points the sign, and hence the exact zero ordering, is not
    decidable in double precision.
    """
    m, e, pk = _eval_W_grid(cd.c, cd.d, degree,
                            np.asarray(points, dtype=float), track_peak=True)
    with np.errstate(divide="ignore"):
        level = np.log2(np.abs(m)) + e
    return (m == 0.0) | (level <= pk - 52.0 + math.log2(32.0 * degree * degree) + 6.0)


def _bisect_degrees(cd, N, degrees):
    """x of the zeros of W_n, descending, for each n of ``degrees`` (none
    above N), all bisected in one pass, one point per (n, j) pair: the count
    for degree n is the count for N stopped after n steps."""
    degree = np.repeat(degrees, degrees)
    ends = np.cumsum(degrees)
    j = np.arange(len(degree)) - np.repeat(ends - degrees, degrees) + 1
    return np.split(_bisect_zeros(cd, N, degree, j), ends[:-1])


def zeros_ladder(cd, N):
    """Zeros (ascending in x) of every member W_1 .. W_N, bisected in one pass."""
    return [level[::-1] for level in _bisect_degrees(cd, N, np.arange(1, N + 1))]


def assert_interlacing(cd, ladder):
    """Zero ladders interlace strictly up to double-precision resolution.

    Consecutive-degree zeros must never cross; exact ties are permitted only
    where both degrees evaluate below their noise floors, i.e. where the true
    (strict) ordering is numerically undecidable.
    """
    for level, (lower, upper) in enumerate(zip(ladder, ladder[1:]), start=1):
        merged = np.empty(len(lower) + len(upper))
        merged[0::2] = upper
        merged[1::2] = lower
        diffs = np.diff(merged)
        assert np.all(diffs >= 0.0), f"zeros crossed between degrees {level}, {level + 1}"
        ties = merged[np.nonzero(diffs == 0.0)[0]]
        if len(ties) == 0:
            continue
        for degree in (level, level + 1):
            quiet = below_noise_floor(cd, degree, ties)
            assert quiet.all(), \
                f"resolvable tie at degree {degree}, x={ties[np.argmin(quiet)]}"


def array_count_above(c, d, degree, x):
    """``recurrence._ArrayCount`` made for one call: the counts at ``x``."""
    with _quiet():
        return _ArrayCount(c, d, int(np.max(degree))).count(degree, x)[0]


def plain_count_above(c, d, degree, x):
    """Number of zeros of W_degree above ``x``, one ratio step at a time.

    The oracle, on a float or an array of points with one degree or one
    degree per point, that the library's two counts must match bit for bit:
    ``recurrence._count_above`` on a float, ``array_count_above`` on arrays.
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


def plain_bisect_zeros(cd, N, degree, j):
    """x of the j-th largest zero of W_degree by one count per halving.

    Plain bisection, ``_BISECTION_STEPS`` passes over ``plain_count_above``:
    the oracle for the multisection in ``recurrence._bisect_zeros``.
    """
    if N < 1:
        raise InputError(f"degree must be >= 1, got {N}")
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
            above = plain_count_above(cd.c, cd.d, degree, mid) >= j
            lo = np.where(above, mid, lo)
            hi = np.where(above, hi, mid)
    return 0.5 * (lo + hi)


def plain_forward_params(d, head=0.0, scale=None):
    """g_1 = head, g_{n+1} = d_{n+1} / (s_{n+1} (1 - g_n)), one step at a time.

    The oracle that ``chainseq._forward_params`` must match bit for bit,
    returning the same ``(g, n)``: g up to and including the first g_{n+1}
    outside (0, 1), whose position in g is n, or the whole walk with n = None.
    """
    g = np.empty(len(d) + 1)
    g[0] = prev = float(head)
    steps = zip(np.asarray(d).tolist(),
                repeat(1.0) if scale is None else np.asarray(scale).tolist())
    for n, (dn, sn) in enumerate(steps, start=1):
        prev = dn / (sn * (1.0 - prev))
        g[n] = prev
        if not 0.0 < prev < 1.0:
            return g[:n + 1], n
    return g, None


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def _counted_walks(monkeypatch, name):
    """Lengths of the chain sequences that ``chainseq.<name>`` walks."""
    lengths = []
    walk = getattr(chainseq, name)

    def counted(d):
        lengths.append(len(d))
        return walk(d)

    monkeypatch.setattr(chainseq, name, counted)
    return lengths


@pytest.fixture
def walks(monkeypatch):
    """Lengths of the chain sequences walked by the minimal-parameter test."""
    return _counted_walks(monkeypatch, "_minimal_raw")


@pytest.fixture
def maximal_walks(monkeypatch):
    """Lengths of the chain sequences walked for their maximal parameters."""
    return _counted_walks(monkeypatch, "_backward_maximal")
