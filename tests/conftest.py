import math
import warnings
from itertools import chain, repeat

import numpy as np
import pytest

from popuc import CdParams, InputError, chainseq
from popuc.recurrence import _BISECTION_STEPS, _TINY, _coeffs, _eval_W_grid


def random_alpha(rng, n, rmax=0.9):
    """n coefficients with modulus below rmax, uniform in modulus and phase."""
    mod = rng.uniform(0.0, rmax, n)
    phase = rng.uniform(0.0, 2.0 * np.pi, n)
    return mod * np.exp(1j * phase)


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


def below_noise_floor(cd, degree, points):
    """True where the evaluated |W_degree(point)| is under its rounding noise.

    At such points the sign, and hence the exact zero ordering, is not
    decidable in double precision.
    """
    m, e, pk = _eval_W_grid(cd.c, cd.d.values, degree,
                            np.asarray(points, dtype=float), track_peak=True)
    with np.errstate(divide="ignore"):
        level = np.log2(np.abs(m)) + e
    return (m == 0.0) | (level <= pk - 52.0 + math.log2(32.0 * degree * degree) + 6.0)


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


def plain_count_above(c, d, degree, x):
    """Number of zeros of W_degree above ``x``, one ratio step at a time.

    The oracle that ``recurrence._count_above`` must match bit for bit, on a
    float or an array of points with one degree or one degree per point.
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
            above = plain_count_above(c, d, degree, mid) >= j
            lo = np.where(above, mid, lo)
            hi = np.where(above, hi, mid)
    return 0.5 * (lo + hi)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def walks(monkeypatch):
    """Lengths of the chain sequences walked by the minimal-parameter test."""
    lengths = []
    walk = chainseq._minimal_raw

    def counted(d):
        lengths.append(len(d))
        return walk(d)

    monkeypatch.setattr(chainseq, "_minimal_raw", counted)
    return lengths
