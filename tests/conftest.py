import math

import numpy as np
import pytest

from popuc import CdParams
from popuc.recurrence import _eval_W_grid


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


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
