import cmath
import math
from decimal import Decimal, localcontext

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import popuc as pp
from popuc.recurrence import _bisect_zeros, _count_above, _eval_W_grid

from conftest import (assert_interlacing, plain_bisect_zeros, plain_count_above,
                      random_alpha, random_cd_q)


def chebyshev_cd(n):
    return pp.CdParams.from_sequences(np.zeros(n), np.full(n - 1, 0.25))


class TestEvalR:
    def test_degree_zero_and_one(self):
        cd = chebyshev_cd(4)
        assert pp.eval_R(cd, 0, 0.3 + 0.2j) == 1.0
        z = 0.7 - 0.1j
        assert pp.eval_R(cd, 1, z) == pytest.approx(z + 1.0, rel=1e-15)

    def test_self_reciprocal(self, rng):
        cd, _ = random_cd_q(rng, 100)
        for _ in range(10):
            r = rng.uniform(0.5, 1.5)
            z = r * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
            n = int(rng.integers(1, 101))
            lhs = z ** n * np.conjugate(pp.eval_R(cd, n, 1.0 / np.conjugate(z)))
            rhs = pp.eval_R(cd, n, z)
            assert abs(lhs - rhs) <= 1e-10 * abs(rhs)

    def test_transplant_consistency(self, rng):
        cd, _ = random_cd_q(rng, 60)
        thetas = np.linspace(0.05, 2 * math.pi - 0.05, 25)
        for n in (1, 7, 33, 60):
            for th in thetas:
                r = abs(pp.eval_R(cd, n, cmath.exp(1j * th)))
                w = pp.eval_W(cd, n, math.cos(th / 2))
                assert r == pytest.approx(2.0 ** n * abs(w.value), rel=1e-10, abs=1e-12)

    def test_insufficient_coefficients(self):
        cd = chebyshev_cd(4)
        with pytest.raises(pp.InputError):
            pp.eval_R(cd, 5, 1.0 + 0j)


class TestEvalW:
    def test_degree_one(self):
        cd = chebyshev_cd(3)
        assert pp.eval_W(cd, 1, 0.37).value == pytest.approx(0.37, rel=1e-15)

    def test_chebyshev_zero(self):
        cd = chebyshev_cd(9)
        val = pp.eval_W(cd, 8, math.cos(math.pi / 9))
        assert abs(val.value) < 1e-15

    def test_endpoint_signs(self, rng):
        for _ in range(5):
            cd, _ = random_cd_q(rng, 200)
            for n in (1, 2, 17, 100, 200):
                assert pp.eval_W(cd, n, 1.0).sign > 0
                assert (-1) ** n * pp.eval_W(cd, n, -1.0).sign > 0

    def test_scaled_representation_avoids_overflow(self):
        n = 3000
        cd = pp.CdParams.from_sequences(np.full(n, 3.0),
                                        pp.ChainSeq.constant(0.2, horizon=n - 1))
        val = pp.eval_W(cd, n, -0.95)
        assert math.isfinite(val.mantissa) and val.mantissa != 0.0
        assert val.log2_abs > 1200  # far beyond double range

    def test_domain_validation(self):
        with pytest.raises(pp.InputError):
            pp.eval_W(chebyshev_cd(3), 2, 1.5)


class TestZerosW:
    def test_chebyshev_degree_five(self):
        zl = pp.zeros_W(chebyshev_cd(5), 5)
        expect = np.cos(np.arange(1, 6) * math.pi / 6)
        np.testing.assert_allclose(zl.x, expect, atol=1e-12)

    def test_chebyshev_family(self):
        for n in (1, 2, 3, 10, 35):
            zl = pp.zeros_W(chebyshev_cd(n), n)
            expect = np.cos(np.arange(1, n + 1) * math.pi / (n + 1))
            np.testing.assert_allclose(zl.x, expect, atol=1e-10)

    def test_theta_consistency(self, rng):
        cd, _ = random_cd_q(rng, 25)
        zl = pp.zeros_W(cd, 25)
        np.testing.assert_allclose(zl.theta, 2 * np.arccos(zl.x), atol=1e-15)
        assert np.all(np.diff(zl.theta) > 0)

    def test_extreme_zero_table_values(self):
        # tabulated extreme zeros of the lam-eta families
        cd = pp.cd_from_verblunsky(pp.VerblunskySeq.lambda_eta(1.0, 1.0, horizon=10))
        zl = pp.zeros_W(cd, 10)
        assert zl.theta[0] == pytest.approx(0.4972376, abs=1e-6)
        assert zl.theta[-1] == pytest.approx(5.1944808, abs=1e-6)
        cd = pp.cd_from_verblunsky(
            pp.VerblunskySeq.lambda_eta(10.0, 0.01, horizon=50))
        zl = pp.zeros_W(cd, 50)
        assert zl.theta[0] == pytest.approx(0.4949570, abs=1e-6)
        assert zl.theta[-1] == pytest.approx(5.7874076, abs=1e-6)

    def test_interlacing_random_instances(self, rng):
        for _ in range(4):
            n = int(rng.integers(20, 101))
            cd, _ = random_cd_q(rng, n)
            assert_interlacing(cd, pp.zeros_ladder(cd, n))

    def test_interlacing_smooth_family_is_fully_strict(self):
        # full-support family: no zero clustering, ladder strictly interlaced
        cd = pp.cd_from_verblunsky(pp.VerblunskySeq.lambda_eta(1.0, 1.0, horizon=60))
        ladder = pp.zeros_ladder(cd, 60)
        for lower, upper in zip(ladder[:-1], ladder[1:]):
            merged = np.empty(len(lower) + len(upper))
            merged[0::2] = upper
            merged[1::2] = lower
            assert np.all(np.diff(merged) > 0)

    def test_grid_scan_oracle(self, rng):
        # independent oracle: sign changes on a fine grid, refined by local
        # bisection inside each grid bracket
        for _ in range(4):
            n = int(rng.integers(5, 31))
            cd, _ = random_cd_q(rng, n)
            zl = pp.zeros_W(cd, n)
            grid = np.linspace(-1.0, 1.0, 100_001)
            mant, _ = _eval_W_grid(cd.c, cd.d.values, n, grid)
            sign = np.sign(mant)
            flips = np.nonzero(sign[:-1] * sign[1:] < 0)[0]
            assert len(flips) == n
            lo = grid[flips].copy()
            hi = grid[flips + 1].copy()
            for _ in range(40):
                mid = 0.5 * (lo + hi)
                sm = np.sign(_eval_W_grid(cd.c, cd.d.values, n, mid)[0])
                slo = np.sign(_eval_W_grid(cd.c, cd.d.values, n, lo)[0])
                take = sm == slo
                lo = np.where(take, mid, lo)
                hi = np.where(take, hi, mid)
            oracle = 0.5 * (lo + hi)
            np.testing.assert_allclose(zl.x[::-1], oracle, atol=1e-6)

    def test_zero_gap_arcs_constant_family(self):
        # real constant family with support away from z = 1: no zeros in the
        # closed arcs flanking the gap
        cd = pp.cd_from_verblunsky(pp.VerblunskySeq.geronimus(-0.5, horizon=50))
        eps = 1e-6
        for n in range(1, 51):
            zl = pp.zeros_R(cd, n)
            assert pp.count_zeros_in_arc(zl, (0.0, math.pi / 3 - eps)) == 0
            assert pp.count_zeros_in_arc(
                zl, (5 * math.pi / 3 + eps, 2 * math.pi)) == 0
            assert zl.theta[0] > math.pi / 3 - eps


def _sign_W(c, d, n, x, one, sqrt):
    """Sign of W_n(x) from the product recurrence, in the arithmetic of the
    numbers ``c``, ``d`` and ``x`` (``one`` is 1 and ``sqrt`` the root in it)."""
    s = sqrt(1 - x * x)
    w_prev, w = one, x - c[0] * s
    for ck, dk in zip(c[1:n], d):
        w, w_prev = (x - ck * s) * w - dk * w_prev, w
    return (w > 0) - (w < 0)


def dec_sign_W(c, d, n, x):
    """``_sign_W`` on lists of Decimal, in the current decimal context."""
    return _sign_W(c, d, n, x, Decimal(1), Decimal.sqrt)


def mp_sign_W(c, d, n, x):
    """``_sign_W`` on lists of mpf, at the current mpmath precision."""
    return _sign_W(c, d, n, x, mpmath.mpf(1), mpmath.sqrt)


ORACLE_SOURCES = {
    "lambda-eta": pp.VerblunskySeq.lambda_eta(1.0, 1.0),
    "geronimus": pp.VerblunskySeq.geronimus(-0.5),
    "alternating": pp.VerblunskySeq.alternating(0.6, 0.6, 0.5),
}


class TestZerosOracle:
    @pytest.mark.parametrize("N", [300, 1000])
    @pytest.mark.parametrize("source", ["random", *ORACLE_SOURCES])
    def test_sign_change_at_every_zero(self, rng, source, N):
        # every zero must separate opposite signs of W_N evaluated in 40
        # decimal digits at x +- 1e-9 (doubles convert to Decimal exactly)
        if source == "random":
            cd, _ = random_cd_q(rng, N)
        else:
            cd = pp.cd_from_verblunsky(ORACLE_SOURCES[source], n_terms=N)
        zl = pp.zeros_W(cd, N)
        with localcontext() as ctx:
            ctx.prec = 40
            c = [Decimal(v) for v in cd.c.tolist()]
            d = [Decimal(v) for v in cd.d.values.tolist()]
            eps = Decimal("1e-9")
            for j, x in enumerate(zl.x.tolist(), start=1):
                x = Decimal(x)
                above = dec_sign_W(c, d, N, x + eps)
                below = dec_sign_W(c, d, N, x - eps)
                assert above * below < 0, f"no sign change at zero {j} of W_{N}"

    def test_decimal_oracle_matches_mpmath(self, rng):
        # the decimal oracle above against mpmath at the same 40 digits, at
        # every zero +- 1e-9 and at 50 random points
        N = 300
        cd, _ = random_cd_q(rng, N)
        xs = pp.zeros_W(cd, N).x.tolist()
        points = [(x, sgn) for x in xs for sgn in (1, -1)]
        points += [(x, 0) for x in rng.uniform(-1.0, 1.0, 50).tolist()]
        with localcontext() as ctx, mpmath.workdps(40):
            ctx.prec = 40
            c_dec = [Decimal(v) for v in cd.c.tolist()]
            d_dec = [Decimal(v) for v in cd.d.values.tolist()]
            c_mp = [mpmath.mpf(v) for v in cd.c.tolist()]
            d_mp = [mpmath.mpf(v) for v in cd.d.values.tolist()]
            for x, sgn in points:
                got = dec_sign_W(c_dec, d_dec, N, Decimal(x) + sgn * Decimal("1e-9"))
                ref = mp_sign_W(c_mp, d_mp, N, mpmath.mpf(x) + sgn * mpmath.mpf("1e-9"))
                assert got == ref != 0, f"oracles disagree at x = {x!r} {sgn:+d}e-9"


class TestCountAbove:
    def test_float_and_array_agree(self, rng):
        cd, _ = random_cd_q(rng, 60)
        c, d = cd.c.tolist(), cd.d.values.tolist()
        xs = np.concatenate((rng.uniform(-1.0, 1.0, 40), pp.zeros_W(cd, 60).x,
                             [-1.0, 0.0, 1.0]))
        counts = {}
        for n in (1, 2, 17, 60):
            counts[n] = _count_above(c, d, n, xs)
            assert [_count_above(c, d, n, x) for x in xs.tolist()] == counts[n].tolist()
        # one degree per point reads each count off the same pass
        mixed = np.resize([1, 2, 17, 60], len(xs))
        np.testing.assert_array_equal(
            _count_above(c, d, mixed, xs),
            [counts[n][i] for i, n in enumerate(mixed.tolist())])

    def test_counts_zeros_above(self):
        c, d = [0.0] * 9, [0.25] * 8
        zeros = np.cos(np.arange(1, 10) * math.pi / 10)
        assert _count_above(c, d, 9, 1.0) == 0
        assert _count_above(c, d, 9, -1.0) == 9
        mids = 0.5 * (zeros[:-1] + zeros[1:])
        np.testing.assert_array_equal(_count_above(c, d, 9, mids), np.arange(1, 9))
        # x = 0 is an exact zero of every odd degree; the zero-ratio guard
        # keeps the float path from dividing by zero and counts it as not above
        assert [_count_above(c, d, n, 0.0) for n in range(1, 10)] == \
            [n // 2 for n in range(1, 10)]


def alpha_cd(alpha):
    return pp.cd_from_verblunsky(pp.VerblunskySeq.from_values(alpha), n_terms=len(alpha))


def ladder_points(rng, N, size):
    """``size`` (degree, j) pairs with 1 <= j <= degree <= N, N among them."""
    degree = rng.integers(1, N + 1, size)
    degree[0] = N
    return degree, 1 + (rng.random(size) * degree).astype(int)


def assert_bits_equal(got, want):
    np.testing.assert_array_equal(np.asarray(got).view(np.int64),
                                  np.asarray(want).view(np.int64))


class TestMultisection:
    """``_bisect_zeros`` and the blocked count against the plain 56-pass
    bisection and the per-step count, bit for bit."""

    @staticmethod
    def assert_same_zeros(cd, N, degree, j):
        assert_bits_equal(_bisect_zeros(cd, N, degree, j),
                          plain_bisect_zeros(cd, N, degree, j))

    @settings(max_examples=50, deadline=None)
    @given(N=st.integers(1, 200), seed=st.integers(0, 2 ** 32 - 1),
           source=st.sampled_from(["alpha", "cd"]), per_point=st.booleans())
    def test_matches_plain_bisection(self, N, seed, source, per_point):
        rng = np.random.default_rng(seed)
        cd = (alpha_cd(random_alpha(rng, N)) if source == "alpha"
              else random_cd_q(rng, N)[0])
        if per_point:
            degree, j = ladder_points(rng, N, 2 * N)
        else:
            degree, j = N, np.arange(1, N + 1)
        self.assert_same_zeros(cd, N, degree, j)

    @pytest.mark.parametrize("N", [30, 31, 32, 65])
    def test_quarter_chain_zero_ratios(self, N):
        # c = 0, d = 1/4: the first midpoint x = 0 gives r_1 = 0 exactly, and
        # 0 is a zero of every odd degree
        cd = chebyshev_cd(N)
        self.assert_same_zeros(cd, N, N, np.arange(1, N + 1))
        sizes = np.arange(1, N + 1)
        degree = np.repeat(sizes, sizes)
        j = np.arange(len(degree)) - degree * (degree - 1) // 2 + 1
        self.assert_same_zeros(cd, N, degree, j)

    @pytest.mark.parametrize("alpha", [
        # within 1e-15 of the circle: every d_n below 3e-14
        0.999999999999999 * np.exp(2j * np.pi * np.linspace(0.05, 0.95, 40)),
        # a subnormal alpha_0 gives r_1 = 5e-324 at x = 0, and d_2 / r_1
        # overflows
        np.array([5e-324j, 0.0]),
        np.array([5e-324j, 0.3, -0.2 + 0.1j, 0.5]),
    ], ids=["near-circle", "subnormal-2", "subnormal-4"])
    def test_extreme_ratios(self, alpha):
        N = len(alpha)
        self.assert_same_zeros(alpha_cd(alpha), N, N, np.arange(1, N + 1))

    @pytest.mark.parametrize("top", [63, 64, 65, 129])
    def test_block_edges(self, rng, top):
        cd = alpha_cd(random_alpha(rng, top))
        self.assert_same_zeros(cd, top, top, np.arange(1, top + 1))
        self.assert_same_zeros(cd, top, *ladder_points(rng, top, 3 * top))

    @pytest.mark.parametrize("top, k", [(top, k) for top in (63, 64, 65, 129)
                                        for k in (1, 2, 63, 64, 65, 66, 129) if k <= top])
    def test_zero_ratio_at_block_edges(self, rng, top, k):
        # c_k = d_k = 0 makes r_k = 0 exactly at x = 0; the blocked count
        # divides by it and must count that point again with the guard
        c = rng.uniform(-2.0, 2.0, top)
        d = rng.uniform(0.05, 0.25, top - 1)
        c[k - 1] = 0.0
        if k > 1:
            d[k - 2] = 0.0
        c, d = c.tolist(), d.tolist()
        xs = np.concatenate(([0.0], rng.uniform(-1.0, 1.0, 40), [-0.0, 1.0, -1.0]))
        assert_bits_equal(_count_above(c, d, top, xs), plain_count_above(c, d, top, xs))
        degree = rng.integers(1, top + 1, len(xs))
        assert_bits_equal(_count_above(c, d, degree, xs),
                          plain_count_above(c, d, degree, xs))


class TestZerosR:
    def test_degree_two_symmetric(self):
        zl = pp.zeros_R(chebyshev_cd(2), 2)
        np.testing.assert_allclose(zl.theta, [2 * math.pi / 3, 4 * math.pi / 3],
                                   atol=1e-12)

    def test_table_three_row(self):
        cd = pp.cd_from_verblunsky(
            pp.VerblunskySeq.lambda_eta(-0.25, 1.0, horizon=15))
        zl = pp.zeros_R(cd, 15)
        assert zl.theta[0] == pytest.approx(0.1358499, abs=1e-6)
        assert zl.theta[-1] == pytest.approx(5.5600926, abs=1e-6)

    def test_circle_interlacing(self, rng):
        cd, _ = random_cd_q(rng, 40)
        prev = pp.zeros_R(cd, 39).theta
        cur = pp.zeros_R(cd, 40).theta
        merged = np.sort(np.concatenate([prev, cur]))
        # strict interlacing on the circle: angles alternate between degrees
        np.testing.assert_allclose(merged[1::2], prev, atol=0)
        np.testing.assert_allclose(merged[0::2], cur, atol=0)


class TestCountZerosInArc:
    def test_degenerate_and_full(self):
        zl = pp.zeros_R(chebyshev_cd(7), 7)
        assert pp.count_zeros_in_arc(zl, (1.0, 1.0)) == 0
        assert pp.count_zeros_in_arc(zl, (0.0, 2 * math.pi)) == 7

    def test_wraparound(self):
        zl = pp.zeros_R(chebyshev_cd(4), 4)
        # the degree-4 symmetric zeros sit at 2*arccos(cos(j pi / 5))
        inside = pp.count_zeros_in_arc(zl, (zl.theta[-1] - 0.01,
                                            2 * math.pi + zl.theta[0] + 0.01))
        assert inside == 2

    def test_open_versus_closed(self):
        zl = pp.zeros_R(chebyshev_cd(3), 3)
        th = zl.theta[1]
        assert pp.count_zeros_in_arc(zl, (th, th + 0.01, True)) == 1
        assert pp.count_zeros_in_arc(zl, (th, th + 0.01, False)) == 0

    def test_arc_object(self):
        zl = pp.zeros_R(chebyshev_cd(5), 5)
        arc = pp.Arc.normalized(zl.theta[0] - 0.01, zl.theta[2] + 0.01)
        assert pp.count_zeros_in_arc(zl, arc) == 3
