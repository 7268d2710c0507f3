import io
import json
import math
from decimal import Decimal, localcontext
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import popuc as pp
from popuc import cli, recurrence
from popuc.recurrence import _bisect_zeros, _count_above, extreme_zeros

from conftest import (_eval_W_grid, array_count_above, assert_interlacing, plain_bisect_zeros,
                      plain_count_above, random_alpha, random_cd_q, zeros_ladder)

GOLDEN = Path(__file__).parent / "golden"


def chebyshev_cd(n):
    return pp.CdParams.from_sequences(np.zeros(n), np.full(n - 1, 0.25))


class TestEvalW:
    """The W_n oracle that the zero tests check against."""

    def test_chebyshev_zero(self):
        cd = chebyshev_cd(9)
        mant, exp2 = _eval_W_grid(cd.c, cd.d, 8, np.array([math.cos(math.pi / 9)]))
        assert abs(math.ldexp(mant[0], int(exp2[0]))) < 1e-15

    def test_endpoint_signs(self, rng):
        for _ in range(5):
            cd, _ = random_cd_q(rng, 200)
            for n in (1, 2, 17, 100, 200):
                mant, _ = _eval_W_grid(cd.c, cd.d, n, np.array([1.0, -1.0]))
                assert mant[0] > 0
                assert (-1) ** n * np.sign(mant[1]) > 0

    def test_scaled_representation_avoids_overflow(self):
        n = 3000
        cd = pp.CdParams.from_sequences(np.full(n, 3.0), np.full(n - 1, 0.2))
        mant, exp2 = _eval_W_grid(cd.c, cd.d, n, np.array([-0.95]))
        assert math.isfinite(mant[0]) and mant[0] != 0.0
        assert math.log2(abs(mant[0])) + exp2[0] > 1200  # far beyond double range


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

    def test_degree_needs_its_coefficients(self):
        # zeros_W and extreme_zeros are public: a degree past the source's
        # coefficients, or below 1, is an input error, not an array mismatch
        cd = chebyshev_cd(3)
        for call in (lambda: pp.zeros_W(cd, 4), lambda: extreme_zeros(cd, [2, 4]),
                     lambda: pp.zeros_W(cd, 0)):
            with pytest.raises(pp.InputError):
                call()
        assert len(pp.zeros_W(cd, 3).x) == 3

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

    @pytest.mark.parametrize("degrees", [[10, 15, 30, 50], [1, 7, 2, 40]])
    def test_extreme_zeros_bits(self, rng, degrees):
        # one bisection for every degree gives the first and last zero of
        # each zeros_W bit for bit
        cd, _ = random_cd_q(rng, 50)
        x = extreme_zeros(cd, degrees)
        assert x.shape == (len(degrees), 2)
        for N, pair in zip(degrees, x):
            assert_bits_equal(pair, pp.zeros_W(cd, N).x[[0, -1]])

    @pytest.mark.parametrize("degrees, N, j", [([5, 6, 7], 6, 6), ([2, 9], 9, 1)])
    def test_extreme_zeros_unresolvable(self, degrees, N, j):
        # d alternates 1 and 2e-31: zeros round to x = +-1 from degree 6 on
        alpha = pp.VerblunskySeq.alternating(1 - 1e-15, -(1 - 1e-15), 0.0)
        cd = pp.cd_from_verblunsky(alpha, n_terms=12)
        with pytest.raises(pp.BoundaryCaseError) as exc:
            extreme_zeros(cd, degrees)
        assert exc.value.index == j and f"of degree {N} is not" in str(exc.value)

    def test_extreme_zeros_tie(self):
        # d_2 = 1e-40 puts both zeros of W_2 within 1e-20 of each other: they
        # bisect to one double, and the pair is out of order as zeros_W finds
        cd = pp.CdParams.from_sequences([0.3, 0.3], [1e-40])
        errors = []
        for call in (lambda: extreme_zeros(cd, [1, 2]), lambda: pp.zeros_W(cd, 2)):
            with pytest.raises(pp.BoundaryCaseError) as exc:
                call()
            errors.append((exc.value.index, str(exc.value)))
        assert errors[0] == errors[1] and errors[0][0] == 2

    def test_interlacing_random_instances(self, rng):
        for _ in range(4):
            n = int(rng.integers(20, 101))
            cd, _ = random_cd_q(rng, n)
            assert_interlacing(cd, zeros_ladder(cd, n))

    def test_interlacing_smooth_family_is_fully_strict(self):
        # full-support family: no zero clustering, ladder strictly interlaced
        cd = pp.cd_from_verblunsky(pp.VerblunskySeq.lambda_eta(1.0, 1.0, horizon=60))
        ladder = zeros_ladder(cd, 60)
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
            mant, _ = _eval_W_grid(cd.c, cd.d, n, grid)
            sign = np.sign(mant)
            flips = np.nonzero(sign[:-1] * sign[1:] < 0)[0]
            assert len(flips) == n
            lo = grid[flips].copy()
            hi = grid[flips + 1].copy()
            for _ in range(40):
                mid = 0.5 * (lo + hi)
                sm = np.sign(_eval_W_grid(cd.c, cd.d, n, mid)[0])
                slo = np.sign(_eval_W_grid(cd.c, cd.d, n, lo)[0])
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
            assert np.count_nonzero(zl.theta <= math.pi / 3 - eps) == 0
            assert np.count_nonzero(zl.theta >= 5 * math.pi / 3 + eps) == 0
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
            d = [Decimal(v) for v in cd.d.tolist()]
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
            d_dec = [Decimal(v) for v in cd.d.tolist()]
            c_mp = [mpmath.mpf(v) for v in cd.c.tolist()]
            d_mp = [mpmath.mpf(v) for v in cd.d.tolist()]
            for x, sgn in points:
                got = dec_sign_W(c_dec, d_dec, N, Decimal(x) + sgn * Decimal("1e-9"))
                ref = mp_sign_W(c_mp, d_mp, N, mpmath.mpf(x) + sgn * mpmath.mpf("1e-9"))
                assert got == ref != 0, f"oracles disagree at x = {x!r} {sgn:+d}e-9"


class TestCountAbove:
    def test_float_and_array_agree(self, rng):
        cd, _ = random_cd_q(rng, 60)
        c, d = cd.c.tolist(), cd.d.tolist()
        xs = np.concatenate((rng.uniform(-1.0, 1.0, 40), pp.zeros_W(cd, 60).x,
                             [-1.0, 0.0, 1.0]))
        counts = {}
        for n in (1, 2, 17, 60):
            counts[n] = array_count_above(c, d, n, xs)
            assert [_count_above(c, d, n, x) for x in xs.tolist()] == counts[n].tolist()
        # one degree per point reads each count off the same pass
        mixed = np.resize([1, 2, 17, 60], len(xs))
        np.testing.assert_array_equal(
            array_count_above(c, d, mixed, xs),
            [counts[n][i] for i, n in enumerate(mixed.tolist())])

    def test_counts_zeros_above(self):
        c, d = [0.0] * 9, [0.25] * 8
        zeros = np.cos(np.arange(1, 10) * math.pi / 10)
        assert _count_above(c, d, 9, 1.0) == 0
        assert _count_above(c, d, 9, -1.0) == 9
        mids = 0.5 * (zeros[:-1] + zeros[1:])
        np.testing.assert_array_equal(array_count_above(c, d, 9, mids), np.arange(1, 9))
        # x = 0 is an exact zero of every odd degree; the zero-ratio guard
        # keeps the float path from dividing by zero and counts it as not above
        assert [_count_above(c, d, n, 0.0) for n in range(1, 10)] == \
            [n // 2 for n in range(1, 10)]

    def test_product_underflow_to_negative_zero(self):
        # c_1 s underflows to -0.0 wherever s < 1/2, and is -0.0 outright at
        # x = +-1; the array count's einsum gives +0.0 there.  x - c_1 s is x
        # either way, so the counts agree
        c, d = [-5e-324, -1e-300, 0.3, -0.0], [0.2, 0.25, 0.1]
        xs = np.array([1.0, -1.0, 1 - 2.0 ** -53, -1 + 2.0 ** -53, 0.9, -0.95])
        s = np.sqrt(1.0 - xs * xs)
        assert (np.signbit(c[0] * s) & (c[0] * s == 0.0)).all()
        for n in range(1, 5):
            want = [_count_above(c, d, n, x) for x in xs.tolist()]
            assert array_count_above(c, d, n, xs).tolist() == want
            assert plain_count_above(c, d, n, xs).tolist() == want

    @pytest.mark.parametrize("c1", [-0.0, 0.0, 0.3])
    def test_negative_zero_x(self, c1):
        # x = -0.0 gives s = 1.  With c_1 = -0.0 the step loop forms
        # x - c_1 s = +0.0 and the einsum block -0.0: a zero ratio either way,
        # which the array count counts again on Python floats
        c, d = [c1, 0.2, -0.1], [0.25, 0.1]
        xs = np.array([-0.0, 0.0, -0.0])
        for n in range(1, 4):
            want = [_count_above(c, d, n, x) for x in xs.tolist()]
            assert want[0] == _count_above(c, d, n, -0.0)
            assert array_count_above(c, d, n, xs).tolist() == want
            assert array_count_above(c, d, np.full(len(xs), n), xs).tolist() == want
            assert plain_count_above(c, d, n, xs).tolist() == want


    def test_subnormal_negative_ratio(self):
        # c_1 = 5e-324 at x = 0 makes r_1 = -5e-324: below zero, so it counts;
        # only a ratio that is exactly zero becomes _TINY
        c, d = [5e-324], []
        xs = np.array([0.0, -0.0])
        assert _count_above(c, d, 1, 0.0) == 1
        assert array_count_above(c, d, 1, xs).tolist() == [1, 1]
        assert plain_count_above(c, d, 1, xs).tolist() == [1, 1]


class TestTinyRatio:
    """A ratio that rounds to zero becomes ``_TINY`` = 1e-100.  On c = (0, -1),
    d = (1e-200), r_1 = 0 at x = 0, and r_2 = 1 - 1e-200 / _TINY keeps the
    sign of 1: the count at x = 0 misses the zero of W_2 near 1e-200, which
    lies inside the final 2^-55 bracket.  These pin that behaviour, so a
    different ``_TINY`` shows."""

    c, d = [0.0, -1.0], [1e-200]

    def test_counts_near_the_tiny_zero(self):
        xs = [0.0, 1e-300, -1e-17]
        assert [_count_above(self.c, self.d, 2, x) for x in xs] == [0, 1, 1]
        assert array_count_above(self.c, self.d, 2, np.array(xs)).tolist() == [0, 1, 1]

    def test_top_zero_of_degree_two(self, tmp_path):
        src = tmp_path / "tiny.json"
        src.write_text(json.dumps({"cd": {"c": self.c, "d": self.d}}))
        out, err = io.StringIO(), io.StringIO()
        assert cli.main(["zeros", "--input", str(src), "--n", "2"],
                        stdout=out, stderr=err) == 0
        assert out.getvalue() == ("N,j,theta,x\n"
                                  "2,1,3.141592653589793,-1.3877787807814457e-17\n"
                                  "2,2,4.71238898038469,-0.7071067811865475\n")


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


def pencil_eigenvalues(c, d, n):
    """Eigenvalues of the degree-n pencil (A, B): A with c_k on its diagonal,
    -i sqrt(d_{k+1}) above it and i sqrt(d_{k+1}) below it, and
    B = tridiag(sqrt d, 1, sqrt d), as those of L^-1 A L^-H with B = L L^H."""
    root = np.sqrt(np.asarray(d[:n - 1], dtype=float))
    A = np.diag(np.asarray(c[:n], dtype=complex)) + np.diag(-1j * root, 1) + np.diag(1j * root, -1)
    L = np.linalg.cholesky(np.eye(n) + np.diag(root, 1) + np.diag(root, -1))
    M = np.linalg.solve(L, np.linalg.solve(L, A).conj().T)
    return np.linalg.eigvalsh(M)


class TestPencilOracle:
    """The r_k / s are the pivots of t B - A at t = x / s, so by Sylvester's
    law of inertia the count is the number of pencil eigenvalues above t
    (Ismail & Masson 1995; Zhedanov 1999): an oracle for both counts that
    shares no code with the ratio recursion."""

    @pytest.mark.parametrize("source", ["alpha", "cd"])
    def test_counts_are_pencil_inertia(self, source):
        rng = np.random.default_rng(26)
        checked = 0
        for N in (2, 3, 4, 6, 9, 13, 18, 25, 33, 40):
            cd = alpha_cd(random_alpha(rng, N)) if source == "alpha" else random_cd_q(rng, N)[0]
            c, d = cd.c.tolist(), cd.d.tolist()
            xs = rng.uniform(-1.0, 1.0, 50)
            t = xs / np.sqrt(1.0 - xs * xs)
            degree = rng.integers(1, N + 1, len(xs))
            eig = {n: pencil_eigenvalues(c, d, n) for n in range(1, N + 1)}

            def above(n, ti):
                # -1, and the point skipped, within rounding of an eigenvalue
                near = (abs(eig[n] - ti) < 1e-8 * (1.0 + abs(ti))).any()
                return -1 if near else (eig[n] > ti).sum()

            top = np.array([above(N, ti) for ti in t])
            want = np.array([above(n, ti) for n, ti in zip(degree.tolist(), t)])
            keep = (top >= 0) & (want >= 0)
            scalar = np.array([_count_above(c, d, N, x) for x in xs.tolist()])
            np.testing.assert_array_equal(scalar[keep], top[keep])
            np.testing.assert_array_equal(array_count_above(c, d, N, xs)[keep], top[keep])
            np.testing.assert_array_equal(array_count_above(c, d, degree, xs)[keep], want[keep])
            checked += keep.sum()
        assert checked >= 490


class TestMultisection:
    """``_bisect_zeros`` and the blocked count against the plain 56-pass
    bisection and the per-step count, bit for bit."""

    @staticmethod
    def assert_same_zeros(cd, N, degree, j):
        assert_bits_equal(_bisect_zeros(cd, N, degree, j),
                          plain_bisect_zeros(cd, N, degree, j))

    @settings(max_examples=50, deadline=None)
    @given(N=st.integers(1, 300), seed=st.integers(0, 2 ** 32 - 1),
           source=st.sampled_from(["alpha", "alpha-0.9", "cd", "cd-1e-12"]),
           per_point=st.booleans())
    def test_matches_plain_bisection(self, N, seed, source, per_point):
        rng = np.random.default_rng(seed)
        if source == "alpha":
            cd = alpha_cd(random_alpha(rng, N))
        elif source == "alpha-0.9":
            # |alpha| near 0.9: zeros crowd together, where a secant through a
            # bracket predicts least
            cd = alpha_cd(rng.uniform(0.88, 0.9, N) * np.exp(2j * np.pi * rng.random(N)))
        else:
            cd = random_cd_q(rng, N)[0]
            if source == "cd-1e-12":
                # d_n down to 1e-12 all but splits W_N, and its zeros come in
                # close pairs
                scale = 10.0 ** rng.uniform(-12.0, 0.0, N - 1)
                cd = pp.CdParams.from_sequences(cd.c, cd.d * scale)
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
        assert_bits_equal(array_count_above(c, d, top, xs), plain_count_above(c, d, top, xs))
        degree = rng.integers(1, top + 1, len(xs))
        assert_bits_equal(array_count_above(c, d, degree, xs),
                          plain_count_above(c, d, degree, xs))


    @pytest.mark.parametrize("size", [recurrence._OUTER_POINTS, recurrence._OUTER_POINTS + 1])
    def test_wide_counts(self, rng, size):
        # einsum up to _OUTER_POINTS points and np.multiply.outer past it: the
        # counts stay the per-step ones, and a zero ratio (c_1 = 0 at
        # x = +-0.0) is counted again
        c = rng.uniform(-2.0, 2.0, 70)
        d = rng.uniform(0.05, 0.25, 69)
        c[0] = 0.0
        c, d = c.tolist(), d.tolist()
        xs = rng.uniform(-1.0, 1.0, size)
        xs[:4] = [0.0, -0.0, 1.0, -1.0]
        xs[-2:] = [-0.0, 0.0]
        assert_bits_equal(array_count_above(c, d, 70, xs), plain_count_above(c, d, 70, xs))
        degree = rng.integers(1, 71, size)
        assert_bits_equal(array_count_above(c, d, degree, xs), plain_count_above(c, d, degree, xs))

    @pytest.mark.parametrize("per_point", [False, True], ids=["one-degree", "per-point"])
    def test_count_leaves_w(self, rng, per_point):
        # the count returns W_degree at its points, mantissa + 1j * exponent,
        # for the secants of _bisect_zeros; NaN where a ratio rounds to zero
        top = 150
        cd, _ = random_cd_q(rng, top)
        xs = np.concatenate((rng.uniform(-1.0, 1.0, 200), [0.0]))
        degree = rng.integers(1, top + 1, len(xs)) if per_point else np.full(len(xs), top)
        c = cd.c.copy()
        c[0] = 0.0  # r_1 = 0 at x = 0
        kernel = recurrence._ArrayCount(c, cd.d, top)
        with recurrence._quiet():
            _, w = kernel.count(degree if per_point else top, xs)
        assert np.isnan(w[-1].real)
        for i in range(len(xs) - 1):
            mantissa, exp2, peak = _eval_W_grid(c, cd.d, int(degree[i]), xs[i:i + 1],
                                                track_peak=True)
            want = math.ldexp(float(mantissa[0]), int(exp2[0]))
            got = math.ldexp(float(w[i].real), int(w[i].imag))
            # both round at about 2^-52 of the largest |W_k| on the way
            assert abs(got - want) <= 2.0 ** (peak[0] - 40.0)

    def test_zero_last_ratio_leaves_nan_w(self):
        # r_1 = 0 at x = 0 is the last ratio of degree 1, so the product of the
        # ratios is 0 there, not NaN; W is still NaN, as at every zero ratio
        kernel = recurrence._ArrayCount([0.0, 0.3], [0.2], 2)
        with recurrence._quiet():
            counts, w = kernel.count(1, np.array([0.0, 0.5]))
        assert counts.tolist() == [0, 0]
        assert np.isnan(w[0].real) and w[1].real > 0.0

    @pytest.mark.parametrize("per_point", [False, True], ids=["one-degree", "per-point"])
    def test_full_blocks_count(self, rng, per_point):
        # at x = -1 every ratio is negative, so each block of 64 rows counts 64
        # in its uint8 sum; the counts must be the per-step ones, the degrees
        top = 129
        cd, _ = random_cd_q(rng, top)
        c, d = cd.c.tolist(), cd.d.tolist()
        xs = np.concatenate(([-1.0] * 4, rng.uniform(-1.0, 1.0, 40)))
        degree = rng.integers(1, top + 1, len(xs)) if per_point else np.full(len(xs), top)
        degree[:2] = top
        got = array_count_above(c, d, degree if per_point else top, xs)
        assert_bits_equal(got, plain_count_above(c, d, degree if per_point else top, xs))
        np.testing.assert_array_equal(got[:4], degree[:4])

    @pytest.mark.parametrize("source", ["quarter-chain", "random"])
    def test_reused_kernel_matches_fresh(self, rng, source):
        # one kernel counts wide, narrow, wide and single-point passes in
        # turn, over degrees of one, two and three blocks, uniform and per
        # point: each call gives a fresh kernel's counts and W, bit for bit.
        # On the quarter chain x = 0 makes r_1 = 0, so W is NaN there
        top = 150
        cd = chebyshev_cd(top) if source == "quarter-chain" else random_cd_q(rng, top)[0]
        kernel = recurrence._ArrayCount(cd.c, cd.d, top)
        for size in (3000, 7, 700, 1):
            xs = rng.uniform(-1.0, 1.0, size)
            xs[0] = 0.0
            for cap in (40, 100, top):
                spread = rng.integers(1, cap + 1, size)
                spread[0] = cap
                for degree in (cap, spread):
                    with recurrence._quiet():
                        got = kernel.count(degree, xs)
                        want = recurrence._ArrayCount(cd.c, cd.d, top).count(degree, xs)
                    assert_bits_equal(got[0], want[0])
                    assert_bits_equal(got[1].view(float), want[1].view(float))
                    if source == "quarter-chain":
                        assert np.isnan(got[1][0].real)

    @pytest.mark.parametrize("source", ["lambda-eta", "alpha"])
    def test_small_degrees_match_plain_bisection(self, source):
        # every N up to 40, where a pass's fixed part is most of its cost
        if source == "lambda-eta":
            cd = pp.cd_from_verblunsky(pp.VerblunskySeq.lambda_eta(0.7, 0.4, horizon=40))
        else:
            cd = alpha_cd(random_alpha(np.random.default_rng(28), 40))
        for N in range(1, 41):
            j = np.arange(1, N + 1)
            assert_bits_equal(pp.zeros_W(cd, N).x, plain_bisect_zeros(cd, N, N, j))
        for degrees in ([2, 3, 5], [7, 12, 13, 20], list(range(2, 41, 3))):
            degrees = np.array(degrees)
            j = np.column_stack((np.ones_like(degrees), degrees)).ravel()
            want = plain_bisect_zeros(cd, int(degrees.max()), np.repeat(degrees, 2), j)
            assert_bits_equal(extreme_zeros(cd, degrees).ravel(), want)

    def test_replay_walks_rows_that_are_not_runs(self, monkeypatch):
        # a count that rises and falls with x gives decision rows that are
        # not a run of True then False; the replay must still walk them level
        # by level to plain bisection's leaf.  Its W is NaN, so no zero takes
        # a path and every pass is a multisection subtree
        def count(x):
            return (np.sin(40.0 * x) > 0.0) + (x < 0.0)

        def wobbly(kernel, degree, x):
            return count(x), np.full(len(x), complex(np.nan, 0.0))

        cd = chebyshev_cd(3)
        j = np.array([1, 2, 1, 2])
        degree = np.array([3, 3, 2, 3])
        monkeypatch.setattr(recurrence._ArrayCount, "count", wobbly)
        got = _bisect_zeros(cd, 3, degree, j)
        lo, hi = np.full(len(j), -1.0), np.full(len(j), 1.0)
        for _ in range(recurrence._BISECTION_STEPS):
            mid = 0.5 * (lo + hi)
            above = count(mid) >= j
            lo, hi = np.where(above, mid, lo), np.where(above, hi, mid)
        assert_bits_equal(got, 0.5 * (lo + hi))
        # the count does rise from one midpoint of the first pass to the next
        assert (np.diff(count(np.linspace(-1.0, 1.0, 1025))) > 0).any()

    def test_paths_whose_secants_mislead(self, monkeypatch):
        # the count's W inverted at every point makes each secant cross zero
        # at the mirror image, in its bracket, of where the true one does: a
        # path then goes the wrong way from its first level, and its counts
        # contradict it there.  The zeros must still be plain bisection's,
        # after more passes than with the true W
        cd = alpha_cd(random_alpha(np.random.default_rng(7), 60))
        j = np.arange(1, 61)
        calls = []
        count = recurrence._ArrayCount.count

        def counted(kernel, degree, x):
            calls.append(len(x))
            return count(kernel, degree, x)

        def misled(kernel, degree, x):
            counts, w = counted(kernel, degree, x)
            return counts, 1.0 / w.real - 1j * w.imag

        monkeypatch.setattr(recurrence._ArrayCount, "count", counted)
        self.assert_same_zeros(cd, 60, 60, j)
        honest = len(calls)
        calls.clear()
        monkeypatch.setattr(recurrence._ArrayCount, "count", misled)
        self.assert_same_zeros(cd, 60, 60, j)
        assert len(calls) > honest + 10

    @pytest.mark.parametrize("argv, calls, points", [
        (["zeros", "--family", "lambda-eta", "--params", "lam=1,eta=1", "--n", "150"],
         8, 8236),
        (["zeros", "--family", "geronimus", "--params", "alpha_re=0.5,alpha_im=0.3",
          "--n", "120"], 8, 6589),
        (["zeros", "--input", str(GOLDEN / "random-alpha-300.json"), "--n", "300"],
         9, 18481),
        (["tables", "1"], 7, 890),
        (["tables", "2"], 6, 882),
        (["tables", "3"], 7, 1134),
        # small N, where a pass's fixed part outweighs its steps
        (["zeros", "--family", "lambda-eta", "--params", "lam=0.7,eta=0.4", "--n", "5"],
         6, 1380),
        (["zeros", "--family", "lambda-eta", "--params", "lam=0.7,eta=0.4", "--n", "12"],
         6, 1523),
        (["zeros", "--family", "lambda-eta", "--params", "lam=0.7,eta=0.4", "--n", "40"],
         6, 2637),
    ], ids=["zeros-lambda-eta-150", "zeros-geronimus-120", "zeros-random-alpha-300",
            "tables-1", "tables-2", "tables-3", "zeros-lambda-eta-5", "zeros-lambda-eta-12",
            "zeros-lambda-eta-40"])
    def test_pass_schedule(self, monkeypatch, argv, calls, points):
        # the cost model of _levels, the path length (_LEAD), the rule that
        # picks paths and the merge rule fix the passes and their points, so
        # that a change of speed is told apart from a change of schedule.
        # Multisection alone took 24 passes over 11367 points, 17 over 13736
        # and 8 over 7620 for table 1
        sizes = []
        count = recurrence._ArrayCount.count

        def counted(kernel, degree, x):
            sizes.append(len(x))
            return count(kernel, degree, x)

        monkeypatch.setattr(recurrence._ArrayCount, "count", counted)
        assert cli.main(argv, stdout=io.StringIO(), stderr=io.StringIO()) == 0
        assert (len(sizes), sum(sizes)) == (calls, points)


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
