import math

import numpy as np
import pytest

import popuc as pp

from conftest import random_cd_q
from popuc.recurrence import _count_above


class TestConstantThreshold:
    def test_chebyshev_case(self):
        d = pp.ChainSeq.from_values([0.25] * 9)  # N = 10
        thr = pp.constant_scaling_threshold(d)
        assert thr == pytest.approx(math.cos(math.pi / 11) ** 2, abs=1e-10)

    def test_two_term_case(self):
        d = pp.ChainSeq.from_values([0.17])
        assert pp.constant_scaling_threshold(d) == pytest.approx(0.17, abs=1e-12)

    def test_sharpness_ultraspherical(self):
        N = 10
        d = pp.ChainSeq.from_values(pp.ChainSeq.ultraspherical(1.0).values[:N - 1])
        thr = pp.constant_scaling_threshold(d)
        assert pp.make_scaling(d, np.full(N - 1, thr * (1 + 1e-6))) is not None
        with pytest.raises(pp.ScalingError):
            pp.make_scaling(d, np.full(N - 1, thr * (1 - 1e-6)))

    def test_sharpness_random(self, rng):
        for _ in range(8):
            n = int(rng.integers(3, 21))
            cd, _ = random_cd_q(rng, n)
            d = cd.d
            thr = pp.constant_scaling_threshold(d)
            assert pp.make_scaling(d, np.full(n - 1, min(thr * (1 + 1e-6), 1.0)))
            with pytest.raises(pp.ScalingError):
                pp.make_scaling(d, np.full(n - 1, thr * (1 - 1e-6)))

    def test_verdict_boundary_band(self):
        d = pp.ChainSeq.from_values([0.25] * 9)
        thr = pp.constant_scaling_threshold(d)
        assert pp.constant_scaling_verdict(d, thr) == "boundary"
        assert pp.constant_scaling_verdict(d, thr * (1 + 1e-6)) == "valid"
        assert pp.constant_scaling_verdict(d, thr * (1 - 1e-6)) == "invalid"
        assert pp.constant_scaling_verdict(d, 1.2) == "invalid"

    def test_sturm_route_matches_ladder(self, rng):
        # the threshold bisects the top zero alone, by the steps of zeros_W
        for _ in range(10):
            n = int(rng.integers(3, 40))
            cd, _ = random_cd_q(rng, n)
            sym = pp.CdParams.from_sequences(np.zeros(n), cd.d.values)
            ladder_top = pp.zeros_W(sym, n).x[0]
            assert pp.constant_scaling_threshold(cd.d) == ladder_top ** 2


class TestInfiniteThreshold:
    def test_chebyshev_limit(self):
        d = pp.ChainSeq.constant(0.25, horizon=8)
        assert pp.constant_scaling_threshold_infinite(d, tol=1e-4) == 1.0

    def test_scaled_chebyshev_limit(self):
        d = pp.ChainSeq.constant(3 / 16, horizon=8)
        thr = pp.constant_scaling_threshold_infinite(d, tol=1e-5)
        assert thr == pytest.approx(0.75, abs=0.01)

    def test_gegenbauer_limit(self):
        d = pp.ChainSeq.ultraspherical(1.0, horizon=8)
        thr = pp.constant_scaling_threshold_infinite(d, tol=1e-5)
        assert thr > 0.99

    def test_nonconvergence_guard(self):
        # a rule without a closed form extrapolates; its finite thresholds
        # cos^2(pi / (N + 1)) still move by 1e-7 at the horizon cap
        d = pp.ChainSeq.from_rule(lambda n: 0.25, horizon=8)
        with pytest.raises(pp.NonConvergenceError):
            pp.constant_scaling_threshold_infinite(d, tol=1e-12)

    def test_extrapolation_is_a_lower_bound(self):
        d = pp.ChainSeq.from_rule(lambda n: 0.2, horizon=8)
        thr = pp.constant_scaling_threshold_infinite(d, tol=1e-6)
        assert 0.8 - 1e-5 < thr < 0.8
        assert pp.constant_scaling_verdict(d, 0.8 - 1e-4, tol=1e-6) == "invalid"

    def test_closed_forms(self):
        assert pp.ChainSeq.constant(0.2).rule.threshold_closed() == 0.8
        for lam in (-0.5, -0.4, 0.0, 1.0, 10.0):
            assert pp.ChainSeq.ultraspherical(lam).rule.threshold_closed() == 1.0
        assert pp.ChainSeq.from_rule(lambda n: 0.2).rule.threshold_closed() is None
        with pytest.raises(pp.InputError, match="chain sequence"):
            pp.ChainSeq.constant(0.3).rule.threshold_closed()
        for bad in (math.nan, math.inf):
            with pytest.raises(pp.InputError):
                pp.ChainSeq.constant(bad)
            with pytest.raises(pp.InputError):
                pp.ChainSeq.ultraspherical(bad)

    @pytest.mark.parametrize("rule, arg", [
        ("constant", 0.15), ("constant", 0.2), ("constant", 0.25),
        ("ultraspherical", -0.4), ("ultraspherical", 0.0), ("ultraspherical", 1.0),
    ])
    def test_closed_form_is_sharp(self, rule, arg):
        # on a 10^4-term prefix q = threshold is a scaling and a q 1e-6 below
        # it is not
        d = getattr(pp.ChainSeq, rule)(arg, horizon=8)
        thr = pp.constant_scaling_threshold_infinite(d)
        prefix = pp.ChainSeq.from_values(d.prefix(10 ** 4))
        assert pp.make_scaling(prefix, np.full(10 ** 4, thr))
        with pytest.raises(pp.ScalingError):
            pp.make_scaling(prefix, np.full(10 ** 4, thr * (1 - 1e-6)))

    def test_verdict_on_rule_backed_sequences(self):
        d = pp.ChainSeq.constant(0.2)
        assert pp.constant_scaling_verdict(d, 0.8) == "boundary"
        assert pp.constant_scaling_verdict(d, 0.8 * (1 + 1e-6)) == "valid"
        assert pp.constant_scaling_verdict(d, 0.8 * (1 - 1e-6)) == "invalid"
        assert pp.constant_scaling_verdict(pp.ChainSeq.ultraspherical(1.0), 0.99) == \
            "invalid"

    def test_requires_rule(self):
        with pytest.raises(pp.InputError):
            pp.constant_scaling_threshold_infinite(
                pp.ChainSeq.from_values([0.2] * 4), tol=1e-3)


class TestLegendreDominant:
    def test_first_element(self):
        dhat = pp.legendre_dominant(10)
        assert dhat.values[0] == pytest.approx(
            (1 / 3) / math.cos(math.pi / 20) ** 2, rel=1e-14)

    def test_dominates_negative_lambda(self):
        N = 10
        d = pp.ChainSeq.from_values(pp.ChainSeq.ultraspherical(-0.25).values[:N - 1])
        assert pp.comparison_test(d, pp.legendre_dominant(N))
        assert pp.make_scaling(d, d.values / pp.legendre_dominant(N).values)

    @pytest.mark.parametrize("lam", [-0.25, 0.3, 1.0])
    def test_domination_chain(self, lam):
        N = 40
        d_lam = pp.ChainSeq.ultraspherical(lam).values[:N - 1]
        d_leg = pp.ChainSeq.ultraspherical(-0.5).values[:N - 1]
        dhat = pp.legendre_dominant(N).values
        assert np.all(d_lam < d_leg)
        assert np.all(d_leg < dhat)

    def test_largest_legendre_zero_bound(self):
        # the largest zero of every degree stays below cos(pi / (2 n))
        sym = pp.CdParams.from_sequences(
            np.zeros(100), pp.ChainSeq.ultraspherical(-0.5, horizon=99))
        ladder = pp.zeros_ladder(sym, 100)
        for n, zeros in enumerate(ladder, start=1):
            if n >= 2:
                assert zeros[-1] < math.cos(math.pi / (2 * n))


class TestDefaultScaling:
    def test_geronimus_constant(self):
        alpha = 0.3 + 0.4j
        aseq = pp.VerblunskySeq.geronimus(alpha, horizon=12)
        q = pp.default_scaling_for(aseq, 12)
        g = (1 - abs(alpha) ** 2) / (2 * (1 + alpha.real))
        expect = 4 * (1 - g) * g
        np.testing.assert_allclose(q.values, expect, rtol=1e-13)

    def test_lambda_eta_positive(self):
        N = 10
        aseq = pp.VerblunskySeq.lambda_eta(1.0, 1.0, horizon=N)
        q = pp.default_scaling_for(aseq, N)
        # quotient by the extremal constant: q_2 = 4 d_2 cos^2(pi / 11)
        expect_q2 = 4 * pp.ultraspherical_chain(1.0, 1) * math.cos(math.pi / 11) ** 2
        assert q.values[0] == pytest.approx(expect_q2, rel=1e-12)
        assert np.all(q.values <= 1.0)

    def test_lambda_eta_negative_uses_legendre(self):
        N = 10
        aseq = pp.VerblunskySeq.lambda_eta(-0.25, 1.0, horizon=N)
        q = pp.default_scaling_for(aseq, N)
        d = pp.cd_from_verblunsky(aseq, n_terms=N).d.values
        np.testing.assert_allclose(
            q.values, d / pp.legendre_dominant(N).values, rtol=1e-13)

    def test_alternating_equal(self):
        aseq = pp.VerblunskySeq.alternating(0.6, 0.6, 0.5, horizon=12)
        q = pp.default_scaling_for(aseq, 12)
        np.testing.assert_allclose(q.values, 1 - 0.36, rtol=1e-13)

    def test_alternating_unequal_in_region(self):
        aseq = pp.VerblunskySeq.alternating(0.6, 0.8, 0.5, horizon=12)
        q = pp.default_scaling_for(aseq, 12)
        d = pp.cd_from_verblunsky(aseq, n_terms=12).d.values
        np.testing.assert_allclose(q.values, 4 * d, rtol=1e-12)

    def test_alternating_unequal_outside_region(self):
        aseq = pp.VerblunskySeq.alternating(0.3, 0.6, 0.5, horizon=12)
        with pytest.raises(pp.InputError, match="supply q"):
            pp.default_scaling_for(aseq, 12)

    def test_inline_has_no_default(self):
        aseq = pp.VerblunskySeq.from_values(np.zeros(6))
        with pytest.raises(pp.InputError):
            pp.default_scaling_for(aseq, 6)


class TestDominantScalingEveryDegree:
    """The Ismail-Li scalings q = d / dhat are valid by comparison at every
    degree: q <= 1 means d <= dhat.  Walking d/q instead failed from N = 1210
    on, at the degrees where the extremal constant rounds up."""

    DEGREES = sorted({*range(2, 401), *range(2, 5001, 37), 1209, 1210, 1500, 3000,
                      5000})

    @pytest.mark.parametrize("lam, eta", [(1.0, 1.0), (0.5, -2.0)])
    def test_zeros_inside_the_enclosure(self, lam, eta):
        alpha = pp.VerblunskySeq.lambda_eta(lam, eta, horizon=5000)
        for N in self.DEGREES:
            cd = pp.cd_from_verblunsky(alpha, n_terms=N)
            q = pp.default_scaling_for(alpha, N, cd=cd)
            dominant = pp.scaling._dominant_scaling(cd.d.values, "ismail-li", N)
            assert np.array_equal(q.values, dominant.values), N
            enc = pp.enclosure_thm44(cd, q, N)
            c, d = cd.c.tolist(), cd.d.values.tolist()
            # the extremal scaling is exact at N = 2
            margin = 1e-15 if N == 2 else 1e-14
            assert _count_above(c, d, N, enc.B + margin) == 0, N
            assert _count_above(c, d, N, enc.A - margin) == N, N
            if N == 2:
                assert _count_above(c, d, N, enc.B - margin) == 1
                assert _count_above(c, d, N, enc.A + margin) == 1
