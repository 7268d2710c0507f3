import math

import numpy as np
import pytest

import popuc as pp
from popuc.chainseq import _CHUNK, _backward_maximal, _forward_params, _minimal_raw

from conftest import random_cd_q, ultraspherical_d


class TestMinimalParams:
    def test_constant_quarter(self):
        g = _minimal_raw(np.full(5, 0.25))
        np.testing.assert_allclose(
            g, [0.0, 1 / 4, 1 / 3, 3 / 8, 2 / 5, 5 / 12], rtol=1e-15)

    def test_failure_reports_first_index(self):
        with pytest.raises(pp.NotChainSequenceError) as err:
            _minimal_raw(np.array([1.1, 0.2]))
        assert err.value.index == 1

    def test_ultraspherical_closed_form(self):
        lam = 1.0
        g = _minimal_raw(ultraspherical_d(lam, 10))
        n = np.arange(0, 11)
        np.testing.assert_allclose(g, n / (2 * (n + lam + 1)), rtol=1e-14)

    def test_reconstructs_chain_sequence(self, rng):
        for _ in range(20):
            cd, _ = random_cd_q(rng, int(rng.integers(3, 40)))
            d = cd.d
            g = _minimal_raw(d)
            recon = (1.0 - g[:-1]) * g[1:]
            assert np.max(np.abs(recon - d) / d) < 1e-13


class TestForwardParams:
    @staticmethod
    def plain_walk(d, head, scale):
        g = [head]
        for dn, sn in zip(d.tolist(), scale.tolist()):
            g.append(dn / (sn * (1.0 - g[-1])))
            if not 0.0 < g[-1] < 1.0:
                return np.array(g), len(g) - 1
        return np.array(g), None

    @pytest.mark.parametrize("at", [_CHUNK - 1, _CHUNK, _CHUNK + 1, None])
    def test_head_and_scale_across_chunk_edges(self, at):
        rng = np.random.default_rng(7)
        h = rng.uniform(0.15, 0.85, 3 * _CHUNK + 1)
        # d <= 0.7 / 4 and s >= 0.95 keep every g in (0, 1/2] from a head <= 1/2
        d = 0.7 * (1.0 - h[:-1]) * h[1:]
        scale = rng.uniform(0.95, 1.05, len(d))
        if at is not None:
            d[at - 1] = 5.0  # g at position ``at`` leaves (0, 1)
        g, n = _forward_params(d, head=0.3, scale=scale)
        ref, ref_n = self.plain_walk(d, 0.3, scale)
        assert n == ref_n == at
        np.testing.assert_array_equal(g.view(np.int64), ref.view(np.int64))


class TestIsChainSequence:
    def test_constant_quarter(self):
        assert pp.chain_failure_index(np.full(8, 0.25)) is None

    def test_constant_above_quarter_fails(self):
        d = np.full(1000, 0.26)
        assert pp.chain_failure_index(d) is not None
        assert pp.chain_failure_index(d) is not None

    @pytest.mark.parametrize("bad", [0.0, -0.1, -math.inf, math.nan])
    def test_term_not_positive_fails_at_its_index(self, bad):
        # d_3 <= 0 or NaN: every walk over d stops at n = 2
        d = np.array([0.2, bad, 0.2, 0.2])
        assert pp.chain_failure_index(d) == 2
        with pytest.raises(pp.NotChainSequenceError, match="at n=2$"):
            pp.maximal_params(d)
        with pytest.raises(pp.ScalingError) as err:
            pp.make_scaling(d, np.ones(4))
        assert err.value.index == 2
        with pytest.raises(pp.NotChainSequenceError, match="at n=2$"):
            pp.constant_scaling_threshold(d)

    def test_ismail_li_constant_length(self):
        N = 10
        d = np.full(N - 1, pp.ismail_li_constant(N))
        assert pp.chain_failure_index(d) is None


class TestMaximalParams:
    def test_finite_backward_matches_fixed_point(self):
        alpha = 0.3
        d_val = (1 - alpha ** 2) * (1 + alpha) ** 2 / (4 * (1 + alpha) ** 2)
        m = pp.maximal_params(np.full(80, d_val))
        fixed = 0.5 * (1 + math.sqrt(1 - 4 * d_val))
        assert abs(m[0] - fixed) < 1e-12

    def test_tiny_term_keeps_parameters_below_one(self):
        # G = d_2 / M_2 = 1.25e-20 leaves M_1 = 1 - G, which rounds to 1
        m = pp.maximal_params(np.array([1e-20, 0.2]))
        assert m.tolist() == [math.nextafter(1.0, 0.0), 0.8, 1.0]
        assert not m.flags.writeable
        m = _backward_maximal(np.array([0.2, 1e-20, 0.2]))
        assert m[1] == math.nextafter(1.0, 0.0) and m[-1] == 1.0

    def test_dominance_over_parameter_heads(self, rng):
        cd, _ = random_cd_q(rng, 20)
        d = cd.d
        m = _backward_maximal(d)
        for frac in (0.0, 0.3, 0.7, 1.0):
            head = frac * m[0]
            g = [head]
            for k in range(len(d)):
                g.append(d[k] / (1.0 - g[-1]))
            assert np.all(np.asarray(g) <= m + 1e-12)


class TestIsNonSP:
    # non-SP (more than one parameter sequence) means a maximal head M_1 > 0
    def test_constant_quarter_is_non_sp(self):
        # maximal head of the constant 1/4 sequence is 1/2, so mass can be
        # inserted at z = 1 and the sequence is non-SP
        assert pp.maximal_params(np.full(16, 0.25))[0] > 0

    def test_legendre_chain_is_sp(self):
        # the maximal head of the first N terms is 1 / H_{N+1}, with H_k the
        # harmonic numbers, so M_1 of the whole sequence is 0
        for N in (16, 1000):
            d = ultraspherical_d(-0.5, N)
            harmonic = math.fsum(1.0 / k for k in range(1, N + 2))
            assert pp.maximal_params(d)[0] == pytest.approx(1 / harmonic, rel=1e-11)

    def test_constant_below_quarter(self):
        assert pp.maximal_params(np.full(16, 0.2))[0] > 0


class TestComparisonTest:
    # Wall's comparison test: 0 < d <= dhat termwise, with dhat a chain
    # sequence, makes d one as well
    def test_ultraspherical_vs_quarter(self):
        dhat = np.full(30, 0.25)
        assert pp.chain_failure_index(dhat) is None
        for lam in (0.0, 0.5, 2.0):
            assert (ultraspherical_d(lam, 30) <= dhat).all()

    def test_soundness_on_random_pairs(self, rng):
        for _ in range(30):
            n = int(rng.integers(3, 30))
            h = rng.uniform(0.1, 0.9, n)
            dhat = (1 - h[:-1]) * h[1:]
            d = dhat * rng.uniform(0.2, 1.0, n - 1)
            assert (d <= dhat).all() and pp.chain_failure_index(dhat) is None
            assert pp.chain_failure_index(d) is None


class TestMakeScaling:
    def test_trivial_scaling_always_valid(self, rng):
        cd, _ = random_cd_q(rng, 12)
        q = pp.make_scaling(cd.d, np.ones(len(cd.d)))
        assert np.all(q.values == 1.0)

    def test_ultraspherical_default_quotient(self):
        N = 10
        d = ultraspherical_d(1.0, N - 1)
        q = d / pp.ismail_li_constant(N)
        assert pp.make_scaling(d, q) is not None

    def test_ismail_li_quotient_fails_for_negative_lambda(self):
        # d_2 / d^(9) exceeds 1 for the lam = -1/4 sequence at N = 10
        N = 10
        d = ultraspherical_d(-0.25, N - 1)
        q = d / pp.ismail_li_constant(N)
        assert abs(q[0] - 1.0521448759) < 1e-9
        with pytest.raises(pp.ScalingError) as err:
            pp.make_scaling(d, q)
        assert err.value.index == 1

    def test_out_of_range_reports_index(self):
        d = np.full(3, 0.2)
        with pytest.raises(pp.ScalingError) as err:
            pp.make_scaling(d, [1.0, 1.5, 1.0])
        assert err.value.index == 2


class TestClosedFormFamilies:
    def test_ismail_li_values(self):
        assert pp.ismail_li_constant(3) == pytest.approx(0.5, rel=1e-15)
        assert pp.ismail_li_constant(10 ** 6) == pytest.approx(0.25, abs=1e-10)
        # consistency with the lam = -1/4 quotient above
        d2 = ultraspherical_d(-0.25, 1)[0]
        assert pp.ismail_li_constant(10) == pytest.approx(d2 / 1.0521448759,
                                                          rel=1e-9)
        with pytest.raises(pp.InputError):
            pp.ismail_li_constant(1)

    @pytest.mark.parametrize("lam", [-0.25, 0.0, 1.0, 10.0])
    def test_parameter_closed_forms_to_1e12(self, lam):
        g = _minimal_raw(ultraspherical_d(lam, 100))
        n = np.arange(0, 101)
        np.testing.assert_allclose(g, n / (2 * (n + lam + 1)), atol=1e-12)


class TestIsmailLiExtremality:
    @pytest.mark.parametrize("N", [3, 10, 25, 50])
    def test_strict_boundary(self, N):
        base = pp.ismail_li_constant(N)
        below = np.full(N - 1, base * (1 - 1e-9))
        above = np.full(N - 1, base * (1 + 1e-9))
        assert pp.chain_failure_index(below) is None
        assert pp.chain_failure_index(above) is not None


class TestExtremalConstantEveryDegree:
    """The final parameter of the extremal constant sequence reaches 1, and
    the float walk ends above it, past the fixed BOUNDARY_TOL from N = 77 on.
    The walk's rounding is not the cause: walking the same float constant in
    exact rationals ends above 1 too, by 1.14e-12 at N = 77, 1.06e-10 at
    N = 500 and 5.46e-9 at N = 1000.  The rounding of the constant itself
    is: where it rounds up, it is not a chain sequence."""

    def test_ismail_li_accepted_at_every_degree(self):
        for N in range(2, 1001):
            d = np.full(N - 1, pp.ismail_li_constant(N))
            assert pp.chain_failure_index(d) is None, N
            assert _minimal_raw(d)[-1] > 1.0 - 1e-8

    @pytest.mark.parametrize("lam", [0.0, 0.5, 1.0, 2.0])
    def test_lambda_eta_default_scaling_at_every_degree(self, lam):
        # q = d / IL, so the scaled sequence d / q is the constant IL again
        for N in range(2, 1001):
            alpha = pp.VerblunskySeq.lambda_eta(lam, 1.0, horizon=N)
            q = pp.default_scaling_for(alpha, N)
            assert len(q) == N - 1

    @pytest.mark.parametrize("N", [77, 100, 500, 1000, 1500, 2000, 5000])
    def test_strict_boundary_still_flips(self, N):
        base = pp.ismail_li_constant(N)
        below = np.full(N - 1, base * (1 - 1e-9))
        above = np.full(N - 1, base * (1 + 1e-9))
        assert pp.chain_failure_index(below) is None
        assert pp.chain_failure_index(above) is not None

    def test_parameter_sequence_agrees_with_the_test(self):
        # a cd takes the g that the chain test walked, final parameter and all
        d = np.full(499, pp.ismail_li_constant(500))
        g = _minimal_raw(d)
        assert g[-1] - 1.0 > pp.chainseq.BOUNDARY_TOL
        assert pp.CdParams(np.zeros(500), d, g).g[-1] == g[-1]
        with pytest.raises(pp.InputError, match="final parameter out of range"):
            pp.CdParams(np.zeros(500), d, np.append(g[:-1], 1.0 + 1e-6))

    def test_rounding_bound_needs_small_first_order_terms(self):
        # every parameter before the last is 1 - 2^-7 and the walk is exact,
        # but the linearized bound grows 127-fold a step and would reach
        # 1e6 at the end: the final 2.0 must not pass
        eps = 2.0 ** -7
        d = np.array([1 - eps] + [eps * (1 - eps)] * 9 + [2 * eps])
        g = np.array([0.0] + [1 - eps] * 10 + [2.0])
        assert np.array_equal(pp.chainseq._forward_params(d)[0], g)
        assert pp.chain_failure_index(d) is not None
        with pytest.raises(pp.InputError, match="final parameter out of range"):
            pp.CdParams(np.zeros(12), d, g)

    def test_rounding_bound_counts_three_roundings_a_step(self):
        # parameters 0, 1/2, 1/2, .. walk exactly, and the bound grows by
        # 3u/2 a step to 2 e_N = 2.0e-12 at N = 3000 (1.3e-12 at 2u a step):
        # a final parameter 1.6e-12 above 1 passes
        d = np.array([0.5] + [0.25] * 2998 + [0.5 * (1 + 1.6e-12)])
        g = pp.chainseq._forward_params(d)[0]
        assert pp.chainseq.BOUNDARY_TOL < g[-1] - 1.0 < 1.7e-12
        assert pp.chain_failure_index(d) is None

    def test_tolerance_is_capped(self):
        # at N = 3000 the walk of the extremal constant ends 1.1e-7 above 1,
        # past the 2 sqrt(u) the first-order bound may grant
        d = np.full(2999, pp.ismail_li_constant(3000))
        g = pp.chainseq._forward_params(d)[0]
        assert 1e-7 < g[-1] - 1.0
        assert pp.chain_failure_index(d) is not None


class TestCallerArrays:
    """Scalings and parametrizations freeze a view of the arrays they are
    given: the caller's own arrays stay writeable, and no bytes are copied,
    except by ``CdParams.from_sequences``."""

    @staticmethod
    def assert_frozen_view(mine, theirs):
        assert not mine.flags.writeable
        assert np.shares_memory(mine, theirs)

    def test_scaling_and_chain(self):
        d, q = np.full(9, 0.2), np.full(9, 0.9)
        scaling = pp.make_scaling(d, q)
        assert d.flags.writeable and q.flags.writeable
        self.assert_frozen_view(scaling.values, q)
        self.assert_frozen_view(scaling.chain, d)

    def test_cd_params(self):
        # the constructor freezes views; from_sequences validates raw input,
        # so it freezes copies that a later write cannot reach
        c, d = np.zeros(10), np.full(9, 0.2)
        cd = pp.CdParams.from_sequences(c, d)
        assert c.flags.writeable and d.flags.writeable
        assert not cd.c.flags.writeable and not cd.d.flags.writeable
        assert not np.shares_memory(cd.c, c) and not np.shares_memory(cd.d, d)
        g = cd.g.copy()
        view = pp.CdParams(c, d, g)
        for mine, theirs in ((view.c, c), (view.d, d), (view.g, g)):
            self.assert_frozen_view(mine, theirs)

    def test_verblunsky_values(self):
        alpha = np.full(6, 0.3 + 0.1j)
        seq = pp.VerblunskySeq.from_values(alpha)
        assert alpha.flags.writeable
        self.assert_frozen_view(seq.prefix(6), alpha)
