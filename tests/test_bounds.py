import cmath
import math

import numpy as np
import pytest

import popuc as pp

from conftest import random_alpha, random_cd_q


def geronimus_support_angles(alpha):
    """Closed-form support endpoints of the rotated constant family."""
    theta_a = 2 * math.asin(abs(alpha))
    w = (1 + np.conjugate(alpha)) / (1 + alpha)
    vartheta = math.atan2(w.imag, w.real)
    return theta_a - vartheta, 2 * math.pi - theta_a - vartheta


def geronimus_cot_bounds(alpha):
    """Cotangent form of the same endpoints."""
    re, im, mod = alpha.real, alpha.imag, abs(alpha)
    m2 = abs(1 + alpha) ** 2
    den = (1 + re) ** 2 - (1 - mod ** 2) * m2
    up = (-im * (1 + re) + mod * math.sqrt(1 - mod ** 2) * m2) / den
    lo = (-im * (1 + re) - mod * math.sqrt(1 - mod ** 2) * m2) / den
    return lo, up


class TestQuadraticRoots:
    def test_symmetric(self):
        r = pp.quadratic_roots(0.0, 0.0, 0.75)
        assert r.u_minus == pytest.approx(-math.sqrt(3), rel=1e-15)
        assert r.u_plus == pytest.approx(math.sqrt(3), rel=1e-15)

    def test_degenerate_leading_coefficient(self):
        r = pp.quadratic_roots(1.0, 2.0, 1.0)
        assert r.u_minus == pytest.approx(1 / 3, rel=1e-15)
        assert r.u_plus == math.inf
        r = pp.quadratic_roots(-1.0, -2.0, 1.0)
        assert r.u_minus == -math.inf
        assert r.u_plus == pytest.approx(-1 / 3, rel=1e-15)
        r = pp.quadratic_roots(1.0, -1.0, 1.0)
        assert (r.u_minus, r.u_plus) == (-math.inf, math.inf)

    def test_no_scaling_recovers_coefficients(self):
        r = pp.quadratic_roots(0.7, -0.2, 0.0)
        assert r.u_minus == pytest.approx(-0.2, abs=1e-15)
        assert r.u_plus == pytest.approx(0.7, abs=1e-15)

    def test_geronimus_cotangent_match(self):
        alpha = 0.3 + 0.4j
        c = -alpha.imag / (1 + alpha.real)
        g = (1 - abs(alpha) ** 2) / (2 * (1 + alpha.real))
        d = (1 - g) * g
        r = pp.quadratic_roots(c, c, 4 * d)
        lo, up = geronimus_cot_bounds(alpha)
        assert r.u_minus == pytest.approx(lo, rel=1e-12)
        assert r.u_plus == pytest.approx(up, rel=1e-12)

    def test_root_ordering_around_inputs(self, rng):
        for _ in range(200):
            a, b = rng.uniform(-4, 4, 2)
            q = rng.uniform(1e-6, 1 - 1e-6)
            r = pp.quadratic_roots(a, b, q)
            assert r.u_minus < min(a, b) <= max(a, b) < r.u_plus

    def test_scaling_monotonicity(self, rng):
        for _ in range(100):
            a, b = rng.uniform(-3, 3, 2)
            q = rng.uniform(0.05, 0.95)
            qs = q * rng.uniform(0.2, 1.0)
            big = pp.quadratic_roots(a, b, q)
            small = pp.quadratic_roots(a, b, qs)
            assert small.u_plus <= big.u_plus + 1e-12
            assert small.u_minus >= big.u_minus - 1e-12

    def test_q_validation(self):
        with pytest.raises(pp.InputError):
            pp.quadratic_roots(0.0, 0.0, 1.2)

    def test_solution_set_membership(self, rng):
        # h(x; a, b) >= q exactly outside the open interval cut by the roots
        xs = np.linspace(-1.0, 1.0, 10_001)
        for _ in range(20):
            a, b = rng.uniform(-3, 3, 2)
            q = rng.uniform(0.05, 0.95)
            r = pp.quadratic_roots(a, b, q)
            s = np.sqrt(1 - xs ** 2)
            h = (xs - a * s) * (xs - b * s)
            x_lo = r.u_minus / math.hypot(1, r.u_minus)
            x_hi = r.u_plus / math.hypot(1, r.u_plus)
            outside = (xs <= x_lo - 1e-9) | (xs >= x_hi + 1e-9)
            inside = (xs >= x_lo + 1e-9) & (xs <= x_hi - 1e-9)
            assert np.all(h[outside] >= q - 1e-12)
            assert np.all(h[inside] < q)


class TestEnclosures:
    def test_pairwise_symmetric_three_sixteenths(self):
        cd = pp.CdParams.from_sequences(np.zeros(12), np.full(11, 3 / 16))
        enc = pp.enclosure_thm44(cd, np.full(11, 0.75), 12)
        assert enc.A == pytest.approx(-math.sqrt(3) / 2, rel=1e-14)
        assert enc.B == pytest.approx(math.sqrt(3) / 2, rel=1e-14)
        assert enc.theta1 == pytest.approx(math.pi / 3, rel=1e-13)
        assert enc.theta2 == pytest.approx(5 * math.pi / 3, rel=1e-13)

    def test_single_term_symmetric_closed_form(self):
        qbar = 0.6
        cd = pp.CdParams.from_sequences(np.zeros(10), np.full(9, qbar / 4))
        enc = pp.enclosure_thm46(cd, np.full(9, qbar), 10)
        u = math.sqrt(1 - qbar) / (1 + math.sqrt(qbar))
        expect_a = (u * u - 1) / (u * u + 1)
        assert enc.A == pytest.approx(expect_a, rel=1e-13)
        assert enc.B == pytest.approx(-expect_a, rel=1e-13)

    def test_one_sided_constant_positive(self):
        cd = pp.CdParams.from_sequences(np.ones(8), np.full(7, 0.2))
        enc = pp.enclosure_cor45(cd, 8)
        assert enc.A == pytest.approx(0.0, abs=1e-15)
        assert enc.B == 1.0
        assert enc.argmax_index is None

    def test_one_sided_lambda_eta(self):
        cd = pp.cd_from_verblunsky(pp.VerblunskySeq.lambda_eta(1.0, 1.0, horizon=12))
        enc = pp.enclosure_cor45(cd, 12)
        assert enc.B == 1.0
        assert -1.0 < enc.A < 0.0

    def test_one_sided_trivial_on_sign_change(self, rng):
        c = np.array([2.0, -1.0, -1.0, 2.0, 2.0])  # sums: 1, -2, 1, 4
        cd = pp.CdParams.from_sequences(c, np.full(4, 0.2))
        enc = pp.enclosure_cor45(cd, 5)
        assert (enc.A, enc.B) == (-1.0, 1.0)

    def test_trivial_single_term_negative_c(self):
        cd = pp.CdParams.from_sequences(np.full(9, -1.0), np.full(8, 0.2))
        enc = pp.enclosure_cor47(cd, 9)
        assert enc.A == -1.0
        assert enc.B == pytest.approx(0.0, abs=1e-15)  # v = 1/|c| = 1

    def test_containment_and_argext(self, rng):
        for _ in range(25):
            n = int(rng.integers(3, 45))
            cd, q = random_cd_q(rng, n)
            zl = pp.zeros_W(cd, n)
            for enc in (pp.enclosure_thm44(cd, q, n),
                        pp.enclosure_thm46(cd, q, n),
                        pp.enclosure_cor45(cd, n),
                        pp.enclosure_cor47(cd, n)):
                assert enc.A < zl.x[-1]
                assert zl.x[0] < enc.B
            enc = pp.enclosure_thm44(cd, q, n)
            assert 2 <= enc.argmin_index <= n
            assert 2 <= enc.argmax_index <= n

    def test_monotone_refinement(self, rng):
        cd, q = random_cd_q(rng, 50)
        prev = pp.enclosure_thm44(cd, q, 2)
        for n in range(3, 51):
            enc = pp.enclosure_thm44(cd, q, n)
            assert enc.A <= prev.A + 1e-15
            assert enc.B >= prev.B - 1e-15
            prev = enc

    def test_enclosure_containment_under_smaller_scaling(self, rng):
        # shrinking the scaling termwise shrinks the enclosure
        n = 20
        h = rng.uniform(0.2, 0.8, n)
        dhat = (1 - h[:-1]) * h[1:]
        q = rng.uniform(0.4, 1.0, n - 1)
        shrink = rng.uniform(0.5, 1.0, n - 1)
        q_small = q * shrink
        d = q_small * dhat
        c = rng.uniform(-2, 2, n)
        cd = pp.CdParams.from_sequences(c, d)
        enc_small = pp.enclosure_thm44(cd, q_small, n)
        enc_big = pp.enclosure_thm44(cd, q, n)
        assert enc_big.A - 1e-14 <= enc_small.A
        assert enc_small.B <= enc_big.B + 1e-14

    def test_scaling_validated(self, rng):
        cd, q = random_cd_q(rng, 10)
        with pytest.raises(pp.ScalingError):
            pp.enclosure_thm44(cd, np.full(9, 1.5), 10)

    def test_scaling_walked_unless_valid_for_this_d(self):
        # q = 1/2 is a scaling for d = 0.1 (d/q = 0.2 <= 1/4), not for d = 0.2
        c = np.zeros(12)
        small = pp.CdParams.from_sequences(c, np.full(11, 0.1))
        big = pp.CdParams.from_sequences(c, np.full(11, 0.2))
        q = pp.make_scaling(small.d, np.full(11, 0.5))
        assert q.chain is small.d
        for enclosure in (pp.enclosure_thm44, pp.enclosure_thm46):
            enclosure(small, q, 12)
            enclosure(small, q, 7)  # a prefix of a valid scaling is valid
            # a chain one ulp off this d proves nothing for it
            near = pp.ChainSeq.from_values(np.full(11, np.nextafter(0.2, 0.0)))
            for other in (q, pp.ScalingSeq(q.values), q.values,
                          pp.ScalingSeq(q.values, near)):
                with pytest.raises(pp.ScalingError):
                    enclosure(big, other, 12)
        # a dominant scaling built for one cd proves nothing for another
        alpha = pp.VerblunskySeq.lambda_eta(1.0, 1.0, horizon=12)
        dominant = pp.default_scaling_for(alpha, 12)
        pp.enclosure_thm44(pp.cd_from_verblunsky(alpha, n_terms=12), dominant, 12)
        with pytest.raises(pp.ScalingError):
            pp.enclosure_thm44(pp.CdParams.from_sequences(c, np.full(11, 0.24)),
                               dominant, 12)

    def test_hand_made_scaling_is_walked(self, walks):
        cd = pp.CdParams.from_sequences(np.zeros(12), np.full(11, 0.1))
        walks.clear()
        pp.enclosure_thm44(cd, pp.ScalingSeq(np.full(11, 0.5)), 12)
        pp.enclosure_thm44(cd, np.full(11, 0.5), 12)
        assert walks == [11, 11]
        # make_scaling walks once; the enclosure and q = 1 do not
        pp.enclosure_thm44(cd, pp.make_scaling(cd.d, np.full(11, 0.5)), 12)
        pp.enclosure_cor45(cd, 12)
        pp.enclosure_cor47(cd, 12)
        assert walks == [11, 11, 11]

    def test_weaker_bound_contains_sharper_on_named_families(self):
        # observed empirically on the named families; not asserted as a
        # universal law
        from popuc.scaling import default_scaling_for
        cases = [pp.VerblunskySeq.lambda_eta(1.0, 1.0, horizon=30),
                 pp.VerblunskySeq.lambda_eta(-0.25, 1.0, horizon=30),
                 pp.VerblunskySeq.geronimus(0.3 + 0.4j, horizon=30),
                 pp.VerblunskySeq.alternating(0.6, 0.6, 0.5, horizon=30)]
        for aseq in cases:
            cd = pp.cd_from_verblunsky(aseq, n_terms=30)
            q = default_scaling_for(aseq, 30, cd=cd)
            e44 = pp.enclosure_thm44(cd, q, 30)
            e46 = pp.enclosure_thm46(cd, q, 30)
            assert e46.A <= e44.A + 1e-14
            assert e44.B <= e46.B + 1e-14


class TestSupportArc:
    def test_lebesgue_full_circle(self):
        cd = pp.cd_from_verblunsky(pp.VerblunskySeq.from_values(np.zeros(16)))
        sa = pp.support_arc(cd, np.ones(15), 16)
        assert sa.theta1 == pytest.approx(0.0, abs=1e-15)
        assert sa.theta2 == pytest.approx(2 * math.pi, rel=1e-15)

    def test_geronimus_sharp(self):
        alpha = 0.3 + 0.4j
        aseq = pp.VerblunskySeq.geronimus(alpha, horizon=24)
        cd = pp.cd_from_verblunsky(aseq)
        q = pp.default_scaling_for(aseq, 24, cd=cd)
        sa = pp.support_arc(cd, q, 24)
        t1, t2 = geronimus_support_angles(alpha)
        assert sa.theta1 == pytest.approx(t1, abs=1e-10)
        assert sa.theta2 == pytest.approx(t2, abs=1e-10)
        assert sa.stabilized_lower and sa.stabilized_upper

    def test_alternating_optimal(self):
        b, c = 0.6, 0.5
        aseq = pp.VerblunskySeq.alternating(b, b, c, horizon=20)
        cd = pp.cd_from_verblunsky(aseq)
        q = pp.default_scaling_for(aseq, 20, cd=cd)
        sa = pp.support_arc(cd, q, 20)
        vplus = math.acos((c * c - b * b + (1 - b * b)) / (c * c + 1))
        assert sa.theta1 == pytest.approx(vplus, abs=1e-9)
        assert sa.theta2 == pytest.approx(2 * math.pi - vplus, abs=1e-9)

    def test_methods_dispatch(self, rng):
        cd, q = random_cd_q(rng, 16)
        for method in ("thm44", "thm46", "cor45", "cor47"):
            sa = pp.support_arc(cd, q, 16, method=method)
            assert 0.0 <= sa.theta1 < sa.theta2 <= 2 * math.pi + 1e-12


class TestGapCertificate:
    def test_real_constant_gap_verified(self):
        aseq = pp.VerblunskySeq.geronimus(-0.5, horizon=8)
        cert = pp.gap_certificate(aseq, 5 * math.pi / 3 + 0.01,
                                  2 * math.pi + math.pi / 3 - 0.01, 10_000)
        assert cert.verified
        assert cert.violated_at is None
        assert cert.c1_condition
        assert np.all((cert.m > 0) & (cert.m < 1))

    def test_real_constant_overlap_violated(self):
        aseq = pp.VerblunskySeq.geronimus(-0.5, horizon=8)
        cert = pp.gap_certificate(aseq, 5 * math.pi / 3 + 0.01,
                                  2 * math.pi + math.pi / 3 + 0.2, 10_000)
        assert not cert.verified
        assert cert.violated_at is not None

    def test_lebesgue_always_violated(self):
        aseq = pp.VerblunskySeq.from_values(np.zeros(400))
        for t1, t2 in ((1.0, 1.5), (0.1, 0.2), (5.0, 6.0)):
            cert = pp.gap_certificate(aseq, t1, t2, 300)
            assert not cert.verified

    def test_verified_gap_excludes_zeros(self):
        # when the certificate verifies, the rotated members keep their zeros
        # inside the complementary arc
        theta1 = 5 * math.pi / 3 + 0.05
        theta2 = 2 * math.pi + math.pi / 3 - 0.05
        aseq = pp.VerblunskySeq.geronimus(-0.5, horizon=40)
        cert = pp.gap_certificate(aseq, theta1, theta2, 200)
        assert cert.verified
        cd_rot = pp.rotated_cd(aseq, theta2 - 2 * math.pi, n_terms=31)
        for n in (5, 18, 30):
            zl = pp.zeros_R(cd_rot, n)
            limit = 2 * math.pi + theta1 - theta2
            assert np.all(zl.theta < limit)
            assert np.all(zl.theta > 0)

    def test_angle_validation(self):
        aseq = pp.VerblunskySeq.from_values(np.zeros(8))
        with pytest.raises(pp.InputError):
            pp.gap_certificate(aseq, 1.0, 1.0, 10)
        with pytest.raises(pp.InputError):
            pp.gap_certificate(aseq, -1.0, -0.5, 10)
        with pytest.raises(pp.InputError):
            pp.gap_certificate(aseq, 0.0, 7.0, 10)

    def test_boundary_denominator_reported(self):
        # design the rotated parametrization so that the probe point lands on
        # the cotangent direction of c_2
        width = 3.7245039863470534
        half = 0.5 * (2 * math.pi - width)
        theta2 = 4.0
        theta1 = theta2 - width
        cot_half = math.cos(half) / math.sin(half)
        a0_rot = -0.5j  # c_1 = 0.5 > cot(half)
        tau1 = (1 - np.conjugate(a0_rot)) / (1 - a0_rot)
        tau1 /= abs(tau1)
        beta = 0.5 - 0.5 * cot_half * 1j  # forces c_2 = cot(half)
        a1_rot = beta / tau1
        rot = np.exp(-1j * np.arange(1, 3) * theta2)
        alpha = pp.VerblunskySeq.from_values(rot * np.array([a0_rot, a1_rot]))
        with pytest.raises(pp.BoundaryCaseError) as err:
            pp.gap_certificate(alpha, theta1, theta2, 1)
        assert err.value.index == 2


class TestTwoIntervalEnclosure:
    def test_alternating_family(self):
        aseq = pp.VerblunskySeq.alternating(0.6, 0.6, 0.5, horizon=20)
        cd = pp.cd_from_verblunsky(aseq)
        q = pp.default_scaling_for(aseq, 20, cd=cd)
        enc = pp.enclosure_thm44(cd, q, 20)
        c = 0.5
        band = c * (1 - 0.02)
        C = -band / math.hypot(1, band)
        D = band / math.hypot(1, band)
        assert pp.two_interval_enclosure(cd, enc.A - 1e-6, enc.B + 1e-6, C, D, 20)
        zl = pp.zeros_W(cd, 20)
        assert not np.any((zl.x >= C) & (zl.x <= D))

    def test_symmetric_family_rejected(self):
        cd = pp.cd_from_verblunsky(pp.VerblunskySeq.from_values(np.zeros(20)))
        assert not pp.two_interval_enclosure(cd, -0.9, 0.9, -0.2, 0.2, 20)

    def test_validation(self):
        cd = pp.cd_from_verblunsky(pp.VerblunskySeq.from_values(np.zeros(8)))
        with pytest.raises(pp.InputError):
            pp.two_interval_enclosure(cd, -0.9, 0.9, 0.2, -0.2, 8)
        with pytest.raises(pp.InputError):
            pp.two_interval_enclosure(cd, -0.9, 0.9, -0.2, 0.2, 7)


class TestArc:
    def test_normalization(self):
        arc = pp.Arc.normalized(5 * math.pi / 3 + 0.01,
                                2 * math.pi + math.pi / 3 - 0.01)
        assert 0.0 <= arc.theta1 < 2 * math.pi
        assert arc.width == pytest.approx(2 * math.pi / 3 - 0.02, rel=1e-12)

    def test_width_validation(self):
        with pytest.raises(pp.InputError):
            pp.Arc(1.0, 1.0)
        with pytest.raises(pp.InputError):
            pp.Arc(0.0, 7.0)
