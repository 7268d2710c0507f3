import cmath
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import popuc as pp

from conftest import random_alpha, ultraspherical_d


def geronimus_expected(alpha):
    """Constant c, g, d of the rotated constant-coefficient family."""
    c = -alpha.imag / (1 + alpha.real)
    g = (1 - abs(alpha) ** 2) / (2 * (1 + alpha.real))
    return c, g, (1 - g) * g


class TestTau:
    def test_zero_coefficients(self):
        tau = pp.tau_from_verblunsky(pp.VerblunskySeq.from_values(np.zeros(8)))
        np.testing.assert_allclose(tau, 1.0, rtol=1e-15)

    def test_alternating_period_two(self):
        c = 0.5
        fam = pp.VerblunskySeq.alternating(0.6, 0.3, c, horizon=12)
        tau = pp.tau_from_verblunsky(fam, 12)
        expect_odd = (1 + 1j * c) / (1 - 1j * c)
        np.testing.assert_allclose(tau[0::2], 1.0, atol=1e-14)
        np.testing.assert_allclose(tau[1::2], expect_odd, atol=1e-14)

    def test_geronimus_inverse_powers(self):
        alpha = 0.3 + 0.4j
        w = (1 + alpha.conjugate()) / (1 + alpha)
        fam = pp.VerblunskySeq.geronimus(alpha, horizon=10)
        tau = pp.tau_from_verblunsky(fam, 10)
        expect = np.array([w ** (-n) for n in range(11)])
        np.testing.assert_allclose(tau, expect, atol=1e-13)

    def test_recursion_matches_closed_forms_at_small_n(self):
        # inline values force the Moebius iteration; it must agree with the
        # closed forms while the accumulated phase error is still small
        fam = pp.VerblunskySeq.alternating(0.6, 0.6, 0.5, horizon=8)
        inline = pp.VerblunskySeq.from_values(fam.prefix(8))
        np.testing.assert_allclose(pp.tau_from_verblunsky(inline, 8),
                                   pp.tau_from_verblunsky(fam, 8), atol=1e-10)

    def test_unimodularity_drift(self, rng):
        alpha = pp.VerblunskySeq.from_values(random_alpha(rng, 2000, rmax=0.95))
        tau = pp.tau_from_verblunsky(alpha)
        np.testing.assert_allclose(np.abs(tau), 1.0, atol=1e-13)

    def test_read_only_arrays(self, rng):
        alpha = pp.VerblunskySeq.from_values(random_alpha(rng, 20))
        cd = pp.cd_from_verblunsky(alpha)
        for tau in (pp.tau_from_verblunsky(alpha), cd.tau, cd._c_tau,
                    pp.CdParams.from_sequences(cd.c, cd.d).tau, pp.rotated_cd(alpha, 1.0).tau,
                    pp.tau_from_verblunsky(pp.VerblunskySeq.geronimus(0.3, 20))):
            assert tau.dtype == complex and len(tau) == 21 and not tau.flags.writeable

    def test_phase_identity(self, rng):
        alpha = pp.VerblunskySeq.from_values(random_alpha(rng, 60))
        cd = pp.cd_from_verblunsky(alpha)
        tau = cd.tau
        step = (1 - 1j * cd.c) / (1 + 1j * cd.c)
        np.testing.assert_allclose(tau[1:], tau[:-1] * step, atol=1e-12)


class TestCdFromVerblunsky:
    def test_zero_coefficients(self):
        cd = pp.cd_from_verblunsky(pp.VerblunskySeq.from_values(np.zeros(6)))
        np.testing.assert_allclose(cd.c, 0.0, atol=0)
        np.testing.assert_allclose(cd.g, 0.5, rtol=1e-15)
        np.testing.assert_allclose(cd.d, 0.25, rtol=1e-15)

    def test_geronimus_constants(self):
        alpha = 0.3 + 0.4j
        cd = pp.cd_from_verblunsky(pp.VerblunskySeq.geronimus(alpha, horizon=40))
        c, g, d = geronimus_expected(alpha)
        np.testing.assert_allclose(cd.c, c, rtol=1e-13)
        np.testing.assert_allclose(cd.g, g, rtol=1e-13)
        np.testing.assert_allclose(cd.d, d, rtol=1e-13)

    def test_lambda_eta_closed_forms(self):
        lam, eta = 1.0, 1.0
        cd = pp.cd_from_verblunsky(pp.VerblunskySeq.lambda_eta(lam, eta, horizon=30))
        n = np.arange(1, 31)
        np.testing.assert_allclose(cd.c, eta / (n + lam), rtol=1e-13)
        expect_d = ultraspherical_d(lam, 29)
        np.testing.assert_allclose(cd.d, expect_d, rtol=1e-13)

    def test_invariants_hold(self, rng):
        alpha = pp.VerblunskySeq.from_values(random_alpha(rng, 50))
        cd = pp.cd_from_verblunsky(alpha)
        g = cd.g
        assert np.all((g > 0) & (g < 1))
        recon = (1 - g[:-1]) * g[1:]
        np.testing.assert_allclose(recon, cd.d, rtol=1e-13)

    def test_modulus_validation(self):
        with pytest.raises(pp.InputError):
            pp.VerblunskySeq.from_values([0.5, 1.0 + 0j])

    def test_inline_prefix_read_once(self, rng, monkeypatch):
        # the tau walk runs on the prefix cd_from_verblunsky already read
        alpha = pp.VerblunskySeq.from_values(random_alpha(rng, 80))
        reads = []
        validate = pp.transforms._validate_alpha
        monkeypatch.setattr(pp.transforms, "_validate_alpha",
                            lambda values, first=0: reads.append(len(values))
                            or validate(values, first))
        cd = pp.cd_from_verblunsky(alpha, n_terms=50)
        assert reads == [50]
        tau = pp.tau_from_verblunsky(alpha, 50)
        assert np.array_equal(cd.tau.view(np.int64), tau.view(np.int64))

    def test_small_chain_term_keeps_maximal_g(self):
        # M_1 = 1 - 1e-6 / M_2 is near 1, where 1 - M_1 is exact only to
        # 2^-53 absolute; doubling d is still inconsistent with that g
        cd = pp.CdParams.from_sequences([0.1, -0.2, 0.3], [1e-6, 0.2])
        assert cd.g[0] > 1.0 - 1e-5
        with pytest.raises(pp.InputError, match="d and g are inconsistent"):
            pp.CdParams(cd.c, 2.0 * cd.d, cd.g, cd.tau)

    def test_from_sequences_keeps_its_own_copies(self):
        # d = 0.3 is no chain sequence from n = 6 on; the write must not
        # reach the validated cd
        c, d = np.zeros(12), np.full(11, 0.1)
        cd = pp.CdParams.from_sequences(c, d)
        c[:] = 5.0
        d[:] = 0.3
        assert pp.chain_failure_index(np.full(11, 0.3)) == 6
        assert pp.chain_failure_index(cd.d) is None
        assert (cd.c == 0.0).all() and (cd.d == 0.1).all()
        zeros = pp.zeros_W(cd, 12)
        assert zeros.n == 12

    @pytest.mark.parametrize("c, d, g, message", [
        (np.zeros(4), np.full(3, 0.2), [0.5, 0.5, 0.5, 1.0 + 1e-6],
         "final parameter out of range: 1.000001"),
        (np.zeros(4), np.full(3, 0.2), [1.0, 0.5, 0.5, 0.5],
         "parameter head must lie in [0, 1), got 1.0"),
        (np.zeros(4), np.full(3, 0.2), [0.5, 0.0, 0.5, 0.5],
         "interior parameters must lie in (0, 1)"),
        (np.zeros(4), np.full(3, 0.2), [], "parameter sequence cannot be empty"),
        # d first, then g, then the lengths, then consistency
        (np.zeros(4), [0.2, 0.0, 0.2], [1.0, 0.5, 0.5, 0.5],
         "chain sequence elements must be positive (term n=2)"),
        (np.zeros(3), np.full(3, 0.2), [0.5, 0.0, 0.5, 0.5],
         "interior parameters must lie in (0, 1)"),
        (np.zeros(3), np.full(3, 0.2), np.full(4, 0.5),
         "parameter sequence length must match c"),
        (np.zeros(4), np.full(2, 0.2), np.full(4, 0.5),
         "chain sequence must have one term fewer than c"),
        (np.zeros(4), np.full(3, 0.2), np.full(4, 0.5),
         "d and g are inconsistent: d != (1 - g_n) g_{n+1}"),
    ])
    def test_checks_in_order(self, c, d, g, message):
        with pytest.raises(pp.InputError) as exc:
            pp.CdParams(c, d, g)
        assert str(exc.value) == message

    @pytest.mark.parametrize("lam, eta, name", [
        (math.nan, 1.0, "lam"), (math.inf, 1.0, "lam"), (1.0, math.nan, "eta"),
        (1.0, -math.inf, "eta"), (math.nan, 1e300, "lam")])
    def test_lambda_eta_parameters_finite(self, lam, eta, name):
        with pytest.raises(pp.InputError, match=f"lambda-eta {name} must be finite"):
            pp.VerblunskySeq.lambda_eta(lam, eta)


class TestRotation:
    def test_full_turn_equals_unrotated(self, rng):
        alpha = pp.VerblunskySeq.from_values(random_alpha(rng, 30))
        plain = pp.cd_from_verblunsky(alpha)
        turned = pp.rotated_cd(alpha, 2 * math.pi)
        np.testing.assert_allclose(turned.c, plain.c, atol=1e-14)
        np.testing.assert_allclose(turned.d, plain.d, atol=1e-14)

    def test_equivalence_with_prerotated_coefficients(self, rng):
        values = random_alpha(rng, 40)
        theta2 = 2.3
        rotated = pp.rotated_cd(pp.VerblunskySeq.from_values(values), theta2)
        k = np.arange(1, 41)
        pre = pp.VerblunskySeq.from_values(np.exp(1j * k * theta2) * values)
        direct = pp.cd_from_verblunsky(pre)
        np.testing.assert_allclose(rotated.c, direct.c, atol=1e-12)
        np.testing.assert_allclose(rotated.d, direct.d, atol=1e-12)

    def test_constant_family_rotated_to_axis(self):
        # rotating the constant-coefficient measure by arg(w) lands on the
        # constant (c, d) parametrization
        alpha = 0.3 + 0.4j
        w = (1 + np.conjugate(alpha)) / (1 + alpha)
        theta = math.atan2(w.imag, w.real) % (2 * math.pi)
        inline = pp.VerblunskySeq.from_values(np.full(12, alpha))
        cd = pp.rotated_cd(inline, theta)
        c, _, d = geronimus_expected(alpha)
        np.testing.assert_allclose(cd.c, c, atol=1e-10)
        np.testing.assert_allclose(cd.d, d, atol=1e-10)

    def test_rotation_angle_validation(self):
        alpha = pp.VerblunskySeq.from_values(np.zeros(4))
        with pytest.raises(pp.InputError,
                           match=r"^rotation angle must be positive, got 0\.0$"):
            pp.rotated_cd(alpha, 0.0)


def mp_rotated_geronimus_cd(alpha, theta, n):
    """Rotated Geronimus (c, d) to 40 digits: the tau recursion run on the
    exact coefficients w^{k+1} alpha of the double ``alpha``."""
    with mpmath.workdps(40):
        a = mpmath.mpc(alpha.real, alpha.imag)
        w = (1 + mpmath.conj(a)) / (1 + a)
        phase = mpmath.expj(mpmath.mpf(theta))
        tau, wk, c, g = phase, w, [], []
        for _ in range(n):
            prod = tau * wk * a
            c.append(-prod.imag / (1 - prod.real))
            g.append(abs(1 - prod) ** 2 / (2 * (1 - prod.real)))
            tau = phase * (tau - mpmath.conj(wk * a)) / (1 - prod)
            wk *= w
        d = [(1 - g[k]) * g[k + 1] for k in range(n - 1)]
        return np.array(c, dtype=float), np.array(d, dtype=float)


class TestRotatedGeronimusClosedForm:
    """In the gap the rotated Geronimus tau comes from the fixed points of its
    Moebius map; nearer the gap edge the recursion runs."""

    @pytest.mark.parametrize("alpha", [-0.2, -0.5, -0.8, 0.3 + 0.4j])
    @pytest.mark.parametrize("inside", ["0.3 edge", 1e-2, 1e-4])
    def test_against_mpmath(self, alpha, inside):
        alpha, n = complex(alpha), 2000
        w = (1 + alpha.conjugate()) / (1 + alpha)
        edge = 2.0 * math.asin(abs(alpha))  # the gap is -arg w +- edge
        depth = 0.3 * edge if inside == "0.3 edge" else inside
        theta = (edge - depth - cmath.phase(w)) % (2.0 * math.pi)
        family = pp.VerblunskySeq.geronimus(alpha, n)
        closed = pp.rotated_cd(family, theta)
        recursion = pp.rotated_cd(pp.VerblunskySeq.from_values(family.prefix(n)), theta)
        # D = sqrt(|alpha|^2 - sin^2 psi) >= 1/32 at 1e-2 inside the edge, not at 1e-4
        uses_closed_form = inside != 1e-4
        assert (family._rotated_tau_fn(theta) is not None) == uses_closed_form
        assert np.array_equal(closed.tau, recursion.tau) != uses_closed_form
        c, d = mp_rotated_geronimus_cd(alpha, theta, n)
        u = 2.0 ** -53
        for got, ref, exact in ((closed.c, recursion.c, c),
                                (closed.d, recursion.d, d)):
            assert np.abs(got - exact).max() <= 2.0 * np.abs(ref - exact).max() + 64 * u

    @pytest.mark.parametrize("theta", [1.5, math.pi, 2 * math.pi - 1.2])
    def test_support_and_zero_alpha_run_the_recursion(self, theta):
        # theta in the support of alpha = -0.5 (pi / 3 < theta < 5 pi / 3), and
        # alpha = 0
        for alpha in (-0.5, 0.0):
            family = pp.VerblunskySeq.geronimus(alpha, 50)
            if alpha == -0.5:
                assert family._rotated_tau_fn(theta % (2 * math.pi)) is None
            recursion = pp.VerblunskySeq.from_values(family.prefix(50))
            assert np.array_equal(pp.rotated_cd(family, theta, 50).tau,
                                  pp.rotated_cd(recursion, theta, 50).tau)


class TestVerblunskyFromCd:
    def test_roundtrip_constant_real(self):
        cd = pp.cd_from_verblunsky(pp.VerblunskySeq.geronimus(-0.5, horizon=40))
        np.testing.assert_allclose(cd.c, 0.0, atol=1e-15)
        np.testing.assert_allclose(cd.d, 3 / 16, rtol=1e-14)
        rec = pp.verblunsky_from_cd(cd, t=pp.mass_at_one(cd)).prefix(40)
        np.testing.assert_allclose(rec, -0.5, atol=1e-9)

    def test_roundtrip_random(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 51))
            values = random_alpha(rng, n)
            cd = pp.cd_from_verblunsky(pp.VerblunskySeq.from_values(values))
            rec = pp.verblunsky_from_cd(cd, t=pp.mass_at_one(cd)).prefix(n)
            assert np.abs(rec - values).max() < 1e-9

    def test_forward_orbit_path(self):
        # a head away from the stored parameter sequence walks the recursion
        cd = pp.CdParams.from_sequences(np.zeros(6), np.full(5, 0.25))
        rec = pp.verblunsky_from_cd(cd, t=0.5).prefix(6)
        # member with half the mass: the recursion walks the parameter orbit
        # of head M_1 / 2, and alpha_{k-1} = 1 - 2 m_k
        m = 0.5 * pp.maximal_params(cd.d)[0]
        expect = []
        for k in range(6):
            expect.append(1 - 2 * m)
            m = 0.25 / (1 - m)
        np.testing.assert_allclose(rec.real, expect, rtol=1e-12)
        np.testing.assert_allclose(rec.imag, 0.0, atol=1e-15)

    def test_t_validation(self):
        cd = pp.cd_from_verblunsky(pp.VerblunskySeq.from_values(np.zeros(4)))
        with pytest.raises(pp.InputError):
            pp.verblunsky_from_cd(cd, t=1.0)

    def test_stored_head_above_maximal_at_zero_mass(self):
        # the computed g_1 exceeds the computed M_1 by 2.4e-16, so the mass
        # clips to 0; the stored orbit is then the mass-free member, while a
        # walk from M_1 leaves (0, 1) at step 91
        gen = np.random.default_rng(1001)
        mod = 0.9 * np.sqrt(gen.uniform(0.0, 1.0, 643))
        values = mod * np.exp(1j * gen.uniform(0.0, 2 * np.pi, 643))
        cd = pp.cd_from_verblunsky(pp.VerblunskySeq.from_values(values))
        m1 = pp.maximal_params(cd.d)[0]
        assert cd.g[0] > m1 and pp.mass_at_one(cd) == 0.0
        rec = pp.verblunsky_from_cd(cd, t=0.0).prefix(643)
        assert np.abs(rec - values).max() < 1e-13

    def test_one_coefficient_source(self):
        # no chain constraint: M_1 = 1, so every t > 0 gives a member and
        # t = 0 gives the terminating one
        cd = pp.CdParams.from_sequences([0.3], [])
        rec = pp.verblunsky_from_cd(cd, t=0.3).prefix(1)
        assert rec[0] == pytest.approx((1 - 2 * 0.7 - 0.3j) / ((1 - 0.3j)), abs=1e-15)
        with pytest.raises(pp.InputError, match="member terminates"):
            pp.verblunsky_from_cd(cd, t=0.0)
        ger = pp.cd_from_verblunsky(pp.VerblunskySeq.geronimus(0.3, horizon=1))
        t = pp.mass_at_one(ger)
        assert t == pytest.approx(1.0 - ger.g[0])
        assert t > 0.0
        rec = pp.verblunsky_from_cd(ger, t=t).prefix(1)
        assert rec[0] == pytest.approx(0.3, abs=1e-15)


    @settings(max_examples=200, deadline=None)
    @given(polar=st.lists(st.tuples(st.floats(0.0, 0.99), st.floats(0.0, 2 * math.pi)),
                          min_size=1, max_size=60))
    def test_roundtrip_property(self, polar):
        # alpha -> cd -> alpha at the mass the cd carries at z = 1
        values = np.array([mod * cmath.exp(1j * phase) for mod, phase in polar])
        cd = pp.cd_from_verblunsky(pp.VerblunskySeq.from_values(values))
        rec = pp.verblunsky_from_cd(cd, pp.mass_at_one(cd)).prefix(len(values))
        assert np.abs(rec - values).max() <= 1e-12


class TestMassAtOne:
    def test_geronimus_criterion_grid(self):
        # an atom sits at z = 1 exactly when Re(alpha) + |alpha|^2 > 0
        for re in np.linspace(-0.6, 0.6, 5):
            for im in np.linspace(0.05, 0.55, 5):
                alpha = complex(re, im)
                crit = alpha.real + abs(alpha) ** 2
                if abs(crit) < 0.05:
                    continue
                cd = pp.cd_from_verblunsky(
                    pp.VerblunskySeq.geronimus(alpha, horizon=500))
                assert (pp.mass_at_one(cd) > 0.0) == (crit > 0)

    def test_constant_parameter_half(self):
        # g = 1/2 is the maximal head of the infinite constant 1/4 chain: no
        # atom.  A finite truncation resolves the comparison only down to the
        # backward-recursion tail error ~ 1/(2N), relative to M_1 = 1/2
        cd_fin = pp.cd_from_verblunsky(pp.VerblunskySeq.from_values(np.zeros(300)))
        assert pp.mass_at_one(cd_fin) < 1e-2
