"""Acceptance suite: one test per criterion, each at its stated tolerance.

Every test prints a single PASS line (visible with ``pytest -s``) after its
assertions; a failed criterion fails the corresponding test.
"""

import math
import time

import numpy as np
import pytest

import popuc as pp
from popuc.cli import TABLE_N_VALUES, table_rows

from conftest import _eval_W_grid, assert_interlacing, random_alpha, zeros_ladder


# printed reference values: (N, bound_first, argext_plus, theta_first,
#                            bound_last, argext_minus, theta_last)
TABLE_REFERENCE = {
    1: [(10, 0.4639446, 8, 0.4972376, 5.4352508, 10, 5.1944808),
        (15, 0.3198603, 12, 0.3499643, 5.7029950, 15, 5.5126714),
        (30, 0.1653904, 24, 0.1855341, 5.9853660, 30, 5.8730792),
        (50, 0.1005688, 39, 0.1141174, 6.1025923, 50, 6.0306959)],
    2: [(10, 1.2564079, 10, 1.4994620, 5.0247247, 10, 4.7814017),
        (15, 0.9620515, 15, 1.1898228, 5.3195004, 15, 5.0914664),
        (30, 0.5731032, 30, 0.7410146, 5.7090691, 30, 5.5409545),
        (50, 0.3746598, 50, 0.4949570, 5.9078531, 50, 5.7874076)],
    3: [(10, 0.1016913, 4, 0.1991716, 5.6818261, 10, 5.2285409),
        (15, 0.0635237, 4, 0.1358499, 5.8881850, 15, 5.5600926),
        (30, 0.0290353, 7, 0.0695512, 6.0885290, 30, 5.9117387),
        (50, 0.0166939, 11, 0.0421377, 6.1670558, 50, 6.0579734)],
}


@pytest.fixture(scope="module")
def corpus():
    """200 randomized valid (cd, q) instances; coefficients run to degree 100
    so interlacing can be probed beyond the bound degree N <= 60."""
    gen = np.random.default_rng(771177)
    out = []
    for _ in range(200):
        h = gen.uniform(0.15, 0.85, 100)
        dhat = (1.0 - h[:-1]) * h[1:]
        if gen.random() < 0.2:
            q = np.ones(99)
        else:
            q = gen.uniform(0.3, 1.0, 99)
        d = q * dhat
        c = gen.uniform(-2.5, 2.5, 100)
        cd = pp.CdParams.from_sequences(c, d)
        out.append((cd, q, int(gen.integers(3, 61))))
    return out


def test_criterion_1_table_reproduction():
    """Tables reproduce to 1e-6 with exact argext indices in under 5 s."""
    start = time.time()
    for which, reference in TABLE_REFERENCE.items():
        rows = table_rows(which)
        for row, ref in zip(rows, reference):
            n, b1, ip, t1, b2, im_, t2 = ref
            assert row["N"] == n
            assert abs(float(row["bound_theta_first"]) - b1) < 1e-6
            assert row["argext_plus"] == ip
            assert abs(float(row["theta_first"]) - t1) < 1e-6
            assert abs(float(row["bound_theta_last"]) - b2) < 1e-6
            assert row["argext_minus"] == im_
            assert abs(float(row["theta_last"]) - t2) < 1e-6
    elapsed = time.time() - start
    assert elapsed < 5.0
    print(f"\nACCEPTANCE 1 PASS: tables 1-3, 48 cells within 1e-6, "
          f"argext indices exact, {elapsed:.2f}s")


def test_criterion_2_constant_family_sharpness():
    """Pairwise enclosure with the constant default scaling is sharp."""
    worst = 0.0
    for re in np.linspace(-0.55, 0.55, 5):
        for im in np.linspace(0.1, 0.5, 5):
            alpha = complex(re, im)
            assert abs(alpha) <= 0.8 and alpha.imag != 0
            theta_a = 2 * math.asin(abs(alpha))
            w = (1 + np.conjugate(alpha)) / (1 + alpha)
            vth = math.atan2(w.imag, w.real)
            expect = (theta_a - vth, 2 * math.pi - theta_a - vth)
            for n_deg in (8, 21):
                aseq = pp.VerblunskySeq.geronimus(alpha, horizon=n_deg)
                cd = pp.cd_from_verblunsky(aseq)
                q = pp.default_scaling_for(aseq, n_deg, cd=cd)
                sa = pp.support_arc(cd, q, n_deg)
                err = max(abs(sa.theta1 - expect[0]), abs(sa.theta2 - expect[1]))
                worst = max(worst, err)
                assert err < 1e-9
    print(f"ACCEPTANCE 2 PASS: 5x5 grid sharp to {worst:.2e} (tol 1e-9), "
          "independent of N")


def test_criterion_3_alternating_family_optimality():
    """Support arc endpoints match the closed-form arccos expression."""
    worst = 0.0
    for b in (0.3, 0.6):
        for c in (0.25, 0.5):
            vplus = math.acos((c * c - b * b + math.sqrt(1 - b * b) ** 2)
                              / (c * c + 1))
            aseq = pp.VerblunskySeq.alternating(b, b, c, horizon=24)
            cd = pp.cd_from_verblunsky(aseq)
            q = pp.default_scaling_for(aseq, 24, cd=cd)
            sa = pp.support_arc(cd, q, 24)
            err = max(abs(sa.theta1 - vplus),
                      abs(sa.theta2 - (2 * math.pi - vplus)))
            worst = max(worst, err)
            assert err < 1e-9
    print(f"ACCEPTANCE 3 PASS: alternating-family arcs optimal to {worst:.2e} "
          "(tol 1e-9)")


def test_criterion_4_enclosure_soundness(corpus):
    """All four enclosure methods strictly contain the zeros; zeros agree
    with an independent grid scan where the grid can resolve them."""
    grid = np.linspace(-1.0, 1.0, 100_001)
    cell = grid[1] - grid[0]
    oracle_checked = 0
    hidden_pairs_total = 0
    for cd, q, n_deg in corpus:
        zl = pp.zeros_W(cd, n_deg)
        for enc in (pp.enclosure_thm44(cd, q, n_deg),
                    pp.enclosure_thm46(cd, q, n_deg),
                    pp.enclosure_cor45(cd, n_deg),
                    pp.enclosure_cor47(cd, n_deg)):
            assert enc.A < zl.x[-1], f"{enc.method} lower bound not strict"
            assert zl.x[0] < enc.B, f"{enc.method} upper bound not strict"
        if n_deg > 30:
            continue
        # independent oracle: sign scan plus in-cell bisection
        c, d = cd.c, cd.d
        mant, _ = _eval_W_grid(c, d, n_deg, grid)
        sign = np.sign(mant)
        flips = np.nonzero(sign[:-1] * sign[1:] < 0)[0]
        asc = zl.x[::-1]
        # zero pairs tighter than one grid cell are invisible to the scan
        hidden = int(np.count_nonzero(np.diff(asc) < cell))
        hidden_pairs_total += hidden
        assert len(flips) >= n_deg - 2 * hidden
        assert len(flips) <= n_deg
        if len(flips) == n_deg:
            lo = grid[flips].copy()
            hi = grid[flips + 1].copy()
            for _ in range(30):
                mid = 0.5 * (lo + hi)
                sm = np.sign(_eval_W_grid(c, d, n_deg, mid)[0])
                slo = np.sign(_eval_W_grid(c, d, n_deg, lo)[0])
                take = sm == slo
                lo = np.where(take, mid, lo)
                hi = np.where(take, hi, mid)
            np.testing.assert_allclose(asc, 0.5 * (lo + hi), atol=1e-6)
            oracle_checked += 1
    assert oracle_checked >= 30
    print(f"ACCEPTANCE 4 PASS: 200 instances x 4 methods strictly sound; "
          f"grid oracle exact on {oracle_checked} instances "
          f"({hidden_pairs_total} sub-cell pairs on the rest)")


def test_criterion_5_interlacing_and_endpoint_signs(corpus):
    """Interlacing ladders and endpoint sign pattern up to degree 100."""
    for cd, _, _ in corpus:
        # one forward pass per endpoint gives every degree's sign
        for x, parity in ((1.0, 0), (-1.0, 1)):
            w_prev, w = 0.0, 1.0
            for n in range(1, 101):
                w, w_prev = ((x - cd.c[n - 1] * math.sqrt(max(0.0, 1 - x * x)))
                             * w - (cd.d[n - 2] * w_prev if n > 1 else 0.0)), w
                expected = 1.0 if parity == 0 else (-1.0) ** n
                assert expected * w > 0.0
                scale = max(abs(w), abs(w_prev))
                if scale > 1e250:
                    w /= scale
                    w_prev /= scale
    for cd, _, _ in corpus[:15]:
        assert_interlacing(cd, zeros_ladder(cd, 100))
    print("ACCEPTANCE 5 PASS: endpoint signs on 200 instances and interlacing "
          "ladders on 15 instances, degrees to 100")


def test_criterion_6_roundtrip():
    """Coefficients -> (c, d) -> coefficients below 1e-9 residual."""
    gen = np.random.default_rng(445566)
    worst = 0.0
    for _ in range(100):
        n = int(gen.integers(2, 51))
        values = random_alpha(gen, n, rmax=0.9)
        cd = pp.cd_from_verblunsky(pp.VerblunskySeq.from_values(values))
        rec = pp.verblunsky_from_cd(cd, t=pp.mass_at_one(cd)).prefix(n)
        worst = max(worst, float(np.abs(rec - values).max()))
    assert worst < 1e-9
    print(f"ACCEPTANCE 6 PASS: 100 roundtrips, worst residual {worst:.2e} "
          "(tol 1e-9)")


def test_criterion_7_chain_sequence_extremality():
    """Extremal constants flip across their strict boundaries."""
    for n_deg in range(3, 51):
        base = pp.ismail_li_constant(n_deg)
        assert pp.chain_failure_index(np.full(n_deg - 1, base * (1 - 1e-9))) is None
        assert pp.chain_failure_index(np.full(n_deg - 1, base * (1 + 1e-9))) is not None
    gen = np.random.default_rng(9090)
    for _ in range(20):
        n = int(gen.integers(3, 21))
        h = gen.uniform(0.15, 0.85, n)
        d = (1 - h[:-1]) * h[1:] * gen.uniform(0.3, 1.0, n - 1)
        thr = pp.constant_scaling_threshold(d)
        assert pp.make_scaling(d, np.full(n - 1, min(thr * (1 + 1e-6), 1.0)))
        with pytest.raises(pp.ScalingError):
            pp.make_scaling(d, np.full(n - 1, thr * (1 - 1e-6)))
    print("ACCEPTANCE 7 PASS: extremal constant boundary at +-1e-9 for "
          "N=3..50; threshold boundary at +-1e-6 on 20 random chains")


def test_criterion_8_gap_certificates():
    """Certificates verify inside the closed-form gap, falsify elsewhere."""
    ger = pp.VerblunskySeq.geronimus(-0.5, horizon=8)
    inside_arcs = [(5 * math.pi / 3 + 0.01, 2 * math.pi + math.pi / 3 - 0.01),
                   (5 * math.pi / 3 + 0.4, 2 * math.pi + math.pi / 3 - 0.4)]
    for t1, t2 in inside_arcs:
        cert = pp.gap_certificate(ger, t1, t2, 10_000)
        assert cert.verified and cert.horizon == 10_000
    overlapping = [(5 * math.pi / 3 + 0.01, 2 * math.pi + math.pi / 3 + 0.2),
                   (5 * math.pi / 3 - 0.2, 2 * math.pi + math.pi / 3 - 0.01)]
    for t1, t2 in overlapping:
        cert = pp.gap_certificate(ger, t1, t2, 10_000)
        assert not cert.verified
        assert cert.violated_at is not None
    lebesgue = pp.VerblunskySeq.from_values(np.zeros(2001))
    for t1, t2 in ((0.3, 0.9), (2.0, 2.1), (5.5, 6.2)):
        cert = pp.gap_certificate(lebesgue, t1, t2, 2000)
        assert not cert.verified
    print("ACCEPTANCE 8 PASS: gap certificates verified to N=10^4 inside the "
          "closed-form gap, violated on overlap and for the full-support case")


def test_criterion_9_chebyshev_exactness():
    """Symmetric quarter-chain zeros equal cos(j pi / (N + 1)) to 1e-10."""
    worst = 0.0
    for n_deg in range(1, 51):
        cd = pp.CdParams.from_sequences(np.zeros(n_deg),
                                        np.full(max(n_deg - 1, 0), 0.25))
        zl = pp.zeros_W(cd, n_deg)
        expect = np.cos(np.arange(1, n_deg + 1) * math.pi / (n_deg + 1))
        worst = max(worst, float(np.abs(zl.x - expect).max()))
    assert worst < 1e-10
    print(f"ACCEPTANCE 9 PASS: Chebyshev zeros exact to {worst:.2e} "
          "(tol 1e-10) for N <= 50")
