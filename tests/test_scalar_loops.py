"""Sequential recursions against frozen numpy-scalar references.

The library runs its sequential loops on Python floats, read ``_CHUNK``
terms at a time, and writes each complex128 operation out the way numpy
rounds it.  The ``ref_*`` functions below are the earlier loops, which index
numpy arrays one numpy scalar at a time; results, drift, verdicts and error
indices must agree bit for bit, across chunk boundaries included.
"""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import popuc as pp
from popuc import bounds, chainseq, transforms
from popuc.chainseq import _CHUNK, BOUNDARY_TOL
from popuc.errors import InputError, InvariantError, NotChainSequenceError
from popuc.transforms import _DIVISION_GUARD, _cdiv

from conftest import random_alpha

LENGTHS = [1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 3 * _CHUNK + 5]


# -- frozen references ---------------------------------------------------------


def ref_tau(a, rotation=None):
    out = np.empty(len(a) + 1, dtype=complex)
    drift = 0.0
    if rotation is None:
        tau = 1.0 + 0.0j
        phase = None
    else:
        phase = cmath.exp(1j * transforms._normalize_rotation(rotation))
        tau = phase
    out[0] = tau
    for k in range(len(a)):
        prod = tau * a[k]
        denom = 1.0 - prod
        if abs(denom) < _DIVISION_GUARD:
            raise InputError(f"Verblunsky coefficient alpha_{k} is within rounding "
                             f"of the unit circle: |1 - tau_{k} alpha_{k}| < 1e-15")
        if phase is None:
            tau = (tau - a[k].conjugate()) / denom
        else:
            tau = phase * tau * (1.0 - prod.conjugate()) / denom
        mod = abs(tau)
        drift = max(drift, abs(mod - 1.0))
        tau /= mod
        out[k + 1] = tau
    return out, drift


def ref_tau_from_c(c):
    out = np.empty(len(c) + 1, dtype=complex)
    tau = 1.0 + 0.0j
    out[0] = tau
    drift = 0.0
    for k, ck in enumerate(c):
        tau = tau * (1.0 - 1j * ck) / (1.0 + 1j * ck)
        mod = abs(tau)
        drift = max(drift, abs(mod - 1.0))
        tau /= mod
        out[k + 1] = tau
    return out, drift


def ref_alpha_from_cd(cd, t):
    """Coefficients, or (step, m) where the augmented recursion leaves (0, 1)."""
    m1_max = pp.maximal_params(cd.d).values[0]
    n = cd.n
    d = cd.d.values
    tau = ref_tau_from_c(cd.c)[0]
    alpha = np.empty(n, dtype=complex)
    head = (1.0 - t) * m1_max
    stored = cd.g.values
    if abs(head - stored[0]) <= 4.0 * np.finfo(float).eps * max(stored[0], 1e-300):
        orbit = stored
    else:
        orbit = None
    m = stored[0] if orbit is not None else head
    for k in range(n):
        if not (0.0 < m < 1.0) and not (k == 0 and m == 0.0):
            return k + 1, m
        ck = cd.c[k]
        alpha[k] = (1.0 - 2.0 * m - 1j * ck) / ((1.0 - 1j * ck) * tau[k])
        if k < n - 1:
            m = orbit[k + 1] if orbit is not None else d[k] / (1.0 - m)
    return alpha


def ref_minimal(d):
    count = len(d)
    g = np.empty(count + 1)
    g[0] = 0.0
    for n in range(1, count + 1):
        gn = d[n - 1] / (1.0 - g[n - 1])
        upper = 1.0 + BOUNDARY_TOL if n == count else 1.0
        if not (0.0 < gn < upper):
            raise NotChainSequenceError(n)
        g[n] = gn
    return g


def ref_backward(d):
    count = len(d)
    m = np.empty(count + 1)
    m[count] = 1.0
    for n in range(count - 1, -1, -1):
        val = 1.0 - d[n] / m[n + 1]
        if val <= 0.0:
            raise NotChainSequenceError(n + 1)
        m[n] = val
    return m


def ref_gap(cd, theta1, theta2, N):
    width = theta2 - theta1
    half = 0.5 * (2.0 * math.pi - width)
    x_star = math.cos(half)
    s = math.sqrt(max(0.0, 1.0 - x_star * x_star))
    t = x_star - cd.c * s
    d = cd.d.values
    m = np.empty(N)
    prev = 0.0
    for n in range(1, N + 1):
        val = d[n - 1] / (t[n - 1] * t[n] * (1.0 - prev))
        m[n - 1] = val
        if not 0.0 < val < 1.0:
            return n, m[:n]
        prev = val
    return None, m


def ref_thm44(c, q, N):
    best_lo, best_hi, arg_lo, arg_hi = math.inf, -math.inf, None, None
    for m in range(2, N + 1):
        u_minus, u_plus = bounds.quadratic_roots(c[m - 2], c[m - 1], q[m - 2])
        x_lo = bounds._x_from_u(u_minus)
        x_hi = bounds._x_from_u(u_plus)
        if x_lo < best_lo:
            best_lo, arg_lo = x_lo, m
        if x_hi > best_hi:
            best_hi, arg_hi = x_hi, m
    return best_lo, best_hi, arg_lo, arg_hi


def ref_thm46(c, q, N):
    qs = np.empty(N)
    qs[0] = q[0]
    for n in range(2, N):
        qs[n - 1] = max(q[n - 2], q[n - 1])
    qs[N - 1] = q[N - 2]
    best_lo, best_hi, arg_lo, arg_hi = math.inf, -math.inf, None, None
    for n in range(1, N + 1):
        cn, qn = c[n - 1], qs[n - 1]
        root = math.sqrt(cn * cn + (1.0 - qn))
        sq = math.sqrt(qn)
        x_lo = bounds._x_from_quarter((cn + root) / (1.0 + sq))
        den = -cn + root
        x_hi = 1.0 if den == 0.0 else bounds._x_from_quarter((1.0 + sq) / den)
        if x_lo < best_lo:
            best_lo, arg_lo = x_lo, n
        if x_hi > best_hi:
            best_hi, arg_hi = x_hi, n
    return best_lo, best_hi, arg_lo, arg_hi


def ref_cor45(c, N):
    sums = c[:N - 1] + c[1:N]
    if not ((sums > 0.0).all() or (sums < 0.0).all()):
        return -1.0, 1.0, None, None
    lower = sums[0] > 0.0
    best, arg = (math.inf if lower else -math.inf), None
    for m in range(2, N + 1):
        x = bounds._x_from_u((c[m - 2] * c[m - 1] - 1.0) / (c[m - 2] + c[m - 1]))
        if (x < best) if lower else (x > best):
            best, arg = x, m
    return (best, 1.0, arg, None) if lower else (-1.0, best, None, arg)


def same_bits(a, b):
    """Equal dtype, shape and bit patterns (signed zeros and NaNs included)."""
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and np.array_equal(
        a.view(np.int64), b.view(np.int64))


def chain_terms(n, seed):
    """n terms of a chain sequence held away from the boundary: 0.7 times
    (1 - h_k) h_{k+1}, so rounding cannot push thousands of terms out."""
    h = np.random.default_rng(seed).uniform(0.15, 0.85, n + 1)
    return 0.7 * (1.0 - h[:-1]) * h[1:]


def random_cd(n, seed):
    """(c, d) with n coefficients, and a constant scaling valid for d."""
    c = np.random.default_rng(seed + 1).uniform(-2.5, 2.5, n)
    return pp.CdParams.from_sequences(c, chain_terms(n - 1, seed)), np.full(n - 1, 0.8)


# -- tau recursions ------------------------------------------------------------


@pytest.mark.parametrize("n", LENGTHS)
@pytest.mark.parametrize("rotation", [None, 1.234, 2.0 * math.pi])
def test_tau_recursion_bits(n, rotation):
    rng = np.random.default_rng(n)
    a = random_alpha(rng, n)
    ref, ref_drift = ref_tau(a, rotation)
    got = pp.tau_from_verblunsky(pp.VerblunskySeq.from_values(a), n, rotation)
    assert same_bits(got.values, ref)
    assert got.max_drift == ref_drift


@pytest.mark.parametrize("n", LENGTHS)
def test_rotated_geronimus_bits(n):
    alpha = pp.VerblunskySeq.geronimus(complex(-0.5, 0.2), n)
    ref, ref_drift = ref_tau(alpha.prefix(n), 5.5)
    got = pp.tau_from_verblunsky(alpha, n, 5.5)
    assert same_bits(got.values, ref)
    assert got.max_drift == ref_drift


@pytest.mark.parametrize("rotation", [None, 0.75])
def test_tau_recursion_signed_zeros(rotation):
    # real, zero and negative-zero coefficients keep exact zero parts in tau;
    # 0.5i then 0.75 - 0.5i leaves a -0.0 part before renormalization, where
    # tau * (1 / |tau|) and numpy's tau / |tau| round to zeros of opposite sign
    a = np.array([0.5j, complex(0.75, -0.5), 0.0, -0.0, complex(0.5, -0.0), -0.5,
                  complex(0.5, 0.5), complex(0.5, -0.5), complex(-0.0, 0.25), 0.0,
                  complex(0.0, -0.0), complex(-0.0, -0.0)])
    a = np.tile(a, 3)
    ref, ref_drift = ref_tau(a, rotation)
    got = pp.tau_from_verblunsky(pp.VerblunskySeq.from_values(a), len(a), rotation)
    assert same_bits(got.values, ref)
    assert got.max_drift == ref_drift


def test_division_guard_index_past_chunk():
    # a valid alpha within rounding of the unit circle is an input error
    a = np.zeros(2 * _CHUNK, dtype=complex)
    a[_CHUNK + 1] = np.nextafter(1.0, 0.0)  # tau is exactly 1, so 1 - tau a ~ 1e-16
    with pytest.raises(InputError) as ref_exc:
        ref_tau(a)
    with pytest.raises(InputError) as exc:
        pp.tau_from_verblunsky(pp.VerblunskySeq.from_values(a))
    assert str(exc.value) == str(ref_exc.value)
    assert f"alpha_{_CHUNK + 1} " in str(exc.value)


@pytest.mark.parametrize("n", LENGTHS)
def test_tau_from_c_bits(n):
    c = np.random.default_rng(n).uniform(-2.5, 2.5, n)
    ref, ref_drift = ref_tau_from_c(c)
    got = transforms._tau_from_c(c)
    assert same_bits(got.values, ref)
    assert got.max_drift == ref_drift


# -- verblunsky_from_cd ----------------------------------------------------------


@pytest.mark.parametrize("n", LENGTHS[1:])
@pytest.mark.parametrize("source", ["cd", "alpha"])
@pytest.mark.parametrize("t", [0.25, "mass"])
def test_alpha_from_cd_bits(n, source, t):
    rng = np.random.default_rng(n)
    if source == "cd":
        cd = random_cd(n, n)[0]
    else:
        cd = pp.cd_from_verblunsky(pp.VerblunskySeq.from_values(random_alpha(rng, n)))
    if t == "mass":  # the head of the stored g: the orbit path
        t = pp.mass_at_one(cd)
    ref = ref_alpha_from_cd(cd, t)
    if isinstance(ref, tuple):
        step, m = ref
        if step == n and m >= 1.0:  # a terminating member is an input error
            with pytest.raises(InputError, match="member terminates"):
                pp.verblunsky_from_cd(cd, t=t)
        else:
            with pytest.raises(InvariantError, match=f"at step {step}$"):
                pp.verblunsky_from_cd(cd, t=t)
    else:
        assert same_bits(pp.verblunsky_from_cd(cd, t=t).prefix(n), ref)


# -- chain-sequence recursions -------------------------------------------------


@pytest.mark.parametrize("n", LENGTHS)
def test_minimal_and_maximal_bits(n):
    d = chain_terms(n, n)
    assert same_bits(chainseq._minimal_raw(d), ref_minimal(d))
    assert same_bits(chainseq._backward_maximal(d), ref_backward(d))


def test_minimal_failure_index_past_chunk():
    d = np.full(2 * _CHUNK, 0.2)
    d[_CHUNK] = 5.0
    with pytest.raises(NotChainSequenceError) as ref_exc:
        ref_minimal(d)
    assert ref_exc.value.index == _CHUNK + 1
    assert chainseq.chain_failure_index(pp.ChainSeq.from_values(d)) == _CHUNK + 1


def test_minimal_boundary_tolerance_on_final_term():
    d = np.full(_CHUNK + 1, 0.2)
    g = ref_minimal(d[:-1])
    d[-1] = (1.0 - g[-1]) * (1.0 + 1e-13)  # final g just above 1, inside the slack
    assert same_bits(chainseq._minimal_raw(d), ref_minimal(d))
    d_interior = np.append(d, 0.2)  # the same term is rejected when not final
    with pytest.raises(NotChainSequenceError) as exc:
        chainseq._minimal_raw(d_interior)
    assert exc.value.index == _CHUNK + 1


@pytest.mark.parametrize("at", [0, _CHUNK - 1, _CHUNK, 2 * _CHUNK + 3])
def test_backward_failure_index(at):
    d = np.full(3 * _CHUNK + 5, 0.2)
    d[at] = 2.0
    with pytest.raises(NotChainSequenceError) as ref_exc:
        ref_backward(d)
    with pytest.raises(NotChainSequenceError) as exc:
        chainseq._backward_maximal(d)
    assert exc.value.index == ref_exc.value.index == at + 1


# -- gap certificate -----------------------------------------------------------


@pytest.mark.parametrize("n", LENGTHS)
def test_gap_ratios_bits(n):
    alpha = pp.VerblunskySeq.geronimus(-0.5, n + 1)
    theta1, theta2 = 2.0 * math.pi - 0.9, 2.0 * math.pi + 0.9
    cert = pp.gap_certificate(alpha, theta1, theta2, n)
    at, m = ref_gap(pp.rotated_cd(alpha, theta2, n + 1), theta1, theta2, n)
    assert cert.verified and at is None
    assert same_bits(cert.m, m)


def test_gap_violation_just_past_chunk():
    n = 2 * _CHUNK
    values = pp.VerblunskySeq.geronimus(-0.5, n + 1).prefix(n + 1).copy()
    values[_CHUNK + 2] = 0.95
    alpha = pp.VerblunskySeq.from_values(values)
    theta1, theta2 = 2.0 * math.pi - 0.9, 2.0 * math.pi + 0.9
    cert = pp.gap_certificate(alpha, theta1, theta2, n)
    at, m = ref_gap(pp.rotated_cd(alpha, theta2, n + 1), theta1, theta2, n)
    assert cert.verdict == "violated"
    assert cert.violated_at == at
    assert _CHUNK < at <= _CHUNK + 4
    assert same_bits(cert.m, m)


# on this arc the Geronimus alpha = -0.5 ratios stay in (0, 1) (its gap is
# the arc of width 2 pi / 3 around z = 1)
GAP_ARC = (2.0 * math.pi - 0.9, 2.0 * math.pi + 0.9)


def kicked_geronimus(count, kicks):
    """``count`` Geronimus alpha = -0.5 coefficients with alpha_k = 0.9 for k in
    ``kicks``: on ``GAP_ARC`` the walk leaves (0, 1) at m_k (k >= 2)."""
    values = pp.VerblunskySeq.geronimus(-0.5, count).prefix(count).copy()
    values[[k for k in kicks if k < count]] = 0.9
    return pp.VerblunskySeq.from_values(values)


def assert_streamed_gap_bits(alpha, theta1, theta2, n):
    """gap_certificate, walked a block at a time, against the whole rotated
    cd walked by the reference loop; returns the violation index."""
    cert = pp.gap_certificate(alpha, theta1, theta2, n)
    cd = pp.rotated_cd(alpha, theta2, n + 1)
    half = 0.5 * (2.0 * math.pi - (theta2 - theta1))
    if not (math.sin(half) > 0.0 and math.cos(half) / math.sin(half) < cd.c[0]):
        assert (cert.verdict, cert.violated_at, cert.c1_condition) == ("violated", 0, False)
        return 0
    at, m = ref_gap(cd, theta1, theta2, n)
    assert cert.violated_at == at
    assert cert.verdict == ("verified" if at is None else "violated")
    assert same_bits(cert.m, m)
    return at


@pytest.mark.parametrize("at", [2, 63, 64, 65, 191, 192, 193,
                                _CHUNK - 1, _CHUNK, _CHUNK + 1])
def test_gap_violation_at_block_edges(at):
    # the blocks end at c_64, c_192, c_448, .., c_4032, c_8128
    n = _CHUNK + 100
    assert assert_streamed_gap_bits(kicked_geronimus(n + 1, [at]), *GAP_ARC, n) == at


@settings(max_examples=100, deadline=None)
@given(source=st.sampled_from(["inline", "lambda-eta"]),
       n=st.integers(1, 2 * _CHUNK + 10),
       kick=st.none() | st.floats(0.0, 1.0),
       near_one=st.booleans(),
       theta2=st.floats(0.05, 4.0 * math.pi),
       width=st.floats(1e-4, 2.0 * math.pi),
       lam=st.floats(-0.45, 5.0), eta=st.floats(-3.0, 3.0))
def test_streamed_gap_matches_whole(source, n, kick, near_one, theta2, width, lam,
                                    eta):
    # inline: the Geronimus gap arc, the walk leaving (0, 1) at the kick if
    # any; lambda-eta: thin arcs at z = 1, whose walks leave (0, 1) after
    # thousands of terms, or any arc
    if source == "inline":
        alpha = kicked_geronimus(n + 1, [] if kick is None else [2 + int(kick * n)])
        theta1, theta2 = GAP_ARC if near_one else (theta2 - width, theta2)
    else:
        alpha = pp.VerblunskySeq.lambda_eta(lam, eta)
        if near_one:
            theta2 = 2.0 * math.pi + width % 0.05
            width = min(width, 0.1)
        theta1 = theta2 - width
    assert_streamed_gap_bits(alpha, theta1, theta2, n)


@pytest.mark.parametrize("family", [
    pp.VerblunskySeq.geronimus(0.3 + 0.4j),
    pp.VerblunskySeq.alternating(0.6, -0.3, 0.5),
    pp.VerblunskySeq.lambda_eta(1.0, 1.0),
    pp.VerblunskySeq.from_values(random_alpha(np.random.default_rng(5), 3 * _CHUNK)),
])
def test_coefficient_blocks_bits(family):
    stops = transforms._block_stops(2 * _CHUNK + 7)
    assert stops[:3] == [64, 192, 448] and stops[-1] == 2 * _CHUNK + 7
    assert same_bits(np.concatenate(list(family.blocks(stops))),
                     family.prefix(2 * _CHUNK + 7))


@pytest.mark.parametrize("n", LENGTHS[1:])
def test_random_alpha_gap_bits(n):
    alpha = pp.VerblunskySeq.from_values(random_alpha(np.random.default_rng(n), n + 1))
    cert = pp.gap_certificate(alpha, 1.0, 2.2, n)
    at, m = ref_gap(pp.rotated_cd(alpha, 2.2, n + 1), 1.0, 2.2, n)
    assert cert.violated_at == at
    assert same_bits(cert.m, m)


# -- enclosure sweeps ----------------------------------------------------------


@pytest.mark.parametrize("n", LENGTHS[1:])
def test_enclosure_sweeps_bits(n):
    cd, q = random_cd(n + 1, n)
    for got, ref in [
        (bounds.enclosure_thm44(cd, q, n), ref_thm44(cd.c, q, n)),
        (bounds.enclosure_thm46(cd, q, n), ref_thm46(cd.c, q, n)),
        (bounds.enclosure_cor45(cd, n), ref_cor45(cd.c, n)),
    ]:
        assert (got.A, got.B, got.argmin_index, got.argmax_index) == ref


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_enclosure_ties_keep_smallest_index(sign):
    n = _CHUNK + 7
    c = sign * np.tile([0.5, 1.5, 0.75], n // 3 + 2)[:n + 1]
    cd = pp.CdParams.from_sequences(c, np.full(n, 0.2))
    q = np.full(n - 1, 0.9)
    for got, ref in [
        (bounds.enclosure_thm44(cd, q, n), ref_thm44(cd.c, q, n)),
        (bounds.enclosure_thm46(cd, q, n), ref_thm46(cd.c, q, n)),
        (bounds.enclosure_cor45(cd, n), ref_cor45(cd.c, n)),
    ]:
        assert (got.A, got.B, got.argmin_index, got.argmax_index) == ref


# -- Smith division ------------------------------------------------------------


def parts():
    magnitude = st.floats(min_value=1e-300, max_value=1e300)
    signed = st.builds(lambda m, s: s * m, magnitude, st.sampled_from([1.0, -1.0]))
    return st.one_of(signed, st.sampled_from([0.0, -0.0, 1.0, -1.0]),
                     st.floats(allow_nan=False, allow_infinity=False))


@settings(max_examples=2000, deadline=None)
@given(nr=parts(), ni=parts(), dr=parts(), di=parts(), equal=st.booleans())
def test_cdiv_matches_numpy(nr, ni, dr, di, equal):
    if equal:  # |re| = |im| takes the first branch
        di = math.copysign(dr, di)
    if dr == 0.0 and di == 0.0:
        dr = 1.0
    with np.errstate(all="ignore"):
        ref = np.complex128(complex(nr, ni)) / np.complex128(complex(dr, di))
    got = _cdiv(nr, ni, dr, di)
    assert same_bits(np.array(got), np.array([ref.real, ref.imag]))


def test_cdiv_real_divisor_matches_numpy():
    for z in [complex(-0.0, 0.5), complex(0.5, -0.0), complex(-0.0, -0.5),
              complex(0.3, 0.4)]:
        ref = np.complex128(z) / np.float64(2.0)
        assert same_bits(np.array(_cdiv(z.real, z.imag, 2.0, 0.0)),
                         np.array([ref.real, ref.imag]))
