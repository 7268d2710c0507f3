"""Sequential recursions and enclosure sweeps against frozen scalar references.

The library runs its sequential loops on Python floats, read ``_CHUNK``
terms at a time, and writes each complex128 operation out the way numpy
rounds it; the enclosure sweeps run as numpy array kernels over the same
blocks.  The ``ref_*`` functions below are the earlier loops, which index
numpy arrays one numpy scalar at a time, or for the sweeps walk Python floats
through the earlier scalar root formulas; results, verdicts and error indices
must agree bit for bit, across chunk boundaries included.
"""

import cmath
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import popuc as pp
from popuc import bounds, chainseq, transforms
from popuc.chainseq import _CHUNK, BOUNDARY_TOL
from popuc.errors import InputError, InvariantError, NotChainSequenceError
from popuc.transforms import _DIVISION_GUARD, _cdiv

from conftest import one_term_roots, plain_forward_params, random_alpha

LENGTHS = [1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 3 * _CHUNK + 5]


# -- frozen references ---------------------------------------------------------


def ref_tau(a, rotation=None):
    out = np.empty(len(a) + 1, dtype=complex)
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
        tau /= mod
        out[k + 1] = tau
    return out


def ref_tau_from_c(c):
    out = np.empty(len(c) + 1, dtype=complex)
    tau = 1.0 + 0.0j
    out[0] = tau
    for k, ck in enumerate(c):
        tau = tau * (1.0 - 1j * ck) / (1.0 + 1j * ck)
        mod = abs(tau)
        tau /= mod
        out[k + 1] = tau
    return out


def ref_alpha_from_cd(cd, t):
    """Coefficients, or (step, m) where the augmented recursion leaves (0, 1)."""
    m1_max = pp.maximal_params(cd.d)[0]
    n = cd.n
    d = cd.d
    tau = ref_tau_from_c(cd.c)
    alpha = np.empty(n, dtype=complex)
    head = (1.0 - t) * m1_max
    stored = cd.g
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
    d = cd.d
    m = np.empty(N)
    prev = 0.0
    for n in range(1, N + 1):
        val = d[n - 1] / (t[n - 1] * t[n] * (1.0 - prev))
        m[n - 1] = val
        if not 0.0 < val < 1.0:
            return n, m[:n]
        prev = val
    return None, m


def ref_quadratic_roots(a, b, q):
    if not 0.0 <= q <= 1.0:
        raise InputError(f"q must lie in [0, 1], got {q}")
    s = a + b
    if q == 1.0:
        if s > 0.0:
            return (a * b - 1.0) / s, math.inf
        if s < 0.0:
            return -math.inf, (a * b - 1.0) / s
        return -math.inf, math.inf
    lead = 1.0 - q
    prod = a * b - q
    disc = s * s - 4.0 * lead * prod
    disc = max(disc, 0.0)
    root = math.sqrt(disc)
    if s >= 0.0:
        big = (s + root) / (2.0 * lead)
    else:
        big = (s - root) / (2.0 * lead)
    if big == 0.0:
        return 0.0, 0.0
    other = prod / (lead * big)
    return (other, big) if other <= big else (big, other)


def ref_x_from_u(u):
    if math.isinf(u):
        return 1.0 if u > 0 else -1.0
    return u / math.hypot(1.0, u)


def ref_x_from_quarter(u):
    uu = u * u
    if math.isinf(uu):
        return 1.0
    return (uu - 1.0) / (uu + 1.0)


def ref_thm44(c, q, N):
    c, q = c.tolist(), q.tolist()
    best_lo, best_hi, arg_lo, arg_hi = math.inf, -math.inf, None, None
    for m in range(2, N + 1):
        u_minus, u_plus = ref_quadratic_roots(c[m - 2], c[m - 1], q[m - 2])
        x_lo = ref_x_from_u(u_minus)
        x_hi = ref_x_from_u(u_plus)
        if x_lo < best_lo:
            best_lo, arg_lo = x_lo, m
        if x_hi > best_hi:
            best_hi, arg_hi = x_hi, m
    return best_lo, best_hi, arg_lo, arg_hi


def ref_thm46(c, q, N):
    c, q = c.tolist(), q.tolist()
    qs = [q[0]] + [max(q[n - 2], q[n - 1]) for n in range(2, N)] + [q[N - 2]]
    best_lo, best_hi, arg_lo, arg_hi = math.inf, -math.inf, None, None
    for n in range(1, N + 1):
        cn, qn = c[n - 1], qs[n - 1]
        root = math.sqrt(cn * cn + (1.0 - qn))
        sq = math.sqrt(qn)
        x_lo = ref_x_from_quarter((cn + root) / (1.0 + sq))
        den = -cn + root
        x_hi = 1.0 if den == 0.0 else ref_x_from_quarter((1.0 + sq) / den)
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
    c = c.tolist()
    best, arg = (math.inf if lower else -math.inf), None
    for m in range(2, N + 1):
        x = ref_x_from_u((c[m - 2] * c[m - 1] - 1.0) / (c[m - 2] + c[m - 1]))
        if (x < best) if lower else (x > best):
            best, arg = x, m
    return (best, 1.0, arg, None) if lower else (-1.0, best, None, arg)


def bits(*values):
    """Floats as their bit patterns (signed zeros told apart), others as they are."""
    return tuple(struct.pack("<d", v) if isinstance(v, float) else v for v in values)


def assert_enclosures_match(cd, q, N):
    """The four enclosures against the references, bit for bit, or the same
    InputError where the extrema make no open interval."""
    for method, ref in [
        (lambda: bounds.enclosure_thm44(cd, q, N), ref_thm44(cd.c, q, N)),
        (lambda: bounds.enclosure_thm46(cd, q, N), ref_thm46(cd.c, q, N)),
        (lambda: bounds.enclosure_cor45(cd, N), ref_cor45(cd.c, N)),
        (lambda: bounds.enclosure_cor47(cd, N), ref_thm46(cd.c, np.ones(N - 1), N)),
    ]:
        try:
            enc = method()
        except InputError as exc:
            assert not -1.0 <= ref[0] < ref[1] <= 1.0
            assert str(exc) == f"invalid enclosure ({ref[0]}, {ref[1]})"
        else:
            assert bits(enc.A, enc.B, enc.argmin_index, enc.argmax_index) == bits(*ref)


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


# the rotated tau is computed in blocks of terms 1..64, 65..192, 193..448, ..
SEAMS = [63, 64, 65, 192, 193]


def checked_rotated_cd(alpha, rotation, n, exact=True):
    """``rotated_cd(alpha, rotation, n)``, after checking that its tau holds
    tau_0 .. tau_n and that tau_0 is e^{i theta} of the folded angle: exactly
    where the recursion runs, to rounding where a closed form gives it."""
    cd = pp.rotated_cd(alpha, rotation, n)
    phase = cmath.exp(1j * transforms._normalize_rotation(rotation))
    assert len(cd.tau) == n + 1
    assert cd.tau[0] == phase if exact else abs(cd.tau[0] - phase) <= 2.0 ** -51
    return cd


def tau_of(alpha, n, rotation):
    """tau_0 .. tau_n of ``alpha``, rotated by ``rotation`` unless it is None."""
    if rotation is None:
        return pp.tau_from_verblunsky(alpha, n)
    return checked_rotated_cd(alpha, rotation, n).tau


@pytest.mark.parametrize("n", LENGTHS + SEAMS)
@pytest.mark.parametrize("rotation", [None, 1.234, 2.0 * math.pi])
def test_tau_recursion_bits(n, rotation):
    rng = np.random.default_rng(n)
    a = random_alpha(rng, n)
    got = tau_of(pp.VerblunskySeq.from_values(a), n, rotation)
    assert same_bits(got, ref_tau(a, rotation))


@pytest.mark.parametrize("n", LENGTHS + SEAMS)
def test_rotated_geronimus_bits(n):
    alpha = pp.VerblunskySeq.geronimus(complex(-0.5, 0.2), n)
    assert alpha._rotated_tau_fn(5.5) is None  # in the support: the recursion runs
    assert same_bits(tau_of(alpha, n, 5.5), ref_tau(alpha.prefix(n), 5.5))


@pytest.mark.parametrize("n", LENGTHS + SEAMS)
@pytest.mark.parametrize("alpha", [-0.5, complex(-0.5, 0.2)])
def test_rotated_geronimus_closed_form_bits(n, alpha):
    # at the middle of the gap the closed form gives tau; joined from blocks,
    # tau, c and g keep the bits of one closed-form evaluation over 0 .. n
    alpha = complex(alpha)
    family = pp.VerblunskySeq.geronimus(alpha, n)
    theta = 2.0 * math.pi - cmath.phase((1 + alpha.conjugate()) / (1 + alpha))
    closed = family._rotated_tau_fn(transforms._normalize_rotation(theta))
    assert closed is not None
    cd = checked_rotated_cd(family, theta, n, exact=False)
    whole = closed(0, n + 1)
    c, g = transforms._cg(whole[:-1], family.prefix(n))
    assert same_bits(cd.tau, whole)
    assert same_bits(cd.c, c) and same_bits(cd.g, g)


def test_rotated_cd_needs_a_term():
    alpha = pp.VerblunskySeq.from_values(np.zeros(4))
    with pytest.raises(InputError, match=r"^need at least one coefficient, got n_terms=0$"):
        pp.rotated_cd(alpha, 1.0, 0)


@pytest.mark.parametrize("rotation", [None, 0.75])
def test_tau_recursion_signed_zeros(rotation):
    # real, zero and negative-zero coefficients keep exact zero parts in tau;
    # 0.5i then 0.75 - 0.5i leaves a -0.0 part before renormalization, where
    # tau * (1 / |tau|) and numpy's tau / |tau| round to zeros of opposite sign
    a = np.array([0.5j, complex(0.75, -0.5), 0.0, -0.0, complex(0.5, -0.0), -0.5,
                  complex(0.5, 0.5), complex(0.5, -0.5), complex(-0.0, 0.25), 0.0,
                  complex(0.0, -0.0), complex(-0.0, -0.0)])
    a = np.tile(a, 3)
    got = tau_of(pp.VerblunskySeq.from_values(a), len(a), rotation)
    assert same_bits(got, ref_tau(a, rotation))


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
    assert same_bits(transforms._tau_from_c(c), ref_tau_from_c(c))


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
    assert chainseq.chain_failure_index(d) == _CHUNK + 1


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


def fixed_point(value, scale=1.0):
    """A head m with value / (scale (1 - m)) == m in floating point, reached
    by walking from 0."""
    m = 0.0
    while (step := value / (scale * (1.0 - m))) != m:
        m = step
    return m


def assert_walk_matches(d, head, scale=None):
    g, n = chainseq._forward_params(d, head=head, scale=scale)
    ref_g, ref_n = plain_forward_params(d, head=head, scale=scale)
    assert n == ref_n
    assert same_bits(g, ref_g)


@pytest.mark.parametrize("head", ["on", "below", "above", 0.0])
def test_walk_on_constant_chain(head):
    # a chunk entered on the fixed point is filled, not walked
    m = fixed_point(0.2)
    head = {"on": m, "below": math.nextafter(m, 0.0), "above": 0.5}.get(head, head)
    assert_walk_matches(np.full(3 * _CHUNK + 5, 0.2), head)


def test_walk_from_zero_on_zero_terms():
    # 0 / (1 - 0) == 0, but a walk that reaches 0 has left (0, 1)
    assert_walk_matches(np.zeros(_CHUNK + 1), 0.0)


@pytest.mark.parametrize("at", [_CHUNK - 1, _CHUNK, _CHUNK + 1])
@pytest.mark.parametrize("value", [0.19, 0.2 * (1.0 + 2.0 ** -52), 5.0])
def test_walk_with_constant_run_broken(at, value):
    # a slightly different term, and one that ends the walk, at a chunk edge
    d = np.full(3 * _CHUNK, 0.2)
    d[at] = value
    assert_walk_matches(d, fixed_point(0.2))


@pytest.mark.parametrize("at", [_CHUNK + 100, 2 * _CHUNK - 1])
def test_walk_with_scale_changing_inside_a_chunk(at):
    d = np.full(3 * _CHUNK, 0.16)
    scale = np.full(3 * _CHUNK, 0.8)
    scale[at:] = 0.9
    assert_walk_matches(d, fixed_point(0.16, 0.8), scale)
    scale[at:] = 0.1  # d / s = 1.6: the walk leaves (0, 1) after the change
    assert_walk_matches(d, fixed_point(0.16, 0.8), scale)


def test_walk_with_scaled_fixed_point():
    d = np.full(2 * _CHUNK + 7, 0.21)
    scale = np.full(len(d), 0.875)
    for head in (0.0, fixed_point(0.21, 0.875)):
        assert_walk_matches(d, head, scale)


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
    assert_enclosures_match(cd, q, n)


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_enclosure_ties_keep_smallest_index(sign):
    n = _CHUNK + 7
    c = sign * np.tile([0.5, 1.5, 0.75], n // 3 + 2)[:n + 1]
    cd = pp.CdParams.from_sequences(c, np.full(n, 0.2))
    assert_enclosures_match(cd, np.full(n - 1, 0.9), n)


def runs(values, lengths):
    """Arrays of constant runs: ties between degrees, across blocks too."""
    return st.lists(st.tuples(values, lengths), min_size=1, max_size=5).map(
        lambda rs: np.repeat([v for v, _ in rs], [k for _, k in rs]))


@settings(max_examples=60, deadline=None)
@given(c=runs(st.one_of(st.floats(-1e150, 1e150),
                        st.sampled_from([0.0, -0.0, 0.5, -0.5, 1.0, -1.0])),
              st.one_of(st.integers(1, 6), st.integers(1000, 2500))),
       q=runs(st.one_of(st.just(1.0), st.floats(1e-300, 1.0)), st.integers(1, 3000)),
       sign=st.sampled_from([0.0, 1.0, -1.0]))
def test_enclosures_match_scalar_references(c, q, sign):
    if sign:  # sums of one sign, for cor45's one-sided bound
        c = np.copysign(c, sign)
    if len(c) < 3:
        c = np.concatenate((c, [0.25, -0.75]))
    n = len(c) - 1
    q = np.resize(q, n)
    cd = pp.CdParams.from_sequences(c, 0.2 * q)
    assert_enclosures_match(cd, q[:n - 1], n)


# x(-1 / b) at these b differ by one ulp under math.hypot; np.hypot (glibc,
# x86-64) orders them the other way
ONE_ULP_FLIP = (4.947008708873048, 4.9470087088730486)


@pytest.mark.parametrize("c, q", [
    # c_{n-1} + c_n = 0.0, -0.0 and 0.0, at q < 1 and at q = 1
    ([0.0, -0.0, -0.0, 0.5, -0.5, 0.25], 0.6),
    ([0.0, -0.0, -0.0, 0.5, -0.5, 0.25], 1.0),
    # a discriminant that rounds below 0, clipped to a double root
    ([1.7312936149201734, 1.7312936149201736, 0.3], 1e-20),
    ([0.0, ONE_ULP_FLIP[0], 0.0, ONE_ULP_FLIP[1], 0.0], 1.0),
])
def test_enclosure_edge_cases_bits(c, q):
    n = len(c) - 1
    q = np.full(n, q)
    cd = pp.CdParams.from_sequences(np.array(c), 0.2 * q)
    assert_enclosures_match(cd, q[:n - 1], n)


def test_hypot_flip_is_decided_by_math_hypot():
    u1, u2 = (-1.0 / b for b in ONE_ULP_FLIP)
    assert ref_x_from_u(u2) == math.nextafter(ref_x_from_u(u1), -1.0)
    c = np.array([0.0, ONE_ULP_FLIP[0], 0.0, ONE_ULP_FLIP[1], 0.0])
    enc = bounds.enclosure_cor45(pp.CdParams.from_sequences(c, np.full(4, 0.2)), 5)
    assert (enc.A, enc.argmin_index) == (ref_x_from_u(u2), 4)


@pytest.mark.parametrize("a, b, q", [
    (0.0, 0.0, 0.0), (0.0, -0.0, 0.0), (-0.0, -0.0, 0.0),  # double root at 0
    (-0.0, -0.0, 0.5), (0.3, -0.3, 0.0), (0.3, -0.3, 1.0), (-0.0, -0.0, 1.0),
    (1.7312936149201734, 1.7312936149201736, 1e-20),  # disc rounds below 0
    (1.0, 2.0, 1.0), (-1.0, -2.0, 1.0), (0.7, -0.2, 0.0), (1e150, 1e150, 0.999),
])
def test_quadratic_roots_fixed_cases(a, b, q):
    assert bits(*one_term_roots(a, b, q)) == bits(*ref_quadratic_roots(a, b, q))


@settings(max_examples=500, deadline=None)
@given(a=st.floats(-1e150, 1e150), b=st.floats(-1e150, 1e150),
       q=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)))
def test_quadratic_roots_matches_reference(a, b, q):
    assert bits(*one_term_roots(a, b, q)) == bits(*ref_quadratic_roots(a, b, q))


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
