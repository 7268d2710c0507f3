"""Maps between Verblunsky coefficients and the (c_n, d_n) parametrization.

A measure on the unit circle is determined by its Verblunsky coefficients
alpha_0, alpha_1, ... in the open unit disk.  An equivalent description is a
real sequence {c_n} together with a positive chain sequence {d_{n+1}}; the
pair parametrizes the whole family of measures that differ from each other
only by the amount of mass t placed at z = 1.  The bridge between the two is
the unimodular sequence {tau_n},

    tau_0 = 1,    tau_n = (tau_{n-1} - conj(alpha_{n-1})) / (1 - tau_{n-1} alpha_{n-1}),

through which

    c_n = -Im(tau_{n-1} alpha_{n-1}) / (1 - Re(tau_{n-1} alpha_{n-1})),
    g_n = |1 - tau_{n-1} alpha_{n-1}|^2 / (2 (1 - Re(tau_{n-1} alpha_{n-1}))),
    d_{n+1} = (1 - g_n) g_{n+1}.

A rotated variant tau^(theta) (tau_0 = e^{i theta}) produces the
parametrization of the measure rotated so that an arbitrary point of the
circle plays the role of z = 1.  It is computed in one place, a block at a
time (``_rotated_blocks``): the gap certificate walks those blocks, and
``rotated_cd`` joins them.

The reverse direction recovers the coefficients of the family member with
mass t at z = 1 from the chain sequence augmented by d_1 = (1 - t) M_1,
where M_1 is the maximal parameter head of {d_{n+1}}.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from .chainseq import (chain_failure_index, maximal_params, SP_THRESHOLD, _CHUNK,
                       _chunks, _final_param_ok, _forward_params, _frozen,
                       _require_positive)
from .errors import InputError, InvariantError, NotChainSequenceError

TWO_PI = 2.0 * math.pi

# Analytically |1 - tau * alpha_k| >= 1 - |alpha_k| > 0, so a distance below
# this is reached only by an alpha_k within rounding of the unit circle.
_DIVISION_GUARD = 1e-15

# The closed-form rotated Geronimus orbit (``VerblunskySeq.geronimus``) loses
# accuracy like u / D near the parabolic case, D = |alpha| |z_1 - z_2| / 2 -> 0,
# where its fixed points are ill conditioned (about 2000u in c and d at
# D = 7e-5, where the recursion errs by 2u).  From this D on, 40-digit
# references put its error within twice the recursion's plus 64u; below it
# the recursion runs.
_MIN_SPREAD = 1.0 / 32.0


def _cdiv(nr: float, ni: float, dr: float, di: float) -> tuple:
    """(nr + i ni) / (dr + i di) on Python floats, as (real, imag), rounded
    exactly as numpy's complex128 division rounds.

    That is Smith's algorithm (Smith, CACM 5 (1962), Alg. 116) with the
    scale applied as a reciprocal; CPython's complex ``/`` rounds differently
    on many inputs.  A real divisor m is (m, 0.0).  The divisor must be
    nonzero.
    """
    if abs(dr) >= abs(di):
        rat = di / dr
        scl = 1.0 / (dr + di * rat)
        return (nr + ni * rat) * scl, (ni - nr * rat) * scl
    rat = dr / di
    scl = 1.0 / (di + dr * rat)
    return (nr * rat + ni) * scl, (ni * rat - nr) * scl


def _require_finite(values: np.ndarray, name: str, first: int) -> None:
    """Reject NaN and +-inf, naming the coefficient; ``first`` is the index
    of ``values[0]``."""
    finite = np.isfinite(values)
    if not finite.all():
        bad = int(np.argmin(finite))
        raise InputError(f"{name}_{bad + first} = {values[bad]} is not finite")


def _validate_alpha(values: np.ndarray, first: int = 0) -> np.ndarray:
    """``values`` after checking that each lies in the open unit disk;
    ``first`` is the index of ``values[0]``."""
    _require_finite(values, "Verblunsky coefficient alpha", first)
    mod = np.abs(values)
    if len(values) and mod.max() >= 1.0:
        bad = int(np.argmax(mod >= 1.0))
        raise InputError(f"Verblunsky coefficient alpha_{bad + first} has modulus "
                         f"{mod[bad]:.17g} >= 1")
    return values


def _block_stops(n: int) -> list:
    """Ends of consecutive blocks covering indices 0 .. n - 1: 64 terms, then
    twice as many each time up to ``_CHUNK``."""
    stops, stop, size = [], 0, 64
    while stop < n:
        stop = min(stop + size, n)
        stops.append(stop)
        size = min(2 * size, _CHUNK)
    return stops


def _ranges(stops: Sequence[int]):
    """(start, stop) of each block ending at ``stops``."""
    return zip([0, *stops[:-1]], stops)


@dataclass(frozen=True)
class VerblunskySeq:
    """Verblunsky coefficients, either an inline prefix or a named family.

    ``family`` is one of ``inline``, ``geronimus``, ``alternating``,
    ``lambda-eta``; named families generate exact coefficients at any index,
    ``horizon`` is only the default length.  ``params`` keeps the family's
    scalar parameters for consumers such as the per-family default scalings.

    Named families also carry their closed-form tau sequence.  The tau
    recursion, as a circle map, multiplies phase errors by
    (1 - |alpha|^2) / |1 - tau alpha|^2 per step, which exceeds 1 exactly
    along the special orbits these families live on, so iterating it there
    loses the structure at an exponential rate; the closed forms keep the
    parametrization exact.  Geronimus also carries the closed form of its
    rotated tau, where that is well conditioned (see ``geronimus``).
    """

    family: str
    horizon: int
    params: dict = field(default_factory=dict)
    # stops -> one array of coefficients per block (see ``blocks``)
    _blocks_fn: Callable[[Sequence[int]], Iterator[np.ndarray]] = field(
        default=None, repr=False)
    _tau_fn: Optional[Callable[[int], np.ndarray]] = field(default=None, repr=False)
    # folded rotation -> (start, stop) -> rotated tau_start .. tau_{stop - 1},
    # or None where the recursion runs
    _rotated_tau_fn: Callable[[float], Optional[Callable]] = field(
        default=lambda rotation: None, repr=False)

    @classmethod
    def from_values(cls, values) -> "VerblunskySeq":
        arr = _validate_alpha(_frozen(values, complex))

        def blocks(stops):
            return (arr[start:stop] for start, stop in _ranges(stops))

        return cls("inline", len(arr), {}, blocks)

    @classmethod
    def geronimus(cls, alpha: complex, horizon: int = 64) -> "VerblunskySeq":
        """alpha_n = w^{n+1} alpha with w = (1 + conj(alpha)) / (1 + alpha).

        The rotation w places the distinguished point of the constant-alpha
        measure at z = 1; for real alpha the sequence is constant.  The tau
        sequence is w^{-n}.

        Rotated by theta, sigma_n = w^n tau_n follows one Moebius map,
        sigma -> v (sigma - conj(beta)) / (1 - beta sigma) with v = e^{i theta} w
        and beta = w alpha.  With psi = (theta + arg w) / 2 the map is
        hyperbolic exactly when D^2 = |alpha|^2 - sin^2 psi > 0, that is
        for theta in the gap of the support.  Its fixed points
        e^{i psi} (-+D - i sin psi) / beta lie on the circle, the first
        attracting with multiplier kappa = (1 - |alpha|^2) / (|cos psi| + D)^2
        (signs taken with cos psi), and the orbit is

            sigma_n = z_1 + (z_1 - z_2) x_n / (1 - x_n),
            x_n = kappa^n (sigma_0 - z_1) / (sigma_0 - z_2).

        tau_n = w^{-(n+1)} w sigma_n takes w^{n+1} as the coefficients do,
        so tau_n alpha_n keeps the rounding of w^{n+1} out of (c, d).  It is
        used for D >= ``_MIN_SPREAD``; elliptic and near-parabolic maps
        (theta in or near the support, alpha = 0) run the recursion.
        """
        alpha = complex(alpha)
        if abs(alpha) >= 1.0:
            raise InputError(f"|alpha| must be < 1, got {abs(alpha):.17g}")
        phase = cmath.phase((1.0 + alpha.conjugate()) / (1.0 + alpha))

        def blocks(stops):
            for start, stop in _ranges(stops):
                yield np.exp(1j * phase * np.arange(start + 1, stop + 1)) * alpha

        def tau(n: int) -> np.ndarray:
            return np.exp(-1j * phase * np.arange(n + 1))

        def rotated_tau(theta: float):
            psi = 0.5 * (theta + phase)
            sin_psi, cos_psi = math.sin(psi), math.cos(psi)
            r, s = abs(alpha), abs(sin_psi)
            spread = math.sqrt(max((r - s) * (r + s), 0.0))
            if spread < _MIN_SPREAD:
                return None
            w = cmath.exp(1j * phase)
            scale = cmath.exp(1j * psi) / (w * alpha)
            z1 = scale * complex(-math.copysign(spread, cos_psi), -sin_psi)
            z2 = scale * complex(math.copysign(spread, cos_psi), -sin_psi)
            sigma0 = cmath.exp(1j * theta)
            if sigma0 == z2:  # the orbit rests on the repelling fixed point
                return None
            ratio = (sigma0 - z1) / (sigma0 - z2)
            log_kappa = math.log1p(-r * r) - 2.0 * math.log(abs(cos_psi) + spread)

            def values(start: int, stop: int) -> np.ndarray:
                k = np.arange(start, stop)
                x = np.exp(k * log_kappa) * ratio
                sigma = z1 + (z1 - z2) * x / (1.0 - x)
                sigma /= np.abs(sigma)
                return np.exp(-1j * phase * (k + 1)) * (w * sigma)

            return values

        return cls("geronimus", horizon, {"alpha": alpha}, blocks, tau, rotated_tau)

    @classmethod
    def alternating(cls, b1: float, b2: float, c: float,
                    horizon: int = 64) -> "VerblunskySeq":
        """alpha_{2n} = (b1 + ic)/(1 + ic), alpha_{2n+1} = (b2 - ic)/(1 + ic).

        The tau sequence is 2-periodic: 1, (1 + ic)/(1 - ic), 1, ...
        """
        if not (-1.0 < b1 < 1.0 and -1.0 < b2 < 1.0):
            raise InputError("alternating family needs -1 < b1, b2 < 1")
        even = (b1 + 1j * c) / (1 + 1j * c)
        odd = (b2 - 1j * c) / (1 + 1j * c)
        tau_odd = (1 + 1j * c) / (1 - 1j * c)

        def blocks(stops):
            for start, stop in _ranges(stops):
                out = np.empty(stop - start, dtype=complex)
                out[start % 2::2] = even
                out[1 - start % 2::2] = odd
                yield out

        def tau(n: int) -> np.ndarray:
            out = np.ones(n + 1, dtype=complex)
            out[1::2] = tau_odd
            return out

        return cls("alternating", horizon, {"b1": b1, "b2": b2, "c": c}, blocks, tau)

    @classmethod
    def lambda_eta(cls, lam: float, eta: float, horizon: int = 64) -> "VerblunskySeq":
        """alpha_{n-1} = -(b)_n / (conj(b) + 1)_n with b = lam + i eta, lam > -1/2.

        The tau sequence is the product of the exactly unimodular ratios
        (k + lam - i eta) / (k + lam + i eta), k = 1..n.
        """
        for name, value in (("lam", lam), ("eta", eta)):
            if not math.isfinite(value):
                raise InputError(f"lambda-eta {name} must be finite, got {value}")
        if lam <= -0.5:
            raise InputError(f"lambda must be > -1/2, got {lam}")
        # past this the complex divisions below overflow
        if not math.isfinite(abs(lam) + abs(eta) + 1.0):
            raise InputError(f"lambda-eta needs |lam| + |eta| within the float range, "
                             f"got lam={lam}, eta={eta}")
        b = complex(lam, eta)
        # 1 - |alpha_0|^2 = (2 lam + 1) / |lam + 1 + i eta|^2 exactly, taken as
        # 2 (lam + 1/2) / h / h so that no step overflows; alpha_0 is the
        # coefficient nearest the circle
        h = abs(b + 1.0)
        margin = 2.0 * ((lam + 0.5) / h / h)

        def blocks(stops):
            if margin < 2.0 ** -52:
                raise InputError(f"lambda-eta lam={lam}, eta={eta} puts alpha_0 within "
                                 f"rounding of the unit circle: 1 - |alpha_0|^2 = "
                                 f"{margin:.3g} < 2**-52")
            # the running product is carried into the next block as the first
            # factor of its cumprod, which multiplies in the same order
            last = None
            for start, stop in _ranges(stops):
                k = np.arange(start, stop)
                ratios = (b + k) / (b.conjugate() + 1 + k)
                if last is None:
                    products = np.cumprod(ratios)
                else:
                    products = np.cumprod(np.concatenate(([last], ratios)))[1:]
                if len(products):
                    last = products[-1]
                yield -products

        def tau(n: int) -> np.ndarray:
            k = np.arange(1, n + 1)
            ratios = (k + lam - 1j * eta) / (k + lam + 1j * eta)
            out = np.empty(n + 1, dtype=complex)
            out[0] = 1.0
            out[1:] = np.cumprod(ratios)
            out[1:] /= np.abs(out[1:])
            return out

        return cls("lambda-eta", horizon, {"lam": lam, "eta": eta}, blocks, tau)

    def blocks(self, stops: Sequence[int]) -> Iterator[np.ndarray]:
        """Coefficients alpha_start .. alpha_{stop - 1} of consecutive blocks,
        one per entry of the increasing ``stops``, the first starting at 0."""
        if self.family == "inline" and stops and stops[-1] > self.horizon:
            raise InputError(f"inline coefficient list has {self.horizon} terms, "
                             f"{stops[-1]} requested")
        for (start, _), values in zip(_ranges(stops), self._blocks_fn(stops)):
            yield _validate_alpha(np.asarray(values, dtype=complex), start)

    def prefix(self, count: Optional[int] = None) -> np.ndarray:
        """First ``count`` coefficients (default: the stated horizon)."""
        return next(self.blocks([self.horizon if count is None else count]))

    def __len__(self) -> int:
        return self.horizon


def _normalize_rotation(theta: float) -> float:
    """Fold a rotation angle into (0, 2*pi]."""
    folded = math.fmod(theta, TWO_PI)
    if folded <= 0.0:
        folded += TWO_PI
    return folded


def tau_from_verblunsky(alpha: VerblunskySeq, n: Optional[int] = None) -> np.ndarray:
    """Read-only tau_0 .. tau_n driven by the first n Verblunsky coefficients.

    This is the Moebius recursion with tau_0 = 1, each value renormalized to
    unit modulus.  Named families with a closed-form tau bypass the recursion
    (see :class:`VerblunskySeq`); the rotated tau is ``rotated_cd(...).tau``.
    """
    if n is None:
        n = alpha.horizon
    if alpha._tau_fn is not None:
        return _frozen(alpha._tau_fn(n), complex)
    return _walked_tau(alpha.prefix(n))


def _walked_tau(a: np.ndarray) -> np.ndarray:
    """Read-only tau_0 = 1 .. tau_len(a) of the recursion over alpha_0 .. = ``a``."""
    out = np.empty(len(a) + 1, dtype=complex)
    out[0] = 1.0
    _tau_walk(a, out, None)
    return _frozen(out, complex)


def _tau_walk(a: np.ndarray, out: np.ndarray, phase: Optional[complex],
              first: int = 0) -> None:
    """Fill ``out[1:]`` with tau_{first+1} .. tau_{first+len(a)} from
    ``out[0]`` = tau_first and ``a`` = alpha_first ..; ``phase`` is e^{i theta}
    of a rotation, or None."""
    # The recursion runs on the parts of tau and of alpha_k as Python floats,
    # each operation written as numpy's complex128 arithmetic performs it,
    # so the sequence matches a numpy evaluation bit for bit.
    tr, ti = float(out[0].real), float(out[0].imag)
    if phase is not None:
        ph_r, ph_i = phase.real, phase.imag
    for i, a_re, a_im in _chunks(a.real, a.imag):
        res_re = []
        res_im = []
        for ar, ai in zip(a_re, a_im):
            # prod = tau alpha_k, denom = 1 - prod
            pr = tr * ar - ti * ai
            pi = tr * ai + ti * ar
            dr = 1.0 - pr
            di = 0.0 - pi
            # |denom| >= dr, so the modulus is needed only when dr is small
            if dr < _DIVISION_GUARD and abs(complex(dr, di)) < _DIVISION_GUARD:
                k = first + i + len(res_re)
                raise InputError(f"Verblunsky coefficient alpha_{k} is within rounding "
                                 f"of the unit circle: |1 - tau_{k} alpha_{k}| < 1e-15")
            if phase is None:
                # tau - conj(alpha_k)
                nr = tr - ar
                ni = ti + ai
            else:
                # e^{i theta} tau (1 - conj(prod))
                er = ph_r * tr - ph_i * ti
                ei = ph_r * ti + ph_i * tr
                qi = 0.0 + pi
                nr = er * dr - ei * qi
                ni = er * qi + ei * dr
            xr, xi = _cdiv(nr, ni, dr, di)
            mod = abs(complex(xr, xi))
            # _cdiv(xr, xi, mod, 0.0), written out
            scl = 1.0 / mod
            tr = (xr + xi * 0.0) * scl
            ti = (xi - xr * 0.0) * scl
            res_re.append(tr)
            res_im.append(ti)
        out.real[i + 1:i + 1 + len(res_re)] = res_re
        out.imag[i + 1:i + 1 + len(res_im)] = res_im


@dataclass(frozen=True)
class CdParams:
    """(c_n, d_{n+1}) parametrization together with its g_n and tau_n.

    ``c[k]`` is c_{k+1}, ``d[k]`` is d_{k+2}, and ``g[k]`` is g_{k+1}, the
    parameter sequence of the generating measure (the member with mass
    t = 1 - g_1/M_1 at z = 1), so that d_{n+1} = (1 - g_n) g_{n+1}.  All
    three are read-only views of the arrays given.
    """

    c: np.ndarray
    d: np.ndarray
    g: np.ndarray
    # read-only tau_0 .. tau_n from the coefficients, or None for ``_c_tau``
    _tau: Optional[np.ndarray] = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        c, d, g = _frozen(self.c), _frozen(self.d), _frozen(self.g)
        for name, value in (("c", c), ("d", d), ("g", g)):
            object.__setattr__(self, name, value)
        _require_positive(d)
        if len(g) == 0:
            raise InputError("parameter sequence cannot be empty")
        if not (0.0 <= g[0] < 1.0):
            raise InputError(f"parameter head must lie in [0, 1), got {g[0]}")
        if not ((g[1:-1] > 0.0) & (g[1:-1] < 1.0)).all():
            raise InputError("interior parameters must lie in (0, 1)")
        if len(g) > 1 and not _final_param_ok(g):
            raise InputError(f"final parameter out of range: {g[-1]}")
        if len(g) != len(c):
            raise InputError("parameter sequence length must match c")
        if len(d) != max(len(c) - 1, 0):
            raise InputError("chain sequence must have one term fewer than c")
        # + 4 u g_{n+1}, u = 2^-53: 1 - g_n is exact only to u for g_n near 1
        if (np.abs((1.0 - g[:-1]) * g[1:] - d) > 1e-13 * d + 2.0 ** -51 * g[1:]).any():
            raise InputError("d and g are inconsistent: d != (1 - g_n) g_{n+1}")

    @property
    def n(self) -> int:
        return len(self.c)

    @property
    def tau(self) -> np.ndarray:
        """Read-only tau_0 .. tau_n."""
        return self._c_tau if self._tau is None else self._tau

    @functools.cached_property
    def _maximal_head(self) -> float:
        """Maximal head M_1 of ``d``, walked on first read (``from_sequences``
        sets it from its own walk); 1 for an empty d, which constrains no
        parameter (the supremum head 1 is not attained, so no parameter
        sequence carries it)."""
        return float(maximal_params(self.d)[0]) if len(self.d) else 1.0

    @functools.cached_property
    def _c_tau(self) -> np.ndarray:
        """tau from c alone (``_tau_from_c``), computed on first read: the tau
        of an inline cd, and the one the reverse transform reads."""
        return _tau_from_c(self.c)

    @classmethod
    def from_sequences(cls, c, d) -> "CdParams":
        """Build from raw (c, d); the g attached is the maximal parameter
        sequence, i.e. the family member carrying no mass at z = 1.  It keeps
        its own copies of ``c`` and ``d``: a later write to the arrays given
        cannot undo the checks."""
        c = np.array(c, dtype=float)
        _require_finite(c, "c", 1)
        d = np.array(d, dtype=float)
        _require_positive(d)
        _require_finite(d, "d", 2)
        if len(d) != len(c) - 1:
            raise InputError(f"need len(d) = len(c) - 1, got {len(d)} and {len(c)}")
        bad = chain_failure_index(d)
        if bad is not None:
            raise NotChainSequenceError(
                bad, f"d is not a positive chain sequence at n={bad}")
        if len(d) == 0:
            # a single coefficient carries no chain constraint and the
            # supremum head 1 is not attained; use the symmetric member
            return cls(c, d, np.array([0.5]))
        cd = cls(c, d, maximal_params(d))
        cd.__dict__["_maximal_head"] = float(cd.g[0])  # one walk per cd
        return cd


def _tau_from_c(c: np.ndarray) -> np.ndarray:
    """Read-only tau_0 = 1, tau_n = tau_{n-1} (1 - i c_n) / (1 + i c_n)."""
    out = np.empty(len(c) + 1, dtype=complex)
    out[0] = tau = 1.0 + 0.0j
    for i, block in _chunks(c):
        res = []
        for ck in block:
            tau = tau * (1.0 - 1j * ck) / (1.0 + 1j * ck)
            tau /= abs(tau)
            res.append(tau)
        out[i + 1:i + 1 + len(res)] = res
    return _frozen(out, complex)


def cd_from_verblunsky(alpha: VerblunskySeq, n_terms: Optional[int] = None) -> CdParams:
    """(c, d, g, tau) of the measure described by ``alpha``.

    ``n_terms`` coefficients c_1 .. c_N are produced (defaulting to the
    sequence horizon), along with g_1 .. g_N and the N - 1 chain-sequence
    elements d_2 .. d_N.
    """
    n_terms = _term_count(alpha, n_terms)
    a = alpha.prefix(n_terms)
    tau = tau_from_verblunsky(alpha, n_terms) if alpha._tau_fn else _walked_tau(a)
    c, g = _cg(tau[:-1], a)
    return CdParams(c, (1.0 - g[:-1]) * g[1:], g, tau)


def _term_count(alpha: VerblunskySeq, n_terms: Optional[int]) -> int:
    """``n_terms``, by default the horizon of ``alpha``; at least 1."""
    if n_terms is None:
        n_terms = alpha.horizon
    if n_terms < 1:
        raise InputError(f"need at least one coefficient, got n_terms={n_terms}")
    return n_terms


def _cg(tau: np.ndarray, a: np.ndarray, first: int = 0) -> tuple:
    """(c, g) from tau_first .. and alpha_first .. (``first`` names them)."""
    prod = tau * a
    re, im = prod.real, prod.imag
    denom = 1.0 - re
    if not (denom > 0.0).all():  # analytically 1 - Re(tau alpha) >= 1 - |alpha|
        k = int(np.argmin(denom > 0.0))
        raise InputError(f"Verblunsky coefficient alpha_{k + first} is within rounding "
                         f"of the unit circle: 1 - Re(tau_{k + first} alpha_{k + first})"
                         f" = {float(denom[k])!r}")
    c = -im / denom
    g = 0.5 * ((1.0 - re) ** 2 + im ** 2) / denom
    return c, g


def _rotated_blocks(alpha: VerblunskySeq, theta2: float, n_terms: int):
    """(first, tau, c, g) of ``rotated_cd(alpha, theta2, n_terms)`` a block at
    a time: tau_first .. tau_stop, c_{first+1} .. c_stop and g_{first+1} ..
    g_stop, in blocks of 64 terms and then twice as many up to ``_CHUNK``.  A
    walk starts each block from the last tau of the one before.  A consumer
    that stops early computes no further block, so no guard of a later block
    (a coefficient within rounding of the unit circle) fires."""
    rotation = _normalize_rotation(theta2)
    closed = alpha._rotated_tau_fn(rotation)
    phase = last = cmath.exp(1j * rotation)
    stops = _block_stops(n_terms)
    for (start, stop), a in zip(_ranges(stops), alpha.blocks(stops)):
        if closed is not None:
            tau = closed(start, stop + 1)
        else:
            tau = np.empty(stop - start + 1, dtype=complex)
            tau[0] = last
            _tau_walk(a, tau, phase, start)
            last = tau[-1]
        yield (start, tau, *_cg(tau[:-1], a, start))


def rotated_cd(alpha: VerblunskySeq, theta2: float,
               n_terms: Optional[int] = None) -> CdParams:
    """Parametrization after rotating the measure so that the circle point at
    angle ``theta2`` is carried to z = 1; its tau starts at e^{i theta2}.

    Equivalent to replacing alpha_n by e^{i (n+1) theta2} alpha_n; angles are
    folded modulo 2*pi into (0, 2*pi].  Assembled from ``_rotated_blocks``.
    """
    if theta2 <= 0.0:
        raise InputError(f"rotation angle must be positive, got {theta2}")
    _, taus, cs, gs = zip(*_rotated_blocks(alpha, theta2, _term_count(alpha, n_terms)))
    tau = _frozen(np.concatenate([taus[0][:1], *(t[1:] for t in taus)]), complex)
    c, g = np.concatenate(cs), np.concatenate(gs)
    return CdParams(c, (1.0 - g[:-1]) * g[1:], g, tau)


def verblunsky_from_cd(cd: CdParams, t: float = 0.0) -> VerblunskySeq:
    """Coefficients of the family member with mass ``t`` at z = 1.

    Forms the augmented sequence d_1 = (1 - t) M_1, d_2, ... and runs its
    minimal-parameter recursion; member coefficients follow from

        alpha_{n-1} = (1 - 2 m_n - i c_n) / ((1 - i c_n) tau_{n-1}).

    ``t = 0`` selects the member with no mass at z = 1 (the maximal head).

    Parameter orbits are determined by their head, but reconstructing one
    forward from the head alone amplifies rounding exponentially whenever the
    orbit is non-minimal.  When the requested head coincides with the head of
    the parameter sequence stored on ``cd`` (as it does for the mass value
    returned by :func:`mass_at_one`), the stored orbit is that same member
    and is used directly, which keeps roundtrips at rounding accuracy.
    """
    if not (0.0 <= t < 1.0):
        raise InputError(f"t must lie in [0, 1), got {t}")
    m1_max = cd._maximal_head
    if t > 0.0 and m1_max <= SP_THRESHOLD:
        raise InputError("no mass-variant family: chain sequence is "
                         "single-parameter (maximal head is 0)")
    n = cd.n
    head = (1.0 - t) * m1_max
    stored = cd.g
    # a stored head at or above M_1 (by rounding) is the member with no mass
    # at z = 1 as well
    use_orbit = (abs(head - stored[0]) <= 4.0 * np.finfo(float).eps
                 * max(stored[0], 1e-300)) or (t == 0.0 and stored[0] >= m1_max)
    # m_1 .. m_n: the stored orbit, or the walk from the head, which stops at
    # the first term outside (0, 1); only m_1 may be 0
    m = stored if use_orbit else _forward_params(cd.d, head=head)[0]
    ok = (m > 0.0) & (m < 1.0)
    ok[0] |= m[0] == 0.0
    if not ok.all():
        k = int(np.argmin(ok))
        if k == n - 1 and m[k] >= 1.0:
            # the finite-truncation member with no mass at z = 1 is a
            # terminating measure: its last coefficient is unimodular and
            # falls outside the open-disk contract
            raise InputError(
                f"member terminates: the requested mass t = {t!r} rounds to "
                "the member with no mass at z = 1, which terminates for a "
                "finite cd")
        raise InvariantError(
            f"augmented parameter recursion left (0, 1) at step {k + 1}")
    ic = 1j * cd.c
    tau = cd._c_tau[:n]
    return VerblunskySeq.from_values((1.0 - 2.0 * m - ic) / ((1.0 - ic) * tau))


def mass_at_one(cd: CdParams) -> float:
    """Mass t at z = 1 of the measure whose parameter sequence is ``cd.g``.

    Computed as t = 1 - g_1 / M_1 and clipped into [0, 1); feeding the result
    back into :func:`verblunsky_from_cd` reproduces the generating
    coefficients.
    """
    m1 = cd._maximal_head
    if m1 <= 0.0:
        return 0.0
    return min(max(1.0 - float(cd.g[0]) / m1, 0.0), math.nextafter(1.0, 0.0))
