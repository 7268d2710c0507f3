"""Positive-chain-sequence algebra.

A sequence of positive reals d_2, d_3, ... (written {d_{n+1}}, n >= 1) is a
*positive chain sequence* when it factors as

    d_{n+1} = (1 - g_n) * g_{n+1},    0 <= g_1 < 1,  0 < g_n < 1 (n >= 2),

for some *parameter sequence* {g_n}.  Taking g_1 = 0 produces the minimal
parameter sequence; the largest admissible head M_1 produces the maximal one.
A chain sequence with M_1 = 0 has a unique parameter sequence and is called
single-parameter (SP); otherwise it is non-SP and every head in [0, M_1]
parametrizes a distinct factorization.

Finite sequences use the same notion, except that the very last parameter is
allowed to reach the closed endpoint 1: the extremal constant sequences of
Ismail and Li attain it exactly, so the validity test below accepts a final
parameter within ``BOUNDARY_TOL`` of 1, or within twice its forward rounding
error bound when that is larger (see ``_final_param_ok``).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from itertools import repeat
from typing import Optional

import numpy as np

from .errors import InputError, NotChainSequenceError, ScalingError

# Slack accepted on the *final* parameter of a finite sequence (see module
# docstring); interior parameters are tested strictly against (0, 1).
BOUNDARY_TOL = 1e-12

# Heads below this are classified as single-parameter; the analytic dichotomy
# M_1 = 0 versus M_1 > 0 is not decidable in floating point.
SP_THRESHOLD = 1e-10

# Terms read at a time by the sequential recursions (see ``_chunks``).
_CHUNK = 4096


def _frozen(values, dtype=float) -> np.ndarray:
    """Read-only view of ``values`` as a ``dtype`` array; no bytes are copied,
    so a caller's own array stays writeable."""
    view = np.asarray(values, dtype=dtype).view()
    view.setflags(write=False)
    return view


class ChainRule:
    """Term generator for a rule-backed (conceptually infinite) sequence,
    with the closed forms of its infinite-sequence quantities."""

    def terms(self, count: int) -> np.ndarray:
        """First ``count`` elements d_2 .. d_{count+1}."""
        raise NotImplementedError

    def maximal_params_closed(self, count: int) -> np.ndarray:
        """Maximal parameters M_1 .. M_count."""
        raise NotImplementedError

    def threshold_closed(self) -> float:
        """Infinite constant-scaling threshold: the limit of the squared
        largest zeros of the symmetric W_N as N grows."""
        raise NotImplementedError


class ConstantRule(ChainRule):
    def __init__(self, value: float):
        if not 0 < value < math.inf:
            raise InputError(
                f"chain sequence elements must be positive and finite, got {value}")
        self.value = float(value)

    def terms(self, count):
        return np.full(count, self.value)

    def _require_chain(self):
        if self.value > 0.25:
            raise InputError(f"constant d = {self.value!r} > 1/4 is not an "
                             "infinite positive chain sequence")

    def maximal_params_closed(self, count):
        # larger root of (1 - M) M = value
        self._require_chain()
        return np.full(count, 0.5 * (1.0 + math.sqrt(1.0 - 4.0 * self.value)))

    def threshold_closed(self):
        # the finite thresholds 4 d cos^2(pi / (N + 1)) increase to 4 d
        self._require_chain()
        return 4.0 * self.value


class UltrasphericalRule(ChainRule):
    """d_{n+1} = n (n + 2*lam + 1) / (4 (n + lam)(n + lam + 1)), lam >= -1/2."""

    def __init__(self, lam: float):
        # (n + lam)(n + lam + 1) overflows from lam = 1.3e154 on
        if not -0.5 <= lam <= 1e150:
            raise InputError(
                f"ultraspherical parameter must lie in [-1/2, 1e150], got {lam}")
        self.lam = float(lam)

    def terms(self, count):
        n = np.arange(1, count + 1, dtype=float)
        lam = self.lam
        return 0.25 * n * (n + 2 * lam + 1) / ((n + lam) * (n + lam + 1))

    def maximal_params_closed(self, count):
        n = np.arange(0, count, dtype=float)
        lam = self.lam
        return (n + 2 * lam + 1) / (2 * (n + lam + 1))

    def threshold_closed(self):
        # d_n -> 1/4, so the essential spectrum of the symmetric Jacobi matrix
        # ends at 1, and the chain property leaves no eigenvalue above it.
        return 1.0


def _require_positive(values: np.ndarray, first: int = 0) -> None:
    """Reject an element <= 0 of a chain sequence; ``values[0]`` is the term
    after the first ``first``."""
    if len(values) and values.min() <= 0.0:
        bad = int(np.argmax(values <= 0.0)) + 1 + first
        raise InputError(f"chain sequence elements must be positive (term n={bad})")


@dataclass(frozen=True)
class ChainSeq:
    """A finite positive-real sequence, optionally backed by a rule.

    ``values[k]`` is the element d_{k+2}, i.e. the sequence is indexed the way
    it enters the three-term recurrences (its first element pairs with the
    second recurrence step).  A rule-backed sequence (``rule`` set) is
    conceptually infinite: ``values`` holds its first ``horizon`` elements
    and ``rule`` the closed forms of the infinite sequence.
    """

    values: np.ndarray
    rule: Optional[ChainRule] = field(default=None, repr=False)

    def __post_init__(self):
        values = _frozen(self.values)
        object.__setattr__(self, "values", values)
        _require_positive(values)

    @functools.cached_property
    def _maximal(self) -> "ParamSeq":
        """``maximal_params(self)``, computed on first use and kept: an inline
        cd reads it to build g, again for its mass at z = 1 and again to
        recover its coefficients."""
        if self.rule is None:
            return ParamSeq(_backward_maximal(self.values))
        return ParamSeq(self.rule.maximal_params_closed(len(self.values) + 1))

    @classmethod
    def from_values(cls, values) -> "ChainSeq":
        return cls(np.asarray(values, dtype=float))

    @classmethod
    def constant(cls, value: float, horizon: int = 128) -> "ChainSeq":
        rule = ConstantRule(value)
        return cls(rule.terms(horizon), rule)

    @classmethod
    def ultraspherical(cls, lam: float, horizon: int = 128) -> "ChainSeq":
        rule = UltrasphericalRule(lam)
        return cls(rule.terms(horizon), rule)

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class ParamSeq:
    """Parameter sequence {g_n} of a chain sequence; ``values[k]`` is g_{k+1}."""

    values: np.ndarray

    def __post_init__(self):
        values = _frozen(self.values)
        object.__setattr__(self, "values", values)
        if len(values) == 0:
            raise InputError("parameter sequence cannot be empty")
        if not (0.0 <= values[0] < 1.0):
            raise InputError(f"parameter head must lie in [0, 1), got {values[0]}")
        interior = values[1:-1] if len(values) > 2 else values[1:0]
        if len(interior) and not ((interior > 0.0) & (interior < 1.0)).all():
            raise InputError("interior parameters must lie in (0, 1)")
        if len(values) > 1 and not _final_param_ok(values):
            raise InputError(f"final parameter out of range: {values[-1]}")

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class ScalingSeq:
    """Scaling sequence {q_{n+1}} with q in (0, 1]; ``values[k]`` is q_{k+2}.

    Dividing a chain sequence termwise by a valid scaling sequence leaves a
    chain sequence.  ``chain``, when set, is a d for which d/q over the first
    ``len(values)`` terms, and so over every prefix, is known to be one (by
    the walk of ``make_scaling``, by comparison, or at q = 1 for every d).
    """

    values: np.ndarray
    chain: Optional[ChainSeq] = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        values = _frozen(self.values)
        object.__setattr__(self, "values", values)
        out_of_range = ~((values > 0.0) & (values <= 1.0))
        if out_of_range.any():
            bad = int(np.argmax(out_of_range)) + 1
            raise ScalingError(bad, f"scaling invalid at n={bad}: "
                               f"q_{{{bad + 1}}}={float(values[bad - 1])!r} out of (0, 1]")

    def __len__(self) -> int:
        return len(self.values)


def _chunks(*arrays: np.ndarray):
    """(start, list, ...) over consecutive ``_CHUNK``-term slices of arrays of
    equal length, the lists holding Python scalars.

    Sequential recursions run on Python floats, which cost a fraction of
    numpy scalars per operation; reading ``_CHUNK`` terms at a time keeps the
    lists short whatever the sequence length.
    """
    for i in range(0, len(arrays[0]), _CHUNK):
        yield (i, *(a[i:i + _CHUNK].tolist() for a in arrays))


def _forward_params(d: np.ndarray, head: float = 0.0,
                    scale: Optional[np.ndarray] = None):
    """Forward parameter recursion g_1 = head,
    g_{n+1} = d_{n+1} / (s_{n+1} (1 - g_n)).

    The chain test, the gap-certificate ratios and the reverse transform all
    walk this recursion.  ``scale`` holds s_2, s_3, ... (1 when omitted).
    The head lies in [0, 1).  Returns ``(g, n)``: g holds g_1 up to and
    including the first g_{n+1} outside (0, 1), whose position in g is n, or
    the whole sequence with n = None.
    """
    g = np.empty(len(d) + 1)
    g[0] = prev = float(head)
    for i, block in _chunks(d):
        s_blk = repeat(1.0) if scale is None else scale[i:i + _CHUNK].tolist()
        out = []
        for dn, sn in zip(block, s_blk):
            prev = dn / (sn * (1.0 - prev))
            out.append(prev)
            if not 0.0 < prev < 1.0:
                n = i + len(out)
                g[i + 1:n + 1] = out
                return g[:n + 1], n
        g[i + 1:i + 1 + len(out)] = out
    return g, None


def _final_param_ok(g: np.ndarray) -> bool:
    """Whether the final parameter g_N of ``g`` (all earlier ones in (0, 1))
    is admissible: positive and below 1 + max(``BOUNDARY_TOL``, 2 e_N).

    e_N bounds the forward rounding error of g_N by the linearized recursion
    e_1 = 0, e_{k+1} = e_k g_{k+1} / (1 - g_k) + 3 u g_{k+1}, u = 2^-53 (one u
    each for the subtraction, the division and the rounding of a scaled
    d = d / q).  The linearization drops terms of relative size
    e_k / (1 - g_k), so the bound counts only while that stays below sqrt(u)
    at every k < N; then 2 e_N < 3.1e-8.  It is computed only for a g_N that
    has already failed the ``BOUNDARY_TOL`` test.
    """
    last = float(g[-1])
    if 0.0 < last < 1.0 + BOUNDARY_TOL:
        return True
    e = 0.0
    for _, prev, cur in _chunks(g[:-1], g[1:]):
        for gk, gnext in zip(prev, cur):
            if e > 2.0 ** -26 * (1.0 - gk):
                return False
            e = (e / (1.0 - gk) + 3.0 * 2.0 ** -53) * gnext
    return 0.0 < last < 1.0 + 2.0 * e


def _minimal_raw(d: np.ndarray) -> np.ndarray:
    """Minimal parameters g_1 = 0, g_2, ...; raises at the first inadmissible
    term, except that the final one may pass ``_final_param_ok``."""
    g, n = _forward_params(d)
    if n is not None and not (n == len(d) and _final_param_ok(g)):
        raise NotChainSequenceError(n)
    return g


def minimal_params(d: ChainSeq) -> ParamSeq:
    """Minimal parameter sequence (g_1 = 0) of ``d``.

    Succeeds exactly when ``d`` is a positive chain sequence at its stated
    length; raises :class:`NotChainSequenceError` with the first failing
    index otherwise.
    """
    return ParamSeq(_minimal_raw(np.asarray(d.values, dtype=float)))


def chain_failure_index(d: ChainSeq) -> Optional[int]:
    """First index at which ``d`` fails the chain-sequence test, else None."""
    try:
        _minimal_raw(np.asarray(d.values, dtype=float))
    except NotChainSequenceError as exc:
        return exc.index
    return None


def is_chain_sequence(d: ChainSeq) -> bool:
    """True when the minimal-parameter recursion stays admissible."""
    return chain_failure_index(d) is None


def _backward_maximal(d: np.ndarray) -> np.ndarray:
    """Backward recursion M_{N+1} = 1, M_n = 1 - d_{n+1} / M_{n+1}, walked as
    G = 1 - M over the reversed d: G_n = d_{n+1} / (1 - G_{n+1}) rounds exactly
    as M_n does, and G leaves (0, 1) exactly where M leaves (0, 1].  A G_n
    below 2^-54 leaves M_n = 1 - G_n < 1 analytically but rounds it to 1, so
    every M_n but the anchor is clamped to the largest double below 1."""
    g, n = _forward_params(d[::-1])
    if n is not None:
        n = len(d) - n + 1
        raise NotChainSequenceError(n, "maximal parameters undefined: "
                                    f"backward recursion left (0, 1] at n={n}")
    m = 1.0 - g[::-1]
    np.minimum(m[:-1], 1.0 - 2.0 ** -53, out=m[:-1])
    return m


def maximal_params(d: ChainSeq) -> ParamSeq:
    """Maximal parameter sequence {M_n} of ``d``: the exact backward
    recursion anchored at M_{N+1} = 1 for a finite sequence, the rule's
    closed form for a rule-backed one; computed once per ``d``."""
    return d._maximal


def is_non_SP(d: ChainSeq, tol: float = SP_THRESHOLD) -> bool:
    """True when ``d`` admits more than one parameter sequence (M_1 > 0).

    Heads within ``tol`` of zero are classified single-parameter, since the
    exact dichotomy is analytic only.
    """
    m1 = maximal_params(d).values[0]
    return m1 > tol


def comparison_test(d: ChainSeq, dhat: ChainSeq) -> bool:
    """Sufficient domination test: 0 < d <= dhat termwise.

    ``dhat`` must itself be a positive chain sequence; a True result then
    guarantees ``d`` is one as well.
    """
    if len(d.values) != len(dhat.values):
        raise InputError(
            f"length mismatch: {len(d.values)} vs {len(dhat.values)} terms")
    bad = chain_failure_index(dhat)
    if bad is not None:
        raise NotChainSequenceError(bad, f"reference sequence fails at n={bad}")
    return bool(((d.values > 0.0) & (d.values <= dhat.values)).all())


def make_scaling(d: ChainSeq, q) -> ScalingSeq:
    """Validate ``q`` as a scaling sequence for ``d``; wrap it with chain d.

    Checks q in (0, 1] termwise, then walks d/q to check that it is still a
    positive chain sequence.  Raises :class:`ScalingError` carrying the first
    failing index.
    """
    q = np.asarray(q, dtype=float)
    if len(q) != len(d.values):
        raise InputError(f"scaling length {len(q)} does not match {len(d.values)} terms")
    scaling = ScalingSeq(q, d)  # the (0, 1] check, before dividing by q
    with np.errstate(over="ignore"):  # a d/q that overflows fails the walk
        bad = chain_failure_index(ChainSeq.from_values(d.values / q))
    if bad is not None:
        raise ScalingError(bad, f"scaling invalid at n={bad}: d/q is not a "
                           f"positive chain sequence at term n={bad}")
    return scaling


def ultraspherical_chain(lam: float, n: int) -> float:
    """Element d_{n+1} of the ultraspherical chain sequence, lam >= -1/2."""
    if n < 1:
        raise InputError(f"index must be >= 1, got {n}")
    return float(UltrasphericalRule(lam).terms(n)[-1])


def ismail_li_constant(N: int) -> float:
    """Largest constant positive chain sequence of N-1 elements.

    Equals 1 / (4 cos^2(pi / (N + 1))); decreases to 1/4 as N grows.
    """
    if N < 2:
        raise InputError(f"N must be >= 2, got {N}")
    c = math.cos(math.pi / (N + 1))
    return 1.0 / (4.0 * c * c)
