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
parameter within ``BOUNDARY_TOL`` of 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import InputError, NotChainSequenceError, NonConvergenceError, ScalingError

# Slack accepted on the *final* parameter of a finite sequence (see module
# docstring); interior parameters are tested strictly against (0, 1).
BOUNDARY_TOL = 1e-12

# Heads below this are classified as single-parameter; the analytic dichotomy
# M_1 = 0 versus M_1 > 0 is not decidable in floating point.
SP_THRESHOLD = 1e-10

# Hard cap on the backward-recursion horizon used for maximal parameters of
# rule-generated sequences.
HORIZON_CAP = 2 ** 20

# Terms read at a time by the sequential recursions (see ``_chunks``).
_CHUNK = 4096

FINITE = "finite"
TRUNCATED_INFINITE = "truncated-infinite"


class ChainRule:
    """Term generator for a rule-backed (conceptually infinite) sequence."""

    def terms(self, count: int) -> np.ndarray:
        """First ``count`` elements d_2 .. d_{count+1}."""
        raise NotImplementedError

    def maximal_params_closed(self, count: int) -> Optional[np.ndarray]:
        """Closed-form maximal parameters M_1 .. M_count, if known."""
        return None


class ConstantRule(ChainRule):
    def __init__(self, value: float):
        if value <= 0:
            raise InputError(f"chain sequence elements must be positive, got {value}")
        self.value = float(value)

    def terms(self, count):
        return np.full(count, self.value)

    def maximal_params_closed(self, count):
        # Larger root of (1 - M) M = value; exists only for value <= 1/4.
        disc = 1.0 - 4.0 * self.value
        if disc < 0:
            return None
        return np.full(count, 0.5 * (1.0 + math.sqrt(disc)))


class UltrasphericalRule(ChainRule):
    """d_{n+1} = n (n + 2*lam + 1) / (4 (n + lam)(n + lam + 1)), lam >= -1/2."""

    def __init__(self, lam: float):
        if lam < -0.5:
            raise InputError(f"ultraspherical parameter must be >= -1/2, got {lam}")
        self.lam = float(lam)

    def terms(self, count):
        n = np.arange(1, count + 1, dtype=float)
        lam = self.lam
        return 0.25 * n * (n + 2 * lam + 1) / ((n + lam) * (n + lam + 1))

    def maximal_params_closed(self, count):
        n = np.arange(0, count, dtype=float)
        lam = self.lam
        return (n + 2 * lam + 1) / (2 * (n + lam + 1))


class CallableRule(ChainRule):
    """Adapter over a plain ``n -> d_{n+1}`` function (n >= 1)."""

    def __init__(self, fn: Callable[[int], float]):
        self.fn = fn

    def terms(self, count):
        return np.array([self.fn(n) for n in range(1, count + 1)], dtype=float)


@dataclass(frozen=True)
class ChainSeq:
    """A finite positive-real sequence, optionally backed by a rule.

    ``values[k]`` is the element d_{k+2}, i.e. the sequence is indexed the way
    it enters the three-term recurrences (its first element pairs with the
    second recurrence step).  ``kind`` is ``finite`` for plain arrays and
    ``truncated-infinite`` for rule-backed sequences, where ``values`` caches
    the first ``horizon`` elements but more can be generated on demand.
    """

    values: np.ndarray
    kind: str = FINITE
    rule: Optional[ChainRule] = field(default=None, repr=False)

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        if self.kind not in (FINITE, TRUNCATED_INFINITE):
            raise InputError(f"unknown chain sequence kind {self.kind!r}")
        if self.kind == TRUNCATED_INFINITE:
            if self.rule is None:
                raise InputError("truncated-infinite sequences need a rule")
            if len(values) < 2:
                raise InputError("truncated-infinite horizon must be >= 2")
        if len(values) and values.min() <= 0.0:
            bad = int(np.argmax(values <= 0.0)) + 1
            raise InputError(f"chain sequence elements must be positive (term n={bad})")

    @classmethod
    def from_values(cls, values) -> "ChainSeq":
        return cls(np.asarray(values, dtype=float), FINITE)

    @classmethod
    def constant(cls, value: float, horizon: int = 128) -> "ChainSeq":
        rule = ConstantRule(value)
        return cls(rule.terms(horizon), TRUNCATED_INFINITE, rule)

    @classmethod
    def ultraspherical(cls, lam: float, horizon: int = 128) -> "ChainSeq":
        rule = UltrasphericalRule(lam)
        return cls(rule.terms(horizon), TRUNCATED_INFINITE, rule)

    @classmethod
    def from_rule(cls, fn: Callable[[int], float], horizon: int = 128) -> "ChainSeq":
        rule = CallableRule(fn)
        return cls(rule.terms(horizon), TRUNCATED_INFINITE, rule)

    def __len__(self) -> int:
        return len(self.values)

    def prefix(self, count: int) -> np.ndarray:
        """First ``count`` elements, generated from the rule if needed."""
        if count <= len(self.values):
            return self.values[:count]
        if self.rule is None:
            raise InputError(
                f"finite chain sequence has {len(self.values)} terms, {count} requested"
            )
        return self.rule.terms(count)


@dataclass(frozen=True)
class ParamSeq:
    """Parameter sequence {g_n} of a chain sequence; ``values[k]`` is g_{k+1}."""

    values: np.ndarray
    flavor: str = "generic"  # minimal | maximal | generic

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        if len(values) == 0:
            raise InputError("parameter sequence cannot be empty")
        if not (0.0 <= values[0] < 1.0):
            raise InputError(f"parameter head must lie in [0, 1), got {values[0]}")
        interior = values[1:-1] if len(values) > 2 else values[1:0]
        if len(interior) and not ((interior > 0.0) & (interior < 1.0)).all():
            raise InputError("interior parameters must lie in (0, 1)")
        if len(values) > 1:
            last = values[-1]
            if not (0.0 < last < 1.0 + BOUNDARY_TOL):
                raise InputError(f"final parameter out of range: {last}")
        if self.flavor == "minimal" and values[0] != 0.0:
            raise InputError("minimal parameter sequences start at 0")

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class ScalingSeq:
    """Scaling sequence {q_{n+1}} with q in (0, 1]; ``values[k]`` is q_{k+2}.

    Dividing a chain sequence termwise by a valid scaling sequence leaves a
    chain sequence; ``make_scaling`` is the validating constructor.
    """

    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        if len(values) and not ((values > 0.0) & (values <= 1.0)).all():
            bad = int(np.argmax(~((values > 0.0) & (values <= 1.0)))) + 1
            raise ScalingError(bad, f"scaling invalid at n={bad}: q out of (0, 1]")

    @classmethod
    def trivial(cls, count: int) -> "ScalingSeq":
        return cls(np.ones(count))

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


def _minimal_raw(d: np.ndarray) -> np.ndarray:
    """Forward parameter recursion; raises at the first inadmissible term."""
    count = len(d)
    g = np.empty(count + 1)
    g[0] = 0.0
    prev = 0.0
    for i, block in _chunks(d):
        out = []
        for n, dn in enumerate(block, i + 1):
            prev = dn / (1.0 - prev)
            if not 0.0 < prev < 1.0 and not (n == count
                                             and 0.0 < prev < 1.0 + BOUNDARY_TOL):
                raise NotChainSequenceError(n)
            out.append(prev)
        g[i + 1:i + 1 + len(out)] = out
    return g


def minimal_params(d: ChainSeq) -> ParamSeq:
    """Minimal parameter sequence (g_1 = 0) of ``d``.

    Succeeds exactly when ``d`` is a positive chain sequence at its stated
    length; raises :class:`NotChainSequenceError` with the first failing
    index otherwise.
    """
    return ParamSeq(_minimal_raw(np.asarray(d.values, dtype=float)), "minimal")


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
    """Backward recursion M_{N+1} = 1, M_n = 1 - d_{n+1} / M_{n+1}."""
    count = len(d)
    m = np.empty(count + 1)
    # on the reversed views the recursion runs forward, chunk by chunk
    m_rev = m[::-1]
    m_rev[0] = val = 1.0
    for i, block in _chunks(d[::-1]):
        out = []
        for j, dn in enumerate(block, i):
            val = 1.0 - dn / val
            if val <= 0.0:
                n = count - j
                raise NotChainSequenceError(n, "maximal parameters undefined: "
                                            f"backward recursion left (0, 1] at n={n}")
            out.append(val)
        m_rev[i + 1:i + 1 + len(out)] = out
    return m


def maximal_params(d: ChainSeq, tol: float = 1e-12) -> ParamSeq:
    """Maximal parameter sequence {M_n} of ``d``.

    Finite sequences use the exact backward recursion anchored at
    M_{N+1} = 1.  Rule-backed sequences use the rule's closed form when one
    is available; otherwise the backward recursion is repeated at doubling
    horizons until M_1 moves by less than ``tol``, up to ``HORIZON_CAP``.
    """
    if tol <= 0:
        raise InputError("tol must be positive")
    if d.kind == FINITE:
        return ParamSeq(_backward_maximal(d.values), "maximal")

    want = len(d.values) + 1
    closed = d.rule.maximal_params_closed(want)
    if closed is not None:
        return ParamSeq(closed, "maximal")

    horizon = max(2 * want, 256)
    prev = _backward_maximal(d.prefix(horizon))[0]
    while True:
        horizon *= 2
        if horizon > HORIZON_CAP:
            raise NonConvergenceError(
                f"maximal parameter undetermined at tol={tol:g} "
                f"(horizon cap {HORIZON_CAP} reached)")
        full = _backward_maximal(d.prefix(horizon))
        if abs(full[0] - prev) < tol:
            return ParamSeq(full[:want], "maximal")
        prev = full[0]


def is_non_SP(d: ChainSeq, tol: float = SP_THRESHOLD) -> bool:
    """True when ``d`` admits more than one parameter sequence (M_1 > 0).

    Heads within ``tol`` of zero are classified single-parameter, since the
    exact dichotomy is analytic only.
    """
    m1 = maximal_params(d, tol=min(tol, 1e-12)).values[0]
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
    """Validate ``q`` as a scaling sequence for ``d`` and wrap it.

    Checks q in (0, 1] termwise, then that d/q is still a positive chain
    sequence.  Raises :class:`ScalingError` carrying the first failing index.
    """
    q = np.asarray(q, dtype=float)
    if len(q) != len(d.values):
        raise InputError(f"scaling length {len(q)} does not match {len(d.values)} terms")
    out_of_range = ~((q > 0.0) & (q <= 1.0))
    if out_of_range.any():
        bad = int(np.argmax(out_of_range)) + 1
        raise ScalingError(bad, f"scaling invalid at n={bad}: "
                           f"q_{{{bad + 1}}}={float(q[bad - 1])!r} out of (0, 1]")
    ratio = ChainSeq.from_values(d.values / q)
    bad = chain_failure_index(ratio)
    if bad is not None:
        raise ScalingError(bad, f"scaling invalid at n={bad}: d/q is not a "
                           f"positive chain sequence at term n={bad}")
    return ScalingSeq(q)


def ultraspherical_chain(lam: float, n: int) -> float:
    """Element d_{n+1} of the ultraspherical chain sequence, lam >= -1/2."""
    if lam < -0.5:
        raise InputError(f"ultraspherical parameter must be >= -1/2, got {lam}")
    if n < 1:
        raise InputError(f"index must be >= 1, got {n}")
    return 0.25 * n * (n + 2 * lam + 1) / ((n + lam) * (n + lam + 1))


def ismail_li_constant(N: int) -> float:
    """Largest constant positive chain sequence of N-1 elements.

    Equals 1 / (4 cos^2(pi / (N + 1))); decreases to 1/4 as N grows.
    """
    if N < 2:
        raise InputError(f"N must be >= 2, got {N}")
    c = math.cos(math.pi / (N + 1))
    return 1.0 / (4.0 * c * c)
