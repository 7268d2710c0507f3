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
_ONE = np.ones(1)  # the scale of an unscaled walk


def _frozen(values, dtype=float) -> np.ndarray:
    """Read-only view of ``values`` as a ``dtype`` array; no bytes are copied,
    so a caller's own array stays writeable."""
    view = np.asarray(values, dtype=dtype).view()
    view.setflags(write=False)
    return view


def _require_positive(values: np.ndarray, first: int = 0) -> None:
    """Reject an element <= 0 of a chain sequence; ``values[0]`` is the term
    after the first ``first``."""
    if len(values) and values.min() <= 0.0:
        bad = int(np.argmax(values <= 0.0)) + 1 + first
        raise InputError(f"chain sequence elements must be positive (term n={bad})")


@dataclass(frozen=True)
class ScalingSeq:
    """Scaling sequence {q_{n+1}} with q in (0, 1]; ``values[k]`` is q_{k+2}.

    Dividing a chain sequence termwise by a valid scaling sequence leaves a
    chain sequence.  ``chain``, when set, is a d for which d/q over the first
    ``len(values)`` terms, and so over every prefix, is known to be one (by
    the walk of ``make_scaling``, by comparison, or at q = 1 for every d).
    """

    values: np.ndarray
    chain: Optional[np.ndarray] = field(default=None, repr=False, compare=False)

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

    A chunk of constant d and s, D and S, entered at a g in (0, 1) with
    D / (S (1 - g)) == g, would repeat g: it is filled with g, not walked.
    """
    g = np.empty(len(d) + 1)
    g[0] = prev = float(head)
    for i in range(0, len(d), _CHUNK):
        d_blk = d[i:i + _CHUNK]
        s_blk = _ONE if scale is None else scale[i:i + _CHUNK]
        d0, s0 = float(d_blk[0]), float(s_blk[0])
        if (0.0 < prev < 1.0 and d0 / (s0 * (1.0 - prev)) == prev
                and (d_blk == d0).all() and (s_blk == s0).all()):
            g[i + 1:i + 1 + len(d_blk)] = prev
            continue
        out = []
        steps = repeat(1.0) if scale is None else s_blk.tolist()
        for dn, sn in zip(d_blk.tolist(), steps):
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


def chain_failure_index(d: np.ndarray) -> Optional[int]:
    """First index at which ``d`` fails the chain-sequence test, else None."""
    try:
        _minimal_raw(np.asarray(d, dtype=float))
    except NotChainSequenceError as exc:
        return exc.index
    return None


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


def maximal_params(d: np.ndarray) -> np.ndarray:
    """Maximal parameter sequence {M_n} of ``d``, read-only: the exact
    backward recursion anchored at M_{N+1} = 1."""
    return _frozen(_backward_maximal(np.asarray(d, dtype=float)))


def make_scaling(d: np.ndarray, q) -> ScalingSeq:
    """Validate ``q`` as a scaling sequence for ``d``; wrap it with chain d.

    Checks q in (0, 1] termwise, then walks d/q to check that it is still a
    positive chain sequence.  Raises :class:`ScalingError` carrying the first
    failing index.
    """
    d, q = _frozen(d), np.asarray(q, dtype=float)
    if len(q) != len(d):
        raise InputError(f"scaling length {len(q)} does not match {len(d)} terms")
    scaling = ScalingSeq(q, d)  # the (0, 1] check, before dividing by q
    with np.errstate(over="ignore"):  # a d/q that overflows fails the walk
        bad = chain_failure_index(d / q)
    if bad is not None:
        raise ScalingError(bad, f"scaling invalid at n={bad}: d/q is not a "
                           f"positive chain sequence at term n={bad}")
    return scaling


def ismail_li_constant(N: int) -> float:
    """Largest constant positive chain sequence of N-1 elements.

    Equals 1 / (4 cos^2(pi / (N + 1))); decreases to 1/4 as N grows.
    """
    if N < 2:
        raise InputError(f"N must be >= 2, got {N}")
    c = math.cos(math.pi / (N + 1))
    return 1.0 / (4.0 * c * c)
