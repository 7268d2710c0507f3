"""Output checks against references that do not come from the timed code.

- ``tables``: byte-for-byte equal to ``tests/golden/table<k>.csv``.
- ``zeros``: W_N, re-evaluated in mpmath, changes sign across each reported
  zero (N disjoint brackets, so N sign changes).
- bounds and ``support-arc``: the enclosure (A, B) holds all N zeros of W_N,
  counted in mpmath by sign changes of the Sturm sequence W_0 .. W_N.
- ``gap``: geronimus verdicts follow from the closed-form support arc
  [2 asin|a|, 2 pi - 2 asin|a|]; inline verdicts are recomputed here.
- ``transform``: spot rows against an independent transform, plus the
  roundtrip residual; ``--reverse`` rows against the closed-form inverse.
- ``scaling-threshold``: the largest symmetric zero brackets the reported
  threshold (finite), or the threshold is within reach of its known limit.

The coefficient references are re-implementations of the defining formulas
in plain Python floats (the recursions used are contracting or closed form);
mpmath only evaluates W_N, where the sign is the whole answer.  A check
returns None when the output is right and a short reason otherwise.
"""

from __future__ import annotations

import cmath
import csv
import io
import json
import math
import os
import re

import mpmath

TWO_PI = 2.0 * math.pi
TOL = 1e-9          # coefficient and angle agreement, relative to 1 + |ref|
ZERO_BRACKET = 1e-9  # half-width of the bracket probed around each zero
LIMIT_TOL = 1e-5    # infinite threshold against its limit at --tol 1e-6
SPOT_ROWS = 12

mpmath.mp.dps = 40


# -- reference coefficients -----------------------------------------------------


def family_alpha_tau(src: dict, n: int):
    """First n Verblunsky coefficients and tau_0 .. tau_n of a named family."""
    p = src["params"]
    name = src["family"]
    if name == "geronimus":
        a = complex(p.get("alpha_re", 0.0), p.get("alpha_im", 0.0))
        phi = cmath.phase((1.0 + a.conjugate()) / (1.0 + a))
        alpha = [cmath.exp(1j * phi * (k + 1)) * a for k in range(n)]
        tau = [cmath.exp(-1j * phi * k) for k in range(n + 1)]
    elif name == "alternating":
        b1, b2, c = p["b1"], p["b2"], p.get("c", 0.0)
        even, odd = (b1 + 1j * c) / (1 + 1j * c), (b2 - 1j * c) / (1 + 1j * c)
        alpha = [even if k % 2 == 0 else odd for k in range(n)]
        tau = [1.0 if k % 2 == 0 else (1 + 1j * c) / (1 - 1j * c) for k in range(n + 1)]
    elif name == "lambda-eta":
        b = complex(p["lam"], p.get("eta", 0.0))
        alpha, tau, prod, t = [], [1.0 + 0j], 1.0 + 0j, 1.0 + 0j
        for k in range(n):
            prod *= (b + k) / (b.conjugate() + 1 + k)
            alpha.append(-prod)
            t *= (k + 1 + b.conjugate()) / (k + 1 + b)
            t /= abs(t)
            tau.append(t)
    else:
        raise ValueError(name)
    return alpha, tau


def moebius_tau(alpha, rotation=None):
    """tau recursion driven by alpha; with a rotation it starts at e^{i theta}."""
    tau = [1.0 + 0j]
    phase = None
    if rotation is not None:
        theta = math.fmod(rotation, TWO_PI)
        if theta <= 0.0:
            theta += TWO_PI
        phase = cmath.exp(1j * theta)
        tau = [phase]
    t = tau[0]
    for a in alpha:
        p = t * a
        if phase is None:
            t = (t - a.conjugate()) / (1.0 - p)
        else:
            t = phase * t * (1.0 - p.conjugate()) / (1.0 - p)
        t /= abs(t)
        tau.append(t)
    return tau


def cd_from_alpha_tau(alpha, tau):
    """c_n, g_n and d_{n+1} from alpha_{n-1} and tau_{n-1}."""
    c, g = [], []
    for a, t in zip(alpha, tau):
        p = t * a
        den = 1.0 - p.real
        c.append(-p.imag / den)
        g.append(abs(1.0 - p) ** 2 / (2.0 * den))
    d = [(1.0 - g[k]) * g[k + 1] for k in range(len(g) - 1)]
    return c, d, g


def reference_cd(src: dict, n: int):
    """(c, d) with len(c) = n for any job source."""
    if "c" in src:
        return list(src["c"][:n]), list(src["d"][:n - 1])
    if "alpha" in src:
        alpha = [complex(v) for v in src["alpha"][:n]]
        tau = moebius_tau(alpha)
    else:
        alpha, tau = family_alpha_tau(src, n)
    c, d, _ = cd_from_alpha_tau(alpha, tau)
    return c, d


# -- mpmath evaluation of W_n -----------------------------------------------------


def _mp_coeffs(c, d):
    return [mpmath.mpf(v) for v in c], [mpmath.mpf(v) for v in d]


def w_value(cm, dm, n, x):
    """W_n(x) from W_{k+1} = (x - c_{k+1} s) W_k - d_{k+1} W_{k-1}, s = sqrt(1 - x^2)."""
    x = mpmath.mpf(x)
    s = mpmath.sqrt(max(mpmath.mpf(0), 1 - x * x))
    w_prev, w = mpmath.mpf(0), mpmath.mpf(1)
    for k in range(n):
        w, w_prev = (x - cm[k] * s) * w - (dm[k - 1] * w_prev if k else 0), w
    return w


def zeros_above(cm, dm, n, x):
    """Zeros of W_n in (x, 1): sign changes of W_0(x), ..., W_n(x).

    A three-term recurrence with d > 0 whose members interlace is a Sturm
    sequence; the ratio form r_k = W_k / W_{k-1} keeps the numbers small.
    """
    x = mpmath.mpf(x)
    s = mpmath.sqrt(max(mpmath.mpf(0), 1 - x * x))
    count = 0
    r = None
    for k in range(n):
        a = x - cm[k] * s
        r = a if k == 0 else a - dm[k - 1] / r
        if r == 0:
            r = mpmath.mpf("1e-60")
        if r < 0:
            count += 1
    return count


# -- output parsing ---------------------------------------------------------------


def parse_rows(argv, stdout: str):
    if "--output" in argv and argv[argv.index("--output") + 1] == "json":
        return json.loads(stdout)["rows"]
    return list(csv.DictReader(io.StringIO(stdout)))


def _close(got, ref) -> bool:
    return abs(float(got) - ref) <= TOL * (1.0 + abs(ref))


# -- checks -------------------------------------------------------------------------


def check_tables(job, rc, out, err, root):
    path = os.path.join(root, "tests", "golden", f"table{job.expect['which']}.csv")
    with open(path, "r", encoding="utf-8", newline="") as fh:
        golden = fh.read()
    return None if out == golden else "differs from golden CSV"


def check_zeros(job, rc, out, err, root):
    rows = parse_rows(job.argv, out)
    n = int(job.argv[job.argv.index("--n") + 1])
    if len(rows) != n:
        return f"{len(rows)} zeros for degree {n}"
    x = [float(r["x"]) for r in rows]
    for r, xv in zip(rows, x):
        if abs(float(r["theta"]) - 2.0 * math.acos(xv)) > 1e-12:
            return "theta is not 2 acos(x)"
    if any(b >= a for a, b in zip(x, x[1:])) or not (-1.0 < x[-1] and x[0] < 1.0):
        return "zeros not strictly decreasing inside (-1, 1)"
    cm, dm = _mp_coeffs(*reference_cd(job.source, n))
    for j, xv in enumerate(x):
        gaps = [abs(xv - x[i]) for i in (j - 1, j + 1) if 0 <= i < n]
        h = min([ZERO_BRACKET] + [0.25 * g for g in gaps])
        lo, hi = w_value(cm, dm, n, xv - h), w_value(cm, dm, n, xv + h)
        if not lo * hi < 0:
            return f"no sign change of W_{n} across zero {j + 1} (x={xv!r})"
    return None


def check_enclosure(job, rc, out, err, root):
    rows = parse_rows(job.argv, out)
    if not rows:
        return "no rows"
    n_max = max(int(r["N"]) for r in rows)
    c, d = reference_cd(job.source, n_max)
    cm, dm = _mp_coeffs(c, d)
    for r in rows:
        n, A, B = int(r["N"]), float(r["A"]), float(r["B"])
        if not -1.0 <= A < B <= 1.0:
            return f"invalid enclosure ({A}, {B}) at N={n}"
        inside = zeros_above(cm, dm, n, A) - zeros_above(cm, dm, n, B)
        if inside != n:
            return f"enclosure at N={n} holds {inside} of {n} zeros"
        if not _close(r["theta1"], 2.0 * math.acos(B)) or \
                not _close(r["theta2"], 2.0 * math.acos(A)):
            return f"arc angles disagree with (A, B) at N={n}"
    return None


def gap_reference(src: dict, theta1: float, theta2: float, n: int):
    """Verdict and first violating index of the gap ratio recursion."""
    alpha = [complex(v) for v in src["alpha"][:n + 1]]
    c, d, _ = cd_from_alpha_tau(alpha, moebius_tau(alpha, rotation=theta2))
    half = 0.5 * (TWO_PI - (theta2 - theta1))
    x, s = math.cos(half), math.sin(half)
    if not (s > 0.0 and x / s < c[0]):
        return "violated", 0, 1.0
    t = [x - ck * s for ck in c]
    m = 0.0
    for k in range(1, n + 1):
        m = d[k - 1] / (t[k - 1] * t[k] * (1.0 - m))
        if not 0.0 < m < 1.0:
            return "violated", k, min(abs(m), abs(1.0 - m))
    return "verified", None, 1.0


def check_gap(job, rc, out, err, root):
    (row,) = parse_rows(job.argv, out)
    argv = job.argv
    theta1 = float(argv[argv.index("--theta1") + 1])
    theta2 = float(argv[argv.index("--theta2") + 1])
    n = int(argv[argv.index("--n") + 1])
    if int(row["horizon"]) != n:
        return f"horizon {row['horizon']} != {n}"
    if "verdict" in job.expect:
        if row["verdict"] != job.expect["verdict"]:
            return f"verdict {row['verdict']}, closed-form support says {job.expect['verdict']}"
        return None
    verdict, at, margin = gap_reference(job.source, theta1, theta2, n)
    got_at = None if row["violated_at"] in ("", None) else int(row["violated_at"])
    if (row["verdict"], got_at) != (verdict, at) and margin > 1e-9:
        return f"verdict {row['verdict']} at {got_at}, reference {verdict} at {at}"
    return None


def _spot_indices(n: int, job) -> list:
    if n <= 2 * SPOT_ROWS:
        return list(range(n))
    step = n / SPOT_ROWS
    return sorted({0, n - 1, *(int(step * k + 7 * len(job.argv)) % n for k in range(SPOT_ROWS))})


def check_transform(job, rc, out, err, root):
    rows = parse_rows(job.argv, out)
    n = int(job.argv[job.argv.index("--n") + 1])
    if len(rows) != n:
        return f"{len(rows)} rows for n={n}"
    src = job.source
    if "alpha" in src:
        alpha = [complex(v) for v in src["alpha"][:n]]
        tau = moebius_tau(alpha)
    else:
        alpha, tau = family_alpha_tau(src, n)
    c, d, g = cd_from_alpha_tau(alpha, tau)
    for k in _spot_indices(n, job):
        r = rows[k]
        ok = (int(r["n"]) == k + 1 and _close(r["c"], c[k]) and _close(r["g"], g[k])
              and _close(r["tau_re"], tau[k].real)
              and _close(r["tau_im"], tau[k].imag)
              and (k == n - 1 or _close(r["d_next"], d[k])))
        if not ok:
            return f"row {k + 1} disagrees with the reference transform"
    if "--roundtrip" in job.argv:
        m = re.search(r"roundtrip residual (\S+)", err)
        if not m or not float(m.group(1)) <= TOL:
            return f"roundtrip residual missing or above {TOL:g}"
    return None


def check_reverse(job, rc, out, err, root):
    """alpha_{n-1} = (1 - 2 m_n - i c_n) / ((1 - i c_n) tau_{n-1}), where m is the
    minimal parameter sequence of (1 - t) M_1, d_2, d_3, ... and tau comes from c."""
    rows = parse_rows(job.argv, out)
    c, d, t = job.source["c"], job.source["d"], job.expect["t"]
    n = len(c)
    if len(rows) != n:
        return f"{len(rows)} rows for {n} coefficients"
    big_m = 1.0
    for k in range(n - 2, -1, -1):
        big_m = 1.0 - d[k] / big_m
    want = set(_spot_indices(n, job))
    m, tau = (1.0 - t) * big_m, 1.0 + 0j
    for k in range(n):
        ck = float(c[k])
        if k in want:
            a = (1.0 - 2.0 * m - 1j * ck) / ((1.0 - 1j * ck) * tau)
            r = rows[k]
            if not (int(r["n"]) == k and _close(r["alpha_re"], a.real)
                    and _close(r["alpha_im"], a.imag)):
                return f"row {k} disagrees with the closed-form inverse"
        tau *= (1.0 - 1j * ck) / (1.0 + 1j * ck)
        tau /= abs(tau)
        if k < n - 1:
            m = d[k] / (1.0 - m)
    return None


def check_threshold(job, rc, out, err, root):
    (row,) = parse_rows(job.argv, out)
    thr = float(row["threshold"])
    n = int(job.argv[job.argv.index("--n") + 1])
    _, d = reference_cd(job.source, n)
    cm, dm = _mp_coeffs([0.0] * n, d)
    top = math.sqrt(thr)
    if zeros_above(cm, dm, n, top + ZERO_BRACKET) != 0 or \
            zeros_above(cm, dm, n, top - ZERO_BRACKET) < 1:
        return f"threshold {thr!r} is not the squared largest zero of W_{n}"
    return None


def check_threshold_inf(job, rc, out, err, root):
    (row,) = parse_rows(job.argv, out)
    thr, limit = float(row["threshold"]), job.expect["limit"]
    if not (limit - LIMIT_TOL <= thr <= limit * (1.0 + 1e-12)):
        return f"threshold {thr!r} not within {LIMIT_TOL:g} below its limit {limit!r}"
    return None


CHECKS = {
    "tables": check_tables,
    "zeros": check_zeros,
    "enclosure": check_enclosure,
    "gap": check_gap,
    "transform": check_transform,
    "reverse": check_reverse,
    "threshold": check_threshold,
    "threshold_inf": check_threshold_inf,
}


def check(job, rc: int, out: str, err: str, root: str):
    """None when the job met its contract, else the reason it did not."""
    want_rc = job.expect.get("rc", 0)
    if rc != want_rc:
        return f"exit code {rc}, contract says {want_rc}: {err.strip()[:120]}"
    if job.kind == "exit_code":
        return None
    try:
        return CHECKS[job.kind](job, rc, out, err, root)
    except (KeyError, ValueError, IndexError, TypeError, ZeroDivisionError) as exc:
        return f"unreadable output ({type(exc).__name__}: {exc})"
