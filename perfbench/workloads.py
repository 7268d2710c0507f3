"""Seeded job lists for the three benchmark workloads.

A job is one ``popuc`` command line plus what its output check needs to know
(the coefficient source behind it and the expected outcome).  Everything is
drawn from ``--seed``; the program only sees the argv and the JSON input
files written here.  The shape of each workload (subcommands, sources,
degrees, horizons, methods, scaling modes, output formats) is the same for
every seed; the seed draws the numbers (family parameters, inline
coefficients, arcs, constants) and the job order, so every seed asks for the
same amount of work.

Parameter ranges:

- inline alpha: uniform in the disk |alpha| <= 0.9;
- inline cd: c uniform in [-2.5, 2.5], d = q * dhat with dhat_n =
  (1 - h_n) h_{n+1}, h uniform in [0.15, 0.85] and q uniform in [0.5, 0.95].
  A q = 1 sequence of 1e5 terms stops being a chain sequence once rounded to
  floats, so it would measure a rejected input rather than the kernels;
- geronimus: alpha = r e^{i phi}, r in [0.1, 0.8]; for gap jobs alpha is real
  in [-0.8, -0.2], where the closed-form support arc is known and the gap
  holds no mass point;
- alternating: b1, b2 in [-0.8, 0.8], c in [-1, 1]; b1 = b2 where the family
  default scaling is used;
- lambda-eta: lam in [0, 2] (or (-0.45, -0.05) with the Legendre dominant),
  eta in [-2, 2];
- infinite thresholds: lambda-eta with lam in [0.2, 1], or a constant chain
  sequence in [0.15, 0.25].  Inside these ranges the threshold stops at the
  same horizon, so the work does not depend on the draw (lam = 1.5 takes
  twice as long as lam = 1, a constant 0.1 half as long as 0.2).
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

TWO_PI = 2.0 * math.pi

WORKLOADS = ("zeros", "horizon", "interactive")


@dataclass
class Job:
    """One CLI invocation and the facts its output check relies on."""

    argv: list
    kind: str                 # which check applies (usually the subcommand)
    source: Optional[dict] = None
    expect: dict = field(default_factory=dict)
    probe: Optional[str] = None   # contract-probe id from the roadmap, if any

    @property
    def label(self) -> str:
        return " ".join(a if len(a) < 60 else os.path.basename(a) for a in self.argv)


class Inputs:
    """Seeded parameter draws plus the JSON files they are written to."""

    def __init__(self, seed: int, workdir: str):
        self.rng = np.random.default_rng(seed)
        self.workdir = workdir
        self._files = 0
        self._outputs = 0

    def uniform(self, lo: float, hi: float) -> float:
        return float(self.rng.uniform(lo, hi))

    def output(self) -> str:
        """csv and json in turn."""
        self._outputs += 1
        return ("csv", "json")[self._outputs % 2]

    def write(self, blob: dict) -> str:
        self._files += 1
        path = os.path.join(self.workdir, f"in{self._files:03d}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(blob, fh)
        return path

    # -- coefficient sources ------------------------------------------------

    def family(self, name: str, default_scaling: bool = False) -> dict:
        if name == "geronimus":
            r, phi = self.uniform(0.1, 0.8), self.uniform(0.0, TWO_PI)
            params = {"alpha_re": r * math.cos(phi), "alpha_im": r * math.sin(phi)}
        elif name == "geronimus-gap":
            name, params = "geronimus", {"alpha_re": self.uniform(-0.8, -0.2)}
        elif name == "alternating":
            b1 = self.uniform(-0.8, 0.8)
            b2 = b1 if default_scaling else self.uniform(-0.8, 0.8)
            params = {"b1": b1, "b2": b2, "c": self.uniform(-1.0, 1.0)}
        elif name == "lambda-eta":
            params = {"lam": self.uniform(0.0, 2.0), "eta": self.uniform(-2.0, 2.0)}
        elif name == "lambda-eta-threshold":
            name = "lambda-eta"
            params = {"lam": self.uniform(0.2, 1.0), "eta": self.uniform(-2.0, 2.0)}
        elif name == "lambda-eta-neg":
            name = "lambda-eta"
            params = {"lam": self.uniform(-0.45, -0.05), "eta": self.uniform(-2.0, 2.0)}
        else:
            raise ValueError(name)
        return {"family": name, "params": params}

    def alpha(self, n: int) -> dict:
        mod = 0.9 * np.sqrt(self.rng.uniform(0.0, 1.0, n))
        values = mod * np.exp(1j * self.rng.uniform(0.0, TWO_PI, n))
        path = self.write({"alpha": [[v.real, v.imag] for v in values.tolist()]})
        return {"alpha": values, "path": path}

    def cd(self, n: int, c=None, q: Optional[float] = None) -> dict:
        h = self.rng.uniform(0.15, 0.85, n)
        q = self.uniform(0.5, 0.95) if q is None else q
        d = q * ((1.0 - h[:-1]) * h[1:])
        c = self.rng.uniform(-2.5, 2.5, n) if c is None else np.asarray(c, dtype=float)
        path = self.write({"cd": {"c": c.tolist(), "d": d.tolist()}})
        return {"c": c, "d": d, "q": q, "path": path}


def source_args(src: dict) -> list:
    if "path" in src:
        return ["--input", src["path"]]
    params = ",".join(f"{k}={v!r}" for k, v in src["params"].items())
    return ["--family", src["family"], "--params", params]


# -- job builders -------------------------------------------------------------


def zeros_job(inp: Inputs, src: dict, n: int) -> Job:
    return Job(["zeros", *source_args(src), "--n", str(n), "--output", inp.output()],
               "zeros", src)


def table_job(which: int) -> Job:
    return Job(["tables", str(which)], "tables", expect={"which": which})


def threshold_job(inp: Inputs, src: dict, n: int) -> Job:
    return Job(["scaling-threshold", *source_args(src), "--n", str(n),
                "--output", inp.output()], "threshold", src)


def infinite_threshold_job(inp: Inputs, d_const: Optional[float] = None,
                           src: Optional[dict] = None) -> Job:
    # The default --tol 1e-12 exits 3 on every input tried: the horizon cap
    # is reached first.  1e-6 converges.
    if d_const is not None:
        argv = ["scaling-threshold", "--d-const", repr(d_const), "--infinite"]
        expect = {"limit": 4.0 * d_const}
    else:
        argv = ["scaling-threshold", *source_args(src), "--infinite"]
        expect = {"limit": 1.0}
    return Job(argv + ["--tol", "1e-6", "--output", inp.output()], "threshold_inf",
               src, expect)


def enclosure_job(inp: Inputs, command: str, src: dict, n_arg: list, q_args: list,
                  method: str, output: Optional[str] = None) -> Job:
    # support-arc JSON output is probed separately (see probe_jobs)
    output = output or (inp.output() if command == "bounds" else "csv")
    return Job([command, *source_args(src), *n_arg, *q_args, "--method", method,
                "--output", output], "enclosure", src)


def gap_job(inp: Inputs, src: dict, theta1: float, theta2: float, n: int,
            expect_verdict: Optional[str] = None) -> Job:
    expect = {"verdict": expect_verdict} if expect_verdict else {}
    return Job(["gap", *source_args(src), "--theta1", repr(theta1), "--theta2",
                repr(theta2), "--n", str(n), "--output", inp.output()],
               "gap", src, expect)


def transform_job(inp: Inputs, src: dict, n: int, roundtrip: bool,
                  output: Optional[str] = None) -> Job:
    argv = ["transform", *source_args(src), "--n", str(n),
            "--output", output or inp.output()]
    return Job(argv + (["--roundtrip"] if roundtrip else []), "transform", src)


def reverse_job(inp: Inputs, cd: dict, t: float, output: Optional[str] = None) -> Job:
    return Job(["transform", "--reverse", "--input", cd["path"], "--t", repr(t),
                "--output", output or inp.output()], "reverse", cd, {"t": t})


def geronimus_gap_arc(inp: Inputs, alpha_re: float, inside: bool):
    """An arc strictly inside the gap around z = 1, or one reaching into the
    closed-form support arc [2 asin|a|, 2 pi - 2 asin|a|]."""
    edge = 2.0 * math.asin(abs(alpha_re))
    if inside:
        return (TWO_PI - edge + inp.uniform(0.02, 0.3) * edge,
                TWO_PI + edge - inp.uniform(0.02, 0.3) * edge)
    return (TWO_PI - edge - inp.uniform(0.1, 0.5),
            TWO_PI + edge - inp.uniform(0.02, 0.3) * edge)


# -- workloads ----------------------------------------------------------------


def zeros_workload(inp: Inputs) -> list:
    """Degree-heavy zero finding: the interlacing ladder dominates."""
    degrees = [150, 120, 100, 80]
    sources = [inp.family("lambda-eta"), inp.family("geronimus"),
               inp.family("alternating"), inp.alpha(80)]
    jobs = [zeros_job(inp, src, n) for src, n in zip(sources, degrees)]
    jobs += [table_job(k) for k in (1, 2, 3)]
    jobs.append(threshold_job(inp, inp.family("lambda-eta"), 80))
    return jobs


def horizon_workload(inp: Inputs) -> list:
    """Long sequences: transforms, enclosure sweeps, gap ratios, CSV output."""
    jobs = []
    theta1, theta2 = geronimus_gap_arc(inp, -0.5, inside=True)
    jobs.append(gap_job(inp, {"family": "geronimus", "params": {"alpha_re": -0.5}},
                        theta1, theta2, 1_000_000, "verified"))
    alpha = inp.alpha(100_001)
    start = inp.uniform(0.1, TWO_PI)
    jobs.append(gap_job(inp, alpha, start, start + inp.uniform(0.2, 1.5), 100_000))
    jobs.append(transform_job(inp, alpha, 100_000, roundtrip=False, output="csv"))
    jobs.append(transform_job(inp, inp.family("geronimus"), 100_000, roundtrip=True,
                              output="json"))
    cd = inp.cd(100_000)
    jobs.append(reverse_job(inp, cd, 0.25, output="csv"))
    q_const = inp.uniform(cd["q"] + 0.02, 1.0)
    jobs.append(enclosure_job(inp, "bounds", cd, ["--n", "100000"],
                              ["--q-mode", "constant", "--q-const", repr(q_const)],
                              "thm44"))
    n_list = ["--n-list", "1000,2000,3000,4000,5000"]
    jobs.append(enclosure_job(inp, "bounds", inp.family("geronimus"), n_list,
                              ["--q-mode", "family-default"], "thm44"))
    jobs.append(enclosure_job(inp, "bounds", inp.family("alternating", True), n_list,
                              ["--q-mode", "family-default"], "thm46"))
    jobs.append(enclosure_job(inp, "support-arc", inp.family("geronimus"),
                              ["--n", "5000"], ["--q-mode", "family-default"],
                              "thm44"))
    jobs.append(infinite_threshold_job(inp, src=inp.family("lambda-eta-threshold")))
    jobs.append(infinite_threshold_job(inp, d_const=inp.uniform(0.15, 0.25)))
    return jobs


def _spread(lo: int, hi: int, count: int) -> list:
    return [int(round(v)) for v in np.linspace(lo, hi, count)]


ENCLOSURE_SOURCES = ("geronimus", "alternating", "lambda-eta", "lambda-eta-neg",
                     "alpha", "cd")
METHODS = ("thm44", "thm46", "cor45", "cor47")


def _small_enclosure(inp: Inputs, command: str, n: int, k: int) -> Job:
    """The k-th bound or support-arc job, at degree n; source, method and
    scaling mode cycle with k."""
    kind = ENCLOSURE_SOURCES[k % len(ENCLOSURE_SOURCES)]
    method = METHODS[k % len(METHODS)]
    second = (k // len(ENCLOSURE_SOURCES)) % 2
    if kind == "alpha":
        src, q_args = inp.alpha(n), ["--q-mode", "trivial"]
    elif kind == "cd":
        src = inp.cd(n)
        q_args = ["--q-mode", "constant", "--q-const",
                  repr(inp.uniform(src["q"] + 0.02, 1.0))]
    elif kind == "lambda-eta":
        src = inp.family(kind)
        q_args = ["--q-mode", ("ismail-li", "family-default")[second]]
    elif kind == "lambda-eta-neg":
        src = inp.family(kind)
        q_args = ["--q-mode", ("legendre", "family-default")[second]]
    else:
        src = inp.family(kind, default_scaling=True)
        q_args = ["--q-mode", ("family-default", "trivial")[second]]
    if command == "bounds" and k % 3 == 0:
        n_arg = ["--n-list", ",".join(str(v) for v in sorted({max(2, n // 2), n}))]
    else:
        n_arg = ["--n", str(n)]
    return enclosure_job(inp, command, src, n_arg, q_args, method)


def _small_gap(inp: Inputs, n: int, k: int) -> Job:
    if k % 10 < 7:
        src = inp.family("geronimus-gap")
        inside = k % 2 == 0
        theta1, theta2 = geronimus_gap_arc(inp, src["params"]["alpha_re"], inside)
        return gap_job(inp, src, theta1, theta2, n, "verified" if inside else "violated")
    start = inp.uniform(0.1, TWO_PI)
    return gap_job(inp, inp.alpha(n + 1), start, start + inp.uniform(0.2, 1.5), n)


def _small_transform(inp: Inputs, n: int, k: int) -> Job:
    kind = ("geronimus", "alternating", "lambda-eta", "alpha", "cd")[k % 5]
    if kind == "cd":
        return reverse_job(inp, inp.cd(n), inp.uniform(0.05, 0.5))
    if kind == "alpha":  # roundtrips of inline alpha are probed separately
        return transform_job(inp, inp.alpha(n), n, roundtrip=False)
    return transform_job(inp, inp.family(kind), n, roundtrip=(k // 5) % 2 == 0)


def probe_jobs(inp: Inputs) -> list:
    """Contract probes: inputs whose documented exit code the seed gets wrong.

    4a: the Ismail-Li extremal constant is rejected at N = 77 and 100 (seed
        exits 2; the contract asks for 0 and an enclosure of the zeros);
    4b: a constant 0.3 > 1/4 is not a chain sequence (seed exits 0, the
        contract asks for 2);
    4c: NaN in inline c (seed exits 0 or 4, the contract asks for 2);
    rt: an inline-alpha roundtrip whose mass at z = 1 rounds to 0 (seed exits 4
        at step 91 of the augmented recursion; about 1 in 100 random inline
        roundtrips does, none of 300 family roundtrips tried);
    json: support-arc JSON output (seed raises TypeError on numpy bools).
    Parameters are fixed so that every seed probes the same defect.
    """
    lam_eta = {"family": "lambda-eta", "params": {"lam": 1.0, "eta": 1.0}}
    jobs = []
    for command in ("bounds", "support-arc"):
        for n in (77, 100):
            job = enclosure_job(inp, command, lam_eta, ["--n", str(n)],
                                ["--q-mode", "family-default"], "thm44", "csv")
            job.probe = "4a"
            jobs.append(job)
    jobs.append(Job(["scaling-threshold", "--d-const", "0.3", "--infinite", "--tol",
                     "1e-6"], "exit_code", expect={"rc": 2}, probe="4b"))
    c = inp.rng.uniform(-2.5, 2.5, 12)
    c[int(inp.rng.integers(12))] = math.nan
    bad = inp.cd(12, c=c)
    for argv in (["bounds", "--n", "12"], ["transform", "--n", "12"],
                 ["zeros", "--n", "12"]):
        jobs.append(Job(argv + ["--input", bad["path"]], "exit_code",
                        expect={"rc": 2}, probe="4c"))
    fixed = np.random.default_rng(1001)
    mod = 0.9 * np.sqrt(fixed.uniform(0.0, 1.0, 643))
    values = mod * np.exp(1j * fixed.uniform(0.0, TWO_PI, 643))
    src = {"alpha": values,
           "path": inp.write({"alpha": [[v.real, v.imag] for v in values.tolist()]})}
    jobs.append(transform_job(inp, src, 643, roundtrip=True, output="csv"))
    jobs.append(enclosure_job(inp, "support-arc", {"family": "geronimus",
                                                   "params": {"alpha_re": -0.5}},
                              ["--n", "20"], ["--q-mode", "family-default"], "thm44",
                              "json"))
    jobs[-2].probe, jobs[-1].probe = "rt", "json"
    return jobs


def interactive_workload(inp: Inputs) -> list:
    """Many small jobs over all seven subcommands, plus the contract probes."""
    def source(k: int, n: int) -> dict:
        kind = ("lambda-eta", "geronimus", "alternating", "alpha")[k % 4]
        return inp.alpha(n) if kind == "alpha" else inp.family(kind)

    jobs = [zeros_job(inp, source(k, n), n) for k, n in enumerate(_spread(5, 40, 25))]
    jobs += [_small_enclosure(inp, "bounds", n, k)
             for k, n in enumerate(_spread(5, 40, 36))]
    jobs += [_small_enclosure(inp, "support-arc", n, k)
             for k, n in enumerate(_spread(5, 40, 20))]
    jobs += [_small_transform(inp, n, k)
             for k, n in enumerate(_spread(10, 2000, 23) + [5000, 10_000, 10_000])]
    jobs += [_small_gap(inp, n, k) for k, n in enumerate(_spread(100, 10_000, 20))]
    jobs += [threshold_job(inp, source(3 * k, n), n)
             for k, n in enumerate(_spread(5, 40, 8))]
    jobs += [infinite_threshold_job(inp, src=inp.family("lambda-eta-threshold"))
             for _ in range(2)]
    jobs += [infinite_threshold_job(inp, d_const=inp.uniform(0.15, 0.25))
             for _ in range(2)]
    jobs.append(table_job(1 + int(inp.rng.integers(3))))
    jobs += probe_jobs(inp)
    order = inp.rng.permutation(len(jobs))
    return [jobs[i] for i in order]


BUILDERS = {
    "zeros": zeros_workload,
    "horizon": horizon_workload,
    "interactive": interactive_workload,
}

# Layer with the largest share of each workload's traced time at the seed; the
# trace self-test requires it to have spans.
DOMINANT_LAYER = {"zeros": "recurrence", "horizon": "transforms",
                  "interactive": "recurrence"}

# Tiny jobs run once before timing so lazy imports and first-call costs are
# paid outside the measured region.
WARMUP = [
    ["zeros", "--family", "lambda-eta", "--params", "lam=1,eta=1", "--n", "5"],
    ["bounds", "--family", "geronimus", "--params", "alpha_re=-0.5", "--n", "5",
     "--q-mode", "family-default", "--output", "json"],
    ["support-arc", "--family", "alternating", "--params", "b1=0.5,b2=0.5,c=0.2",
     "--n", "5", "--q-mode", "family-default"],
    ["gap", "--family", "geronimus", "--params", "alpha_re=-0.5", "--theta1", "5.3",
     "--theta2", "7.2", "--n", "50"],
    ["transform", "--family", "geronimus", "--params", "alpha_re=0.3", "--n", "8",
     "--roundtrip"],
    ["scaling-threshold", "--family", "lambda-eta", "--params", "lam=1,eta=1",
     "--n", "5"],
]


def build(workload: str, seed: int, workdir: str) -> list:
    return BUILDERS[workload](Inputs(seed, workdir))
