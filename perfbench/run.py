"""popuc benchmark: seven CLI subcommands driven in-process, end to end and by layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload zeros --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35 --trace 1

One process, one caller, closed loop: each job is ``popuc.cli.main(argv)``
with stdout and stderr held in memory, and the next job starts when it
returns.  The workload's job list runs over and over until ``--seconds``
have gone by and every job ran at least once.  Every job's output is checked
after timing (the first run in full, later runs by digest against it).

A job's latency is the median of its runs, each corrected for host load by
``speed.SpeedProbe`` to the reference host's full speed; the uncorrected
figures are printed alongside.
Throughput is the number of jobs in the list over the sum of their
latencies.  See README.md in this directory for the workloads and metrics.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` spends half the
time untraced and half traced and reports the per-layer metrics.  The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from speed import REFERENCE_S, SpeedProbe  # noqa: E402

SETUP_LAUNCHES = 9
SETUP_CODE = "import popuc.cli as cli; cli.build_parser()"
UNCAUGHT = -1  # exit code recorded when cli.main raises instead of returning


def import_program():
    """popuc from this checkout's src/, never from anywhere else."""
    if not os.path.isfile(os.path.join(SRC, "popuc", "cli.py")):
        sys.exit(f"perfbench: {SRC}/popuc/cli.py not found; run from a full checkout")
    sys.path.insert(0, SRC)
    import popuc.cli
    if not os.path.abspath(popuc.cli.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: imported popuc from {popuc.cli.__file__}, not {SRC}")
    return popuc.cli


def launch_setup(probe: SpeedProbe) -> tuple:
    """The run (start, end, busy) of a fresh interpreter importing the CLI and
    building its parser.  The wait blocks without a timeout: with one,
    ``Popen.wait`` polls, and the time it sees the child end is rounded up
    to its next poll, up to 50 ms later."""
    def launch():
        child = subprocess.Popen([sys.executable, "-c", SETUP_CODE], cwd=ROOT,
                                 env=dict(os.environ, PYTHONPATH=SRC),
                                 stdout=subprocess.DEVNULL)
        if child.wait() != 0:
            raise subprocess.CalledProcessError(child.returncode, child.args)
    return probe.timed(launch)[1]


class SetupLaunches:
    """Set-up launches spread over the timed loop, between jobs, so that they
    meet the same host load as the jobs do."""

    def __init__(self, probe: SpeedProbe, seconds: float):
        self.probe = probe
        launch_setup(probe)  # warms the file cache and writes the bytecode
        self.every = seconds / SETUP_LAUNCHES
        self.runs = []
        self.due = perf_counter()

    def __call__(self):
        if len(self.runs) < SETUP_LAUNCHES and perf_counter() >= self.due:
            self.runs.append(launch_setup(self.probe))
            self.due = perf_counter() + self.every


class Loop:
    """Closed-loop passes over the job list; keeps what the checks need.

    The first run's stdout of each job goes to a file in ``workdir`` rather
    than staying in memory, so the harness does not hold tens of MB of
    output inside the peak RSS it reports."""

    def __init__(self, cli, jobs, workdir, probe: SpeedProbe):
        self.cli = cli
        self.jobs = jobs
        self.workdir = workdir
        self.probe = probe
        self.first = {}      # job index -> (rc, stdout file, stderr) of its first run
        self.digests = {}    # job index -> digest of that first run
        self.records = []    # (job index, digest) of every run

    def call(self, argv, tracer=None):
        """(exit code, stdout, stderr, run) of one job; run as in
        ``SpeedProbe.timed``."""
        out, err = io.StringIO(), io.StringIO()

        def job():
            try:
                return self.cli.main(list(argv), stdout=out, stderr=err)
            except Exception as exc:  # a traceback breaks the exit-code contract
                err.write(f"uncaught {type(exc).__name__}: {exc}\n")
                return UNCAUGHT

        # Each job starts from an empty young generation, as a fresh process
        # would; otherwise when a collection lands depends on the jobs before.
        gc.collect()
        if tracer is not None:
            tracer.start_job()
        rc, run = self.probe.timed(job)
        text = out.getvalue()
        if tracer is not None:
            tracer.end_job(len(text))
        return rc, text, err.getvalue(), run

    def run(self, seconds: float, tracer=None, between=None) -> list:
        """Jobs in list order, over and over, until ``seconds`` have gone by and
        every job ran at least once; returns each job's runs."""
        runs = [[] for _ in self.jobs]
        start = perf_counter()
        while True:
            for i, job in enumerate(self.jobs):
                rc, out, err, run = self.call(job.argv, tracer)
                digest = hashlib.sha1(f"{rc}\0{out}\0{err}".encode()).hexdigest()
                if i not in self.first:
                    path = os.path.join(self.workdir, f"out-{i}.txt")
                    with open(path, "w", encoding="utf-8", newline="") as f:
                        f.write(out)
                    self.first[i] = (rc, path, err)
                    self.digests[i] = digest
                self.records.append((i, digest))
                runs[i].append(run)
                if between is not None:
                    between()
                if perf_counter() - start >= seconds and runs[-1]:
                    return runs


def verdicts(loop: Loop) -> dict:
    """Check reason (None when fine) for each job, from its first run."""
    import checks
    verdict = {}
    for i, (rc, path, err) in loop.first.items():
        with open(path, encoding="utf-8", newline="") as f:
            verdict[i] = checks.check(loop.jobs[i], rc, f.read(), err, ROOT)
    return verdict


def tally(loop: Loop, verdict: dict):
    """Failed runs of regular jobs, runs of contract probes that missed their
    contract, and jobs with no such run.  A probe's miss is a known defect of
    the program, the same on every run and seed; it lowers ``jobs_ok_frac``
    but is kept apart from the failed count."""
    failed = probe_missed = 0
    bad_jobs = {i for i, reason in verdict.items() if reason is not None}
    for i, digest in loop.records:
        if verdict[i] is not None or digest != loop.digests[i]:
            if loop.jobs[i].probe is None:
                failed += 1
            else:
                probe_missed += 1
            bad_jobs.add(i)
    return failed, probe_missed, len(loop.jobs) - len(bad_jobs)


def quantile(samples, q):
    """The q-th percentile, interpolated between the two samples around it
    (the inclusive method of ``statistics.quantiles``), so it never lies
    outside the samples and never falls when a sample rises."""
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def job_times(probe: SpeedProbe, runs: list, corrected: bool = True) -> list:
    """Each job's time: the median over its runs, corrected for host load."""
    if not corrected:
        return [statistics.median(busy for _, _, busy in r) for r in runs]
    return [statistics.median(map(probe.corrected, r)) for r in runs]


def pin_to_one_cpu():
    """Jobs, speed samples and set-up launches share one vCPU, so the samples
    see the load the timed code sees."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    cli = import_program()
    pin_to_one_cpu()
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        jobs = workloads.build(args.workload, args.seed, workdir)
        probe = SpeedProbe()
        loop = Loop(cli, jobs, workdir, probe)
        for warm in workloads.WARMUP:
            loop.call(warm)
        gc.freeze()  # imports and inputs are not re-scanned by every collection
        traced, tracer = [], None
        if args.trace:
            # half the time untraced, half traced, so a traced run costs no
            # more than an untraced one
            from tracer import Tracer
            runs = loop.run(args.seconds / 2)
            tracer = Tracer()
            tracer.install()
            unwrapped = tracer.unwrapped()
            try:
                traced = loop.run(args.seconds / 2, tracer)
            finally:
                tracer.uninstall()
        else:
            setup = SetupLaunches(probe, args.seconds)
            runs = loop.run(args.seconds, between=setup)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        verdict = verdicts(loop)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed, probe_missed, ok_jobs = tally(loop, verdict)
    attempted = len(loop.records)
    for i, reason in sorted(verdict.items()):
        if reason is not None:
            tag = f"probe {jobs[i].probe}" if jobs[i].probe else "FAILED"
            print(f"# {tag}: {jobs[i].label}: {reason}")

    job_s = job_times(probe, runs)
    jobs_per_s = len(job_s) / sum(job_s)
    passes = min(map(len, runs))
    if args.trace:
        # spans include the time of the speed samples taken inside them
        wall = sum(t1 - t0 for r in traced for t0, t1, _ in r)
        metrics = tracer.metrics(wall)
        traced_per_s = len(jobs) / sum(job_times(probe, traced))
        metrics["trace.overhead_frac"] = (1.0 - traced_per_s / jobs_per_s, "frac")
        coverage = sum(tracer.self_s.values()) / wall
        metrics["trace.coverage"] = (coverage, "frac")
        dominant = workloads.DOMINANT_LAYER[args.workload]
        selftest = coverage >= 0.95 and tracer.calls[dominant] > 0 and not unwrapped
        print(f"# trace self-test {'ok' if selftest else 'FAILED'}: layer self times "
              f"cover {coverage:.4f} of {wall:.3f} s traced; "
              f"{dominant} spans: {tracer.calls[dominant]}; by-value bindings "
              f"without a span: {', '.join(unwrapped) or 'none'}")
        print(f"# {'metric':32s} {'value':>16s} unit   "
              f"({len(jobs)} jobs x {min(map(len, traced))}+ traced passes)")
    else:
        selftest = True
        setup_s = [probe.corrected(run) for run in setup.runs]
        metrics = {
            "setup_s": (statistics.median(setup_s), "s"),
            "jobs_per_s": (jobs_per_s, "1/s"),
            "job_p50_ms": (1e3 * statistics.median(job_s), "ms"),
            "job_p90_ms": (1e3 * quantile(job_s, 90), "ms"),
            "jobs_ok_frac": (ok_jobs / len(jobs), "frac"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        raw = job_times(probe, runs, corrected=False)
        print(f"# uncorrected: setup_s "
              f"{statistics.median(busy for _, _, busy in setup.runs):.6g} s, "
              f"jobs_per_s {len(raw) / sum(raw):.6g} 1/s, job_p50_ms "
              f"{1e3 * statistics.median(raw):.6g} ms, job_p90_ms "
              f"{1e3 * quantile(raw, 90):.6g} ms; host slowdown median "
              f"{statistics.median(probe.times) / REFERENCE_S:.3f}")
        print(f"# {'metric':32s} {'value':>16s} unit   samples: {len(jobs)} jobs x "
              f"{passes}+ passes, {len(setup_s)} setup launches, "
              f"{len(probe.times)} speed samples")
    for name, (value, unit) in metrics.items():
        print(f"# {name:32s} {value:16.6g} {unit}")
    print(f"# {args.workload}: {attempted} job runs, {failed} failed, "
          f"{probe_missed} contract-probe runs missed their contract; "
          f"{ok_jobs} of {len(jobs)} jobs ok")

    # Contract probes miss their contract until the defects they probe are
    # fixed; they count in jobs_ok_frac but not in `failed` or against `correct`.
    correct = failed == 0 and selftest
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, one after the other."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        print(f"# == {name}", flush=True)
        proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--workload",
                               name, "--seed", str(args.seed), "--seconds",
                               str(args.seconds), "--trace", str(args.trace)],
                              stdout=subprocess.PIPE, text=True, check=True)
        lines = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            merged["metrics"][f"{name}.{key}"] = value
    print(json.dumps(merged))
    return 0


if __name__ == "__main__":
    sys.exit(main())
