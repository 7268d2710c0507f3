"""Command-line front end.

Subcommands: ``tables``, ``bounds``, ``zeros``, ``support-arc``, ``gap``,
``transform``, ``scaling-threshold``.  Machine output goes to stdout as CSV
(header row, LF endings) or JSON; a one-line human summary goes to stderr,
and ``--degrees`` converts the angles in that summary only.

Exit codes: 0 success, 2 input validation, 3 numerical non-convergence or
boundary case, 4 internal invariant breach.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import dataclass, field
from itertools import chain, islice
from typing import Optional

import numpy as np

from . import scaling as scaling_mod
from .bounds import gap_certificate, support_arc, _METHODS
from .chainseq import ChainSeq, ScalingSeq, _CHUNK, ismail_li_constant, make_scaling
from .errors import (BoundaryCaseError, InputError, InvariantError,
                     NonConvergenceError, PopucError)
from .recurrence import zeros_R
from .transforms import (CdParams, VerblunskySeq, cd_from_verblunsky,
                         mass_at_one, verblunsky_from_cd)

TABLE_N_VALUES = (10, 15, 30, 50)
TABLE_FAMILIES = {
    1: {"lam": 1.0, "eta": 1.0},
    2: {"lam": 10.0, "eta": 0.01},
    3: {"lam": -0.25, "eta": 1.0},
}


@dataclass
class JobConfig:
    """Resolved invocation: coefficient source, command parameters, output."""

    command: str
    alpha: Optional[VerblunskySeq] = None
    cd_inline: Optional[CdParams] = None
    n_values: list = field(default_factory=list)
    q_mode: str = "trivial"
    q_const: Optional[float] = None
    q_values: Optional[np.ndarray] = None
    method: str = "thm44"
    output: str = "csv"
    tol: float = 1e-12
    degrees: bool = False


def _parse_params(text: str) -> dict:
    out = {}
    if not text:
        return out
    for chunk in text.split(","):
        if "=" not in chunk:
            raise InputError(f"malformed --params entry {chunk!r}; expected k=v")
        key, val = chunk.split("=", 1)
        out[key.strip()] = float(val)
    return out


def _family_from_params(name: str, params: dict, horizon: int) -> VerblunskySeq:
    if name == "geronimus":
        alpha = complex(params.get("alpha_re", 0.0), params.get("alpha_im", 0.0))
        return VerblunskySeq.geronimus(alpha, horizon)
    if name == "alternating":
        try:
            return VerblunskySeq.alternating(params["b1"], params["b2"],
                                             params.get("c", 0.0), horizon)
        except KeyError as exc:
            raise InputError(f"alternating family needs parameter {exc}")
    if name == "lambda-eta":
        try:
            lam = params["lam"] if "lam" in params else params["lambda"]
        except KeyError:
            raise InputError("lambda-eta family needs parameters lam (or lambda) and eta")
        return VerblunskySeq.lambda_eta(lam, params.get("eta", 0.0), horizon)
    raise InputError(f"unknown family {name!r}; choose geronimus, alternating "
                     "or lambda-eta")


def _load_input_file(path: str, horizon: int):
    """JSON input: {"alpha": [[re, im], ...]} or {"family":..., "params":...}
    or {"cd": {"c": [...], "d": [...]}}."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            blob = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InputError(f"cannot parse {path}: {exc}")
    if "alpha" in blob:
        pairs = blob["alpha"]
        try:
            values = [complex(p[0], p[1]) for p in pairs]
        except (TypeError, IndexError):
            raise InputError('"alpha" must be a list of [re, im] pairs')
        return VerblunskySeq.from_values(values), None
    if "family" in blob:
        params = blob.get("params", {})
        if not isinstance(params, dict):
            raise InputError('"params" must map parameter names to numbers')
        for key, val in params.items():
            if isinstance(val, bool) or not isinstance(val, (int, float)):
                raise InputError(f"family parameter {key!r} must be a number, "
                                 f"got {val!r}")
        return _family_from_params(blob["family"], params, horizon), None
    if "cd" in blob:
        block = blob["cd"]
        try:
            c = np.asarray(block["c"], dtype=float)
            d = np.asarray(block["d"], dtype=float)
        except (KeyError, TypeError, ValueError):
            raise InputError('"cd" must carry numeric lists "c" and "d"')
        return None, CdParams.from_sequences(c, d)
    raise InputError(f'{path} must contain "alpha", "family" or "cd"')


def _resolve_source(args, horizon: int) -> JobConfig:
    cfg = JobConfig(command=args.command)
    cfg.output = args.output
    cfg.degrees = args.degrees
    cfg.tol = args.tol
    if getattr(args, "method", None):
        cfg.method = args.method
    if getattr(args, "input", None):
        cfg.alpha, cfg.cd_inline = _load_input_file(args.input, horizon)
    elif getattr(args, "family", None):
        cfg.alpha = _family_from_params(args.family, _parse_params(args.params),
                                        horizon)
    return cfg


def _n_values(args) -> list:
    if getattr(args, "n_list", None):
        try:
            values = [int(v) for v in args.n_list.split(",")]
        except ValueError:
            raise InputError(f"malformed --n-list {args.n_list!r}")
        return values
    if getattr(args, "n", None) is None:
        raise InputError("specify --n or --n-list")
    return [args.n]


def _cd_at(cfg: JobConfig, n_terms: int) -> CdParams:
    if cfg.cd_inline is not None:
        if cfg.cd_inline.n < n_terms:
            raise InputError(f"inline cd carries {cfg.cd_inline.n} coefficients, "
                             f"{n_terms} needed")
        return cfg.cd_inline
    if cfg.alpha is None:
        raise InputError("no coefficient source; use --input or --family")
    return cd_from_verblunsky(cfg.alpha, n_terms=n_terms)


def _scaling_at(cfg: JobConfig, cd: CdParams, N: int) -> ScalingSeq:
    d = ChainSeq.from_values(cd.d.values[:N - 1])
    mode = cfg.q_mode
    if mode == "trivial":
        return ScalingSeq.trivial(N - 1)
    if mode == "constant":
        if cfg.q_const is None:
            raise InputError("--q-mode constant needs --q-const")
        return make_scaling(d, np.full(N - 1, cfg.q_const))
    if mode == "ismail-li":
        return make_scaling(d, d.values / ismail_li_constant(N))
    if mode == "legendre":
        return make_scaling(d, d.values / scaling_mod.legendre_dominant(N).values)
    if mode == "family-default":
        if cfg.alpha is None or cfg.alpha.family == "inline":
            raise InputError("family-default scaling needs a named family source")
        return scaling_mod.default_scaling_for(cfg.alpha, N, cd=cd)
    if mode == "custom":
        if cfg.q_values is None:
            raise InputError("--q-mode custom needs --q-file")
        if len(cfg.q_values) < N - 1:
            raise InputError(f"custom scaling has {len(cfg.q_values)} terms, "
                             f"{N - 1} needed")
        return make_scaling(d, cfg.q_values[:N - 1])
    raise InputError(f"unknown q-mode {mode!r}")


def _fmt_angle(theta: float, degrees: bool) -> str:
    if degrees:
        return f"{math.degrees(theta):.7f} deg"
    return f"{theta:.7f} rad"


def _emit(header: list, rows, cfg: JobConfig, stream) -> None:
    """Write ``rows``, an iterable of value sequences in ``header`` order.

    Rows are consumed one at a time, so a generator never holds the whole
    table.  Values are Python scalars; csv renders floats by repr.
    """
    if cfg.output == "json":
        # the bytes of json.dumps({"command": ..., "rows": [...]}), encoded
        # _CHUNK rows at a time
        encode = json.JSONEncoder(separators=(",", ":")).encode
        stream.write(f'{{"command":{encode(cfg.command)},"rows":[')
        rows = iter(rows)
        sep = ""
        while block := [dict(zip(header, row)) for row in islice(rows, _CHUNK)]:
            stream.write(sep)
            stream.write(encode(block)[1:-1])
            sep = ","
        stream.write("]}\n")
        return
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)


TABLE_HEADER = ["N", "bound_theta_first", "argext_plus", "theta_first",
                "bound_theta_last", "argext_minus", "theta_last"]


def table_rows(which: int, xtol: float = 1e-12) -> list:
    """Extreme-zero bounds and true extreme zeros of the tabulated families.

    Angle cells are rounded to 7 decimals (round-half-even).
    """
    if which not in TABLE_FAMILIES:
        raise InputError(f"table must be 1, 2 or 3, got {which}")
    fam = TABLE_FAMILIES[which]
    rows = []
    for N in TABLE_N_VALUES:
        alpha = VerblunskySeq.lambda_eta(fam["lam"], fam["eta"], horizon=N)
        cd = cd_from_verblunsky(alpha, n_terms=N)
        q = scaling_mod.default_scaling_for(alpha, N, cd=cd)
        enc = _METHODS["thm44"](cd, q, N)
        zl = zeros_R(cd, N, xtol=xtol)
        rows.append({
            "N": N,
            "bound_theta_first": f"{enc.theta1:.7f}",
            "argext_plus": enc.argmax_index,
            "theta_first": f"{zl.theta[0]:.7f}",
            "bound_theta_last": f"{enc.theta2:.7f}",
            "argext_minus": enc.argmin_index,
            "theta_last": f"{zl.theta[-1]:.7f}",
        })
    return rows


def cmd_tables(args, stream, err) -> int:
    which = int(args.which)
    cfg = JobConfig(command="tables", output=args.output, degrees=args.degrees)
    rows = table_rows(which, xtol=args.tol)
    _emit(TABLE_HEADER, ([r[k] for k in TABLE_HEADER] for r in rows), cfg, stream)
    err.write(f"table {which}: {len(rows)} rows (N = "
              f"{', '.join(str(r['N']) for r in rows)})\n")
    return 0


def cmd_bounds(args, stream, err) -> int:
    cfg = _resolve_source(args, horizon=max(_n_values(args)))
    cfg.q_mode = args.q_mode
    cfg.q_const = args.q_const
    cfg.q_values = _load_q_file(args.q_file) if args.q_file else None
    rows = []
    for N in _n_values(args):
        if N < 2:
            raise InputError(f"bound commands need N >= 2, got {N}")
        cd = _cd_at(cfg, N)
        q = _scaling_at(cfg, cd, N)
        enc = _METHODS[cfg.method](cd, q, N)
        rows.append((N, enc.method, float(enc.A), float(enc.B), float(enc.theta1),
                     float(enc.theta2), enc.argmin_index, enc.argmax_index,
                     cfg.q_mode))
    header = ["N", "method", "A", "B", "theta1", "theta2", "argmin_index",
              "argmax_index", "q_mode"]
    _emit(header, rows, cfg, stream)
    N, _, _, _, theta1, theta2, *_ = rows[-1]
    err.write(f"bounds[{cfg.method}] N={N}: arc "
              f"{_fmt_angle(theta1, cfg.degrees)} .. "
              f"{_fmt_angle(theta2, cfg.degrees)}\n")
    return 0


def cmd_zeros(args, stream, err) -> int:
    cfg = _resolve_source(args, horizon=max(_n_values(args)))
    rows = []
    for N in _n_values(args):
        cd = _cd_at(cfg, N)
        zl = zeros_R(cd, N, xtol=args.tol)
        rows += zip([N] * N, range(1, N + 1), zl.theta.tolist(), zl.x.tolist())
    _emit(["N", "j", "theta", "x"], rows, cfg, stream)
    err.write(f"zeros: {len(rows)} rows\n")
    return 0


def cmd_support_arc(args, stream, err) -> int:
    cfg = _resolve_source(args, horizon=max(_n_values(args)))
    cfg.q_mode = args.q_mode
    cfg.q_const = args.q_const
    cfg.q_values = _load_q_file(args.q_file) if args.q_file else None
    rows = []
    for N in _n_values(args):
        if N < 2:
            raise InputError(f"support-arc needs N >= 2, got {N}")
        cd = _cd_at(cfg, N)
        q = _scaling_at(cfg, cd, N)
        sa = support_arc(cd, q, N, method=cfg.method)
        rows.append((N, cfg.method, float(sa.theta1), float(sa.theta2),
                     float(sa.enclosure.A), float(sa.enclosure.B),
                     sa.stabilized_lower, sa.stabilized_upper))
    header = ["N", "method", "theta1", "theta2", "A", "B",
              "stabilized_lower", "stabilized_upper"]
    _emit(header, rows, cfg, stream)
    N, _, theta1, theta2, _, _, lower, upper = rows[-1]
    err.write(f"support-arc N={N}: "
              f"[{_fmt_angle(theta1, cfg.degrees)}, "
              f"{_fmt_angle(theta2, cfg.degrees)}] "
              f"stabilized={lower and upper}\n")
    return 0


def cmd_gap(args, stream, err) -> int:
    if args.theta1 is None or args.theta2 is None:
        raise InputError("gap needs --theta1 and --theta2")
    n = args.n or 1000
    cfg = _resolve_source(args, horizon=n + 1)
    if cfg.alpha is None:
        raise InputError("gap needs a coefficient source (--input or --family)")
    cert = gap_certificate(cfg.alpha, args.theta1, args.theta2, n)
    if args.trace:
        _emit(["n", "m"], zip(range(1, len(cert.m) + 1), cert.m.tolist()), cfg, stream)
    else:
        _emit(["verdict", "horizon", "violated_at", "c1_condition"],
              [(cert.verdict, cert.horizon, cert.violated_at, cert.c1_condition)],
              cfg, stream)
    if cert.verified:
        err.write(f"gap: verified to N={cert.horizon}\n")
    else:
        err.write(f"gap: violated at n={cert.violated_at}\n")
    return 0


def cmd_transform(args, stream, err) -> int:
    n = args.n or 16
    cfg = _resolve_source(args, horizon=n)
    if args.reverse:
        if cfg.cd_inline is None:
            raise InputError("--reverse needs a cd source (--input with \"cd\")")
        cd = cfg.cd_inline
        alpha = verblunsky_from_cd(cd, t=args.t, tol=args.tol)
        values = alpha.prefix(cd.n)
        _emit(["n", "alpha_re", "alpha_im"],
              zip(range(cd.n), values.real.tolist(), values.imag.tolist()), cfg, stream)
        err.write(f"transform: recovered {cd.n} coefficients at t={args.t}\n")
        return 0
    cd = _cd_at(cfg, n)
    tau = cd.tau.values[:cd.n]
    rows = zip(range(1, cd.n + 1), cd.c.tolist(), cd.g.values.tolist(),
               chain(cd.d.values.tolist(), [""]), tau.real.tolist(), tau.imag.tolist())
    _emit(["n", "c", "g", "d_next", "tau_re", "tau_im"], rows, cfg, stream)
    if args.roundtrip:
        if cfg.alpha is None:
            raise InputError("--roundtrip needs an alpha source")
        t_star = mass_at_one(cd)
        recovered = verblunsky_from_cd(cd, t=t_star, tol=args.tol).prefix(cd.n)
        residual = float(np.abs(recovered - cfg.alpha.prefix(cd.n)).max())
        err.write(f"transform: roundtrip residual {residual:.3e} at t={t_star!r}\n")
    else:
        err.write(f"transform: {cd.n} coefficient rows\n")
    return 0


def cmd_scaling_threshold(args, stream, err) -> int:
    cfg = _resolve_source(args, horizon=(args.n or 16))
    if args.infinite:
        if args.d_const is not None:
            d = ChainSeq.constant(args.d_const)
        elif cfg.alpha is not None and cfg.alpha.family == "lambda-eta":
            d = ChainSeq.ultraspherical(cfg.alpha.params["lam"])
        else:
            raise InputError("--infinite needs --d-const or a lambda-eta family")
        thr = scaling_mod.constant_scaling_threshold_infinite(d, tol=args.tol)
        kind = "infinite"
    else:
        if args.n is None:
            raise InputError("finite threshold needs --n")
        N = args.n
        cd = _cd_at(cfg, N)
        d = ChainSeq.from_values(cd.d.values[:N - 1])
        thr = scaling_mod.constant_scaling_threshold(d)
        kind = f"finite-N={N}"
    _emit(["kind", "threshold"], [(kind, float(thr))], cfg, stream)
    err.write(f"scaling-threshold: {float(thr)}\n")
    return 0


def _load_q_file(path: str) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InputError(f"cannot parse {path}: {exc}")
    try:
        return np.asarray(data, dtype=float)
    except (TypeError, ValueError):
        raise InputError(f"{path} must hold a JSON array of numbers")


def _add_source_flags(p):
    p.add_argument("--input", help="JSON input file (alpha list, family or cd)")
    p.add_argument("--family", help="named family: geronimus, alternating, lambda-eta")
    p.add_argument("--params", default="", help="family parameters k=v,...")


def _add_common_flags(p):
    p.add_argument("--output", choices=("csv", "json"), default="csv")
    p.add_argument("--tol", type=float, default=1e-12)
    p.add_argument("--degrees", action="store_true",
                   help="render angles in the stderr summary in degrees")


def _add_q_flags(p):
    p.add_argument("--q-mode", default="trivial",
                   choices=("trivial", "constant", "ismail-li", "legendre",
                            "family-default", "custom"))
    p.add_argument("--q-const", type=float, default=None)
    p.add_argument("--q-file", help="JSON array with custom scaling values")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="popuc",
        description="Unit-circle measures: chain-sequence parametrization, "
                    "recurrence zeros, support bounds and gap certificates.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tables", help="reproduce the bundled bound tables")
    p.add_argument("which", choices=("1", "2", "3"))
    _add_common_flags(p)

    p = sub.add_parser("bounds", help="extreme-zero enclosure at degree N")
    _add_source_flags(p)
    _add_q_flags(p)
    p.add_argument("--n", type=int)
    p.add_argument("--n-list")
    p.add_argument("--method", default="thm44",
                   choices=("thm44", "thm46", "cor45", "cor47"))
    _add_common_flags(p)

    p = sub.add_parser("zeros", help="all zeros of the degree-N member")
    _add_source_flags(p)
    p.add_argument("--n", type=int)
    p.add_argument("--n-list")
    _add_common_flags(p)

    p = sub.add_parser("support-arc", help="support arc estimate at a horizon")
    _add_source_flags(p)
    _add_q_flags(p)
    p.add_argument("--n", type=int)
    p.add_argument("--n-list")
    p.add_argument("--method", default="thm44",
                   choices=("thm44", "thm46", "cor45", "cor47"))
    _add_common_flags(p)

    p = sub.add_parser("gap", help="certificate that an arc avoids the support")
    _add_source_flags(p)
    p.add_argument("--theta1", type=float)
    p.add_argument("--theta2", type=float)
    p.add_argument("--n", type=int, help="certificate horizon")
    p.add_argument("--trace", action="store_true", help="emit the ratio trace")
    _add_common_flags(p)

    p = sub.add_parser("transform", help="alpha -> (c, d, g, tau) or back")
    _add_source_flags(p)
    p.add_argument("--n", type=int)
    p.add_argument("--reverse", action="store_true",
                   help="recover alpha from an inline cd source")
    p.add_argument("--t", type=float, default=0.0,
                   help="mass at z = 1 for --reverse")
    p.add_argument("--roundtrip", action="store_true",
                   help="report the alpha -> cd -> alpha residual on stderr")
    _add_common_flags(p)

    p = sub.add_parser("scaling-threshold",
                       help="sharp constant-scaling threshold of the chain sequence")
    _add_source_flags(p)
    p.add_argument("--n", type=int)
    p.add_argument("--infinite", action="store_true")
    p.add_argument("--d-const", type=float, default=None,
                   help="constant chain-sequence value for --infinite")
    _add_common_flags(p)
    return parser


_HANDLERS = {
    "tables": cmd_tables,
    "bounds": cmd_bounds,
    "zeros": cmd_zeros,
    "support-arc": cmd_support_arc,
    "gap": cmd_gap,
    "transform": cmd_transform,
    "scaling-threshold": cmd_scaling_threshold,
}


def main(argv=None, stdout=None, stderr=None) -> int:
    stdout = stdout if stdout is not None else sys.stdout
    stderr = stderr if stderr is not None else sys.stderr
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _HANDLERS[args.command](args, stdout, stderr)
    except InputError as exc:
        stderr.write(f"error: {exc}\n")
        return 2
    except (NonConvergenceError, BoundaryCaseError) as exc:
        stderr.write(f"error: {exc}\n")
        return 3
    except InvariantError as exc:
        stderr.write(f"internal error: {exc}\n")
        return 4
    except PopucError as exc:
        stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
