"""Command-line front end.

Subcommands: ``tables``, ``bounds``, ``zeros``, ``support-arc``, ``gap``,
``transform``, ``scaling-threshold``.  Machine output goes to stdout as CSV
(header row, LF endings) or JSON; a one-line human summary goes to stderr,
and ``--degrees`` (``bounds``, ``support-arc``) converts its angles only.

Exit codes: 0 success, 2 input validation, 3 analytic boundary case,
4 internal invariant breach.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from contextlib import redirect_stderr, redirect_stdout
from itertools import chain, islice

import numpy as np

from . import scaling as scaling_mod
from .bounds import gap_certificate, support_arc, _METHODS
from .chainseq import ChainSeq, ScalingSeq, _CHUNK, make_scaling
from .errors import BoundaryCaseError, InputError, InvariantError, PopucError
from .recurrence import zeros_R
from .transforms import (CdParams, VerblunskySeq, cd_from_verblunsky,
                         mass_at_one, verblunsky_from_cd)

TABLE_N_VALUES = (10, 15, 30, 50)
TABLE_FAMILIES = {
    1: {"lam": 1.0, "eta": 1.0},
    2: {"lam": 10.0, "eta": 0.01},
    3: {"lam": -0.25, "eta": 1.0},
}


def _parse_params(text: str) -> dict:
    out = {}
    if not text:
        return out
    for chunk in text.split(","):
        if "=" not in chunk:
            raise InputError(f"malformed --params entry {chunk!r}; expected k=v")
        key, val = chunk.split("=", 1)
        key = key.strip()
        try:
            out[key] = float(val)
        except ValueError:
            raise InputError(f"--params value for {key!r} must be a number, got {val!r}")
    return out


def _family_from_params(name: str, params: dict) -> VerblunskySeq:
    if name == "geronimus":
        alpha = complex(params.get("alpha_re", 0.0), params.get("alpha_im", 0.0))
        return VerblunskySeq.geronimus(alpha)
    if name == "alternating":
        try:
            return VerblunskySeq.alternating(params["b1"], params["b2"],
                                             params.get("c", 0.0))
        except KeyError as exc:
            raise InputError(f"alternating family needs parameter {exc}")
    if name == "lambda-eta":
        try:
            lam = params["lam"] if "lam" in params else params["lambda"]
        except KeyError:
            raise InputError("lambda-eta family needs parameters lam (or lambda) and eta")
        return VerblunskySeq.lambda_eta(lam, params.get("eta", 0.0))
    raise InputError(f"unknown family {name!r}; choose geronimus, alternating "
                     "or lambda-eta")


def _read_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise InputError(f"cannot parse {path}: {exc}")


def _load_input_file(path: str):
    """JSON input: {"alpha": [[re, im], ...]} or {"family":..., "params":...}
    or {"cd": {"c": [...], "d": [...]}}."""
    blob = _read_json(path)
    if not isinstance(blob, dict):
        raise InputError(f'{path} must hold a JSON object with "alpha", "family" '
                         'or "cd"')
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
        return _family_from_params(blob["family"], params), None
    if "cd" in blob:
        block = blob["cd"]
        try:
            c = np.asarray(block["c"], dtype=float)
            d = np.asarray(block["d"], dtype=float)
        except (KeyError, TypeError, ValueError):
            raise InputError('"cd" must carry numeric lists "c" and "d"')
        return None, CdParams.from_sequences(c, d)
    raise InputError(f'{path} must contain "alpha", "family" or "cd"')


def _source(args):
    """(alpha, cd) from --input or --family; at most one of them is set."""
    if args.input:
        return _load_input_file(args.input)
    if args.family:
        return _family_from_params(args.family, _parse_params(args.params)), None
    return None, None


def _n_values(args) -> list:
    if args.n_list:
        try:
            return [int(v) for v in args.n_list.split(",")]
        except ValueError:
            raise InputError(f"malformed --n-list {args.n_list!r}")
    if args.n is None:
        raise InputError("specify --n or --n-list")
    return [args.n]


def _cd_at(alpha, cd_inline, n_terms: int) -> CdParams:
    if cd_inline is not None:
        if not 0 < n_terms <= cd_inline.n:
            raise InputError(f"inline cd carries {cd_inline.n} coefficients, "
                             f"{n_terms} requested")
        return cd_inline
    if alpha is None:
        raise InputError("no coefficient source; use --input or --family")
    return cd_from_verblunsky(alpha, n_terms=n_terms)


def _scaling_at(args, alpha, cd: CdParams, N: int, q_values) -> ScalingSeq:
    """The --q-mode scaling at degree N; ``q_values`` holds the --q-file terms."""
    mode = args.q_mode
    if mode == "trivial":
        return ScalingSeq(np.ones(N - 1), cd.d)
    if mode in ("ismail-li", "legendre"):
        return scaling_mod._dominant_scaling(cd.d.values, mode, N)
    if mode == "family-default":
        if alpha is None or alpha.family == "inline":
            raise InputError("family-default scaling needs a named family source")
        return scaling_mod.default_scaling_for(alpha, N, cd=cd)
    d = ChainSeq.from_values(cd.d.values[:N - 1])
    if mode == "constant":
        if args.q_const is None:
            raise InputError("--q-mode constant needs --q-const")
        return make_scaling(d, np.full(N - 1, args.q_const))
    if q_values is None:
        raise InputError("--q-mode custom needs --q-file")
    if len(q_values) < N - 1:
        raise InputError(f"custom scaling has {len(q_values)} terms, {N - 1} needed")
    return make_scaling(d, q_values[:N - 1])


def _emit(header: list, rows, stream, output: str, command: str) -> None:
    """Write ``rows``, an iterable of value sequences in ``header`` order, as
    ``output`` (csv or json) for ``command``.

    Rows are consumed ``_CHUNK`` at a time, so a generator never holds the
    whole table.  Values are Python scalars; csv renders floats by repr.
    """
    if output == "json":
        # the bytes of json.dumps({"command": ..., "rows": [...]}), encoded
        # _CHUNK rows at a time
        encode = json.JSONEncoder(separators=(",", ":")).encode
        stream.write(f'{{"command":{encode(command)},"rows":[')
        rows = iter(rows)
        sep = ""
        while block := [dict(zip(header, row)) for row in islice(rows, _CHUNK)]:
            stream.write(sep)
            stream.write(encode(block)[1:-1])
            sep = ","
        stream.write("]}\n")
        return
    # csv.writer's bytes, joined a block at a time: str() of each value (repr
    # for a float), None as an empty field.  No field needs csv quoting: every
    # string is a code literal or an argparse choice free of ',', '"' and line
    # breaks, and every header has at least two columns.
    rows = chain([header], rows)
    while block := list(islice(rows, _CHUNK)):
        stream.write("".join([",".join(["" if v is None else str(v) for v in row])
                              + "\n" for row in block]))


TABLE_HEADER = ["N", "bound_theta_first", "argext_plus", "theta_first",
                "bound_theta_last", "argext_minus", "theta_last"]


def table_rows(which: int) -> list:
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
        zl = zeros_R(cd, N)
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
    rows = table_rows(which)
    _emit(TABLE_HEADER, ([r[k] for k in TABLE_HEADER] for r in rows), stream,
          args.output, args.command)
    err.write(f"table {which}: {len(rows)} rows (N = "
              f"{', '.join(str(r['N']) for r in rows)})\n")
    return 0


def _bounds_row(args, cd: CdParams, q: ScalingSeq, N: int) -> tuple:
    enc = _METHODS[args.method](cd, q, N)
    return (N, enc.method, float(enc.A), float(enc.B), float(enc.theta1),
            float(enc.theta2), enc.argmin_index, enc.argmax_index, args.q_mode)


def _arc_row(args, cd: CdParams, q: ScalingSeq, N: int) -> tuple:
    sa = support_arc(cd, q, N, method=args.method)
    return (N, args.method, float(sa.theta1), float(sa.theta2), float(sa.enclosure.A),
            float(sa.enclosure.B), sa.stabilized_lower, sa.stabilized_upper)


# Per command: the row of one degree, header, N < 2 message and stderr line.
_ENCLOSURE_JOBS = {
    "bounds": (_bounds_row, "N method A B theta1 theta2 argmin_index argmax_index "
               "q_mode", "bound commands need N >= 2, got {}",
               "bounds[{method}] N={N}: arc {theta1} .. {theta2}\n"),
    "support-arc": (_arc_row, "N method theta1 theta2 A B stabilized_lower "
                    "stabilized_upper", "support-arc needs N >= 2, got {}",
                    "support-arc N={N}: [{theta1}, {theta2}] stabilized={stabilized}\n"),
}


def cmd_bounds(args, stream, err) -> int:
    """``bounds`` and ``support-arc``: per degree of --n or --n-list, the
    enclosure of the extreme zeros or the support arc it gives."""
    row, header, too_small, summary = _ENCLOSURE_JOBS[args.command]
    n_values = _n_values(args)
    alpha, cd_inline = _source(args)
    q_values = None
    if args.q_file:
        data = _read_json(args.q_file)
        try:
            q_values = np.asarray(data, dtype=float)
        except (TypeError, ValueError):
            raise InputError(f"{args.q_file} must hold a JSON array of numbers")
    rows = []
    for N in n_values:
        if N < 2:
            raise InputError(too_small.format(N))
        cd = _cd_at(alpha, cd_inline, N)
        rows.append(row(args, cd, _scaling_at(args, alpha, cd, N, q_values), N))
    _emit(header.split(), rows, stream, args.output, args.command)
    last = dict(zip(header.split(), rows[-1]))
    for k in ("theta1", "theta2"):
        last[k] = (f"{math.degrees(last[k]):.7f} deg" if args.degrees
                   else f"{last[k]:.7f} rad")
    err.write(summary.format(**last, stabilized=last.get("stabilized_lower")
                             and last.get("stabilized_upper")))
    return 0


def cmd_zeros(args, stream, err) -> int:
    n_values = _n_values(args)
    alpha, cd_inline = _source(args)
    rows = []
    for N in n_values:
        cd = _cd_at(alpha, cd_inline, N)
        zl = zeros_R(cd, N)
        rows += zip([N] * N, range(1, N + 1), zl.theta.tolist(), zl.x.tolist())
    _emit(["N", "j", "theta", "x"], rows, stream, args.output, args.command)
    err.write(f"zeros: {len(rows)} rows\n")
    return 0


def cmd_gap(args, stream, err) -> int:
    if args.theta1 is None or args.theta2 is None:
        raise InputError("gap needs --theta1 and --theta2")
    n = 1000 if args.n is None else args.n
    alpha, _ = _source(args)
    if alpha is None:
        raise InputError("gap needs a coefficient source (--input or --family)")
    cert = gap_certificate(alpha, args.theta1, args.theta2, n)
    if args.trace:
        header, rows = ["n", "m"], zip(range(1, len(cert.m) + 1), cert.m.tolist())
    else:
        header = ["verdict", "horizon", "violated_at", "c1_condition"]
        rows = [(cert.verdict, cert.horizon, cert.violated_at, cert.c1_condition)]
    _emit(header, rows, stream, args.output, args.command)
    if cert.verified:
        err.write(f"gap: verified to N={cert.horizon}\n")
    else:
        err.write(f"gap: violated at n={cert.violated_at}\n")
    return 0


def cmd_transform(args, stream, err) -> int:
    n = 16 if args.n is None else args.n
    alpha, cd = _source(args)
    if args.reverse:
        if cd is None:
            raise InputError("--reverse needs a cd source (--input with \"cd\")")
        values = verblunsky_from_cd(cd, t=args.t).prefix(cd.n)
        _emit(["n", "alpha_re", "alpha_im"],
              zip(range(cd.n), values.real.tolist(), values.imag.tolist()), stream,
              args.output, args.command)
        err.write(f"transform: recovered {cd.n} coefficients at t={args.t}\n")
        return 0
    cd = _cd_at(alpha, cd, n)  # an inline cd may carry more than n rows
    summary = f"transform: {n} coefficient rows\n"
    if args.roundtrip:  # before any row, so that a failure prints none
        if alpha is None:
            raise InputError("--roundtrip needs an alpha source")
        t_star = mass_at_one(cd)
        recovered = verblunsky_from_cd(cd, t=t_star).prefix(n)
        residual = float(np.abs(recovered - alpha.prefix(n)).max())
        summary = f"transform: roundtrip residual {residual:.3e} at t={t_star!r}\n"
    tau = cd.tau.values[:n]
    rows = zip(range(1, n + 1), cd.c.tolist(), cd.g.values.tolist(),
               chain(cd.d.values.tolist(), [""]), tau.real.tolist(), tau.imag.tolist())
    _emit(["n", "c", "g", "d_next", "tau_re", "tau_im"], rows, stream, args.output,
          args.command)
    err.write(summary)
    return 0


def cmd_scaling_threshold(args, stream, err) -> int:
    alpha, cd_inline = _source(args)
    if args.infinite:
        if args.d_const is not None:
            d = ChainSeq.constant(args.d_const)
        elif alpha is not None and alpha.family == "lambda-eta":
            d = ChainSeq.ultraspherical(alpha.params["lam"])
        else:
            raise InputError("--infinite needs --d-const or a lambda-eta family")
        threshold = scaling_mod.constant_scaling_threshold_infinite
        kind = "infinite"
    else:
        if args.n is None:
            raise InputError("finite threshold needs --n")
        N = args.n
        cd = _cd_at(alpha, cd_inline, N)
        d = ChainSeq.from_values(cd.d.values[:N - 1])
        threshold = scaling_mod.constant_scaling_threshold
        kind = f"finite-N={N}"
    # a closed form or a fixed number of bisection steps: --tol is only checked
    if not 0 < args.tol < math.inf:
        raise InputError(f"tol must be positive and finite, got {args.tol}")
    thr = threshold(d)
    _emit(["kind", "threshold"], [(kind, float(thr))], stream, args.output, args.command)
    err.write(f"scaling-threshold: {float(thr)}\n")
    return 0


def _add_source_flags(p):
    p.add_argument("--input", help="JSON input file (alpha list, family or cd)")
    p.add_argument("--family", help="named family: geronimus, alternating, lambda-eta")
    p.add_argument("--params", default="", help="family parameters k=v,...")


def _add_output_flag(p):
    p.add_argument("--output", choices=("csv", "json"), default="csv")


def _add_enclosure_parser(sub, name: str, help: str) -> None:
    """``bounds`` and ``support-arc`` take the same flags."""
    p = sub.add_parser(name, help=help)
    _add_source_flags(p)
    p.add_argument("--q-mode", default="trivial",
                   choices=("trivial", "constant", "ismail-li", "legendre",
                            "family-default", "custom"))
    p.add_argument("--q-const", type=float, default=None)
    p.add_argument("--q-file", help="JSON array with custom scaling values")
    p.add_argument("--n", type=int)
    p.add_argument("--n-list")
    p.add_argument("--method", default="thm44", choices=tuple(_METHODS))
    p.add_argument("--degrees", action="store_true",
                   help="render angles in the stderr summary in degrees")
    _add_output_flag(p)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared after that."""
    parser = argparse.ArgumentParser(
        prog="popuc",
        description="Unit-circle measures: chain-sequence parametrization, "
                    "recurrence zeros, support bounds and gap certificates.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tables", help="reproduce the bundled bound tables")
    p.add_argument("which", choices=("1", "2", "3"))
    _add_output_flag(p)

    _add_enclosure_parser(sub, "bounds", "extreme-zero enclosure at degree N")

    p = sub.add_parser("zeros", help="all zeros of the degree-N member")
    _add_source_flags(p)
    p.add_argument("--n", type=int)
    p.add_argument("--n-list")
    _add_output_flag(p)

    _add_enclosure_parser(sub, "support-arc", "support arc estimate at a horizon")

    p = sub.add_parser("gap", help="certificate that an arc avoids the support")
    _add_source_flags(p)
    p.add_argument("--theta1", type=float)
    p.add_argument("--theta2", type=float)
    p.add_argument("--n", type=int, help="certificate horizon")
    p.add_argument("--trace", action="store_true", help="emit the ratio trace")
    _add_output_flag(p)

    p = sub.add_parser("transform", help="alpha -> (c, d, g, tau) or back")
    _add_source_flags(p)
    p.add_argument("--n", type=int)
    p.add_argument("--reverse", action="store_true",
                   help="recover alpha from an inline cd source")
    p.add_argument("--t", type=float, default=0.0,
                   help="mass at z = 1 for --reverse")
    p.add_argument("--roundtrip", action="store_true",
                   help="report the alpha -> cd -> alpha residual on stderr")
    _add_output_flag(p)

    p = sub.add_parser("scaling-threshold",
                       help="sharp constant-scaling threshold of the chain sequence")
    _add_source_flags(p)
    p.add_argument("--n", type=int)
    p.add_argument("--infinite", action="store_true")
    p.add_argument("--d-const", type=float, default=None,
                   help="constant chain-sequence value for --infinite")
    _add_output_flag(p)
    p.add_argument("--tol", type=float, default=1e-12)
    return parser


_HANDLERS = {
    "tables": cmd_tables,
    "bounds": cmd_bounds,
    "zeros": cmd_zeros,
    "support-arc": cmd_bounds,
    "gap": cmd_gap,
    "transform": cmd_transform,
    "scaling-threshold": cmd_scaling_threshold,
}


def main(argv=None, stdout=None, stderr=None) -> int:
    stdout = stdout if stdout is not None else sys.stdout
    stderr = stderr if stderr is not None else sys.stderr
    try:
        # argparse writes usage, errors and --help to sys.stdout/sys.stderr
        with redirect_stdout(stdout), redirect_stderr(stderr):
            args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _HANDLERS[args.command](args, stdout, stderr)
    except BoundaryCaseError as exc:
        stderr.write(f"error: {exc}\n")
        return 3
    except InvariantError as exc:
        stderr.write(f"internal error: {exc}\n")
        return 4
    except PopucError as exc:  # InputError and its subclasses
        stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
