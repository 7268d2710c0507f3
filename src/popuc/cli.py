"""Command-line front end.

Subcommands: ``tables``, ``bounds``, ``zeros``, ``support-arc``, ``gap``,
``transform``, ``scaling-threshold``.  Machine output goes to stdout as CSV
(header row, LF endings) or JSON; a one-line human summary goes to stderr,
and ``--degrees`` (``bounds``, ``support-arc``) converts its angles only.
Each ``cmd_*`` handler maps the parsed arguments to (header, columns, summary)
and writes nothing; ``main`` writes both streams.

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
from itertools import chain, zip_longest

import numpy as np

from . import scaling as scaling_mod
from .bounds import gap_certificate, support_arc, _METHODS
from .chainseq import ScalingSeq, _CHUNK, make_scaling
from .errors import BoundaryCaseError, InputError, InvariantError, PopucError
from .recurrence import extreme_zeros, zeros_R
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
        if key in out:
            raise InputError(f"--params gives {key!r} twice")
        try:
            out[key] = float(val)
        except ValueError:
            raise InputError(f"--params value for {key!r} must be a number, got {val!r}")
    return out


# The parameters each family reads; lam and lambda name the same one.
_FAMILY_PARAMS = {"geronimus": ("alpha_re", "alpha_im"), "alternating": ("b1", "b2", "c"),
                  "lambda-eta": ("lam", "lambda", "eta")}


def _family_from_params(name: str, params: dict) -> VerblunskySeq:
    if not isinstance(name, str) or name not in _FAMILY_PARAMS:
        raise InputError(f"unknown family {name!r}; choose geronimus, alternating "
                         "or lambda-eta")
    for key in params:
        if key not in _FAMILY_PARAMS[name]:
            raise InputError(f"unknown {name} parameter {key!r}; it takes "
                             f"{', '.join(_FAMILY_PARAMS[name])}")
    if name == "geronimus":
        alpha = complex(params.get("alpha_re", 0.0), params.get("alpha_im", 0.0))
        return VerblunskySeq.geronimus(alpha)
    if name == "alternating":
        try:
            return VerblunskySeq.alternating(params["b1"], params["b2"],
                                             params.get("c", 0.0))
        except KeyError as exc:
            raise InputError(f"alternating family needs parameter {exc}")
    lam = [params[k] for k in ("lam", "lambda") if k in params]
    if len(lam) != 1:
        raise InputError("lambda-eta family needs parameters lam (or lambda, not both) "
                         "and eta")
    return VerblunskySeq.lambda_eta(lam[0], params.get("eta", 0.0))


def _json_object(pairs: list) -> dict:
    """A JSON object as a dict; a repeated key is a parse error, not a last value."""
    out = dict(pairs)
    if len(out) < len(pairs):
        keys = [key for key, _ in pairs]
        raise ValueError(f"repeated key {next(k for k in out if keys.count(k) > 1)!r}")
    return out


def _read_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, object_pairs_hook=_json_object)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror or exc}")
    except (ValueError, RecursionError) as exc:  # also bad UTF-8 and deep nesting
        raise InputError(f"cannot parse {path}: {exc}")


def _numbers(values, message: str) -> np.ndarray:
    """``values``, a JSON list of numbers, as a float array, else
    :class:`InputError` ``message``: strings, booleans, null and nested lists
    are no numbers, and neither is an int beyond the float range."""
    if not isinstance(values, list) or not set(map(type, values)) <= {int, float}:
        raise InputError(message)
    try:
        return np.asarray(values, dtype=float)
    except OverflowError:
        raise InputError(message)


def _load_input_file(path: str):
    """JSON input: {"alpha": [[re, im], ...]} or {"family":..., "params":...}
    or {"cd": {"c": [...], "d": [...]}}."""
    blob = _read_json(path)
    if not isinstance(blob, dict):
        raise InputError(f'{path} must hold a JSON object with "alpha", "family" '
                         'or "cd"')
    sources = [key for key in ("alpha", "family", "cd") if key in blob]
    if len(sources) > 1:
        raise InputError(f'{path} gives {" and ".join(map(repr, sources))}; '
                         "give one source")
    if "alpha" in blob:
        message = '"alpha" must be a list of [re, im] pairs'
        pairs = blob["alpha"]
        if not isinstance(pairs, list) or \
                not all(type(p) is list and len(p) == 2 for p in pairs):
            raise InputError(message)
        values = _numbers(list(chain.from_iterable(pairs)), message).view(complex)
        return VerblunskySeq.from_values(values), None
    if "family" in blob:
        params = blob.get("params", {})
        if not isinstance(params, dict):
            raise InputError('"params" must map parameter names to numbers')
        for key, val in params.items():
            if isinstance(val, bool) or not isinstance(val, (int, float)):
                raise InputError(f"family parameter {key!r} must be a number, "
                                 f"got {val!r}")
            if isinstance(val, int) and abs(val) > sys.float_info.max:
                raise InputError(f"family parameter {key!r} overflows a float")
        return _family_from_params(blob["family"], params), None
    if "cd" in blob:
        message = '"cd" must carry numeric lists "c" and "d"'
        try:
            c, d = (_numbers(blob["cd"][k], message) for k in "cd")
        except (KeyError, TypeError):
            raise InputError(message)
        return None, CdParams.from_sequences(c, d)
    raise InputError(f'{path} must contain "alpha", "family" or "cd"')


def _source(args):
    """(alpha, cd) from --input or --family, which exclude each other."""
    if args.input is not None and args.family is not None:
        raise InputError("give --input or --family, not both")
    if args.params is not None and args.family is None:
        raise InputError("--params needs --family")
    if args.input:
        return _load_input_file(args.input)
    if args.family:
        return _family_from_params(args.family, _parse_params(args.params)), None
    return None, None


# The largest degree or horizon a command takes; numpy raises on a length
# from about 2**59 up, and 2**53 itself exits 2 as an allocation that fails.
_MAX_DEGREE = 2 ** 53


def _degree(flag: str, value: int) -> int:
    """``value``, given by ``flag``, unless it exceeds ``_MAX_DEGREE``."""
    if value > _MAX_DEGREE:
        raise InputError(f"{flag} {value} exceeds the largest degree, 2**53")
    return value


def _n_values(args) -> list:
    if args.n_list is not None and args.n is not None:
        raise InputError("give --n or --n-list, not both")
    if args.n_list:
        try:
            values = [int(v) for v in args.n_list.split(",")]
        except ValueError:
            raise InputError(f"malformed --n-list {args.n_list!r}")
        return [_degree("--n-list", v) for v in values]
    if args.n is None:
        raise InputError("specify --n or --n-list")
    return [_degree("--n", args.n)]


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
        return scaling_mod._dominant_scaling(cd.d, mode, N)
    if mode == "family-default":
        if alpha is None or alpha.family == "inline":
            raise InputError("family-default scaling needs a named family source")
        return scaling_mod.default_scaling_for(alpha, N, cd=cd)
    d = cd.d[:N - 1]
    if mode == "constant":
        if args.q_const is None:
            raise InputError("--q-mode constant needs --q-const")
        return make_scaling(d, np.full(N - 1, args.q_const))
    if q_values is None:
        raise InputError("--q-mode custom needs --q-file")
    if len(q_values) < N - 1:
        raise InputError(f"custom scaling has {len(q_values)} terms, {N - 1} needed")
    return make_scaling(d, q_values[:N - 1])


# A chunk's column whose first _PROBE values are mostly repeats is formatted
# one distinct value at a time
_PROBE = 64


def _emit(header: list, columns: list, stream, output: str, command: str) -> None:
    """Write the table whose ``columns`` are in ``header`` order as ``output``
    (csv or json) for ``command``: the bytes of ``csv.writer(stream,
    lineterminator="\\n")`` over the header and the rows, or of
    ``json.dumps({"command": command, "rows": [dict(zip(header, row)), ...]},
    separators=(",", ":"))`` and a newline.  A column is a float64 array, a
    ``range`` or a list or tuple of cells; one may end a row early, and its
    missing cell is ``""``.  No csv field is quoted, which holds for two or
    more columns and values free of ',', '"' and line breaks: every string a
    command writes is a code literal or an argparse choice.

    A table longer than ``_CHUNK`` rows is sliced ``_CHUNK`` rows at a time,
    an array slice becomes Python floats only then, and each chunk is zipped
    once into rows; a shorter table is rendered as one chunk, unsliced.  An
    array's finiteness is read from the array, a list's from its cells.  A
    chunk of finite floats that mostly repeats formats each distinct value
    once.
    """
    if output == "json":
        encode = json.JSONEncoder(separators=(",", ":")).encode
        template = "{%s}" % ",".join(encode(k).replace("%", "%%") + ":%s" for k in header)
        stream.write(f'{{"command":{encode(command)},"rows":[')
        sep, tail = ",", "]}\n"

        def cell(v):  # %s renders ints and finite floats as json does
            return v if type(v) in (int, float) and -math.inf < v < math.inf else encode(v)
    else:
        template = ",".join(["%s"] * len(header)) + "\n"
        stream.write(",".join(header) + "\n")
        sep, tail = "", ""

        def cell(v):
            return "" if v is None else v

    def column(values):
        """One chunk of a column, as values that %s renders as ``output`` does."""
        if type(values) is range:
            return values
        if type(values) is np.ndarray:
            if not np.isfinite(values).all():
                return list(map(cell, values.tolist()))
            values = values.tolist()
        else:
            kinds = set(map(type, values))
            if kinds == {int}:
                return values
            if kinds != {float} or not -math.inf < sum(values) < math.inf:
                return list(map(cell, values))
        probe = values[:_PROBE]
        if 2 * len(set(probe)) > len(probe):  # mostly distinct
            return values
        distinct = set(values)
        text = dict(zip(distinct, map(repr, distinct)))
        if 0.0 in text:  # 0.0 and -0.0 are one key but print differently
            return [text[v] if v else repr(v) for v in values]
        return list(map(text.__getitem__, values))

    blank, lead = cell(""), ""
    size = max(map(len, columns))
    for start in range(0, size, _CHUNK):
        chunk = [column(values if size <= _CHUNK else values[start:start + _CHUNK])
                 for values in columns]
        stream.write(lead)  # not joined to the chunk: that would copy it
        stream.write(sep.join(map(template.__mod__, zip_longest(*chunk, fillvalue=blank))))
        lead = sep
    stream.write(tail)


TABLE_HEADER = ["N", "bound_theta_first", "argext_plus", "theta_first",
                "bound_theta_last", "argext_minus", "theta_last"]


def table_rows(which: int) -> list:
    """Extreme-zero bounds and true extreme zeros of the tabulated families.

    Angle cells are rounded to 7 decimals (round-half-even).
    """
    if which not in TABLE_FAMILIES:
        raise InputError(f"table must be 1, 2 or 3, got {which}")
    fam = TABLE_FAMILIES[which]
    # lambda-eta coefficients and tau are products taken front to back, so
    # the cd at each smaller N is a prefix of this one, bit for bit
    alpha = VerblunskySeq.lambda_eta(fam["lam"], fam["eta"], horizon=TABLE_N_VALUES[-1])
    cd = cd_from_verblunsky(alpha)
    theta = 2.0 * np.arccos(extreme_zeros(cd, TABLE_N_VALUES))
    rows = []
    for N, (theta_first, theta_last) in zip(TABLE_N_VALUES, theta.tolist()):
        q = scaling_mod.default_scaling_for(alpha, N, cd=cd)
        enc = _METHODS["thm44"](cd, q, N)
        rows.append(dict(zip(TABLE_HEADER, (
            N, f"{enc.theta1:.7f}", enc.argmax_index, f"{theta_first:.7f}",
            f"{enc.theta2:.7f}", enc.argmin_index, f"{theta_last:.7f}"))))
    return rows


def cmd_tables(args) -> tuple:
    which = int(args.which)
    rows = table_rows(which)
    return TABLE_HEADER, [[row[k] for row in rows] for k in TABLE_HEADER], (
        f"table {which}: {len(rows)} rows (N = {', '.join(str(r['N']) for r in rows)})\n")


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


def cmd_bounds(args) -> tuple:
    """``bounds`` and ``support-arc``: per degree of --n or --n-list, the
    enclosure of the extreme zeros or the support arc it gives."""
    row, header, too_small, summary = _ENCLOSURE_JOBS[args.command]
    for flag, value, mode in (("--q-const", args.q_const, "constant"),
                              ("--q-file", args.q_file, "custom")):
        if value is not None and args.q_mode != mode:
            raise InputError(f"{flag} needs --q-mode {mode}")
    n_values = _n_values(args)
    alpha, cd_inline = _source(args)
    q_values = None
    if args.q_file:
        q_values = _numbers(_read_json(args.q_file),
                            f"{args.q_file} must hold a JSON array of numbers")
    rows = []
    for N in n_values:
        if N < 2:
            raise InputError(too_small.format(N))
        cd = _cd_at(alpha, cd_inline, N)
        rows.append(row(args, cd, _scaling_at(args, alpha, cd, N, q_values), N))
    last = dict(zip(header.split(), rows[-1]))
    for k in ("theta1", "theta2"):
        last[k] = (f"{math.degrees(last[k]):.7f} deg" if args.degrees
                   else f"{last[k]:.7f} rad")
    return header.split(), list(zip(*rows)), summary.format(
        **last, stabilized=last.get("stabilized_lower") and last.get("stabilized_upper"))


def cmd_zeros(args) -> tuple:
    n_values = _n_values(args)
    alpha, cd_inline = _source(args)
    zeros = [zeros_R(_cd_at(alpha, cd_inline, N), N) for N in n_values]
    columns = [[N for N in n_values for _ in range(N)],
               [j for N in n_values for j in range(1, N + 1)],
               np.concatenate([zl.theta for zl in zeros]),
               np.concatenate([zl.x for zl in zeros])]
    return ["N", "j", "theta", "x"], columns, f"zeros: {len(columns[0])} rows\n"


def cmd_gap(args) -> tuple:
    if args.theta1 is None or args.theta2 is None:
        raise InputError("gap needs --theta1 and --theta2")
    n = 1000 if args.n is None else _degree("--n", args.n)
    alpha, _ = _source(args)
    if alpha is None:
        raise InputError('gap needs Verblunsky coefficients: --family, or --input with '
                         'an "alpha" list or a family (an inline cd carries no rotation)')
    cert = gap_certificate(alpha, args.theta1, args.theta2, n)
    if args.trace:
        header, columns = ["n", "m"], [range(1, len(cert.m) + 1), cert.m]
    else:
        header = ["verdict", "horizon", "violated_at", "c1_condition"]
        columns = [[cert.verdict], [cert.horizon], [cert.violated_at], [cert.c1_condition]]
    return header, columns, (f"gap: verified to N={cert.horizon}\n" if cert.verified
                          else f"gap: violated at n={cert.violated_at}\n")


def cmd_transform(args) -> tuple:
    for flag, given in (("--n", args.n is not None), ("--roundtrip", args.roundtrip)):
        if given and args.reverse:
            raise InputError(f"give {flag} or --reverse, not both")
    if args.t is not None and not args.reverse:
        raise InputError("--t needs --reverse")
    n = 16 if args.n is None else _degree("--n", args.n)
    alpha, cd = _source(args)
    if args.reverse:
        if cd is None:
            raise InputError("--reverse needs a cd source (--input with \"cd\")")
        if args.t is None:
            raise InputError("--reverse needs --t, the mass at z = 1, in (0, 1)")
        values = verblunsky_from_cd(cd, t=args.t).prefix(cd.n)
        return (["n", "alpha_re", "alpha_im"], [range(cd.n), values.real, values.imag],
                f"transform: recovered {cd.n} coefficients at t={args.t}\n")
    cd = _cd_at(alpha, cd, n)  # an inline cd may carry more than n rows
    summary = f"transform: {n} coefficient rows\n"
    if args.roundtrip:
        if alpha is None:
            raise InputError("--roundtrip needs an alpha source")
        t_star = mass_at_one(cd)
        recovered = verblunsky_from_cd(cd, t=t_star).prefix(n)
        residual = float(np.abs(recovered - alpha.prefix(n)).max())
        summary = f"transform: roundtrip residual {residual:.3e} at t={t_star!r}\n"
    tau = cd.tau[:n]
    # d_next ends a row early unless an inline cd carries more than n rows
    columns = [range(1, n + 1), cd.c[:n], cd.g[:n], cd.d[:n], tau.real, tau.imag]
    return ["n", "c", "g", "d_next", "tau_re", "tau_im"], columns, summary


def cmd_scaling_threshold(args) -> tuple:
    alpha, cd_inline = _source(args)
    if args.infinite:
        if args.n is not None:
            raise InputError("give --n or --infinite, not both")
        if args.d_const is not None:
            if args.input is not None or args.family is not None:
                source = "--family" if args.input is None else "--input"
                raise InputError(f"give --d-const or {source}, not both")
            d = args.d_const
        elif alpha is not None and alpha.family == "lambda-eta":
            d = None  # the ultraspherical d of every lambda-eta source
        else:
            raise InputError("--infinite needs --d-const or a lambda-eta family")
        threshold = scaling_mod.constant_scaling_threshold_infinite
        kind = "infinite"
    else:
        if args.d_const is not None:
            raise InputError("--d-const needs --infinite")
        if args.n is None:
            raise InputError("finite threshold needs --n")
        N = _degree("--n", args.n)
        cd = _cd_at(alpha, cd_inline, N)
        d = cd.d[:N - 1]
        threshold = scaling_mod.constant_scaling_threshold
        kind = f"finite-N={N}"
    # a closed form or a fixed number of bisection steps: --tol is only checked
    if not 0 < args.tol < math.inf:
        raise InputError(f"tol must be positive and finite, got {args.tol}")
    thr = float(threshold(d))
    return ["kind", "threshold"], [[kind], [thr]], f"scaling-threshold: {thr}\n"


def _add_source_flags(p):
    p.add_argument("--input", help="JSON input file (alpha list, family or cd)")
    p.add_argument("--family", help="named family: geronimus, alternating, lambda-eta")
    p.add_argument("--params", help="family parameters k=v,...; needs --family")


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
    p.add_argument("--t", type=float,
                   help="mass at z = 1, in (0, 1); --reverse needs it")
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
        header, columns, summary = _HANDLERS[args.command](args)
        _emit(header, columns, stdout, args.output, args.command)
    except BoundaryCaseError as exc:
        stderr.write(f"error: {exc}\n")
        return 3
    except InvariantError as exc:
        stderr.write(f"internal error: {exc}\n")
        return 4
    except PopucError as exc:  # InputError and its subclasses
        stderr.write(f"error: {exc}\n")
        return 2
    except MemoryError as exc:  # an --n too large to allocate for
        stderr.write(f"error: {str(exc) or 'out of memory'}\n")
        return 2
    stderr.write(summary)
    return 0


if __name__ == "__main__":
    sys.exit(main())
