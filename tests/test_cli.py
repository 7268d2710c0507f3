import contextlib
import csv
import hashlib
import io
import itertools
import json
import math
import pathlib
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings, strategies as st

import popuc as pp
from popuc import cli

GOLDEN = pathlib.Path(__file__).parent / "golden"


def run(argv):
    out = io.StringIO()
    err = io.StringIO()
    code = cli.main(argv, stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


class TestTables:
    @pytest.mark.parametrize("which", ["1", "2", "3"])
    def test_golden_files(self, which):
        code, out, _ = run(["tables", which])
        assert code == 0
        golden = (GOLDEN / f"table{which}.csv").read_text()
        assert out == golden

    def test_lf_line_endings_and_header(self):
        _, out, _ = run(["tables", "1"])
        assert "\r" not in out
        assert out.splitlines()[0] == ("N,bound_theta_first,argext_plus,"
                                       "theta_first,bound_theta_last,"
                                       "argext_minus,theta_last")


class TestZerosGolden:
    """Zero lists pinned byte for byte."""

    @pytest.mark.parametrize("name, argv", [
        ("zeros-lambda-eta-150",
         ["--family", "lambda-eta", "--params", "lam=1,eta=1", "--n", "150"]),
        ("zeros-geronimus-120",
         ["--family", "geronimus", "--params", "alpha_re=0.5,alpha_im=0.3", "--n", "120"]),
        # c = 0, d = 1/4 at odd N: x = 0 is a zero, and an exact zero ratio
        ("zeros-quarter-chain-31",
         ["--input", str(GOLDEN / "quarter-chain.json"), "--n", "31"]),
        # random alpha, |alpha| = 0.9 sqrt(u): zeros that cluster unevenly,
        # where a secant through a bracket predicts the fewest levels
        ("zeros-random-alpha-300",
         ["--input", str(GOLDEN / "random-alpha-300.json"), "--n", "300"]),
        # alternating (b1, b2, c): alpha_n that switch with the parity of n
        ("zeros-alternating-100",
         ["--family", "alternating", "--params", "b1=-0.5,b2=0.7,c=-0.8", "--n", "100"]),
        # small degrees, one job and a list of them, where a pass's fixed
        # part is most of its cost
        ("zeros-lambda-eta-12",
         ["--family", "lambda-eta", "--params", "lam=0.7,eta=0.4", "--n", "12"]),
        ("zeros-n-list",
         ["--family", "lambda-eta", "--params", "lam=0.7,eta=0.4", "--n-list", "5,8,40",
          "--output", "json"]),
    ])
    def test_golden_zeros(self, name, argv):
        code, out, _ = run(["zeros", *argv])
        assert code == 0
        suffix = ".json" if "json" in argv else ".csv"
        assert out == (GOLDEN / (name + suffix)).read_text()


class TestTransformGolden:
    """Transform tables pinned byte for byte: both directions, csv and json,
    and the d_next cell the last forward row leaves empty."""

    LAMBDA_ETA = ["--family", "lambda-eta", "--params", "lam=1,eta=1", "--n", "64"]

    @pytest.mark.parametrize("name, argv", [
        ("transform-lambda-eta-64.csv", LAMBDA_ETA),
        ("transform-lambda-eta-64.json", LAMBDA_ETA + ["--output", "json"]),
        ("transform-reverse-quarter-chain.csv",
         ["--input", str(GOLDEN / "quarter-chain.json"), "--reverse", "--t", "0.25"]),
    ])
    def test_golden_transform(self, name, argv):
        code, out, _ = run(["transform", *argv])
        assert code == 0
        assert out == (GOLDEN / name).read_text()


# Enclosure outputs pinned byte for byte, each method and both commands.
BOUNDS_GOLDEN = {
    "bounds-thm44-geronimus": "bounds --family geronimus --params alpha_re=0.5,alpha_im=0.3 "
                              "--n-list 5,40,1000 --q-mode family-default --method thm44",
    "bounds-thm46-lambda-eta": "bounds --family lambda-eta --params lam=1,eta=1 --n 1000 "
                               "--q-mode ismail-li --method thm46",
    "bounds-cor45-quarter-chain": f"bounds --input {GOLDEN / 'quarter-chain.json'} --n 31 "
                                  "--method cor45",
    # q = 1: every upper root is +inf
    "bounds-cor45-lambda-eta": "bounds --family lambda-eta --params lam=1,eta=1 --n 5000 "
                               "--method cor45",
    "bounds-cor47-alternating": "bounds --family alternating --params b1=0.5,b2=0.5,c=0.2 "
                                "--n 5000 --method cor47",
    "bounds-support-arc-geronimus": "support-arc --family geronimus --params alpha_re=-0.5 "
                                    "--n 5001 --q-mode family-default --method thm44",
}


@pytest.mark.parametrize("name", sorted(BOUNDS_GOLDEN))
def test_golden_bounds(name):
    code, out, _ = run(BOUNDS_GOLDEN[name].split())
    assert code == 0
    assert out == (GOLDEN / f"{name}.csv").read_text()


class TestBounds:
    def test_geronimus_family_default(self):
        code, out, err = run(["bounds", "--family", "geronimus",
                              "--params", "alpha_re=-0.5",
                              "--n", "20", "--q-mode", "family-default"])
        assert code == 0
        row = out.splitlines()[1].split(",")
        header = out.splitlines()[0].split(",")
        rec = dict(zip(header, row))
        assert float(rec["theta1"]) == pytest.approx(math.pi / 3, abs=1e-9)
        assert float(rec["theta2"]) == pytest.approx(5 * math.pi / 3, abs=1e-9)
        assert rec["method"] == "thm44"

    def test_trivial_scaling_full_circle(self, tmp_path):
        src = tmp_path / "alpha.json"
        src.write_text(json.dumps({"alpha": [[0.0, 0.0]] * 12}))
        code, out, _ = run(["bounds", "--input", str(src), "--n", "12"])
        assert code == 0
        rec = dict(zip(*[line.split(",") for line in out.splitlines()[:2]]))
        assert float(rec["theta1"]) == pytest.approx(0.0, abs=1e-12)
        assert float(rec["theta2"]) == pytest.approx(2 * math.pi, abs=1e-12)

    def test_json_round_trip(self):
        code, out, _ = run(["bounds", "--family", "geronimus",
                            "--params", "alpha_re=0.3,alpha_im=0.4",
                            "--n", "16", "--q-mode", "family-default",
                            "--output", "json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["command"] == "bounds"
        row = payload["rows"][0]
        # floats survive the JSON round trip bit-for-bit
        again = json.loads(json.dumps(row))
        assert again["A"] == row["A"] and again["theta2"] == row["theta2"]

    def test_n_list(self):
        code, out, _ = run(["bounds", "--family", "lambda-eta",
                            "--params", "lam=1,eta=1", "--n-list", "5,10",
                            "--q-mode", "ismail-li"])
        assert code == 0
        assert len(out.splitlines()) == 3

    def test_invalid_alpha_exit_code(self, tmp_path):
        src = tmp_path / "alpha.json"
        src.write_text(json.dumps({"alpha": [[1.0, 0.0]]}))
        code, _, err = run(["bounds", "--input", str(src), "--n", "2"])
        assert code == 2
        assert "modulus" in err

    def test_invalid_scaling_exit_code(self, tmp_path):
        qfile = tmp_path / "q.json"
        qfile.write_text(json.dumps([1.0, 1.5] + [1.0] * 9))
        code, _, err = run(["bounds", "--family", "geronimus",
                            "--params", "alpha_re=-0.5", "--n", "12",
                            "--q-mode", "custom", "--q-file", str(qfile)])
        assert code == 2
        assert "scaling invalid at n=2" in err

    def test_scaling_error_prints_plain_float(self, tmp_path):
        qfile = tmp_path / "q.json"
        qfile.write_text(json.dumps([1.0, 1.5] + [1.0] * 9))
        code, _, err = run(["bounds", "--family", "geronimus",
                            "--params", "alpha_re=-0.5", "--n", "12",
                            "--q-mode", "custom", "--q-file", str(qfile)])
        assert code == 2
        assert "q_{3}=1.5 " in err
        assert "np.float64" not in err

    def test_n_too_small(self):
        code, _, err = run(["bounds", "--family", "geronimus",
                            "--params", "alpha_re=-0.5", "--n", "1"])
        assert code == 2
        assert "N >= 2" in err

    def test_custom_q_file(self, tmp_path):
        qfile = tmp_path / "q.json"
        qfile.write_text(json.dumps([0.75] * 11))
        code, out, _ = run(["bounds", "--family", "geronimus",
                            "--params", "alpha_re=-0.5", "--n", "12",
                            "--q-mode", "custom", "--q-file", str(qfile)])
        assert code == 0
        rec = dict(zip(*[line.split(",") for line in out.splitlines()[:2]]))
        assert float(rec["theta1"]) == pytest.approx(math.pi / 3, abs=1e-9)

    def test_degrees_flag_touches_summary_only(self):
        code, out, err = run(["bounds", "--family", "geronimus",
                              "--params", "alpha_re=-0.5", "--n", "12",
                              "--q-mode", "family-default", "--degrees"])
        assert code == 0
        assert "deg" in err
        assert float(out.splitlines()[1].split(",")[4]) < 2 * math.pi  # radians


class TestZeros:
    def test_symmetric_degree_two(self, tmp_path):
        src = tmp_path / "alpha.json"
        src.write_text(json.dumps({"alpha": [[0.0, 0.0], [0.0, 0.0]]}))
        code, out, _ = run(["zeros", "--input", str(src), "--n", "2"])
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 3
        theta = [float(line.split(",")[2]) for line in lines[1:]]
        assert theta[0] == pytest.approx(2 * math.pi / 3, rel=1e-10)
        assert theta[1] == pytest.approx(4 * math.pi / 3, rel=1e-10)

    def test_unresolvable_zero_exit_code(self, tmp_path):
        # valid but extreme input: c_2 = 1e8 puts the top zero within rounding of x = 1
        src = tmp_path / "cd.json"
        src.write_text(json.dumps({"cd": {"c": [0.3, 1e8, -1, 0.5, 1.2, -0.7],
                                          "d": [0.2] * 5}}))
        code, _, err = run(["zeros", "--input", str(src), "--n", "6"])
        assert code == 3
        assert "degree 6" in err


class TestNonFiniteInput:
    @pytest.mark.parametrize("argv", [["bounds", "--n", "4"],
                                      ["transform", "--n", "4"],
                                      ["zeros", "--n", "4"]])
    def test_nan_in_inline_c(self, tmp_path, argv):
        src = tmp_path / "cd.json"
        src.write_text('{"cd": {"c": [0.1, NaN, 0.3, 0.2], "d": [0.2, 0.2, 0.2]}}')
        code, _, err = run(argv + ["--input", str(src)])
        assert code == 2
        assert "c_2" in err and "not finite" in err

    def test_inf_in_inline_d(self, tmp_path):
        src = tmp_path / "cd.json"
        src.write_text('{"cd": {"c": [0.1, 0.2, 0.3], "d": [0.2, Infinity]}}')
        code, _, err = run(["zeros", "--input", str(src), "--n", "3"])
        assert code == 2
        assert "d_3" in err

    def test_nan_alpha(self, tmp_path):
        src = tmp_path / "alpha.json"
        src.write_text('{"alpha": [[0.1, 0.0], [NaN, 0.0]]}')
        code, _, err = run(["bounds", "--input", str(src), "--n", "2"])
        assert code == 2
        assert "alpha_1" in err


class TestSupportArc:
    def test_json_round_trip(self):
        code, out, _ = run(["support-arc", "--family", "geronimus",
                            "--params", "alpha_re=-0.5", "--n", "20",
                            "--q-mode", "family-default", "--output", "json"])
        assert code == 0
        row = json.loads(out)["rows"][0]
        assert json.loads(json.dumps(row)) == row
        assert row["stabilized_lower"] is True and row["stabilized_upper"] is True

    def test_alternating_optimal(self):
        code, out, _ = run(["support-arc", "--family", "alternating",
                            "--params", "b1=0.6,b2=0.6,c=0.5",
                            "--n", "20", "--q-mode", "family-default"])
        assert code == 0
        rec = dict(zip(*[line.split(",") for line in out.splitlines()[:2]]))
        vplus = math.acos((0.25 - 0.36 + (1 - 0.36)) / 1.25)
        assert float(rec["theta1"]) == pytest.approx(vplus, abs=1e-9)
        assert rec["stabilized_lower"] == "True"


ENCLOSURE_HEADERS = {
    "bounds": ["N", "method", "A", "B", "theta1", "theta2", "argmin_index",
               "argmax_index", "q_mode"],
    "support-arc": ["N", "method", "theta1", "theta2", "A", "B",
                    "stabilized_lower", "stabilized_upper"],
}


class TestEnclosureCommands:
    """``bounds`` and ``support-arc`` run one handler; each keeps its header,
    summary line and degree message."""

    @pytest.mark.parametrize("command", ["bounds", "support-arc"])
    @pytest.mark.parametrize("output", ["csv", "json"])
    @pytest.mark.parametrize("degrees", [("--n", "12"), ("--n-list", "5,8,12")])
    def test_rows_summary_and_small_degree(self, command, output, degrees):
        argv = [command, "--family", "lambda-eta", "--params", "lam=1,eta=0.5",
                "--q-mode", "family-default", "--method", "thm46",
                "--output", output]
        code, out, err = run(argv + list(degrees))
        assert code == 0
        header = ENCLOSURE_HEADERS[command]
        if output == "csv":
            lines = out.splitlines()
            assert lines[0].split(",") == header
            rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
        else:
            blob = json.loads(out)
            assert blob["command"] == command
            rows = blob["rows"]
            assert all(list(row) == header for row in rows)
        assert [int(row["N"]) for row in rows] == [
            int(v) for v in degrees[1].split(",")]
        assert all(row["method"] == "thm46" for row in rows)
        theta1, theta2 = (f"{float(rows[-1][k]):.7f} rad" for k in ("theta1", "theta2"))
        if command == "bounds":
            assert err == f"bounds[thm46] N=12: arc {theta1} .. {theta2}\n"
            assert all(row["q_mode"] == "family-default" for row in rows)
        else:
            assert re.fullmatch(rf"support-arc N=12: \[{theta1}, {theta2}\] "
                                r"stabilized=(True|False)\n", err)
        small = "1" if degrees[0] == "--n" else "5,1"
        code, out, err = run(argv + [degrees[0], small])
        message = ("support-arc needs N >= 2" if command == "support-arc"
                   else "bound commands need N >= 2")
        assert (code, out, err) == (2, "", f"error: {message}, got 1\n")


class TestPaperBoundaries:
    """Inputs on the paper's own boundaries that used to exit 2 or 4."""

    @pytest.mark.parametrize("command", ["bounds", "support-arc"])
    @pytest.mark.parametrize("n", [77, 100])
    def test_extremal_default_scaling_encloses_zeros(self, command, n):
        family = ["--family", "lambda-eta", "--params", "lam=1,eta=1", "--n", str(n)]
        code, out, _ = run([command] + family + ["--q-mode", "family-default",
                                                 "--output", "json"])
        assert code == 0
        row = json.loads(out)["rows"][0]
        code, out, _ = run(["zeros"] + family + ["--output", "json"])
        assert code == 0
        theta = [z["theta"] for z in json.loads(out)["rows"]]
        assert row["theta1"] <= min(theta) and max(theta) <= row["theta2"]

    @pytest.mark.parametrize("command", ["bounds", "support-arc"])
    @pytest.mark.parametrize("n", [500, 1000])
    def test_ismail_li_scaling_at_large_degree(self, command, n):
        code, _, err = run([command, "--family", "lambda-eta", "--params",
                            "lam=0,eta=1", "--n", str(n), "--q-mode", "ismail-li"])
        assert code == 0, err

    @pytest.mark.parametrize("command", ["bounds", "support-arc"])
    @pytest.mark.parametrize("mode", ["ismail-li", "family-default"])
    @pytest.mark.parametrize("n", [1210, 1500, 3000])
    def test_dominant_scaling_where_the_walk_failed(self, command, mode, n):
        # the rounded extremal constant is no chain sequence here, so a walk
        # of d/q rejected these scalings; the comparison test accepts them
        code, out, err = run([command, "--family", "lambda-eta", "--params",
                              "lam=1,eta=1", "--n", str(n), "--q-mode", mode])
        assert code == 0, err
        assert out.splitlines()[1].startswith(f"{n},")

    def test_roundtrip_with_mass_rounded_to_zero(self, tmp_path):
        gen = np.random.default_rng(1001)
        mod = 0.9 * np.sqrt(gen.uniform(0.0, 1.0, 643))
        values = mod * np.exp(1j * gen.uniform(0.0, 2 * math.pi, 643))
        src = tmp_path / "alpha.json"
        src.write_text(json.dumps({"alpha": [[v.real, v.imag] for v in values]}))
        code, _, err = run(["transform", "--input", str(src), "--n", "643",
                            "--roundtrip"])
        assert code == 0, err
        assert err.endswith("at t=0.0\n")
        assert float(err.split("residual")[1].split()[0]) < 1e-13

    def test_one_coefficient_roundtrip(self):
        code, out, err = run(["transform", "--family", "geronimus",
                              "--params", "alpha_re=0.3", "--n", "1", "--roundtrip"])
        assert code == 0, err
        assert len(out.splitlines()) == 2
        assert float(err.split("residual")[1].split()[0]) < 1e-15

    @pytest.mark.parametrize("t, code", [("0.3", 0), ("0", 2)])
    def test_one_coefficient_reverse(self, tmp_path, t, code):
        src = tmp_path / "cd.json"
        src.write_text(json.dumps({"cd": {"c": [0.3], "d": []}}))
        got, out, err = run(["transform", "--input", str(src), "--reverse", "--t", t])
        assert got == code
        if code:
            assert "member terminates" in err
        else:
            assert len(out.splitlines()) == 2


def _plant_guard(values, k, guard, theta2, half):
    """Set ``values[k]`` so that the gap walk's guard fires at index k: a
    coefficient within rounding of the unit circle (``"circle"``, exit 2) or
    one putting c_{k+1} on the probe's cotangent direction (exit 3)."""
    inline = pp.VerblunskySeq.from_values(values[:k])
    tau = pp.rotated_cd(inline, theta2, k).tau[k]
    if guard == "circle":  # |1 - tau_k alpha_k| < 1e-15
        values[k] = (1.0 - 2.0 ** -51) * np.conj(tau)
    else:  # tau_k alpha_k = (1 - i cot(half)) / 2, so c_{k+1} = cot(half)
        values[k] = 0.5 * (1.0 - 1j * math.cos(half) / math.sin(half)) / tau


class TestGap:
    def test_geronimus_trace_bytes(self):
        # the rotated Geronimus ratios sit on a fixed point from about n = 90,
        # where the walk fills each chunk instead of stepping through it
        code, out, _ = run(["gap", "--family", "geronimus", "--params", "alpha_re=-0.5",
                            "--theta1", "5.3", "--theta2", "7.2", "--n", "200000",
                            "--trace"])
        assert code == 0
        assert hashlib.sha1(out.encode()).hexdigest() == \
            "9a1ceefe74b19c2f67eae8111607b60b71c11d0c"

    def test_verified(self):
        code, out, err = run(["gap", "--family", "geronimus",
                              "--params", "alpha_re=-0.5",
                              "--theta1", f"{5 * math.pi / 3 + 0.01}",
                              "--theta2", f"{2 * math.pi + math.pi / 3 - 0.01}",
                              "--n", "2000"])
        assert code == 0
        assert "verified to N=2000" in err
        rec = dict(zip(*[line.split(",") for line in out.splitlines()[:2]]))
        assert rec["verdict"] == "verified"
        assert rec["violated_at"] == ""

    def test_violated_with_trace(self):
        code, out, err = run(["gap", "--family", "geronimus",
                              "--params", "alpha_re=-0.5",
                              "--theta1", f"{5 * math.pi / 3 + 0.01}",
                              "--theta2", f"{2 * math.pi + math.pi / 3 + 0.2}",
                              "--n", "500", "--trace"])
        assert code == 0
        assert "violated at n=" in err
        lines = out.splitlines()
        assert lines[0] == "n,m"
        last_m = float(lines[-1].split(",")[1])
        assert not 0.0 < last_m < 1.0

    def test_lebesgue_violated(self, tmp_path):
        src = tmp_path / "alpha.json"
        src.write_text(json.dumps({"alpha": [[0.0, 0.0]] * 200}))
        code, _, err = run(["gap", "--input", str(src), "--theta1", "1.0",
                            "--theta2", "1.8", "--n", "150"])
        assert code == 0
        assert "violated" in err

    def test_missing_angles(self):
        code, _, err = run(["gap", "--family", "geronimus",
                            "--params", "alpha_re=-0.5", "--n", "10"])
        assert code == 2

    def test_inline_cd_is_no_source(self, tmp_path):
        # an inline cd carries no rotation, so the message asks for alpha
        src = tmp_path / "cd.json"
        src.write_text(json.dumps({"cd": {"c": [0.0] * 4, "d": [0.2] * 3}}))
        code, out, err = run(["gap", "--input", str(src), "--theta1", "5.3",
                              "--theta2", "7.2", "--n", "3"])
        assert (code, out) == (2, "")
        assert err.startswith("error: gap needs Verblunsky coefficients") and \
            "an inline cd carries no rotation" in err

    @pytest.mark.parametrize("guard, code", [("circle", 2), ("cotangent", 3)])
    @pytest.mark.parametrize("kick, at", [(5, 300), (300, 5)])
    def test_guard_fires_only_before_the_violation(self, tmp_path, guard, code, kick,
                                                   at):
        # On the Geronimus alpha = -0.5 gap arc the ratios leave (0, 1) at
        # m_kick once alpha_kick = 0.9.  At alpha_at sits a coefficient within
        # rounding of the unit circle (exit 2), or one that puts c_{at+1} on
        # the probe's cotangent direction (exit 3).  Terms are computed in
        # blocks (c_1..c_64, c_65..c_192, c_193..c_448, ..), and no block past
        # the violation's is computed, so only a guard before it fires.
        theta1, theta2, n = 2 * math.pi - 0.9, 2 * math.pi + 0.9, 1000
        half = 0.5 * (2 * math.pi - (theta2 - theta1))
        values = pp.VerblunskySeq.geronimus(-0.5, n + 1).prefix(n + 1).copy()
        for k in sorted((kick, at)):
            if k == kick:
                values[k] = 0.9
            else:
                _plant_guard(values, k, guard, theta2, half)
        src = tmp_path / "alpha.json"
        src.write_text(json.dumps({"alpha": [[v.real, v.imag] for v in values]}))
        got, out, err = run(["gap", "--input", str(src), "--theta1", repr(theta1),
                             "--theta2", repr(theta2), "--n", str(n)])
        if kick < at:
            assert (got, out.splitlines()[1]) == (0, f"violated,{n},{kick},True")
        else:
            assert (got, out) == (code, "")
            name = f"alpha_{at} " if guard == "circle" else f"c_{at + 1};"
            assert name in err

    def test_first_faulty_block_decides_the_exit_code(self, tmp_path):
        # No ratio leaves (0, 1) before a probe on the cotangent direction of
        # c_6 (block 1) stops the walk, so the coefficient within rounding of
        # the unit circle at alpha_300 (block 3) is never computed: exit 3,
        # where computing the whole rotated cd first would exit 2.
        theta1, theta2, n = 2 * math.pi - 0.9, 2 * math.pi + 0.9, 1000
        half = 0.5 * (2 * math.pi - (theta2 - theta1))
        values = pp.VerblunskySeq.geronimus(-0.5, n + 1).prefix(n + 1).copy()
        _plant_guard(values, 5, "cotangent", theta2, half)
        _plant_guard(values, 300, "circle", theta2, half)
        src = tmp_path / "alpha.json"
        src.write_text(json.dumps({"alpha": [[v.real, v.imag] for v in values]}))
        got, out, err = run(["gap", "--input", str(src), "--theta1", repr(theta1),
                             "--theta2", repr(theta2), "--n", str(n)])
        assert (got, out) == (3, "")
        assert "c_6;" in err and "alpha_300" not in err


class TestTransform:
    def test_forward_zero_coefficients(self, tmp_path):
        src = tmp_path / "alpha.json"
        src.write_text(json.dumps({"alpha": [[0.0, 0.0]] * 5}))
        code, out, _ = run(["transform", "--input", str(src), "--n", "5"])
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 6
        for line in lines[1:5]:
            cols = line.split(",")
            assert float(cols[1]) == 0.0
            assert float(cols[3]) == 0.25
        assert lines[5].split(",")[3] == ""  # no d beyond the last index

    def test_alternating_c_pattern(self):
        code, out, _ = run(["transform", "--family", "alternating",
                            "--params", "b1=0.6,b2=0.6,c=0.5", "--n", "4"])
        assert code == 0
        cvals = [float(line.split(",")[1]) for line in out.splitlines()[1:]]
        assert cvals == pytest.approx([-0.5, 0.5, -0.5, 0.5], rel=1e-12)

    def test_roundtrip_residual(self):
        code, _, err = run(["transform", "--family", "geronimus",
                            "--params", "alpha_re=0.3,alpha_im=0.4",
                            "--n", "30", "--roundtrip"])
        assert code == 0
        residual = float(err.split("residual")[1].split()[0])
        assert residual < 1e-9

    def test_roundtrip_prints_plain_mass(self):
        code, _, err = run(["transform", "--family", "geronimus",
                            "--params", "alpha_re=0.3,alpha_im=0.4",
                            "--n", "30", "--roundtrip"])
        assert code == 0
        assert "np.float64" not in err
        assert 0.0 <= float(err.split("at t=")[1]) < 1.0

    def test_inline_cd_prefix_rows(self, tmp_path):
        # --n k prints the first k rows of the whole-cd table, byte for byte
        src = tmp_path / "cd.json"
        src.write_text(json.dumps({"cd": {"c": [0.1, -0.2, 0.3, 0.0, 0.5, -0.6],
                                          "d": [0.2, 0.15, 0.24, 0.1, 0.2]}}))
        code, whole, _ = run(["transform", "--input", str(src), "--n", "6"])
        assert code == 0
        for k in range(1, 7):
            code, out, err = run(["transform", "--input", str(src), "--n", str(k)])
            assert code == 0
            assert out.splitlines() == whole.splitlines()[:k + 1]
            assert err == f"transform: {k} coefficient rows\n"
        code, out, err = run(["transform", "--input", str(src), "--n", "7"])
        assert code == 2
        assert out == "" and "6 coefficients, 7 requested" in err

    def test_reverse_from_cd(self, tmp_path):
        src = tmp_path / "cd.json"
        src.write_text(json.dumps({"cd": {"c": [0.0] * 6, "d": [0.25] * 5}}))
        code, out, _ = run(["transform", "--input", str(src), "--reverse",
                            "--t", "0.3"])
        assert code == 0
        rows = out.splitlines()[1:]
        assert len(rows) == 6
        for row in rows:
            re, im = float(row.split(",")[1]), float(row.split(",")[2])
            assert abs(complex(re, im)) < 1.0

    def test_reverse_terminating_member_explained(self, tmp_path):
        # t = 0 on a plain finite truncation ends on the closed boundary
        src = tmp_path / "cd.json"
        src.write_text(json.dumps({"cd": {"c": [0.0] * 6, "d": [0.25] * 5}}))
        code, _, err = run(["transform", "--input", str(src), "--reverse",
                            "--t", "0.0"])
        assert code == 2
        assert "terminates" in err

    def test_reverse_needs_t(self, tmp_path):
        # no t is right for every cd: t = 0 terminates on every finite one
        src = tmp_path / "cd.json"
        src.write_text(json.dumps({"cd": {"c": [0.0] * 3, "d": [0.25] * 2}}))
        assert run(["transform", "--input", str(src), "--reverse"]) == (
            2, "", "error: --reverse needs --t, the mass at z = 1, in (0, 1)\n")

    @pytest.mark.parametrize("flags, message", [
        (["--family", "geronimus", "--params", "alpha_re=0.3", "--t", "0.3"],
         "--t needs --reverse"),
        (["--input", "{cd}", "--reverse", "--t", "0.3", "--roundtrip"],
         "give --roundtrip or --reverse, not both"),
        (["--input", "{cd}", "--reverse", "--t", "0.3", "--n", "2"],
         "give --n or --reverse, not both"),
    ])
    def test_flag_mix_exits_2(self, tmp_path, flags, message):
        # each flag would be dropped: --reverse prints every row of the cd
        src = tmp_path / "cd.json"
        src.write_text(json.dumps({"cd": {"c": [0.0] * 3, "d": [0.25] * 2}}))
        argv = ["transform"] + [f.format(cd=src) for f in flags]
        assert run(argv) == (2, "", f"error: {message}\n")

    def test_reverse_rejects_bad_chain(self, tmp_path):
        src = tmp_path / "cd.json"
        # constant 0.4 exceeds the three-term extremal constant
        src.write_text(json.dumps({"cd": {"c": [0.0] * 4, "d": [0.4, 0.4, 0.4]}}))
        code, _, err = run(["transform", "--input", str(src), "--reverse"])
        assert code == 2
        assert "chain sequence" in err


class TestScalingThreshold:
    def test_finite(self, tmp_path):
        src = tmp_path / "cd.json"
        src.write_text(json.dumps({"cd": {"c": [0.0] * 10, "d": [0.25] * 9}}))
        code, out, _ = run(["scaling-threshold", "--input", str(src), "--n", "10"])
        assert code == 0
        thr = float(out.splitlines()[1].split(",")[1])
        assert thr == pytest.approx(math.cos(math.pi / 11) ** 2, abs=1e-9)

    def test_infinite_constant(self):
        code, out, _ = run(["scaling-threshold", "--infinite",
                            "--d-const", "0.1875", "--tol", "1e-5"])
        assert code == 0
        thr = float(out.splitlines()[1].split(",")[1])
        assert thr == pytest.approx(0.75, abs=0.01)

    def test_infinite_not_chain_sequence(self):
        # 0.3 > 1/4: the bracket [0, 1] used to saturate and exit 0
        code, _, err = run(["scaling-threshold", "--infinite",
                            "--d-const", "0.3", "--tol", "1e-6"])
        assert code == 2
        assert "chain sequence" in err

    def test_infinite_nonconvergence_exit_code(self):
        # the limit is known in closed form, so the default --tol is met
        code, out, _ = run(["scaling-threshold", "--infinite",
                            "--d-const", "0.25", "--tol", "1e-12"])
        assert code == 0
        assert out.splitlines()[1] == "infinite,1.0"

    def test_infinite_large_lambda(self):
        # no ultraspherical term is computed, so no lam overflows it
        code, out, err = run(["scaling-threshold", "--family", "lambda-eta",
                              "--params", "lam=1e200,eta=1", "--infinite"])
        assert code == 0, err
        assert out.splitlines()[1] == "infinite,1.0"

    @pytest.mark.parametrize("argv, flags", [
        (["--family", "lambda-eta", "--params", "lam=1,eta=1", "--n", "10",
          "--d-const", "0.2"], ("--d-const", "--infinite")),
        (["--d-const", "0.2", "--infinite", "--n", "10"], ("--n", "--infinite")),
        (["--family", "lambda-eta", "--params", "lam=1,eta=1", "--infinite", "--n", "10"],
         ("--n", "--infinite")),
        (["--family", "lambda-eta", "--params", "lam=1,eta=1", "--d-const", "0.2",
          "--infinite"], ("--d-const", "--family")),
        (["--input", "{src}", "--d-const", "0.2", "--infinite"], ("--d-const", "--input")),
    ])
    def test_unread_flag_combination(self, tmp_path, argv, flags):
        # each used to exit 0 with one of the flags ignored
        src = tmp_path / "cd.json"
        src.write_text(json.dumps({"cd": {"c": [0.0] * 10, "d": [0.2] * 9}}))
        code, out, err = run(["scaling-threshold", *(a.format(src=src) for a in argv)])
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and all(flag in err for flag in flags)

    @settings(max_examples=300, deadline=None)
    @given(value=st.one_of(st.floats(), st.sampled_from(
               [0.25, math.nextafter(0.25, 1.0), -0.5, math.nextafter(-0.5, 0.0),
                1e150, 1e200, 5e-324])),
           tol=st.one_of(st.floats(), st.just(1e-12)), family=st.booleans())
    def test_infinite_fuzzed_inputs(self, value, tol, family):
        # value is --d-const, or lam of a lambda-eta source
        if family:
            source = ["--family", "lambda-eta", "--params", f"lam={value!r},eta=1"]
            valid, expect = -0.5 < value < math.inf, "1.0"
        else:
            source = [f"--d-const={value!r}"]  # "=" keeps -1e+16 a value
            valid, expect = 0.0 < value <= 0.25, repr(4.0 * value)
        code, out, err = run(["scaling-threshold", *source, "--infinite",
                              f"--tol={tol!r}"])
        if valid and 0.0 < tol < math.inf:
            assert code == 0, err
            assert out.splitlines()[1] == f"infinite,{expect}"
        else:
            assert code == 2, err
            assert out == "" and err.startswith("error: ")


class TestErrorPaths:
    """Input errors that no other test pins."""

    @pytest.mark.parametrize("argv, message", [
        (["zeros", "--n", "3", "--family", "geronimus", "--params", "alpha_re"],
         "malformed --params entry 'alpha_re'; expected k=v"),
        (["zeros", "--n", "3", "--family", "alternating", "--params", "b2=0.5"],
         "alternating family needs parameter 'b1'"),
        (["bounds", "--n", "3"], "no coefficient source; use --input or --family"),
        (["bounds", "--n", "3", "--input", "{alpha}", "--q-mode", "family-default"],
         "family-default scaling needs a named family source"),
        (["bounds", "--n", "3", "--family", "geronimus", "--params", "alpha_re=0.3",
          "--q-mode", "constant"], "--q-mode constant needs --q-const"),
        (["bounds", "--n", "3", "--family", "geronimus", "--params", "alpha_re=0.3",
          "--q-mode", "custom"], "--q-mode custom needs --q-file"),
        (["scaling-threshold", "--infinite", "--family", "geronimus", "--params",
          "alpha_re=0.3"], "--infinite needs --d-const or a lambda-eta family"),
        (["scaling-threshold", "--family", "geronimus", "--params", "alpha_re=0.3"],
         "finite threshold needs --n"),
    ])
    def test_exits_2(self, tmp_path, argv, message):
        src = tmp_path / "alpha.json"
        src.write_text(json.dumps({"alpha": [[0.1, 0.2], [0.3, 0.0], [0.0, 0.1]]}))
        assert run([a.format(alpha=src) for a in argv]) == (2, "", f"error: {message}\n")

    def test_chain_parameter_one_is_rejected(self, tmp_path):
        # g_2 = d_2 / (1 - g_1) = 1 leaves (0, 1); walking on would divide by 0
        src = tmp_path / "cd.json"
        src.write_text(json.dumps({"cd": {"c": [0.1, 0.2, 0.3], "d": [1.0, 0.1]}}))
        assert run(["zeros", "--n", "3", "--input", str(src)]) == (
            2, "", "error: d is not a positive chain sequence at n=1\n")

    @pytest.mark.parametrize("argv", [
        ["transform", "--n", "3"],
        ["gap", "--theta1", "5.3", "--theta2", "7.2", "--n", "10"],
    ])
    @pytest.mark.parametrize("params, margin", [("lam=8e307,eta=8e307", "1.25e-308"),
                                                ("lam=1e20,eta=1", "2e-20")])
    def test_lambda_eta_within_rounding_of_the_circle(self, argv, params, margin):
        # 1 - |alpha_0|^2 = (2 lam + 1) / |lam + 1 + i eta|^2 below 2**-52
        code, out, err = run(argv + ["--family", "lambda-eta", "--params", params])
        assert (code, out) == (2, "")
        assert err.startswith("error: lambda-eta lam=") and err.endswith(
            f"1 - |alpha_0|^2 = {margin} < 2**-52\n")

    def test_lambda_eta_near_the_circle_accepted(self):
        # 1 - |alpha_0|^2 = 9.999999999999995e-16 lies above 2**-52
        code, out, _ = run(["transform", "--n", "3", "--family", "lambda-eta",
                            "--params", "lam=1e15,eta=1e15"])
        assert code == 0 and len(out.splitlines()) == 4


class TestExitCodeContract:
    def test_internal_invariant_maps_to_4(self, monkeypatch):
        def boom(args):
            raise pp.InvariantError("synthetic breach")

        monkeypatch.setitem(cli._HANDLERS, "tables", boom)
        code, _, err = run(["tables", "1"])
        assert code == 4
        assert "internal error" in err

    def test_boundary_case_maps_to_3(self, monkeypatch):
        def edge(args):
            raise pp.BoundaryCaseError(3)

        monkeypatch.setitem(cli._HANDLERS, "tables", edge)
        assert run(["tables", "1"])[0] == 3

    @pytest.mark.parametrize("kernel, argv", [
        ("gap_certificate", ["gap", "--family", "geronimus", "--params", "alpha_re=-0.5",
                             "--theta1", "4.5", "--theta2", "7.3216",
                             "--n", "100000000000"]),
        ("zeros_R", ["zeros", "--family", "geronimus", "--params", "alpha_re=0.3",
                     "--n", "4"]),
    ])
    @pytest.mark.parametrize("message", ["Unable to allocate 745. GiB", ""])
    def test_memory_error_maps_to_2(self, monkeypatch, kernel, argv, message):
        # a stand-in for the allocation of a huge --n, which is not made
        def alloc(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr(cli, kernel, alloc)
        assert run(argv) == (2, "", f"error: {message or 'out of memory'}\n")

    @pytest.mark.parametrize("n", ["9007199254740993", "4611686018427387904",
                                   "9223372036854775807", "1" + "0" * 30])
    @pytest.mark.parametrize("argv, flag", [
        (["zeros"], "--n"), (["zeros"], "--n-list"), (["bounds"], "--n"),
        (["support-arc"], "--n-list"), (["transform"], "--n"),
        (["scaling-threshold"], "--n"),
        (["gap", "--theta1", "5.3", "--theta2", "7.2"], "--n"),
    ])
    def test_huge_degree_maps_to_2(self, argv, flag, n):
        # numpy used to raise ValueError ("array is too big") past about 2**59
        value = f"3,{n}" if flag == "--n-list" else n
        code, out, err = run(argv + [flag, value, "--family", "lambda-eta",
                                     "--params", "lam=1,eta=1"])
        assert (code, out) == (2, "")
        assert err == f"error: {flag} {n} exceeds the largest degree, 2**53\n"

    def test_unknown_family(self):
        code, _, err = run(["bounds", "--family", "nope", "--n", "4"])
        assert code == 2

    def test_family_name_not_a_string(self, tmp_path):
        # a list cannot be looked up among the family names
        src = tmp_path / "family.json"
        src.write_text(json.dumps({"family": ["geronimus"], "params": {}}))
        code, out, err = run(["zeros", "--input", str(src), "--n", "4"])
        assert (code, out) == (2, "")
        assert err.startswith("error: unknown family ['geronimus']")

    @pytest.mark.parametrize("family, params, bad", [
        ("geronimus", {"alpha_re": "x"}, "alpha_re"),
        ("alternating", {"b1": 0.5, "b2": [0.5]}, "b2"),
        ("lambda-eta", {"lam": 1.0, "eta": None}, "eta"),
        ("lambda-eta", {"lam": 10 ** 400, "eta": 1.0}, "lam"),
    ])
    def test_non_numeric_json_family_parameter(self, tmp_path, family, params, bad):
        src = tmp_path / "family.json"
        src.write_text(json.dumps({"family": family, "params": params}))
        code, _, err = run(["zeros", "--input", str(src), "--n", "4"])
        assert code == 2
        assert err.startswith("error: ") and repr(bad) in err


SPECIAL = st.sampled_from([0.0, -0.0, 1.0, -1.0, math.nextafter(1.0, 0.0),
                           -math.nextafter(1.0, 0.0), 0.25, 5e-324, 1e-300, 1e300,
                           math.nan, math.inf, -math.inf])


@st.composite
def inline_jobs(draw):
    """(JSON source, argv without --input): an inline alpha or cd source of
    1-12 coefficients and one command over it.  Half the jobs keep to
    ranges where most inputs are valid; the other half widen them and mix in
    extreme values, mismatched lengths and degrees 0 and n + 1."""
    extreme = draw(st.booleans())

    def number(lo, hi, wide_lo, wide_hi):
        if extreme:
            return st.one_of(st.floats(wide_lo, wide_hi), SPECIAL)
        return st.floats(lo, hi)

    n = draw(st.integers(1, 12))
    if draw(st.booleans()):
        part = number(-0.7, 0.7, -1.0, 1.0)
        blob = {"alpha": draw(st.lists(st.tuples(part, part), min_size=n, max_size=n))}
    else:
        n_d = draw(st.sampled_from([n - 1, n, max(n - 2, 0)])) if extreme else n - 1
        blob = {"cd": {"c": draw(st.lists(number(-3.0, 3.0, -1e3, 1e3), min_size=n,
                                          max_size=n)),
                       "d": draw(st.lists(number(0.01, 0.3, 0.0, 1.0), min_size=n_d,
                                          max_size=n_d))}}
    N = str(draw(st.integers(0, n + 1) if extreme else st.integers(1, n)))
    command = draw(st.sampled_from(["transform", "reverse", "roundtrip", "bounds",
                                    "support-arc", "zeros", "scaling-threshold",
                                    "gap"]))
    if command in ("bounds", "support-arc"):
        q_mode = draw(st.sampled_from(["trivial", "constant"]))
        argv = [command, "--n", N, "--method", draw(st.sampled_from(list(cli._METHODS))),
                "--q-mode", q_mode]
        if q_mode == "constant":
            argv.append(f"--q-const={draw(number(0.3, 1.0, -1.0, 2.0))!r}")
    elif command == "reverse":
        argv = ["transform", "--reverse", f"--t={draw(number(0.0, 0.99, -1.0, 2.0))!r}"]
    elif command == "roundtrip":
        argv = ["transform", "--roundtrip", "--n", N]
    elif command == "gap":
        argv = ["gap", f"--theta1={draw(number(0.0, 7.0, -7.0, 14.0))!r}",
                f"--theta2={draw(number(0.0, 7.0, -7.0, 14.0))!r}", "--n", N]
    else:
        argv = [command, "--n", N]
    return blob, argv + ["--output", draw(st.sampled_from(["csv", "json"]))]


class TestExitCodeFuzz:
    @settings(max_examples=400, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(job=inline_jobs())
    def test_inline_sources_exit_by_contract(self, tmp_path, job):
        # every input ends in 0, 2 or 3; a failure prints nothing on stdout
        # and one "error: " message on stderr
        blob, argv = job
        src = tmp_path / "src.json"
        src.write_text(json.dumps(blob))
        code, out, err = run(argv + ["--input", str(src)])
        assert code in (0, 2, 3), (argv, blob, err)
        assert "Traceback" not in err
        if code:
            assert out == "" and err.startswith("error: "), (argv, blob, err)

    # inputs the fuzz found; pytest turns a leaked RuntimeWarning into an error
    def test_roundtrip_on_cd_prints_no_rows(self, tmp_path):
        src = tmp_path / "cd.json"
        src.write_text(json.dumps({"cd": {"c": [0.0], "d": []}}))
        code, out, err = run(["transform", "--roundtrip", "--n", "1", "--input", str(src)])
        assert (code, out) == (2, "")
        assert err == "error: --roundtrip needs an alpha source\n"

    def test_overflowing_scaled_chain(self, tmp_path):
        # d / q = 0.25 / 5e-324 overflows to inf, which fails the walk at n = 1
        src = tmp_path / "alpha.json"
        src.write_text(json.dumps({"alpha": [[0.0, 0.0], [0.0, 0.0]]}))
        code, out, err = run(["bounds", "--n", "2", "--q-mode", "constant",
                              "--q-const=5e-324", "--input", str(src)])
        assert (code, out) == (2, "")
        assert err.startswith("error: scaling invalid at n=1")

    @pytest.mark.parametrize("argv", [["bounds", "--method", m] for m in cli._METHODS]
                             + [["support-arc"]])
    def test_coefficient_outside_enclosure_domain(self, tmp_path, argv):
        # c_2^2 = 1e310 overflows; thm44 used to fail on NaN roots and thm46 to
        # miss two zeros of W_5 above its B
        src = tmp_path / "cd.json"
        src.write_text(json.dumps({"cd": {"c": [0.3, 1e155, 1e155, 0.1, 0.4],
                                          "d": [0.2, 0.2, 0.2, 0.2]}}))
        code, out, err = run(argv + ["--n", "5", "--q-mode", "constant",
                                     "--q-const", "0.9", "--input", str(src)])
        assert (code, out) == (2, "")
        assert err == ("error: c_2 = 1e+155 lies outside the enclosures' domain "
                       "|c_n| <= 1e150\n")

    def test_overflowing_zero_count_ratio(self, tmp_path):
        # a subnormal alpha_0 makes a Sturm ratio so small that the next one
        # overflows; the zeros are still +-1/2
        src = tmp_path / "alpha.json"
        src.write_text(json.dumps({"alpha": [[0.0, 5e-324], [0.0, 0.0]]}))
        code, out, _ = run(["zeros", "--n", "2", "--input", str(src)])
        assert code == 0
        x = [float(row.split(",")[3]) for row in out.splitlines()[1:]]
        assert x == pytest.approx([0.5, -0.5], abs=1e-15)


def _near(edge: float, sign: int):
    """Points approaching ``edge`` from the side ``sign`` points to, down to
    1e-16 away, and the edge itself."""
    return st.one_of(st.integers(1, 16).map(lambda k: edge + sign * 10.0 ** -k),
                     st.just(edge))


@st.composite
def family_sources(draw):
    """(family, --params text): a named family whose parameters are drawn
    over their whole range and near its edges: |alpha| -> 1, b -> +-1,
    lam -> -1/2, and |eta| up to 20."""
    family = draw(st.sampled_from(["geronimus", "alternating", "lambda-eta"]))
    if family == "geronimus":
        r = draw(st.one_of(st.floats(0.0, 1.0), _near(1.0, -1)))
        phi = draw(st.one_of(st.floats(0.0, 2.0 * math.pi),
                             st.sampled_from([0.0, math.pi])))
        params = {"alpha_re": r * math.cos(phi), "alpha_im": r * math.sin(phi)}
    elif family == "alternating":
        b1, b2 = (draw(st.one_of(st.floats(-1.0, 1.0), _near(1.0, -1), _near(-1.0, 1)))
                  for _ in range(2))
        if draw(st.booleans()):  # b1 = b2, where the family default applies
            b2 = b1
        params = {"b1": b1, "b2": b2, "c": draw(st.floats(-5.0, 5.0))}
    else:
        params = {"lam": draw(st.one_of(st.floats(-0.5, 20.0), _near(-0.5, 1))),
                  "eta": draw(st.floats(-20.0, 20.0))}
    return family, ",".join(f"{k}={v!r}" for k, v in params.items())


@st.composite
def family_jobs(draw):
    """argv of one command over a family source, with the commands of
    ``inline_jobs`` and the family-default and dominant scalings."""
    family, params = draw(family_sources())
    N = str(draw(st.integers(1, 30)))
    command = draw(st.sampled_from(["transform", "reverse", "roundtrip", "bounds",
                                    "support-arc", "zeros", "scaling-threshold",
                                    "gap"]))
    if command in ("bounds", "support-arc"):
        q_mode = draw(st.sampled_from(["trivial", "constant", "family-default",
                                       "ismail-li", "legendre"]))
        argv = [command, "--n", N, "--method", draw(st.sampled_from(list(cli._METHODS))),
                "--q-mode", q_mode]
        if q_mode == "constant":
            argv.append(f"--q-const={draw(st.floats(0.3, 1.0))!r}")
    elif command == "reverse":
        argv = ["transform", "--reverse", f"--t={draw(st.floats(0.0, 0.99))!r}"]
    elif command == "roundtrip":
        argv = ["transform", "--roundtrip", "--n", N]
    elif command == "gap":
        argv = ["gap", f"--theta1={draw(st.floats(0.0, 7.0))!r}",
                f"--theta2={draw(st.floats(0.0, 7.0))!r}", "--n", N]
    else:
        argv = [command, "--n", N]
    return argv + ["--family", family, "--params", params,
                   "--output", draw(st.sampled_from(["csv", "json"]))]


class TestFamilyFuzz:
    @settings(max_examples=300, deadline=None)
    @given(argv=family_jobs())
    def test_family_sources_exit_by_contract(self, argv):
        code, out, err = run(argv)
        assert code in (0, 2, 3), (argv, err)
        assert "Traceback" not in err
        if code:
            assert out == "" and err.startswith("error: "), (argv, err)

    @settings(max_examples=150, deadline=None)
    @given(source=family_sources(), N=st.integers(2, 40))
    def test_finite_threshold_on_every_source(self, source, N):
        family, params = source
        try:
            cli.cd_from_verblunsky(
                cli._family_from_params(family, cli._parse_params(params)), n_terms=N)
        except pp.PopucError:
            return  # the source does not construct
        code, _, err = run(["scaling-threshold", "--family", family, "--params", params,
                            "--n", str(N)])
        # never rejected; exit 3 where the top zero is within rounding of 1
        # (b1 = -b2 = 1 - 1e-15, c = 0 makes d alternate 1 and 2e-31)
        assert code == 0 or (code == 3 and "not resolvable" in err), (source, N, err)

    @pytest.mark.parametrize("argv", [
        # Re(tau alpha) rounds to 1: c and g divided by zero
        ["transform", "--n", "15", "--family", "geronimus", "--params",
         "alpha_re=0.9553364891256059,alpha_im=0.2955202066613395"],
        ["scaling-threshold", "--n", "2", "--family", "alternating", "--params",
         "b1=0.0,b2=0.999999999999999,c=4.0"],
    ])
    def test_alpha_within_rounding_of_the_circle(self, argv):
        code, out, err = run(argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: Verblunsky coefficient alpha_")

    @pytest.mark.parametrize("argv", [
        ["zeros", "--n", "3"],
        ["bounds", "--n", "3"],
        ["transform", "--reverse", "--t", "0.3"],
    ])
    def test_small_chain_term_on_inline_cd(self, tmp_path, argv):
        # the maximal g_1 is near 1, where 1 - g_1 is exact only to 2^-53
        src = tmp_path / "cd.json"
        src.write_text(json.dumps({"cd": {"c": [0.1, -0.2, 0.3], "d": [1e-6, 0.2]}}))
        code, out, err = run(argv + ["--input", str(src)])
        assert code == 0, err

    @pytest.mark.parametrize("argv", [["zeros"], ["bounds"], ["transform"]])
    def test_inline_alpha_within_rounding_of_the_circle(self, tmp_path, argv):
        # |1 - tau_0 alpha_0| = 2^-53: the tau recursion cannot divide by it
        src = tmp_path / "alpha.json"
        src.write_text(json.dumps({"alpha": [[math.nextafter(1.0, 0.0), 0.0],
                                             [0.1, 0.2]]}))
        code, out, err = run(argv + ["--n", "2", "--input", str(src)])
        assert (code, out) == (2, "")
        assert err.startswith("error: Verblunsky coefficient alpha_0 is within "
                              "rounding of the unit circle")

    @pytest.mark.parametrize("argv, want", [
        (["zeros", "--n", "3"], 0), (["bounds", "--n", "3"], 0),
        (["transform", "--n", "3"], 0), (["transform", "--reverse", "--t", "0.3"], 0),
        (["transform", "--reverse", "--t", "0"], 2)])
    def test_tiny_chain_term_on_inline_cd(self, tmp_path, argv, want):
        # M_1 = 1 - 1.25e-20 rounds to 1 and is clamped below it; at t = 0 the
        # member still terminates
        src = tmp_path / "cd.json"
        src.write_text(json.dumps({"cd": {"c": [0.1, -0.2, 0.3], "d": [1e-20, 0.2]}}))
        code, _, err = run(argv + ["--input", str(src)])
        assert code == want, err
        assert want == 0 or err.startswith("error: member terminates")

    @pytest.mark.parametrize("alpha_re", ["0.999", "0.9999"])
    def test_finite_threshold_near_the_disk_edge(self, alpha_re):
        code, _, err = run(["scaling-threshold", "--family", "geronimus",
                            "--params", f"alpha_re={alpha_re}", "--n", "10"])
        assert code == 0, err


# JSON values of every kind a row may carry
CELLS = (st.integers() | st.integers(2 ** 63, 2 ** 70) | st.floats()
         | st.sampled_from([-0.0, 5e-324, 1e16, 1e-7, math.nan, math.inf, -math.inf])
         | st.none() | st.booleans() | st.text(max_size=4))

# The doubles of a float64 column: signed zeros and non-finite values included
DOUBLES = st.floats() | st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf])


@st.composite
def tables(draw):
    """(header, columns): distinct column names, and 0, 1, 3, ``_CHUNK`` or
    ``_CHUNK + 1`` rows, or one more with one column a row short.  A column
    is a list of one kind of cell or of mixed cells, a ``range``, or a
    float64 array that mostly repeats or is mostly distinct."""
    name = st.text(max_size=4) | st.sampled_from(["%", "%s", "a%%b", '"', "\\"])
    header = draw(st.lists(name, min_size=1, max_size=4, unique=True))
    count = draw(st.sampled_from([0, 1, 3, cli._CHUNK, cli._CHUNK + 1]))
    short = draw(st.sampled_from([None, *range(len(header))]))
    columns = []
    for k in range(len(header)):
        size = count if k == short else count + (short is not None)
        kind = draw(st.sampled_from(["ints", "floats", "cells", "range", "array",
                                     "distinct array"]))
        if kind == "range":
            start = draw(st.integers(-5, 5))
            columns.append(range(start, start + size))
            continue
        if kind == "distinct array":
            values = np.random.default_rng(draw(st.integers(0, 99))).standard_normal(size)
            values[::997] = draw(DOUBLES)
            columns.append(values)
            continue
        cells = {"ints": st.integers(), "cells": CELLS, "array": DOUBLES,
                 "floats": st.floats(allow_nan=False, allow_infinity=False)}[kind]
        head = draw(st.lists(cells, min_size=min(size, 3), max_size=min(size, 3)))
        # long columns repeat a drawn prefix, with one drawn cell at the end
        tail = [draw(DOUBLES if kind == "array" else CELLS)] if size > 3 else []
        values = (head * size)[:size - len(tail)] + tail
        columns.append(np.array(values, dtype=np.float64) if kind == "array" else values)
    return header, columns


def _rows(columns) -> list:
    """The rows of ``columns`` as Python values, a short column's missing cell ``""``."""
    return list(itertools.zip_longest(
        *[c.tolist() if isinstance(c, np.ndarray) else list(c) for c in columns],
        fillvalue=""))


def _long_table(*columns) -> tuple:
    """(header, columns): ``_CHUNK`` rows, each column a float64 array of its
    cycle of values."""
    return ([f"c{k}" for k in range(len(columns))],
            [np.resize(np.array(c, dtype=np.float64), cli._CHUNK) for c in columns])


# Columns that mostly repeat, so that each distinct value is formatted once:
# 0.0 and -0.0 are one dict key but print differently, and a column with NaN
# or an infinity is not formatted that way
SIGNED_ZEROS = _long_table([0.0, -0.0, 0.5, 0.5], [-0.0, -0.0, 0.0, 3.0], [-0.0])
NON_FINITE = _long_table([0.25, 0.25, math.nan, 0.25], [math.inf, 1.5, 1.5, -math.inf],
                         [0.1, 0.1, 0.2, 0.2])


class TestJsonBytes:
    @settings(max_examples=150, deadline=None)
    @given(table=tables(), command=st.text(max_size=4))
    @example(table=SIGNED_ZEROS, command="transform")
    @example(table=NON_FINITE, command="transform")
    def test_rows_are_json_dumps(self, table, command):
        header, columns = table
        out = io.StringIO()
        cli._emit(header, columns, out, "json", command)
        want = json.dumps({"command": command,
                           "rows": [dict(zip(header, row)) for row in _rows(columns)]},
                          separators=(",", ":")) + "\n"
        # as lists, so that a failure on a long table reports the first
        # difference instead of diffing the whole text
        assert out.getvalue().split(",") == want.split(",")


class TestCsvBytes:
    @settings(max_examples=150, deadline=None)
    @given(table=tables())
    @example(table=SIGNED_ZEROS)
    @example(table=NON_FINITE)
    def test_rows_are_csv_writer(self, table):
        # the documented contract: two or more columns, and no field that
        # csv.writer would quote
        header, columns = table
        rows = _rows(columns)
        fields = header + ["" if v is None else str(v) for row in rows for v in row]
        assume(len(header) >= 2 and not any(set(f) & set(',"\r\n') for f in fields))
        out = io.StringIO()
        cli._emit(header, columns, out, "csv", "transform")
        want = io.StringIO()
        csv.writer(want, lineterminator="\n").writerows([header, *rows])
        assert out.getvalue().splitlines(True) == want.getvalue().splitlines(True)


class TestArgparseStreams:
    def test_usage_error_goes_to_given_stderr(self, capsys):
        code, out, err = run(["bounds", "--bogus"])
        assert code == 2
        assert out == ""
        assert err.startswith("usage: popuc") and "--bogus" in err
        assert capsys.readouterr() == ("", "")

    def test_help_goes_to_given_stdout(self, capsys):
        code, out, err = run(["--help"])
        assert code == 0
        assert out.startswith("usage: popuc") and "scaling-threshold" in out
        assert err == ""
        assert capsys.readouterr() == ("", "")


def parse_with_build_parser(argv):
    """(exit code or None, namespace or None, stdout, stderr) of
    ``build_parser().parse_args(argv)``."""
    out, err = io.StringIO(), io.StringIO()
    code, args = None, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            args = cli.build_parser().parse_args(argv)
        except SystemExit as exc:
            code = int(exc.code or 0)
    return code, args, out.getvalue(), err.getvalue()


# Valid argv for every command: every flag at least once, an abbreviated flag,
# --flag=value, negative values and a repeated flag, whose last value wins
ONE_PARSE_ARGV = [
    ["tables", "1", "--output", "csv"],
    ["tables", "3", "--out", "json"],
    ["bounds", "--family", "geronimus", "--params", "alpha_re=-0.5", "--n", "12",
     "--q-mode", "family-default", "--method", "cor45", "--degrees", "--output", "json"],
    ["bounds", "--input", "in.json", "--n-list", "5,40", "--q-mode=constant",
     "--q-const", "0.9", "--method=thm46"],
    ["bounds", "--input=in.json", "--n", "3", "--n", "5", "--q-mode", "custom",
     "--q-file", "q.json", "--q-c", "-0.5"],
    ["support-arc", "--family", "alternating", "--params", "b1=0.5,b2=0.5,c=0.2",
     "--n-list=5,10", "--q-mode", "ismail-li", "--method", "cor47", "--degrees"],
    ["support-arc", "--input", "in.json", "--n", "7", "--q-mode", "custom",
     "--q-file", "q.json", "--q-const", "0.5", "--output=json"],
    ["zeros", "--family", "lambda-eta", "--params", "lam=1,eta=1", "--n", "5"],
    ["zeros", "--input", "in.json", "--n-list", "3,4", "--out", "json"],
    ["zeros", "--n", "-3", "--n-list=2", "--output", "csv"],
    ["gap", "--family", "geronimus", "--params", "alpha_re=-0.5", "--theta1", "-0.5",
     "--theta2", "7.3216", "--n", "100", "--trace", "--output", "json"],
    ["gap", "--input", "in.json", "--theta1=5.2", "--theta2=-1e-3", "--theta1", "4.5"],
    ["transform", "--family", "geronimus", "--params", "alpha_re=0.3", "--n", "8",
     "--roundtrip", "--output", "csv"],
    ["transform", "--input", "in.json", "--reverse", "--t", "0.25", "--t=-0.5"],
    ["scaling-threshold", "--family", "lambda-eta", "--params", "lam=1,eta=1", "--n", "5",
     "--tol", "1e-9", "--output", "csv"],
    ["scaling-threshold", "--d-const", "0.2", "--infinite", "--tol=-1", "--out", "json"],
    ["scaling-threshold", "--input", "in.json", "--d-const=-0.2", "--n", "4", "--n", "6"],
]


class TestOneParse:
    """``main`` parses argv once, with the named command's parser, and gets
    what ``build_parser().parse_args`` gets."""

    @staticmethod
    def parsed(monkeypatch, argv):
        """The namespace ``main`` hands the handler of ``argv[0]``."""
        seen = []

        def handler(args):
            seen.append(args)
            return ["a"], [[1]], ""

        monkeypatch.setitem(cli._HANDLERS, argv[0], handler)
        assert run(argv)[0] == 0
        return seen[0]

    @pytest.mark.parametrize("argv", ONE_PARSE_ARGV, ids=" ".join)
    def test_same_namespace_as_build_parser(self, monkeypatch, argv):
        code, want, _, _ = parse_with_build_parser(argv)
        assert code is None
        assert self.parsed(monkeypatch, argv) == want

    def test_argv_cover_every_flag(self):
        _, commands = cli._parsers()
        assert set(commands) == set(cli._HANDLERS)
        for name, parser in commands.items():
            flags = set(re.findall(r"--[\w-]+", parser.format_usage())) - {"--help"}
            given = {arg.split("=")[0] for argv in ONE_PARSE_ARGV if argv[0] == name
                     for arg in argv if arg.startswith("--")}
            assert flags <= given, (name, flags - given)

    def test_default_argv_is_sys_argv(self, monkeypatch):
        monkeypatch.setattr("sys.argv", ["popuc", "zeros", "--n", "4"])
        seen = []
        monkeypatch.setitem(cli._HANDLERS, "zeros",
                            lambda args: seen.append(args) or (["a"], [[1]], ""))
        assert cli.main(stdout=io.StringIO(), stderr=io.StringIO()) == 0
        assert seen == [parse_with_build_parser(["zeros", "--n", "4"])[1]]

    def test_argv_any_iterable(self):
        # parse_args takes any iterable of words, and so does main
        assert run(iter(["tables", "1"])) == run(["tables", "1"])

    @pytest.mark.parametrize("argv", [
        [], ["--help"], ["-h", "zeros"], ["zeros", "--help"], ["tables", "-h"],
        ["nope", "--n", "3"], ["--n", "3"], ["zeros", "--n"], ["bounds", "--method", "thm99"],
        ["tables", "4"], ["zeros", "--n", "three"], ["gap", "--theta1", "x"],
        ["transform", "--output", "xml"],
    ], ids=" ".join)
    def test_usage_streams_as_build_parser(self, argv):
        # help, and every usage error but an unrecognized argument, prints
        # what the top-level parser prints
        code, _, want_out, want_err = parse_with_build_parser(argv)
        assert code in (0, 2)
        got = run(argv)
        assert got == (code, want_out, want_err)
        if code:
            assert got[1] == "" and got[2].startswith("usage: popuc")
        else:
            assert got[1].startswith("usage: popuc") and got[2] == ""

    @pytest.mark.parametrize("argv, bad", [
        (["zeros", "--n", "3", "--bogus"], "--bogus"),
        (["tables", "1", "2"], "2"),
        (["scaling-threshold", "--infinite", "--d-const", "0.2", "--degrees"], "--degrees"),
    ])
    def test_unrecognized_argument_prints_the_command_usage(self, argv, bad):
        # the one stream that differs: the command's usage, not popuc's
        code, _, _, top = parse_with_build_parser(argv)
        assert code == 2 and top.startswith("usage: popuc [-h]")
        parser = cli._parsers()[1][argv[0]]
        assert run(argv) == (2, "", parser.format_usage() + f"popuc {argv[0]}: error: "
                             f"unrecognized arguments: {bad}\n")
        assert top.endswith(f"popuc: error: unrecognized arguments: {bad}\n")


CD_LISTS = '"cd" must carry numeric lists "c" and "d"'

# Any JSON value, numbers out of float range included
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.just(10 ** 400)
    | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["0", "1", "c", "d", "alpha_re", "lam", "b1"]),
                      inner, max_size=3),
    max_leaves=10)


@st.composite
def shaped_inputs(draw):
    """(--input JSON, --q-file JSON or None): a source whose parts, or a
    custom scaling, have arbitrary JSON shapes."""
    value = draw(JSON_VALUES)
    kind = draw(st.sampled_from(["top", "alpha", "cd", "cd-parts", "family",
                                 "params", "q-file"]))
    family = {"family": "geronimus", "params": {"alpha_re": 0.3}}
    if kind == "top":
        return value, None
    if kind == "alpha":
        return {"alpha": value}, None
    if kind == "cd":
        return {"cd": value}, None
    if kind == "cd-parts":
        return {"cd": {"c": value, "d": draw(JSON_VALUES)}}, None
    if kind == "family":
        return {"family": value}, None
    if kind == "params":
        return {"family": draw(st.sampled_from(["geronimus", "alternating",
                                                "lambda-eta"])), "params": value}, None
    return family, value


class TestRejectedInput:
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(job=shaped_inputs(), argv=st.sampled_from([
        ["zeros", "--n", "3"], ["transform", "--n", "3"], ["transform", "--reverse"],
        ["gap", "--theta1", "5.3", "--theta2", "7.2", "--n", "3"],
        ["scaling-threshold", "--n", "3"]]))
    def test_json_shapes_exit_by_contract(self, tmp_path, job, argv):
        blob, q = job
        src = tmp_path / "src.json"
        src.write_text(json.dumps(blob))
        argv = argv + ["--input", str(src)]
        if q is not None:
            q_file = tmp_path / "q.json"
            q_file.write_text(json.dumps(q))
            argv = ["bounds", "--n", "4", "--q-mode", "custom", "--q-file",
                    str(q_file), "--input", str(src)]
        code, out, err = run(argv)
        assert code in (0, 2, 3), (argv, blob, q, err)
        if code:
            assert out == "" and err.startswith("error: "), (argv, blob, q, err)

    @pytest.mark.parametrize("blob", ['"cd"', "5"])
    def test_input_file_not_an_object(self, tmp_path, blob):
        src = tmp_path / "top.json"
        src.write_text(blob)
        code, _, err = run(["zeros", "--input", str(src), "--n", "4"])
        assert code == 2
        assert err.startswith("error: ") and str(src) in err

    @pytest.mark.parametrize("family, params, key", [
        ("geronimus", "alpha_re=0.3,alpha_img=0.4", "'alpha_img'"),
        ("geronimus", "b1=0.3", "'b1'"),
        ("alternating", "b1=0.5,b2=0.5,eta=1", "'eta'"),
        ("lambda-eta", "lam=1,eta=1,alpha_re=0.3", "'alpha_re'"),
        # lam and lambda name one parameter
        ("lambda-eta", "lam=1,eta=1,lambda=5", "lam (or lambda, not both)"),
    ])
    def test_unknown_family_parameter(self, tmp_path, family, params, key):
        # used to be dropped: alpha_img gave the zeros of the real alpha = 0.3
        code, out, err = run(["zeros", "--family", family, "--params", params,
                              "--n", "3"])
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and key in err
        src = tmp_path / "family.json"
        src.write_text(json.dumps({"family": family, "params": cli._parse_params(params)}))
        assert run(["zeros", "--input", str(src), "--n", "3"]) == (code, out, err)

    @pytest.mark.parametrize("params, key", [
        ("lam=1,lam=2,eta=1", "'lam'"), ("alpha_re=0.3, alpha_re=0.3", "'alpha_re'")])
    def test_repeated_family_parameter(self, params, key):
        # used to keep the last value without a word
        family = "lambda-eta" if "lam" in params else "geronimus"
        code, out, err = run(["zeros", "--family", family, "--params", params, "--n", "2"])
        assert (code, out) == (2, "")
        assert err == f"error: --params gives {key} twice\n"

    @pytest.mark.parametrize("blob, key", [
        ('{"family": "lambda-eta", "params": {"lam": 1, "lam": 2, "eta": 1}}', "'lam'"),
        ('{"family": "geronimus", "family": "alternating"}', "'family'"),
        ('{"cd": {"c": [0.1, 0.2], "d": [0.2], "c": [0.3, 0.4]}}', "'c'"),
    ])
    def test_repeated_input_file_key(self, tmp_path, blob, key):
        # used to keep the last value without a word, like a repeated --params key
        src = tmp_path / "repeat.json"
        src.write_text(blob)
        code, out, err = run(["zeros", "--input", str(src), "--n", "2"])
        assert (code, out) == (2, "")
        assert err == f"error: cannot parse {src}: repeated key {key}\n"

    @pytest.mark.parametrize("command", [["zeros", "--n", "3"], ["transform", "--n", "3"],
                                         ["bounds", "--n", "3"],
                                         ["scaling-threshold", "--n", "3"],
                                         ["gap", "--theta1", "5.3", "--theta2", "7.2"]])
    @pytest.mark.parametrize("source, message", [
        (["--input", "{src}", "--family", "geronimus"], "give --input or --family, not both"),
        (["--input", "{src}", "--family", "geronimus", "--params", "alpha_re=-0.5"],
         "give --input or --family, not both"),
        (["--params", "alpha_re=-0.5"], "--params needs --family"),
        (["--input", "{src}", "--params", "alpha_re=-0.5"], "--params needs --family"),
    ])
    def test_source_flags_exclude_each_other(self, tmp_path, command, source, message):
        # the file used to win, and --params without --family was dropped
        src = tmp_path / "alpha.json"
        src.write_text(json.dumps({"alpha": [[-0.5, 0.0]] * 4}))
        argv = command + [arg.format(src=src) for arg in source]
        assert run(argv) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("keys", [("alpha", "family"), ("alpha", "cd"),
                                      ("family", "cd"), ("alpha", "family", "cd")])
    def test_input_file_with_two_sources(self, tmp_path, keys):
        # "alpha" used to win without a word, then "family"
        blob = {"alpha": [[0.3, 0.0]] * 3, "family": "geronimus",
                "cd": {"c": [0.1] * 3, "d": [0.2] * 2}}
        src = tmp_path / "two.json"
        src.write_text(json.dumps({k: blob[k] for k in keys}))
        code, out, err = run(["zeros", "--input", str(src), "--n", "3"])
        assert (code, out) == (2, "")
        assert err == (f"error: {src} gives {' and '.join(map(repr, keys))}; "
                       "give one source\n")

    @pytest.mark.parametrize("command", ["zeros", "bounds", "support-arc"])
    def test_n_with_n_list(self, command):
        # --n used to be dropped: zeros printed the rows of --n-list 3 alone
        argv = [command, "--family", "lambda-eta", "--params", "lam=1,eta=1",
                "--n-list", "3"]
        assert run(argv)[0] == 0
        assert run(argv + ["--n", "4"]) == (2, "", "error: give --n or --n-list, "
                                                  "not both\n")

    @pytest.mark.parametrize("command", ["bounds", "support-arc"])
    @pytest.mark.parametrize("mode", ["trivial", "ismail-li", "family-default",
                                      "custom", "constant"])
    def test_q_flag_without_its_mode(self, tmp_path, command, mode):
        # --q-const was dropped, and --q-file read and checked, then dropped
        q_file = tmp_path / "q.json"
        q_file.write_text(json.dumps([0.9] * 4))
        argv = [command, "--family", "lambda-eta", "--params", "lam=1,eta=1",
                "--n", "5", "--q-mode", mode]
        for flag, value, needs in (("--q-const", "0.9", "constant"),
                                   ("--q-file", str(q_file), "custom")):
            want = (0, 2)[mode != needs]
            code, out, err = run(argv + [flag, value])
            assert code == want, err
            if want:
                assert (out, err) == ("", f"error: {flag} needs --q-mode {needs}\n")

    @pytest.mark.parametrize("command", [["transform", "--n", "3"], ["zeros", "--n", "3"],
                                         ["gap", "--theta1", "1", "--theta2", "2"]])
    @pytest.mark.parametrize("params", ["lam=1e308,eta=1e308", "lam=1e308,eta=-1e308",
                                        "lam=9e307,eta=9e307"])
    def test_lambda_eta_ratios_overflow(self, command, params):
        # the coefficient ratios overflowed with numpy warnings on stderr, which
        # escaped main under -W error::RuntimeWarning, before an error line
        code, out, err = run(command + ["--family", "lambda-eta", "--params", params])
        assert (code, out) == (2, "")
        assert err.startswith("error: lambda-eta needs |lam| + |eta| within the float "
                              "range") and err.count("\n") == 1

    def test_non_numeric_params_value(self):
        code, _, err = run(["bounds", "--family", "geronimus",
                            "--params", "alpha_re=x", "--n", "5"])
        assert code == 2
        assert err.startswith("error: ") and "'alpha_re'" in err

    @pytest.mark.parametrize("argv", [
        # --n 0 used to fall back to the default horizon
        ["gap", "--family", "geronimus", "--params", "alpha_re=-0.5",
         "--theta1", "5.3", "--theta2", "7.2", "--n", "0"],
        ["transform", "--family", "geronimus", "--params", "alpha_re=0.3", "--n", "0"],
        # non-finite family parameters, arc ends and constant scalings
        ["zeros", "--family", "geronimus", "--params", "alpha_re=nan", "--n", "5"],
        ["zeros", "--family", "alternating", "--params", "b1=nan,b2=0.5", "--n", "5"],
        ["gap", "--family", "geronimus", "--params", "alpha_re=-0.5",
         "--theta1", "5.3", "--theta2", "inf", "--n", "10"],
        ["bounds", "--family", "geronimus", "--params", "alpha_re=0.3", "--n", "5",
         "--q-mode", "constant", "--q-const", "nan"],
        # non-finite tolerances
        ["scaling-threshold", "--infinite", "--d-const", "0.2", "--tol", "nan"],
        ["scaling-threshold", "--infinite", "--d-const", "0.2", "--tol", "inf"],
        # NaN chain-sequence rules
        ["scaling-threshold", "--d-const", "nan", "--infinite"],
        ["scaling-threshold", "--family", "lambda-eta", "--params", "lam=nan,eta=1",
         "--infinite"],
        ["scaling-threshold", "--family", "lambda-eta", "--params", "lam=1,eta=nan",
         "--infinite"],
        ["scaling-threshold", "--family", "lambda-eta", "--params", "lam=1,eta=inf",
         "--infinite"],
        # used to leak numpy's invalid-value warning before exiting 2
        ["transform", "--family", "lambda-eta", "--params", "lam=nan,eta=1e300",
         "--n", "5"],
        # the finite threshold takes a fixed number of bisection steps and
        # only checks --tol, which must still be positive and finite
        ["scaling-threshold", "--family", "geronimus", "--params", "alpha_re=0.3",
         "--n", "5", "--tol", "nan"],
    ])
    def test_numeric_input_rejected(self, argv):
        code, out, err = run(argv)
        assert code == 2
        assert out == "" and err.startswith("error: ")

    @pytest.mark.parametrize("blob, message", [
        ({"alpha": [{"0": 1}]}, '"alpha" must be a list of [re, im] pairs'),
        ({"cd": {"c": [[0.1], [0.2]], "d": [0.1]}}, CD_LISTS),
        ({"cd": {"c": [0.1, 0.2], "d": [[0.1]]}}, CD_LISTS),
        ({"cd": {"c": 0.1, "d": []}}, CD_LISTS),
        ({"cd": {"c": [0.1, 0.2], "d": 0.1}}, CD_LISTS),
        ({"cd": {"c": [10 ** 400], "d": []}}, CD_LISTS),
        # strings, booleans and null are no numbers
        ({"cd": {"c": ["0.1", "0.2"], "d": ["0.2"]}}, CD_LISTS),
        ({"cd": {"c": [True, 0.2], "d": [0.2]}}, CD_LISTS),
        ({"cd": {"c": [0.1, 0.2], "d": [None]}}, CD_LISTS),
        ({"alpha": [[0.1, 0.2], [0, False]]}, '"alpha" must be a list of [re, im] pairs'),
        ({"alpha": [[0.1, 0.2, 0.3], [0.1, 0.2]]},
         '"alpha" must be a list of [re, im] pairs'),
    ])
    @pytest.mark.parametrize("argv", [["zeros", "--n", "2"], ["bounds", "--n", "2"],
                                      ["transform", "--reverse"]])
    def test_input_of_the_wrong_shape(self, tmp_path, blob, message, argv):
        src = tmp_path / "src.json"
        src.write_text(json.dumps(blob))
        assert run(argv + ["--input", str(src)]) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("q", ["0.9", "true", "null", "[[0.9], [0.9], [0.9]]",
                                   "[1" + "0" * 400 + "]", '["0.9", "0.9", "0.9"]',
                                   "[true, 0.9, 0.9]", "[0.9, null, 0.9]"])
    def test_q_file_of_the_wrong_shape(self, tmp_path, q):
        q_file = tmp_path / "q.json"
        q_file.write_text(q)
        code, out, err = run(["bounds", "--family", "geronimus", "--params",
                              "alpha_re=0.3", "--n", "4", "--q-mode", "custom",
                              "--q-file", str(q_file)])
        assert (code, out) == (2, "")
        assert err == f"error: {q_file} must hold a JSON array of numbers\n"

    @pytest.mark.parametrize("text", ["[" + "1" * 5000 + "]", "[" * 100000, "\udcff"])
    def test_unreadable_json(self, tmp_path, text):
        # an int past Python's digit limit, nesting past the recursion limit and
        # bytes that are not UTF-8 used to raise from the JSON reader
        src = tmp_path / "src.json"
        src.write_bytes(text.encode("utf-8", "surrogateescape"))
        code, out, err = run(["zeros", "--n", "2", "--input", str(src)])
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot parse {src}: ")

    def test_missing_input_file(self, tmp_path):
        src = tmp_path / "absent.json"
        code, out, err = run(["zeros", "--n", "2", "--input", str(src)])
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot read {src}: ")

    @pytest.mark.parametrize("text, message", [
        ('{"cd": {"c": [0.1, 0.2, 0.3], "d": [0.2, 0.0]}}',
         "chain sequence elements must be positive (term n=2)"),
        ('{"cd": {"c": [0.1, 0.2, 0.3], "d": [0.2, -Infinity]}}',
         "chain sequence elements must be positive (term n=2)"),
        ('{"cd": {"c": [0.1, 0.2, 0.3], "d": [NaN, 0.2]}}', "d_2 = nan is not finite"),
        ('{"cd": {"c": [0.1, 0.2, 0.3], "d": [0.2]}}',
         "need len(d) = len(c) - 1, got 1 and 3"),
        (json.dumps({"cd": {"c": [0.0] * 13, "d": [0.3] * 12}}),
         "d is not a positive chain sequence at n=6"),
        # the walk rounds M_1 of the extremal constant below 0
        (json.dumps({"cd": {"c": [0.0] * 10, "d": [pp.ismail_li_constant(10)] * 9}}),
         "maximal parameters undefined: backward recursion left (0, 1] at n=1"),
    ])
    @pytest.mark.parametrize("argv", [["zeros", "--n", "2"],
                                      ["transform", "--reverse", "--t", "0.5"]])
    def test_inline_cd_checks(self, tmp_path, text, message, argv):
        src = tmp_path / "cd.json"
        src.write_text(text)
        assert run(argv + ["--input", str(src)]) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("command", ["transform", "scaling-threshold"])
    def test_zero_degree_on_inline_cd(self, tmp_path, command):
        # an inline cd source used to serve --n 0 as if no degree were asked
        src = tmp_path / "cd.json"
        src.write_text(json.dumps({"cd": {"c": [0.0] * 20, "d": [0.2] * 19}}))
        code, out, err = run([command, "--input", str(src), "--n", "0"])
        assert code == 2
        assert out == "" and err.startswith("error: ")


# Degree texts for --n-list: int() reads "3_0" as 30, "1_0", "-0", " 7" and
# "+4" too, but not "0x10", "1e2", "2.0", "" or "n".  Degrees stay at most
# 2000, and at most 100 for zeros.
def _degree_texts(top):
    degree = st.integers(-3, top).map(str)
    return st.one_of(degree, degree, degree,
                     st.sampled_from(["3_0", "1_0", "-0", " 7", "+4", "0x10", "1e2",
                                      "2.0", "", "n"]))


# Flag values near the edges: signed zeros, subnormals, 1 and its neighbours,
# and arc ends near 1e16, where a width of a few radians rounds
EDGE_FLOATS = st.sampled_from([0.0, -0.0, 5e-324, 1e-320, 2.2250738585072014e-308,
                               math.nextafter(1.0, 0.0), 1.0, math.nextafter(1.0, 2.0),
                               1e16, 1e16 + 2.0, -1e16, 1e308])


# Sources that every command takes, so that the flags decide the exit code
FLAG_SOURCES = [("geronimus", "alpha_re=-0.5"), ("geronimus", "alpha_re=0.3,alpha_im=0.4"),
                ("alternating", "b1=0.6,b2=0.6,c=0.5"), ("lambda-eta", "lam=1,eta=1")]


@st.composite
def flag_jobs(draw):
    """argv exercising --n-list, --theta1/--theta2, --t or --q-const over a
    family source from ``FLAG_SOURCES``; --t goes with --reverse, whose inline
    cd the test adds."""
    flag = draw(st.sampled_from(["n-list", "theta", "t", "q-const"]))
    family, params = draw(st.sampled_from(FLAG_SOURCES))
    source = ["--family", family, "--params", params]
    if flag == "n-list":
        command = draw(st.sampled_from(["bounds", "support-arc", "zeros"]))
        texts = draw(st.lists(_degree_texts(100 if command == "zeros" else 2000),
                              min_size=1, max_size=4))
        if draw(st.booleans()):
            texts += texts[:1]  # a repeated degree
        argv = [command, f"--n-list={','.join(texts)}"] + source
    elif flag == "theta":
        end = st.one_of(st.floats(), st.floats(-20.0, 20.0), st.floats(1e15, 1e17),
                        EDGE_FLOATS)
        theta1 = draw(end)
        # theta2 on its own, or a width of up to 7 past theta1, which rounds
        # away near 1e16
        theta2 = draw(st.one_of(end, st.floats(0.0, 7.0).map(lambda w: theta1 + w)))
        argv = ["gap", f"--theta1={theta1!r}", f"--theta2={theta2!r}",
                "--n", str(draw(st.integers(1, 2000)))] + source
    elif flag == "t":
        t = draw(st.one_of(st.floats(), st.floats(0.0, 1.0), EDGE_FLOATS))
        argv = ["transform", "--reverse", f"--t={t!r}"]
    else:
        q = draw(st.one_of(st.floats(), st.floats(0.0, 1.0), EDGE_FLOATS))
        argv = [draw(st.sampled_from(["bounds", "support-arc"])), "--q-mode",
                "constant", f"--q-const={q!r}", "--n", str(draw(st.integers(2, 2000))),
                "--method", draw(st.sampled_from(list(cli._METHODS)))] + source
    return argv + ["--output", draw(st.sampled_from(["csv", "json"]))]


class TestFlagFuzz:
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(argv=flag_jobs())
    def test_flags_exit_by_contract(self, tmp_path, argv):
        # every flag value ends in 0, 2 or 3; a failure prints nothing on stdout
        if "--reverse" in argv:
            src = tmp_path / "cd.json"
            src.write_text(json.dumps({"cd": {"c": [0.1, -0.2, 0.3, 0.0],
                                              "d": [0.2, 0.1, 0.2]}}))
            argv = argv + ["--input", str(src)]
        code, out, err = run(argv)
        assert code in (0, 2, 3), (argv, err)
        assert "Traceback" not in err
        if code:
            assert out == "" and err.startswith("error: "), (argv, err)


class TestFlagsWhereRead:
    """--tol and --degrees are registered only on the commands that read them."""

    @pytest.mark.parametrize("argv, flag", [
        (["bounds", "--family", "geronimus", "--params", "alpha_re=0.3", "--n", "5"],
         ["--tol", "1e-9"]),
        (["support-arc", "--family", "geronimus", "--params", "alpha_re=0.3",
          "--n", "5"], ["--tol", "1e-9"]),
        (["gap", "--family", "geronimus", "--params", "alpha_re=-0.5",
          "--theta1", "5.3", "--theta2", "7.2", "--n", "10"], ["--tol", "1e-9"]),
        (["transform", "--family", "geronimus", "--params", "alpha_re=0.3", "--n", "5"],
         ["--tol", "1e-9"]),
        (["tables", "1"], ["--degrees"]),
        (["zeros", "--family", "geronimus", "--params", "alpha_re=0.3", "--n", "5"],
         ["--degrees"]),
        (["gap", "--family", "geronimus", "--params", "alpha_re=-0.5",
          "--theta1", "5.3", "--theta2", "7.2", "--n", "10"], ["--degrees"]),
        (["transform", "--family", "geronimus", "--params", "alpha_re=0.3", "--n", "5"],
         ["--degrees"]),
        (["scaling-threshold", "--d-const", "0.2", "--infinite"], ["--degrees"]),
        # zero bisection takes a fixed number of steps, whatever the value
        (["zeros", "--family", "geronimus", "--params", "alpha_re=0.3", "--n", "5"],
         ["--tol", "1e-9"]),
        (["zeros", "--family", "geronimus", "--params", "alpha_re=0.3", "--n", "5"],
         ["--tol", "nan"]),
        (["tables", "1"], ["--tol", "1e-9"]),
        (["tables", "1"], ["--tol", "inf"]),
    ])
    def test_unread_flag_is_a_usage_error(self, argv, flag):
        assert run(argv)[0] == 0
        code, out, err = run(argv + flag)
        assert (code, out) == (2, "")
        assert err.startswith("usage: popuc ") and f"unrecognized arguments: {flag[0]}" \
            in err

    def test_finite_threshold_tol_keeps_the_default_bits(self, tmp_path):
        src = tmp_path / "cd.json"
        src.write_text(json.dumps({"cd": {"c": [0.0] * 10, "d": [0.2] * 9}}))
        rows = {tol: run(["scaling-threshold", "--input", str(src), "--n", "10"]
                         + (["--tol", tol] if tol else []))[1] for tol in (None, "1e-12")}
        thr = pp.constant_scaling_threshold(np.full(9, 0.2))
        assert rows[None] == rows["1e-12"] == f"kind,threshold\nfinite-N=10,{thr!r}\n"


class TestWalkCounts:
    """d/q is walked once per degree where a scaling is built by
    ``make_scaling``, and never for the trivial and dominant scalings."""

    def test_constant_scaling_walked_once_per_degree(self, tmp_path, walks):
        src = tmp_path / "cd.json"
        src.write_text(json.dumps({"cd": {"c": [0.1] * 50, "d": [0.1] * 49}}))
        code, _, err = run(["bounds", "--input", str(src), "--n-list", "20,40",
                            "--q-mode", "constant", "--q-const", "0.8"])
        assert code == 0, err
        # the inline cd's own chain test, then one walk of d/q per degree
        assert walks == [49, 19, 39]

    @pytest.mark.parametrize("command", ["bounds", "support-arc"])
    @pytest.mark.parametrize("mode", ["trivial", "ismail-li", "family-default"])
    def test_trivial_and_dominant_scalings_not_walked(self, walks, command, mode):
        code, _, err = run([command, "--family", "lambda-eta", "--params",
                            "lam=1,eta=1", "--n", "40", "--q-mode", mode])
        assert code == 0, err
        assert walks == []

    def test_reverse_walks_maximal_params_once(self, tmp_path, maximal_walks):
        # from_sequences takes g from the walk, and the reverse transform
        # reads M_1 from it
        src = tmp_path / "cd.json"
        src.write_text(json.dumps({"cd": {"c": [0.1] * 8, "d": [0.2] * 7}}))
        code, _, err = run(["transform", "--input", str(src), "--reverse", "--t", "0.3"])
        assert code == 0, err
        assert maximal_walks == [7]

    def test_roundtrip_walks_maximal_params_once(self, maximal_walks):
        # mass_at_one and verblunsky_from_cd share one walk
        code, _, err = run(["transform", "--family", "lambda-eta", "--params",
                            "lam=1,eta=1", "--n", "12", "--roundtrip"])
        assert code == 0, err
        assert maximal_walks == [11]
