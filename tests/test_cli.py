import io
import json
import math
import pathlib
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

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
    ])
    def test_golden_zeros(self, name, argv):
        code, out, _ = run(["zeros", *argv])
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
    tau = pp.tau_from_verblunsky(inline, k, theta2).values[k]
    if guard == "circle":  # |1 - tau_k alpha_k| < 1e-15
        values[k] = (1.0 - 2.0 ** -51) * np.conj(tau)
    else:  # tau_k alpha_k = (1 - i cot(half)) / 2, so c_{k+1} = cot(half)
        values[k] = 0.5 * (1.0 - 1j * math.cos(half) / math.sin(half)) / tau


class TestGap:
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

    @settings(max_examples=300, deadline=None)
    @given(value=st.one_of(st.floats(), st.sampled_from(
               [0.25, math.nextafter(0.25, 1.0), -0.5, math.nextafter(-0.5, 0.0),
                1e150, 1e200, 5e-324])),
           tol=st.one_of(st.floats(), st.just(1e-12)), family=st.booleans())
    def test_infinite_fuzzed_inputs(self, value, tol, family):
        # value is --d-const, or lam of a lambda-eta source
        if family:
            source = ["--family", "lambda-eta", "--params", f"lam={value!r},eta=1"]
            valid, expect = -0.5 < value <= 1e150, "1.0"
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


class TestExitCodeContract:
    def test_internal_invariant_maps_to_4(self, monkeypatch):
        def boom(args, stream, err):
            raise pp.InvariantError("synthetic breach")

        monkeypatch.setitem(cli._HANDLERS, "tables", boom)
        code, _, err = run(["tables", "1"])
        assert code == 4
        assert "internal error" in err

    def test_boundary_case_maps_to_3(self, monkeypatch):
        def edge(args, stream, err):
            raise pp.BoundaryCaseError(3)

        monkeypatch.setitem(cli._HANDLERS, "tables", edge)
        assert run(["tables", "1"])[0] == 3

    def test_unknown_family(self):
        code, _, err = run(["bounds", "--family", "nope", "--n", "4"])
        assert code == 2

    @pytest.mark.parametrize("family, params, bad", [
        ("geronimus", {"alpha_re": "x"}, "alpha_re"),
        ("alternating", {"b1": 0.5, "b2": [0.5]}, "b2"),
        ("lambda-eta", {"lam": 1.0, "eta": None}, "eta"),
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


class TestRejectedInput:
    @pytest.mark.parametrize("blob", ['"cd"', "5"])
    def test_input_file_not_an_object(self, tmp_path, blob):
        src = tmp_path / "top.json"
        src.write_text(blob)
        code, _, err = run(["zeros", "--input", str(src), "--n", "4"])
        assert code == 2
        assert err.startswith("error: ") and str(src) in err

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
        # the finite threshold bisects to --tol, as zeros does
        ["scaling-threshold", "--family", "geronimus", "--params", "alpha_re=0.3",
         "--n", "5", "--tol", "nan"],
    ])
    def test_numeric_input_rejected(self, argv):
        code, out, err = run(argv)
        assert code == 2
        assert out == "" and err.startswith("error: ")

    @pytest.mark.parametrize("command", ["transform", "scaling-threshold"])
    def test_zero_degree_on_inline_cd(self, tmp_path, command):
        # an inline cd source used to serve --n 0 as if no degree were asked
        src = tmp_path / "cd.json"
        src.write_text(json.dumps({"cd": {"c": [0.0] * 20, "d": [0.2] * 19}}))
        code, out, err = run([command, "--input", str(src), "--n", "0"])
        assert code == 2
        assert out == "" and err.startswith("error: ")


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
        thr = pp.constant_scaling_threshold(pp.ChainSeq.from_values([0.2] * 9))
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
