import argparse
import importlib.util
import io
import json
import math
import os
import re
import subprocess
import sys
import time
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import mpmath as mp
import pytest
import test_acceptance as acceptance

import dyadiff
from dyadiff import gaussian, verify
from dyadiff.cli import (
    DEFAULT_DIGITS,
    EXIT_CAP,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_RANGE,
    EXIT_VERIFY,
    MAX_DECIMAL_EXPONENT,
    MAX_DIGITS,
    build_parser,
    main,
    parse_point,
)
from dyadiff.dyadic import DyadicPoint
from dyadiff.exceptions import LevelRangeError, QuadratureError
from dyadiff.spectral import DiffusionParams, psi_infinity


def run(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


def run_json(*argv):
    code, text = run(*argv)
    assert code == EXIT_OK, text
    return json.loads(text)


class TestParsePoint:
    def test_exact_dyadic_no_rounding(self):
        point, rounding = parse_point("0.75", DEFAULT_DIGITS)
        assert point.value == Fraction(3, 4)
        assert rounding == 0

    def test_non_dyadic_rounded_and_reported(self):
        point, rounding = parse_point("0.1", DEFAULT_DIGITS)
        assert rounding != 0
        assert abs(rounding) <= Fraction(1, 2**DEFAULT_DIGITS)
        assert abs(point.value - Fraction(1, 10)) == abs(rounding)

    def test_fraction_syntax(self):
        point, rounding = parse_point("3/8", DEFAULT_DIGITS)
        assert point.value == Fraction(3, 8) and rounding == 0

    @pytest.mark.parametrize("digits", [-1, MAX_DIGITS + 1, 10**12])
    def test_digits_out_of_range_rejected(self, digits):
        with pytest.raises(ValueError):
            parse_point("0.1", digits)
        code, _ = run("delta", "0.1", "0.2", "--digits", str(digits))
        assert code == EXIT_RANGE

    def test_digits_cap_parses(self):
        point, rounding = parse_point("0.1", MAX_DIGITS)
        assert point.exponent <= MAX_DIGITS
        assert abs(rounding) <= Fraction(1, 2 ** (MAX_DIGITS + 1))
        assert run("delta", "0.1", "0.2", "--digits", str(MAX_DIGITS))[0] == EXIT_OK

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            parse_point("-0.5", DEFAULT_DIGITS)

    @pytest.mark.parametrize("text, code, rounding", [
        ("1e10000000", EXIT_RANGE, None),
        ("1e3000000", EXIT_RANGE, None),
        ("1e-10000000", EXIT_OK, "-0"),
        ("0e-10000000", EXIT_OK, "0"),
        ("-1e-10000000", EXIT_RANGE, None),
    ])
    def test_huge_exponent_decided_from_the_exponent(self, text, code, rounding):
        # an exact read would build 10^|exponent|: 1e10000000 took 11.7 s
        start = time.perf_counter()
        got, out = run("delta", "--", text, "0")
        assert time.perf_counter() - start < 0.5
        assert got == code
        if rounding is None:
            assert out == ""
        else:
            doc = json.loads(out)
            assert doc["x"] == {"input": text, "value": "0", "mantissa": 0, "exponent": 0,
                                "rounding_applied": rounding}
            assert (doc["delta"], doc["interval"]) == ("0", "point")

    def test_decimal_exponent_bound(self):
        top = MAX_DECIMAL_EXPONENT
        assert parse_point(f"1e{top}", 0) == (DyadicPoint(10**top), 0)
        with pytest.raises(LevelRangeError, match=f"10\\^{top + 1}"):
            parse_point(f"1e{top + 1}", 0)
        # at the bound the read is exact; past it the rounding is the exact Decimal
        assert parse_point(f"1e-{top}", MAX_DIGITS) == (DyadicPoint(0), -Fraction(1, 10**top))
        assert parse_point(f"3e-{top + 1}", MAX_DIGITS) == (DyadicPoint(0), Decimal(f"-3e-{top + 1}"))


class TestDelta:
    def test_quarter_three_quarters(self):
        doc = run_json("delta", "0.25", "0.75")
        assert doc["delta"] == "1"
        assert doc["interval"]["level"] == 0
        assert doc["interval"]["index"] == 0

    def test_equal_points(self):
        doc = run_json("delta", "0.5", "0.5")
        assert doc["delta"] == "0"
        assert doc["interval"] == "point"

    def test_across_integer_boundary(self):
        doc = run_json("delta", "0.9", "1.1")
        assert doc["delta"] == "2"
        assert doc["interval"]["lower"] == "0"
        assert doc["interval"]["upper"] == "2"

    def test_rounding_echoed(self):
        doc = run_json("delta", "0.1", "0.25")
        assert float(doc["x"]["rounding_applied"]) != 0.0
        assert float(doc["y"]["rounding_applied"]) == 0.0

    def test_negative_input_is_range_error(self):
        code, _ = run("delta", "--", "-1", "0.5")
        assert code == EXIT_RANGE

    def test_unparseable_input_is_parse_error(self):
        code, _ = run("delta", "zebra", "0.5")
        assert code == EXIT_PARSE

    def test_delta_past_double_range(self):
        # delta = 2^1024 is exact but no double; it prints to 17 digits
        doc = run_json("delta", "0", "1.5e308")
        assert doc["delta"] == "1.7976931348623159e+308"
        assert doc["interval"]["upper"] == doc["delta"]


class TestDistance:
    def test_both_routes_agree(self):
        doc = run_json(
            "distance", "0.25", "0.75", "--s", "1", "--t", "1", "--method", "both"
        )
        assert float(doc["discrepancy"]) < 1e-10
        assert float(doc["closed"]) > 0

    def test_coincident_points_zero(self):
        doc = run_json(
            "distance", "0.5", "0.5", "--s", "1", "--t", "1", "--method", "both"
        )
        assert float(doc["closed"]) == 0.0
        assert float(doc["spectral"]) == 0.0

    def test_larger_time_gives_smaller_distance(self):
        d1 = float(
            run_json("distance", "0.25", "0.75", "--s", "1", "--t", "1")["closed"]
        )
        d10 = float(
            run_json("distance", "0.25", "0.75", "--s", "1", "--t", "10")["closed"]
        )
        assert d10 < d1

    def test_bad_params_range_error(self):
        code, _ = run("distance", "0.25", "0.75", "--s", "0", "--t", "1")
        assert code == EXIT_RANGE
        code, _ = run("distance", "0.25", "0.75", "--s", "1", "--t", "-2")
        assert code == EXIT_RANGE

    def test_missing_flags_parse_error(self):
        code, _ = run("distance", "0.25", "0.75")
        assert code == EXIT_PARSE

    @pytest.mark.parametrize(
        "y, s", [("1.5e308", "1"), (str(2**514), "2")]
    )
    def test_top_of_level_range_reaches_limit(self, y, s):
        doc = run_json("distance", "0", y, "--s", s, "--t", "1")
        limit = psi_infinity(DiffusionParams(float(s), 1.0))
        assert float(doc["closed"]) == pytest.approx(limit, rel=1e-9)

    def test_series_past_double_range_reads_the_table(self):
        # the series at delta = 1 leaves the double range before its
        # certificate holds; the table, seeded at level -1024, gives the value:
        # log psi^2 = 986.26, checked against the raw sum at 50 digits
        doc = run_json("distance", "0.25", "0.75", "--s", "0.01", "--t", "0.001")
        with mp.workdps(50):
            expected = float(mp.log(2 * mp.fsum(
                mp.mpf(2) ** k * mp.e ** (-2 * mp.mpf("0.001") * mp.mpf(2) ** (mp.mpf("0.01") * k))
                for k in range(-200, 4001)
            )))
        assert expected == pytest.approx(986.26, abs=0.005)
        assert 2.0 * math.log(float(doc["closed"])) == pytest.approx(expected, rel=1e-12)

    def test_spectral_chain_at_top_of_level_range(self):
        # delta = 2^1024: the chain starts where the levels below it are
        # certified negligible, not at the common level -1024
        doc = run_json("distance", "0", "1.5e308", "--s", "1", "--t", "1", "--method", "both")
        assert float(doc["spectral"]) == pytest.approx(float(doc["closed"]), rel=1e-12)

    def test_spectral_chain_past_its_cap_exits_4(self, capsys):
        # at s = 0.01 the chain needs about 270 levels, past its cap of 200
        code, _ = run("distance", "0", "0.125", "--s", "0.01", "--t", "1", "--method", "both")
        assert code == EXIT_CAP
        err = capsys.readouterr().err
        assert err.startswith("cap exceeded: spectral chain past its cap of 200 levels: ")
        assert "from level 385" in err and "against tol 1e-12" in err

    def test_limit_past_double_range_exits_4(self, capsys):
        # at s = 0.001, log psi_inf^2 is about 5220: psi itself is past the doubles
        code, _ = run("distance", "0.25", "0.75", "--s", "0.001", "--t", "1")
        assert code == EXIT_CAP
        err = capsys.readouterr().err
        assert err.startswith("cap exceeded: ")
        assert err.count("\n") == 1


class TestBall:
    def test_interval_contains_center(self):
        doc = run_json("ball", "0.3125", "0.5", "--s", "1", "--t", "1")
        ball = doc["ball"]
        assert ball != "whole_space"
        assert float(ball["lower"]) <= 0.3125 < float(ball["upper"])

    def test_huge_radius_whole_space(self):
        doc = run_json("ball", "0.5", "1e9", "--s", "1", "--t", "1")
        assert doc["ball"] == "whole_space"

    def test_nonpositive_radius_range_error(self):
        code, _ = run("ball", "0.5", "0", "--s", "1", "--t", "1")
        assert code == EXIT_RANGE

    def test_infinite_radius_whole_space(self):
        assert run_json("ball", "0.5", "inf", "--s", "1", "--t", "1")["ball"] == "whole_space"

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    @pytest.mark.parametrize("flag, name", [
        ("--s", "fractional order s"), ("--t", "diffusion time t"), ("--tail-tol", "tail_tol"),
    ])
    def test_non_finite_parameters_range_error(self, flag, name, value, capsys):
        flags = {"--s": "1", "--t": "1", flag: value}
        code, out = run("distance", "0.25", "0.75", *(f"{k}={v}" for k, v in flags.items()))
        assert (code, out) == (EXIT_RANGE, "")
        assert capsys.readouterr().err == f"range error: {name} must be a positive finite number\n"


class TestProfile:
    def run_rows(self, *extra, s="1"):
        code, text = run("profile", "--s", s, "--t", "1", *extra)
        assert code == EXIT_OK
        rows = []
        footer = {}
        for line in text.splitlines():
            if line.startswith("#"):
                fields = line[1:].split()
                if len(fields) == 2:
                    footer[fields[0]] = float(fields[1])
                continue
            i, lam, psi = line.split()
            rows.append((int(i), float(lam), float(psi)))
        return rows, footer

    def test_monotone_psi_column(self):
        # the table is computed by truncated summation, so monotonicity is
        # only asserted up to the series tail tolerance; the exact strict
        # version is covered by the closed-form increment tests
        rows, _ = self.run_rows("--i-min", "-20", "--i-max", "20")
        psis = [r[2] for r in rows]
        assert all(b >= a - 1e-10 for a, b in zip(psis, psis[1:]))
        resolvable = [p for p in psis if p > 0.0]
        assert all(b > a for a, b in zip(resolvable, resolvable[1:]))

    def test_last_row_within_sandwich(self):
        rows, footer = self.run_rows("--i-min", "0", "--i-max", "40")
        assert footer["sandwich_lower"] < footer["psi_infinity"] < footer["sandwich_upper"]
        assert rows[-1][2] < footer["psi_infinity"] + 1e-9
        assert footer["sandwich_lower"] < rows[-1][2]

    def test_first_rows_vanish_at_deep_negative_levels(self):
        rows, _ = self.run_rows("--i-min", "-60", "--i-max", "-55")
        assert rows[0][2] < 1e-8

    def test_inverted_range_rejected(self):
        code, _ = run("profile", "--s", "1", "--t", "1", "--i-min", "3", "--i-max", "1")
        assert code == EXIT_RANGE

    def test_small_order_within_sandwich(self):
        # c_t(s) is in closed form, so s = 0.1 needs no quadrature
        _, footer = self.run_rows("--i-min", "0", "--i-max", "2", s="0.1")
        assert footer["sandwich_lower"] < footer["psi_infinity"] < footer["sandwich_upper"]

    def test_c_past_double_range_exits_4(self, capsys):
        code, _ = run("profile", "--s", "0.001", "--t", "1")
        assert code == EXIT_CAP
        err = capsys.readouterr().err
        assert err.startswith("cap exceeded: ")
        assert err.count("\n") == 1

    def test_top_of_level_range(self):
        rows, footer = self.run_rows("--i-min", "500", "--i-max", "1024", s="2")
        assert rows[-1][0] == 1024 and rows[-1][1] == math.inf  # 2^1024 reads back as inf
        psis = [r[2] for r in rows]
        assert psis == sorted(psis)
        limit = footer["psi_infinity"]
        assert all(abs(v - limit) <= 1e-9 * limit for i, _, v in rows if i >= 510)


class TestEvolve:
    def write_expansion(self, tmp_path, text="0 0 1.0\n"):
        path = tmp_path / "expansion.txt"
        path.write_text(text)
        return str(path)

    def test_time_zero_identity(self, tmp_path):
        src = self.write_expansion(tmp_path, "0 0 1.0\n2 5 -0.5\n")
        code, text = run("evolve", src, "--s", "1", "--t", "0")
        assert code == EXIT_OK
        records = [
            line.split() for line in text.splitlines() if not line.startswith("#")
        ]
        assert [r[:2] for r in records] == [["0", "0"], ["2", "5"]]
        assert [float(r[2]) for r in records] == [1.0, -0.5]

    def test_single_coefficient_multiplier(self, tmp_path):
        src = self.write_expansion(tmp_path)
        code, text = run("evolve", src, "--s", "1", "--t", "1")
        assert code == EXIT_OK
        record = next(l for l in text.splitlines() if not l.startswith("#"))
        assert float(record.split()[2]) == pytest.approx(math.exp(-1.0), abs=0)

    def test_query_routes_agree(self, tmp_path):
        src = self.write_expansion(tmp_path, "0 0 1.0\n1 1 0.25\n")
        code, text = run(
            "evolve", src, "--s", "0.5", "--t", "2", "--query", "0.125", "0.625"
        )
        assert code == EXIT_OK
        rows = [
            line.split()
            for line in text.splitlines()
            if line and not line.startswith("#") and len(line.split()) == 4
        ]
        assert len(rows) == 2
        for row in rows:
            assert float(row[3]) < 1e-12

    def test_output_file_round_trips(self, tmp_path):
        src = self.write_expansion(tmp_path, "0 0 0.5\n")
        dst = tmp_path / "evolved.txt"
        code, _ = run("evolve", src, "--s", "1", "--t", "1", "--out", str(dst))
        assert code == EXIT_OK
        code2, text2 = run("evolve", str(dst), "--s", "1", "--t", "0")
        assert code2 == EXIT_OK
        record = next(l for l in text2.splitlines() if not l.startswith("#"))
        assert float(record.split()[2]) == pytest.approx(0.5 * math.exp(-1.0), abs=0)

    def test_bad_record_parse_error_with_line(self, tmp_path, capsys):
        src = self.write_expansion(tmp_path, "0 0 1.0\nnot a number here\n")
        code, _ = run("evolve", src, "--s", "1", "--t", "1")
        assert code == EXIT_PARSE
        assert "line 2" in capsys.readouterr().err

    def test_missing_file_parse_error(self, tmp_path):
        code, _ = run("evolve", str(tmp_path / "nope.txt"), "--s", "1", "--t", "1")
        assert code == EXIT_PARSE

    def test_fine_coefficient_decays_to_zero(self, tmp_path):
        # 2^(level s) = 2^1200 is past the double range; the multiplier is 0
        src = self.write_expansion(tmp_path, "600 0 1.0\n")
        code, text = run("evolve", src, "--s", "2", "--t", "1", "--query", "0")
        assert code == EXIT_OK
        rows = [line.split() for line in text.splitlines() if not line.startswith("#")]
        assert rows[0] == ["600", "0", "0.0"]
        assert float(rows[1][3]) == 0.0


class TestVerify:
    def test_all_suites_pass(self):
        code, text = run("verify", "all")
        assert code == EXIT_OK
        assert "FAIL" not in text
        assert "[PASS]" in text

    def test_single_suite(self):
        code, text = run("verify", "dyadic")
        assert code == EXIT_OK
        assert all(
            line.split()[1].rstrip(":") == "dyadic"
            for line in text.splitlines()
            if line.startswith("[")
        )

    def test_laplacian_linearity_runs_every_trial(self):
        code, text = run("verify", "laplacian")
        assert code == EXIT_OK
        line = next(l for l in text.splitlines() if "linearity" in l)
        assert line.startswith("[PASS]")
        assert "over 20 trials" in line

    def test_suite_choices_match_the_registry(self):
        # the CLI names the suites itself so that only `verify` imports verify
        sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        suite = next(a for a in sub.choices["verify"]._actions if a.dest == "suite")
        assert tuple(suite.choices) == ("all",) + verify.SUITES

    def test_unknown_suite_parse_error(self):
        code, _ = run("verify", "bogus")
        assert code == EXIT_PARSE

    def test_uncertified_quadrature_exits_4(self, monkeypatch, capsys):
        def fail(*args, **kwargs):
            raise QuadratureError("integral error estimate 1e-3")

        monkeypatch.setattr(verify, "run_verify", fail)
        code, _ = run("verify", "all")
        assert code == EXIT_CAP
        err = capsys.readouterr().err
        assert err.startswith("quadrature not certified: ")
        assert err.count("\n") == 1

    def test_real_quadrature_failure_exits_4(self, monkeypatch, capsys):
        # a kernel with a jump: the double-exponential levels never agree
        monkeypatch.setattr(gaussian, "_kernel_1d", lambda u, t: float(u < 2**-0.5))
        code, _ = run("verify", "euclidean")
        assert code == EXIT_CAP
        assert capsys.readouterr().err.startswith("quadrature not certified: ")

    @pytest.mark.parametrize("seed", [143, 309, 583, 942])
    def test_squared_ratio_bound_survives_underflow(self, seed):
        # at these seeds d_t1^2 underflows to 0 although d_t1 > 0
        assert all(r.passed for r in verify.run_verify("all", seed))

    def test_every_line_prints_measured_and_bound(self):
        code, text = run("verify", "all", "--seed", "931")
        assert code == EXIT_OK
        lines = [l for l in text.splitlines() if l.startswith("[")]
        assert len(lines) == 28
        for l in lines:
            assert re.fullmatch(r"\[PASS\] \w+: .+  \(.+ = \S+, bound \S+\)", l), l
        for r in verify.run_verify("all", 931):
            assert r.passed == (r.measured <= r.bound)

    @pytest.mark.parametrize(
        "function, criterion, suite, names",
        [
            ("route_gap", 1, "spectral", ["theorem: spectral route equals psi(delta)"]),
            ("c_quadrature_gap", 3, "spectral", ["sqrt(2)c < psi_inf < 2c sandwich"]),
            ("kernel_bound_excess", 4, "spectral", ["kernel bound |K| <= 2/delta"]),
            ("squared_ratio_excess", 5, "spectral", ["time monotonicity and squared-ratio bound"]),
            ("witness_ratio", 5, "spectral", ["non-equivalence witness d_t1 > 1e6 d_t2"]),
            ("ball_membership_mismatches", 6, "spectral",
             ["balls are dyadic intervals (membership oracle)"]),
            ("ball_transfer_mismatches", 6, "spectral", ["ball radius transfer across times"]),
            ("eigen_scaling_spread", 7, "laplacian", ["haar eigenrelation and |I|^-s scaling"]),
            ("evolution_route_gap", 8, "laplacian", ["spectral vs kernel-integral evolution"]),
            ("semigroup_gap", 8, "laplacian", ["semigroup law of the multipliers"]),
            ("profile_quadrature_gap", 9, "euclidean", ["quadrature profile matches closed form"]),
            ("profile_derivative_gap", 9, "euclidean", ["profile derivative identity"]),
            ("ratio_limit_gap", 9, "euclidean", ["small-r squared ratio limit"]),
            ("invariance_gap", 9, "euclidean", [
                "translation/rotation invariance (n=1)", "translation/rotation invariance (n=2)"]),
        ],
    )
    def test_acceptance_and_verify_share_the_property(self, monkeypatch, function, criterion,
                                                      suite, names):
        # a property that measures inf fails both its verify line and its criterion
        monkeypatch.setattr(verify, function, lambda *args, **kwargs: math.inf)
        monkeypatch.setattr(acceptance, "report", lambda *args: None)
        failed = [r.name for r in verify.run_verify(suite, 0) if not r.passed]
        assert failed == names
        test = next(f for n, f in vars(acceptance).items()
                    if n.startswith(f"test_criterion_{criterion:02d}_"))
        with pytest.raises(AssertionError):
            test()


class TestBenchmarkContract:
    def test_layer_trace_targets_exist(self):
        # perfbench/layertrace.py wraps these names; a deletion must not
        # silently break a traced benchmark run
        path = Path(__file__).resolve().parents[1] / "perfbench" / "layertrace.py"
        spec = importlib.util.spec_from_file_location("layertrace", path)
        layertrace = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(layertrace)
        for targets in layertrace.LAYERS.values():
            for owner, attr in targets:
                assert attr in owner.__dict__, (owner, attr)
        assert verify._SUITE_FUNCTIONS == {
            "dyadic": verify.dyadic_suite,
            "spectral": verify.spectral_suite,
            "laplacian": verify.laplacian_suite,
            "euclidean": verify.euclidean_suite,
        }
        tracer = layertrace.Tracer()
        tracer.install()
        try:
            assert all(r.passed for r in verify.run_verify("dyadic", 0))
        finally:
            tracer.uninstall()
        assert verify._SUITE_FUNCTIONS["dyadic"] is verify.dyadic_suite
        assert tracer.calls


class TestFlags:
    @pytest.mark.parametrize(
        "argv",
        [
            ("delta", "0.25", "0.75", "--max-depth", "3"),
            ("distance", "0.25", "0.75", "--s", "1", "--t", "1", "--max-depth", "3"),
            ("delta", "0.25", "0.75", "--tail-tol", "1e-6"),
            ("profile", "--s", "1", "--t", "1", "--digits", "10"),
            ("profile", "--s", "1", "--t", "1", "--max-depth", "3"),
            ("evolve", "in.txt", "--s", "1", "--t", "1", "--max-depth", "3"),
            ("ball", "0.5", "0.25", "--s", "1", "--t", "1", "--max-depth", "3"),
        ],
    )
    def test_flag_the_command_does_not_read_is_rejected(self, argv, capsys):
        code, _ = run(*argv)
        assert code == EXIT_PARSE
        assert f"unrecognized arguments: {argv[-2]}" in capsys.readouterr().err


def run_python(*argv):
    """Run the interpreter on argv with this dyadiff on the import path."""
    env = dict(os.environ)
    src_dir = str(Path(dyadiff.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src_dir, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True, env=env, timeout=120,
    )


class TestModuleEntry:
    def test_python_m_dyadiff_matches_main(self):
        proc = run_python("-m", "dyadiff", "delta", "0.25", "0.75")
        assert proc.returncode == EXIT_OK, proc.stderr
        assert json.loads(proc.stdout) == run_json("delta", "0.25", "0.75")

    def test_cli_import_loads_neither_scipy_nor_numpy(self):
        proc = run_python(
            "-c",
            "import sys, dyadiff.cli; "
            "print(sorted({m.split('.')[0] for m in sys.modules} & {'scipy', 'numpy'}))",
        )
        assert proc.returncode == EXIT_OK, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_cli_import_loads_neither_dataclasses_inspect_nor_verify(self):
        proc = run_python(
            "-c",
            "import sys, dyadiff.cli; "
            "print(sorted({'dataclasses', 'inspect', 'dyadiff.verify'} & set(sys.modules)))",
        )
        assert proc.returncode == EXIT_OK, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_python_m_dyadiff_verify_all(self):
        proc = run_python("-m", "dyadiff", "verify", "all")
        assert proc.returncode == EXIT_OK, proc.stderr
        assert proc.stdout.endswith("# 28/28 properties passed\n")

    def test_verify_loads_neither_scipy_nor_numpy(self):
        proc = run_python(
            "-c",
            "import sys; from dyadiff import verify; verify.run_verify('all', 0); "
            "print(sorted({m.split('.')[0] for m in sys.modules} & {'scipy', 'numpy'}))",
        )
        assert proc.returncode == EXIT_OK, proc.stderr
        assert proc.stdout.strip() == "[]"


class TestTruncationOverrides:
    def test_env_tail_tol_respected(self, monkeypatch):
        monkeypatch.setenv("DYADIFF_TAIL_TOL", "1e-6")
        doc = run_json(
            "distance", "0.25", "0.75", "--s", "1", "--t", "1", "--method", "both"
        )
        assert float(doc["discrepancy"]) < 1e-5

    def test_flag_beats_env(self, monkeypatch):
        monkeypatch.setenv("DYADIFF_TAIL_TOL", "1e-2")
        doc = run_json(
            "distance",
            "0.25",
            "0.75",
            "--s",
            "1",
            "--t",
            "1",
            "--method",
            "both",
            "--tail-tol",
            "1e-12",
        )
        assert float(doc["discrepancy"]) < 1e-10
