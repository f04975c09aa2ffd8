"""End-to-end command line runs, in fresh interpreter processes and in
one process.

Every run numbers its generic symbols from g1, so a report must match
its golden bytes whether it runs in a fresh process, again in the same
process, or next to other runs in other threads.
"""

import json
import os
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from conftest import corpus_path
from equising import Parametrization, cli
from equising.family import MAX_CENTERED_DIGITS, MAX_COEFF_DIGITS
from equising.limits import MAX_DEPTH

GOLDEN_RUNS = {
    "family-345": (["--equations", str(corpus_path("family-345.eqs.json")),
                    "--rho", "y - z"], 0),
    "family-352": ([], 2),
    "family-467": ([], 0),
    "family-589": ([], 0),
    "tangent-arc": ([], 2),
}

# --basepoint value -> golden file suffix.  Off the origin every report
# exits 2: a modification is skipped or its factorization is undecided.
OFF_ORIGIN_GOLDENS = {"generic": "generic", "1/2": "half"}
OFF_ORIGIN_CODE = 2


def run_cli(*argv):
    return subprocess.run(
        [sys.executable, "-m", "equising.cli", *map(str, argv)],
        capture_output=True, text=True)


def run_json(*argv):
    proc = run_cli(*argv)
    assert proc.returncode in (0, 2), proc.stderr
    return json.loads(proc.stdout), proc.returncode


class TestReports:
    @pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
    def test_full_report_matches_golden(self, name):
        extra, want_code = GOLDEN_RUNS[name]
        proc = run_cli("full-report", corpus_path(f"{name}.json"), *extra)
        assert proc.returncode == want_code, proc.stderr
        golden = corpus_path(f"golden/{name}.full.json").read_text()
        assert proc.stdout == golden

    @pytest.mark.parametrize("basepoint", sorted(OFF_ORIGIN_GOLDENS))
    @pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
    def test_off_origin_full_report_matches_golden(self, name, basepoint):
        # pins the generic symbols' numbering: the base point label and
        # every later draw
        extra, _ = GOLDEN_RUNS[name]
        proc = run_cli("full-report", corpus_path(f"{name}.json"), *extra,
                       "--basepoint", basepoint)
        assert proc.returncode == OFF_ORIGIN_CODE, proc.stderr
        suffix = OFF_ORIGIN_GOLDENS[basepoint]
        golden = corpus_path(f"golden/{name}.full.{suffix}.json").read_text()
        assert proc.stdout == golden

    @pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
    def test_in_process_reruns_and_threads_match_golden(self, name, tmp_path):
        extra, want_code = GOLDEN_RUNS[name]
        golden = corpus_path(f"golden/{name}.full.json").read_text()

        def run(i):
            out = tmp_path / f"report-{i}.json"
            code = cli.main(["full-report", str(corpus_path(f"{name}.json")),
                             *extra, "--out", str(out)])
            return code, out.read_text()

        results = [run(0), run(1)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-4)
        try:
            with ThreadPoolExecutor(max_workers=3) as pool:
                results += pool.map(run, range(2, 5), timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert results == [(want_code, golden)] * 5

    def test_json_output_is_sorted_and_valid(self):
        proc = run_cli("check-whitney", corpus_path("family-345.json"))
        parsed = json.loads(proc.stdout)
        assert proc.stdout == json.dumps(parsed, sort_keys=True, indent=2) + "\n"
        assert parsed["report_version"] == 2
        assert parsed["command"] == "check-whitney"
        assert parsed["input"] == "family-345.json"
        assert parsed["family"]["ambient"] == ["x", "y", "z", "w"]

    def test_text_format(self):
        proc = run_cli("check-zariski", corpus_path("family-345.json"),
                       "--format", "text")
        lines = proc.stdout.splitlines()
        assert lines[0] == "report_version: 2"
        assert lines[1] == "command: check-zariski"
        assert "verdict: Verified" in proc.stdout
        assert "{" not in proc.stdout

    def test_out_writes_file(self, tmp_path):
        out = tmp_path / "report.json"
        proc = run_cli("check-whitney", corpus_path("family-345.json"),
                       "--out", out)
        assert proc.returncode == 0
        assert proc.stdout == ""
        assert json.loads(out.read_text())["command"] == "check-whitney"


class TestVerdictsAndExitCodes:
    def test_whitney_refuted_is_decisive(self):
        report, code = run_json("check-whitney", corpus_path("family-352.json"))
        assert code == 0
        assert report["whitney"]["verdict"] == "Refuted"
        wit = report["whitney"]["witness"]
        assert wit["arc"] == "a = (1)*t^(1)"
        assert wit["wedge_index"] == [1, 2, 4]
        assert wit["value"] == "1"

    def test_depth_zero_is_inconclusive(self):
        report, code = run_json("check-whitney",
                                corpus_path("tangent-arc.json"), "--depth", 0)
        assert code == 2
        assert report["whitney"]["verdict"] == "Inconclusive"

    def test_crosscheck_agreement(self):
        report, code = run_json("crosscheck", corpus_path("family-352.json"))
        assert code == 0
        assert report["crosscheck"]["agree"] is True
        assert report["crosscheck"]["whitney"]["verdict"] == "Refuted"
        assert report["crosscheck"]["zariski"]["verdict"] == "Refuted"

    def test_zariski_away_from_origin(self):
        report, code = run_json("check-zariski",
                                corpus_path("family-352.json"),
                                "--basepoint", "1/2")
        assert code == 0
        assert report["zariski"]["verdict"] == "Verified"

    def test_strong_and_char_exponents(self):
        report, code = run_json("strong", corpus_path("family-467.json"))
        assert code == 0
        assert report["strong"]["verdict"] == "Refuted"

        report, code = run_json("char-exponents",
                                corpus_path("family-589.json"),
                                "--special-a", "1/2")
        assert code == 0
        shown = {v["display"] for v in report["char_exponents"].values()}
        assert shown == {"(5; 8)"}

    def test_rolle_family_path(self):
        report, code = run_json("rolle", corpus_path("family-345.json"),
                                "--rho", "y - z")
        assert code == 0
        cert = report["rolle"]
        assert cert["witness_poly"] == "-4*t + 3"
        assert cert["hurwitz_count"] == [3, 2]
        assert cert["approx_critical_point"] == {"re": 0.75, "im": 0.0}
        assert cert["fiber_distance"] == 0.25
        assert cert["separation_ok"] is True

    def test_rolle_curve_path(self):
        report, code = run_json("rolle", corpus_path("cusp-curve.json"),
                                "--functional=-1,1")
        assert code == 0
        assert report["curve"]["name"] == "cusp-curve"
        assert "family" not in report
        assert report["rolle"]["map_poly"] == "t^3 - t^2"
        assert report["rolle"]["witness_poly"] == "3*t - 2"

    def test_verify_equations(self, tmp_path):
        report, code = run_json("verify-equations",
                                corpus_path("family-345.json"),
                                "--equations",
                                corpus_path("family-345.eqs.json"))
        assert code == 0
        assert report["equations"]["all_vanish"] is True
        assert len(report["equations"]["checks"]) == 5

        bad = tmp_path / "bad.eqs.json"
        bad.write_text(json.dumps({"equations": ["y^4 - z^3", "x - y"]}))
        report, code = run_json("verify-equations",
                                corpus_path("family-345.json"),
                                "--equations", bad)
        assert code == 0
        assert report["equations"]["all_vanish"] is False
        flags = [c["vanishes"] for c in report["equations"]["checks"]]
        assert flags == [True, False]

    def test_generic_basepoint_is_one_point_per_report(self):
        report, _ = run_json("full-report", corpus_path("family-467.json"),
                             "--basepoint", "generic")
        whitney = report["whitney"]
        labels = {whitney["condition_a"]["basepoint"],
                  whitney["condition_b"]["basepoint"],
                  report["zariski"]["basepoint"]}
        assert labels == {"generic (g1)"}
        assert "basepoint (generic)" in report["strong"]["sequences"]

        report, _ = run_json("crosscheck", corpus_path("family-352.json"),
                             "--basepoint", "generic")
        cc = report["crosscheck"]
        labels = {cc["whitney"]["condition_a"]["basepoint"],
                  cc["whitney"]["condition_b"]["basepoint"],
                  cc["zariski"]["basepoint"]}
        assert labels == {"generic (g1)"}

    @pytest.mark.parametrize("basepoint, recenterings", [
        ("origin", 0), ("1/2", 1), ("generic", 1)])
    def test_one_recentering_per_report(self, basepoint, recenterings,
                                        monkeypatch, tmp_path):
        """``crosscheck`` and ``full-report`` recenter the family once
        and share it; their sections equal the reports of the single
        checks, which recenter on their own."""
        calls = []
        recenter = Parametrization.recenter

        def counted(self, a_value):
            calls.append(a_value)
            return recenter(self, a_value)

        monkeypatch.setattr(Parametrization, "recenter", counted)
        family = str(corpus_path("family-467.json"))

        def report(command, *extra):
            out = tmp_path / f"{command}.json"
            calls.clear()
            cli.main([command, family, "--basepoint", basepoint, *extra,
                      "--out", str(out)])
            return json.loads(out.read_text()), len(calls)

        full, n_full = report("full-report")
        cc, n_cc = report("crosscheck")
        assert (n_full, n_cc) == (recenterings, recenterings)
        whitney, _ = report("check-whitney")
        zariski, _ = report("check-zariski")
        assert full["whitney"] == cc["crosscheck"]["whitney"] == whitney["whitney"]
        assert full["zariski"] == cc["crosscheck"]["zariski"] == zariski["zariski"]
        for command in ("blowup", "nash"):
            section, _ = report(command)
            assert full[command] == section[command]
        if basepoint == "origin":
            golden = corpus_path("golden/family-467.full.json").read_text()
            assert (tmp_path / "full-report.json").read_text() == golden

    def test_negative_rationals_in_equals_form(self):
        report, code = run_json("check-whitney", corpus_path("family-345.json"),
                                "--basepoint=-1/2")
        assert code == 0
        assert report["whitney"]["condition_a"]["basepoint"] == "-1/2"

        report, code = run_json("char-exponents",
                                corpus_path("family-589.json"),
                                "--special-a=-2/3")
        assert code == 0
        assert "a = -2/3" in report["char_exponents"]

    def test_blowup_subcommand(self):
        report, code = run_json("blowup", corpus_path("family-345.json"))
        assert code == 0
        sec = report["blowup"]
        assert sec["construction"]["pruned"]["entries"] == ["a", "t"]
        assert sec["factorization"]["status"] == "verified"
        assert sec["whitney"]["verdict"] == "Verified"

    @pytest.mark.parametrize("command", ["blowup", "nash"])
    @pytest.mark.parametrize("name", ["family-352", "tangent-arc"])
    def test_modification_without_unit_chart_is_skipped(self, command, name):
        proc = run_cli(command, corpus_path(f"{name}.json"))
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr == ""
        report = json.loads(proc.stdout)
        golden = json.loads(corpus_path(f"golden/{name}.full.json").read_text())
        assert report[command] == golden[command] == {"skipped": golden[command]["skipped"]}


class TestErrors:
    def test_missing_file(self):
        proc = run_cli("check-whitney", "no-such-family.json")
        assert proc.returncode == 1
        assert proc.stderr.startswith("error:")

    def test_invalid_family(self, tmp_path):
        f = tmp_path / "notafamily.json"
        f.write_text(json.dumps({"entries": ["t", "t^2"]}))
        proc = run_cli("check-whitney", f)
        assert proc.returncode == 1
        assert "parameter" in proc.stderr

    def test_unknown_subcommand_and_bad_flag(self):
        assert run_cli("frobnicate", "x.json").returncode == 1
        proc = run_cli("check-whitney", corpus_path("family-345.json"),
                       "--basepoint", "oops")
        assert proc.returncode == 1

    @pytest.mark.parametrize("entry, message", [
        # forming it took 8.7 s before the parser's caps
        ("(t+a+1)^100", "entry z: power exceeds the cap of 100000 term products (offset 7)"),
        ("t^2 + " + "9" * 5000 + "*t^3", "entry z: number too long (offset 6)"),
    ], ids=["power-of-a-sum", "5000-digits"])
    def test_parser_cap_is_one_error_line(self, tmp_path, capsys, entry, message):
        family = tmp_path / "family.json"
        family.write_text(json.dumps({"entries": ["a", "t^2", entry]}))
        start = time.perf_counter()
        assert cli.main(["full-report", str(family)]) == 1
        assert time.perf_counter() - start < 2.0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize("command", ["check-whitney", "crosscheck", "full-report"])
    @pytest.mark.parametrize("depth", ["-1", "x"])
    def test_depth_must_be_a_nonnegative_integer(self, tmp_path, command, depth):
        # a negative depth never counted down to 0: the sweep refined forever
        family = tmp_path / "family.json"
        family.write_text(json.dumps(
            {"entries": ["a", "t^2*(a - a*t - t)", "t^3*(a - a*t - t)"]}))
        proc = subprocess.run(
            [sys.executable, "-m", "equising.cli", command, str(family),
             "--depth", depth], capture_output=True, text=True, timeout=30)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert [line for line in proc.stderr.splitlines() if "error:" in line] == [
            f"equising {command}: error: argument --depth: depth must be a "
            f"nonnegative integer, got '{depth}'"]
        assert cli.main(["check-whitney", str(family), "--depth", "4",
                         "--out", str(tmp_path / "out.json")]) == 0

    @pytest.mark.parametrize("command", ["check-whitney", "crosscheck", "full-report"])
    @pytest.mark.parametrize("depth", ["65", "9" * 5000], ids=["65", "5000-digits"])
    def test_depth_past_the_cap_is_refused(self, tmp_path, command, depth):
        # uncapped, this family's sweep grew with the square of the depth
        family = tmp_path / "family.json"
        family.write_text(json.dumps(
            {"entries": ["a", "t^2*(a - a*t - t)", "t^3*(a - a*t - t)"]}))
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "equising.cli", command, str(family),
             "--depth", depth], capture_output=True, text=True, timeout=30)
        assert time.perf_counter() - start < 5.0
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert [line for line in proc.stderr.splitlines() if "error:" in line] == [
            f"equising {command}: error: argument --depth: depth must be at "
            f"most {MAX_DEPTH}, got '{depth}'"]

    def test_depth_at_the_cap_finishes(self, tmp_path):
        family = tmp_path / "family.json"
        family.write_text(json.dumps(
            {"entries": ["a", "t^2*(a - a*t - t)", "t^3*(a - a*t - t)"]}))
        start = time.perf_counter()
        code = cli.main(["check-whitney", str(family), "--depth", str(MAX_DEPTH),
                         "--out", str(tmp_path / "out.json")])
        report = json.loads((tmp_path / "out.json").read_text())
        assert (code, report["whitney"]["verdict"]) == (0, "Refuted")
        assert time.perf_counter() - start < 10.0

    def test_rolle_flag_conflicts(self):
        proc = run_cli("rolle", corpus_path("family-345.json"))
        assert proc.returncode == 1
        assert "exactly one" in proc.stderr
        proc = run_cli("rolle", corpus_path("family-345.json"),
                       "--rho", "y", "--functional", "1,1,1,1")
        assert proc.returncode == 1

    @pytest.mark.parametrize("argv", [
        ["full-report", str(corpus_path("family-467.json")), "--at", "5"],
        ["rolle", str(corpus_path("cusp-curve.json")), "--functional=-1,1", "--at", "7"],
    ], ids=["full-report", "rolle-functional"])
    def test_at_without_rho_is_refused(self, capsys, argv):
        assert cli.main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --at selects the fiber of the --rho map and needs --rho\n"

    def test_rolle_rho_without_at_is_the_fiber_at_zero(self, tmp_path):
        reports = []
        for extra in ([], ["--at", "0"]):
            out = tmp_path / f"rolle{len(extra)}.json"
            assert cli.main(["rolle", str(corpus_path("family-345.json")), "--rho", "y - z",
                             *extra, "--out", str(out)]) == 0
            reports.append(out.read_text())
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("command", ["check-zariski", "check-whitney", "crosscheck",
                                         "blowup", "nash", "full-report", "strong"])
    def test_point_fiber_names_the_base_point(self, tmp_path, capsys, command):
        # a curve at a = 0 and a point at a = 1
        family = tmp_path / "family.json"
        family.write_text(json.dumps({"entries": ["a", "a*t^2 - t^2", "a*t^3 - t^3"]}))
        assert cli.main([command, str(family), "--basepoint", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: the fiber at a = 1 is a point, not a curve\n"

    def test_rolle_constant_map(self):
        proc = run_cli("rolle", corpus_path("family-345.json"), "--rho", "x")
        assert proc.returncode == 1
        assert "constant" in proc.stderr

    def test_curve_parse_error_names_its_entry(self, tmp_path, capsys):
        curve = tmp_path / "curve.json"
        curve.write_text(json.dumps({"entries": ["t^2", "t^3 + (t"]}))
        assert cli.main(["rolle", str(curve), "--functional", "1,1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {curve}: entry 2: expected ')' (offset 8)\n"

    def test_rolle_curve_input_errors(self, tmp_path):
        bad = tmp_path / "bad-curve.json"
        bad.write_text(json.dumps({"entries": []}))
        proc = run_cli("rolle", bad, "--functional", "1")
        assert proc.returncode == 1
        assert proc.stderr.startswith("error:") and "nonempty list" in proc.stderr
        proc = run_cli("rolle", corpus_path("cusp-curve.json"),
                       "--functional", "1")
        assert proc.returncode == 1
        assert proc.stderr == "error: functional needs 2 coefficients, got 1\n"

    def test_empty_equation_variables(self, tmp_path):
        eqs = tmp_path / "eqs.json"
        eqs.write_text(json.dumps({"equations": ["1"], "vars": []}))
        proc = run_cli("verify-equations", corpus_path("family-345.json"),
                       "--equations", eqs)
        assert proc.returncode == 1
        assert proc.stderr == "error: eqs.json: 'vars' must not be empty\n"

    @pytest.mark.parametrize("ambient", [5, "xyz", [1, 2], None])
    def test_ambient_must_be_a_list_of_strings(self, tmp_path, ambient):
        f = tmp_path / "fam.json"
        f.write_text(json.dumps({"entries": ["a", "t^2"], "ambient": ambient}))
        proc = run_cli("check-whitney", f)
        assert proc.returncode == 1
        assert proc.stderr == "error: fam.json: 'ambient' must be a list of strings\n"

    @pytest.mark.parametrize("key, value", [
        ("equations", [3]), ("equations", "x - y"), ("vars", 7), ("vars", ["x", 2]),
    ])
    def test_equations_and_vars_must_be_lists_of_strings(self, tmp_path, key, value):
        eqs = tmp_path / "eqs.json"
        eqs.write_text(json.dumps({"equations": ["y - z"], key: value}))
        proc = run_cli("verify-equations", corpus_path("family-345.json"),
                       "--equations", eqs)
        assert proc.returncode == 1
        assert proc.stderr == f"error: eqs.json: '{key}' must be a list of strings\n"

    @pytest.mark.parametrize("argv, want_code", [
        (["full-report", corpus_path("family-345.json")], 0),
        (["check-whitney", corpus_path("family-352.json"), "--format", "text"], 0),
        (["check-whitney", corpus_path("tangent-arc.json"), "--depth", "0"], 2),
    ])
    def test_closed_pipe_keeps_exit_code_without_traceback(self, argv, want_code):
        # the read end is closed before the report is written, as when
        # `| head -c 10` exits early
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "equising.cli", *map(str, argv)],
                stdout=write_end, stderr=subprocess.PIPE, text=True)
        finally:
            os.close(write_end)
        assert proc.returncode == want_code
        assert proc.stderr == ""

    def test_checker_value_error_is_not_an_input_error(self, monkeypatch):
        def broken(*args, **kwargs):
            raise ValueError("checker bug")

        monkeypatch.setattr(cli, "whitney_check", broken)
        with pytest.raises(ValueError, match="checker bug"):
            cli.main(["check-whitney", str(corpus_path("family-345.json"))])

    def test_version_and_help_exit_zero(self):
        proc = run_cli("--version")
        assert proc.returncode == 0
        assert proc.stdout.strip() == "equising 0.1.0"
        assert run_cli("--help").returncode == 0


TIMED_RUNS = """
import json, sys, time
from equising import cli
times = []
for argv in json.loads(sys.argv[1]):
    start = time.perf_counter()
    code = cli.main(argv)
    times.append((code, time.perf_counter() - start))
print(json.dumps(times))
"""


class TestSharedLowestOrder:
    """Two coordinates share the lowest t-order.  A generic projection's
    leading coefficient is then a sum of symbols, and the strong check used
    to run for minutes; it must now finish within a second."""

    @pytest.mark.parametrize("entries, extra, expected", [
        (["a", "t^3", "a*t^3", "t^4"], [],
         {"generic": "(3; 4)", "a = 0": "(3; 4)"}),
        (["a", "t^5", "t^4", "a^3*t^4"], [],
         {"generic": "(4; 5)", "a = 0": "(4; 5)"}),
        (["a", "t^6", "t^3", "a^2*t^3"], [],
         {"generic": "(3;)", "a = 0": "(3;)"}),
        (["a", "5*t^5", "-8*t^4", "5*a^3*t^4 + 4*a^3*t^5"],
         ["--special-a", "1/2"],
         {"generic": "(4; 5)", "a = 0": "(4; 5)", "a = 1/2": "(4; 5)"}),
        (["a", "4*t^5", "-3*a^3*t^7", "5*a*t^5", "-4*a*t^7"], [],
         {"generic": "(5; 7)", "a = 0": "(5;)"}),
    ])
    def test_strong_and_full_report_within_a_second(self, tmp_path, entries,
                                                    extra, expected):
        family = tmp_path / "family.json"
        family.write_text(json.dumps({"entries": entries}))
        commands = ("strong", "full-report")
        runs = [[command, str(family), *extra, "--out",
                 str(tmp_path / f"{command}.json")] for command in commands]
        proc = subprocess.run(
            [sys.executable, "-c", TIMED_RUNS, json.dumps(runs)],
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        for (code, seconds), command in zip(json.loads(proc.stdout), commands):
            assert code in (0, 2)
            assert seconds < 1.0, (command, seconds)
            report = json.loads((tmp_path / f"{command}.json").read_text())
            shown = {label: seq["display"]
                     for label, seq in report["strong"]["sequences"].items()}
            assert shown == expected


class TestLargeExponents:
    """Exponents of 2000, past the interpreter's recursion limit: building
    powers in ``Poly.compose`` must not take one stack frame per unit of
    the exponent."""

    @pytest.mark.parametrize("entries, agree, verdict", [
        (["a", "t^2", "t^2001"], True, "Verified"),
        (["a", "a^2000*t + t^2", "t^3"], None, "Refuted"),
    ])
    def test_crosscheck_and_strong(self, tmp_path, entries, agree, verdict):
        family = tmp_path / "family.json"
        family.write_text(json.dumps({"entries": entries}))
        for command in ("crosscheck", "strong"):
            out = tmp_path / f"{command}.json"
            code = cli.main([command, str(family), "--out", str(out)])
            report = json.loads(out.read_text())
            if command == "crosscheck":
                assert report["crosscheck"]["agree"] is agree
                assert code == (0 if agree else 2)
            else:
                assert report["strong"]["verdict"] == verdict
                assert code == 0


class TestHugeCoefficients:
    """9^9999 has 9,543 digits, more than the interpreter prints: the
    family is refused when it is loaded, before any report is built."""

    @pytest.mark.parametrize("command",
                             ["check-zariski", "check-whitney", "strong", "full-report"])
    @pytest.mark.parametrize("entry", ["t^2 + 9^9999*t^3", "t^2 + 1/9^9999*t^3"])
    def test_refused_with_message(self, tmp_path, capsys, command, entry):
        family = tmp_path / "family.json"
        family.write_text(json.dumps({"entries": ["a", entry]}))
        assert cli.main([command, str(family)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: entry y has a coefficient of more than "
                                f"{MAX_COEFF_DIGITS} digits\n")

    def test_coefficients_at_the_cap_are_reported(self, tmp_path):
        big = "9" * MAX_COEFF_DIGITS
        family = tmp_path / "family.json"
        family.write_text(json.dumps({"entries": [
            "a", f"t^2 + {big}*a*t^3 + 1/{big}*t^5", f"a*t^3 + {big}*t^5 + a^2*t^2"]}))
        for command in ("check-zariski", "check-whitney", "strong"):
            assert cli.main([command, str(family), "--basepoint=-2"]) == 0
        assert cli.main(["full-report", str(family), "--basepoint=1/2"]) == 2
        assert cli.main(["full-report", str(family), "--basepoint=-2"]) == 2

    def test_recentering_past_the_print_limit_is_refused(self, tmp_path, capsys):
        # a^5 at a 1,000-digit base point has about 5,000 digits, past what
        # the interpreter prints
        family = tmp_path / "f.json"
        family.write_text(json.dumps({"entries": ["a", "t^2", "a^5*t^3"]}))
        assert cli.main(["full-report", str(family), "--basepoint", "1" + "0" * 999]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: entry z recentered on the base point has a "
                                f"coefficient of more than {MAX_CENTERED_DIGITS} digits\n")

    def test_large_recentered_entry_is_refused_before_it_is_expanded(self, tmp_path, capsys):
        # expanding (a + a0)^9990 at a 1,000-digit a0 ran past 10 s before
        # the entry was refused; a bound on a0^9990 refuses it unexpanded
        family = tmp_path / "f.json"
        family.write_text(json.dumps({"entries": ["a", "t^2", "a^9990*t^3"]}))
        start = time.perf_counter()
        code = cli.main(["check-zariski", str(family), "--basepoint", "1" + "0" * 999])
        assert time.perf_counter() - start < 1.0
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: entry z recentered on the base point has a "
                                f"coefficient of more than {MAX_CENTERED_DIGITS} digits\n")

    @pytest.mark.parametrize("command", ["strong", "char-exponents"])
    @pytest.mark.parametrize("flag, where", [("--basepoint", "the base point"),
                                             ("--special-a", "special value 1")])
    def test_large_fiber_of_the_strong_check_is_refused_before_it_is_formed(
            self, tmp_path, capsys, command, flag, where):
        # forming a0^9990 at a 1,000-digit a0 for the fiber ran 10 s and
        # exited 0; the bound that refuses recentering refuses the fiber
        family = tmp_path / "f.json"
        family.write_text(json.dumps({"entries": ["a", "t^2", "a^9990*t^3"]}))
        start = time.perf_counter()
        code = cli.main([command, str(family), flag, "1" + "0" * 999])
        assert time.perf_counter() - start < 1.0
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: entry z at {where} has a "
                                f"coefficient of more than {MAX_CENTERED_DIGITS} digits\n")

    def test_map_that_cancels_a_large_fiber_coefficient_is_certified(self, tmp_path):
        # the fiber at --at has a coefficient past the bound, but y - z
        # cancels it: rolle forms the fiber and certifies the small map
        family = tmp_path / "f.json"
        family.write_text(json.dumps({"entries": ["a", "t^2 + a^2*t^3", "a^2*t^3 + t^5"]}))
        out = tmp_path / "rolle.json"
        argv = ["rolle", str(family), "--rho", "y - z", "--at", "1" + "0" * 999, "--out", str(out)]
        assert cli.main(argv) == 0
        cert = json.loads(out.read_text())["rolle"]
        assert (cert["map_poly"], cert["separation_ok"]) == ("-1*t^5 + t^2", True)

    @pytest.mark.parametrize("command", ["rolle", "full-report"])
    def test_map_past_the_print_limit_at_a_value_is_refused(self, tmp_path, capsys, command):
        # the same a^5 on the fiber at a 1,000-digit --at: the composed map
        # has a coefficient of about 5,000 digits
        family = tmp_path / "f.json"
        family.write_text(json.dumps({"entries": ["a", "t^2", "a^5*t^3"]}))
        argv = [command, str(family), "--rho", "y - z", "--at", "1" + "0" * 999]
        assert cli.main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: the map composed with the fiber has a "
                                f"coefficient of more than {MAX_CENTERED_DIGITS} digits\n")

    @pytest.mark.parametrize("path, what", [
        ("curve", "entry 2"),
        ("rho", "--rho"),
        ("full-report-rho", "--rho"),
        ("equations", "equation 1"),
        ("functional", "the functional"),
    ])
    def test_every_outside_coefficient_is_capped(self, tmp_path, capsys, path, what):
        curve = tmp_path / "curve.json"
        curve.write_text(json.dumps({"entries": ["t^2", "t^3 + 9^9999*t^4"]}))
        equations = tmp_path / "eqs.json"
        equations.write_text(json.dumps({"equations": ["y - 9^9999*z"]}))
        family = str(corpus_path("family-345.json"))
        argv = {
            "curve": ["rolle", str(curve), "--functional=-1,1"],
            "rho": ["rolle", family, "--rho", "y - 9^9999*z"],
            "full-report-rho": ["full-report", family, "--rho", "y - 9^9999*z"],
            "equations": ["verify-equations", family, "--equations", str(equations)],
            "functional": ["rolle", str(corpus_path("cusp-curve.json")),
                           "--functional=-1,1" + "0" * MAX_COEFF_DIGITS],
        }[path]
        assert cli.main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert (f"{what} has a coefficient of more than {MAX_COEFF_DIGITS} digits\n"
                in captured.err)
        assert "Traceback" not in captured.err

    def test_coefficient_outside_float_range_keeps_the_exact_proof(self, tmp_path):
        # 401 digits is under the cap but past the float range: the
        # illustration is left out and the exact separation still reported
        family = tmp_path / "family.json"
        family.write_text(json.dumps(
            {"entries": ["a", "t^2", "t^3 + 1" + "0" * 400 + "*t^4"]}))
        for command, want_code in (("rolle", 0), ("full-report", 2)):
            out = tmp_path / f"{command}.json"
            code = cli.main([command, str(family), "--rho", "y - z", "--out", str(out)])
            assert code == want_code
            cert = json.loads(out.read_text())["rolle"]
            assert cert["witness_needed"] is True
            assert cert["separation_ok"] is True
            assert "approx_critical_point" not in cert


class TestImport:
    def test_cli_imports_without_numpy(self):
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, equising.cli; print('numpy' in sys.modules)"],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"
