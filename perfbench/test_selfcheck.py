"""Self-check of the benchmark.  Run from the repository root:

    python3 -m pytest -q perfbench

A smoke-size run of every workload must finish with no failed family and
report exactly the metrics ``BENCHMARK.json`` declares; the exponent oracle
of ``fuzz-strong`` must agree with the library on the corpus and its
modifications; and a directory holding only the benchmark must make it
fail without a result.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from equising import (  # noqa: E402
    blowup_singular_locus,
    family_from_strings,
    load_family,
    nash_modification,
    strong_equisingularity_check,
)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_spec_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_smoke_run_has_no_failures(workload):
    proc = bench("--workload", workload, "--seed", "7", "--seconds", "1",
                 "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, proc.stdout
    assert result["attempted"] >= 1
    assert result["metrics"]["passed_frac"]["value"] == 1.0
    spec = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == spec


def test_traced_run_reports_every_layer_metric():
    proc = bench("--workload", "fuzz-binomial", "--seed", "7", "--seconds", "2",
                 "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"], proc.stdout
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    assert metrics["limits.whitney.calls"] >= 1
    assert metrics["algebra.substitute_arc.calls"] >= 1
    # self times of the root spans and the remainder add up to the wall time
    assert metrics["trace.self_sum_s"] + metrics["trace.remainder_s"] == \
        pytest.approx(metrics["trace.wall_s"])
    assert 0 <= metrics["trace.remainder_s"] < metrics["trace.wall_s"]


def test_bare_benchmark_directory_fails(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", "fuzz-crosscheck", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def _corpus_and_modifications():
    for name in ("family-345", "family-352", "family-467", "family-589"):
        family = load_family(ROOT / "corpus" / f"{name}.json")
        yield name, family
        for build in (blowup_singular_locus, nash_modification):
            try:
                yield f"{name} {build.__name__}", build(family).family
            except ValueError:      # no unit chart: nothing to compare
                pass


def test_exponent_oracle_agrees_with_strong_check():
    seen = set()
    for label, family in _corpus_and_modifications():
        result = strong_equisingularity_check(family)
        ok, _ = workloads.check_strong(family, result)
        assert ok, label
        seen.add(tuple(seq.display() for _, seq in result.sequences))
    assert {("(5; 8)", "(5; 8)"), ("(4; 6, 7)", "(4; 7)"),
            ("(3; 4)", "(3; 5)")} <= seen


def test_oracle_sequences():
    assert workloads.monomial_char_sequence([5, 8, 9]) == (5, (8,), 1)
    assert workloads.monomial_char_sequence([4, 6, 7]) == (4, (6, 7), 1)
    assert workloads.monomial_char_sequence([4, 8]) == (4, (), 4)


@pytest.mark.parametrize("workload", sorted(workloads.STRUCTURES))
def test_pass_families_are_valid_and_seeded(workload):
    blocks = workloads.passes(workload, 3, 2)
    assert blocks == workloads.passes(workload, 3, 2)
    assert blocks != workloads.passes(workload, 4, 2)
    for entries in blocks[0] + blocks[1]:
        family_from_strings(entries)
