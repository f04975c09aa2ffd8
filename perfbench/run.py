"""The equising benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload fuzz-crosscheck --seed 3 --seconds 30 --trace 0

Workloads (see ``workloads.py``): ``corpus-cli``, ``fuzz-crosscheck``,
``fuzz-binomial`` and ``fuzz-strong``.  Load is a closed loop with one
client: one family at a time, in one worker process (``corpus-cli`` starts
one ``equising.cli`` process per family instead).

With ``--trace 0`` the run reports the end-to-end metrics, timed with
tracing off; with ``--trace 1`` it runs the same families once untraced and
once traced, in two fresh processes, and reports the per-layer metrics and
the tracing overhead.  Spans go to ``perfbench/out/``.  Every output is
checked; the last stdout line is the JSON result.  The run fails (exit 2,
no result) when the checkout lacks the sources or the corpus.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 5
RUN_LIMIT_S = 170.0        # the whole run, every child included

END_TO_END = (
    ("families_per_s", "1/s"),
    ("family_p50_ms", "ms"),
    ("family_p90_ms", "ms"),
    ("passed_frac", "ratio"),
    ("decisive_frac", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


class Child:
    """Start a child process and collect its output, exit code, wall time
    and peak resident memory (from ``wait4``)."""

    def __init__(self, argv: list[str], deadline: float):
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
                   PYTHONDONTWRITEBYTECODE="1")
        self.start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        timer = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
        timer.start()
        err: list[bytes] = []
        reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
        reader.start()
        try:
            self.stdout = proc.stdout.read()
            reader.join()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            proc.stdout.close()
            proc.stderr.close()
        self.wall_s = time.perf_counter() - self.start
        proc.returncode = self.code = os.waitstatus_to_exitcode(status)
        self.stderr = err[0].decode(errors="replace") if err else ""
        self.rss_mb = usage.ru_maxrss / 1024.0

    def json(self) -> dict:
        if self.code != 0:
            raise RuntimeError(f"worker exited {self.code}: {self.stderr[-2000:]}")
        return json.loads(self.stdout)


def worker(workload: str, seed: int, deadline: float, *args: str) -> Child:
    return Child([sys.executable, str(HERE / "worker.py"), workload,
                  "--seed", str(seed), *args], deadline)


def environment() -> dict:
    def version(dist: str) -> str:
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return "absent"

    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "numpy": version("numpy"),
        "sympy": version("sympy"),
        "commit": commit_hash(),
    }


def commit_hash() -> str:
    """HEAD of the checkout's git repository, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


# -- end-to-end runs (tracing off) ------------------------------------------

def setup_seconds(workload: str, seed: int, deadline: float) -> float:
    """Median wall time of fresh processes that import equising and build
    the run's inputs."""
    walls = []
    for _ in range(SETUP_REPEATS):
        child = worker(workload, seed, deadline, "--setup-only")
        child.json()
        walls.append(child.wall_s)
    return statistics.median(walls)


def measure_fuzz(workload: str, seed: int, seconds: float, deadline: float):
    child = worker(workload, seed, deadline, "--seconds", str(seconds))
    res = child.json()
    n = len(res["times"])
    return (res["times"], res["wall_s"], n - res["ok"], res["decisive"],
            child.rss_mb, res["errors"])


def corpus_passes(seed: int, seconds: float):
    """Passes over the golden commands, each in seeded order, while the
    next pass is expected to end within ``seconds`` (at least one)."""
    rng = random.Random(f"corpus-cli:{seed}")
    commands = workloads.golden_commands(ROOT)
    start = time.perf_counter()
    done = 0
    while True:
        pass_start = time.perf_counter()
        yield rng.sample(commands, len(commands))
        done += 1
        if not workloads.keep_going(done, start, pass_start, seconds, None):
            return


def measure_corpus(seed: int, seconds: float, deadline: float):
    """Golden full-report commands, each in a fresh process."""
    times: list[float] = []
    failed = 0
    rss = 0.0
    errors: list[str] = []
    start = time.perf_counter()
    for commands in corpus_passes(seed, seconds):
        for name, argv, want_code, golden in commands:
            child = Child([sys.executable, "-m", "equising.cli", *argv], deadline)
            times.append(child.wall_s)
            rss = max(rss, child.rss_mb)
            if child.code != want_code or child.stdout != golden:
                failed += 1
                errors.append(f"{name}: exit {child.code}, stdout differs: "
                              f"{child.stdout != golden}; {child.stderr[-300:]}")
    wall = time.perf_counter() - start
    # exit 2 is inconclusive only where the golden run expects 0, which
    # the check already counts as a failure
    return times, wall, failed, len(times) - failed, rss, errors


def end_to_end(workload: str, seed: int, seconds: float, deadline: float):
    setup_s = setup_seconds(workload, seed, deadline)
    if workload == "corpus-cli":
        got = measure_corpus(seed, seconds, deadline)
    else:
        got = measure_fuzz(workload, seed, seconds, deadline)
    times, wall, failed, decisive, rss, errors = got
    n = len(times)
    ms = [1000.0 * t for t in times]
    metrics = {
        "families_per_s": n / wall,
        "family_p50_ms": statistics.median(ms),
        "family_p90_ms": statistics.quantiles(ms, n=10, method="inclusive")[-1],
        "passed_frac": (n - failed) / n,
        "decisive_frac": decisive / n,
        "setup_s": setup_s,
        "peak_rss_mb": rss,
    }
    print(f"{workload} seed {seed}: {n} families in {wall:.2f} s; p50 over "
          f"{n} samples, {n - int(0.9 * n)} beyond p90; setup median of "
          f"{SETUP_REPEATS}")
    return n, failed, metrics, errors


# -- traced run ---------------------------------------------------------------

def traced_fuzz(workload: str, seed: int, seconds: float, deadline: float):
    plain = worker(workload, seed, deadline, "--seconds", str(seconds / 2)).json()
    n = len(plain["times"])
    traced = worker(workload, seed, deadline, "--passes", str(plain["passes"]),
                    "--trace").json()
    failed = (n - plain["ok"]) + (n - traced["ok"])
    metrics = tracing.summarize(
        traced["spans"], traced["counts"], wall_s=traced["wall_s"],
        untraced_wall_s=plain["wall_s"], import_s=traced["import_s"])
    return 2 * n, failed, metrics, traced["spans"], plain["errors"] + traced["errors"]


def traced_corpus(seed: int, seconds: float, deadline: float):
    """Each golden command twice per pass, in-process through
    ``equising.cli.main``: once plain, once traced."""
    spans, counts, imports = [], {}, []
    wall = plain_wall = 0.0
    n = failed = 0
    errors: list[str] = []
    for commands in corpus_passes(seed, seconds):
        for name, _, want_code, golden in commands:
            plain = worker("corpus-cli", seed, deadline, "--cli", name).json()
            traced = worker("corpus-cli", seed, deadline, "--cli", name,
                            "--trace").json()
            for res in (plain, traced):
                if res["code"] != want_code or res["stdout"].encode() != golden:
                    failed += 1
                    errors.append(f"{name}: exit {res['code']}, stdout differs")
            n += 2
            plain_wall += plain["wall_s"]
            wall += traced["wall_s"]
            imports.append(traced["import_s"])
            spans.append(traced["spans"])
            for key, value in traced["counts"].items():
                counts[key] = counts.get(key, 0) + value
    spans = tracing.merge_spans(spans)
    metrics = tracing.summarize(
        spans, counts, wall_s=wall, untraced_wall_s=plain_wall,
        import_s=statistics.median(imports))
    return n, failed, metrics, spans, errors


def per_layer(workload: str, seed: int, seconds: float, deadline: float):
    if workload == "corpus-cli":
        n, failed, metrics, spans, errors = traced_corpus(seed, seconds, deadline)
    else:
        n, failed, metrics, spans, errors = traced_fuzz(
            workload, seed, seconds, deadline)
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    path = out / f"trace-{workload}-seed{seed}.jsonl"
    tracing.write_spans(path, spans)
    print(f"{workload} seed {seed}: {n} family runs checked, half of them "
          f"traced; {len(spans)} spans "
          f"written to {path.relative_to(ROOT)}; tracing overhead "
          f"{metrics['trace.overhead_s']:.3f} s")
    return n, failed, metrics, errors


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    missing = [p for p in ("src/equising/__init__.py", "corpus/golden")
               if not (ROOT / p).exists()]
    if missing:
        print(f"error: checkout lacks {', '.join(missing)}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    print("environment " + json.dumps(environment(), sort_keys=True))
    if args.trace:
        n, failed, values, errors = per_layer(
            args.workload, args.seed, args.seconds, deadline)
        units = {name: unit for name, unit, _ in tracing.PER_LAYER}
    else:
        n, failed, values, errors = end_to_end(
            args.workload, args.seed, args.seconds, deadline)
        units = dict(END_TO_END)
    for line in errors[:10]:
        print("failure: " + line)
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}
    print(json.dumps({"correct": failed == 0, "attempted": n,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
