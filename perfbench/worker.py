"""One measured process of the benchmark; started by ``run.py``.

Every measured run gets a fresh interpreter: generic symbols come from one
counter per process, so a second run in the same process would see other
symbol names than the first.  The worker imports equising from the
checkout's ``src``, builds the inputs of (workload, seed), and then, as
asked:

* ``--setup-only``: stops there (``run.py`` times the whole process);
* ``--seconds S``: runs whole passes over the design, one family at a
  time, while the next pass is expected to end within S seconds (at least
  one pass);
* ``--passes N``: runs N passes;
* ``--cli NAME``: runs one golden full-report through ``equising.cli.main``.

``--trace`` records spans around the library's layers while doing so.
The result is one JSON object on stdout.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
import time
from itertools import cycle
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracing  # noqa: E402
import workloads  # noqa: E402


def import_equising() -> float:
    """Import the checkout's equising (all modules) and return the time."""
    t0 = time.perf_counter()
    import equising.cli
    elapsed = time.perf_counter() - t0
    src = (ROOT / "src").resolve()
    if src not in Path(equising.__file__).resolve().parents:
        raise SystemExit(f"equising imported from {equising.__file__}, "
                         f"not from {src}")
    return elapsed


def run_check(kind: str, entries: list[str]):
    """Parse one family and run its check; return (ok, decisive)."""
    from equising import family_from_strings

    family = family_from_strings(entries)
    if kind == "crosscheck":
        from equising import equivalence_crosscheck
        return workloads.check_crosscheck(equivalence_crosscheck(family))
    from equising import strong_equisingularity_check
    return workloads.check_strong(family, strong_equisingularity_check(family))


def fuzz_loop(workload: str, blocks, seconds: float | None,
              passes: int | None, rec: tracing.Recorder | None) -> dict:
    """Whole passes over the design, one family at a time."""
    kind = workloads.WORKLOADS[workload][0]
    check = run_check if rec is None else rec.wrap(tracing.ROOT, run_check)
    times: list[float] = []
    ok = decisive = done = 0
    errors: list[str] = []
    start = time.perf_counter()
    for block in cycle(blocks):
        pass_start = time.perf_counter()
        for entries in block:
            if rec is not None:
                rec.family = len(times)
            t0 = time.perf_counter()
            try:
                good, dec = check(kind, entries)
                problem = "wrong output"
            except Exception as exc:  # a raised check counts as a failed family
                good, dec = False, False
                problem = f"{type(exc).__name__}: {exc}"
            times.append(time.perf_counter() - t0)
            if not good and len(errors) < 5:
                errors.append(f"{entries}: {problem}")
            ok += good
            decisive += dec
        done += 1
        if not workloads.keep_going(done, start, pass_start, seconds, passes):
            break
    return {"times": times, "ok": ok, "decisive": decisive, "passes": done,
            "wall_s": time.perf_counter() - start, "errors": errors}


def cli_once(name: str, rec: tracing.Recorder | None) -> dict:
    """One golden full-report inside this process, stdout captured."""
    from equising import cli

    flags, _ = workloads.GOLDEN_RUNS[name]
    argv = ["full-report", f"corpus/{name}.json", *flags]
    buf = io.StringIO()
    main = cli.main if rec is None else rec.wrap(tracing.ROOT, cli.main)
    if rec is not None:
        rec.family = name
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return {"code": code, "stdout": buf.getvalue(),
            "wall_s": time.perf_counter() - t0}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--setup-only", action="store_true")
    mode.add_argument("--seconds", type=float)
    mode.add_argument("--passes", type=int)
    mode.add_argument("--cli", choices=sorted(workloads.GOLDEN_RUNS))
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)

    import_s = import_equising()
    rec = None
    if args.trace:
        rec = tracing.Recorder()
        tracing.install(rec)

    if args.cli is not None:
        result = cli_once(args.cli, rec)
    elif args.workload == "corpus-cli":
        from equising import load_family
        for name in workloads.GOLDEN_RUNS:
            load_family(ROOT / "corpus" / f"{name}.json")
        workloads.golden_commands(ROOT)
        result = {}
    else:
        blocks = workloads.passes(args.workload, args.seed, workloads.PASSES)
        result = {} if args.setup_only else fuzz_loop(
            args.workload, blocks, args.seconds, args.passes, rec)

    result["import_s"] = import_s
    if rec is not None:
        result["spans"] = rec.spans
        result["counts"] = dict(rec.counts)
    json.dump(result, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
