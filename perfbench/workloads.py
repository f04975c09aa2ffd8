"""The benchmark's workloads: seeded input generators and output checks.

The generators copy the shapes of the test suite's fuzzers instead of
importing ``tests/conftest.py``, so edits to the tests cannot move the
benchmark.  Inputs depend only on (workload, seed); the library sees only
the generated entry strings and the corpus files.
"""

from __future__ import annotations

import random
import time
from math import gcd
from pathlib import Path

# name -> (subcommand flags, expected exit code); the same runs as the
# golden report tests
GOLDEN_RUNS = {
    "family-345": (["--equations", "corpus/family-345.eqs.json",
                    "--rho", "y - z"], 0),
    "family-352": ([], 2),
    "family-467": ([], 0),
    "family-589": ([], 0),
    "tangent-arc": ([], 2),
}

# workload -> (check run on each family, structures per pass); why each
# workload is there, its shape and its default seed are in BENCHMARK.json
WORKLOADS = {
    "corpus-cli": (None, 5),
    "fuzz-crosscheck": ("crosscheck", 70),
    "fuzz-binomial": ("crosscheck", 80),
    "fuzz-strong": ("strong", 50),
}
DEFAULT_SEED = 1
PASSES = 40     # passes generated in set-up; a faster program reuses them

# A run is made of passes over one fixed design of family structures (the
# (a, t) exponents of every term), drawn once per workload from the shapes
# below.  The seed draws each pass's coefficients and coordinate order.
# Drawing the structures per seed instead left the run-to-run spread of
# throughput and percentiles at 10-40% of the median in 25 s runs: a few
# structures cost 10-30 times the median, and which of them a seed drew
# dominated the result.  Complete passes also keep the measured mix the
# same however fast the program is.


def _monomials(rng: random.Random, max_extra: int, max_exp: int):
    """2..max_extra monomial entries a^i*t^j, i <= max_exp, 1 <= j <= max_exp."""
    return [[(rng.randint(0, max_exp), rng.randint(1, max_exp))]
            for _ in range(rng.randint(2, max_extra))]


def crosscheck_structure(rng: random.Random):
    """Shape of the criterion-6 fuzzer: max_extra=4, max_exp=8."""
    return _monomials(rng, 4, 8)


def binomial_structure(rng: random.Random):
    """2-3 entries of 1-2 terms a^i*t^j, i <= 3, 1 <= j <= 6."""
    return [sorted({(rng.randint(0, 3), rng.randint(1, 6))
                    for _ in range(rng.randint(1, 2))})
            for _ in range(rng.randint(2, 3))]


def _lowest_unique(orders: list[int]) -> bool:
    return not orders or orders.count(min(orders)) == 1


def strong_structure(rng: random.Random):
    """Monomial shape max_extra=3, max_exp=8, with the lowest t-order held by
    one entry on the generic fiber and on the a = 0 fiber.

    Two entries sharing the lowest t-order make the projected leading
    coefficient a sum of generic symbols, and the strong check then takes
    seconds to minutes per family ((a, t^3, a*t^3, t^4) ran over 40 s), which
    no fixed-length run can hold, so such draws are redrawn.
    """
    while True:
        entries = _monomials(rng, 3, 8)
        exps = [e[0] for e in entries]
        if _lowest_unique([j for _, j in exps]) and \
                _lowest_unique([j for i, j in exps if i == 0]):
            return entries


STRUCTURES = {
    "fuzz-crosscheck": crosscheck_structure,
    "fuzz-binomial": binomial_structure,
    "fuzz-strong": strong_structure,
}


def design(workload: str) -> list[list[list[tuple[int, int]]]]:
    """The workload's fixed family structures, one pass worth.

    A structure is valid when its fiber at a = 0 is a curve, i.e. some
    term is free of a; invalid draws are redrawn, as the test fuzzers do
    when validation fails.
    """
    rng = random.Random(f"{workload}:design")
    make = STRUCTURES[workload]
    out = []
    while len(out) < WORKLOADS[workload][1]:
        entries = make(rng)
        if any(i == 0 for entry in entries for i, _ in entry):
            out.append(entries)
    return out


def _term(i: int, j: int, c: int) -> str:
    text = "t" if j == 1 else f"t^{j}"
    if i == 1:
        text = "a*" + text
    elif i > 1:
        text = f"a^{i}*" + text
    return text if c == 1 else f"{c}*{text}"


def passes(workload: str, seed: int, count: int) -> list[list[list[str]]]:
    """Entry strings of ``count`` passes over the design for (workload, seed):
    every term gets a coefficient in +-1..9 and the coordinates (after the
    parameter entry) a random order.  Parsing is left to the measured loop.
    """
    rng = random.Random(f"{workload}:{seed}")
    structures = design(workload)
    out = []
    for _ in range(count):
        block = []
        for entries in structures:
            texts = [" + ".join(_term(i, j, rng.choice((-1, 1)) * rng.randint(1, 9))
                                for i, j in entry).replace("+ -", "- ")
                     for entry in entries]
            rng.shuffle(texts)
            block.append(["a"] + texts)
        out.append(block)
    return out


def keep_going(passes_done: int, start: float, pass_start: float,
               seconds: float | None, want_passes: int | None) -> bool:
    """Whether to start another pass: ``want_passes`` of them, or while the
    next one is expected to end within ``seconds``."""
    if want_passes is not None:
        return passes_done < want_passes
    now = time.perf_counter()
    return (now - start) + (now - pass_start) <= seconds


# -- checks ----------------------------------------------------------------
# Each returns (ok, decisive).  ok False is a wrong output.

def check_crosscheck(result) -> tuple[bool, bool]:
    """The two criteria must never disagree decisively."""
    return result.agree is not False, result.agree is not None


def monomial_char_sequence(t_orders) -> tuple[int, tuple[int, ...], int]:
    """(beta0, betas, final gcd) of the monomial curve (t^e for e in E).

    beta0 is min E; each exponent not divisible by the running gcd, in
    increasing order, is characteristic.  Shares no arithmetic with the
    library's series scan.
    """
    exps = sorted(set(t_orders))
    d = exps[0]
    betas = []
    for e in exps[1:]:
        if e % d:
            betas.append(e)
            d = gcd(d, e)
    return exps[0], tuple(betas), d


def fiber_orders(family) -> tuple[list[int], list[int]]:
    """t-exponents of the generic and a = 0 fibers of a monomial family."""
    generic, special = [], []
    for entry in family.entries[1:]:
        (i, j), = entry.support()
        generic.append(j)
        if i == 0:
            special.append(j)
    return generic, special


def check_strong(family, result) -> tuple[bool, bool]:
    """Confirmed sequences must match the monomial oracle."""
    generic, special = fiber_orders(family)
    expected = {"generic": monomial_char_sequence(generic),
                "a = 0": monomial_char_sequence(special)}
    ok = True
    for label, seq in result.sequences:
        if seq.confirmed and label in expected:
            ok &= (seq.beta0, seq.betas, seq.final_gcd) == expected[label]
    return ok, str(result.verdict) != "Inconclusive"


def golden_commands(root: Path) -> list[tuple[str, list[str], int, bytes]]:
    """(name, full-report argv, expected exit code, expected stdout)."""
    out = []
    for name, (flags, code) in GOLDEN_RUNS.items():
        argv = ["full-report", f"corpus/{name}.json", *flags]
        golden = (root / "corpus" / "golden" / f"{name}.full.json").read_bytes()
        out.append((name, argv, code, golden))
    return out
