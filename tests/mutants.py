"""Mutation checks: each entry breaks the program in one place, and the test
suite must fail on it.

Run from anywhere, with pytest installed:

    python tests/mutants.py

Each mutant replaces one exact text in a fresh copy of ``src/`` and
``tests/`` in a temporary directory, and ``python -m pytest -x -q`` runs
there with ``PYTHONPATH=src`` under a time limit, one mutant at a time. The
unmutated copy runs first and must pass, so that no mutant reads as killed
by a suite that fails anyway. A mutant is

* killed: the suite fails;
* SURVIVED: the suite passes, so no test checks what the mutant breaks;
* STALE: its old text does not appear exactly once, so a refactor moved the
  code without carrying the mutant along;
* a SLOW kill: the suite outran the time limit, so the only test that
  catches the mutant is one that runs away on it; the bound it breaks needs
  a fast test.

The whole suite passes in about 10 s, far inside the limit of 60 s. The run
exits 1 when any mutant survived, is stale or was a slow kill. The file's
name keeps pytest from collecting it; it uses the standard library only.
"""

from __future__ import annotations

import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 60
CORE, EVALUATE = "src/vest/core.py", "src/vest/evaluate.py"
REDUCTION, GRAPHS = "src/vest/reduction.py", "src/vest/graphs.py"

# (label, path under the repository root, exact old text, new text)
MUTANTS = (
    # rows and matrices that new_instance takes as given
    ("rational row test admits ints", CORE,
     "_FRACTION_ONLY = frozenset((Fraction,))",
     "_FRACTION_ONLY = frozenset((Fraction, int))"),
    ("dense matrix kept without the identity test", CORE,
     "return matrix if all(map(operator.is_, rows, given)) else DenseMatrix(rows)",
     "return matrix"),
    # the generic engine's scaling of each matrix to ints
    ("rational rows scaled without the denominator", EVALUATE,
     "e.numerator * (scale // e.denominator)",
     "e.numerator * scale"),
    ("rational scale the gcd of the denominators", EVALUATE,
     "scale = math.lcm(",
     "scale = math.gcd("),
    ("GF(2) sums kept whole", EVALUATE,
     "(tuple, 1) if instance.semiring is Semiring.GF2",
     "(tuple, -1) if instance.semiring is Semiring.GF2"),
    # the one selector test of each engine, and the level count that uses it
    ("dense selector row test inverted", EVALUATE,
     "            if sum(map(mul, row, state)) & mask:\n                return False",
     "            if not sum(map(mul, row, state)) & mask:\n                return False"),
    ("dense selector row test without & mask", EVALUATE,
     "            if sum(map(mul, row, state)) & mask:\n                return False",
     "            if sum(map(mul, row, state)):\n                return False"),
    ("row-action selector skips its first entry", EVALUATE,
     "return not any(map((state + (0,)).__getitem__, entries))",
     "return not any(map((state + (0,)).__getitem__, entries[1:]))"),
    ("level mass counts the rejected states", EVALUATE,
     "    for state, mult in dist.entries.items():\n        if annihilates(state):",
     "    for state, mult in dist.entries.items():\n        if not annihilates(state):"),
    ("a zero row read as 1", EVALUATE,
     "return tuple(map((state + (0,)).__getitem__, entries))",
     "return tuple(map((state + (1,)).__getitem__, entries))"),
    # the packed engine's pull-back of the selector
    ("closure walk does not stop at a zero row", EVALUATE,
     "                if zero >> i & 1:\n                    break",
     "                if False:\n                    break"),
    ("preimage takes every moved row", EVALUATE,
     "                if union >> i & 1:\n                    preimage |= 1 << j",
     "                if True:\n                    preimage |= 1 << j"),
    ("preimage ORs the row, not its source", EVALUATE,
     "preimage |= 1 << j",
     "preimage |= 1 << i"),
    ("preimage starts from 0", EVALUATE,
     "preimage = union & fixed",
     "preimage = 0"),
    ("dead test: any closure bit kills", EVALUATE,
     "if out & closures[low] == closures[low]:",
     "if out & closures[low]:"),
    ("live mass counted as 1", EVALUATE,
     "nxt[out] = get(out, 0) + mult",
     "nxt[out] = get(out, 0) + 1"),
    # dedup and brute-force counting
    ("dead cutoff one count short", EVALUATE,
     "yield from repeat(0, k_max + 1 - last.level)",
     "yield from repeat(0, k_max - last.level)"),
    ("state cap off by one", EVALUATE,
     "if len(dist) > DEFAULT_DEDUP_CAP:",
     "if len(dist) >= DEFAULT_DEDUP_CAP:"),
    # the one refusal of a count
    ("brute bound doubled", EVALUATE,
     "or m ** k_max > cap:",
     "or m ** k_max > cap * 2:"),
    ("dedup length cap off by one", EVALUATE,
     "if k_max > cap:",
     "if k_max >= cap:"),
    ("brute walk counts only at k_max", EVALUATE,
     "        if annihilates(state):\n            counts[depth] += 1",
     "        if depth == k_max and annihilates(state):\n            counts[depth] += 1"),
    ("brute walk one level too deep", EVALUATE,
     "if depth < k_max:",
     "if depth <= k_max:"),
    ("brute walk skips the root", EVALUATE,
     "        if annihilates(state):\n            counts[depth] += 1",
     "        if depth and annihilates(state):\n            counts[depth] += 1"),
    ("check_sequence takes a bool index", EVALUATE,
     "if not isinstance(t, int) or isinstance(t, bool):",
     "if not isinstance(t, int):"),
    # verification and the dominating-set side
    ("unknown evaluator compiled first", REDUCTION,
     "    check_count(g.n, k_max, evaluator)\n",
     ""),
    ("subset bound tested below its peak", REDUCTION,
     "check_subset_bound(g, min(k_max, g.n // 2))",
     "check_subset_bound(g, min(k_max, g.n // 2 - 1))"),
    ("expected 1 where D_k = 0", REDUCTION,
     "expected = math.factorial(k) * d_k if d_k else 0",
     "expected = math.factorial(k) * d_k if d_k else 1"),
    ("subset bound admits a negative size", GRAPHS,
     "    if k < 0:\n        raise NegativeLength",
     "    if k < -1:\n        raise NegativeLength"),
    ("D_k = 1 past n", GRAPHS,
     "    if k > g.n:\n        return 0",
     "    if k > g.n:\n        return 1"),
)


def _suite(tmp: str) -> str:
    """Run the copied suite in its own process group; a timeout kills the
    whole group, so no test's child process outlives it."""
    env = dict(os.environ, PYTHONPATH="src")
    proc = subprocess.Popen(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "tests"],
        cwd=tmp, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        start_new_session=True)
    try:
        code = proc.wait(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return "SLOW kill"
    return "killed" if code else "SURVIVED"


def run(path: str | None = None, old: str = "", new: str = "") -> str:
    """The verdict on one mutant, or on the unmutated code when *path* is
    None ("SURVIVED" then means the suite passes)."""
    with tempfile.TemporaryDirectory() as tmp:
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, Path(tmp, part),
                            ignore=shutil.ignore_patterns("__pycache__"))
        if path is not None:
            target = Path(tmp, path)
            text = target.read_text()
            if text.count(old) != 1:
                return "STALE"
            target.write_text(text.replace(old, new))
        return _suite(tmp)


def main() -> int:
    if run() != "SURVIVED":
        print("the unmutated suite fails or times out; no mutant can be judged")
        return 1
    failed = 0
    for label, path, old, new in MUTANTS:
        start = time.perf_counter()
        verdict = run(path, old, new)
        print(f"{verdict:>9}  {time.perf_counter() - start:5.1f} s  {label}", flush=True)
        failed += verdict in ("SURVIVED", "STALE", "SLOW kill")
    print(f"{len(MUTANTS)} mutants, {failed} survived, stale or slow")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
