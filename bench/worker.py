"""One workload, measured in a process of its own (``run.py`` starts it).

    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1

Order of work: build the inputs from the seed; compute the expected answers
with ``oracles`` (untimed); then run rounds for S seconds. A round sets up
(several times when set-up is short, timing each) and then runs every
operation of the workload once, timing each operation on its own. After a
round's clocks stop, its answers are compared with the oracle's. With
``--trace 1`` every second round runs with ``tracing.instrument`` in place.
Report lines go to stdout first; the last stdout line is one JSON object of
results for ``run.py``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import random
import shutil
import statistics
import sys
import tempfile
from contextlib import contextmanager, nullcontext, redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter
from typing import Callable, NamedTuple

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import vest  # noqa: E402
import vest.cli  # noqa: E402

import oracles  # noqa: E402
from tracing import Tracer, instrument, span_cost  # noqa: E402

# Each untraced round repeats set-up while its set-ups have taken less than
# SETUP_ROUND_S, at least once and at most SETUP_ROUND_MAX times, and keeps
# the fastest; setup_s is the median of these over all rounds, so its samples
# are spread over the whole run.
SETUP_ROUND_S, SETUP_ROUND_MAX = 0.1, 8


class Checker:
    """Counts operations and those whose answer differs from the oracle's."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def fail(self, label, why):
        self.failed += 1
        if len(self.messages) < 5:
            self.messages.append(f"{label}: {why}")

    def compare(self, answers, expected):
        for label, want in expected.items():
            self.attempted += 1
            got = answers.get(label)
            if got != want:
                self.fail(label, f"got {got!r}, expected {want!r}")


def sabotaged(expected):
    """The expected answers with one value deliberately wrong."""
    label = next(iter(expected))
    wrong = dict(expected)
    wrong[label] = not wrong[label] if isinstance(wrong[label], bool) else wrong[label] + 1
    return wrong


class Unit(NamedTuple):
    """One timed operation of a round. ``run(calls)`` performs it *calls*
    times back to back (checks too short to time alone use calls > 1) and
    returns its answers by label."""
    kind: str  # "instance" or "check"
    key: str
    calls: int
    run: Callable[[int], dict]


@contextmanager
def traced(tracer):
    restore = instrument(tracer)
    try:
        yield
    finally:
        restore()


class GraphWorkload:
    """Seeded random graphs compiled in memory.

    For each graph (n, p, kmax): verdicts on ``checks`` sequences of
    ``n * check_share`` vertices (every second one repeats a vertex, so both
    verdicts occur), each timed as one call, then one instance operation:
    M_0..M_kmax by dedup and the graph-side D_0..D_kmax.
    """

    def __init__(self, seed, name, sizes, checks, check_share):
        rng = random.Random(f"{name}:{seed}")
        self.graphs = []
        for n, p, k_max in sizes:
            edges = oracles.random_edges(rng, n, p)
            seqs = []
            for j in range(checks):
                seq = rng.sample(range(n), int(n * check_share))
                if j % 2:
                    seq[-1] = seq[0]
                seqs.append(seq)
            self.graphs.append((n, edges, oracles.edgelist_text(n, edges), k_max, seqs))

    def expected(self):
        out = {}
        for i, (n, edges, _, k_max, seqs) in enumerate(self.graphs):
            closed = oracles.closed_neighbourhoods(n, edges)
            for j, seq in enumerate(seqs):
                out[f"g{i}.check{j}"] = oracles.sequence_accepted(closed, n, seq)
            d = oracles.dominating_counts(closed, n, k_max)
            for k, m_k in enumerate(oracles.expected_m(d)):
                out[f"g{i}.M{k}"] = m_k
                out[f"g{i}.D{k}"] = d[k]
        return out

    def setup(self, tracer):
        state = []
        for _, _, text, _, _ in self.graphs:
            g = vest.parse_graph(text)
            state.append((g, vest.reduce_graph(g).instance))
        return state

    def units(self, state, tracer):
        units = []
        for i, ((g, inst), (_, _, _, k_max, seqs)) in enumerate(zip(state, self.graphs)):
            for j, seq in enumerate(seqs):
                units.append(Unit("check", f"g{i}.check{j}", 1,
                                  self._check(inst, seq, f"g{i}.check{j}")))
            units.append(Unit("instance", f"g{i}", 1, self._counts(g, inst, k_max, f"g{i}")))
        return units

    @staticmethod
    def _check(inst, seq, label):
        def run(calls):
            for _ in range(calls):
                verdict = vest.check_sequence(inst, seq)
            return {label: verdict}
        return run

    @staticmethod
    def _counts(g, inst, k_max, label):
        def run(calls):
            answers = {f"{label}.M{k}": m_k
                       for k, m_k in enumerate(vest.m_sequence(inst, k_max).values)}
            for k in range(k_max + 1):
                answers[f"{label}.D{k}"] = vest.count_dominating_sets(g, k)
            return answers
        return run

    def controls(self, state):
        return []


def compiled_dedup(seed, workdir):
    # (n, p, kmax), four graphs of each: the packed dedup step dominates; no
    # documents, no CLI. Every graph has a nonzero M_k. Small graphs keep
    # each operation short (3-20 ms), so it repeats often enough in a run
    # for its fastest time to be steady.
    return GraphWorkload(seed, "compiled-dedup",
                         ((10, .3, 4), (12, .3, 4), (14, .3, 3), (16, .3, 3),
                          (20, .5, 3), (30, .5, 2)) * 4,
                         checks=4, check_share=0.5)


class RationalDedup:
    """Random rational instances from the acceptance gate's criterion-2
    distribution (d <= 4, m <= 3, h <= 3), counted by dedup and by brute
    force for k <= K_MAX, plus one verdict on a short sequence per instance.
    Only the generic engine and Fraction arithmetic run."""

    # A check takes 0.05-0.3 ms, so each is timed as CHECK_CALLS calls.
    COUNT, K_MAX, CHECK_CALLS = 432, 2, 4
    SHAPES = [(d, m, h) for d in (1, 2, 3, 4) for m in (1, 2, 3) for h in (1, 2, 3)]

    def __init__(self, seed, workdir):
        rng = random.Random(f"rational-dedup:{seed}")
        # Shapes take equal turns, so seeds change entries but not the size mix.
        self.raw = [oracles.random_rational(rng, *self.SHAPES[i % len(self.SHAPES)])
                    for i in range(self.COUNT)]
        # Lengths 0..5 take turns.
        self.checks = [tuple(rng.randrange(len(ts)) for _ in range(i % 6))
                       for i, (_, ts, _) in enumerate(self.raw)]

    def expected(self):
        out = {}
        for i, (v, ts, sel) in enumerate(self.raw):
            for k, m_k in enumerate(oracles.rational_counts(v, ts, sel, self.K_MAX)):
                out[f"r{i}.dedup.M{k}"] = m_k
                out[f"r{i}.brute.M{k}"] = m_k
        for i, seq in enumerate(self.checks):
            out[f"check{i}"] = oracles.rational_accepted(*self.raw[i], seq)
        return out

    def setup(self, tracer):
        q = vest.Semiring.RATIONAL
        return [vest.new_instance(q, v, [vest.DenseMatrix(t) for t in ts], vest.DenseMatrix(sel))
                for v, ts, sel in self.raw]

    def units(self, state, tracer):
        # Check i runs right after instance i, so the checks are spread over
        # the whole round rather than run in one burst at its end.
        units = []
        for i, (inst, seq) in enumerate(zip(state, self.checks)):
            units.append(Unit("instance", f"r{i}", 1, self._counts(inst, f"r{i}")))
            units.append(Unit("check", f"check{i}", self.CHECK_CALLS,
                              self._check(inst, seq, f"check{i}")))
        return units

    def _counts(self, inst, label):
        def run(calls):
            return {f"{label}.{method}.M{k}": m_k
                    for method in ("dedup", "brute")
                    for k, m_k in enumerate(vest.m_sequence(inst, self.K_MAX, method).values)}
        return run

    @staticmethod
    def _check(inst, seq, label):
        def run(calls):
            for _ in range(calls):
                verdict = vest.check_sequence(inst, seq)
            return {label: verdict}
        return run

    def controls(self, state):
        return []


class CliPipeline:
    """The vest command line, called in this process through ``vest.cli.main``
    with the arguments a user types: a graph file through ``vest reduce -o
    doc`` (set-up), then per round ``vest eval`` on the document and ``vest
    verify`` on the graph (one instance operation), then two ``vest check``
    runs on the document (one accepted, one with a repeated vertex).

    Interpreter start-up and import are left out. Run as ``python -m vest``
    processes they were about half of each call, and a process's fastest
    time over a 40 s run moved by up to 1.4x between back-to-back runs, far
    beyond the benchmark's 0.25 bound."""

    N, P, K_MAX = 16, 0.75, 2

    def __init__(self, seed, workdir):
        rng = random.Random(f"cli-pipeline:{seed}")
        self.edges = oracles.random_edges(rng, self.N, self.P)
        self.closed = oracles.closed_neighbourhoods(self.N, self.edges)
        accept = []
        for u in rng.sample(range(self.N), self.N):
            accept.append(u)
            if oracles.dominates(self.closed, self.N, accept):
                break
        self.checks = [accept, accept + accept[:1]]
        self.dir = workdir
        self.graph = workdir / "graph.txt"
        self.graph.write_text(oracles.edgelist_text(self.N, self.edges))
        self.doc = workdir / "instance.json"

    def expected(self):
        d = oracles.dominating_counts(self.closed, self.N, self.K_MAX)
        out = {"eval.exit": 0, "verify.exit": 0}
        for k, m_k in enumerate(oracles.expected_m(d)):
            out[f"eval.M{k}"] = m_k
            out[f"verify.M{k}"] = m_k
            out[f"verify.D{k}"] = d[k]
        for j, seq in enumerate(self.checks):
            # vest check exits 0 and prints ACCEPT, or exits 1 and prints REJECT.
            accepted = oracles.sequence_accepted(self.closed, self.N, seq)
            out[f"check{j}"] = "0 ACCEPT" if accepted else "1 REJECT"
        return out

    @staticmethod
    def run_vest(args, tracer):
        """``vest ARGS``; returns (exit code, stdout). A traced call gets a
        cli.<subcommand> span, so the CLI's own time is its self time."""
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err), \
                tracer.span(f"cli.{args[0]}") if tracer else nullcontext():
            try:
                code = vest.cli.main([str(a) for a in args])
            except SystemExit as exc:  # argparse rejected the arguments
                code = exc.code
        return code, out.getvalue()

    def setup(self, tracer):
        code, _ = self.run_vest(["reduce", "-i", self.graph, "-o", self.doc], tracer)
        if code != 0:
            raise RuntimeError(f"vest reduce exited {code}")
        return self.doc

    def _read_json(self, path):
        try:
            return json.loads(path.read_text())
        except (OSError, ValueError):
            return {}

    def units(self, doc, tracer):
        units = [Unit("instance", "eval+verify", 1, self._eval_verify(doc, tracer))]
        for j, seq in enumerate(self.checks):
            units.append(Unit("check", f"check{j}", 1, self._check(doc, j, seq, tracer)))
        return units

    def _eval_verify(self, doc, tracer):
        def run(calls):
            k = str(self.K_MAX)
            eval_out, verify_out = self.dir / "eval.json", self.dir / "verify.json"
            for path in (eval_out, verify_out):
                path.unlink(missing_ok=True)
            answers = {
                "eval.exit": self.run_vest(["eval", "-i", doc, "--kmax", k, "--json",
                                            "-o", eval_out], tracer)[0],
                "verify.exit": self.run_vest(["verify", "-i", self.graph, "--kmax", k,
                                              "--json", "-o", verify_out], tracer)[0],
            }
            for item in self._read_json(eval_out).get("values", []):
                answers[f"eval.M{item['k']}"] = int(item["m_k"])
            for row in self._read_json(verify_out).get("rows", []):
                answers[f"verify.M{row['k']}"] = int(row["m_k"])
                answers[f"verify.D{row['k']}"] = int(row["d_k"])
            return answers
        return run

    def _check(self, doc, j, seq, tracer):
        def run(calls):
            code, out = self.run_vest(["check", "-i", doc, "--seq", ",".join(map(str, seq))],
                                      tracer)
            return {f"check{j}": f"{code} {out.strip()}"}
        return run

    def controls(self, doc):
        """``vest verify --corrupt`` sabotages the compiled instance of a path
        on three vertices, where that changes M_1; it must exit 1 and report
        a mismatch."""
        path, out = self.dir / "path3.txt", self.dir / "corrupt.json"
        path.write_text("3 2\n0 1\n1 2\n")
        code, _ = self.run_vest(["verify", "-i", path, "--kmax", "3", "--json", "--corrupt",
                                 "-o", out], None)
        report = self._read_json(out)
        if code == 1 and report.get("all_pass") is False:
            return []
        return [f"vest verify --corrupt exited {code} with all_pass={report.get('all_pass')!r}"]


WORKLOADS = {
    "compiled-dedup": compiled_dedup,
    "rational-dedup": RationalDedup,
    "cli-pipeline": CliPipeline,
}

# Span names whose self time becomes a per-layer metric "<name>_s".
TIMED_SPANS = (
    "evaluate.step", "evaluate.annihilate", "evaluate.brute", "evaluate.engine_build",
    "evaluate.check", "documents.dump", "documents.load", "cli.reduce", "cli.eval",
    "cli.verify", "cli.check", "reduction.reduce", "core.new_instance",
    "core.fingerprint", "graphs.parse", "graphs.domsets",
)


class Fastest:
    """The fastest time seen for each operation, over rounds of one kind
    (untraced or traced); times are per call."""

    def __init__(self):
        self.best = {}
        self.kinds = {}

    def add(self, unit, seconds):
        per_call = seconds / unit.calls
        self.best[unit.key] = min(per_call, self.best.get(unit.key, per_call))
        self.kinds[unit.key] = unit.kind

    def of_kind(self, kind):
        return [s for key, s in self.best.items() if self.kinds[key] == kind]

    def solve_s(self):
        """One pass over every operation, each at its fastest."""
        return sum(self.best.values())


def layer_report(tracers, traced_walls, untraced, traced_best, overhead_s):
    """Per-layer metrics: self seconds of one traced set-up plus one traced
    pass (the median over traced rounds), and the work counts of the last
    traced round."""
    per_round = [t.self_times() for t in tracers]
    names = set().union(*per_round)
    self_s = {n: statistics.median(r.get(n, 0.0) for r in per_round) for n in names}
    counts = dict(tracers[-1].counts)
    successors = counts.get("evaluate.successors", 0)
    step_s = self_s.get("evaluate.step", 0.0)
    metrics = {f"{name}_s": self_s.get(name, 0.0) for name in TIMED_SPANS}
    metrics.update({
        "evaluate.states": counts.get("evaluate.states", 0),
        "evaluate.states_peak": counts.get("evaluate.states_peak", 0),
        "evaluate.distinct_ratio":
            counts.get("evaluate.successor_states", 0) / successors if successors else 0.0,
        "evaluate.successors_per_s": successors / step_s if step_s else 0.0,
        "evaluate.brute_sequences": counts.get("evaluate.brute_sequences", 0),
        "documents.bytes": counts.get("documents.bytes", 0),
        "graphs.subsets_checked": counts.get("graphs.subsets_checked", 0),
    })
    by_layer = {}
    for name, seconds in self_s.items():
        layer = name.split(".")[0]
        by_layer[layer] = by_layer.get(layer, 0.0) + seconds
    covered = [t.covered_seconds() for t in tracers]
    print("trace: self seconds per layer (one set-up + one pass, median of "
          f"{len(tracers)} traced rounds): "
          + ", ".join(f"{layer} {s:.4f}" for layer, s in sorted(by_layer.items())))
    print(f"trace: measured tracing overhead {overhead_s:.4f} s per traced round "
          f"({len(tracers[-1].spans)} spans, {tracers[-1].own_s:.4f} s of level bookkeeping); "
          f"solve_s untraced {untraced.solve_s():.4f}, traced {traced_best.solve_s():.4f}")
    print(f"trace: spans cover {statistics.median(covered):.4f} s of a traced round's "
          f"{statistics.median(traced_walls):.4f} s wall time (medians over traced rounds)")
    print("work: " + json.dumps(counts, sort_keys=True))
    return metrics


def set_up(workload, timings):
    """Untraced set-up, repeated while the repetitions are short; the fastest
    repetition's time goes to *timings*, so that setup_s, the median over
    rounds, follows the host's speed less than a median over repetitions:
    the host's slow spells last several rounds, and a fast moment inside one
    of them still sets that round's fastest."""
    spent, fastest = 0.0, float("inf")
    for _ in range(SETUP_ROUND_MAX):
        t0 = perf_counter()
        state = workload.setup(None)
        seconds = perf_counter() - t0
        fastest = min(fastest, seconds)
        spent += seconds
        if spent >= SETUP_ROUND_S:
            break
    timings.append(fastest)
    return state


def run_round(workload, tracer, setups, times, checker):
    """One round: set-up, then every operation once, each timed. A traced
    round runs each check once rather than as a batch, so its spans describe
    one pass. An operation that raises leaves its answers missing, so they
    count as failed."""
    gc.collect()  # the previous round's garbage is not collected inside this round's timings
    answers = {}
    with traced(tracer) if tracer else nullcontext():
        try:
            state = set_up(workload, setups) if tracer is None else workload.setup(tracer)
        except Exception as exc:  # reported as a failed operation, not a crash
            checker.fail("setup", f"{type(exc).__name__}: {exc}")
            return answers, None
        for unit in workload.units(state, tracer):
            calls = 1 if tracer else unit.calls
            t0 = perf_counter()
            try:
                answers.update(unit.run(calls))
            except Exception as exc:
                checker.fail(unit.key, f"{type(exc).__name__}: {exc}")
                continue
            times.add(unit._replace(calls=calls), perf_counter() - t0)
    return answers, state


def measure(args, workdir):
    workload = WORKLOADS[args.workload](args.seed, workdir)
    truth = workload.expected()

    checker = Checker()
    setups, untraced, traced_best, tracers, durations = [], Fastest(), Fastest(), [], []
    start = perf_counter()
    # Rounds continue until the time is up, stopping early rather than
    # overrunning by more than half a round; at least one untraced round
    # (and one traced round when tracing) always runs.
    while (not durations or (args.trace and not tracers)
           or perf_counter() - start + statistics.median(durations) / 2 < args.seconds):
        tracer = Tracer() if args.trace and len(durations) % 2 else None
        t0 = perf_counter()
        answers, state = run_round(workload, tracer, setups, traced_best if tracer else untraced,
                                   checker)
        durations.append(perf_counter() - t0)
        if tracer:
            tracers.append(tracer)
            if tracer.counts.get("evaluate.mass_violations"):
                checker.fail("mass", "some level's total multiplicity differs from m**level")
        checker.compare(answers, truth)

    # Negative controls: the comparison must notice one wrong expected value,
    # and the workload's own controls (cli-pipeline: vest verify --corrupt)
    # must come out wrong.
    honest, probe = Checker(), Checker()
    honest.compare(answers, truth)
    probe.compare(answers, sabotaged(truth))
    problems = workload.controls(state)
    if probe.failed == honest.failed:
        problems.append("a deliberately wrong expected value was not reported")
    for problem in problems:
        checker.fail("negative control", problem)

    layers = None
    if args.trace:
        per_span = span_cost()
        overhead_s = statistics.median(len(t.spans) * per_span + t.own_s for t in tracers)
        layers = layer_report(tracers, durations[1::2], untraced, traced_best, overhead_s)
    print(f"answers: {len(answers)}, sha256 {_digest(answers)}")
    return {
        "setup_s": setups,
        "solve_s": untraced.solve_s(),
        "instance_s": untraced.of_kind("instance"),
        "check_s": untraced.of_kind("check"),
        "rounds": len(durations) - len(tracers),
        "traced_rounds": len(tracers),
        "attempted": checker.attempted,
        "failed": checker.failed,
        "messages": checker.messages,
        "layers": layers,
    }


def _digest(answers):
    text = json.dumps(sorted((k, v) for k, v in answers.items()))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    scratch = ROOT / ".bench_out"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        result = measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
