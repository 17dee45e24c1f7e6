"""The vest benchmark: one command, every metric by name, nonzero exit on any
wrong answer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --seed N          # every workload, untraced and traced

Run it from the repository root. Each workload runs in a fresh child
process (``worker.py``); ``peak_rss_mb`` is that child's peak RSS, which
``os.wait4`` reports. With ``--trace 0`` the last stdout line carries the
end-to-end metrics of BENCHMARK.json, with ``--trace 1`` its per-layer
metrics. See README.md in this directory for what each workload and metric
is for.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("compiled-dedup", "rational-dedup", "cli-pipeline")
TIME_LIMIT_S = 175


def percentile(values, q):
    """Linear interpolation between closest ranks (q in [0, 1])."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def end_to_end(raw, rss_mb):
    return {
        "setup_s": statistics.median(raw["setup_s"]),
        "solve_s": raw["solve_s"],
        "peak_rss_mb": rss_mb,
        "instance_p50_ms": 1000 * percentile(raw["instance_s"], 0.50),
        "instance_p90_ms": 1000 * percentile(raw["instance_s"], 0.90),
        "check_p50_ms": 1000 * percentile(raw["check_s"], 0.50),
        "check_p90_ms": 1000 * percentile(raw["check_s"], 0.90),
    }


def run_workload(name, seed, seconds, trace, spec):
    """Run one workload in a fresh worker, print its report lines, and return
    its result object (None when the worker did not finish)."""
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    started = perf_counter()
    # A session of its own, so that the time limit can stop the worker and
    # anything it started.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    timed_out = []

    def stop(signum, frame):
        timed_out.append(True)
        os.killpg(proc.pid, signal.SIGKILL)

    signal.signal(signal.SIGALRM, stop)
    signal.alarm(TIME_LIMIT_S)
    out = proc.stdout.read()
    proc.stdout.close()
    # wait4 returns the worker's own resource use, peak RSS included.
    _, status, usage = os.wait4(proc.pid, 0)
    signal.alarm(0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    lines = out.splitlines()
    if timed_out:
        print(f"error: {name} did not finish within {TIME_LIMIT_S} s", file=sys.stderr)
        return None
    if proc.returncode != 0 or not lines:
        sys.stdout.write(out)
        print(f"error: {name} worker exited {proc.returncode}", file=sys.stderr)
        return None
    raw = json.loads(lines[-1])

    for line in lines[:-1]:
        print(f"[{name}] {line}")
    kind = "per_layer" if trace else "end_to_end"
    if trace:
        values = raw["layers"]
    elif raw["setup_s"] and raw["instance_s"] and raw["check_s"]:
        values = end_to_end(raw, usage.ru_maxrss / 1024)
    else:  # every set-up or every operation of a kind failed
        values = {}
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec[kind] if m["name"] in values}
    print(f"[{name}] seed {seed}: {raw['rounds']} untraced and "
          f"{raw['traced_rounds']} traced rounds, {len(raw['instance_s'])} instances, "
          f"{len(raw['check_s'])} checks, {perf_counter() - started:.1f} s wall")
    for metric, value in metrics.items():
        print(f"[{name}] {metric} = {value['value']:.6g} {value['unit']}")
    for message in raw["messages"]:
        print(f"[{name}] FAILED {message}")
    return {"correct": raw["failed"] == 0, "attempted": raw["attempted"],
            "failed": raw["failed"], "metrics": metrics}


def run_all(args, spec):
    """Every workload untraced and traced; the result merges them, with
    metrics keyed workload/name."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        for trace in (0, 1):
            result = run_workload(name, args.seed, args.seconds, trace, spec)
            if result is None:
                return None
            total["correct"] = total["correct"] and result["correct"]
            total["attempted"] += result["attempted"]
            total["failed"] += result["failed"]
            for metric, value in result["metrics"].items():
                total["metrics"][f"{name}/{metric}"] = value
    return total


def main():
    spec_path = ROOT / "BENCHMARK.json"
    spec = json.loads(spec_path.read_text()) if spec_path.is_file() else None
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=spec["run_seconds"] if spec else None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run (--workload all runs both)")
    args = parser.parse_args()
    if spec is None or not (ROOT / "src" / "vest" / "__init__.py").is_file():
        print(f"error: run from a vest checkout: need {spec_path} and src/vest/ beside bench/",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        result = run_all(args, spec)
    else:
        result = run_workload(args.workload, args.seed, args.seconds, args.trace, spec)
    if result is None:
        return 1
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
