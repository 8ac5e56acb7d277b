"""Run the benchmark over several seeds and summarize each metric.

    python3 bench/collect.py --seeds 1-10 [--workloads a,b] [--trace 0|1] [--out FILE]

Runs `bench/run.py` once per (workload, seed), one process at a time, for
BENCHMARK.json's `run_seconds`, and prints for every metric its median,
quartiles and spread (the distance between the quartiles as a share of the
median, the figure the regression bounds in BENCHMARK.json are set against).
With --out it stores the summary, with every run's values and metadata,
under "trace0" or "trace1" in a JSON file, keeping the other key if the
file exists.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [
        sys.executable, str(ROOT / "bench" / "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        raise RuntimeError("%s seed %d failed:\n%s" % (workload, seed, proc.stderr))
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    meta = next(
        json.loads(line[len("# meta "):])
        for line in proc.stdout.splitlines()
        if line.startswith("# meta ")
    )
    return {"result": result, "meta": meta}


def summarize(values: list[float]) -> dict:
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    summary = {"seeds": parse_seeds(args.seeds), "seconds": spec["run_seconds"], "workloads": {}}
    for workload in args.workloads.split(","):
        runs = [run_once(workload, seed, spec["run_seconds"], args.trace) for seed in summary["seeds"]]
        metrics = {}
        print("%s (%d runs)" % (workload, len(runs)))
        for name in runs[0]["result"]["metrics"]:
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            stats = summarize(values)
            stats["values"] = values
            metrics[name] = stats
            bound = bounds.get(name)
            flag = ""
            if bound is not None and stats["spread"] > bound / 3:
                flag = "  <-- spread above bound/3 (%.3g)" % (bound / 3)
            print(
                "  %-32s median %-12.6g q1 %-12.6g q3 %-12.6g spread %.4f%s"
                % (name, stats["median"], stats["q1"], stats["q3"], stats["spread"], flag)
            )
        failed = sum(r["result"]["failed"] for r in runs)
        attempted = sum(r["result"]["attempted"] for r in runs)
        print("  failed %d of %d checks" % (failed, attempted))
        summary["workloads"][workload] = {
            "metrics": metrics,
            "attempted": attempted,
            "failed": failed,
            "correct": all(r["result"]["correct"] for r in runs),
            "runs": [r["meta"] for r in runs],
        }
    if args.out:
        out = Path(args.out)
        stored = json.loads(out.read_text()) if out.exists() else {}
        stored["trace%d" % args.trace] = summary
        out.write_text(json.dumps(stored, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
