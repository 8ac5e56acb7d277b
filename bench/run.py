"""Run one eisenshift benchmark workload and print one JSON result line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a source checkout: the package is imported from `src/` next to
this directory, and the run fails (exit 2, no result) when it is missing.

--trace 0 reports the end-to-end metrics, measured untraced:
  setup_s      median time of a fresh interpreter's start-up and import of
               eisenshift.cli, over fresh interpreters spread through the run
  task_s       time of one round of the workload's top-level calls
  op_p50_us    median latency of the workload's operations
  op_p99_us    99th percentile latency of the workload's operations
  peak_rss_mb  peak resident memory of this process
--trace 1 reports the per-layer metrics from the traced pass (README.md).

Every time is reference-speed time: a measured wall time times
REFERENCE_CALIBRATION_S over the time of a fixed calibration workload run
right next to it in the same process (calibration.py).  The shared machines
this was tuned on run everything 1.4 to 2.2 times slower for seconds to
minutes at a time; the scaling removes most of that while leaving any
change in the program's own speed whole.  Raw times are kept in the run
record.

A round makes every call of the workload once; rounds repeat until the
time budget is spent, and each call's and each operation's time is the
median over rounds.  Each run writes its metadata, per-round figures and
(traced) spans under `.bench_out/` in the checkout.  The last stdout line
is the JSON result {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import contextlib
from array import array
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibration import REFERENCE_CALIBRATION_S, calibration_s, speed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_REPEATS = 15
IMPORT_REPEATS = 5
PROBE_CALIBRATIONS = 4  # before and after the import each
MIN_ROUNDS = 3
MIN_TRACED_PAIRS = 3

# A fresh interpreter times the calibration work, imports eisenshift.cli
# and times the calibration again, the way the parent brackets its own
# measurements.  perf_counter reads the system-wide monotonic clock, so the
# parent can take the interpreter's start-up from the child's first reading.
IMPORT_PROBE = (
    "import time; start = time.perf_counter()\n"
    "import sys; sys.path.insert(0, sys.argv[1]); from calibration import calibration_s; del sys.path[0]\n"
    "before = [calibration_s() for _ in range(%d)]\n"
    "begin = time.perf_counter(); import eisenshift.cli; done = time.perf_counter()\n"
    "after = [calibration_s() for _ in range(%d)]\n"
    "print(start, done - begin, *before, *after)"
) % (PROBE_CALIBRATIONS, PROBE_CALIBRATIONS)

# One in-process main() call per subcommand, with its expected exit code.
CLI_CALLS = (
    (["check", "5,4,1"], 1),
    (["shift", "2,1,1"], 0),
    (["density", "--degree", "3", "--primes", "1000"], 0),
    (["census", "--degree", "2", "--height", "2"], 0),
    (["montecarlo", "--degree", "3", "--height", "1000000", "--samples", "256", "--seed", "1"], 0),
)


def percentile(values, q: float):
    """Nearest-rank percentile of a nonempty sequence."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def fresh_import() -> dict:
    """One fresh interpreter importing eisenshift.cli, timed and calibrated.

    setup_s is the interpreter's start-up plus its import of eisenshift.cli,
    import_s the import alone.  Both are scaled by the calibrations the
    child times right before and after its import: the child runs wherever
    the scheduler puts it, which the parent's calibration does not follow.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-c", IMPORT_PROBE, str(BENCH)]
    spawned = time.perf_counter()
    proc = subprocess.run(cmd, env=env, cwd=ROOT, check=True, capture_output=True, text=True)
    start, import_s, *cal = map(float, proc.stdout.split())
    if not spawned < start < time.perf_counter():
        raise RuntimeError("the probe's clock is not the benchmark's")
    factor = REFERENCE_CALIBRATION_S / statistics.median(cal)
    raw = start - spawned + import_s
    return {
        "raw_setup_s": raw,
        "raw_import_s": import_s,
        "calibration_s": cal,
        "setup_s": raw * factor,
        "import_s": import_s * factor,
    }


def cli_main_s(checks) -> float:
    """Wall time of one in-process main() call per subcommand, summed."""
    from eisenshift.cli import main

    start = time.perf_counter()
    for argv, code in CLI_CALLS:
        with contextlib.redirect_stdout(io.StringIO()):
            got = main(argv)
        checks.expect(got == code, "eisenshift %s exited %s, expected %s" % (" ".join(argv), got, code))
    return time.perf_counter() - start


def metadata(args) -> dict:
    import mpmath

    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "eisenshift").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "reference_calibration_s": REFERENCE_CALIBRATION_S,
    }


def timed_round(workload, calls, checks) -> dict:
    """Make and check every call once, timing calls and operations.

    Returns raw call times (ns), reference-speed call times and per-call
    reference-speed operation latencies (ns), and the calibration times.
    """
    clock = time.perf_counter_ns
    cal = [calibration_s()]
    raw, scaled, ops = [], [], []
    for arg in calls:
        start = clock()
        result = workload.call(arg)
        elapsed = clock() - start
        cal.append(calibration_s())
        call_speed = speed(cal[-2], cal[-1])
        latencies = workload.verify(arg, result, checks)
        cal.append(calibration_s())
        raw.append(elapsed)
        scaled.append(elapsed * call_speed)
        if latencies is None:  # the call is the workload's operation
            latencies, replay_speed = [elapsed], call_speed
        else:
            replay_speed = speed(cal[-2], cal[-1])
        # Packed, so that the benchmark's own bookkeeping barely moves peak_rss_mb.
        ops.append(array("d", (t * replay_speed for t in latencies)))
    return {"raw": raw, "scaled": scaled, "ops": ops, "calibration_s": cal}


def measure_end_to_end(workload, args, checks, record) -> dict:
    fresh_import()  # writes bytecode
    calls = workload.calls(args.seed)
    workload.verify(calls[0], workload.call(calls[0]), checks)  # warm-up: package caches fill
    rounds, setup = [], []
    started = time.perf_counter()
    while len(rounds) < MIN_ROUNDS or time.perf_counter() < started + args.seconds:
        rounds.append(timed_round(workload, calls, checks))
        # Fresh interpreters keep pace with the run, so that a slow phase
        # of the host touches only some of them.
        spent = (time.perf_counter() - started) / args.seconds if args.seconds else 1
        while len(setup) < SETUP_REPEATS * min(spent, 1):
            setup.append(fresh_import())
    setup += [fresh_import() for _ in range(SETUP_REPEATS - len(setup))]
    call_s = [statistics.median(r["scaled"][i] for r in rounds) / 1e9 for i in range(len(calls))]
    latencies = [
        statistics.median(r["ops"][i][j] for r in rounds)
        for i in range(len(calls))
        for j in range(len(rounds[0]["ops"][i]))
    ]
    record["setup"] = setup
    record["rounds"] = [
        {"call_raw_s": [t / 1e9 for t in r["raw"]], "calibration_s": r["calibration_s"]}
        for r in rounds
    ]
    record["calibration_s"] = [c for r in rounds for c in r["calibration_s"]]
    record["raw_task_s"] = statistics.median(sum(r["raw"]) / 1e9 for r in rounds)
    record["polys_per_s"] = workload.polys / sum(call_s) if workload.polys else None
    return {
        "setup_s": statistics.median(s["setup_s"] for s in setup),
        "task_s": sum(call_s),
        "op_p50_us": percentile(latencies, 0.50) / 1e3,
        "op_p99_us": percentile(latencies, 0.99) / 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def measure_layers(workload, args, checks, record, units) -> dict:
    from spans import Tracer

    fresh_import()  # writes bytecode
    imports = [fresh_import() for _ in range(IMPORT_REPEATS)]
    main_s = []
    for _ in range(3):
        before = calibration_s()
        wall = cli_main_s(checks)
        main_s.append(wall * speed(before, calibration_s()))
    calls = workload.calls(args.seed)
    timed_round(workload, calls, checks)  # warm-up and output check
    plain, traced, layers, cals = [], [], [], []
    deadline = time.perf_counter() + args.seconds
    while len(traced) < MIN_TRACED_PAIRS or time.perf_counter() < deadline:
        cals.append(calibration_s())
        start = time.perf_counter()
        for arg in calls:
            workload.call(arg)
        wall = time.perf_counter() - start
        cals.append(calibration_s())
        plain.append(wall * speed(cals[-2], cals[-1]))
        start = time.perf_counter()
        with Tracer() as tracer:
            results = [workload.call(arg) for arg in calls]
        wall = time.perf_counter() - start
        cals.append(calibration_s())
        factor = speed(cals[-2], cals[-1])
        traced.append(wall * factor)
        layer = tracer.summarize()
        for key, value in layer.items():
            if units[key] in ("s", "ms", "us"):
                layer[key] = value * factor
        layers.append(layer)
    for arg, result in zip(calls, results):
        workload.verify(arg, result, checks)
    # The root span's self time plus its children's durations make up the
    # traced wall time; the remainder is installing and removing wrappers.
    root_self = tracer.self_times()[0] / 1e9
    root_s = tracer.wall_ns() / 1e9
    record["trace_accounting"] = {
        "root_span_s": root_s,
        "root_self_s": root_self,
        "children_s": root_s - root_self,
        "traced_wall_s": wall,
        "spans": len(tracer.spans),
    }
    OUT.mkdir(exist_ok=True)
    tracer.write_spans(OUT / ("%s-seed%d.spans.jsonl" % (args.workload, args.seed)))
    metrics = {key: statistics.median(layer[key] for layer in layers) for key in layers[0]}
    metrics["census.pool_speedup_w2"] = (
        workload.pool_speedup(calls[0], checks) if workload.pool_samples else 0.0
    )
    metrics["cli.import_ms"] = statistics.median(s["import_s"] for s in imports) * 1e3
    metrics["cli.main_ms"] = statistics.median(main_s) * 1e3
    metrics["trace.overhead_frac"] = statistics.median(t / p for t, p in zip(traced, plain)) - 1
    record["untraced_s"] = plain
    record["traced_s"] = traced
    record["calibration_s"] = cals
    return metrics


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def report_lines(workload, values, record, checks) -> list[str]:
    """fail_frac and the per-workload readings polys_per_s, decide_p50_us,
    decide_p99_us and table_s, for a human reader."""
    lines = [
        "fail_frac %.6g (%d of %d checks failed)"
        % (checks.failed / checks.attempted, checks.failed, checks.attempted)
    ]
    if "task_s" not in values:
        return lines
    if workload.polys:
        lines.append("polys_per_s %.6g (%d polynomials per round)" % (record["polys_per_s"], workload.polys))
        lines.append("decide_p50_us %.6g, decide_p99_us %.6g" % (values["op_p50_us"], values["op_p99_us"]))
    else:
        lines.append("table_s %.6g" % values["task_s"])
    lines.append("raw task_s %.6g (unscaled wall time)" % record["raw_task_s"])
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "eisenshift" / "__init__.py").is_file():
        print("error: no eisenshift sources at %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import eisenshift

    if Path(eisenshift.__file__).resolve().parent != SRC / "eisenshift":
        print("error: imported eisenshift from %s, not %s" % (eisenshift.__file__, SRC), file=sys.stderr)
        return 2
    from workloads import WORKLOADS, Checks

    if args.workload not in WORKLOADS:
        parser.error("unknown workload %r; choose from %s" % (args.workload, ", ".join(WORKLOADS)))
    spec = load_spec()
    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    workload = WORKLOADS[args.workload]()
    checks = Checks()
    record = {"meta": metadata(args)}
    started = time.perf_counter()
    if args.trace:
        values = measure_layers(workload, args, checks, record, units)
    else:
        values = measure_end_to_end(workload, args, checks, record)
    if sorted(values) != sorted(wanted):
        raise RuntimeError("metrics %s do not match BENCHMARK.json %s" % (sorted(values), sorted(wanted)))
    record["meta"]["run_s"] = time.perf_counter() - started
    # Calibration times next to the workload tell a slow machine phase
    # from a slow program.
    cals = record["calibration_s"]
    record["meta"]["calibration_s"] = {"median": statistics.median(cals), "min": min(cals), "max": max(cals)}
    record["metrics"] = values
    record["checks"] = {"attempted": checks.attempted, "failed": checks.failed, "failures": checks.failures}
    OUT.mkdir(exist_ok=True)
    name = "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace)
    with open(OUT / name, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)

    print("# meta " + json.dumps(record["meta"], sort_keys=True))
    for failure in checks.failures:
        print("# FAILED " + failure)
    for line in report_lines(workload, values, record, checks):
        print("# " + line)
    for metric in wanted:
        print("# %-32s %14.6g %s" % (metric, values[metric], units[metric]))
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {m: {"value": values[m], "unit": units[m]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
