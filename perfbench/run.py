"""weavesym benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all      # every workload, one after another

Run from the repository root.  The package is imported from ./src and
the naive oracle from ./tests; nothing needs installing.  With
--trace 0 the end-to-end metrics are measured with no instrumentation,
in host-corrected seconds (see REF_SECONDS); with --trace 1 the same passes are run once untraced and once traced,
and the per-layer metrics come from the traced copy.  The last line of
standard output is the result as one JSON object; the lines before it
give the environment and each metric with its unit.  Every run also
writes its full record to .perfbench/<workload>-seed<N>-trace<T>.json.
The exit code is 0 only when every output passed its check.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from contextlib import nullcontext
from pathlib import Path

from spans import LAYERS, Tracer, absent_entry_points, traced

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TESTS = ROOT / "tests"
RESULTS = ROOT / ".perfbench"

# fresh interpreters timed for setup_s, after one untimed start that
# leaves compiled bytecode behind as any installed copy would have
SETUP_REPEATS = 7
SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import weavesym
from weavesym.naming import pair_table
pair_table()
weavesym.load_manifest()
print(time.perf_counter() - t0)
"""
CATALOG_SIZE = 44

# Host speed.  On a shared virtual machine the speed one process gets
# drifts by 20-40% over seconds to minutes, so the same pass can take
# 0.9 s in one run and 1.35 s in the next.  Each pass is therefore
# interleaved with readings of a fixed reference loop that does not
# touch weavesym, and its times are reported in host-corrected seconds:
# wall time scaled by REF_SECONDS over the pass's median reading.
# Wall-clock figures are printed alongside and kept in the run record.
REF_SECONDS = 0.0055   # reference_loop() on a quiet 2-vCPU Xeon VM, 2.1 GHz, CPython 3.11
REF_EVERY_S = 0.25     # timed work between two reference readings

END_TO_END_UNITS = {
    "setup_s": "s",
    "sweep_s": "s",
    "designs_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


# ------------------------------------------------------------ environment

def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None
    outside a git work tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(args) -> dict:
    return {
        "python": platform.python_version(),
        "cpu": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


# ------------------------------------------------------------ measurement

def reference_loop() -> float:
    """Seconds for a fixed piece of interpreter work (integer, tuple and
    dict operations, like the package's own inner loops); the better of
    two runs, so that one interruption does not count."""
    best = float("inf")
    for _ in range(2):
        t0 = time.perf_counter()
        rows = tuple(range(1, 65))
        table = {}
        acc = 0
        for i in range(20000):
            r = rows[i & 63]
            v = (((r << 5) | (r >> 3)) ^ i) & 0xFFFF
            table[v & 511] = (v, i)
            acc += len(table) & 7
        best = min(best, time.perf_counter() - t0)
    return best


def measure_setup() -> tuple[float, float]:
    """Median set-up time of fresh interpreters: host-corrected, wall."""
    wall, readings = [], [reference_loop()]
    for i in range(SETUP_REPEATS + 1):
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC)],
                              capture_output=True, text=True, timeout=120, check=True)
        readings.append(reference_loop())
        if i:
            wall.append(float(proc.stdout))
    median = statistics.median(wall)
    return median * REF_SECONDS / statistics.median(readings), median


class _Raised:
    """Output slot of an operation that raised."""

    def __init__(self):
        self.text = traceback.format_exc()


def measure(wl, seed: int, seconds: float, passes: int | None = None,
            tracer=None) -> dict:
    """Closed loop over whole passes.  Stops after `passes` passes, or
    once `seconds` of timed work and at least wl.min_ops operations are
    done.  Outputs are checked after each pass, outside the timing and
    outside the trace.  Reference readings are taken before the pass
    and after every REF_EVERY_S of timed work, and at its end."""
    rng = random.Random(seed)
    pass_s, by_slot, refs = [], [], []
    attempted = failed = 0
    tally = Counter()
    while True:
        items = wl.make_pass(rng)
        order = list(range(len(items)))
        rng.shuffle(order)
        outputs = [None] * len(items)
        slot_s = [0.0] * len(items)
        clock = time.perf_counter
        with traced(tracer) if tracer is not None else nullcontext():
            readings = [reference_loop()]
            since = 0.0
            for k in order:
                t0 = clock()
                try:
                    outputs[k] = wl.run_op(items[k])
                except Exception:
                    outputs[k] = _Raised()
                slot_s[k] = clock() - t0
                since += slot_s[k]
                if since >= REF_EVERY_S or k == order[-1]:
                    readings.append(reference_loop())
                    since = 0.0
        pass_s.append(sum(slot_s))
        by_slot.append(slot_s)
        refs.append(readings)
        for item, out in zip(items, outputs):
            attempted += 1
            if isinstance(out, _Raised):
                problems = [out.text]
            else:
                try:
                    problems = wl.check_op(item, out)
                    wl.tally(out, tally)
                except Exception:
                    problems = [traceback.format_exc()]
            if problems:
                failed += 1
                print(f"FAILED {wl.name}: " + "; ".join(problems), file=sys.stderr)
        del outputs
        if passes is not None:
            if len(pass_s) >= passes:
                break
        elif sum(pass_s) >= seconds and attempted >= wl.min_ops:
            break
    return {"pass_s": pass_s, "by_slot": by_slot, "refs": refs,
            "attempted": attempted, "failed": failed, "tally": tally}


def catalog_gate() -> bool:
    catalog = importlib.import_module("weavesym.catalog")
    report = catalog.verify_catalog(catalog.load_manifest())
    ok = report["total"] == CATALOG_SIZE and not report["failures"]
    if not ok:
        print(f"FAILED catalog verify: {report['total'] - len(report['failures'])}"
              f"/{report['total']} entries match", file=sys.stderr)
    return ok


def end_to_end(by_slot: list[list[float]], setup_s: float) -> dict:
    pass_s = [sum(slot_s) for slot_s in by_slot]
    lat_ms = [x * 1e3 for slot_s in by_slot for x in slot_s]
    return {
        "setup_s": setup_s,
        "sweep_s": statistics.median(pass_s),
        "designs_per_s": statistics.median(len(p) / t for p, t in zip(by_slot, pass_s)),
        "latency_p50_ms": statistics.median(lat_ms),
        "latency_p90_ms": statistics.quantiles(lat_ms, n=10)[8],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def host_corrected(run: dict) -> list[list[float]]:
    """Per-design times of each pass, scaled by the pass's median
    reference reading."""
    out = []
    for slot_s, readings in zip(run["by_slot"], run["refs"]):
        scale = REF_SECONDS / statistics.median(readings)
        out.append([t * scale for t in slot_s])
    return out


def per_layer(untraced: dict, traced_run: dict, tracer, cat_tracer) -> tuple[dict, dict]:
    summ = tracer.summary()
    cat = cat_tracer.summary()
    calls, self_s = summ["calls"], summ["self_s"]
    calls["catalog"], self_s["catalog"] = cat["calls"]["catalog"], cat["self_s"]["catalog"]
    wall = sum(traced_run["pass_s"])
    nested = summ["nested"]
    classified = nested[("search", "classify")]
    matched = nested[("search", "dedup")]
    counts = tracer.counts + traced_run["tally"]
    values, units = {}, {}

    def put(name, value, unit):
        values[name] = value
        units[name] = unit

    for layer in LAYERS:
        put(f"{layer}.calls", calls[layer], "count")
        put(f"{layer}.self_s", self_s[layer], "s")
    put("search.candidates", counts["enumerate.yields"], "count")
    put("search.classified", classified, "count")
    put("search.matched", matched, "count")
    put("search.yield", matched / classified if classified else 0.0, "ratio")
    put("dedup.hits", matched - counts["search.results"], "count")
    put("group.elements", counts["group.elements"], "count")
    put("record.bytes", counts["record.bytes"], "bytes")
    put("svg.bytes", counts["svg.bytes"], "bytes")
    put("catalog.verify_s", cat_tracer.root_span_seconds("catalog"), "s")
    put("trace.wall_s", wall, "s")
    put("trace.other_s", wall - sum(v for k, v in self_s.items() if k != "catalog"), "s")
    # host-corrected per-pass medians, so that host speed drift between
    # the two copies does not swamp the difference
    put("trace.overhead_s", len(traced_run["pass_s"]) * (
        statistics.median(map(sum, host_corrected(traced_run)))
        - statistics.median(map(sum, host_corrected(untraced)))), "s")
    return values, units


# ------------------------------------------------------------------- main

def run_all(args) -> int:
    code = 0
    for name in ("search-table", "analyze-random", "analyze-periodic", "render"):
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                               "--workload", name, "--seed", str(args.seed),
                               "--seconds", str(args.seconds), "--trace", str(args.trace)])
        code = code or proc.returncode
    return code


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "weavesym" / "__init__.py").is_file():
        print(f"weavesym sources not found under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    sys.path.append(str(TESTS))
    from workloads import WORKLOADS

    wl = WORKLOADS.get(args.workload)
    if wl is None:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)} or all", file=sys.stderr)
        return 2
    env = environment(args)
    setup_s, setup_wall = measure_setup() if not args.trace else (None, None)
    run = measure(wl, args.seed, args.seconds)
    attempted, failed = run["attempted"] + 1, run["failed"]
    if args.trace:
        tracer, cat_tracer = Tracer(), Tracer()
        traced_run = measure(wl, args.seed, args.seconds, passes=len(run["pass_s"]),
                             tracer=tracer)
        with traced(cat_tracer):
            ok = catalog_gate()
        attempted += traced_run["attempted"]
        failed += traced_run["failed"]
        metrics, units = per_layer(run, traced_run, tracer, cat_tracer)
        wall = {}
        absent = absent_entry_points()
    else:
        ok = catalog_gate()
        metrics, units = end_to_end(host_corrected(run), setup_s), END_TO_END_UNITS
        wall = end_to_end(run["by_slot"], setup_wall)
        absent = []
    failed += not ok

    record = {
        "env": env,
        "passes": len(run["pass_s"]),
        "operations": run["attempted"],
        "absent_entry_points": absent,
        "error_rate": failed / attempted,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "wall_clock_metrics": wall,
        "by_slot": run["by_slot"],
        "refs": run["refs"],
    }
    RESULTS.mkdir(exist_ok=True)
    out_path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    print("env " + json.dumps(env))
    print(f"workload {wl.name}: {record['passes']} passes, {record['operations']} operations")
    if absent:
        print("absent layer entry points: " + ", ".join(absent))
    if wall:
        print(f"  {'metric':<22} {'host-corrected':>14} {'wall clock':>14}")
    for name, value in metrics.items():
        extra = f" {wall[name]:>14.6g}" if name in wall else ""
        print(f"  {name:<22} {value:>14.6g}{extra} {units[name]}")
    print(f"  {'error_rate':<22} {failed / attempted:>14.6g} ratio "
          f"({failed} failed of {attempted} attempted)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": record["metrics"]}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
