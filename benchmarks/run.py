"""The jkn benchmark: one command, four seeded workloads, six metrics each.

    python3 benchmarks/run.py --workload orbits --seed 1 --seconds 25 --trace 0

Builds the workload's requests from the seed, with their expected answers
from the benchmark's own arithmetic (`oracle.py`), then runs passes over
them, each in a fresh interpreter (`worker.py`), until --seconds have gone
by and at least MIN_PASSES passes are done.  Prints one line per metric,
then, as the last line, the JSON object

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones; with --trace 1 the run
splits its time between untraced and traced passes and reports the
per-layer ones.  See README.md for their definitions.

The program is the `jkn` package under src/ of the checkout this file sits
in; without it the benchmark exits with code 2 before measuring anything.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
MIN_PASSES = 4
MAX_PASSES = 400
SETUP_SAMPLES = 15
PASS_TIMEOUT_S = 150
TAIL_LEVELS = (0.5, 0.75, 0.9, 0.95, 0.99, 0.995, 0.999)

# Metric names and units come from BENCHMARK.json.  A per-layer name
# ending in ".calls" or ".self_s" is read from the spans of the wrap point
# its prefix names; -1 marks a wrap point the library lacks.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def setup_sample() -> float:
    """Nominal seconds for a fresh interpreter to import jkn and jkn.cli."""
    before = speed.reference_seconds()
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import jkn, jkn.cli"], env=child_env(), cwd=ROOT, check=True, timeout=60)
    elapsed = time.perf_counter() - start
    return elapsed * speed.scale(before, speed.reference_seconds())


def run_pass(work: Path, pass_no: int, traced: bool) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), str(work), str(pass_no)]
    if traced:
        cmd.append("--trace")
    done = subprocess.run(
        cmd, env=child_env(), cwd=ROOT, capture_output=True, text=True, timeout=PASS_TIMEOUT_S
    )
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise RuntimeError(f"worker pass {pass_no} exited with {done.returncode}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    result["log"] = done.stderr
    return result


def run_passes(work: Path, seconds: float, traced: bool, first: int, min_passes: int, after_pass=None) -> list[dict]:
    results = []
    start = time.perf_counter()
    while len(results) < MAX_PASSES and (
        len(results) < min_passes or time.perf_counter() - start < seconds
    ):
        results.append(run_pass(work, first + len(results), traced))
        if after_pass is not None:
            after_pass()
    return results


def nominal(p: dict) -> float:
    """The pass's factor from raw to nominal seconds."""
    return sum(p["latencies"]) / sum(p["raw_latencies"])


def wall(passes: list[dict], key: str = "latencies") -> float:
    """Median over passes of the time to serve the pass's requests."""
    return statistics.median(sum(p[key]) for p in passes)


def tail_level(per_pass: int) -> float:
    """The highest of TAIL_LEVELS with ten latencies beyond it in the fewest
    a run collects; it is fixed per workload because the pass size is."""
    return max(level for level in TAIL_LEVELS if MIN_PASSES * per_pass * (1 - level) >= 10)


def percentile(sorted_values: list[float], level: float) -> float:
    """Nearest-rank percentile."""
    rank = max(1, math.ceil(level * len(sorted_values)))
    return sorted_values[rank - 1]


def end_to_end(passes: list[dict], setup: list[float]) -> tuple[dict, str]:
    pooled = sorted(lat for p in passes for lat in p["latencies"])
    level = tail_level(len(passes[0]["latencies"]))
    beyond = len(pooled) - max(1, math.ceil(level * len(pooled)))
    attempted = len(pooled)
    failed = sum(len(p["failed"]) for p in passes)
    values = {
        "setup_s": statistics.median(setup),
        "wall_s": wall(passes),
        "req_p50_ms": statistics.median(pooled) * 1e3,
        "req_tail_ms": percentile(pooled, level) * 1e3,
        "peak_rss_mb": statistics.median(p["rss_kb"] for p in passes) / 1024,
        "ok_ratio": 1 - failed / attempted,
    }
    note = (
        f"times in nominal seconds (see speed.py); raw wall_s = {wall(passes, 'raw_latencies'):.6g} s;"
        f" req_tail_ms is p{level * 100:g} of {len(pooled)} latencies ({beyond} beyond);"
        f" setup_s is the median of {len(setup)} imports;"
        f" fail_ratio = {failed}/{attempted} = {failed / attempted:.6f}"
    )
    return values, note


def per_layer(untraced: list[dict], traced: list[dict]) -> dict:
    first = traced[0]
    absent = set(first["absent"])
    counts = first["counts"]
    calls, hits = first["cache"]
    returned = counts["orbits_returned"]
    values = {
        "enumeration.orbits_returned": returned,
        "enumeration.cache_hit_ratio": (
            -1 if "enumeration.enumerate_orbits" in absent else hits / calls if calls else 0.0
        ),
        "classify.walk_steps": counts["walk_steps"],
        "classify.almost_ratio": counts["almost_returned"] / returned if returned else 0.0,
        "cli.bytes_out": counts["bytes_out"],
        "trace.overhead_s": wall(traced) - wall(untraced),
    }
    for metric in SPEC["per_layer"]:
        name = metric["name"]
        prefix, _, field = name.rpartition(".")
        if prefix in absent:
            values[name] = -1
        elif field == "calls":
            values[name] = first["layers"].get(prefix, [0, 0])[0]
        elif field == "self_s":
            values[name] = statistics.median(
                p["layers"].get(prefix, [0, 0])[1] * nominal(p) for p in traced
            ) / 1e9
    return {metric["name"]: values[metric["name"]] for metric in SPEC["per_layer"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "jkn" / "__init__.py").is_file():
        sys.stderr.write(f"error: no jkn package under {ROOT / 'src'}; nothing to measure\n")
        return 2

    requests = workloads.build(args.workload, args.seed, ROOT)
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        for req in requests:
            for name, content in req.get("files", {}).items():
                (work / name).write_text(content)
        (work / "requests.json").write_text(
            json.dumps({"workload": args.workload, "requests": requests})
        )
        if args.trace:
            half = args.seconds / 2
            untraced = run_passes(work, half, False, 0, 2)
            traced = run_passes(work, half, True, len(untraced), 2)
            passes = untraced + traced
            values = per_layer(untraced, traced)
            metrics = SPEC["per_layer"]
            keep = WORK / "spans"
            keep.mkdir(exist_ok=True)
            shutil.copy(work / f"spans-{len(passes) - 1}.json", keep / f"{args.workload}.json")
            note = f"spans of the last traced pass: {keep / (args.workload + '.json')}"
        else:
            setup_sample()  # writes the bytecode caches
            setup = [setup_sample() for _ in range(3)]

            def more_setup():  # spread the samples over the run
                if len(setup) < SETUP_SAMPLES:
                    setup.append(setup_sample())

            passes = run_passes(work, args.seconds, False, 0, MIN_PASSES, more_setup)
            values, note = end_to_end(passes, setup)
            metrics = SPEC["end_to_end"]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    known = {i for i, r in enumerate(requests) if r.get("known_defect")}
    failed_ids = [i for p in passes for i in p["failed"]]
    unexpected = sorted({i for i in failed_ids if i not in known})
    for i in sorted(set(failed_ids)):
        reason = requests[i].get("known_defect") or "unexpected"
        print(f"failed: request {i} ({requests[i]['cls']}): {reason}")
    for p in passes:
        if unexpected:
            sys.stderr.write(p["log"])
    print(f"{args.workload} seed={args.seed} passes={len(passes)} requests/pass={len(requests)}")
    units = {metric["name"]: metric["unit"] for metric in metrics}
    for name, value in values.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(note)
    print(
        json.dumps(
            {
                "correct": not unexpected,
                "attempted": sum(len(p["latencies"]) for p in passes),
                "failed": len(failed_ids),
                "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
