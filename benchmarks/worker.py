"""One pass of a workload, in a fresh interpreter.

    python3 benchmarks/worker.py WORKDIR PASS [--trace]

Reads WORKDIR/requests.json, sends the requests one at a time (a closed loop
with one client), times each call, then checks its answer outside the timed
region.  Prints one JSON line: the latencies (raw, and scaled to nominal
machine speed by `speed`), the failed request ids, the peak resident memory
of the process that served the pass, and the counts taken from the answers.  With --trace the spans are written to
WORKDIR/spans-PASS.json and summarized per wrap point.

A fresh interpreter per pass keeps the library's in-process cache from
serving one pass's keys to the next.
"""

from __future__ import annotations

import json
import resource
import subprocess
import sys
import time
from pathlib import Path

import oracle
import speed
from tracing import Tracer, summarize

ROOT = Path(__file__).resolve().parent.parent
CONSOLE_SCRIPT = "import sys; from jkn.cli import main; sys.exit(main())"
CLI_TIMEOUT_S = 120
SEGMENT_S = 0.1


def normal_orbits(answer):
    return (
        (
            tuple(o.representative.x),
            o.degree,
            o.kind.value,
            o.orbit_size,
            tuple(tuple(p) for p in o.multiset_signature),
        )
        for o in answer
    )


def normal_generic(answer):
    return (
        (tuple(g.core), g.core_params.k, g.core_params.n, g.d_multiplicity_offset, g.degree, g.kind.value)
        for g in answer
    )


def normal_classification(c) -> tuple:
    trace = None
    if c.trace is not None:
        steps = tuple(
            (tuple(s.before_sort.x), tuple(s.sorted.x), s.r, s.degree_after) for s in c.trace.steps
        )
        trace = (steps, c.trace.terminal.value)
    return (c.kind.value, c.degree, c.q_value, trace)


def check(req: dict, answer) -> bool:
    """Does the answer match the oracle's expectation for this request?"""
    op, args, expect = req["op"], req["args"], req["expect"]
    if op == "enumerate_orbits":
        return oracle.digest(normal_orbits(answer)) == expect
    if op == "enumerate_generic":
        return oracle.digest(normal_generic(answer)) == expect
    if op == "classify_entries":
        return oracle.digest(normal_classification(answer)) == expect
    if op == "fundamental_weights":
        k, n = args
        return oracle.weights_ok(k, n, [w.coords for w in answer], [w.root_coeffs for w in answer])
    if op == "sum_of_positive_roots":
        k, n = args
        return oracle.root_sum_ok(k, n, answer.x)
    if op == "cli":
        return check_cli(req, *answer)
    raise ValueError(f"unknown op {op!r}")


def check_cli(req: dict, code: int, out: bytes) -> bool:
    expect = req["expect"]
    if code != expect["code"]:
        return False
    text = out.decode()
    how, value = expect["how"], expect["value"]
    try:
        if how == "text":
            return text == value
        if how == "orbits_json":
            return oracle.digest(oracle.parse_orbits_json(text)) == value
        if how == "generic_json":
            return oracle.digest(oracle.parse_generic_json(text)) == value
        if how == "generic_csv":
            return oracle.digest(oracle.parse_generic_csv(text)) == value
        if how == "check_json":
            return oracle.digest(oracle.parse_check_json(text)) == value
        if how == "weights":
            k, n = value
            coords = oracle.parse_weights_plain(text, n)
            return coords is not None and oracle.weights_ok(k, n, coords, None)
        if how == "selftest":
            return oracle.selftest_ok(text)
    except (ValueError, KeyError, TypeError):  # unparsable output is a wrong answer
        return False
    raise ValueError(f"unknown check {how!r}")


def answer_counts(req: dict, answer, counts: dict) -> None:
    op = req["op"]
    if op in ("enumerate_orbits", "enumerate_generic"):
        counts["orbits_returned"] += len(answer)
        counts["almost_returned"] += sum(1 for o in answer if o.kind.value == "AlmostReal")
    elif op == "classify_entries" and answer.trace is not None:
        counts["walk_steps"] += len(answer.trace.steps)
    elif op == "cli":
        counts["bytes_out"] += len(answer[1])


def main(argv: list[str]) -> int:
    work, pass_no, traced = Path(argv[0]), int(argv[1]), "--trace" in argv[2:]
    spec = json.loads((work / "requests.json").read_text())
    requests = spec["requests"]
    is_cli = spec["workload"] == "cli"

    import jkn

    if not Path(jkn.__file__).resolve().is_relative_to(ROOT / "src"):
        sys.stderr.write(f"jkn imported from {jkn.__file__}, not from this checkout\n")
        return 2
    tracer = Tracer()
    if traced and not is_cli:
        tracer.install()

    def call(i: int, req: dict):
        op, args = req["op"], req["args"]
        if op == "cli":
            argv = [a.replace("{work}", str(work)) for a in args]
            if traced:
                child_spans = work / f"cli-spans-{i}.json"
                cmd = [sys.executable, str(Path(__file__).with_name("cli_shim.py")), str(child_spans), str(i)]
            else:
                cmd = [sys.executable, "-c", CONSOLE_SCRIPT]
            done = subprocess.run(cmd + argv, capture_output=True, cwd=ROOT, timeout=CLI_TIMEOUT_S)
            return done.returncode, done.stdout
        if op == "enumerate_generic":
            return jkn.enumerate_generic(*args)
        k, n, *rest = args
        fn = getattr(jkn, op)
        return fn(jkn.SystemParams(k, n), *rest)

    raw, latencies, failed = [], [], []
    counts = {"orbits_returned": 0, "almost_returned": 0, "walk_steps": 0, "bytes_out": 0}
    ref_before, segment = speed.reference_seconds(), 0.0
    for i, req in enumerate(requests):
        tracer.request = i
        start = time.perf_counter()
        try:
            answer = call(i, req)
        except Exception as exc:  # a raising request is a failed request
            answer = None
            failed.append(i)
            sys.stderr.write(f"request {i} ({req['cls']}) raised {type(exc).__name__}\n")
        raw.append(time.perf_counter() - start)
        if answer is not None:
            if not check(req, answer):
                failed.append(i)
                sys.stderr.write(f"request {i} ({req['cls']}) gave a wrong answer\n")
            answer_counts(req, answer, counts)
            del answer
        # Time the reference again after every SEGMENT_S of requests and
        # scale the segment by the speed measured around it.
        segment += raw[-1]
        if segment >= SEGMENT_S or i == len(requests) - 1:
            ref_after = speed.reference_seconds()
            factor = speed.scale(ref_before, ref_after)
            latencies.extend(lat * factor for lat in raw[len(latencies):])
            ref_before, segment = ref_after, 0.0

    result = {
        "latencies": latencies,
        "raw_latencies": raw,
        "failed": failed,
        "rss_kb": resource.getrusage(resource.RUSAGE_CHILDREN if is_cli else resource.RUSAGE_SELF).ru_maxrss,
        "counts": counts,
    }
    if traced:
        if is_cli:
            merge_cli_spans(tracer, work, len(requests))
        layers = summarize(tracer.spans)
        tracer.dump(work / f"spans-{pass_no}.json")
        result["layers"] = layers
        result["absent"] = sorted(set(tracer.absent))
        result["cache"] = [tracer.cache_calls, tracer.cache_hits]
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


def merge_cli_spans(tracer: Tracer, work: Path, count: int) -> None:
    """Fold each CLI child's spans into this pass's list, re-basing parents."""
    for i in range(count):
        path = work / f"cli-spans-{i}.json"
        if not path.exists():
            continue
        child = json.loads(path.read_text())
        path.unlink()
        base = len(tracer.spans)
        for span in child["spans"]:
            if span is not None:
                name, start, end, parent, request = span
                span = (name, start, end, parent + base if parent >= 0 else -1, request)
            tracer.spans.append(span)
        tracer.absent.extend(child["absent"])
        tracer.cache_calls += child["cache_calls"]
        tracer.cache_hits += child["cache_hits"]


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
