"""Tests of the benchmark itself: its generators, its oracle and its gate.

    python3 -m pytest benchmarks/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import oracle
import tracing
import worker
import workloads

from conftest import BENCH, ROOT

GOLDEN = oracle.load_golden(ROOT)


@pytest.fixture(scope="module")
def jkn():
    import jkn

    return jkn


# ---------------------------------------------------------------------------
# Generators


def test_same_seed_same_requests_other_seed_other_requests():
    for name in workloads.WORKLOADS:
        first = workloads.build(name, 7, ROOT)
        assert first == workloads.build(name, 7, ROOT)
        assert first != workloads.build(name, 8, ROOT)


def test_classify_mix_has_the_intended_class_counts():
    reqs = workloads.build("classify", 3, ROOT)
    counts = Counter(r["cls"] for r in reqs)
    assert counts == Counter(dict(workloads.CLASSIFY_MIX, readme=2))
    kinds = Counter(oracle.classification(*r["args"])[0] for r in reqs)
    assert kinds["RealPositive"] >= 700 and kinds["AlmostRealPositive"] >= 350
    walks = [
        len(oracle.classification(*r["args"])[3][0])
        for r in reqs
        if r["cls"] == "real"
    ]
    assert max(walks) == 13
    assert all(r["args"][1] == 2000 for r in reqs if r["cls"] == "large_n")


def test_orbits_keys_are_distinct_and_hold_the_edge_request():
    reqs = workloads.build("orbits", 3, ROOT)
    concrete = [tuple(r["args"]) for r in reqs if r["op"] == "enumerate_orbits"]
    generic = sorted(r["args"][0] for r in reqs if r["op"] == "enumerate_generic")
    hosts = {(2 * d - 1, 4 * d - 2, d) for d in generic}
    assert len(set(concrete)) == len(concrete)
    assert not hosts & set(concrete)
    assert generic == list(range(1, 13))
    edges = [r for r in reqs if r.get("known_defect")]
    assert [tuple(r["args"]) for r in edges] == [workloads.EDGE_ORBITS]


def test_cli_requests_pass_default_flags_only():
    reqs = workloads.build("cli", 3, ROOT)
    assert all(r["op"] == "cli" for r in reqs)
    assert not any("--threads" in r["args"] or "--time-limit" in r["args"] for r in reqs)
    commands = Counter(r["args"][0] for r in reqs)
    assert set(commands) == {"check", "tables", "orbits", "generic", "weights", "selftest"}
    assert sorted(r["cls"] for r in reqs if r.get("known_defect")) == ["check_file_negative", "edge"]


def test_finite_systems_are_finite_and_some_repeat():
    reqs = workloads.build("finite", 3, ROOT)
    assert all(oracle.is_finite_type(*r["args"]) for r in reqs)
    sums = Counter(tuple(r["args"]) for r in reqs if r["op"] == "sum_of_positive_roots")
    assert max(sums.values()) == 2
    assert max(n for k, n in sums) == 10
    assert max(r["args"][1] for r in reqs if r["op"] == "fundamental_weights") == 40


# ---------------------------------------------------------------------------
# The oracle against the hand-made tables


def test_oracle_generic_counts_match_golden():
    real_row, almost_row = GOLDEN["ORBIT_COUNTS"][None, None]
    for d in range(1, 10):
        orbits = oracle.generic_orbits(d)
        real = sum(1 for g in orbits if g[5] == "Real")
        assert (real, len(orbits) - real) == (real_row[d - 1], almost_row[d - 1])


def test_oracle_generic_cores_match_golden():
    for d in range(1, 6):
        orbits = oracle.generic_orbits(d)
        real = sorted((g[0], g[1]) for g in orbits if g[5] == "Real")
        almost = sorted((g[0], g[1]) for g in orbits if g[5] == "AlmostReal")
        assert real == sorted(GOLDEN["GENERIC_REAL_CORES"][d])
        assert almost == sorted(GOLDEN["GENERIC_ALMOST_CORES"][d])


def test_oracle_orbit_and_root_counts_match_golden():
    for key, (real_row, almost_row) in GOLDEN["ORBIT_COUNTS"].items():
        if None in key:
            continue
        k, n = key
        for d in range(1, 12):
            orbits = oracle.orbit_classes(k, n, d)
            real = sum(1 for o in orbits if o[2] == "Real")
            assert (real, len(orbits) - real) == (real_row[d - 1], almost_row[d - 1])
    for table, kind in ((GOLDEN["REAL_COUNTS"], "Real"), (GOLDEN["ALMOST_COUNTS"], "AlmostReal")):
        for (k, n), row in table.items():
            if k > 5:
                continue
            got = tuple(
                sum(o[3] for o in oracle.orbit_classes(k, n, d) if o[2] == kind)
                for d in range(1, 8)
            )
            assert got == row, (k, n)


def test_oracle_reproduces_the_readme_examples():
    kind, d, _, (steps, terminal) = oracle.classification(3, 8, (2, 1, 1, 1, 1, 1, 1, 1))
    assert (kind, d, terminal) == ("RealPositive", 3, oracle.REACHED)
    assert [s[2] for s in steps] == [-1, -1, -2]
    kind, _, _, (steps, terminal) = oracle.classification(4, 10, (3, 3, 3, 1, 1, 1, 1, 1, 1, 1))
    assert (kind, len(steps), terminal) == ("AlmostRealPositive", 1, oracle.RANGE)
    transcripts = {tuple(argv): text for argv, _, text in oracle.README_TRANSCRIPTS}
    csv_text = transcripts["orbits", "3", "9", "--degree", "3", "--format", "csv"]
    assert oracle.render_orbits_csv(oracle.orbit_classes(3, 9, 3)) == csv_text
    assert oracle.render_tables(GOLDEN["REAL_COUNTS"][3, 9][:5]) == transcripts["tables", "3", "9", "--max", "5"]
    weights = oracle.parse_weights_plain(transcripts["weights", "3", "6"], 6)
    assert oracle.weights_ok(3, 6, weights, None)


# ---------------------------------------------------------------------------
# The gate rejects corrupted answers


def test_gate_accepts_true_orbits_and_rejects_corrupted_ones(jkn):
    req = workloads._orbits_request(4, 11, 6, "concrete")
    answer = jkn.enumerate_orbits(jkn.SystemParams(4, 11), 6)
    assert worker.check(req, answer)
    first = answer[0]
    assert not worker.check(req, (dataclasses.replace(first, orbit_size=first.orbit_size + 1),) + answer[1:])
    assert not worker.check(req, answer[1:])
    assert not worker.check(req, answer[::-1])


def test_gate_rejects_a_wrong_kind(jkn):
    x = [3, 3, 3, 1, 1, 1, 1, 1, 1, 1]
    req = workloads._classify_request(4, 10, x, "readme")
    answer = jkn.classify_entries(jkn.SystemParams(4, 10), x)
    assert worker.check(req, answer)
    assert not worker.check(req, dataclasses.replace(answer, kind=jkn.Kind.REAL_POSITIVE))


def test_gate_rejects_corrupted_weights_and_root_sums(jkn):
    params = jkn.SystemParams(3, 7)
    weights = jkn.fundamental_weights(params)
    req = {"op": "fundamental_weights", "args": [3, 7], "expect": None}
    assert worker.check(req, weights)
    bad = dataclasses.replace(weights[2], coords=(weights[2].coords[0] + 1,) + weights[2].coords[1:])
    assert not worker.check(req, weights[:2] + (bad,) + weights[3:])
    total = jkn.sum_of_positive_roots(params)
    req = {"op": "sum_of_positive_roots", "args": [3, 7], "expect": None}
    assert worker.check(req, total)
    shifted = total.x[:1] + (total.x[1] + 1, total.x[2] - 1) + total.x[3:]
    assert not worker.check(req, jkn.LatticeVector(params, shifted))


def test_gate_rejects_wrong_cli_text_and_exit_code():
    argv, code, text = oracle.README_TRANSCRIPTS[2]
    req = workloads._cli_request(argv, "readme", code, "text", text)
    assert worker.check(req, (code, text.encode()))
    assert not worker.check(req, (code, text.replace("84", "85", 1).encode()))
    assert not worker.check(req, (1, text.encode()))


# ---------------------------------------------------------------------------
# Tracing, a worker pass, and the contract's empty-directory run


def _unwrap_all():
    for name, module in list(sys.modules.items()):
        if name == "jkn" or name.startswith("jkn."):
            for attr, value in list(vars(module).items()):
                if hasattr(value, "__wrapped__") and callable(value):
                    setattr(module, attr, value.__wrapped__)


def test_tracer_marks_missing_wrap_points_and_counts_cache_hits(jkn, monkeypatch):
    monkeypatch.setattr(tracing, "WRAP_POINTS", tracing.WRAP_POINTS + (("enumeration", "no_such_callable"),))
    tracer = tracing.Tracer()
    try:
        tracer.install()
        jkn.enumerate_generic(5)
        jkn.enumerate_orbits(jkn.SystemParams(4, 12), 5)
        jkn.enumerate_orbits(jkn.SystemParams(4, 12), 5)
    finally:
        _unwrap_all()
    calls = {name: v[0] for name, v in tracing.summarize(tracer.spans).items()}
    assert tracer.absent == ["enumeration.no_such_callable"]
    assert calls["enumeration.enumerate_orbits"] == 3 and tracer.cache_hits == 1
    assert calls["families.minimal_support"] == len(oracle.generic_orbits(5))


def _worker_pass(work: Path, reqs: list[dict], pass_no: int) -> dict:
    (work / "requests.json").write_text(json.dumps({"workload": "orbits", "requests": reqs}))
    done = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), str(work), str(pass_no), "--trace"],
        capture_output=True, text=True, env={"PYTHONPATH": str(ROOT / "src")}, cwd=ROOT, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_worker_pass_counts_failures_and_repeats_its_counts(tmp_path):
    reqs = [
        workloads._orbits_request(4, 11, 6, "concrete"),
        dict(workloads._orbits_request(4, 11, 7, "concrete"), expect="corrupted"),
        {"op": "enumerate_generic", "args": [4], "cls": "generic",
         "expect": oracle.digest(oracle.generic_orbits(4))},
    ]
    first, second = (_worker_pass(tmp_path, reqs, i) for i in range(2))
    assert first["failed"] == [1] and len(first["latencies"]) == 3
    assert first["layers"]["enumeration.enumerate_orbits"][0] == 3
    assert {k: v[0] for k, v in first["layers"].items()} == {k: v[0] for k, v in second["layers"].items()}
    assert first["counts"] == second["counts"]
    assert (tmp_path / "spans-1.json").exists()


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "orbits", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_metrics_match_benchmark_json():
    import run

    fake = {
        "latencies": [0.01] * 50, "raw_latencies": [0.02] * 50, "failed": [3], "rss_kb": 2048,
        "counts": {"orbits_returned": 4, "almost_returned": 1, "walk_steps": 9, "bytes_out": 10},
        "layers": {"lattice.LatticeVector": [5, 10**9]}, "absent": ["cli.main"], "cache": [4, 1],
    }
    values, _ = run.end_to_end([fake] * 4, [0.1, 0.2, 0.3])
    assert list(values) == [m["name"] for m in run.SPEC["end_to_end"]]
    assert values["ok_ratio"] == 1 - 4 / 200 and values["wall_s"] == pytest.approx(0.5)
    layers = run.per_layer([fake] * 2, [fake] * 2)
    assert list(layers) == [m["name"] for m in run.SPEC["per_layer"]]
    assert layers["lattice.LatticeVector.calls"] == 5 and layers["cli.main.self_s"] == -1
    assert layers["lattice.LatticeVector.self_s"] == pytest.approx(0.5)
    assert layers["enumeration.cache_hit_ratio"] == 0.25
