"""Seeded request streams for the four workloads, with expected answers.

`build(workload, seed, root)` returns the list of requests one pass sends,
in order.  A request is a JSON-able dict:

    op            the public callable or "cli"
    args          its arguments (for "cli": the argv after `jkn`)
    cls           the class of input, for the generator tests and reports
    expect        what the gate compares against (see worker.check)
    known_defect  set on the requests that fail at the parent commit, for
                  a reason also given in BENCHMARK.json and README.md;
                  they still count as failed while they fail

The same seed gives the same requests.  Expected answers come from
`oracle`, never from the library.
"""

from __future__ import annotations

import random
from pathlib import Path

import oracle

WORKLOADS = ("orbits", "classify", "cli", "finite")

EDGE_ORBITS = (3, 1500, 2)
EDGE_DEFECT = "J(3,1500) degree 2: _search_suffix recurses once per coordinate"
CHECK_FILE_DEFECT = "check @file: a line starting with '-' is read as an option (exit 3)"


def build(workload: str, seed: int, root: Path) -> list[dict]:
    rng = random.Random(f"{workload}:{seed}")
    if workload == "orbits":
        return _orbits(rng)
    if workload == "classify":
        return _classify(rng, root)
    if workload == "cli":
        return _cli(rng, root)
    if workload == "finite":
        return _finite(rng)
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# orbits: distinct (params, degree) keys, so the library's cache serves none.
# Each (degree, k) cell is used once, and the hosts J(2d-1, 4d-2) that
# enumerate_generic uses have k >= 7 with n = 2k, which no cell reaches.


def _orbits(rng: random.Random) -> list[dict]:
    reqs = []
    for d in range(1, 13):
        reqs.append(
            {"op": "enumerate_generic", "args": [d], "cls": "generic",
             "expect": oracle.digest(oracle.generic_orbits(d))}
        )
    # One key per (degree, k) cell.  The seed moves n only in the cells
    # of degree 4, which cost well under the median request, so the pass
    # costs the same for every seed.
    cells = [(d, k, 12) for d in range(4, 12) for k in range(3, 9)]
    cells += [(d, k, 55) for d in (6, 7, 8) for k in (3, 4)]
    for d, k, offset in cells:
        n = k + offset + (rng.randrange(4) if d == 4 else 1)
        reqs.append(_orbits_request(k, n, d, "concrete"))
    k, n, d = EDGE_ORBITS
    edge = _orbits_request(k, n, d, "edge")
    edge["known_defect"] = EDGE_DEFECT
    reqs.append(edge)
    rng.shuffle(reqs)
    return reqs


def _orbits_request(k: int, n: int, d: int, cls: str) -> dict:
    return {"op": "enumerate_orbits", "args": [k, n, d], "cls": cls,
            "expect": oracle.digest(oracle.orbit_classes(k, n, d))}


# ---------------------------------------------------------------------------
# classify: real roots from reflection words and their relatives


def word_root(rng: random.Random, k: int, n: int, steps: int) -> list[int]:
    """A positive real root: beta moved by a random reflection word.

    Each round applies a permutation (a word in the s_i) that brings k of the
    smaller entries to the front, then s_beta when it raises the degree;
    a last random permutation scatters the entries.
    """
    x = [1] * k + [0] * (n - k)
    for _ in range(steps):
        for _try in range(20):
            low = sorted(range(n), key=lambda i: (x[i], rng.random()))
            head = rng.sample(low[: max(k, (n + 1) // 2)], k)
            r = sum(x) - sum(x[i] for i in head) - 2 * (sum(x) // k)
            if r > 0:
                break
        else:
            break
        for i in head:
            x[i] += r
    rng.shuffle(x)
    return x


def _almost_root(rng: random.Random, cores) -> tuple[int, int, list[int]]:
    """An almost-real root: a hand-listed core, extended and permuted."""
    core, k = rng.choice(cores)
    d = sum(core) // k
    grow_k = rng.randrange(3)
    zeros = rng.randrange(7)
    x = [d] * grow_k + list(core) + [0] * zeros
    rng.shuffle(x)
    return k + grow_k, len(x), x


def _system(rng: random.Random) -> tuple[int, int]:
    k = rng.randint(3, 6)
    return k, rng.randint(k + 5, k + 12)


def _q_violation(rng: random.Random, k: int, x: list[int]) -> list[int] | None:
    """Move one unit between two entries, staying in the window, so q != 2."""
    d = sum(x) // k
    for _ in range(100):
        i, j = rng.sample(range(len(x)), 2)
        y = list(x)
        y[i] += 1
        y[j] -= 1
        if min(y) >= 0 and max(y) <= d and oracle.q_form(k, y) != 2:
            return y
    return None


def _window_violation(rng: random.Random, x: list[int]) -> list[int]:
    y = list(x)
    i, j = rng.sample(range(len(y)), 2)
    shift = y[i] + 1 + rng.randrange(2)
    y[i] -= shift
    y[j] += shift
    return y


# (class, count per pass).  About 2 000 calls at 10-300 us each.
CLASSIFY_MIX = (
    ("real", 700),
    ("real_negative", 250),
    ("degree_zero", 80),
    ("almost", 350),
    ("almost_negative", 100),
    ("q_violation", 200),
    ("window_violation", 200),
    ("not_in_lattice", 100),
    ("degree_zero_other", 20),
    ("zero", 4),
    ("large_n", 12),
)

CLASSIFY_KINDS = {
    "real": {"RealPositive"},
    "real_negative": {"RealNegative"},
    "degree_zero": {"DegreeZeroReal"},
    "almost": {"AlmostRealPositive"},
    "almost_negative": {"AlmostRealNegative"},
    "q_violation": {"NotRealQ"},
    "window_violation": {"NotRealRangeViolation"},
    "not_in_lattice": {"NotInLattice"},
    "degree_zero_other": {"NotRealQ"},
    "zero": {"Zero"},
    "large_n": {"RealPositive"},
    "readme": {"RealPositive", "AlmostRealPositive"},
}


def classify_vector(
    rng: random.Random, cls: str, almost_cores, system: tuple[int, int] | None = None
) -> tuple[int, int, list[int]]:
    """One input of the given class, built so its kind is known.

    `system` fixes J(k,n) for the classes that do not bring their own.
    """
    if cls in ("almost", "almost_negative"):
        k, n, x = _almost_root(rng, almost_cores)
        return k, n, [-c for c in x] if cls == "almost_negative" else x
    if cls == "large_n":  # one size, so these requests, the tail, cost alike
        return 3, 2000, word_root(rng, 3, 2000, 4)
    k, n = system or _system(rng)
    if cls in ("degree_zero", "degree_zero_other", "zero"):
        x = [0] * n
        if cls != "zero":
            pairs = 1 if cls == "degree_zero" else 2
            spots = rng.sample(range(n), 2 * pairs)
            for a, b in zip(spots[::2], spots[1::2]):
                x[a] += 1
                x[b] -= 1
        return k, n, x
    x = word_root(rng, k, n, rng.randint(1, 12))
    if cls == "real_negative":
        x = [-c for c in x]
    elif cls == "q_violation":
        y = _q_violation(rng, k, x)
        while y is None:  # every move broke the window: take another root
            x = word_root(rng, k, n, rng.randint(1, 12))
            y = _q_violation(rng, k, x)
        x = y
    elif cls == "window_violation":
        x = _window_violation(rng, x)
    elif cls == "not_in_lattice":
        x[rng.randrange(n)] += 1
    return k, n, x


def almost_cores(golden: dict) -> list[tuple[tuple[int, ...], int]]:
    return [c for d in sorted(golden["GENERIC_ALMOST_CORES"]) for c in golden["GENERIC_ALMOST_CORES"][d]]


def _classify(rng: random.Random, root: Path) -> list[dict]:
    cores = almost_cores(oracle.load_golden(root))
    reqs = []
    for cls, count in CLASSIFY_MIX:
        for _ in range(count):
            k, n, x = classify_vector(rng, cls, cores)
            reqs.append(_classify_request(k, n, x, cls))
    # The README's two worked examples.
    reqs.append(_classify_request(3, 8, [2, 1, 1, 1, 1, 1, 1, 1], "readme"))
    reqs.append(_classify_request(4, 10, [3, 3, 3, 1, 1, 1, 1, 1, 1, 1], "readme"))
    rng.shuffle(reqs)
    return reqs


def _classify_request(k: int, n: int, x: list[int], cls: str) -> dict:
    expected = oracle.classification(k, n, x)
    if expected[0] not in CLASSIFY_KINDS[cls]:
        raise AssertionError(f"generator made {expected[0]} for class {cls}: {x}")
    return {"op": "classify_entries", "args": [k, n, x], "cls": cls,
            "expect": oracle.digest(expected)}


# ---------------------------------------------------------------------------
# finite: fundamental weights and positive-root sums of finite types


def _finite_systems(max_n: int) -> list[tuple[int, int]]:
    return [
        (k, n)
        for n in range(3, max_n + 1)
        for k in range(1, n)
        if oracle.is_finite_type(k, n)
    ]


def _finite(rng: random.Random) -> list[dict]:
    """The seed only orders the requests: their costs differ by k and n, so
    any other choice would move the pass's cost."""
    reqs = []
    small = _finite_systems(8)
    for k, n in _finite_systems(9) + [(2, 10)]:
        reqs.append({"op": "sum_of_positive_roots", "args": [k, n], "cls": "root_sum", "expect": None})
    # A user who asks again: these hit the library's orbit cache.  The same
    # systems every seed, because their cost differs with k.
    for k, n in [(k, n) for k, n in small if n == 8]:
        reqs.append({"op": "sum_of_positive_roots", "args": [k, n], "cls": "root_sum_again", "expect": None})
    # Every system up to n = 10 puts the median request inside the n = 7
    # cluster, not on the cost gap between two clusters.
    for k, n in _finite_systems(10):
        reqs.append({"op": "fundamental_weights", "args": [k, n], "cls": "weights", "expect": None})
    # Four systems of the same size, so the tail percentile falls inside
    # one cluster of costs.
    for k in (1, 2, 38, 39):
        reqs.append({"op": "fundamental_weights", "args": [k, 40], "cls": "weights_large", "expect": None})
    rng.shuffle(reqs)
    return reqs


# ---------------------------------------------------------------------------
# cli: one fresh interpreter per command, default flags only


def _cli_request(argv, cls, code, how, value, files=None) -> dict:
    req = {"op": "cli", "args": argv, "cls": cls, "expect": {"code": code, "how": how, "value": value}}
    if files:
        req["files"] = files
    return req


def _cli(rng: random.Random, root: Path) -> list[dict]:
    golden = oracle.load_golden(root)
    reqs = [
        _cli_request(argv, "readme", code, "text", text)
        for argv, code, text in oracle.README_TRANSCRIPTS
    ]
    for kind, table in (("real", golden["REAL_COUNTS"]), ("almost", golden["ALMOST_COUNTS"])):
        for k, n in rng.sample(sorted(table), 2):
            argv = ["tables", str(k), str(n), "--max", "7"]
            if kind == "almost":
                argv += ["--kind", "almost"]
            reqs.append(_cli_request(argv, f"tables_{kind}", 0, "text", oracle.render_tables(table[k, n])))
    # The degrees are fixed and k and n move little, so a pass costs about
    # the same for every seed.
    for fmt, d_orbits, d_generic in (("json", 6, 7), ("csv", 7, 8)):
        k = rng.randint(4, 5)
        n, d = k + rng.randint(8, 9), d_orbits
        orbits = oracle.orbit_classes(k, n, d)
        argv = ["orbits", str(k), str(n), "--degree", str(d), "--format", fmt]
        if fmt == "json":
            reqs.append(_cli_request(argv, "orbits_json", 0, "orbits_json", oracle.digest(orbits)))
        else:
            reqs.append(_cli_request(argv, "orbits_csv", 0, "text", oracle.render_orbits_csv(orbits)))
        d = d_generic
        generic = oracle.generic_orbits(d)
        _check_generic_against_golden(golden, d, generic)
        argv = ["generic", "--degree", str(d), "--format", fmt]
        if fmt == "json":
            reqs.append(_cli_request(argv, "generic_json", 0, "generic_json", oracle.digest(generic)))
        else:
            value = oracle.digest(oracle.generic_csv_form(generic))
            reqs.append(_cli_request(argv, "generic_csv", 0, "generic_csv", value))
    cores = almost_cores(golden)
    for name in ("vectors-0.txt", "vectors-1.txt"):
        reqs.append(_check_file_request(rng, cores, name, negative_lead=False))
    defect = _check_file_request(rng, cores, "vectors-negative.txt", negative_lead=True)
    defect["known_defect"] = CHECK_FILE_DEFECT
    reqs.append(defect)
    n = rng.randint(8, 16)
    k = rng.choice([1, 2, n - 2, n - 1])
    reqs.append(_cli_request(["weights", str(k), str(n)], "weights", 0, "weights", [k, n]))
    reqs.append(_cli_request(["selftest"], "selftest", 0, "selftest", None))
    k, n, d = EDGE_ORBITS
    edge = _cli_request(
        ["orbits", str(k), str(n), "--degree", str(d)], "edge", 0, "text",
        oracle.render_orbits_plain(oracle.orbit_classes(k, n, d)),
    )
    edge["known_defect"] = EDGE_DEFECT
    reqs.append(edge)
    rng.shuffle(reqs)
    return reqs


def _check_file_request(rng: random.Random, cores, name: str, negative_lead: bool) -> dict:
    """`check K N @file --format json` over vectors of mixed kinds.

    With negative_lead every line starts with a negative entry; otherwise
    none does (see CHECK_FILE_DEFECT).
    """
    k, n = _system(rng)
    vectors = []
    while len(vectors) < (10 if negative_lead else 40):
        cls = "real_negative" if negative_lead else rng.choice(
            ["real", "real_negative", "q_violation", "window_violation", "degree_zero"]
        )
        _, _, x = classify_vector(rng, cls, cores, (k, n))
        if (x[0] < 0) == negative_lead:
            vectors.append(x)
    if not negative_lead:
        for _ in range(4):  # almost-real roots that fit this system
            core, k_min = rng.choice(cores)
            if k_min <= k and len(core) - k_min <= n - k:
                d = sum(core) // k_min
                x = [d] * (k - k_min) + list(core) + [0] * (n - k - len(core) + k_min)
                rng.shuffle(x)
                vectors.append(x)
    expected = [oracle.classification(k, n, x) for x in vectors]
    code = max(oracle.exit_code_for(e[0]) for e in expected)
    value = oracle.digest(tuple(oracle.check_json_form(e) for e in expected))
    argv = ["check", str(k), str(n), "@{work}/" + name, "--format", "json"]
    text = "".join(",".join(map(str, x)) + "\n" for x in vectors)
    cls = "check_file_negative" if negative_lead else "check_file"
    return _cli_request(argv, cls, code, "check_json", value, {name: text})


def _check_generic_against_golden(golden: dict, d: int, generic) -> None:
    """The oracle's generic orbits must reproduce the hand-made tables."""
    real_row, almost_row = golden["ORBIT_COUNTS"][None, None]
    real = sum(1 for g in generic if g[5] == "Real")
    if d <= len(real_row) and (real, len(generic) - real) != (real_row[d - 1], almost_row[d - 1]):
        raise AssertionError(f"benchmark oracle disagrees with golden.py at degree {d}")
