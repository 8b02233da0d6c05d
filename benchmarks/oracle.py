"""The benchmark's own arithmetic: the correctness gate's expected answers.

Nothing here imports `jkn`.  Expected values come from the definitions in
the README (lattice, degree, q, B, the contraction walk), from multinomial
counting, and from hand-transcribed reference data (`golden.py`, read as a
data file, and the CLI transcripts of the README).  The library's output is
never used as an expectation.

Every answer is compared through a *normal form*: a tuple of plain ints,
strings and tuples that both the expected and the actual answer are reduced
to.  `digest` hashes the items of a normal form so the expectation can travel to
the worker process as a short string.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import runpy
from fractions import Fraction
from pathlib import Path

REACHED = "REACHED_MINUS_BETA"
RANGE = "RANGE_VIOLATION"
NONPOSITIVE = "ALL_NONPOSITIVE"
QVIOL = "Q_VIOLATION"

_FLIP = {
    "RealPositive": "RealNegative",
    "RealNegative": "RealPositive",
    "AlmostRealPositive": "AlmostRealNegative",
    "AlmostRealNegative": "AlmostRealPositive",
}


def digest(items) -> str:
    """sha256 over the reprs of a normal form's items, one item at a time,
    so checking a large answer builds no large string."""
    h = hashlib.sha256()
    for item in items:
        h.update(repr(item).encode() + b"\n")
    return h.hexdigest()


def load_golden(root: Path) -> dict:
    """The hand-transcribed tables, read as data without importing jkn."""
    return runpy.run_path(str(root / "src" / "jkn" / "golden.py"))


# ---------------------------------------------------------------------------
# Lattice arithmetic


def q_form(k: int, x) -> int:
    d = sum(x) // k
    return sum(c * c for c in x) + (2 - k) * d * d


def bilinear(k: int, u, v) -> Fraction:
    """B(u, v) = sum u_i v_i + (2-k) deg(u) deg(v), exact over rationals."""
    du = Fraction(sum(u), k)
    dv = Fraction(sum(v), k)
    return sum((a * b for a, b in zip(u, v)), Fraction(0)) + (2 - k) * du * dv


def simple_roots(k: int, n: int) -> list[tuple[int, ...]]:
    """beta = e_1 + ... + e_k first, then alpha_i = e_{i+1} - e_i."""
    roots = [tuple(1 if i < k else 0 for i in range(n))]
    for i in range(1, n):
        x = [0] * n
        x[i - 1], x[i] = -1, 1
        roots.append(tuple(x))
    return roots


def is_finite_type(k: int, n: int) -> bool:
    return k * k - n * (k - 2) > 0


def orbit_size(n: int, multiplicities) -> int:
    size = math.factorial(n)
    for m in multiplicities:
        size //= math.factorial(m)
    return size


# ---------------------------------------------------------------------------
# The contraction walk


def walk(k: int, x) -> tuple[list[tuple], str]:
    """Sort, apply s_beta, repeat; for q = 2 vectors inside the window.

    Returns the steps as (before_sort, sorted, r, degree_after) and how the
    walk ended.  The degree drops at every step, so the loop is bounded.
    """
    x = tuple(x)
    steps = []
    for _ in range(sum(x) // k + 2):
        s = tuple(sorted(x, reverse=True))
        total = sum(s)
        d = total // k
        r = total - sum(s[:k]) - 2 * d
        y = tuple(c + r for c in s[:k]) + s[k:]
        d_new = d + r
        steps.append((x, s, r, d_new))
        if max(y) <= 0:
            minus_beta = y.count(-1) == k and y.count(0) == len(y) - k
            return steps, REACHED if minus_beta else NONPOSITIVE
        if min(y) < 0 or max(y) > d_new:
            return steps, RANGE
        x = y
    raise ArithmeticError(f"walk did not terminate on {x}")


def is_real_candidate(k: int, x) -> bool:
    return walk(k, x)[1] == REACHED


def classification(k: int, n: int, entries) -> tuple:
    """Normal form (kind, degree, q, trace) of classify_entries(J(k,n), entries).

    trace is None or (steps, terminal) with steps as in `walk`.
    """
    x = tuple(entries)
    if len(x) != n:
        raise ValueError("wrong length")
    total = sum(x)
    if total % k:
        return ("NotInLattice", None, None, None)
    if not any(x):
        return ("Zero", 0, None, None)
    d = total // k
    if d < 0:
        kind, _, qv, trace = classification(k, n, [-c for c in x])
        return (_FLIP.get(kind, kind), d, qv, trace)
    if d == 0:
        if sorted(x) == [-1] + [0] * (n - 2) + [1]:
            return ("DegreeZeroReal", 0, None, None)
        return ("NotRealQ", 0, sum(c * c for c in x), None)
    if min(x) < 0 or max(x) > d:
        return ("NotRealRangeViolation", d, None, ((), RANGE))
    qv = q_form(k, x)
    if qv != 2:
        return ("NotRealQ", d, qv, ((), QVIOL))
    steps, terminal = walk(k, x)
    kind = "RealPositive" if terminal == REACHED else "AlmostRealPositive"
    return (kind, d, None, (tuple(steps), terminal))


# ---------------------------------------------------------------------------
# Orbit enumeration over multiplicities


def representatives(k: int, n: int, d: int) -> list[tuple[int, ...]]:
    """Non-increasing x in [0, d]^n with sum k*d and q = 2, descending.

    A representative is fixed by its multiplicities (m_d, ..., m_1); taking
    larger multiplicities of larger values first gives lexicographically
    descending order.
    """
    target_s = k * d
    target_t = 2 + (k - 2) * d * d
    out: list[tuple[int, ...]] = []

    def rec(v: int, slots: int, s: int, t: int, mult: list[int]) -> None:
        if v == 0:
            if s == 0 and t == 0:
                x = []
                for value, m in zip(range(d, 0, -1), mult):
                    x.extend([value] * m)
                out.append(tuple(x) + (0,) * (n - len(x)))
            return
        top = min(slots, s // v, t // (v * v))
        for m in range(top, -1, -1):
            s2, t2, slots2 = s - m * v, t - m * v * v, slots - m
            w = v - 1
            # values below v: x <= x^2 <= w*x, same parity, at most w*slots
            if s2 > w * slots2 or t2 < s2 or t2 > w * s2 or (t2 - s2) % 2:
                continue
            rec(v - 1, slots2, s2, t2, mult + [m])

    if target_t >= 0:
        rec(d, n, target_s, target_t, [])
    return out


def orbit_classes(k: int, n: int, d: int) -> tuple:
    """Normal form of enumerate_orbits(J(k,n), d)."""
    out = []
    for x in representatives(k, n, d):
        mult = {}
        for c in x:
            mult[c] = mult.get(c, 0) + 1
        signature = tuple(sorted(mult.items(), reverse=True))
        kind = "Real" if is_real_candidate(k, x) else "AlmostReal"
        out.append((x, d, kind, orbit_size(n, mult.values()), signature))
    return tuple(out)


def generic_orbits(d: int) -> tuple:
    """Normal form of enumerate_generic(d): cores stripped from J(2d-1, 4d-2)."""
    k0 = 2 * d - 1
    out = []
    for x in representatives(k0, 2 * k0, d):
        kind = "Real" if is_real_candidate(k0, x) else "AlmostReal"
        core, k = list(x), k0
        while core and core[-1] == 0:
            core.pop()
        while k > 1 and core[0] == d:
            core.pop(0)
            k -= 1
        lead = 0
        while lead < len(core) and core[lead] == d:
            lead += 1
        out.append((tuple(core), k, len(core), k - lead, d, kind))
    return tuple(out)


# ---------------------------------------------------------------------------
# Finite types: checks that need no expected answer


def weights_ok(k: int, n: int, coords: list, root_coeffs: list | None) -> bool:
    """B(omega_i, simple_j) = delta_ij, and coords = C * root_coeffs.

    Pairing with beta costs O(k) and with each alpha O(1), so the whole
    check is O(n^2).
    """
    if len(coords) != n:
        return False
    for i, w in enumerate(coords):
        if len(w) != n:
            return False
        # B(w, beta) = w_1 + ... + w_k + (2-k) deg(w); B(w, alpha_j) = w_{j+1} - w_j
        pairings = [sum(w[:k]) + (2 - k) * Fraction(sum(w), k)]
        pairings += [w[j] - w[j - 1] for j in range(1, n)]
        if pairings != [int(i == j) for j in range(n)]:
            return False
        if root_coeffs is not None:
            m = root_coeffs[i]
            rebuilt = [
                (m[0] if p < k else 0)
                + (m[p] if p >= 1 else 0)
                - (m[p + 1] if p + 1 < n else 0)
                for p in range(n)
            ]
            if rebuilt != list(w):
                return False
    return True


def root_sum_ok(k: int, n: int, total) -> bool:
    """The sum of positive roots is 2*rho: B(sum, simple_j) = 2 for every j.

    B is nondegenerate on a finite type, so this fixes the sum uniquely.
    """
    if len(total) != n or sum(total) % k:
        return False
    return all(bilinear(k, total, a) == 2 for a in simple_roots(k, n))


# ---------------------------------------------------------------------------
# CLI output: renderings and parsers


def exit_code_for(kind: str) -> int:
    if kind in ("RealPositive", "RealNegative", "DegreeZeroReal"):
        return 0
    if kind in ("AlmostRealPositive", "AlmostRealNegative"):
        return 1
    return 2


_TERMINAL_LABEL = {REACHED: "real", RANGE: "almost", NONPOSITIVE: "nonpositive", QVIOL: "q"}


def check_json_form(normal: tuple) -> tuple:
    """The part of a classification that `check --format json` prints."""
    kind, d, qv, trace = normal
    if trace is None:
        return (kind, d, qv, None)
    steps, terminal = trace
    label = _TERMINAL_LABEL[terminal]
    if terminal == RANGE and not steps:
        label = "range"
    return (kind, d, qv, (tuple((s[1], s[2], s[3]) for s in steps), label))


def parse_check_json(text: str) -> tuple:
    data = json.loads(text)
    blobs = data if isinstance(data, list) else [data]
    out = []
    for b in blobs:
        t = b["trace"]
        trace = None
        if t is not None:
            steps = tuple((tuple(s["sorted"]), s["r"], s["degree"]) for s in t["steps"])
            trace = (steps, t["terminal"])
        out.append((b["kind"], b["degree"], b["q"], trace))
    return tuple(out)


def render_tables(counts) -> str:
    return "".join(f"degree {d}: {c}\n" for d, c in enumerate(counts, start=1))


def render_orbits_plain(orbits) -> str:
    lines = [f"({','.join(map(str, o[0]))}) {o[2]} size={o[3]}" for o in orbits]
    real = sum(1 for o in orbits if o[2] == "Real")
    lines.append(f"{real} real, {len(orbits) - real} almost real")
    return "\n".join(lines) + "\n"


def render_orbits_csv(orbits) -> str:
    rows = ["representative,degree,kind,orbit_size"]
    for x, d, kind, size, _ in orbits:
        rows.append(f"{' '.join(map(str, x))},{d},{kind.lower()},{size}")
    return "\n".join(rows) + "\n"


def parse_orbits_json(text: str) -> tuple:
    data = json.loads(text)
    return tuple(
        (
            tuple(o["representative"]),
            o["degree"],
            o["kind"],
            o["orbit_size"],
            tuple(tuple(p) for p in o["signature"]),
        )
        for o in data["orbits"]
    )


def parse_generic_json(text: str) -> tuple:
    data = json.loads(text)
    return tuple(
        (
            tuple(g["core"]),
            g["k_min"],
            g["n_min"],
            g["d_multiplicity_offset"],
            g["degree"],
            g["kind"],
        )
        for g in data["orbits"]
    )


def parse_generic_csv(text: str) -> tuple:
    return tuple(
        (
            tuple(int(c) for c in row["core"].split()),
            int(row["k_min"]),
            int(row["n_min"]),
            int(row["degree"]),
            row["kind"],
        )
        for row in csv.DictReader(io.StringIO(text))
    )


def generic_csv_form(orbits) -> tuple:
    return tuple((g[0], g[1], g[2], g[4], g[5].lower()) for g in orbits)


def parse_weights_plain(text: str, n: int) -> list | None:
    """Lines 'label: 1/L(a,b,...)' in the order beta, alpha_1, ..."""
    labels = ["beta"] + [f"alpha_{i}" for i in range(1, n)]
    lines = text.splitlines()
    if len(lines) != n:
        return None
    coords = []
    for label, line in zip(labels, lines):
        head, _, body = line.partition(": ")
        if head != label or not body.endswith(")") or "(" not in body:
            return None
        prefix, _, inner = body[:-1].partition("(")
        scale = Fraction(1) if prefix == "" else Fraction(prefix)
        coords.append([scale * int(c) for c in inner.split(",")])
    return coords


def selftest_ok(text: str) -> bool:
    lines = text.splitlines()
    return (
        bool(lines)
        and lines[-1] == "selftest passed"
        and all(line.startswith("ok: ") for line in lines[:-1])
    )


# Transcripts from the README's command-line section: (argv, exit code, stdout).
README_TRANSCRIPTS = [
    (
        ["check", "3", "8", "2,1,1,1,1,1,1,1"],
        0,
        "real positive, degree 3\n"
        "  step 1: sorted=(2,1,1,1,1,1,1,1) r=-1 degree_after=2\n"
        "  step 2: sorted=(1,1,1,1,1,1,0,0) r=-1 degree_after=1\n"
        "  step 3: sorted=(1,1,1,0,0,0,0,0) r=-2 degree_after=-1\n"
        "  terminal: reached -beta\n",
    ),
    (
        ["check", "4", "10", "3,3,3,1,1,1,1,1,1,1"],
        1,
        "almost real positive, degree 4\n"
        "  step 1: sorted=(3,3,3,1,1,1,1,1,1,1) r=-2 degree_after=2\n"
        "  terminal: range violation\n",
    ),
    (
        ["tables", "3", "9", "--max", "5"],
        0,
        "degree 1: 84\ndegree 2: 84\ndegree 3: 72\ndegree 4: 84\ndegree 5: 84\n",
    ),
    (
        ["orbits", "3", "9", "--degree", "3", "--format", "csv"],
        0,
        "representative,degree,kind,orbit_size\n2 1 1 1 1 1 1 1 0,3,real,72\n",
    ),
    (
        ["generic", "--degree", "2"],
        0,
        "core=(1,1,1,1,1,1) at J(3,6) pad=(2)^(k-3) Real\n1 real, 0 almost real\n",
    ),
    (
        ["weights", "3", "6"],
        0,
        "beta: (1,1,1,1,1,1)\n"
        "alpha_1: 1/3(-1,2,2,2,2,2)\n"
        "alpha_2: 1/3(1,1,4,4,4,4)\n"
        "alpha_3: (1,1,1,2,2,2)\n"
        "alpha_4: 1/3(2,2,2,2,5,5)\n"
        "alpha_5: 1/3(1,1,1,1,1,4)\n",
    ),
]
