"""Command-line front end.

Subcommands: check, reduce, orbits, tables, generic, weights, families,
manin, profile, convert, word, selftest.  Every subcommand accepts
--format plain|json (csv additionally for the tabular ones) and
--time-limit.  Exit codes: 0 success (for check: real root), 1 almost
real, 2 any other classification, 3 usage or contract errors, 4 time or
resource limits, 5 an unexpected internal error (traceback on stderr).

Vectors are comma-separated and may start with '-'; an argument of the
form @file pulls one argument per line from the file, so
`check 3 8 @vectors.txt` classifies a batch.  Output is accumulated and
written once at the end.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import re
import signal
import sys
import traceback
from typing import Optional, Sequence

from . import golden
from .classify import Classification, Kind, classify_entries, reduce_trace
from .cluster import canonical_profile, cyclic_permutations
from .enumeration import (
    OrbitKind,
    count_almost_real_roots,
    count_real_roots,
    enumerate_generic,
    enumerate_orbits,
)
from .errors import ContractError, ResourceLimitError
from .families import (
    Series,
    affine_delta,
    affine_family,
    delta_family,
    fundamental_weights,
    gamma,
    to_manin,
)
from .lattice import (
    LatticeVector,
    RootCoefficients,
    SystemParams,
    degree,
    from_root_basis,
    q,
    to_root_basis,
    vector_from_entries,
)
from .weyl import apply_word, parse_word

__all__ = ["main"]


class _UsageError(Exception):
    pass


class _TimeLimit(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        # read "-1,-1,-1,0" as a vector, as argparse reads "-1" as a number
        self._negative_number_matcher = re.compile(r"^-\d+(,-?\d+)*$|^-\d*\.\d+$")

    def error(self, message: str):  # noqa: D102 - argparse hook
        raise _UsageError(message)


_KIND_MESSAGES = {
    Kind.REAL_POSITIVE: "real positive",
    Kind.REAL_NEGATIVE: "real negative",
    Kind.DEGREE_ZERO_REAL: "real, degree 0",
    Kind.ALMOST_REAL_POSITIVE: "almost real positive",
    Kind.ALMOST_REAL_NEGATIVE: "almost real negative",
    Kind.NOT_IN_LATTICE: "not in root lattice",
    Kind.ZERO: "zero vector",
}

_TERMINAL_MESSAGES = {
    "real": "reached -beta",
    "almost": "range violation",
    "range": "range violation before any step",
    "q": "q violation",
    "nonpositive": "all entries nonpositive",
}


def _vec_str(entries: Sequence[int]) -> str:
    return "(" + ",".join(str(c) for c in entries) + ")"


def _parse_vector(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise _UsageError(f"cannot parse vector {text!r}") from None


def _parse_params(args: argparse.Namespace) -> SystemParams:
    try:
        return SystemParams(args.k, args.n)
    except ContractError as exc:
        raise _UsageError(str(exc)) from None


def _classification_message(c: Classification) -> str:
    if c.kind in _KIND_MESSAGES:
        msg = _KIND_MESSAGES[c.kind]
        if c.kind in (
            Kind.REAL_POSITIVE,
            Kind.REAL_NEGATIVE,
            Kind.ALMOST_REAL_POSITIVE,
            Kind.ALMOST_REAL_NEGATIVE,
        ):
            return f"{msg}, degree {c.degree}"
        return msg
    if c.kind is Kind.NOT_REAL_Q:
        return f"not real: q = {c.q_value}, degree {c.degree}"
    return f"not real: entries outside [0, {c.degree}]"


def _exit_code(c: Classification) -> int:
    if c.kind.is_real:
        return 0
    if c.kind.is_almost_real:
        return 1
    return 2


def _trace_lines(c: Classification) -> list[str]:
    if c.trace is None:
        return []
    lines = []
    for i, step in enumerate(c.trace.steps, start=1):
        lines.append(
            f"  step {i}: sorted={_vec_str(step.sorted.x)}"
            f" r={step.r} degree_after={step.degree_after}"
        )
    label = c.trace.as_json_dict()["terminal"]
    lines.append(f"  terminal: {_TERMINAL_MESSAGES[label]}")
    return lines


def _check_json(params: SystemParams, entries: tuple[int, ...], c: Classification) -> dict:
    return {
        "k": params.k,
        "n": params.n,
        "x": list(entries),
        "kind": c.kind.value,
        "degree": c.degree,
        "q": c.q_value,
        "trace": c.trace.as_json_dict() if c.trace is not None else None,
    }


def _cmd_check(args: argparse.Namespace) -> int:
    params = _parse_params(args)
    vectors = [_parse_vector(text) for text in args.vectors]
    worst = 0
    lines: list[str] = []
    blobs: list[dict] = []
    for entries in vectors:
        if len(entries) != params.n:
            raise _UsageError(
                f"expected {params.n} coordinates, got {len(entries)}"
            )
        c = classify_entries(params, entries)
        worst = max(worst, _exit_code(c))
        if args.format == "json":
            blobs.append(_check_json(params, entries, c))
        else:
            if len(vectors) > 1:
                lines.append(f"# {_vec_str(entries)}")
            lines.append(_classification_message(c))
            lines.extend(_trace_lines(c))
    if args.format == "json":
        _emit(json.dumps(blobs[0] if len(blobs) == 1 else blobs, indent=2))
    else:
        _emit("\n".join(lines))
    return worst


def _cmd_reduce(args: argparse.Namespace) -> int:
    params = _parse_params(args)
    entries = _parse_vector(args.vector)
    v = vector_from_entries(params, entries)
    trace = reduce_trace(v)
    if args.format == "json":
        _emit(json.dumps(trace.as_json_dict(), indent=2))
        return 0
    lines = [f"input {_vec_str(v.x)} degree {degree(v)}"]
    for i, step in enumerate(trace.steps, start=1):
        lines.append(
            f"step {i}: sorted={_vec_str(step.sorted.x)}"
            f" r={step.r} degree_after={step.degree_after}"
        )
    label = trace.as_json_dict()["terminal"]
    lines.append(f"terminal: {_TERMINAL_MESSAGES[label]}")
    _emit("\n".join(lines))
    return 0


def _cmd_orbits(args: argparse.Namespace) -> int:
    params = _parse_params(args)
    orbits = enumerate_orbits(params, args.degree)
    if args.format == "json":
        _emit(
            json.dumps(
                {
                    "k": params.k,
                    "n": params.n,
                    "degree": args.degree,
                    "orbits": [oc.as_json_dict() for oc in orbits],
                },
                indent=2,
            )
        )
        return 0
    if args.format == "csv":
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["representative", "degree", "kind", "orbit_size"])
        for oc in orbits:
            writer.writerow(
                [
                    " ".join(str(c) for c in oc.representative.x),
                    oc.degree,
                    oc.kind.value.lower(),
                    oc.orbit_size,
                ]
            )
        _emit(out.getvalue().rstrip("\n"))
        return 0
    lines = [
        f"{_vec_str(oc.representative.x)} {oc.kind.value} size={oc.orbit_size}"
        for oc in orbits
    ]
    real = sum(1 for oc in orbits if oc.kind is OrbitKind.REAL)
    lines.append(f"{real} real, {len(orbits) - real} almost real")
    _emit("\n".join(lines))
    return 0


def _cmd_tables(args: argparse.Namespace) -> int:
    params = _parse_params(args)
    if args.max < 1:
        raise _UsageError("--max must be >= 1")
    counter = count_real_roots if args.kind == "real" else count_almost_real_roots
    counts = [counter(params, d) for d in range(1, args.max + 1)]
    if args.format == "json":
        _emit(
            json.dumps(
                {
                    "k": params.k,
                    "n": params.n,
                    "kind": args.kind,
                    "counts": [
                        {"degree": d, "count": c}
                        for d, c in enumerate(counts, start=1)
                    ],
                },
                indent=2,
            )
        )
        return 0
    if args.format == "csv":
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["k", "n", "degree", "kind", "count"])
        for d, c in enumerate(counts, start=1):
            writer.writerow([params.k, params.n, d, args.kind, c])
        _emit(out.getvalue().rstrip("\n"))
        return 0
    _emit(
        "\n".join(f"degree {d}: {c}" for d, c in enumerate(counts, start=1))
    )
    return 0


def _cmd_generic(args: argparse.Namespace) -> int:
    if args.degree < 1:
        raise _UsageError("--degree must be >= 1")
    orbits = enumerate_generic(args.degree)
    if args.format == "json":
        _emit(
            json.dumps(
                {
                    "degree": args.degree,
                    "orbits": [g.as_json_dict() for g in orbits],
                },
                indent=2,
            )
        )
        return 0
    if args.format == "csv":
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["degree", "kind", "k_min", "n_min", "core"])
        for g in orbits:
            writer.writerow(
                [
                    g.degree,
                    g.kind.value.lower(),
                    g.core_params.k,
                    g.core_params.n,
                    " ".join(str(c) for c in g.core),
                ]
            )
        _emit(out.getvalue().rstrip("\n"))
        return 0
    lines = []
    for g in orbits:
        lines.append(
            f"core={_vec_str(g.core)} at {g.core_params}"
            f" pad=({args.degree})^(k-{g.d_multiplicity_offset}) {g.kind.value}"
        )
    real = sum(1 for g in orbits if g.kind is OrbitKind.REAL)
    lines.append(f"{real} real, {len(orbits) - real} almost real")
    _emit("\n".join(lines))
    return 0


def _cmd_weights(args: argparse.Namespace) -> int:
    params = _parse_params(args)
    weights = fundamental_weights(params)
    labels = ["beta"] + [f"alpha_{i}" for i in range(1, params.n)]
    if args.format == "json":
        _emit(
            json.dumps(
                {
                    "k": params.k,
                    "n": params.n,
                    "weights": [
                        {"label": label, **w.as_json_dict()}
                        for label, w in zip(labels, weights)
                    ],
                },
                indent=2,
            )
        )
        return 0
    _emit(
        "\n".join(
            f"{label}: {w.plain_str()}" for label, w in zip(labels, weights)
        )
    )
    return 0


def _cmd_families(args: argparse.Namespace) -> int:
    params = _parse_params(args)
    if args.family in ("gamma", "delta"):
        if args.degree is None:
            raise _UsageError(f"{args.family} requires --degree")
        builder = gamma if args.family == "gamma" else delta_family
        v = builder(args.degree, params)
    elif args.family == "null":
        v = affine_delta(params)
    else:  # affine
        if args.series is None or args.sign is None or args.m is None:
            raise _UsageError("affine requires --series, --sign and --m")
        try:
            series = Series(args.series.upper())
        except ValueError:
            raise _UsageError(f"unknown series {args.series!r}") from None
        indices = None
        if args.pair is not None:
            pair = _parse_vector(args.pair)
            if len(pair) != 2:
                raise _UsageError("--pair takes two comma-separated indices i,j")
            indices = (pair[0], pair[1])
        sign = 1 if args.sign == "+" else -1
        v = affine_family(series, sign, args.m, params, indices)
    if args.format == "json":
        _emit(json.dumps(v.as_json_dict(), indent=2))
        return 0
    _emit(f"{_vec_str(v.x)}\ndegree {degree(v)}, q = {q(v)}")
    return 0


def _cmd_manin(args: argparse.Namespace) -> int:
    params = _parse_params(args)
    v = vector_from_entries(params, _parse_vector(args.vector))
    mv = to_manin(v)
    if args.format == "json":
        _emit(json.dumps(mv.as_json_dict(), indent=2))
        return 0
    _emit(f"a = {mv.a}, b = {_vec_str(mv.b)}")
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    params = _parse_params(args)
    v = vector_from_entries(params, _parse_vector(args.vector))
    p = canonical_profile(v)
    if args.format == "json":
        _emit(json.dumps(p.as_json_dict(), indent=2))
        return 0
    _emit("\n".join(rot.plain_str() for rot in cyclic_permutations(p)))
    return 0


def _cmd_convert(args: argparse.Namespace) -> int:
    params = _parse_params(args)
    values = _parse_vector(args.values)
    if args.from_roots:
        if len(values) != params.n:
            raise _UsageError(
                f"expected {params.n} coefficients (branch first), got"
                f" {len(values)}"
            )
        coeffs = RootCoefficients(params, values[0], values[1:])
        v = from_root_basis(coeffs)
        if args.format == "json":
            _emit(json.dumps(v.as_json_dict(), indent=2))
        else:
            _emit(_vec_str(v.x))
        return 0
    v = vector_from_entries(params, values)
    coeffs = to_root_basis(v)
    if args.format == "json":
        _emit(json.dumps(coeffs.as_json_dict(), indent=2))
    else:
        _emit(f"m_beta = {coeffs.m_beta}, m = {_vec_str(coeffs.m)}")
    return 0


def _cmd_word(args: argparse.Namespace) -> int:
    params = _parse_params(args)
    word = parse_word(args.word)
    v = vector_from_entries(params, _parse_vector(args.vector))
    result = apply_word(word, v)
    if args.format == "json":
        _emit(json.dumps(result.as_json_dict(), indent=2))
    else:
        _emit(_vec_str(result.x))
    return 0


def _cmd_selftest(args: argparse.Namespace) -> int:
    failures = 0
    lines: list[str] = []

    def report(label: str, ok: bool, detail: str = "") -> None:
        nonlocal failures
        if ok:
            lines.append(f"ok: {label}")
        else:
            failures += 1
            lines.append(f"MISMATCH: {label}{': ' + detail if detail else ''}")

    # each orbit tuple and generic list is enumerated once for the run
    orbits = functools.cache(enumerate_orbits)
    generic = functools.cache(enumerate_generic)

    def orbit_count(params: SystemParams, d: int, kind: OrbitKind) -> int:
        return sum(oc.orbit_size for oc in orbits(params, d) if oc.kind is kind)

    for table, kind, label in (
        (golden.REAL_COUNTS, OrbitKind.REAL, "real root counts"),
        (golden.ALMOST_COUNTS, OrbitKind.ALMOST_REAL, "almost real root counts"),
    ):
        for (k, n), expected in sorted(table.items()):
            if k > 5:
                continue
            params = SystemParams(k, n)
            got = tuple(orbit_count(params, d, kind) for d in range(1, 8))
            report(f"{label} {params}", got == expected, f"{got} != {expected}")
    for key, (real_row, almost_row) in sorted(
        golden.ORBIT_COUNTS.items(), key=str
    ):
        k, n = key
        if k is None or n is None:
            max_d = 7
            got_real = []
            got_almost = []
            for d in range(1, max_d + 1):
                generics = generic(d)
                if k is not None:
                    generics = tuple(
                        g for g in generics if g.core_params.k <= k
                    )
                got_real.append(
                    sum(1 for g in generics if g.kind is OrbitKind.REAL)
                )
                got_almost.append(
                    sum(1 for g in generics if g.kind is OrbitKind.ALMOST_REAL)
                )
            label = f"generic orbit counts (k={'any' if k is None else k})"
            ok = (
                tuple(got_real) == real_row[:max_d]
                and tuple(got_almost) == almost_row[:max_d]
            )
            report(label, ok, f"{got_real}/{got_almost}")
        else:
            params = SystemParams(k, n)
            got_real = []
            got_almost = []
            for d in range(1, 12):
                classes = orbits(params, d)
                got_real.append(
                    sum(1 for oc in classes if oc.kind is OrbitKind.REAL)
                )
                got_almost.append(
                    sum(1 for oc in classes if oc.kind is OrbitKind.ALMOST_REAL)
                )
            ok = tuple(got_real) == real_row and tuple(got_almost) == almost_row
            report(f"orbit counts {params}", ok, f"{got_real}/{got_almost}")
    for d in range(1, 6):
        generics = generic(d)
        got_real = sorted(
            (g.core, g.core_params.k)
            for g in generics
            if g.kind is OrbitKind.REAL
        )
        got_almost = sorted(
            (g.core, g.core_params.k)
            for g in generics
            if g.kind is OrbitKind.ALMOST_REAL
        )
        ok = got_real == sorted(golden.GENERIC_REAL_CORES[d]) and got_almost == sorted(
            golden.GENERIC_ALMOST_CORES[d]
        )
        report(f"generic orbit cores, degree {d}", ok)
    lines.append(
        f"selftest {'passed' if failures == 0 else f'failed ({failures} mismatches)'}"
    )
    _emit("\n".join(lines))
    return 0 if failures == 0 else 1


_emitted: list[str] = []


def _emit(text: str) -> None:
    _emitted.append(text)


def _flush() -> None:
    if _emitted:
        sys.stdout.write("\n".join(_emitted) + "\n")
        sys.stdout.flush()
        _emitted.clear()


def _add_common(sub: argparse.ArgumentParser, csv_ok: bool = False) -> None:
    choices = ["plain", "json", "csv"] if csv_ok else ["plain", "json"]
    sub.add_argument("--format", choices=choices, default="plain")
    sub.add_argument(
        "--time-limit",
        type=float,
        default=300.0,
        help="abort with exit 4 after this many seconds (default 300)",
    )


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="jkn",
        description="Exact arithmetic for the root systems J(k,n).",
        fromfile_prefix_chars="@",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("check", help="classify vectors")
    p.add_argument("k", type=int)
    p.add_argument("n", type=int)
    p.add_argument("vectors", nargs="+", metavar="x1,..,xn")
    _add_common(p)
    p.set_defaults(func=_cmd_check)

    p = subs.add_parser("reduce", help="print the full reduction trace")
    p.add_argument("k", type=int)
    p.add_argument("n", type=int)
    p.add_argument("vector", metavar="x1,..,xn")
    _add_common(p)
    p.set_defaults(func=_cmd_reduce)

    p = subs.add_parser("orbits", help="orbit classes of one degree")
    p.add_argument("k", type=int)
    p.add_argument("n", type=int)
    p.add_argument("--degree", type=int, required=True)
    _add_common(p, csv_ok=True)
    p.set_defaults(func=_cmd_orbits)

    p = subs.add_parser("tables", help="root counts per degree")
    p.add_argument("k", type=int)
    p.add_argument("n", type=int)
    p.add_argument("--max", type=int, required=True, help="largest degree")
    p.add_argument("--kind", choices=["real", "almost"], default="real")
    _add_common(p, csv_ok=True)
    p.set_defaults(func=_cmd_tables)

    p = subs.add_parser("generic", help="orbit shapes over all large systems")
    p.add_argument("--degree", type=int, required=True)
    _add_common(p, csv_ok=True)
    p.set_defaults(func=_cmd_generic)

    p = subs.add_parser("weights", help="fundamental weights (finite types)")
    p.add_argument("k", type=int)
    p.add_argument("n", type=int)
    _add_common(p)
    p.set_defaults(func=_cmd_weights)

    p = subs.add_parser("families", help="named root families")
    p.add_argument("family", choices=["gamma", "delta", "null", "affine"])
    p.add_argument("k", type=int)
    p.add_argument("n", type=int)
    p.add_argument("--degree", type=int)
    p.add_argument("--series", help="A0..A3, B0..B3, C0..C2")
    p.add_argument("--sign", choices=["+", "-"])
    p.add_argument("--m", type=int)
    p.add_argument("--pair", help="i,j for the digit-0 series")
    _add_common(p)
    p.set_defaults(func=_cmd_families)

    p = subs.add_parser("manin", help="degree-vector form of J(3,8) elements")
    p.add_argument("k", type=int)
    p.add_argument("n", type=int)
    p.add_argument("vector", metavar="x1,..,x8")
    _add_common(p)
    p.set_defaults(func=_cmd_manin)

    p = subs.add_parser("profile", help="canonical profile and its rotations")
    p.add_argument("k", type=int)
    p.add_argument("n", type=int)
    p.add_argument("vector", metavar="x1,..,xn")
    _add_common(p)
    p.set_defaults(func=_cmd_profile)

    p = subs.add_parser("convert", help="between e-coordinates and root basis")
    p.add_argument("k", type=int)
    p.add_argument("n", type=int)
    p.add_argument("values", metavar="v1,..,vn")
    p.add_argument(
        "--from-roots",
        action="store_true",
        help="values are root-basis coefficients, branch coefficient first",
    )
    _add_common(p)
    p.set_defaults(func=_cmd_convert)

    p = subs.add_parser("word", help="apply a reflection word to a vector")
    p.add_argument("k", type=int)
    p.add_argument("n", type=int)
    p.add_argument("word", help="letters like b,3,b,1 applied left to right")
    p.add_argument("vector", metavar="x1,..,xn")
    _add_common(p)
    p.set_defaults(func=_cmd_word)

    p = subs.add_parser("selftest", help="compare against embedded reference counts")
    _add_common(p)
    p.set_defaults(func=_cmd_selftest)

    return parser


def _raise_time_limit(signum, frame):  # noqa: ANN001 - signal handler
    raise _TimeLimit()


def main(argv: Optional[Sequence[str]] = None) -> int:
    _emitted.clear()
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3
    limit = getattr(args, "time_limit", 300.0)
    use_alarm = limit > 0 and hasattr(signal, "SIGALRM")
    if use_alarm:
        previous = signal.signal(signal.SIGALRM, _raise_time_limit)
        signal.setitimer(signal.ITIMER_REAL, limit)
    try:
        code = args.func(args)
        _flush()
        return code
    except _UsageError as exc:
        _flush()
        sys.stderr.write(f"error: {exc}\n")
        return 3
    except ContractError as exc:
        _flush()
        sys.stderr.write(f"error: {exc}\n")
        return 3
    except _TimeLimit:
        _flush()
        sys.stderr.write("error: time limit exceeded\n")
        return 4
    except ResourceLimitError as exc:
        _flush()
        sys.stderr.write(f"error: {exc}\n")
        return 4
    except Exception:
        _flush()
        traceback.print_exc()
        return 5
    finally:
        if use_alarm:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)


if __name__ == "__main__":
    sys.exit(main())
