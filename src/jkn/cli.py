"""Command-line front end.

Subcommands: check, reduce, orbits, tables, generic, weights, families,
manin, profile, convert, word, selftest.  Every subcommand accepts
--format plain|json (csv additionally for the tabular ones) and
--time-limit.  Exit codes: 0 success (for check: real root), 1 almost
real, 2 any other classification, 3 usage or contract errors, 4 time or
resource limits, 5 an unexpected internal error (traceback on stderr),
141 (as for SIGPIPE) when the reader of stdout has closed it.

Vectors are comma-separated and may start with '-'; an argument of the
form @file pulls one argument per line from the file, so
`check 3 8 @vectors.txt` classifies a batch.  Each subcommand writes its
output to stdout in the requested format as it renders it (`orbits` and
`generic` through one listing), and returns its exit code (None for 0).

The modules only one subcommand or one format needs (the reference tables,
json, csv, traceback) are imported where they are used, so that a command
does not pay for what it never runs.  For the same reason the parser holds
only the subcommand its first argument names, built from the one table
`_COMMANDS` that the full parser, with all twelve, is built from when the
first argument names none (no argument, -h, an unknown name, an @file).
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import re
import signal
import sys
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .classify import Classification, Kind, classify_entries, reduce_trace
from .cluster import canonical_profile, cyclic_permutations
from .enumeration import (
    GenericOrbit,
    OrbitClass,
    OrbitKind,
    _census,
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
)
from .weyl import apply_word, parse_word

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        # read "-1,-1,-1,0" as a vector, as argparse reads "-1" as a number
        self._negative_number_matcher = re.compile(r"^-\d+(,-?\d+)*$|^-\d*\.\d+$")

    def error(self, message: str):  # noqa: D102 - argparse hook
        raise ContractError(message)

    def convert_arg_line_to_args(self, arg_line: str) -> list[str]:  # noqa: D102
        # an @file holds one vector per line; a blank line holds none
        return [arg_line] if arg_line.strip() else []


_KIND_MESSAGES = {
    Kind.REAL_POSITIVE: "real positive, degree {0.degree}",
    Kind.REAL_NEGATIVE: "real negative, degree {0.degree}",
    Kind.DEGREE_ZERO_REAL: "real, degree 0",
    Kind.ALMOST_REAL_POSITIVE: "almost real positive, degree {0.degree}",
    Kind.ALMOST_REAL_NEGATIVE: "almost real negative, degree {0.degree}",
    Kind.NOT_REAL_Q: "not real: q = {0.q_value}, degree {0.degree}",
    Kind.NOT_REAL_RANGE: "not real: entries outside [0, {0.degree}]",
    Kind.NOT_IN_LATTICE: "not in root lattice",
    Kind.ZERO: "zero vector",
}


def _vec_str(entries: Sequence[int]) -> str:
    return "(" + ",".join(str(c) for c in entries) + ")"


def _parse_vector(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ContractError(f"cannot parse vector {text!r}") from None


def _exit_code(c: Classification) -> int:
    if c.kind.is_real:
        return 0
    if c.kind.is_almost_real:
        return 1
    return 2


def _spaced(entries: Sequence[int]) -> str:
    return " ".join(str(c) for c in entries)


def _render(
    args: argparse.Namespace,
    obj: Callable[[], object],
    plain: Callable[[], Iterable[str]],
    header: Sequence[str] = (),
    rows: Callable[[], Iterable[Sequence[object]]] = tuple,
) -> None:
    """Write the output to stdout in the requested format: one line of
    compact json, csv rows, or plain lines.  Each format comes from its own
    zero-argument builder, and only the one that --format picks is called;
    csv rows and plain lines are written as they are built."""
    out = sys.stdout
    if args.format == "json":
        import json

        out.write(json.dumps(obj()) + "\n")
    elif args.format == "csv":
        import csv

        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows())
    else:
        for line in plain():
            out.write(line + "\n")


def _cmd_check(args: argparse.Namespace) -> int:
    params = SystemParams(args.k, args.n)
    vectors = [_parse_vector(text) for text in args.vectors]
    results = [(entries, classify_entries(params, entries)) for entries in vectors]
    worst = max(_exit_code(c) for _, c in results)

    def obj() -> object:
        blobs = [
            {
                "k": params.k,
                "n": params.n,
                "x": list(entries),
                "kind": c.kind.value,
                "degree": c.degree,
                "q": c.q_value,
                "trace": c.trace.as_json_dict() if c.trace is not None else None,
            }
            for entries, c in results
        ]
        return blobs[0] if len(blobs) == 1 else blobs

    def plain() -> Iterator[str]:
        for entries, c in results:
            if len(results) > 1:
                yield f"# {_vec_str(entries)}"
            yield _KIND_MESSAGES[c.kind].format(c)
            if c.trace is not None:
                yield from c.trace.plain_lines("  ")

    _render(args, obj, plain)
    return worst


def _vector(args: argparse.Namespace) -> LatticeVector:
    """The command's one vector, in J(k, n)."""
    return LatticeVector(SystemParams(args.k, args.n), _parse_vector(args.vector))


def _cmd_reduce(args: argparse.Namespace) -> None:
    v = _vector(args)
    trace = reduce_trace(v)

    def plain() -> Iterator[str]:
        yield f"input {_vec_str(v.x)} degree {degree(v)}"
        yield from trace.plain_lines()

    _render(args, trace.as_json_dict, plain)


def _summary(
    classes: Sequence[OrbitClass | GenericOrbit], line: Callable
) -> Iterator[str]:
    """The plain listing: one line per class, then the count of each kind."""
    yield from map(line, classes)
    real = sum(1 for c in classes if c.kind is OrbitKind.REAL)
    yield f"{real} real, {len(classes) - real} almost real"


def _listing(
    args: argparse.Namespace,
    head: dict,
    classes: Sequence[OrbitClass | GenericOrbit],
    line: Callable[..., str],
    header: Sequence[str],
    row: Callable[..., Sequence[object]],
) -> None:
    """Render orbit classes: json is ``head`` plus ``"orbits"``, plain is
    `_summary` of ``line``, csv is ``header`` then a ``row`` per class."""
    _render(
        args,
        lambda: {**head, "orbits": [c.as_json_dict() for c in classes]},
        lambda: _summary(classes, line),
        header,
        lambda: map(row, classes),
    )


def _cmd_orbits(args: argparse.Namespace) -> None:
    params, d = SystemParams(args.k, args.n), args.degree
    _listing(
        args,
        {"k": params.k, "n": params.n, "degree": d},
        enumerate_orbits(params, d),
        lambda o: f"{_vec_str(o.representative.x)} {o.kind.value} size={o.orbit_size}",
        ("representative", "degree", "kind", "orbit_size"),
        lambda o: (_spaced(o.representative.x), d, o.kind.value.lower(), o.orbit_size),
    )


def _cmd_tables(args: argparse.Namespace) -> None:
    params = SystemParams(args.k, args.n)
    if args.max < 1:
        raise ContractError("--max must be >= 1")
    counter = count_real_roots if args.kind == "real" else count_almost_real_roots
    counts = [(d, counter(params, d)) for d in range(1, args.max + 1)]
    head = {"k": params.k, "n": params.n, "kind": args.kind}
    _render(
        args,
        lambda: {**head, "counts": [{"degree": d, "count": c} for d, c in counts]},
        lambda: (f"degree {d}: {c}" for d, c in counts),
        ("k", "n", "degree", "kind", "count"),
        lambda: ((params.k, params.n, d, args.kind, c) for d, c in counts),
    )


def _cmd_generic(args: argparse.Namespace) -> None:
    d = args.degree
    _listing(
        args,
        {"degree": d},
        enumerate_generic(d),
        lambda g: f"core={_vec_str(g.core)} at {g.core_params}"
        f" pad=({d})^(k-{g.d_multiplicity_offset}) {g.kind.value}",
        ("degree", "kind", "k_min", "n_min", "core"),
        lambda g: (
            d, g.kind.value.lower(), g.core_params.k, g.core_params.n, _spaced(g.core)
        ),
    )


def _cmd_weights(args: argparse.Namespace) -> None:
    params = SystemParams(args.k, args.n)
    labels = ["beta"] + [f"alpha_{i}" for i in range(1, params.n)]
    weights = list(zip(labels, fundamental_weights(params)))
    head = {"k": params.k, "n": params.n}
    _render(
        args,
        lambda: {
            **head,
            "weights": [{"label": a, **w.as_json_dict()} for a, w in weights],
        },
        lambda: (f"{a}: {w.plain_str()}" for a, w in weights),
    )


def _cmd_families(args: argparse.Namespace) -> None:
    params = SystemParams(args.k, args.n)
    if args.family in ("gamma", "delta"):
        if args.degree is None:
            raise ContractError(f"{args.family} requires --degree")
        builder = gamma if args.family == "gamma" else delta_family
        v = builder(args.degree, params)
    elif args.family == "null":
        v = affine_delta(params)
    else:  # affine
        if args.series is None or args.sign is None or args.m is None:
            raise ContractError("affine requires --series, --sign and --m")
        try:
            series = Series(args.series.upper())
        except ValueError:
            raise ContractError(f"unknown series {args.series!r}") from None
        indices = None
        if args.pair is not None:
            pair = _parse_vector(args.pair)
            if len(pair) != 2:
                raise ContractError("--pair takes two comma-separated indices i,j")
            indices = (pair[0], pair[1])
        sign = 1 if args.sign == "+" else -1
        v = affine_family(series, sign, args.m, params, indices)
    _render(
        args, v.as_json_dict, lambda: [_vec_str(v.x), f"degree {degree(v)}, q = {q(v)}"]
    )


def _cmd_manin(args: argparse.Namespace) -> None:
    mv = to_manin(_vector(args))
    _render(args, mv.as_json_dict, lambda: [f"a = {mv.a}, b = {_vec_str(mv.b)}"])


def _cmd_profile(args: argparse.Namespace) -> None:
    p = canonical_profile(_vector(args))
    _render(
        args,
        p.as_json_dict,
        lambda: (rot.plain_str() for rot in cyclic_permutations(p)),
    )


def _cmd_convert(args: argparse.Namespace) -> None:
    params = SystemParams(args.k, args.n)
    values = _parse_vector(args.values)
    if args.from_roots:
        # RootCoefficients refuses a count of values other than n
        v = from_root_basis(RootCoefficients(params, values[0], values[1:]))
        _render(args, v.as_json_dict, lambda: [_vec_str(v.x)])
        return
    coeffs = to_root_basis(LatticeVector(params, values))
    _render(
        args,
        coeffs.as_json_dict,
        lambda: [f"m_beta = {coeffs.m_beta}, m = {_vec_str(coeffs.m)}"],
    )


def _cmd_word(args: argparse.Namespace) -> None:
    word = parse_word(args.word)
    result = apply_word(word, _vector(args))
    _render(args, result.as_json_dict, lambda: [_vec_str(result.x)])


def _cmd_selftest(args: argparse.Namespace) -> int:
    from . import golden

    checks: list[dict] = []

    def report(label: str, ok: bool, detail: str = "") -> None:
        checks.append({"label": label, "ok": ok, "detail": "" if ok else detail})

    # each (system, degree) is walked once, and each generic list enumerated once
    census = functools.cache(_census)
    generic = functools.cache(enumerate_generic)

    for table, kind, label in (
        (golden.REAL_COUNTS, OrbitKind.REAL, "real root counts"),
        (golden.ALMOST_COUNTS, OrbitKind.ALMOST_REAL, "almost real root counts"),
    ):
        for (k, n), expected in sorted(table.items()):
            params = SystemParams(k, n)
            got = tuple(census(params, d)[kind][0] for d in range(1, len(expected) + 1))
            report(f"{label} {params}", got == expected, f"{got} != {expected}")
    # (k, None) and (None, None) rows hold generic counts, the others concrete
    for (k, n), expected in sorted(golden.ORBIT_COUNTS.items(), key=str):
        got: tuple[list[int], ...] = tuple([] for _ in OrbitKind)
        for d in range(1, len(expected[0]) + 1):
            if n is None:
                classes = [g for g in generic(d) if k is None or g.core_params.k <= k]
            for row, kind in zip(got, OrbitKind):
                if n is None:
                    row.append(sum(1 for c in classes if c.kind is kind))
                else:
                    row.append(census(SystemParams(k, n), d)[kind][1])
        if n is None:
            label = f"generic orbit counts (k={'any' if k is None else k})"
        else:
            label = f"orbit counts {SystemParams(k, n)}"
        ok = tuple(map(tuple, got)) == expected
        report(label, ok, "/".join(map(str, got)))
    for d in range(1, 6):
        got_cores = [
            sorted((g.core, g.core_params.k) for g in generic(d) if g.kind is kind)
            for kind in OrbitKind
        ]
        expected_cores = [
            sorted(golden.GENERIC_REAL_CORES[d]),
            sorted(golden.GENERIC_ALMOST_CORES[d]),
        ]
        report(f"generic orbit cores, degree {d}", got_cores == expected_cores)
    failures = sum(1 for c in checks if not c["ok"])
    verdict = "passed" if failures == 0 else f"failed ({failures} mismatches)"
    _render(
        args,
        lambda: {"checks": checks, "passed": failures == 0},
        lambda: [
            *(
                f"{'ok' if c['ok'] else 'MISMATCH'}: {c['label']}"
                f"{': ' + c['detail'] if c['detail'] else ''}"
                for c in checks
            ),
            f"selftest {verdict}",
        ],
    )
    return 0 if failures == 0 else 1


def _arg(*flags: str, **kwargs: object) -> tuple[tuple[str, ...], dict]:
    """One ``add_argument`` call, as (flags, keyword arguments)."""
    return flags, kwargs


_K_N = (_arg("k", type=int), _arg("n", type=int))
_VECTOR = _arg("vector", metavar="x1,..,xn")
_DEGREE = _arg("--degree", type=int, required=True)

# name: (function, help, arguments); --format and --time-limit come after
_COMMANDS = {
    "check": (
        _cmd_check,
        "classify vectors",
        (*_K_N, _arg("vectors", nargs="+", metavar="x1,..,xn")),
    ),
    "reduce": (_cmd_reduce, "print the full reduction trace", (*_K_N, _VECTOR)),
    "orbits": (_cmd_orbits, "orbit classes of one degree", (*_K_N, _DEGREE)),
    "tables": (
        _cmd_tables,
        "root counts per degree",
        (
            *_K_N,
            _arg("--max", type=int, required=True, help="largest degree"),
            _arg("--kind", choices=["real", "almost"], default="real"),
        ),
    ),
    "generic": (_cmd_generic, "orbit shapes over all large systems", (_DEGREE,)),
    "weights": (_cmd_weights, "fundamental weights (finite types)", _K_N),
    # the family name comes before k and n
    "families": (
        _cmd_families,
        "named root families",
        (
            _arg("family", choices=["gamma", "delta", "null", "affine"]),
            *_K_N,
            _arg("--degree", type=int),
            _arg("--series", help="A0..A3, B0..B3, C0..C2"),
            _arg("--sign", choices=["+", "-"]),
            _arg("--m", type=int),
            _arg("--pair", help="i,j for the digit-0 series"),
        ),
    ),
    "manin": (
        _cmd_manin,
        "degree-vector form of J(3,8) elements",
        (*_K_N, _arg("vector", metavar="x1,..,x8")),
    ),
    "profile": (_cmd_profile, "canonical profile and its rotations", (*_K_N, _VECTOR)),
    "convert": (
        _cmd_convert,
        "between e-coordinates and root basis",
        (
            *_K_N,
            _arg("values", metavar="v1,..,vn"),
            _arg(
                "--from-roots",
                action="store_true",
                help="values are root-basis coefficients, branch coefficient first",
            ),
        ),
    ),
    "word": (
        _cmd_word,
        "apply a reflection word to a vector",
        (
            *_K_N,
            _arg("word", help="letters like b,3,b,1 applied left to right"),
            _VECTOR,
        ),
    ),
    "selftest": (_cmd_selftest, "compare against embedded reference counts", ()),
}


def _build_parser(argv: Sequence[str] = ()) -> _Parser:
    """The parser of ``argv``: with the subcommand named by its first
    argument alone, which parses and reports that command as the full parser
    does; with all of them when the first argument names none (no argument,
    -h, an unknown name, an @file), which the top-level help and errors
    list."""
    parser = _Parser(
        prog="jkn",
        description="Exact arithmetic for the root systems J(k,n).",
        fromfile_prefix_chars="@",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    names = argv[:1] if argv and argv[0] in _COMMANDS else _COMMANDS
    for name in names:
        func, help, arguments = _COMMANDS[name]
        p = subs.add_parser(name, help=help)
        for flags, kwargs in arguments:
            p.add_argument(*flags, **kwargs)
        tabular = name in ("orbits", "tables", "generic")
        formats = ["plain", "json", "csv"] if tabular else ["plain", "json"]
        p.add_argument("--format", choices=formats, default="plain")
        p.add_argument(
            "--time-limit",
            type=_time_limit,
            default=300.0,
            metavar="SECONDS",
            help="abort with exit 4 after this many seconds; 0 means no limit"
            " (default 300)",
        )
        p.set_defaults(func=func)
    return parser


def _time_limit(text: str) -> float:
    """A --time-limit value: a finite number of seconds >= 0."""
    try:
        seconds = float(text)
    except ValueError:
        seconds = math.nan
    if not math.isfinite(seconds) or seconds < 0:
        raise argparse.ArgumentTypeError(
            f"must be a finite number >= 0 (0 means no limit), got {text!r}"
        )
    return seconds


def _raise_time_limit(signum, frame):  # noqa: ANN001 - signal handler
    raise ResourceLimitError("time limit exceeded")


def main(argv: Optional[Sequence[str]] = None) -> int:
    use_alarm = False
    try:
        if argv is None:
            argv = sys.argv[1:]
        args = _build_parser(argv).parse_args(argv)
        if args.time_limit > 0 and hasattr(signal, "SIGALRM"):
            try:
                previous = signal.signal(signal.SIGALRM, _raise_time_limit)
            except ValueError:  # the alarm is the main thread's alone
                raise ContractError(
                    f"--time-limit {args.time_limit:g} cannot be kept off the main"
                    " thread; --time-limit 0 turns the limit off"
                ) from None
            use_alarm = True
            try:
                signal.setitimer(signal.ITIMER_REAL, args.time_limit)
            except OverflowError:
                raise ContractError(
                    f"--time-limit {args.time_limit:g} is too large for the timer"
                ) from None
        code = args.func(args) or 0
        sys.stdout.flush()
        return code
    except ContractError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3
    except ResourceLimitError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 4
    except BrokenPipeError:
        # the reader is gone: the interpreter's last flush of what is left
        # goes to devnull, so that it raises nothing more
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except Exception:
        import traceback

        traceback.print_exc()
        return 5
    finally:
        if use_alarm:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)


if __name__ == "__main__":
    sys.exit(main())
