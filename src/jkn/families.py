"""Structural maps and distinguished root families.

Covers the maps between systems (duality J(k,n) <-> J(n-k,n), one-step
extensions, minimal support), the two one-per-degree families of real
roots (both built by `_named`), the null roots and real-root families of
the three affine systems (each named root a minimal-support core,
extended into J(k,n)), fundamental weights and positive-root sums for
finite types, and the degree-plus-coordinates form of J(3,8) elements
used to match the classical E8 / del Pezzo tables.
"""

from __future__ import annotations

import enum
import math
from fractions import Fraction
from typing import Optional

from .errors import ContractError
from .lattice import (
    LatticeVector,
    SystemParams,
    _admitted_degree,
    _extended,
    _record,
    _Record,
    _require_params,
    _stripped,
    _window,
    degree,
)

__all__ = [
    "WeightVector",
    "ManinVector",
    "Series",
    "dualize",
    "extend",
    "minimal_support",
    "gamma",
    "delta_family",
    "affine_delta",
    "affine_family",
    "definiteness_margin",
    "is_finite_type",
    "fundamental_weights",
    "sum_of_positive_roots",
    "to_manin",
]


# ---------------------------------------------------------------------------
# Structural maps


def dualize(v: LatticeVector) -> LatticeVector:
    """Send x of J(k,n) to (d-x_n,...,d-x_1) of J(n-k,n); preserves q."""
    d = degree(v)
    params = v.params
    if params.k >= params.n:
        raise ContractError(f"dualize needs k < n, got {params}")
    flipped = tuple(d - c for c in reversed(v.x))
    return LatticeVector(SystemParams(params.n - params.k, params.n), flipped)


def extend(v: LatticeVector, grow_k: bool) -> LatticeVector:
    """Embed into the next larger system; degree and q are unchanged.

    grow_k=False appends a zero coordinate, landing in J(k, n+1).
    grow_k=True prepends an entry equal to the degree, landing in
    J(k+1, n+1).  Every named root and generic orbit is its minimal-support
    core carried into J(k,n) by these steps.
    """
    d = degree(v)
    k, n = v.params.k, v.params.n
    params = SystemParams(k + 1 if grow_k else k, n + 1)
    return LatticeVector(params, _extended("extend", v.x, k, d, params))


def minimal_support(v: LatticeVector) -> tuple[SystemParams, LatticeVector]:
    """Undo every extension: strip trailing zeros, then leading degree entries
    (`lattice._stripped`, the inverse of the rule `extend` applies).

    Requires degree >= 1 with entries in [0, degree], the window
    `lattice._window` checks first, and then a non-increasing vector.  k
    never drops below 1, so the all-ones vector of degree 1 ends at (1) in
    J(1,1).
    """
    d = _window("minimal_support", v)
    x = v.x
    if any(x[i] < x[i + 1] for i in range(len(x) - 1)):
        raise ContractError("minimal_support requires a non-increasing vector")
    k, core = _stripped(x, v.params.k, x.count(d), x.count(0))
    params = SystemParams(k, len(core))
    return params, LatticeVector(params, core)


# ---------------------------------------------------------------------------
# Named families


def gamma(d: int, params: SystemParams) -> LatticeVector:
    """The degree-d real root with core (d-1, 1^(2d+1)) in J(3, 2d+2).

    Defined for d >= 2; J(k,n) holds it when k >= 3 and n - k >= 2d - 1.
    """
    return _named("gamma", d, params, ((d - 1, 1), (1, 2 * d + 1)), 3)


def delta_family(d: int, params: SystemParams) -> LatticeVector:
    """The degree-d real root with core ((d-1)^(d+1), 1^(d+1)) in J(d+1, 2d+2).

    Defined for d >= 2; J(k,n) holds it when k >= d + 1 and n - k >= d + 1.
    """
    return _named("delta_family", d, params, ((d - 1, d + 1), (1, d + 1)), d + 1)


def _named(
    name: str, d: int, params: SystemParams, core: tuple, k_min: int
) -> LatticeVector:
    """The named family's degree-d root: its core, (value, multiplicity)
    pairs of J(k_min, n_min), extended into J(params).  ContractError for
    params that are not a SystemParams, for d not an integer or below 2, or
    for a core that cannot fit, refused before it is built."""
    _require_params(params)
    d = _admitted_degree(name, d, 2)
    what = f"{name} of degree {d}"
    if d > params.n:  # the core cannot fit; refused before it is built
        raise ContractError(f"{what} does not fit in {params}")
    entries = sum(((c,) * m for c, m in core), ())
    return LatticeVector(params, _extended(what, entries, k_min, d, params))


# ---------------------------------------------------------------------------
# Affine systems

# letter -> (affine system, its null root, the null root's degree); a larger
# system holds the null root as this core extended
_AFFINE = {
    "A": (SystemParams(3, 9), (1,) * 9, 3),
    "B": (SystemParams(6, 9), (2,) * 9, 3),
    "C": (SystemParams(4, 8), (1,) * 8, 2),
}

# digit, or series for the digit 3 -> (minimal system, core, degree) of the
# base root; each fits in every system its letter's affine system fits in
_BASES = {
    "1": (SystemParams(1, 1), (1,), 1),
    "2": (SystemParams(3, 6), (1,) * 6, 2),
    "A3": (SystemParams(3, 8), (2,) + (1,) * 7, 3),
    "B3": (SystemParams(5, 8), (2,) * 7 + (1,), 3),
}


def affine_delta(params: SystemParams) -> LatticeVector:
    """The null root: generator of the Cartan kernel, q = 0."""
    for system, core, _ in _AFFINE.values():
        if system == params:
            return LatticeVector(params, core)
    systems = ", ".join(str(system) for system, _, _ in _AFFINE.values())
    raise ContractError(f"{params} is not affine; the affine systems are {systems}")


class Series(str, enum.Enum):
    """Real-root families of the three affine subsystem embeddings.

    The letter picks the null root: A uses the J(3,9) one, B the J(6,9)
    one, C the J(4,8) one.  The digit picks the base root added to integer
    multiples of the null root; 0 takes an explicit coordinate pair.
    """

    A0 = "A0"
    A1 = "A1"
    A2 = "A2"
    A3 = "A3"
    B0 = "B0"
    B1 = "B1"
    B2 = "B2"
    B3 = "B3"
    C0 = "C0"
    C1 = "C1"
    C2 = "C2"


def affine_family(
    series: Series,
    sign: int,
    m: int,
    params: SystemParams,
    indices: Optional[tuple[int, int]] = None,
) -> LatticeVector:
    """sign * (base root) + m * (null root), in e-coordinates.

    Both roots are cores extended into ``params``.  ``indices`` supplies the
    pair (i, j), i > j, for the digit-0 series and must be omitted
    otherwise: e_i - e_j pairs to zero with the null root only when both
    coordinates lie where the null root's core landed, which keeps q = 2
    along the series.  Every m >= 1 output is a positive root (degree 0
    exactly when the base degree cancels m times the null-root degree).
    """
    if sign not in (1, -1):
        raise ContractError(f"sign must be +1 or -1, got {sign}")
    if m < 1:
        raise ContractError(f"m must be >= 1, got {m}")
    what = f"series {series.value}"
    letter, digit = series.value
    system, null_core, null_degree = _AFFINE[letter]
    null = _extended(what, null_core, system.k, null_degree, params)
    if digit == "0":
        if indices is None:
            raise ContractError(f"{what} requires indices=(i, j)")
        lo = params.k - system.k + 1
        hi = lo + system.n - 1
        i, j = indices
        if not (lo <= j < i <= hi):
            raise ContractError(
                f"{what} at k={params.k} needs {lo} <= j < i <= {hi},"
                f" got (i, j) = ({i}, {j})"
            )
        base = [0] * params.n
        base[i - 1] = 1
        base[j - 1] = -1
    else:
        if indices is not None:
            raise ContractError(f"{what} does not take indices")
        core_system, core, d = _BASES.get(digit) or _BASES[series.value]
        base = _extended(what, core, core_system.k, d, params)
    entries = tuple(sign * b + m * z for b, z in zip(base, null))
    return LatticeVector(params, entries)


# ---------------------------------------------------------------------------
# Fundamental weights


def definiteness_margin(params: SystemParams) -> int:
    """k^2 - n(k-2): positive for finite type, zero affine, negative indefinite.

    Invariant under the duality k <-> n-k.
    """
    _require_params(params)
    return params.k * params.k - params.n * (params.k - 2)


def is_finite_type(params: SystemParams) -> bool:
    return definiteness_margin(params) > 0


@_record
class WeightVector(_Record):
    """A fundamental weight in both coordinate systems.

    ``coords`` are e-basis rationals; ``root_coeffs`` expresses the same
    vector over the simple-root basis (branch root first, then the chain),
    so root_coeffs is the matching column of the inverse Cartan matrix.
    """

    params: SystemParams
    coords: tuple[Fraction, ...]
    root_coeffs: tuple[Fraction, ...]

    def plain_str(self) -> str:
        """Render like 1/3(-1,2,2,2,2,2): shared denominator up front."""
        lcm = math.lcm(*(c.denominator for c in self.coords))
        body = ",".join(str(c.numerator * (lcm // c.denominator)) for c in self.coords)
        prefix = "" if lcm == 1 else f"1/{lcm}"
        return f"{prefix}({body})"

    def as_json_dict(self) -> dict:
        return {
            "coords": list(map(str, self.coords)),
            "root_coeffs": list(map(str, self.root_coeffs)),
        }


def fundamental_weights(params: SystemParams) -> tuple[WeightVector, ...]:
    """Dual basis to the simple roots, branch root's weight first.

    Exact rationals; only defined when the symmetric bilinear form is
    positive definite (finite type).  The e-Gram matrix I - ((k-2)/k^2) J
    is a rank-one perturbation of I, so Sherman-Morrison inverts it in
    closed form: with M = k^2 - n(k-2) (the definiteness margin), every
    weight is an integer vector over M.  Weight j has numerator lo on its
    first j coordinates and hi on the rest:

        omega_beta      : lo = hi = k, j = n,
        omega_{alpha_j} : lo = 2j - M, hi = 2j              for j < k,
        omega_{alpha_j} : lo = (k-2)(n-j), hi = lo + M      for j >= k.

    Its root coefficients (the matching column of the inverse Cartan
    matrix) are the to_root_basis formula on these numerators.  The
    coordinate total t = lo j + hi (n-j) is nk, jk(n-k) or (n-j)k^2
    respectively, so the degree D = t/k is exact, and the coefficient m_i
    of alpha_i is linear in i between the breaks at j and k:

        j < k  : i(D-lo) for i <= j,  i(D-hi) + (hi-lo) j for j < i < k,
                 hi(n-i) for i >= k;
        j >= k : i(D-lo) for i < k,  t - lo i for k <= i <= min(j, n-1),
                 t - lo j - hi(i-j) for i > j.

    So each weight is two numerators and three arithmetic progressions, and
    nothing is summed.  The call builds one Fraction per distinct numerator.
    """
    margin = definiteness_margin(params)
    if margin < 0:
        raise ContractError(
            f"{params} is of indefinite type; fundamental weights are computed"
            " for finite types only"
        )
    if margin == 0:
        raise ContractError(
            f"{params} is of affine type: the Cartan matrix is singular"
        )
    k, n = params.k, params.n
    frac = _OverMargin(margin).__getitem__
    # omega_beta: lo = hi = k and j = n, so t = nk and D = n; its first
    # step, n - k, is zero at k = n
    s = n - k
    m = [n, *(range(s, s * k, s) if s else (0,) * (k - 1)), *range(k * s, 0, -k)]
    weights = [WeightVector(params, (frac(k),) * n, tuple(map(frac, m)))]
    for j in range(1, n):
        if j < k:
            hi = 2 * j
            lo = hi - margin
        else:
            lo = (k - 2) * (n - j)
            hi = lo + margin
        t = lo * j + hi * (n - j)
        if t % k:
            raise RuntimeError(
                f"a fundamental weight of {params} has coordinate total {t},"
                f" not divisible by k={k}"
            )
        d = t // k
        # each piece a range; a step that can be zero repeats one value
        # instead.  On finite type d - lo and hi are positive: d - lo is
        # M + j(n-k-2) for j < k and 2(n-j) for j >= k, hi is 2j for j < k,
        # (k-2)(n-j) + M for j >= k, and j + 1 at k = 1.
        m = [d]
        s = d - lo
        if j < k:
            m += range(s, s * (j + 1), s)
            s = d - hi
            a = s * (j + 1) + margin * j
            m += range(a, s * k + margin * j, s) if s else (a,) * (k - 1 - j)
            m += range(hi * (n - k), 0, -hi)
        else:
            m += range(s, s * k, s)
            a = t - lo * k
            m += range(a, t - lo * (j + 1), -lo) if lo else (a,) * (j - k + 1)
            a = t - lo * j
            m += range(a - hi, a - hi * (n - j), -hi)
        weights.append(
            WeightVector(
                params,
                (frac(lo),) * j + (frac(hi),) * (n - j),
                tuple(map(frac, m)),
            )
        )
    return tuple(weights)


class _OverMargin(dict):
    """numerator -> Fraction(numerator, margin), each built on first use."""

    def __init__(self, margin: int) -> None:
        super().__init__()
        self.margin = margin

    def __missing__(self, a: int) -> Fraction:
        self[a] = f = Fraction(a, self.margin)
        return f


def sum_of_positive_roots(params: SystemParams) -> LatticeVector:
    """Entrywise sum over every positive root of a finite-type system.

    The sum is 2rho, and rho is fixed by B(rho, simple root) = 1.  The
    simple roots alpha_j = e_{j+1} - e_j make consecutive coordinates of
    2rho differ by 2, so 0-based coordinate j is 2j + c; B(2rho, beta) = 2
    then reads c * M = 2k - k^2(k-1) + (k-2)n(n-1), with M = k^2 - n(k-2)
    the definiteness margin.  O(n), and nothing is enumerated.
    """
    if not is_finite_type(params):
        raise ContractError(
            f"{params} is not of finite type; the positive-root sum diverges"
        )
    k, n = params.k, params.n
    c, rem = divmod(
        2 * k - k * k * (k - 1) + (k - 2) * n * (n - 1),
        definiteness_margin(params),
    )
    if rem:
        raise RuntimeError(f"the positive-root sum of {params} is not integral")
    return LatticeVector(params, tuple(range(c, c + 2 * n, 2)))


# ---------------------------------------------------------------------------
# Degree-vector form of J(3,8) elements


@_record
class ManinVector(_Record):
    """(a, b1..b8): the degree then the eight coordinates.

    This is the coordinate form an element of J(3,8) takes after one
    k-growing extension into J(4,9), matching the classical hyperbolic
    basis for the E8 lattice.  Output only; no arithmetic is done here.
    """

    a: int
    b: tuple[int, ...]

    def as_json_dict(self) -> dict:
        return {"a": self.a, "b": list(self.b)}


def to_manin(v: LatticeVector) -> ManinVector:
    """Degree-vector form; defined on J(3,8) elements only."""
    d = degree(v)
    if v.params != SystemParams(3, 8):
        raise ContractError(f"to_manin is defined on J(3,8), got {v.params}")
    return ManinVector(d, v.x)
