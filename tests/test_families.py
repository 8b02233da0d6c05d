"""Named families, structural maps, weights, and the J(3,8) correspondence."""

from fractions import Fraction

import pytest
from hypothesis import given

from jkn import (
    ContractError,
    Kind,
    LatticeVector,
    Series,
    SystemParams,
    affine_delta,
    affine_family,
    beta_vector,
    classify,
    definiteness_margin,
    degree,
    delta_family,
    dualize,
    extend,
    fundamental_weights,
    gamma,
    inner,
    is_finite_type,
    q,
    simple_root,
    sum_of_positive_roots,
    to_manin,
)

from conftest import (
    basis_matrix,
    cartan_matrix,
    enumerated_sum_of_positive_roots,
    params_and_vector,
)

F = Fraction


# --- structural maps -------------------------------------------------------


def test_dualize_frozen():
    v = LatticeVector(SystemParams(3, 8), (2, 1, 1, 1, 1, 1, 1, 1))
    w = dualize(v)
    assert (w.params.k, w.params.n) == (5, 8)
    assert w.x == (2, 2, 2, 2, 2, 2, 2, 1)
    assert q(w) == 2 and degree(w) == 3


def test_dualize_needs_smaller_k():
    with pytest.raises(ContractError):
        dualize(LatticeVector(SystemParams(2, 2), (1, 1)))


@given(params_and_vector(max_k=4, max_n=9))
def test_dualize_involution_preserves_form(pv):
    params, v = pv
    if params.k >= params.n:
        return
    w = dualize(v)
    assert q(w) == q(v)
    assert degree(w) == degree(v)
    assert dualize(w) == v


def test_extend_frozen():
    b = beta_vector(SystemParams(3, 6))
    wide = extend(b, grow_k=False)
    assert (wide.params.k, wide.params.n) == (3, 7)
    assert wide.x == (1, 1, 1, 0, 0, 0, 0)
    tall = extend(b, grow_k=True)
    assert (tall.params.k, tall.params.n) == (4, 7)
    assert tall.x == (1, 1, 1, 1, 0, 0, 0)


@given(params_and_vector(max_n=8))
def test_extend_preserves_form(pv):
    _, v = pv
    for grow_k in (False, True):
        w = extend(v, grow_k)
        assert q(w) == q(v)
        assert degree(w) == degree(v)


# --- one-per-degree families -----------------------------------------------


def test_gamma_frozen():
    assert gamma(2, SystemParams(3, 6)).x == (1, 1, 1, 1, 1, 1)
    assert gamma(3, SystemParams(3, 8)).x == (2, 1, 1, 1, 1, 1, 1, 1)
    assert gamma(3, SystemParams(4, 9)).x == (3, 2, 1, 1, 1, 1, 1, 1, 1)
    with pytest.raises(ContractError):
        gamma(3, SystemParams(3, 7))
    with pytest.raises(ContractError):
        gamma(1, SystemParams(3, 8))


def test_delta_frozen():
    assert delta_family(2, SystemParams(3, 6)).x == (1, 1, 1, 1, 1, 1)
    assert delta_family(3, SystemParams(4, 8)).x == (2, 2, 2, 2, 1, 1, 1, 1)
    assert delta_family(4, SystemParams(5, 10)).x == (
        3, 3, 3, 3, 3, 1, 1, 1, 1, 1,
    )
    with pytest.raises(ContractError):
        delta_family(4, SystemParams(4, 9))


def test_families_refuse_a_huge_degree_before_building_it():
    for family in (gamma, delta_family):
        with pytest.raises(ContractError, match="does not fit"):
            family(2**62, SystemParams(3, 8))


def test_family_refusals():
    for family, name in ((gamma, "gamma"), (delta_family, "delta_family")):
        with pytest.raises(ContractError, match=f"^{name} requires degree >= 2, got 1$"):
            family(1, SystemParams(6, 15))
    with pytest.raises(
        ContractError, match=r"^gamma of degree 3 needs k >= 3 and n - k >= 5, got J\(3,7\)$"
    ):
        gamma(3, SystemParams(3, 7))
    with pytest.raises(
        ContractError,
        match=r"^delta_family of degree 4 needs k >= 5 and n - k >= 5, got J\(4,9\)$",
    ):
        delta_family(4, SystemParams(4, 9))
    with pytest.raises(
        ContractError, match=r"^delta_family of degree 9 does not fit in J\(3,8\)$"
    ):
        delta_family(9, SystemParams(3, 8))


def test_families_are_real_roots():
    host = SystemParams(6, 15)
    for d in range(2, 6):
        for v in (gamma(d, host), delta_family(d, host)):
            assert q(v) == 2
            assert degree(v) == d
            assert classify(v).kind is Kind.REAL_POSITIVE


def test_families_stay_real_on_deep_walks():
    # each walk takes hundreds to thousands of steps
    for v, d in [
        (gamma(300, SystemParams(3, 602)), 300),
        (delta_family(300, SystemParams(301, 602)), 300),
        (affine_family(Series.A1, 1, 1000, SystemParams(3, 12)), 1 + 3 * 1000),
        (affine_family(Series.B2, -1, 500, SystemParams(6, 9)), 3 * 500 - 2),
    ]:
        assert degree(v) == d
        assert classify(v).kind is Kind.REAL_POSITIVE


def test_family_inner_products():
    """The two families form the lattice-theoretic grid they should."""
    host = SystemParams(6, 15)
    for d in range(2, 6):
        for e in range(2, 6):
            g, ge = gamma(d, host), gamma(e, host)
            dl, dle = delta_family(d, host), delta_family(e, host)
            assert inner(g, ge) == 2 - abs(d - e)
            assert inner(dl, dle) == 2 - abs(d - e)
        assert inner(gamma(d, host), delta_family(d, host)) == d * (3 - d)


def test_degree_two_members_coincide():
    host = SystemParams(5, 12)
    assert gamma(2, host) == delta_family(2, host)


# --- affine systems ---------------------------------------------------------


def test_affine_delta_frozen():
    assert affine_delta(SystemParams(3, 9)).x == (1,) * 9
    assert affine_delta(SystemParams(4, 8)).x == (1,) * 8
    assert affine_delta(SystemParams(6, 9)).x == (2,) * 9
    with pytest.raises(ContractError):
        affine_delta(SystemParams(3, 8))


def test_affine_delta_spans_kernel():
    for k, n in [(3, 9), (4, 8), (6, 9)]:
        p = SystemParams(k, n)
        d = affine_delta(p)
        assert q(d) == 0
        assert inner(d, beta_vector(p)) == 0
        for i in range(1, n):
            assert inner(d, simple_root(p, i)) == 0


def test_delta3_decomposes_in_4_8():
    p = SystemParams(4, 8)
    assert delta_family(3, p) == beta_vector(p) + affine_delta(p)


def test_margin_trichotomy():
    assert definiteness_margin(SystemParams(3, 8)) == 1
    assert definiteness_margin(SystemParams(3, 9)) == 0
    assert definiteness_margin(SystemParams(4, 8)) == 0
    assert definiteness_margin(SystemParams(6, 9)) == 0
    assert definiteness_margin(SystemParams(3, 10)) == -1
    assert is_finite_type(SystemParams(3, 8))
    assert not is_finite_type(SystemParams(3, 9))
    assert not is_finite_type(SystemParams(4, 10))


def test_margin_self_dual():
    for k in range(1, 8):
        for n in range(k + 1, 16):
            assert definiteness_margin(SystemParams(k, n)) == definiteness_margin(
                SystemParams(n - k, n)
            )


# --- affine one-parameter families ------------------------------------------


def test_affine_family_digit_series():
    """q stays 2 along each series, so the base is orthogonal to the null root."""
    host = SystemParams(7, 14)
    for series in Series:
        if series.value.endswith("0"):
            continue
        for sign in (1, -1):
            for m in (1, 2, 3):
                v = affine_family(series, sign, m, host)
                assert q(v) == 2
                assert classify(v).kind in (
                    Kind.REAL_POSITIVE,
                    Kind.DEGREE_ZERO_REAL,
                )


def test_affine_family_step_is_null_root():
    host = SystemParams(7, 14)
    v1 = affine_family(Series.A1, 1, 1, host)
    v2 = affine_family(Series.A1, 1, 2, host)
    assert q(v2 - v1) == 0


def test_affine_family_digit_zero_window():
    host = SystemParams(4, 10)
    v = affine_family(Series.A0, -1, 1, host, indices=(9, 2))
    assert v.x == (3, 2, 1, 1, 1, 1, 1, 1, 0, 1)
    assert q(v) == 2
    # indices must sit inside the window where the null root is constant
    with pytest.raises(ContractError):
        affine_family(Series.A0, 1, 1, host, indices=(9, 1))
    with pytest.raises(ContractError):
        affine_family(Series.A0, 1, 1, host)
    with pytest.raises(ContractError):
        affine_family(Series.A1, 1, 1, host, indices=(9, 2))


# letter -> (k_min, n_min, null root core, its degree): the affine system
AFFINE_CORES = {
    "A": (3, 9, (1,) * 9, 3),
    "B": (6, 9, (2,) * 9, 3),
    "C": (4, 8, (1,) * 8, 2),
}


def _extended_null_root(letter, p):
    k_min, n_min, core, d = AFFINE_CORES[letter]
    return (d,) * (p.k - k_min) + core + (0,) * (p.n - p.k - n_min + k_min)


@pytest.mark.parametrize("letter", "ABC")
def test_affine_digit_zero_accepts_exactly_its_window(letter):
    """(i, j) is accepted exactly when k - k_min + 1 <= j < i <= k - k_min + n_min,
    where the null root's core lands."""
    k_min, n_min, _, _ = AFFINE_CORES[letter]
    series = Series(letter + "0")
    for k in range(k_min, k_min + 4):
        p = SystemParams(k, k + n_min - k_min + 2)
        lo, hi = k - k_min + 1, k - k_min + n_min
        for i in range(1, p.n + 1):
            for j in range(1, p.n + 1):
                if lo <= j < i <= hi:
                    v = affine_family(series, -1, 2, p, (i, j))
                    assert q(v) == 2, (p, i, j)
                else:
                    with pytest.raises(ContractError):
                        affine_family(series, -1, 2, p, (i, j))


@pytest.mark.parametrize(
    "series", [s for s in Series if not s.value.endswith("0")], ids=str
)
def test_affine_digit_series_step_is_extended_null_root(series):
    letter = series.value[0]
    k_min, n_min, _, _ = AFFINE_CORES[letter]
    for k, tail in [(k_min, n_min - k_min), (k_min + 1, n_min - k_min + 2), (9, 11)]:
        p = SystemParams(k, k + tail)
        step = affine_family(series, 1, 2, p) - affine_family(series, 1, 1, p)
        assert step.x == _extended_null_root(letter, p), p
    affine = SystemParams(k_min, n_min)
    step = affine_family(series, 1, 2, affine) - affine_family(series, 1, 1, affine)
    assert step == affine_delta(affine)


def test_affine_family_preconditions():
    with pytest.raises(ContractError):
        affine_family(Series.A1, 1, 0, SystemParams(7, 14))
    with pytest.raises(ContractError):
        affine_family(Series.A1, 2, 1, SystemParams(7, 14))
    with pytest.raises(ContractError):
        affine_family(Series.B1, 1, 1, SystemParams(5, 14))  # needs k >= 6
    with pytest.raises(ContractError):
        affine_family(Series.C1, 1, 1, SystemParams(4, 7))  # needs n-k >= 4


def test_manin_curve_rows():
    """The seven exceptional-curve rows at m = 1 in J(4,10)."""
    host = SystemParams(4, 10)
    rows = [
        (Series.A3, -1, None, (0, -1, 0, 0, 0, 0, 0, 0, 0, 1)),
        (Series.A2, -1, None, (1, 0, 0, 0, 0, 0, 0, 1, 1, 1)),
        (Series.A1, -1, None, (2, 0, 0, 0, 1, 1, 1, 1, 1, 1)),
        (Series.A0, -1, (9, 2), (3, 2, 1, 1, 1, 1, 1, 1, 0, 1)),
        (Series.A1, 1, None, (4, 2, 2, 2, 1, 1, 1, 1, 1, 1)),
        (Series.A2, 1, None, (5, 2, 2, 2, 2, 2, 2, 1, 1, 1)),
        (Series.A3, 1, None, (6, 3, 2, 2, 2, 2, 2, 2, 2, 1)),
    ]
    for series, sign, indices, expected in rows:
        v = affine_family(series, sign, 1, host, indices)
        assert v.x == expected, (series, sign)


# --- fundamental weights -----------------------------------------------------


E6_WEIGHTS = (
    (F(1), F(1), F(1), F(1), F(1), F(1)),
    (F(-1, 3), F(2, 3), F(2, 3), F(2, 3), F(2, 3), F(2, 3)),
    (F(1, 3), F(1, 3), F(4, 3), F(4, 3), F(4, 3), F(4, 3)),
    (F(1), F(1), F(1), F(2), F(2), F(2)),
    (F(2, 3), F(2, 3), F(2, 3), F(2, 3), F(5, 3), F(5, 3)),
    (F(1, 3), F(1, 3), F(1, 3), F(1, 3), F(1, 3), F(4, 3)),
)

E7_WEIGHTS = (
    tuple(F(3, 2) for _ in range(7)),
    (F(0), F(1), F(1), F(1), F(1), F(1), F(1)),
    (F(1), F(1), F(2), F(2), F(2), F(2), F(2)),
    (F(2), F(2), F(2), F(3), F(3), F(3), F(3)),
    (F(3, 2), F(3, 2), F(3, 2), F(3, 2), F(5, 2), F(5, 2), F(5, 2)),
    (F(1), F(1), F(1), F(1), F(1), F(2), F(2)),
    (F(1, 2), F(1, 2), F(1, 2), F(1, 2), F(1, 2), F(1, 2), F(3, 2)),
)

E8_WEIGHTS = (
    tuple(F(3) for _ in range(8)),
    (F(1), F(2), F(2), F(2), F(2), F(2), F(2), F(2)),
    (F(3), F(3), F(4), F(4), F(4), F(4), F(4), F(4)),
    (F(5), F(5), F(5), F(6), F(6), F(6), F(6), F(6)),
    (F(4), F(4), F(4), F(4), F(5), F(5), F(5), F(5)),
    (F(3), F(3), F(3), F(3), F(3), F(4), F(4), F(4)),
    (F(2), F(2), F(2), F(2), F(2), F(2), F(3), F(3)),
    (F(1), F(1), F(1), F(1), F(1), F(1), F(1), F(2)),
)


def test_weights_e6_frozen():
    ws = fundamental_weights(SystemParams(3, 6))
    assert tuple(w.coords for w in ws) == E6_WEIGHTS


def test_weights_e7_frozen():
    ws = fundamental_weights(SystemParams(3, 7))
    assert tuple(w.coords for w in ws) == E7_WEIGHTS


def test_weights_e8_frozen():
    ws = fundamental_weights(SystemParams(3, 8))
    assert tuple(w.coords for w in ws) == E8_WEIGHTS


def test_weights_d_series_shape():
    n = 6
    ws = fundamental_weights(SystemParams(2, n))
    assert ws[0].coords == tuple(F(1, 2) for _ in range(n))
    assert ws[1].coords == (F(-1, 2),) + tuple(F(1, 2) for _ in range(n - 1))
    for i in range(2, n):
        assert ws[i].coords == (F(0),) * i + (F(1),) * (n - i)


def test_weight_plain_strings():
    ws = fundamental_weights(SystemParams(3, 6))
    assert ws[1].plain_str() == "1/3(-1,2,2,2,2,2)"
    assert ws[3].plain_str() == "(1,1,1,2,2,2)"
    e7 = fundamental_weights(SystemParams(3, 7))
    assert e7[0].plain_str() == "1/2(3,3,3,3,3,3,3)"


def test_weight_duality():
    """B(weight_i, basis_j) is the Kronecker delta."""
    systems = [
        SystemParams(k, n)
        for k, cap in ((2, 10), (3, 8))
        for n in range(k + 1, cap + 1)
    ]
    systems += [SystemParams(k, 40) for k in (1, 2, 38, 39)]
    for p in systems:
        k = p.k
        basis = [beta_vector(p)] + [simple_root(p, i) for i in range(1, p.n)]
        for i, w in enumerate(fundamental_weights(p)):
            dw = sum(w.coords) / k
            for j, b in enumerate(basis):
                val = sum(w.coords[t] * c for t, c in enumerate(b.x) if c) + (
                    2 - k
                ) * dw * degree(b)
                assert val == (1 if i == j else 0), (p, i, j)


def test_weight_root_coefficients_reconstruct_coords():
    p = SystemParams(3, 7)
    m = basis_matrix(p)
    for w in fundamental_weights(p):
        for i in range(p.n):
            assert w.coords[i] == sum(
                F(m[i][j]) * w.root_coeffs[j] for j in range(p.n)
            )


def _invert_exact(matrix):
    """Gauss-Jordan inverse over Fractions; None when singular."""
    n = len(matrix)
    aug = [row[:] + [F(int(i == j)) for j in range(n)] for i, row in enumerate(matrix)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            return None
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = F(1) / aug[col][col]
        aug[col] = [c * inv for c in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [a - factor * b for a, b in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def _cartan_inverse_weights(p):
    """(coords, root_coeffs) per weight: inverse Cartan columns mapped by C."""
    inv = _invert_exact([[F(c) for c in row] for row in cartan_matrix(p)])
    basis = basis_matrix(p)
    n = p.n
    weights = []
    for col in range(n):
        coeffs = tuple(inv[row][col] for row in range(n))
        coords = tuple(
            sum(F(basis[i][j]) * coeffs[j] for j in range(n)) for i in range(n)
        )
        weights.append((coords, coeffs))
    return weights


def _finite_systems(max_n):
    return [
        SystemParams(k, n)
        for n in range(2, max_n + 1)
        for k in range(1, n)
        if is_finite_type(SystemParams(k, n))
    ]


def test_weights_match_cartan_inverse():
    """The closed form equals Gauss-Jordan on the Cartan matrix, exactly."""
    systems = _finite_systems(12) + [
        SystemParams(k, 20) for k in (1, 2, 18, 19)
    ]
    for p in systems:
        got = [(w.coords, w.root_coeffs) for w in fundamental_weights(p)]
        assert got == _cartan_inverse_weights(p), p
        for w in fundamental_weights(p):
            assert all(type(c) is F for c in w.coords + w.root_coeffs), p


def test_weights_invert_sparse_cartan_at_large_n():
    """C R = I and coords = basis R, on the diagram T(2, k, n-k-2), in integers.

    r holds a weight's root coefficients times M (branch first, then the
    chain alpha_1 .. alpha_{n-1}); beta is joined to alpha_k only.
    """
    systems = [SystemParams(k, 200) for k in (1, 2, 198, 199)]
    systems += [SystemParams(3, n) for n in (6, 7, 8)]
    for p in systems:
        k, n = p.k, p.n
        margin = definiteness_margin(p)

        def scaled(c):
            assert type(c) is F and margin % c.denominator == 0, (p, c)
            return c.numerator * (margin // c.denominator)

        for col, w in enumerate(fundamental_weights(p)):
            r = list(map(scaled, w.root_coeffs))
            x = list(map(scaled, w.coords))
            rb = r[0]
            chain = [0] + r[1:] + [0]  # chain[i] = r_{alpha_i}, zero off the ends
            assert 2 * rb - chain[k] == margin * (col == 0), (p, col)
            for i in range(1, n):
                row = 2 * chain[i] - chain[i - 1] - chain[i + 1] - (i == k) * rb
                assert row == margin * (col == i), (p, col, i)
            for i in range(1, n + 1):
                assert x[i - 1] == (i <= k) * rb + chain[i - 1] - chain[i], (p, col, i)


ORACLE_SYSTEMS = _finite_systems(40) + [SystemParams(k, 300) for k in (1, 2, 298, 299)]


def _root_matrix(p):
    """Row a: weight a's root coefficients, branch node first."""
    return [w.root_coeffs for w in fundamental_weights(p)]


def test_weight_root_coefficients_are_symmetric():
    """The root coefficients are C^-1, symmetric on a simply laced diagram."""
    for p in ORACLE_SYSTEMS:
        r = _root_matrix(p)
        assert list(zip(*r)) == r, p


def test_weights_dualize_by_reversing_the_chain():
    """J(k,n) -> J(n-k,n) reverses the chain, alpha_i <-> alpha_{n-i}, and
    fixes beta; on coordinates it is dualize's x -> (D - x_n, ..., D - x_1)."""
    for p in ORACLE_SYSTEMS:
        k, n = p.k, p.n
        node = [0] + list(range(n - 1, 0, -1))  # node a of J(k,n) in the dual
        ws = fundamental_weights(p)
        dual = fundamental_weights(SystemParams(n - k, n))
        for a, w in enumerate(ws):
            d = sum(w.coords) / k
            assert dual[node[a]].coords == tuple(d - c for c in reversed(w.coords))
            r = dual[node[a]].root_coeffs
            assert tuple(r[node[b]] for b in range(n)) == w.root_coeffs, (p, a)


def test_a_n_weights_match_the_textbook_inverse():
    """J(1,n) = A_n with node 1 = beta and node i+1 = alpha_i, where
    (C^-1)_ij = min(i,j) (n+1 - max(i,j)) / (n+1)."""
    n = 200
    assert _root_matrix(SystemParams(1, n)) == [
        tuple(F(min(i, j) * (n + 1 - max(i, j)), n + 1) for j in range(1, n + 1))
        for i in range(1, n + 1)
    ]


def test_weights_reject_non_finite():
    with pytest.raises(ContractError, match="affine"):
        fundamental_weights(SystemParams(3, 9))
    with pytest.raises(ContractError, match="indefinite"):
        fundamental_weights(SystemParams(3, 10))


POSITIVE_ROOT_SUMS = {
    (2, 4): (0, 2, 4, 6),
    (2, 5): (0, 2, 4, 6, 8),
    (2, 6): (0, 2, 4, 6, 8, 10),
    (2, 7): (0, 2, 4, 6, 8, 10, 12),
    (2, 8): (0, 2, 4, 6, 8, 10, 12, 14),
    (3, 6): (6, 8, 10, 12, 14, 16),
    (3, 7): (15, 17, 19, 21, 23, 25, 27),
    (3, 8): (44, 46, 48, 50, 52, 54, 56, 58),
}


def test_sum_of_positive_roots_frozen():
    for (k, n), expected in POSITIVE_ROOT_SUMS.items():
        assert sum_of_positive_roots(SystemParams(k, n)).x == expected


def test_sum_of_positive_roots_is_twice_weight_sum():
    for p in _finite_systems(10):
        n = p.n
        ws = fundamental_weights(p)
        double = tuple(2 * sum(w.coords[i] for w in ws) for i in range(n))
        assert tuple(map(F, sum_of_positive_roots(p).x)) == double


def test_sum_of_positive_roots_matches_enumeration():
    """The closed form equals the orbit-by-orbit sum on every finite n <= 10."""
    for p in _finite_systems(10):
        assert sum_of_positive_roots(p) == enumerated_sum_of_positive_roots(p), p


@pytest.mark.parametrize("k", [1, 2, 298, 299])
def test_sum_of_positive_roots_pairs_to_two_at_large_n(k):
    """B(2rho, beta) = B(2rho, alpha_j) = 2 at n = 300, through `inner`."""
    p = SystemParams(k, 300)
    total = sum_of_positive_roots(p)
    assert inner(total, beta_vector(p)) == 2
    for j in range(1, p.n):
        assert inner(total, simple_root(p, j)) == 2, j


@pytest.mark.parametrize("k, n", [(3, 9), (4, 8), (3, 10), (4, 10)])
def test_sum_of_positive_roots_rejects_non_finite(k, n):
    """M <= 0 is refused before the division by M."""
    with pytest.raises(ContractError, match="not of finite type"):
        sum_of_positive_roots(SystemParams(k, n))


# --- Manin correspondence ----------------------------------------------------


def test_to_manin_root_rows():
    p = SystemParams(3, 8)
    rows = [
        ((1, 0, 0, 0, 0, 0, 0, -1), 0),
        ((1, 1, 1, 0, 0, 0, 0, 0), 1),
        ((1, 1, 1, 1, 1, 1, 0, 0), 2),
        ((2, 1, 1, 1, 1, 1, 1, 1), 3),
    ]
    for entries, a in rows:
        v = LatticeVector(p, entries)
        mv = to_manin(v)
        assert mv.a == a and mv.b == entries
        neg = to_manin(-v)
        assert neg.a == -a
        assert neg.b == tuple(-c for c in entries)


def test_to_manin_square_is_minus_two_on_roots():
    """a^2 - sum b_i^2 is -q(x): -2 on the roots, and -8 on the non-root
    (2,2,2,0,0,0,0,0), whose q is 8."""
    p = SystemParams(3, 8)
    for entries, square in [
        ((1, 1, 1, 0, 0, 0, 0, 0), -2),
        ((2, 1, 1, 1, 1, 1, 1, 1), -2),
        ((2, 2, 2, 0, 0, 0, 0, 0), -8),
    ]:
        v = LatticeVector(p, entries)
        mv = to_manin(v)
        assert mv.a ** 2 - sum(c * c for c in mv.b) == square == -q(v)


def test_to_manin_rejects_other_systems():
    with pytest.raises(ContractError):
        to_manin(beta_vector(SystemParams(3, 7)))
