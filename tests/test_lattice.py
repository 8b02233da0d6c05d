"""Lattice arithmetic: membership, the form q, and basis conversions."""

from fractions import Fraction

import pytest
from hypothesis import given

import jkn
from jkn import (
    ContractError,
    LatticeVector,
    NotInLatticeError,
    RootCoefficients,
    Series,
    SystemParams,
    beta_vector,
    degree,
    from_root_basis,
    inner,
    q,
    simple_root,
    to_root_basis,
)

from conftest import (
    Index,
    basis_matrix,
    cartan_matrix,
    gram_e_matrix,
    params_and_vector,
    params_strategy,
)


def test_system_params_validation():
    with pytest.raises(ContractError):
        SystemParams(0, 5)
    with pytest.raises(ContractError):
        SystemParams(4, 3)
    assert str(SystemParams(3, 8)) == "J(3,8)"


def test_system_params_admit_what_vectors_admit():
    for p in (SystemParams(True, 3), SystemParams(Index(1), Index(3))):
        assert type(p.k) is int and type(p.n) is int
        assert p == SystemParams(1, 3) and hash(p) == hash(SystemParams(1, 3))
        assert str(p) == "J(1,3)"
    for bad in (3.0, "3", Fraction(3), None):
        for args in ((bad, 8), (3, bad)):
            with pytest.raises(ContractError, match="^k and n must be integers$"):
                SystemParams(*args)
    with pytest.raises(ContractError, match="got k=2, n=1"):
        SystemParams(Index(2), True)


def test_membership_checks():
    p = SystemParams(3, 8)
    with pytest.raises(NotInLatticeError):
        LatticeVector(p, (1,) * 8)  # sum 8, not divisible by 3
    with pytest.raises(ContractError):
        LatticeVector(p, (1, 1, 1))  # wrong length
    v = LatticeVector(p, (2, 1, 1, 1, 1, 1, 1, 1))
    assert degree(v) == 3


@pytest.mark.parametrize("bad", [1.0, "1", Fraction(1), None])
def test_non_integer_coordinates_rejected(bad):
    with pytest.raises(ContractError, match="^coordinates must be integers$"):
        LatticeVector(SystemParams(3, 6), (bad, 1, 1, 0, 0, 0))


def test_bool_coordinates_accepted():
    p = SystemParams(3, 6)
    v = LatticeVector(p, (True, True, True, False, False, False))
    assert v == beta_vector(p)
    assert degree(v) == 1 and q(v) == 2


def test_direct_construction_normalises_entries():
    v = LatticeVector(SystemParams(3, 6), (True, 0, 0, -1, False, 0))
    assert v.as_json_dict()["x"] == [1, 0, 0, -1, 0, 0]


def test_vector_refuses_params_that_are_not_system_params():
    with pytest.raises(ContractError, match="^params must be a SystemParams, got tuple$"):
        LatticeVector((3, 8), (2, 1, 1, 1, 1, 1, 1, 1))


_TUPLE, _P8 = (3, 8), SystemParams(3, 8)
_NOT_PARAMS = "^params must be a SystemParams, got tuple$"
_NOT_VECTOR = "^vector must be a LatticeVector, got tuple$"


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(call, message, id=name)
        for name, call, message in [
            ("enumerate_orbits", lambda: jkn.enumerate_orbits(_TUPLE, 2), _NOT_PARAMS),
            ("count_real_roots", lambda: jkn.count_real_roots(_TUPLE, 0), _NOT_PARAMS),
            (
                "count_almost_real_roots",
                lambda: jkn.count_almost_real_roots(_TUPLE, 4),
                _NOT_PARAMS,
            ),
            (
                "fundamental_weights",
                lambda: jkn.fundamental_weights(_TUPLE),
                _NOT_PARAMS,
            ),
            (
                "sum_of_positive_roots",
                lambda: jkn.sum_of_positive_roots(_TUPLE),
                _NOT_PARAMS,
            ),
            (
                "definiteness_margin",
                lambda: jkn.definiteness_margin(_TUPLE),
                _NOT_PARAMS,
            ),
            ("is_finite_type", lambda: jkn.is_finite_type(_TUPLE), _NOT_PARAMS),
            ("gamma", lambda: jkn.gamma(2, _TUPLE), _NOT_PARAMS),
            ("delta_family", lambda: jkn.delta_family(2, _TUPLE), _NOT_PARAMS),
            (
                "affine_family",
                lambda: jkn.affine_family(Series.A1, 1, 1, _TUPLE),
                _NOT_PARAMS,
            ),
            ("beta_vector", lambda: beta_vector(_TUPLE), _NOT_PARAMS),
            ("simple_root", lambda: simple_root(_TUPLE, 1), _NOT_PARAMS),
            (
                "classify_entries",
                lambda: jkn.classify_entries(_TUPLE, (2,) + (1,) * 7),
                _NOT_PARAMS,
            ),
            (
                "specialize",
                lambda: jkn.enumerate_generic(1)[0].specialize(_TUPLE),
                _NOT_PARAMS,
            ),
            (
                "gamma-float-degree",
                lambda: jkn.gamma(2.5, _P8),
                "^gamma requires an integer degree$",
            ),
            (
                "delta_family-float-degree",
                lambda: jkn.delta_family(2.5, _P8),
                "^delta_family requires an integer degree$",
            ),
            (
                "simple_root-float-index",
                lambda: simple_root(_P8, 1.0),
                "^alpha indices must be integers$",
            ),
            (
                "apply_s_i-float-index",
                lambda: jkn.apply_s_i(1.0, beta_vector(_P8)),
                "^reflection indices must be integers$",
            ),
        ]
    ],
)
def test_entries_refuse_what_is_not_params_or_an_integer(call, message):
    """Each entry refuses params that are not a SystemParams, and a float
    degree or index, with ContractError rather than an AttributeError or
    TypeError from inside."""
    with pytest.raises(ContractError, match=message):
        call()


_E8_ENTRIES = (2, 1, 1, 1, 1, 1, 1, 1)
_E8_ROOT = LatticeVector(_P8, _E8_ENTRIES)

# Each entry that takes a LatticeVector, called with its entries as a tuple
_VECTOR_ENTRIES = {
    "classify": jkn.classify,
    "degree": degree,
    "q": q,
    "inner": lambda x: inner(_E8_ROOT, x),
    "inner-first": lambda x: inner(x, _E8_ROOT),
    "to_root_basis": to_root_basis,
    "minimal_support": jkn.minimal_support,
    "reduce_trace": jkn.reduce_trace,
    "canonical_profile": jkn.canonical_profile,
    "dualize": jkn.dualize,
    "extend": lambda x: jkn.extend(x, True),
    "to_manin": jkn.to_manin,
    "apply_s_i": lambda x: jkn.apply_s_i(1, x),
    "apply_s_beta": jkn.apply_s_beta,
    "dec": jkn.dec,
    "apply_word": lambda x: jkn.apply_word(jkn.parse_word("b,1"), x),
    "apply_word-empty": lambda x: jkn.apply_word(jkn.parse_word(""), x),
}


@pytest.mark.parametrize(
    "call", list(_VECTOR_ENTRIES.values()), ids=list(_VECTOR_ENTRIES)
)
def test_entries_refuse_what_is_not_a_vector(call):
    """Each entry refuses a tuple of entries where it takes a LatticeVector
    with ContractError, rather than an AttributeError from inside or, for
    the empty word, the tuple given back; the vector itself passes."""
    with pytest.raises(ContractError, match=_NOT_VECTOR):
        call(_E8_ENTRIES)
    call(_E8_ROOT)


def test_beta_and_simple_roots():
    p = SystemParams(3, 8)
    b = beta_vector(p)
    assert b.x == (1, 1, 1, 0, 0, 0, 0, 0)
    assert degree(b) == 1 and q(b) == 2
    a1 = simple_root(p, 1)
    assert a1.x == (-1, 1, 0, 0, 0, 0, 0, 0)
    assert degree(a1) == 0 and q(a1) == 2
    with pytest.raises(ContractError):
        simple_root(p, 0)
    with pytest.raises(ContractError):
        simple_root(p, 8)


def test_q_frozen_values():
    p = SystemParams(3, 8)
    assert q(LatticeVector(p, (2, 1, 1, 1, 1, 1, 1, 1))) == 2
    assert q(LatticeVector(p, (3, 3, 3, 0, 0, 0, 0, 0))) == 18
    p4 = SystemParams(4, 10)
    assert q(LatticeVector(p4, (3, 3, 3, 1, 1, 1, 1, 1, 1, 1))) == 2


def test_q_on_affine_null():
    # the (4,8) null vector has q = 0
    p = SystemParams(4, 8)
    assert q(LatticeVector(p, (1,) * 8)) == 0


def test_cartan_matrix_d4():
    # branch node attached to the middle of a 3-chain
    c = cartan_matrix(SystemParams(2, 4))
    assert c == (
        (2, 0, -1, 0),
        (0, 2, -1, 0),
        (-1, -1, 2, -1),
        (0, 0, -1, 2),
    )


def test_cartan_matches_inner_products():
    """The inner products of (beta, alpha_1, ...) form the generalized Cartan
    matrix of the T-shaped diagram: square, symmetric, diagonal 2,
    off-diagonal 0 or -1, with beta joined to alpha_k and alpha_i to
    alpha_{i+1} only."""
    for n in range(2, 13):
        for k in range(1, n + 1):
            c = cartan_matrix(SystemParams(k, n))
            assert len(c) == n and all(len(row) == n for row in c)
            for i in range(n):
                assert c[i][i] == 2
                for j in range(n):
                    assert c[i][j] == c[j][i]
                    if i != j:
                        assert c[i][j] in (0, -1)
                        joined = abs(i - j) == 1 if i and j else i + j == k
                        assert (c[i][j] == -1) == joined, (k, n, i, j)


def test_gram_e_matrix_reproduces_q():
    p = SystemParams(3, 6)
    g = gram_e_matrix(p)
    v = LatticeVector(p, (2, 1, 1, 1, 1, 0))
    expect = sum(
        g[i][j] * v.x[i] * v.x[j] for i in range(p.n) for j in range(p.n)
    )
    assert expect == Fraction(q(v))


def test_basis_matrix_columns_are_basis_vectors():
    p = SystemParams(3, 7)
    m = basis_matrix(p)
    basis = [beta_vector(p)] + [simple_root(p, i) for i in range(1, p.n)]
    for j, b in enumerate(basis):
        assert tuple(m[i][j] for i in range(p.n)) == b.x


def test_root_basis_frozen_example():
    p = SystemParams(3, 8)
    coeffs = to_root_basis(LatticeVector(p, (2, 1, 1, 1, 1, 1, 1, 1)))
    assert coeffs.m_beta == 3
    assert coeffs.m == (1, 3, 5, 4, 3, 2, 1)
    back = from_root_basis(coeffs)
    assert back.x == (2, 1, 1, 1, 1, 1, 1, 1)


def test_root_coefficients_validation():
    p = SystemParams(3, 8)
    with pytest.raises(ContractError):
        RootCoefficients(p, 1, (0,) * 3)


def test_root_coefficients_refuse_params_that_are_not_system_params():
    with pytest.raises(ContractError, match="^params must be a SystemParams, got tuple$"):
        RootCoefficients((3, 8), 1, (0,) * 7)


def test_root_coefficients_admit_what_vectors_admit():
    p = SystemParams(3, 8)
    c = RootCoefficients(p, True, [Index(2), 3, 4, 5, 6, 4, False])
    assert type(c.m_beta) is int and type(c.m) is tuple
    assert all(type(m) is int for m in c.m)
    assert c == RootCoefficients(p, 1, (2, 3, 4, 5, 6, 4, 0))
    assert c.as_json_dict()["m_beta"] == 1
    for m_beta, m in (
        (1.5, [0.5] * 7),
        (True, (1, 2, 3, 4, 5, 6, "7")),
        (1, (1, 2, 3, 4, 5, 6, 7.0)),
        (None, (0,) * 7),
        (Fraction(1), (0,) * 7),
        (1, 7),
    ):
        with pytest.raises(ContractError, match="^root coefficients must be integers$"):
            RootCoefficients(p, m_beta, m)


@given(params_and_vector())
def test_round_trip(pv):
    """e-coordinates -> root basis -> e-coordinates is the identity."""
    _, v = pv
    assert from_root_basis(to_root_basis(v)) == v


@given(params_and_vector())
def test_q_is_inner_with_self(pv):
    _, v = pv
    assert q(v) == inner(v, v)


@given(params_and_vector())
def test_inner_symmetric_and_bilinear(pv):
    p, v = pv
    w = LatticeVector(p, tuple(reversed(v.x)))
    assert inner(v, w) == inner(w, v)
    assert inner(v + w, v) == inner(v, v) + inner(w, v)


@given(params_and_vector())
def test_vector_arithmetic(pv):
    _, v = pv
    assert (v + (-v)).x == (0,) * v.params.n
    assert (v - v).x == (0,) * v.params.n


def test_inner_rejects_mixed_systems():
    u = beta_vector(SystemParams(3, 6))
    w = beta_vector(SystemParams(3, 7))
    with pytest.raises(ContractError):
        inner(u, w)


def test_as_json_dict():
    v = beta_vector(SystemParams(3, 6))
    assert v.as_json_dict() == {"k": 3, "n": 6, "x": [1, 1, 1, 0, 0, 0]}
