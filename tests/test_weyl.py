"""Reflection action, sorting, and word handling."""

import pytest
from hypothesis import given, strategies as st

from jkn import (
    ContractError,
    LatticeVector,
    SystemParams,
    WeylWord,
    apply_s_beta,
    apply_s_i,
    apply_word,
    beta_vector,
    dec,
    format_word,
    parse_word,
    q,
)

from conftest import Index, params_and_vector


@st.composite
def vector_and_word(draw, max_len=50):
    params, v = draw(params_and_vector(min_k=1, max_k=5, max_n=9))
    letters = draw(
        st.lists(
            st.one_of(st.just("b"), st.integers(1, params.n - 1)),
            max_size=max_len,
        )
    )
    return v, WeylWord(letters)


def test_s_beta_frozen():
    p = SystemParams(3, 6)
    b = beta_vector(p)
    assert apply_s_beta(b).x == (-1, -1, -1, 0, 0, 0)
    v = LatticeVector(SystemParams(4, 10), (3, 3, 3, 1, 1, 1, 1, 1, 1, 1))
    assert apply_s_beta(v).x == (1, 1, 1, -1, 1, 1, 1, 1, 1, 1)


def test_s_i_swaps():
    p = SystemParams(3, 6)
    v = LatticeVector(p, (2, 1, 0, 0, 0, 0))
    assert apply_s_i(1, v).x == (1, 2, 0, 0, 0, 0)
    with pytest.raises(ContractError):
        apply_s_i(6, v)
    with pytest.raises(ContractError):
        apply_s_i(0, v)


def test_dec_sorts():
    p = SystemParams(3, 6)
    v = LatticeVector(p, (0, 2, 1, 0, -1, 1))
    assert dec(v).x == (2, 1, 1, 0, 0, -1)


def test_word_round_trip():
    w = parse_word("b,3,b,1")
    assert format_word(w) == "b,3,b,1"
    assert parse_word("").letters == ()
    with pytest.raises(ContractError):
        parse_word("b,x")
    # an index below 1 is refused by the WeylWord constructor alone
    for token in ("0", "-2"):
        with pytest.raises(ContractError, match=f"bad word letter {token}$"):
            parse_word(f"b,{token}")


def test_word_letters_are_admitted_as_vector_entries_are():
    # through operator.index, stored as ints, so the text round-trips
    w = WeylWord((Index(3), "b", True))
    assert w.letters == (3, "b", 1)
    assert all(type(ell) is int for ell in w.letters if ell != "b")
    assert format_word(w) == "3,b,1"
    assert parse_word(format_word(w)) == w
    p = SystemParams(3, 6)
    v = beta_vector(p)
    assert apply_word(w, v) == apply_word(parse_word("3,b,1"), v)
    for bad in (Index(0), False, 1.0, "3", "c", None):
        with pytest.raises(ContractError, match="bad word letter"):
            WeylWord((bad,))


def test_word_refuses_a_non_iterable():
    with pytest.raises(ContractError, match="^a word is a sequence of letters, got int$"):
        WeylWord(5)


def test_word_applies_first_letter_first():
    # s_beta then s_1 on beta in J(3,6)
    p = SystemParams(3, 6)
    v = apply_word(parse_word("b,1"), beta_vector(p))
    assert v.x == (-1, -1, -1, 0, 0, 0)


@given(params_and_vector())
def test_adjacent_swap_involution(pv):
    params, v = pv
    if params.n < 2:
        return
    assert apply_s_i(1, apply_s_i(1, v)) == v


@given(params_and_vector())
def test_s_beta_involution(pv):
    _, v = pv
    assert apply_s_beta(apply_s_beta(v)) == v


@given(vector_and_word())
def test_q_invariant_under_words(vw):
    """Reflections preserve the quadratic form."""
    v, w = vw
    assert q(apply_word(w, v)) == q(v)


@given(params_and_vector(min_k=2, max_k=5))
def test_braid_relations(pv):
    """The defining relations hold pointwise.

    Adjacent transpositions braid, distant ones commute, and s_beta
    commutes with every s_i except i = k, where it braids.
    """
    params, v = pv
    k, n = params.k, params.n
    for i in range(1, n - 1):
        lhs = apply_s_i(i, apply_s_i(i + 1, apply_s_i(i, v)))
        rhs = apply_s_i(i + 1, apply_s_i(i, apply_s_i(i + 1, v)))
        assert lhs == rhs
    for i in range(1, n - 2):
        for j in range(i + 2, n):
            assert apply_s_i(i, apply_s_i(j, v)) == apply_s_i(j, apply_s_i(i, v))
    for i in range(1, n):
        if i == k:
            continue
        assert apply_s_beta(apply_s_i(i, v)) == apply_s_i(i, apply_s_beta(v))
    if 1 <= k <= n - 1:
        lhs = apply_s_beta(apply_s_i(k, apply_s_beta(v)))
        rhs = apply_s_i(k, apply_s_beta(apply_s_i(k, v)))
        assert lhs == rhs


@given(params_and_vector())
def test_dec_is_idempotent_permutation(pv):
    _, v = pv
    d = dec(v)
    assert sorted(d.x) == sorted(v.x)
    assert dec(d) == d
    assert all(d.x[i] >= d.x[i + 1] for i in range(len(d.x) - 1))
