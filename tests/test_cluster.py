"""Profiles: the filtration encoding and its canonical form."""

import itertools

import pytest

from jkn import (
    ContractError,
    LatticeVector,
    Profile,
    SystemParams,
    canonical_profile,
    cyclic_permutations,
    is_canonical,
    is_weakly_column_decreasing,
    phi,
)

from conftest import Index


def test_canonical_profile_frozen():
    v = LatticeVector(SystemParams(3, 8), (2, 1, 1, 1, 1, 1, 1, 1))
    p = canonical_profile(v)
    assert p.rows == ((2, 5, 8), (1, 4, 7), (1, 3, 6))
    assert p.plain_str() == "258|147|136"
    assert is_canonical(p)
    assert phi(p) == v


def test_degree_two_frozen():
    v = LatticeVector(SystemParams(3, 6), (1, 1, 1, 1, 1, 1))
    p = canonical_profile(v)
    assert p.plain_str() == "246|135"
    assert is_canonical(p)
    assert phi(p) == v


def test_cyclic_permutations_frozen():
    v = LatticeVector(SystemParams(3, 8), (2, 1, 1, 1, 1, 1, 1, 1))
    rots = cyclic_permutations(canonical_profile(v))
    assert [r.plain_str() for r in rots] == [
        "258|147|136",
        "147|136|258",
        "136|258|147",
    ]
    # rotation preserves the underlying vector
    for r in rots:
        assert phi(r) == v


def test_plain_str_uses_commas_for_wide_systems():
    v = LatticeVector(SystemParams(3, 12), (1,) * 3 + (0,) * 9)
    assert canonical_profile(v).plain_str() == "1,2,3"


def test_profile_validation():
    p = SystemParams(3, 8)
    with pytest.raises(ContractError):
        Profile(p, ((1, 2),))  # row too short
    with pytest.raises(ContractError):
        Profile(p, ((1, 2, 9),))  # out of range
    with pytest.raises(ContractError):
        Profile(p, ((3, 2, 1),))  # not increasing
    with pytest.raises(ContractError):
        Profile(p, ())
    for rows in (((1.5, 2, 3),), (("1", "2", "3"),), ((1, 2, None),), ((1, 2, 3), 4), 5):
        with pytest.raises(ContractError, match="^profile entries must be integers$"):
            Profile(p, rows)


def test_profile_refuses_params_that_are_not_system_params():
    with pytest.raises(ContractError, match="^params must be a SystemParams, got tuple$"):
        Profile((3, 8), ((1, 2, 3),))


def test_profile_entries_are_admitted_as_vector_entries_are():
    p = SystemParams(3, 8)
    prof = Profile(p, [[True, Index(4), 7], (2, 5, 8)])
    assert prof.rows == ((1, 4, 7), (2, 5, 8))
    assert all(type(e) is int for row in prof.rows for e in row)
    assert prof == Profile(p, ((1, 4, 7), (2, 5, 8)))
    assert phi(prof) == LatticeVector(p, (1, 1, 0, 1, 1, 0, 1, 1))


def test_not_canonical_when_columns_increase():
    p = Profile(SystemParams(3, 8), ((1, 4, 7), (2, 5, 8)))
    assert not is_weakly_column_decreasing(p)
    assert not is_canonical(p)


def test_wrap_condition_detects_bad_bottom():
    # columns weakly decrease but the wrap-around comparison fails
    p = Profile(SystemParams(3, 8), ((4, 5, 6), (1, 2, 3)))
    assert is_weakly_column_decreasing(p)
    assert not is_canonical(p)


def test_round_trip_small_exhaustive():
    k, n = 3, 6
    p = SystemParams(k, n)
    for d in (1, 2):
        for t in itertools.product(range(d + 1), repeat=n):
            if sum(t) != k * d:
                continue
            v = LatticeVector(p, t)
            prof = canonical_profile(v)
            assert phi(prof) == v
            assert is_canonical(prof)


def test_canonical_profile_preconditions():
    p = SystemParams(3, 6)
    with pytest.raises(ContractError):
        canonical_profile(LatticeVector(p, (1, 0, 0, -1, 0, 0)))
    with pytest.raises(ContractError):
        canonical_profile(LatticeVector(p, (4, -1, 0, 0, 0, 0)))


def test_rank_and_json():
    v = LatticeVector(SystemParams(3, 8), (2, 1, 1, 1, 1, 1, 1, 1))
    prof = canonical_profile(v)
    assert prof.rank == 3
    assert prof.as_json_dict() == {
        "rows": [[2, 5, 8], [1, 4, 7], [1, 3, 6]]
    }
