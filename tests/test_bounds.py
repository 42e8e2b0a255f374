"""Exact threshold arithmetic, pinned against hand-verified integer values."""

from __future__ import annotations

import sys
from math import log2

import pytest

from finstruct.bounds import (
    BITS_LIMIT,
    BoundsParams,
    _check_bits,
    _q_bits_floor,
    atomic_type_count,
    bell_number,
    check_printable,
    condition_holds,
    log_ceil2,
    minimal_m,
)
from finstruct.core import BudgetExceeded, StructureError


def test_bell_numbers():
    assert [bell_number(i) for i in range(7)] == [1, 1, 2, 5, 15, 52, 203]


def test_atomic_type_count():
    assert atomic_type_count(0, 1) == 2
    assert atomic_type_count(1, 1) == 8
    assert atomic_type_count(2, 2) == 5 * 2**18
    with pytest.raises(StructureError):
        atomic_type_count(-1, 1)
    with pytest.raises(StructureError):
        atomic_type_count(0, 0)


def test_log_ceil2():
    assert log_ceil2(1) == 0
    assert log_ceil2(8) == 3
    assert log_ceil2(5 * 2**45) == 48
    assert log_ceil2(9) == 4
    with pytest.raises(StructureError):
        log_ceil2(0)


def test_condition_holds_pinned_cases():
    report = condition_holds(BoundsParams(1, 1, 2, 12))
    assert (report.q, report.p) == (8, 3)
    assert report.spot_count == 144
    assert report.partial_spot_count == 24
    assert report.proof_partial_spot_count == 12
    assert report.threshold == 72 + 64
    assert report.verdict

    report = condition_holds(BoundsParams(1, 1, 2, 11))
    assert report.spot_count == 121
    assert report.threshold == 66 + 64
    assert not report.verdict

    report = condition_holds(BoundsParams(1, 0, 1, 3))
    assert (report.q, report.p) == (2, 1)
    assert report.spot_count == 3
    assert report.partial_spot_count == 3
    assert report.threshold == 3 + 2
    assert not report.verdict

    with pytest.raises(StructureError):
        condition_holds(BoundsParams(3, 0, 2, 2))


def test_minimal_m():
    assert minimal_m(2, 1, 1, cap=10**6) == 12
    assert minimal_m(2, 1, 0, cap=10**6) == 4
    m = minimal_m(3, 1, 1, cap=10**9)
    assert m is not None
    assert condition_holds(BoundsParams(1, 1, 3, m)).verdict
    assert not condition_holds(BoundsParams(1, 1, 3, m - 1)).verdict
    assert minimal_m(2, 1, 1, cap=11) is None
    assert minimal_m(2, 1, 1, cap=12) == 12
    with pytest.raises(StructureError):
        minimal_m(2, 2, 0, cap=100)


def test_upward_closure_of_verdicts():
    for n, r, t in ((2, 1, 1), (3, 1, 0), (3, 2, 1)):
        first = minimal_m(n, r, t, cap=10**7)
        assert first is not None
        for m in range(first, first + 5):
            assert condition_holds(BoundsParams(r, t, n, m)).verdict
        for m in range(max(1, first - 4), first):
            assert not condition_holds(BoundsParams(r, t, n, m)).verdict


def test_everything_is_exact_int():
    report = condition_holds(BoundsParams(2, 2, 40, 1000))
    for value in (report.q, report.spot_count, report.threshold):
        assert isinstance(value, int)
    assert report.spot_count == 1000**40


def unchecked_params(r: int, t: int, n: int, m: int) -> BoundsParams:
    """Parameters set without ``BoundsParams``' checks."""
    params = BoundsParams.__new__(BoundsParams)
    params.r, params.t, params.n, params.m = r, t, n, m
    return params


def test_params_over_bits_limit_are_refused_as_check_bits_would():
    # each of n, r and t just over BITS_LIMIT, and far past a float's range
    big = 10**400
    over = BITS_LIMIT + 1
    message = f"the threshold condition needs integers over {BITS_LIMIT} bits"
    cases = [(1, 1, over), (over, 1, over), (1, over, 2), (2, 0, over)]
    for r, t, n in cases + [(1, 1, big), (big, 1, big), (1, big, 2)]:
        with pytest.raises(BudgetExceeded, match=message):
            BoundsParams(r, t, n, 2)
        if max(r, t, n) == over:
            with pytest.raises(BudgetExceeded, match=message):
                _check_bits(unchecked_params(r, t, n, 2))
    with pytest.raises(BudgetExceeded, match=message):
        minimal_m(big, 1, 1, cap=10**6)
    BoundsParams(BITS_LIMIT, BITS_LIMIT, BITS_LIMIT, 2)  # the limit itself passes here


def test_q_bits_floor_is_a_lower_bound():
    # log2 q = t*(r+1)^r + log2 Bell(r+1); the floor is a float, so it may
    # round above an exact lower bound by a few units in the last place
    for r in range(1, 61):
        for t in range(3):
            exact = t * (r + 1) ** r + log2(bell_number(r + 1))
            assert _q_bits_floor(r, t) <= exact * (1 + 1e-12)
    assert _q_bits_floor(4000, 0) > 30_000  # Bell(4001) has about 31,800 bits


def printed_or_refused(refuse, params: BoundsParams) -> str:
    """The printed report's q, or the message of its refusal."""
    try:
        refuse(params)
        return condition_holds(params).to_dict()["q"]
    except BudgetExceeded as refusal:
        return str(refusal)


@pytest.mark.parametrize("limit", [640, 4300])
def test_check_printable_never_refuses_what_to_dict_prints(monkeypatch, limit):
    # (r, t) runs past the printing limit of q, both in t (r = 5: 6^5 bits
    # per predicate) and in r alone: at t = 0, q = Bell(r+1) passes 640
    # digits from r = 397 on, and the check refuses it from r = 416 on.
    # Before Python 3.11 ``str`` has no limit, and the bounds read none.
    monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: limit, raising=False)
    cases = [(r, t) for r in range(1, 7) for t in range(4)] + [(r, 0) for r in (396, 397, 415, 416)]
    refused = 0
    for r, t in cases:
        params = BoundsParams(r, t, r, 1)
        early = printed_or_refused(check_printable, params)
        late = printed_or_refused(lambda _: None, params)
        if early == f"q has over {limit} digits, too many to print":
            refused += 1
            assert late == early
        else:
            assert early == late  # the check refused nothing else
    assert refused
