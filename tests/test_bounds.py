"""Exact threshold arithmetic, pinned against hand-verified integer values."""

from __future__ import annotations

import pytest

from finstruct.bounds import (
    BoundsParams,
    atomic_type_count,
    bell_number,
    condition_holds,
    log_ceil2,
    minimal_m,
)
from finstruct.core import StructureError


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
