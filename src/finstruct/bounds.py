"""Exact integer evaluation of the spot-counting threshold condition.

Everything here is plain Python integer arithmetic; no floating point.
The condition compares the number of canonical blow-up embeddings (spots)
against a threshold built from the number of their r-element restrictions
(partial spots) and the count of atomic tuple types available to an
expanded signature.
"""

from __future__ import annotations

import sys
from math import comb, inf, lgamma, log, log2
from typing import Optional

from .core import BudgetExceeded, StructureError


def bell_number(n: int) -> int:
    """Bell number via the Bell triangle."""
    if n < 0:
        raise StructureError("Bell numbers need n >= 0")
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for value in row:
            nxt.append(nxt[-1] + value)
        row = nxt
    return row[0]


def atomic_type_count(t: int, r: int) -> int:
    """Upper bound on atomic types of (r+1)-tuples for t predicates of arity <= r.

    Counted as equality patterns on r+1 coordinates (Bell(r+1)) times the
    subsets of coordinate-index tuples for t predicates at the maximizing
    arity r: Bell(r+1) * 2^(t*(r+1)^r).  Counting the equality types makes
    the bound larger, which only strengthens the condition, never weakens a
    positive verdict.
    """
    if t < 0:
        raise StructureError("predicate count must be >= 0")
    if r < 1:
        raise StructureError("arity bound must be >= 1")
    return bell_number(r + 1) * 2 ** (t * (r + 1) ** r)


# bits one report integer, or the Bell triangle, may take (32 MiB), checked
# from the parameters before any Bell number or power is built: (n, r, t) =
# (10, 7, 1) plans 252 million bits for the threshold and peaks at 121 MiB
BITS_LIMIT = 1 << 28


def _check_bits(params: BoundsParams) -> None:
    """Refuse parameters whose threshold, Bell triangle or m^n passes ``BITS_LIMIT``.

    Bell(r+1) <= (r+1)^(r+1), so log2 q <= t*(r+1)^r + (r+1)*log2(r+1).
    q^C(n,r), the threshold's largest term, has at most C(n,r) times that
    many bits, the r+2 numbers of the Bell triangle together r+2 times, and
    m^n n*log2(m).  Floats estimate them, in logarithms where they overflow.
    """
    n, r, t = params.n, params.r, params.t
    log_comb = (lgamma(n + 1) - lgamma(r + 1) - lgamma(n - r + 1)) / log(2)
    terms = (log2(t) + r * log2(r + 1) if t else -inf, log2((r + 1) * log2(r + 1)))
    log_q_bits = max(terms) + log2(1 + 2 ** (min(terms) - max(terms)))
    log_bits = max(log_comb, log2(r + 2)) + log_q_bits
    if log_bits > log2(BITS_LIMIT) or n * log2(params.m) > BITS_LIMIT:
        raise BudgetExceeded(f"the threshold condition needs integers over {BITS_LIMIT} bits")


def _print_limit() -> int:
    """Most decimal digits ``str`` of an int may print; 0 for no limit."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


def _q_bits_floor(r: int, t: int) -> float:
    """A lower bound on log2 q, from floats, where q = Bell(r+1) * 2^(t*(r+1)^r).

    Bell(r+1) counts the partitions of r+1 points, at least S(r+1, k) of
    them for each k, and S(r+1, k) >= k^(r+1-k): put the first k points in
    their own blocks and each other point in any one of them.  So log2 q
    >= t*(r+1)^r + max_k (r+1-k)*log2(k).  That is concave in k, so the
    steps before its peak rise and the rest do not: the peak is the first
    k whose next step does not rise, found by bisection.  A first term
    too large for a float is infinite.  The floats may round the bound up
    by a few units in the last place; callers leave a margin for that.
    """
    n = r + 1

    def f(k: int) -> float:
        return (n - k) * log2(k)

    lo, hi = 1, n
    while lo < hi:
        mid = (lo + hi) // 2
        if f(mid + 1) > f(mid):
            lo = mid + 1
        else:
            hi = mid
    if not t:
        return f(lo)
    log_first = log2(t) + r * log2(n)
    return inf if log_first > 1000 else 2**log_first + f(lo)


def check_printable(params: BoundsParams) -> None:
    """Refuse, from the parameters alone, a q too long for ``str`` to print.

    ``BoundsReport.to_dict`` refuses q once q >= 10^limit, after the Bell
    triangle behind q is built; here a lower bound on log2 q over
    limit*log2(10), by a margin of one bit that covers the float rounding,
    refuses it first, with the same message.  Only a report that is to be
    printed needs this, so ``condition_holds`` and ``minimal_m`` do not
    check it.
    """
    limit = _print_limit()
    if limit and _q_bits_floor(params.r, params.t) > limit * log2(10) + 1:
        raise BudgetExceeded(f"q has over {limit} digits, too many to print")


def log_ceil2(q: int) -> int:
    """Smallest p with 2^p >= q."""
    if q < 1:
        raise StructureError("log_ceil2 needs q >= 1")
    return (q - 1).bit_length()


class BoundsParams:
    """Threshold-condition parameters: arity bound, predicate count, |A|, multiplicity."""

    __slots__ = ("r", "t", "n", "m")

    def __init__(self, r: int, t: int, n: int, m: int):
        for label, value in (("r", r), ("n", n), ("m", m)):
            if value < 1:
                raise StructureError(f"{label} must be >= 1")
        if t < 0:
            raise StructureError("t must be >= 0")
        if r > n:
            raise StructureError("restriction arity exceeds the base order")
        # n, r or t over BITS_LIMIT may overflow a float, so it is refused
        # here, before any float math; ``_check_bits`` would refuse it too:
        # q has over t bits, q^C(n,r) over n bits for r < n (C(n,r) >= n,
        # q >= 2), the Bell triangle over n numbers for r = n, and r <= n
        if max(n, r, t) > BITS_LIMIT:
            raise BudgetExceeded(f"the threshold condition needs integers over {BITS_LIMIT} bits")
        self.r = r
        self.t = t
        self.n = n
        self.m = m


class BoundsReport:
    """Exact values entering the threshold condition and its verdict.

    ``spot_count`` is m^n, ``partial_spot_count`` the exact deduplicated
    restriction count C(n,r)*m^r; ``proof_partial_spot_count`` records the
    coarser m^r figure for comparison.  The verdict is
    spot_count > p*partial_spot_count + q^C(n,r).
    """

    __slots__ = (
        "params",
        "q",
        "p",
        "spot_count",
        "partial_spot_count",
        "proof_partial_spot_count",
        "threshold",
        "verdict",
    )

    def __init__(self, params: BoundsParams):
        _check_bits(params)
        self.params = params
        self.q = atomic_type_count(params.t, params.r)
        self.p = log_ceil2(self.q)
        self.spot_count = params.m**params.n
        self.partial_spot_count = comb(params.n, params.r) * params.m**params.r
        self.proof_partial_spot_count = params.m**params.r
        self.threshold = self.p * self.partial_spot_count + self.q ** comb(params.n, params.r)
        self.verdict = self.spot_count > self.threshold

    def to_dict(self) -> dict:
        doc = {
            "r": self.params.r,
            "t": self.params.t,
            "n": self.params.n,
            "m": self.params.m,
            "include_equalities": True,
            "p": self.p,
            "verdict": self.verdict,
        }
        # refuse what ``str`` may not print (0: no limit); 2^(3 x limit) is
        # below 10^limit, so a value of at most 3 x limit bits prints
        limit = _print_limit()
        for name in "q spot_count partial_spot_count proof_partial_spot_count threshold".split():
            value = getattr(self, name)
            if limit and value.bit_length() > 3 * limit and value >= 10**limit:
                raise BudgetExceeded(f"{name} has over {limit} digits, too many to print")
            doc[name] = str(value)
        return doc


def condition_holds(params: BoundsParams) -> BoundsReport:
    """Evaluate the threshold condition exactly."""
    return BoundsReport(params)


def minimal_m(n: int, r: int, t: int, cap: int) -> Optional[int]:
    """Least multiplicity m <= cap satisfying the condition, or None.

    The verdict switches once in m, from false to true, so one bisection
    over [1, cap] is exact.  Write C = C(n,r) and g(m) = m^n - p*C*m^r, so
    the verdict is g(m) > q^C.  At m = 1 it is false: g(1) <= 1 < 2 <= q^C,
    as q >= Bell(2) = 2.  Since r < n, g(m) = m^r * (m^(n-r) - p*C): while
    m^(n-r) <= p*C the gap is at most 0 and the verdict false, and from
    there on both factors are positive and increase with m.  So the gap
    is at most 0 until it rises for good, and a true verdict at m stays
    true above m.
    """
    if r >= n:
        raise StructureError("needs r < n")
    if cap < 1:
        return None

    def holds(m: int) -> bool:
        return condition_holds(BoundsParams(r, t, n, m)).verdict

    if not holds(cap):
        return None
    lo, hi = 1, cap
    while lo < hi:
        mid = (lo + hi) // 2
        if holds(mid):
            hi = mid
        else:
            lo = mid + 1
    return hi
