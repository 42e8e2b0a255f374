"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines with timings.  Expected values are either pinned small-instance facts
or computed by the independent oracles in oracles.py.
"""

from __future__ import annotations

import os
import time
from itertools import product

from oracles import all_homomorphisms, game_consistent, marking_solution_count

from finstruct import bounds as bounds_mod
from finstruct import cli, consistency
from finstruct.core import ElementMap, Structure, pullback
from finstruct.families import (
    AbelianGroup,
    Coloring,
    FnFamily,
    GFamily,
    P_SIGNATURE,
    PnFamily,
    TreeShape,
    build_JC,
    build_template,
    diagram_Fn,
    diagram_G,
    diagram_lineq,
    gen_Fn,
    gen_G,
    gen_Pn,
    marking,
    template_signature,
    tree_instance,
)
from finstruct.morphisms import canonical_embeddings, enumerate_homomorphisms, find_homomorphism
from finstruct.rng import SplitMix64
from finstruct.verifier import (
    ExpansionSpec,
    antichain,
    check_confusion,
    collision_search,
    forbh_oracle,
    homogenization_probe,
    random_expansion,
    witnesses_failure,
)

JOBS = os.cpu_count() or 1
Z2 = AbelianGroup([2])
T2 = build_template(Z2)


def report(number: int, elapsed: float, detail: str) -> None:
    print(f"ACCEPTANCE {number:2d} PASS ({elapsed:7.2f}s): {detail}")


def test_criterion_01_amalgamation_failure_fn():
    oracle = forbh_oracle(FnFamily())
    details = []
    for n in (3, 4, 5):
        start = time.monotonic()
        d = diagram_Fn(n)
        assert witnesses_failure(d, oracle)
        free = d.free_amalgam().amalgam
        assert find_homomorphism(gen_Fn(n), free) is not None
        elapsed = time.monotonic() - start
        assert elapsed < 1.0
        details.append(f"n={n} {elapsed:.2f}s")
    report(1, 0.0, "witnesses_failure + F_n maps into free amalgam: " + ", ".join(details))


def test_criterion_02_confusion_fn():
    oracle = forbh_oracle(FnFamily())
    start = time.monotonic()
    small = check_confusion(diagram_Fn(3), 2, oracle, jobs=JOBS)
    small_time = time.monotonic() - start
    assert small.colorings_tested == 256
    assert small.verdict and not small.failures
    assert small_time < 10.0

    start = time.monotonic()
    big = check_confusion(diagram_Fn(4), 2, oracle, jobs=JOBS)
    big_time = time.monotonic() - start
    assert big.colorings_tested == 65536
    assert big.verdict and not big.failures
    assert big_time < 300.0
    report(2, small_time + big_time,
           f"F_3: 256 colorings {small_time:.1f}s; F_4: 65536 colorings {big_time:.1f}s, zero failures")


def test_criterion_03_confusion_g():
    shape = TreeShape.parse("((..)(..))")
    d = diagram_G(shape)
    oracle = forbh_oracle(GFamily())
    start = time.monotonic()
    rep = check_confusion(d, 2, oracle, jobs=JOBS)
    elapsed = time.monotonic() - start
    assert rep.colorings_tested == 65536
    assert rep.verdict and not rep.failures
    assert elapsed < 600.0
    report(3, elapsed, f"balanced 4-leaf tree: 65536 colorings, zero failures")


def test_criterion_04_antichains():
    start = time.monotonic()
    assert antichain([gen_Fn(n) for n in (3, 4, 5, 6)])
    shapes = TreeShape.all_shapes(4)
    assert len(shapes) == 5
    assert antichain([gen_G(s) for s in shapes])
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    report(4, elapsed, "F_3..F_6 and all five 4-leaf tree structures pairwise hom-free")


def test_criterion_05_amalgam_inconsistency():
    times = []
    for n in (2, 4, 8):
        amalgam = diagram_lineq(n, Z2).free_amalgam().amalgam
        start = time.monotonic()
        assert not consistency.is_consistent(amalgam, T2, 2, 3)
        elapsed = time.monotonic() - start
        if n == 8:
            assert len(amalgam.domain) == 36
            assert elapsed < 60.0
        times.append(f"Z2 n={n} {elapsed:.2f}s")
    for n in (2, 4):
        amalgam = diagram_lineq(n, Z2).free_amalgam().amalgam
        trace = consistency.spoiler_trace(amalgam, T2, 2, 3)
        assert trace is not None
        assert consistency.validate_trace(trace, amalgam, T2, 2, 3)
    for orders in ([3], [2, 2]):
        group = AbelianGroup(orders)
        template = build_template(group)
        for n in (2, 4):
            amalgam = diagram_lineq(n, group).free_amalgam().amalgam
            start = time.monotonic()
            assert not consistency.is_consistent(amalgam, template, 2, 3)
            times.append(f"{group!r} n={n} {time.monotonic() - start:.2f}s")
    report(5, 0.0, "all amalgams inconsistent, traces validated: " + ", ".join(times))


def test_criterion_06_solvability_implies_consistency():
    start = time.monotonic()
    checked = 0
    for orders in ([2], [3]):
        group = AbelianGroup(orders)
        template = build_template(group)
        for n in (2, 4):
            inst = tree_instance(n)
            for a in group.elements():
                marked = marking(inst, a, group)
                count = len(enumerate_homomorphisms(marked, template))
                assert count == marking_solution_count(n, group, a)
                assert count == group.order ** (n - 1)
                assert consistency.is_consistent(marked, template, 2, 3)
                checked += 1
    elapsed = time.monotonic() - start
    report(6, elapsed, f"{checked} markings: solution count |G|^(n-1), all (2,3)-consistent")


def _lineq2_system_solvable(encoding: int) -> bool:
    """Brute force over the four blow-up leaf values for the 2x2 system."""
    # spot with index i in the lexicographic order picks rows (f(a1), f(a2));
    # its marking is 0 for side L and 1 for side R (bit of the encoding)
    for x0, x1, y0, y1 in product((0, 1), repeat=4):
        x = (x0, x1)
        y = (y0, y1)
        ok = True
        for spot_index, (i, j) in enumerate(product((0, 1), repeat=2)):
            marking_value = (encoding >> spot_index) & 1
            if (x[i] + y[j]) % 2 != marking_value:
                ok = False
                break
        if ok:
            return True
    return False


def test_criterion_07_reduced_scale_jc():
    start = time.monotonic()
    d = diagram_lineq(2, Z2)
    spots = canonical_embeddings(d.base, 2).members
    recorded = []
    for enc in range(16):
        coloring = Coloring.from_encoding(spots, enc)
        glued = build_JC(d, 2, coloring)
        solvable = find_homomorphism(glued, T2) is not None
        assert solvable == _lineq2_system_solvable(enc)
        parity_even = bin(enc).count("1") % 2 == 0
        assert solvable == parity_even
        consistent = consistency.is_consistent(glued, T2, 2, 3)
        if parity_even:
            assert consistent  # solvable, hence consistent
        else:
            recorded.append((enc, consistent))  # no asserted expectation
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    odd_outcomes = {c for _, c in recorded}
    report(7, elapsed,
           f"even-parity colorings solvable+consistent; odd-parity consistency outcomes {sorted(odd_outcomes)} recorded")


def test_criterion_08_bounds_cli(capsys):
    start = time.monotonic()
    code = cli.main(["bounds", "--n", "2", "--r", "1", "--t", "1", "--find-m"])
    out = capsys.readouterr().out
    assert code == 0
    import json

    doc = json.loads(out)
    assert doc["minimal_m"] == "12"
    assert doc["report"]["q"] == "8"
    assert doc["report"]["p"] == 3
    assert bounds_mod.condition_holds(bounds_mod.BoundsParams(1, 1, 2, 12)).verdict
    assert not bounds_mod.condition_holds(bounds_mod.BoundsParams(1, 1, 2, 11)).verdict
    # independent re-evaluation of the inequality with raw integers
    q = 2 * 2 ** (1 * 2 ** 1)  # equality patterns on pairs times unary subsets
    p = (q - 1).bit_length()
    assert (q, p) == (8, 3)
    for m, expected in ((12, True), (11, False)):
        spots = m**2
        partial = 2 * m  # C(2,1) * m^1
        assert (spots > p * partial + q ** 2) == expected
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    report(8, elapsed, "minimal m = 12 with boundary 11/12, q=8, p=3, exact integers")


def test_criterion_09_collision_mechanism():
    start = time.monotonic()
    d = diagram_Fn(3)
    spots = canonical_embeddings(d.base, 3).members
    rng = SplitMix64(2024)

    def verify(coloring, expansion):
        pair = collision_search(d, 3, coloring, expansion)
        if pair is None:
            return None
        pi, sigma = pair
        hat_pi = ElementMap(d.base.domain, expansion.domain, pi.assignment)
        hat_sigma = ElementMap(d.base.domain, expansion.domain, sigma.assignment)
        assert pullback(hat_pi, expansion) == pullback(hat_sigma, expansion)
        assert coloring.of(pi) != coloring.of(sigma)
        return pair

    # all-empty expansion: collisions exactly for non-constant colorings
    for coloring in (
        Coloring.from_encoding(spots, 0),
        Coloring.from_encoding(spots, (1 << len(spots)) - 1),
    ):
        glued = build_JC(d, 3, coloring)
        assert verify(coloring, glued) is None
    nonconstant = 0
    while nonconstant < 25:
        enc = rng.next_bits(len(spots))
        if enc in (0, (1 << len(spots)) - 1):
            continue
        coloring = Coloring.from_encoding(spots, enc)
        glued = build_JC(d, 3, coloring)
        assert verify(coloring, glued) is not None
        nonconstant += 1

    # seeded random expansions: every returned pair re-verifies
    returned = 0
    for seed in range(20):
        enc = rng.next_bits(len(spots))
        coloring = Coloring.from_encoding(spots, enc)
        glued = build_JC(d, 3, coloring)
        expansion = random_expansion(glued, ExpansionSpec(2, 1, seed=seed))
        pair = verify(coloring, expansion)
        if pair is not None:
            returned += 1
        else:
            # absence re-verified: no differently-colored pair pulls back equally
            pulls = [
                pullback(ElementMap(d.base.domain, expansion.domain, s.assignment), expansion)
                for s in coloring.spots
            ]
            for i in range(len(spots)):
                for j in range(i + 1, len(spots)):
                    assert not (
                        coloring.sides[i] != coloring.sides[j] and pulls[i] == pulls[j]
                    )
    elapsed = time.monotonic() - start
    report(9, elapsed,
           f"constant colorings collision-free, 25 non-constant all collide, "
           f"20 expansions re-verified ({returned} with pairs)")


def _hom_pool() -> list[tuple[Structure, Structure]]:
    z2 = AbelianGroup([2])
    paths = [gen_Pn(n) for n in range(1, 7)]
    fns = [gen_Fn(n) for n in range(1, 5)]
    fn_parts = [diagram_Fn(2).base, diagram_Fn(3).base, diagram_Fn(2).left, diagram_Fn(3).right]
    lineq_small = [
        diagram_lineq(2, z2).base,
        marking(tree_instance(2), (0,), z2),
        marking(tree_instance(2), (1,), z2),
    ]
    g_small = [gen_G(s) for s in TreeShape.all_shapes(2)] + [diagram_G(TreeShape.parse("((..)(..))")).base]
    pool = []
    for group in (paths, fns + fn_parts, lineq_small + [T2], g_small):
        for a in group:
            for b in group:
                if len(a.domain) <= 5 and len(b.domain) <= 6 and a.signature == b.signature:
                    pool.append((a, b))
    return pool


def test_criterion_10_oracle_equivalence():
    start = time.monotonic()
    pairs = _hom_pool()
    assert len(pairs) >= 40
    for a, b in pairs:
        expected = all_homomorphisms(a, b)
        got = [dict(f.items()) for f in enumerate_homomorphisms(a, b)]
        assert sorted(got, key=sorted) == sorted(expected, key=sorted)
        assert (find_homomorphism(a, b) is not None) == bool(expected)
    hom_time = time.monotonic() - start

    start = time.monotonic()
    sig = template_signature(Z2)
    conflicted = Structure(sig, ["a"], {"value": [("a",)], "C_0": [("a",)], "C_1": [("a",)]})
    jc_small = build_JC(diagram_lineq(2, Z2), 1, Coloring.from_encoding(
        canonical_embeddings(diagram_lineq(2, Z2).base, 1).members, 0b1))
    instances = [
        marking(tree_instance(2), (0,), Z2),
        marking(tree_instance(2), (1,), Z2),
        marking(tree_instance(4), (0,), Z2),
        marking(tree_instance(4), (1,), Z2),
        conflicted,
        diagram_lineq(2, Z2).free_amalgam().amalgam,
        jc_small,
    ]
    checked = 0
    for inst in instances:
        assert len(inst.domain) <= 12
        for k, l in ((1, 2), (2, 2), (2, 3)):
            assert consistency.is_consistent(inst, T2, k, l) == game_consistent(inst, T2, k, l)
            checked += 1
    game_time = time.monotonic() - start
    report(10, hom_time + game_time,
           f"{len(pairs)} hom pairs vs brute force, {checked} consistency verdicts vs game oracle, 100% agreement")


def _seeded_members(count: int, seed: int) -> list[Structure]:
    """Seeded random path-signature structures with no source-to-target walk."""
    rng = SplitMix64(seed)
    oracle = forbh_oracle(PnFamily())
    out: list[Structure] = []
    while len(out) < count:
        n = 2 + rng.next_below(5)
        ids = [f"x{i}" for i in range(n)]
        edges = set()
        for _ in range(rng.next_below(2 * n)):
            u = ids[rng.next_below(n)]
            w = ids[rng.next_below(n)]
            if u != w:
                edges.add((u, w))
        sources = {ids[rng.next_below(n)]} if rng.next_bit() else set()
        targets = {ids[rng.next_below(n)]} if rng.next_bit() else set()
        candidate = Structure(
            P_SIGNATURE,
            ids,
            {"Ed": edges, "S": [(x,) for x in sources], "T": [(x,) for x in targets]},
        )
        if oracle.member(candidate):
            out.append(candidate)
    return out


def test_criterion_11_homogenization_probe():
    start = time.monotonic()
    samples = _seeded_members(50, seed=99)
    assert homogenization_probe(samples, seed=7, trials=100)
    elapsed = time.monotonic() - start
    report(11, elapsed, "50 seeded members expand, reduce back, and glue inside the class")
