"""Homomorphism decision and search, checked against brute-force enumeration."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    all_homomorphisms,
    all_maps,
    mixed_structures,
    morphism_kinds,
    standalone_copy,
    two_relations,
)

from finstruct.core import (
    ElementMap,
    Signature,
    SignatureMismatch,
    Structure,
    StructureError,
    induced_on_mask,
)
from finstruct.families import (
    AbelianGroup,
    build_template,
    diagram_Fn,
    diagram_lineq,
    gen_Fn,
    gen_Pn,
    tree_instance,
)
from finstruct.morphisms import (
    KINDS,
    HomomorphismSearcher,
    canonical_embeddings,
    check_morphism,
    check_partial_homomorphism,
    enumerate_embeddings,
    enumerate_homomorphisms,
    find_homomorphism,
    is_isomorphic,
    restriction_set,
)

SIG = Signature([("E", 2), ("P", 1)])


def tiny(domain, edges=(), points=()):
    return Structure(SIG, domain, {"E": edges, "P": [(x,) for x in points]})


def test_check_morphism_kinds():
    s = tiny(["a", "b"], edges=[("a", "b")], points=["a"])
    ident = ElementMap.identity(s.domain)
    assert check_morphism(ident, s, s, "isomorphism")
    # collapsing an edge onto a relation-free point is not a homomorphism
    point = tiny(["z"])
    collapse = ElementMap(s.domain, point.domain, {"a": "z", "b": "z"})
    assert not check_morphism(collapse, s, point, "homomorphism")
    # a non-strong homomorphism: edge into a larger edge structure plus extras
    big = tiny(["x", "y"], edges=[("x", "y"), ("y", "x")], points=["x"])
    f = ElementMap(s.domain, big.domain, {"a": "x", "b": "y"})
    assert check_morphism(f, s, big, "monomorphism")
    assert not check_morphism(f, s, big, "embedding")  # (y,x) pulls back outside E
    with pytest.raises(StructureError):
        check_morphism(ident, s, s, "nonsense")
    partial = ElementMap(s.domain, s.domain, {"a": "a"})
    with pytest.raises(StructureError):
        check_morphism(partial, s, s, "homomorphism")


def test_canonical_embedding_members_are_embeddings():
    a = diagram_Fn(2).base
    emb = canonical_embeddings(a, 2)
    for member in emb.members:
        assert check_morphism(member, a, emb.target, "embedding")


def test_check_partial_homomorphism():
    t2 = build_template(AbelianGroup([2]))
    inst = tree_instance(2)
    from finstruct.families import marking

    marked = marking(inst, (0,), AbelianGroup([2]))
    empty = ElementMap(marked.domain, t2.domain, {})
    assert check_partial_homomorphism(empty, marked, t2)
    # the marked root cannot go to the value 1
    root_to_one = ElementMap(marked.domain, t2.domain, {"n": "1"})
    assert not check_partial_homomorphism(root_to_one, marked, t2)
    # a triple element can go to any of the four template triples
    triples = sorted(x for (x,) in t2.relation("triple"))
    assert len(triples) == 4
    for target in triples:
        f = ElementMap(marked.domain, t2.domain, {"t": target})
        assert check_partial_homomorphism(f, marked, t2)


def test_find_homomorphism_basic():
    s = tiny(["a", "b"], edges=[("a", "b")])
    found = find_homomorphism(s, s)
    assert found is not None and found.is_total
    assert find_homomorphism(gen_Fn(3), gen_Fn(4)) is None
    amalgam = diagram_Fn(3).free_amalgam().amalgam
    assert find_homomorphism(gen_Fn(3), amalgam) is not None
    with pytest.raises(SignatureMismatch):
        find_homomorphism(s, gen_Fn(2))


def test_find_returns_lexicographically_first():
    loose = tiny(["a"], points=[])
    targets = tiny(["x", "y", "z"])
    found = find_homomorphism(loose, targets)
    assert found["a"] == "x"


def test_enumerate_homomorphisms_counts():
    one = tiny(["a"])
    targets = tiny(["x", "y", "z"])
    assert len(enumerate_homomorphisms(one, targets)) == 3
    assert len(enumerate_homomorphisms(one, targets, limit=2)) == 2
    # two isolated value points into the incidence template: 4 maps onto values
    z2 = AbelianGroup([2])
    base = diagram_lineq(2, z2).base
    t2 = build_template(z2)
    maps = enumerate_homomorphisms(base, t2)
    assert len(maps) == 4
    assert all(set(f.image) <= {"0", "1"} for f in maps)


def test_enumeration_matches_brute_force():
    z2 = AbelianGroup([2])
    t2 = build_template(z2)
    pairs = [
        (gen_Pn(2), gen_Pn(3)),
        (gen_Pn(3), gen_Pn(3)),
        (diagram_Fn(2).base, diagram_Fn(3).base),
        (diagram_lineq(2, z2).base, t2),
        (tiny(["a", "b"], edges=[("a", "b")]), tiny(["x", "y"], edges=[("x", "y"), ("y", "x")])),
    ]
    for a, b in pairs:
        expected = all_homomorphisms(a, b)
        got = [dict(f.items()) for f in enumerate_homomorphisms(a, b)]
        assert sorted(got, key=sorted) == sorted(expected, key=sorted)
        assert (find_homomorphism(a, b) is not None) == bool(expected)


def test_automorphisms_of_fn():
    f3 = gen_Fn(3)
    autos = enumerate_homomorphisms(f3, f3)
    assert len(autos) >= 1
    assert {x: x for x in f3.domain} in [dict(f.items()) for f in autos]


def test_enumerate_embeddings():
    empty = Structure(SIG, [], {})
    targets = tiny(["x", "y"])
    assert len(enumerate_embeddings(empty, targets)) == 1
    z2 = AbelianGroup([2])
    t2 = build_template(z2)
    point = diagram_lineq(2, z2).base
    # a bare value point maps injectively onto either value, but neither map
    # is strong (the image carries a constant label the point lacks)
    single = Structure(point.signature, ["a"], {"value": [("a",)]})
    monos = [
        f
        for f in enumerate_homomorphisms(single, t2)
        if check_morphism(f, single, t2, "monomorphism")
    ]
    assert len(monos) == 2 and {f["a"] for f in monos} == {"0", "1"}
    assert len(enumerate_embeddings(single, t2)) == 0
    labeled = Structure(
        point.signature, ["a"], {"value": [("a",)], "C_0": [("a",)]}
    )
    emb = enumerate_embeddings(labeled, t2)
    assert len(emb) == 1 and emb.members[0]["a"] == "0"
    base = diagram_Fn(2).base
    emb = enumerate_embeddings(base, canonical_embeddings(base, 2).target)
    canonical = set(canonical_embeddings(base, 2).members)
    assert canonical <= set(emb.members)


def test_canonical_embeddings_counts():
    base3 = diagram_Fn(3).base
    assert len(canonical_embeddings(base3, 2)) == 8
    assert len(canonical_embeddings(base3, 1)) == 1
    base2 = diagram_Fn(2).base
    members = canonical_embeddings(base2, 3).members
    assert len(members) == 9
    assert len(set(members)) == 9
    with pytest.raises(StructureError):
        canonical_embeddings(base2, 0)


def test_restriction_set():
    base3 = diagram_Fn(3).base
    emb = canonical_embeddings(base3, 2)
    assert len(restriction_set(emb, 3)) == 8
    assert len(restriction_set(emb, 1)) == 6
    single = canonical_embeddings(diagram_Fn(4).base, 1)
    assert len(restriction_set(single, 1)) == 4
    with pytest.raises(StructureError):
        restriction_set(emb, 4)


def test_restriction_count_formula():
    from math import comb

    for n, m, r in [(2, 2, 1), (3, 2, 2), (2, 3, 1), (3, 2, 1)]:
        emb = canonical_embeddings(diagram_Fn(n).base, m)
        assert len(restriction_set(emb, r)) == comb(n, r) * m**r


def test_is_isomorphic():
    s = tiny(["a", "b"], edges=[("a", "b")])
    assert is_isomorphic(s, s)
    assert not is_isomorphic(gen_Fn(3), gen_Fn(4))
    assert is_isomorphic(diagram_Fn(3).free_amalgam().amalgam, gen_Fn(3))
    # same counts but different wiring
    x = tiny(["a", "b", "c"], edges=[("a", "b"), ("b", "c")])
    y = tiny(["a", "b", "c"], edges=[("a", "b"), ("a", "c")])
    assert not is_isomorphic(x, y)


def test_composition_preserves_kinds():
    f3 = gen_Fn(3)
    amalgam = diagram_Fn(3).free_amalgam().amalgam
    f = find_homomorphism(f3, amalgam)
    g = find_homomorphism(amalgam, f3)
    assert f is not None and g is not None
    assert check_morphism(f.then(g), f3, f3, "homomorphism")
    d = diagram_Fn(3)
    inj = d.free_amalgam().left_injection
    comp = ElementMap(
        d.base.domain, amalgam.domain, {a: inj[d.left_emb[a]] for a in d.base.domain}
    )
    assert check_morphism(comp, d.base, amalgam, "embedding")


def test_embedding_implies_homomorphism_and_injectivity():
    d = diagram_Fn(3)
    for f, target in ((d.left_emb, d.left), (d.right_emb, d.right)):
        assert check_morphism(f, d.base, target, "embedding")
        assert check_morphism(f, d.base, target, "homomorphism")
        assert f.is_injective


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(mixed_structures(), mixed_structures(), st.integers(1, 3))
def test_searcher_matches_brute_force(source, target, limit):
    assert_searcher_matches_brute_force(source, target, limit)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(two_relations(), two_relations(), st.integers(1, 3))
def test_searcher_matches_brute_force_on_two_relations(source, target, limit):
    # two constraints on one pair narrow a variable twice in one step
    assert_searcher_matches_brute_force(source, target, limit)


def assert_searcher_matches_brute_force(source, target, limit):
    expected = sorted(sorted(h.items()) for h in all_homomorphisms(source, target))
    searcher = HomomorphismSearcher(target)
    found = [sorted(f.items()) for f in searcher.iter_all(source)]
    assert sorted(found) == expected and len(set(map(tuple, found))) == len(found)
    first = searcher.find(source)
    assert (first is None) == (not expected)
    if first is not None:
        assert sorted(first.items()) == found[0]
    assert [sorted(f.items()) for f in searcher.iter_all(source, limit=limit)] == found[:limit]
    injective = [h for h in expected if len({v for _, v in h}) == len(h)]
    assert sorted(sorted(f.items()) for f in searcher.iter_injective(source)) == injective
    bit = {x: 1 << i for i, x in enumerate(target.domain)}
    images = {sum(bit[v] for v in {v for _, v in h}) for h in expected}
    assert searcher.image_masks(source) == images


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(mixed_structures(max_size=3), mixed_structures(max_size=5), st.data())
def test_search_on_induced_view_matches_standalone_copy(source, host, data):
    # a view searches its host's rows under its mask, with the set-up its
    # host keeps per source shared by both views; a standalone copy has rows
    # of its own; all must give the brute force's maps in its order
    for _ in range(2):
        alive = data.draw(st.integers(0, (1 << len(host.domain)) - 1))
        view = induced_on_mask(host, alive)
        copy = standalone_copy(host, alive)
        expected = all_homomorphisms(source, copy)  # lexicographic in the target's order
        injective = [h for h in expected if len(set(h.values())) == len(h)]
        for target in (view, copy):
            searcher = HomomorphismSearcher(target)
            first = searcher.find(source)
            assert (None if first is None else dict(first.items())) == (
                expected[0] if expected else None
            )
            assert [dict(f.items()) for f in searcher.iter_all(source)] == expected
            assert [dict(f.items()) for f in searcher.iter_all(source, limit=2)] == expected[:2]
            assert [dict(f.items()) for f in searcher.iter_injective(source)] == injective
            if first is not None:
                assert first.target == copy.domain
        # the host's images inside the mask are exactly the view's images
        bit = {x: 1 << i for i, x in enumerate(host.domain)}
        images = {sum(bit[v] for v in set(h.values())) for h in expected}
        host_images = HomomorphismSearcher(host).image_masks(source)
        assert {img for img in host_images if not img & ~alive} == images
        assert HomomorphismSearcher(view).image_masks(source) == images


def test_search_restores_a_variable_narrowed_twice():
    # x0 -> x1 and x1 -> x0 both narrow x1 when x0 is assigned; taking the
    # value back must restore x1's candidates from before both steps
    cycle = tiny(["x0", "x1"], [("x0", "x1"), ("x1", "x0")])
    loops = tiny(["0", "1", "2"], [("0", "0"), ("0", "1"), ("1", "1"), ("2", "2")])
    found = [dict(f.items()) for f in enumerate_homomorphisms(cycle, loops)]
    assert found == all_homomorphisms(cycle, loops) == [
        {"x0": v, "x1": v} for v in ("0", "1", "2")
    ]


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(mixed_structures(max_size=3), mixed_structures(max_size=3))
def test_morphism_checks_match_definitions(a, b):
    maps = all_maps(a, b)
    kinds = [morphism_kinds(assign, a, b) for assign in maps]
    for assign, expected in zip(maps, kinds):
        f = ElementMap(a.domain, b.domain, assign)
        assert {kind: check_morphism(f, a, b, kind) for kind in KINDS} == expected
    embeddings = [assign for assign, k in zip(maps, kinds) if k["embedding"]]
    assert [dict(f.items()) for f in enumerate_embeddings(a, b)] == embeddings
    assert is_isomorphic(a, b) == any(k["isomorphism"] for k in kinds)
