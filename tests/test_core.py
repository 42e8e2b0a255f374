"""Structure operations: substructures, unions, quotients, amalgams, blow-ups."""

from __future__ import annotations

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import MIXED, mixed_structures, reference_height, standalone_copy, two_relations

from finstruct import core
from finstruct.core import (
    DomainError,
    ElementMap,
    Signature,
    SignatureMismatch,
    Structure,
    StructureError,
    blowup,
    disjoint_union,
    free_amalgam,
    height,
    induced_on_mask,
    induced_substructure,
    is_connected,
    pullback,
    quotient,
    reduct,
    union,
)
from finstruct.consistency import is_consistent
from finstruct.families import diagram_Fn, diagram_lineq, gen_Fn, AbelianGroup
from finstruct.morphisms import (
    HomomorphismSearcher,
    canonical_embeddings,
    check_morphism,
    is_isomorphic,
)

SIG = Signature([("E", 2), ("P", 1)])


def tiny(domain, edges=(), points=()):
    return Structure(SIG, domain, {"E": edges, "P": [(x,) for x in points]})


def test_signature_equality_is_set_based():
    a = Signature([("E", 2), ("P", 1)])
    b = Signature([("P", 1), ("E", 2)])
    assert a == b
    assert hash(a) == hash(b)
    assert a != Signature([("E", 2)])
    with pytest.raises(StructureError):
        Signature([("E", 2), ("E", 2)])
    with pytest.raises(StructureError):
        Signature([("E", 0)])


def test_structure_invariants_enforced():
    with pytest.raises(DomainError):
        tiny(["a"], edges=[("a", "b")])
    with pytest.raises(StructureError):
        Structure(SIG, ["a"], {"E": [("a",)]})
    s = tiny(["a", "b"], edges=[("a", "b")])
    assert s.relation("P") == frozenset()  # empty relations materialized


def test_positions_index_the_sorted_domain():
    s = tiny(["c", "a", "b"], edges=[("c", "a"), ("b", "b")], points=["c"])
    fresh = tiny(["c", "a", "b"], edges=[("c", "a"), ("b", "b")], points=["c"])
    assert sorted(s.positions("E")) == [(1, 1), (2, 0)]
    assert s.positions("P") == ((2,),)
    assert s == fresh and hash(s) == hash(fresh)  # the index takes no part
    with pytest.raises(StructureError):
        s.positions("Q")


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(mixed_structures(), st.data())
def test_induced_view_matches_standalone_copy(host, data):
    full = (1 << len(host.domain)) - 1
    alive = data.draw(st.integers(0, full))
    view = induced_on_mask(host, alive)
    # a view is its host and its mask: the rest is derived on first read
    assert view._domain is None and view._domain_set is None and view._relations is None
    copy = standalone_copy(host, alive)
    assert view.domain == copy.domain and view.domain_set == copy.domain_set
    assert dict(view.relations_items()) == dict(copy.relations_items())
    assert view == copy and view.domain == copy.domain and hash(view) == hash(copy)
    assert view.domain_set == copy.domain_set
    assert view.host is host and view.alive == alive
    assert host.host is host and host.alive == full
    # a view of a view is cut from the same host
    inner = alive & data.draw(st.integers(0, full))
    nested = induced_on_mask(view, inner)
    assert nested == standalone_copy(host, inner) and nested.host is host
    assert nested.mask_index() is host.mask_index()
    if alive != full:
        with pytest.raises(DomainError):
            induced_on_mask(view, full)
    with pytest.raises(DomainError):
        induced_on_mask(host, full + 1)


# every symbol has tuples the drawn views can and cannot map onto
MIXED_TARGET = Structure(
    MIXED,
    ["a", "b"],
    {
        "U": [("a",)],
        "E": [("a", "b"), ("b", "a"), ("b", "b")],
        "T": [("b", "b", "b"), ("a", "b", "a")],
    },
)


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(mixed_structures(), st.data())
def test_view_tuples_feed_search_and_consistency(host, data):
    # a view's derived tuples, read through positions, drive the search when
    # the view is the source and the (k,l) fixpoint when it is the instance
    searcher = HomomorphismSearcher(MIXED_TARGET)
    for _ in range(2):
        alive = data.draw(st.integers(0, (1 << len(host.domain)) - 1))
        view = induced_on_mask(host, alive)
        copy = standalone_copy(host, alive)
        for name in MIXED.names:
            assert sorted(view.positions(name)) == sorted(copy.positions(name))
        assert [f.items() for f in searcher.iter_all(view)] == [
            f.items() for f in searcher.iter_all(copy)
        ]
        for k, l in ((1, 2), (2, 3)):
            assert is_consistent(view, MIXED_TARGET, k, l) == is_consistent(copy, MIXED_TARGET, k, l)


def test_views_pickle_without_indexes():
    host = tiny(["a", "b", "c"], edges=[("a", "b"), ("b", "c")], points=["a"])
    view = induced_on_mask(host, 0b011)
    assert height(view, ("E",)) == 1 and host._index is not None
    hash(host)
    again = pickle.loads(pickle.dumps(view))
    assert again == view and again.alive == 0b011 and again.host == host
    assert again.host._index is None and again.host._hash is None
    assert again.host._positions is None


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(mixed_structures(), st.data())
def test_height_matches_reference(host, data):
    assert height(host, ("E",)) == reference_height(host, ("E",))
    alive = data.draw(st.integers(0, (1 << len(host.domain)) - 1))
    view = induced_on_mask(host, alive)
    assert height(view, ("E",)) == reference_height(view, ("E",))


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(two_relations(), st.data())
def test_height_of_two_relations_matches_reference(host, data):
    assert height(host, ("E", "F")) == reference_height(host, ("E", "F"))
    alive = data.draw(st.integers(0, (1 << len(host.domain)) - 1))
    view = induced_on_mask(host, alive)
    assert height(view, ("E", "F")) == reference_height(view, ("E", "F"))


def test_height_examples():
    path = tiny(["a", "b", "c", "d"], edges=[("a", "b"), ("b", "c"), ("c", "d")])
    assert height(path, ("E",)) == 3
    assert height(induced_on_mask(path, 0b1011), ("E",)) == 1  # c dropped
    cycle = tiny(["a", "b", "c", "d"], edges=[("a", "b"), ("b", "c"), ("c", "a"), ("c", "d")])
    assert height(cycle, ("E",)) is None
    assert height(induced_on_mask(cycle, 0b1110), ("E",)) == 2  # a dropped
    assert height(tiny(["a"], edges=[("a", "a")]), ("E",)) is None
    assert height(tiny([]), ("E",)) == 0 and height(tiny(["a", "b"]), ("E",)) == 0
    with pytest.raises(StructureError):
        height(path, ("P",))
    with pytest.raises(StructureError):
        height(path, ("Q",))


def test_induced_substructure():
    s = tiny(["a", "b", "c"], edges=[("a", "b"), ("b", "c")], points=["a"])
    assert induced_substructure(s, s.domain) == s
    empty = induced_substructure(s, [])
    assert len(empty.domain) == 0 and empty.signature == s.signature
    sub = induced_substructure(s, ["a", "b"])
    assert sub.relation("E") == frozenset({("a", "b")})
    assert sub.relation("P") == frozenset({("a",)})
    with pytest.raises(DomainError):
        induced_substructure(s, ["z"])


def test_induced_substructure_recovers_diagram_base():
    f3 = gen_Fn(3)
    path = [x for x in f3.domain if x.startswith("v")]
    assert is_isomorphic(induced_substructure(f3, path), diagram_Fn(3).base)


def test_union():
    s = tiny(["a", "b"], edges=[("a", "b")])
    assert union(s, s) == s
    empty = Structure(SIG, [], {})
    assert union(s, empty) == s
    with pytest.raises(SignatureMismatch):
        union(s, Structure(Signature([("E", 2)]), [], {}))


def test_union_of_diagram_halves_rebuilds_whole():
    d = diagram_Fn(3)
    assert is_isomorphic(union(d.left, d.right), gen_Fn(3))


def test_disjoint_union():
    a = tiny(["x"], points=["x"])
    b = tiny(["x"])
    result, emb_a, emb_b = disjoint_union(a, b)
    assert len(result.domain) == 2
    assert check_morphism(emb_a, a, result, "embedding")
    assert check_morphism(emb_b, b, result, "embedding")
    s = tiny(["a", "b"], edges=[("a", "b")])
    copy, emb, _ = disjoint_union(s, Structure(SIG, [], {}))
    assert is_isomorphic(copy, s)
    big, _, _ = disjoint_union(gen_Fn(3), gen_Fn(4))
    assert len(big.domain) == 5 + 6


def test_quotient():
    s = tiny(["a", "b", "c"], edges=[("a", "b")], points=["c"])
    same, proj = quotient(s, [["a"], ["b"], ["c"]])
    assert same == s and proj.is_total
    one, proj = quotient(s, [["a", "b", "c"]])
    assert len(one.domain) == 1
    assert len(one.relation("E")) == 1  # some preimage tuple existed
    assert check_morphism(proj, s, one, "homomorphism")
    assert proj.image == frozenset(one.domain)
    with pytest.raises(StructureError):
        quotient(s, [["a", "b"]])
    with pytest.raises(StructureError):
        quotient(s, [["a", "b"], ["b", "c"]])


def test_quotient_of_disjoint_union_rebuilds_amalgam():
    d = diagram_Fn(3)
    both, emb_l, emb_r = disjoint_union(d.left, d.right)
    merged = {}
    for a in d.base.domain:
        merged[emb_l[d.left_emb[a]]] = emb_r[d.right_emb[a]]
    blocks = []
    for x in both.domain:
        if x in merged:
            blocks.append([x, merged[x]])
        elif x not in merged.values():
            blocks.append([x])
    glued, proj = quotient(both, blocks)
    assert is_isomorphic(glued, gen_Fn(3))
    assert check_morphism(proj, both, glued, "homomorphism")


def test_free_amalgam_self_glue():
    s = tiny(["a", "b"], edges=[("a", "b")])
    ident = ElementMap.identity(s.domain)
    res = free_amalgam(s, ident, s, ident, s)
    assert is_isomorphic(res.amalgam, s)


def test_free_amalgam_rebuilds_fn():
    d = diagram_Fn(3)
    res = d.free_amalgam()
    assert is_isomorphic(res.amalgam, gen_Fn(3))
    assert check_morphism(res.left_injection, d.left, res.amalgam, "embedding")
    assert check_morphism(res.right_injection, d.right, res.amalgam, "embedding")
    # strong-amalgam equation and the free condition
    left_img = res.left_injection.image
    right_img = res.right_injection.image
    base_img = frozenset(res.left_injection[d.left_emb[a]] for a in d.base.domain)
    assert left_img & right_img == base_img
    assert base_img == frozenset(res.right_injection[d.right_emb[a]] for a in d.base.domain)
    rebuilt = union(
        induced_substructure(res.amalgam, left_img),
        induced_substructure(res.amalgam, right_img),
    )
    assert rebuilt == res.amalgam


def test_free_amalgam_element_count():
    d = diagram_lineq(8, AbelianGroup([2]))
    res = d.free_amalgam()
    assert len(d.left.domain) == 22
    assert len(res.amalgam.domain) == 2 * 22 - 8


def test_free_amalgam_rejects_non_embedding():
    s = tiny(["a", "b"], edges=[("a", "b")])
    collapse = ElementMap(s.domain, s.domain, {"a": "a", "b": "a"})
    with pytest.raises(StructureError):
        free_amalgam(s, collapse, s, ElementMap.identity(s.domain), s)


def test_blowup():
    s = tiny(["a", "b"], points=["a", "b"])
    assert is_isomorphic(blowup(s, 1), s)
    doubled = blowup(s, 2)
    assert len(doubled.domain) == 4
    assert len(doubled.relation("P")) == 4
    assert len(doubled.relation("E")) == 0
    path = tiny(["a", "b"], edges=[("a", "b")])
    layered = blowup(path, 2)
    assert len(layered.domain) == 4
    assert len(layered.relation("E")) == 4
    with pytest.raises(StructureError):
        blowup(s, 0)


def test_blowup_projection_is_strong_surjection():
    s = tiny(["a", "b"], edges=[("a", "b")], points=["a"])
    big = blowup(s, 3)
    proj = ElementMap(
        big.domain, s.domain, {x: x.rsplit("@", 1)[0] for x in big.domain}
    )
    assert check_morphism(proj, big, s, "strong-homomorphism")
    assert proj.image == frozenset(s.domain)


def test_pullback():
    s = tiny(["a", "b"], edges=[("a", "b")], points=["a"])
    assert pullback(ElementMap.identity(s.domain), s) == s
    # constant map onto an isolated labeled point lifts the label everywhere
    iso = tiny(["z"], points=["z"])
    const = ElementMap(["x", "y"], iso.domain, {"x": "z", "y": "z"})
    pulled = pullback(const, iso)
    assert pulled.relation("P") == frozenset({("x",), ("y",)})
    assert pulled.relation("E") == frozenset()
    # diagonal case: a self-loop pulls back to the full square
    loop = tiny(["z"], edges=[("z", "z")])
    pulled = pullback(const, loop)
    assert pulled.relation("E") == frozenset(
        {("x", "x"), ("x", "y"), ("y", "x"), ("y", "y")}
    )


def test_pullback_makes_map_strong():
    s = tiny(["a", "b", "c"], edges=[("a", "b"), ("b", "c")], points=["b"])
    f = ElementMap(["p", "q"], s.domain, {"p": "a", "q": "b"})
    pulled = pullback(f, s)
    assert check_morphism(f, pulled, s, "strong-homomorphism")


def test_pullback_of_canonical_embedding_recovers_expansion():
    a = tiny(["a", "b"], edges=[("a", "b")], points=["a"])
    spot = canonical_embeddings(a, 2).members[0]
    target = spot.target
    expanded_target = core.add_symbols(
        Structure(SIG, target, {n: blowup(a, 2).relation(n) for n in SIG.names}),
        [("Q", 1)],
    )
    hat = ElementMap(a.domain, expanded_target.domain, spot.assignment)
    pulled = pullback(hat, expanded_target)
    assert pulled == core.add_symbols(a, [("Q", 1)])


def test_is_connected():
    assert is_connected(Structure(SIG, [], {}))
    assert is_connected(tiny(["a"]))
    assert not is_connected(tiny(["a", "b"]))
    assert is_connected(gen_Fn(3))


def test_reduct_and_add_symbols():
    s = tiny(["a", "b"], edges=[("a", "b")], points=["a"])
    expanded = core.add_symbols(s, [("Q", 1)], {"Q": [("b",)]})
    assert "Q" in expanded.signature
    assert reduct(expanded, ["E", "P"]) == s
    with pytest.raises(StructureError):
        reduct(s, ["missing"])


def test_element_map_basics():
    f = ElementMap(["a", "b"], ["x", "y"], {"a": "x"})
    assert not f.is_total
    assert f.restrict(["b"]).items() == ()
    g = ElementMap(["x", "y"], ["u"], {"x": "u", "y": "u"})
    assert f.then(g)["a"] == "u"
    with pytest.raises(DomainError):
        ElementMap(["a"], ["x"], {"q": "x"})
    with pytest.raises(DomainError):
        ElementMap(["a"], ["x"], {"a": "q"})


def test_element_map_hash_is_kept_out_of_pickles():
    # string hashes depend on PYTHONHASHSEED, so a cached one must not travel
    f = ElementMap(["a", "b"], ["x", "y"], {"a": "x", "b": "y"})
    h = hash(f)
    assert f._hash == h and hash(f) == h
    assert h not in f.__getstate__()
    again = pickle.loads(pickle.dumps(f))
    assert again._hash is None
    assert again == f and hash(again) == h and again.items() == f.items()
