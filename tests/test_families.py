"""Generators: templates, tree instances, path and tree families, glued blow-ups."""

from __future__ import annotations

import hashlib
import os
import pickle
import subprocess
import sys
from itertools import islice
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import marking_solution_count, reference_build_JC

from finstruct import cli, core, families, morphisms
from finstruct.consistency import BudgetExceeded
from finstruct.core import ElementMap, Structure, StructureError, is_connected
from finstruct.families import (
    AbelianGroup,
    Coloring,
    ExcludedPathError,
    FnFamily,
    GFamily,
    PnFamily,
    P_SIGNATURE,
    TreeShape,
    build_JC,
    build_template,
    cplus_check,
    diagram_Fn,
    diagram_G,
    diagram_lineq,
    gen_Fn,
    gen_G,
    gen_Pn,
    io_expansion,
    marking,
    tree_instance,
    tree_leaves,
    tree_root,
)
from finstruct.morphisms import (
    canonical_embeddings,
    check_morphism,
    enumerate_homomorphisms,
    find_homomorphism,
    is_isomorphic,
)

SRC = Path(__file__).resolve().parents[1] / "src"


def test_abelian_group():
    z6 = AbelianGroup([2, 3])
    assert z6.order == 6
    assert z6.add((1, 2), (1, 2)) == (0, 1)
    assert z6.neg((1, 1)) == (1, 2)
    assert z6.first_nonzero() == (1, 0)
    assert AbelianGroup.parse("2x2").orders == (2, 2)
    assert AbelianGroup.parse("3").orders == (3,)
    with pytest.raises(StructureError):
        AbelianGroup.parse("bogus")
    with pytest.raises(StructureError):
        AbelianGroup([])
    with pytest.raises(StructureError):
        AbelianGroup([1]).first_nonzero()


def test_tree_shape():
    balanced = TreeShape.parse("((..)(..))")
    assert balanced.leaf_count() == 4
    assert balanced.render() == "((..)(..))"
    assert TreeShape.balanced(2) == balanced
    assert [len(TreeShape.all_shapes(k)) for k in (1, 2, 3, 4, 5)] == [1, 1, 2, 5, 14]
    with pytest.raises(StructureError):
        TreeShape.parse("((..)")
    with pytest.raises(StructureError):
        TreeShape.parse("(..)x")


def test_build_template_z2():
    t2 = build_template(AbelianGroup([2]))
    assert len(t2.domain) == 6
    triples = {x for (x,) in t2.relation("triple")}
    assert triples == {"0+0+0", "0+1+1", "1+0+1", "1+1+0"}
    assert {x for (x,) in t2.relation("C_0")} == {"0"}
    assert {x for (x,) in t2.relation("C_1")} == {"1"}
    assert len(t2.relation("pi1")) == 4


def test_build_template_sizes():
    assert len(build_template(AbelianGroup([3])).domain) == 3 + 9
    assert len(build_template(AbelianGroup([1])).domain) == 1 + 1
    assert len(build_template(AbelianGroup([2, 2])).domain) == 4 + 16


def test_tree_instance_sizes():
    assert len(tree_instance(2).domain) == 4
    assert len(tree_instance(4).domain) == 10
    assert len(tree_instance(8).domain) == 22
    with pytest.raises(StructureError):
        tree_instance(3)
    lopsided = TreeShape.parse("((..).)")
    inst = tree_instance(3, lopsided)
    assert len(inst.domain) == 5 + 2


def test_tree_root_and_leaves():
    inst = tree_instance(4)
    assert tree_root(inst) == "n"
    assert tree_leaves(inst) == ["n00", "n01", "n10", "n11"]


def test_marking():
    z2 = AbelianGroup([2])
    inst = tree_instance(2)
    marked = marking(inst, (0,), z2)
    assert ("n",) in marked.relation("C_0")
    assert len(marked.domain) == len(inst.domain)
    t2 = build_template(z2)
    assert marked.signature == t2.signature
    with pytest.raises(StructureError):
        marking(inst, (7,), z2)


def test_marking_solution_counts_match_leaf_oracle():
    for orders, n in (([2], 2), ([2], 4), ([3], 2), ([3], 4)):
        group = AbelianGroup(orders)
        template = build_template(group)
        inst = tree_instance(n)
        for a in group.elements():
            marked = marking(inst, a, group)
            got = len(enumerate_homomorphisms(marked, template))
            expected = marking_solution_count(n, group, a)
            assert got == expected == group.order ** (n - 1)


def test_diagram_lineq():
    z2 = AbelianGroup([2])
    d8 = diagram_lineq(8, z2)
    assert len(d8.base.domain) == 8
    assert len(d8.left.domain) == 22  # marking adds a label, not an element
    assert len(d8.right.domain) == 22
    d2 = diagram_lineq(2, z2)
    assert len(d2.base.domain) == 2
    assert len(d2.left.domain) == 4
    z3 = AbelianGroup([3])
    d43 = diagram_lineq(4, z3, a=(1,))
    assert ("n",) in d43.left.relation("C_0")
    assert ("n",) in d43.right.relation("C_1")
    with pytest.raises(StructureError):
        diagram_lineq(4, AbelianGroup([1]))
    with pytest.raises(StructureError):
        diagram_lineq(4, z2, a=(0,))


def test_gen_fn():
    f1 = gen_Fn(1)
    assert len(f1.domain) == 3
    assert ("v1",) in f1.relation("S") and ("v1",) in f1.relation("T")
    f3 = gen_Fn(3)
    assert len(f3.domain) == 5
    assert len(f3.relation("Ed")) == 2
    assert len(f3.relation("E")) == 12  # 6 undirected edges, both orientations
    undirected = {frozenset(t) for t in f3.relation("E")}
    assert len(undirected) == 6
    with pytest.raises(StructureError):
        gen_Fn(0)


def test_gen_fn_labels_unique_and_connected():
    for n in (1, 2, 5):
        s = gen_Fn(n)
        assert is_connected(s)
        for label in ("R", "B", "S", "T"):
            assert len(s.relation(label)) == 1


def test_diagram_fn():
    d3 = diagram_Fn(3)
    assert len(d3.base.domain) == 3
    assert len(d3.left.domain) == 4
    assert len(d3.right.domain) == 4
    for n in (3, 4):
        assert is_isomorphic(diagram_Fn(n).free_amalgam().amalgam, gen_Fn(n))


def test_gen_g():
    balanced = TreeShape.parse("((..)(..))")
    g = gen_G(balanced)
    assert len(g.domain) == 8
    assert len(g.relation("R")) == 1 and len(g.relation("B")) == 1
    assert is_connected(g)
    deep = TreeShape.balanced(4)
    g16 = gen_G(deep)
    assert len(g16.domain) == 31 + 1
    leaves = {t[1] for t in g16.relation("E") if t[0] == "blue"}
    assert len(leaves) == 16
    with pytest.raises(StructureError):
        gen_G(TreeShape.leaf())


def test_gen_g_antichain_pair():
    shapes = TreeShape.all_shapes(4)
    a, b = gen_G(shapes[0]), gen_G(shapes[1])
    assert find_homomorphism(a, b) is None
    assert find_homomorphism(b, a) is None


def test_diagram_g():
    balanced = TreeShape.parse("((..)(..))")
    d = diagram_G(balanced)
    assert len(d.base.domain) == 4
    assert len(d.left.domain) == 7
    assert len(d.right.domain) == 5
    assert is_isomorphic(d.free_amalgam().amalgam, gen_G(balanced))


def test_build_jc_empty_coloring_is_blowup():
    d = diagram_Fn(3)
    empty = Coloring([], [])
    glued = build_JC(d, 2, empty)
    assert glued == canonical_embeddings(d.base, 2).target


def test_build_jc_sizes():
    d = diagram_Fn(3)
    spots = canonical_embeddings(d.base, 2).members
    coloring = Coloring.from_encoding(spots, 0b10110101)
    glued = build_JC(d, 2, coloring)
    assert len(glued.domain) == 6 + 8 * 1
    z2 = AbelianGroup([2])
    dl = diagram_lineq(2, z2)
    spots = canonical_embeddings(dl.base, 2).members
    glued = build_JC(dl, 2, Coloring.from_encoding(spots, 0b0110))
    assert len(glued.domain) == 4 + 4 * 2


def test_build_jc_blowup_is_induced_and_lifts_check():
    d = diagram_Fn(2)
    emb = canonical_embeddings(d.base, 2)
    coloring = Coloring.from_encoding(emb.members, 0b0101)
    glued = build_JC(d, 2, coloring)
    assert core.induced_substructure(glued, emb.target.domain) == emb.target
    for spot in emb.members:
        hat = ElementMap(d.base.domain, glued.domain, spot.assignment)
        assert check_morphism(hat, d.base, glued, "embedding")
        assert hat.assignment == spot.assignment  # spot composed with inclusion


def test_build_jc_matches_iterated_free_amalgam():
    # the skeleton-assembled gluing must agree with literally amalgamating
    # one fresh side copy per spot, up to isomorphism
    d = diagram_Fn(2)
    spots = canonical_embeddings(d.base, 2).members
    for enc in (0b0000, 0b0110, 0b1111):
        coloring = Coloring.from_encoding(spots, enc)
        glued = build_JC(d, 2, coloring)
        current = canonical_embeddings(d.base, 2).target
        lifted = {spot: dict(spot.assignment) for spot in spots}
        for spot, side in zip(coloring.spots, coloring.sides):
            side_structure = d.left if side == "L" else d.right
            side_emb = d.left_emb if side == "L" else d.right_emb
            hat = ElementMap(d.base.domain, current.domain, lifted[spot])
            res = core.free_amalgam(d.base, hat, current, side_emb, side_structure)
            for other in spots:
                lifted[other] = {
                    a: res.left_injection[lifted[other][a]] for a in d.base.domain
                }
            current = res.amalgam
        assert is_isomorphic(glued, current)


# SHA-256 of the canonical JSON list of glued structures, recorded before the
# glue skeleton rendered its side copies once per diagram; the lineq digest
# was re-pinned when its right copies' fresh names took the ``'`` run that
# keeps them apart from the left copies' (the structures are otherwise equal)
JC_SHA256 = {
    ("lineq2", tuple(range(16))): "26cc0f6809d907e5d29fe8d2c8e6cc91b8040ff4f825b2451393ec4e22477eef",
    ("F4", (0,)): "de780b22828beb663c2314cfddf466ad50ad66ab3423c87329386f9a8e4f30ab",
    ("F4", (0xFFFF,)): "a2de77d8f1bbae47eabef982fc4148603629a64c8e9a62b6fd2b3afbcdb015c1",
    ("F4", (0xB6A5,)): "e5773d4d0ef0db229fd0d216c3ae98b57dc8d9711624e65c7d158a5f849438a8",
}


@pytest.mark.parametrize("name, encodings", sorted(JC_SHA256))
def test_build_jc_bytes_pinned(name, encodings):
    d = diagram_lineq(2, AbelianGroup([2])) if name == "lineq2" else diagram_Fn(4)
    spots = canonical_embeddings(d.base, 2).members
    docs = [
        cli.structure_to_doc(build_JC(d, 2, Coloring.from_encoding(spots, enc)))
        for enc in encodings
    ]
    digest = hashlib.sha256(cli.dump_canonical(docs).encode("utf-8")).hexdigest()
    assert digest == JC_SHA256[name, encodings]


@pytest.mark.parametrize("n", range(21))
def test_from_encoding_decodes_bit_i_as_spot_i(n):
    spots = canonical_embeddings(diagram_Fn(2).base, 5).members[:n]
    low = (1 << n) - 1
    pattern = 0xB6A5_3C1F_9E7 & low
    encodings = [0, 1 & low, low, pattern, pattern | 0b1011 << n, 1 << n + 7, -1, -2, -pattern - 1]
    for enc in encodings:
        coloring = Coloring.from_encoding(spots, enc)
        assert coloring.spots is spots
        assert coloring.sides == tuple("R" if enc >> i & 1 else "L" for i in range(n))
    assert Coloring.from_encoding(list(spots), pattern).spots == spots


GLUE_PATH_CASES = {
    "lineq2": (diagram_lineq(2, AbelianGroup([2])), range(16)),
    "F4": (diagram_Fn(4), (0, 0xFFFF, 0xB6A5, 0x06C3)),
}


@pytest.mark.parametrize("name", sorted(GLUE_PATH_CASES))
def test_build_jc_by_position_matches_by_spot(name):
    # a coloring over the skeleton's own spots reads its copies by position;
    # a copied spot tuple, the spots in reverse order and a partial coloring
    # look each spot up, and must glue the same structures
    d, encodings = GLUE_PATH_CASES[name]
    spots = d.skeleton(2).spots
    for enc in encodings:
        own = Coloring.from_encoding(spots, enc)
        assert own.spots is spots
        glued = build_JC(d, 2, own)
        copied = Coloring.from_encoding(tuple(list(spots)), enc)
        assert copied.spots is not spots
        assert build_JC(d, 2, copied) == glued
        backwards = Coloring(spots[::-1], own.sides[::-1])
        assert build_JC(d, 2, backwards) == glued
        partial = Coloring(spots[1::2], own.sides[1::2])
        assert build_JC(d, 2, partial) == reference_build_JC(d, 2, partial)


def test_skeleton_is_memoised_per_m_and_pickled(monkeypatch):
    d = diagram_Fn(2)
    two = d.skeleton(2)
    assert d.skeleton(2) is two and d.skeleton(1) is not two
    assert two.spots == canonical_embeddings(d.base, 2).members
    again = pickle.loads(pickle.dumps(d))

    def spy(*args):
        raise AssertionError("skeleton rebuilt after unpickling")

    monkeypatch.setattr(morphisms, "canonical_embeddings", spy)
    assert again == d and again.skeleton(2).spots == two.spots


def test_unpickled_diagram_hashes_as_a_fresh_one_under_another_hash_seed():
    # string hashes depend on PYTHONHASHSEED, so a diagram pickled in one
    # process (say, the parent of spawned workers) must not carry its hash
    # into another
    prelude = "import pickle, sys; from finstruct.families import diagram_Fn; "
    dump = prelude + "sys.stdout.buffer.write(pickle.dumps(diagram_Fn(3)))"
    load = prelude + (
        "d, fresh = pickle.loads(sys.stdin.buffer.read()), diagram_Fn(3); "
        "print(d == fresh, hash(d) == hash(fresh))"
    )

    def run(code, seed, data=None):
        env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONHASHSEED": seed}
        argv = [sys.executable, "-c", code]
        return subprocess.run(argv, env=env, input=data, capture_output=True, check=True).stdout

    pickled = run(dump, "7")
    for seed in ("1", "2"):
        assert run(load, seed, pickled).split() == [b"True", b"True"]


@pytest.mark.parametrize(
    "diagram",
    [diagram_lineq(2, AbelianGroup([2])), diagram_Fn(3), diagram_G(TreeShape.parse("((..).)"))],
    ids=["lineq-z2-n2", "F3", "((..).)"],
)
def test_build_jc_matches_reference_on_every_coloring(diagram):
    skeleton = diagram.skeleton(2)
    spots = skeleton.spots
    for enc in range(1 << len(spots)):
        coloring = Coloring.from_encoding(spots, enc)
        glued = build_JC(diagram, 2, coloring)
        assert glued == reference_build_JC(diagram, 2, coloring)
        assert glued.host is skeleton.all


@pytest.mark.parametrize(
    "diagram",
    [
        diagram_Fn(3),
        diagram_G(TreeShape.parse("((..).)")),
        diagram_G(TreeShape.parse("(..)")),
        diagram_lineq(2, AbelianGroup([2])),
    ],
    ids=["F3", "((..).)", "(..)", "lineq-z2-n2"],
)
def test_j_all_is_the_blowup_and_two_disjoint_copies_per_spot(diagram):
    skeleton = diagram.skeleton(2)
    fresh = len(diagram.left.domain) + len(diagram.right.domain) - 2 * len(diagram.base.domain)
    assert len(skeleton.all.domain) == len(skeleton.j.domain) + len(skeleton.spots) * fresh
    assert list(skeleton.copies) == list(skeleton.spots)
    seen = skeleton.blowup
    for pair in skeleton.copies.values():
        for mask in pair:
            assert not seen & mask
            seen |= mask
    assert seen == skeleton.all.alive


DRAWN_JC_CASES = {
    "F4": (diagram_Fn(4), 2),
    "((..)(..))": (diagram_G(TreeShape.parse("((..)(..))")), 2),
    "F3 m=3": (diagram_Fn(3), 3),
}


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(st.sampled_from(sorted(DRAWN_JC_CASES)), st.data())
def test_build_jc_matches_reference_on_drawn_colorings(name, data):
    diagram, m = DRAWN_JC_CASES[name]
    spots = diagram.skeleton(m).spots
    # a drawn subset of the spots in drawn order, each with a drawn side
    chosen = data.draw(st.permutations(range(len(spots))))[: data.draw(st.integers(0, len(spots)))]
    sides = data.draw(st.lists(st.sampled_from("LR"), min_size=len(chosen), max_size=len(chosen)))
    coloring = Coloring([spots[k] for k in chosen], sides)
    assert build_JC(diagram, m, coloring) == reference_build_JC(diagram, m, coloring)


SKELETON_INPUTS = [
    # the acceptance criteria and the benchmark sweeps
    (diagram_Fn(2), 4),
    (diagram_Fn(3), 3),
    (diagram_Fn(4), 2),
    (diagram_G(TreeShape.parse("(..)")), 4),
    (diagram_G(TreeShape.parse("((..).)")), 2),
    (diagram_G(TreeShape.parse("((..)(..))")), 2),
    (diagram_lineq(2, AbelianGroup([2])), 2),
    (diagram_lineq(2, AbelianGroup([2])), 1),
    # the multiplicity the counting bound asks for
    (diagram_Fn(3), 9),
    (diagram_Fn(4), 9),
    (diagram_G(TreeShape.parse("((..)(..))")), 9),
]


def test_skeleton_budget_admits_every_input():
    for diagram, m in SKELETON_INPUTS:
        assert families._skeleton_size(diagram, m) <= families.SKELETON_LIMIT


def test_skeleton_size_bounds_j_all():
    for diagram, m in SKELETON_INPUTS[:8]:
        j_all = diagram.skeleton(m).all
        size = len(j_all.domain) + sum(len(ts) for _, ts in j_all.relations_items())
        assert size <= families._skeleton_size(diagram, m)


def test_skeleton_budget_refuses_before_any_spot(monkeypatch):
    # F_4 at m=30 has 810,000 spots
    d = diagram_Fn(4)
    assert families._skeleton_size(d, 30) > families.SKELETON_LIMIT

    def spy(*args):
        raise AssertionError("spots built before the budget check")

    monkeypatch.setattr(morphisms, "canonical_embeddings", spy)
    with pytest.raises(BudgetExceeded):
        d.skeleton(30)


def test_gen_pn():
    p1 = gen_Pn(1)
    assert len(p1.domain) == 1
    assert p1.relation("S") == p1.relation("T")
    p3 = gen_Pn(3)
    assert len(p3.domain) == 3 and len(p3.relation("Ed")) == 2
    edge = Structure(
        P_SIGNATURE, ["u", "w"], {"Ed": [("u", "w")], "S": [("u",)], "T": [("w",)]}
    )
    assert find_homomorphism(gen_Pn(2), edge) is not None


def test_io_expansion():
    single = Structure(P_SIGNATURE, ["a"], {"S": [("a",)]})
    expanded = io_expansion(single)
    assert expanded.relation("I") == frozenset({("a",)})
    assert expanded.relation("O") == frozenset()
    three = Structure(
        P_SIGNATURE,
        ["a", "b", "c"],
        {"Ed": [("a", "b")], "S": [("a",)], "T": [("c",)]},
    )
    expanded = io_expansion(three)
    assert {x for (x,) in expanded.relation("I")} == {"a", "b"}
    assert {x for (x,) in expanded.relation("O")} == {"c"}
    bad = Structure(
        P_SIGNATURE, ["a", "b"], {"Ed": [("a", "b")], "S": [("a",)], "T": [("b",)]}
    )
    with pytest.raises(ExcludedPathError) as err:
        io_expansion(bad)
    assert err.value.path == ["a", "b"]


def test_cplus_check():
    three = Structure(
        P_SIGNATURE,
        ["a", "b", "c"],
        {"Ed": [("a", "b")], "S": [("a",)], "T": [("c",)]},
    )
    expanded = io_expansion(three)
    assert cplus_check(expanded)
    # an escape edge from the reachable side to the complement breaks it
    broken = core.add_symbols(
        core.reduct(expanded, ("Ed", "S", "T")),
        [("I", 1), ("O", 1)],
        {
            "I": expanded.relation("I"),
            "O": expanded.relation("O"),
        },
    )
    assert cplus_check(broken)
    with_edge = Structure(
        broken.signature,
        broken.domain,
        {
            **{n: broken.relation(n) for n in broken.signature.names},
            "Ed": broken.relation("Ed") | {("b", "c")},
        },
    )
    assert not cplus_check(with_edge)


def test_cplus_closed_under_free_amalgam():
    left = io_expansion(
        Structure(P_SIGNATURE, ["a", "b"], {"Ed": [("a", "b")], "S": [("a",)]})
    )
    right = io_expansion(
        Structure(P_SIGNATURE, ["a", "c"], {"S": [("a",)], "T": [("c",)]})
    )
    shared = core.induced_substructure(left, ["a"])
    f = ElementMap(shared.domain, left.domain, {"a": "a"})
    g = ElementMap(shared.domain, right.domain, {"a": "a"})
    result = core.free_amalgam(shared, f, left, g, right)
    assert cplus_check(result.amalgam)


def test_family_enumerators():
    fn = FnFamily()
    members = list(fn(gen_Fn(4)))
    assert [len(m.domain) for m in members] == [3, 4, 5, 6]
    gf = GFamily()
    assert [len(m.domain) for m in islice(gf(gen_G(TreeShape.balanced(3))), 8)] == [4, 6, 6, 8, 8, 8, 8, 8]
    pn = PnFamily()
    assert [len(m.domain) for m in pn(gen_Pn(3))] == [1, 2, 3]
