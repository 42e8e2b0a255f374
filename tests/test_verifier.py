"""Oracles, amalgamation-failure witnessing, confusion sweeps, collisions."""

from __future__ import annotations

import hashlib
import pickle
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from finstruct import cli, consistency, core, morphisms, verifier
from finstruct.consistency import BudgetExceeded
from finstruct.core import ElementMap, Structure, StructureError, pullback, quotient
from finstruct.families import (
    AbelianGroup,
    Coloring,
    Diagram,
    FnFamily,
    FN_SIGNATURE,
    GFamily,
    G_SIGNATURE,
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
    io_expansion,
    marking,
    tree_instance,
)
from finstruct.morphisms import canonical_embeddings, find_homomorphism
from finstruct.rng import SplitMix64
from oracles import mixed_structures, reference_build_JC, reference_next_bits, standalone_copy
from finstruct.verifier import (
    ClassOracle,
    ExpansionSpec,
    antichain,
    check_confusion,
    collision_search,
    consistency_oracle,
    forbh_oracle,
    homogenization_probe,
    random_expansion,
    witnesses_failure,
)

Z2 = AbelianGroup([2])
T2 = build_template(Z2)


def test_forbh_oracle_fn():
    oracle = forbh_oracle(FnFamily())
    assert not oracle.member(gen_Fn(3))  # the identity maps F_3 in
    no_source = Structure(FN_SIGNATURE, ["x"], {"R": [("x",)]})
    assert oracle.member(no_source)
    d = diagram_Fn(3)
    spots = canonical_embeddings(d.base, 2).members
    glued = build_JC(d, 2, Coloring.from_encoding(spots, 0b1010_1010))
    assert oracle.member(glued)
    assert oracle.explain(gen_Fn(3)) is not None
    assert oracle.explain(no_source) is None


def test_forbh_oracle_substructure_monotone():
    oracle = forbh_oracle(FnFamily())
    member = diagram_Fn(4).left  # no blue vertex, so no F_k maps in
    assert oracle.member(member)
    sub = core.induced_substructure(member, list(member.domain)[:3])
    assert oracle.member(sub)


def test_forbh_oracle_agrees_with_single_member_check():
    oracle = forbh_oracle(FnFamily())
    d = diagram_Fn(3)
    spots = canonical_embeddings(d.base, 2).members
    f3 = gen_Fn(3)
    for enc in (0, 0b11111111, 0b1100_0011, 0b0101_0101):
        glued = build_JC(d, 2, Coloring.from_encoding(spots, enc))
        assert oracle.member(glued) == (find_homomorphism(f3, glued) is None)


def test_forbh_oracle_catches_folded_members():
    # each member here has more elements than the input and maps in only by
    # folding, so a member bound of |input| elements would miss it
    folded_fn = Structure(
        FN_SIGNATURE,
        ["x", "y"],
        {"R": [("x",)], "B": [("x",)], "S": [("y",)], "T": [("y",)], "E": [("x", "y"), ("y", "x")]},
    )
    fn = forbh_oracle(FnFamily())
    assert not fn.member(folded_fn)
    assert fn.explain(folded_fn) == "member of size 3 maps in via {'blue': 'x', 'red': 'x', 'v1': 'y'}"
    folded_g = Structure(
        G_SIGNATURE,
        ["x", "y"],
        {
            "B": [("x",)],
            "R": [("y",)],
            "Ed0": [("y", "y")],
            "Ed1": [("y", "y")],
            "E": [("x", "y"), ("y", "x")],
        },
    )
    g = forbh_oracle(GFamily())
    assert not g.member(folded_g)
    assert g.explain(folded_g) == (
        "member of size 4 maps in via {'blue': 'x', 't': 'y', 't0': 'y', 't1': 'y'}"
    )


# Far more members than the families yield for the small inputs below.
REFERENCE_MEMBERS = {
    FnFamily: [gen_Fn(n) for n in range(1, 9)],
    PnFamily: [gen_Pn(n) for n in range(1, 9)],
    GFamily: [gen_G(shape) for leaves in range(2, 9) for shape in TreeShape.all_shapes(leaves)],
}


@st.composite
def family_inputs(draw):
    """A family and an input of its signature: at most 4 elements, 3 for trees.

    Half the inputs carry every unary label, so that their membership turns
    on the binary relations alone.
    """
    family = draw(st.sampled_from([FnFamily, PnFamily, GFamily]))
    signature = REFERENCE_MEMBERS[family][0].signature
    domain = [f"x{i}" for i in range(draw(st.integers(1, 3 if family is GFamily else 4)))]
    labelled = draw(st.booleans())
    relations = {
        name: draw(
            st.sets(
                st.sampled_from(list(product(domain, repeat=arity))),
                min_size=1 if labelled and arity == 1 else 0,
            )
        )
        for name, arity in signature.symbols
    }
    return family, Structure(signature, domain, relations)


# an acyclic input that a tree member maps into, which random draws of at
# most 3 elements rarely give
ACYCLIC_G_NON_MEMBER = Structure(
    G_SIGNATURE,
    ["x", "y", "z"],
    {
        "B": [("x",)],
        "R": [("y",)],
        "Ed0": [("y", "z")],
        "Ed1": [("y", "z")],
        "E": [("x", "z"), ("z", "x")],
    },
)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(family_inputs())
@example((GFamily, ACYCLIC_G_NON_MEMBER))
def test_forbh_member_bound_matches_reference(case):
    family, s = case
    oracle = forbh_oracle(family())
    first = None
    for member in REFERENCE_MEMBERS[family]:
        hom = find_homomorphism(member, s)
        if hom is not None:
            first = f"member of size {len(member.domain)} maps in via {dict(hom.items())}"
            break
    assert oracle.member(s) == (first is None)
    assert oracle.explain(s) == first


def test_forbh_g_depth_budget():
    # an Ed0 loop makes the walks unbounded, so the bound falls back to the
    # 5 elements, one more than the deepest tree members enumerated
    domain = ["a", "b", "c", "d", "e"]
    cyclic = Structure(G_SIGNATURE, domain, {"Ed0": [("a", "a")]})
    with pytest.raises(BudgetExceeded):
        forbh_oracle(GFamily()).member(cyclic)


# Witness strings recorded before the member bounds were derived from the input.
PINNED_WITNESSES = {
    "F_3": "member of size 5 maps in via "
    "{'blue': 'blue', 'red': 'red', 'v1': 'v1', 'v2': 'v2', 'v3': 'v3'}",
    "Fn3 free amalgam": "member of size 5 maps in via "
    "{'blue': 'r.blue', 'red': 'l.red', 'v1': 'l.v1', 'v2': 'l.v2', 'v3': 'l.v3'}",
    "G((..)(..)) free amalgam": "member of size 8 maps in via "
    "{'blue': 'r.blue', 't': 'l.t', 't0': 'l.t0', 't00': 'l.t00', 't01': 'l.t01', "
    "'t1': 'l.t1', 't10': 'l.t10', 't11': 'l.t11'}",
}


def test_forbh_witness_bytes_pinned():
    fn = forbh_oracle(FnFamily())
    g = forbh_oracle(GFamily())
    tree = diagram_G(TreeShape.parse("((..)(..))"))
    assert {
        "F_3": fn.explain(gen_Fn(3)),
        "Fn3 free amalgam": fn.explain(diagram_Fn(3).free_amalgam().amalgam),
        "G((..)(..)) free amalgam": g.explain(tree.free_amalgam().amalgam),
    } == PINNED_WITNESSES


def test_consistency_oracle():
    oracle = consistency_oracle(T2, 2, 3)
    assert oracle.member(marking(tree_instance(2), (0,), Z2))
    amalgam = diagram_lineq(4, Z2).free_amalgam().amalgam
    assert not oracle.member(amalgam)
    empty = Structure(T2.signature, [], {})
    assert oracle.member(empty)


def test_witnesses_failure():
    assert witnesses_failure(diagram_Fn(3), forbh_oracle(FnFamily()))
    assert witnesses_failure(diagram_lineq(4, Z2), consistency_oracle(T2, 2, 3))
    # a span whose free amalgam stays in the class does not witness failure
    point = Structure(FN_SIGNATURE, ["x"], {})
    from finstruct.families import Diagram

    ident = ElementMap.identity(point.domain)
    degenerate = Diagram(point, point, point, ident, ident)
    assert not witnesses_failure(degenerate, forbh_oracle(FnFamily()))


def test_witnesses_failure_requires_membership():
    from finstruct.families import Diagram

    f3 = gen_Fn(3)
    d = diagram_Fn(3)
    bad = Diagram(d.base, d.left, f3, d.left_emb, ElementMap(
        d.base.domain, f3.domain, {x: x for x in d.base.domain}
    ))
    with pytest.raises(StructureError):
        witnesses_failure(bad, forbh_oracle(FnFamily()))


def test_quotients_of_failing_amalgam_stay_outside():
    d = diagram_Fn(3)
    free = d.free_amalgam().amalgam
    # quotients fold the path into Ed-cycles; the family then bounds its
    # members by the quotient's own size
    oracle = forbh_oracle(FnFamily())
    assert witnesses_failure(d, oracle)
    rng = SplitMix64(11)
    for _ in range(5):
        blocks: dict[int, list[str]] = {}
        count = 1 + rng.next_below(len(free.domain))
        for x in free.domain:
            blocks.setdefault(rng.next_below(count), []).append(x)
        glued, _ = quotient(free, list(blocks.values()))
        assert not oracle.member(glued)


def test_check_confusion_small_fn():
    d = diagram_Fn(2)
    oracle = forbh_oracle(FnFamily())
    report = check_confusion(d, 2, oracle)
    assert report.colorings_tested == 16
    assert report.verdict and not report.failures
    doc = report.to_dict()
    assert doc["verdict"] is True and doc["colorings_tested"] == 16


def test_check_confusion_exhaustive_budget():
    d = diagram_Fn(3)
    oracle = forbh_oracle(FnFamily())
    with pytest.raises(BudgetExceeded):
        check_confusion(d, 3, oracle)  # 27 spots > 20


def test_check_confusion_exhaustive_budget_before_spots(monkeypatch):
    # the refusal must come from the spot count m^|A|, not from built spots
    def spy(*args):
        raise AssertionError("canonical embeddings built before the budget check")

    monkeypatch.setattr(morphisms, "canonical_embeddings", spy)
    monkeypatch.setattr(verifier, "canonical_embeddings", spy, raising=False)
    with pytest.raises(BudgetExceeded):
        check_confusion(diagram_Fn(3), 3, forbh_oracle(FnFamily()))


def test_check_confusion_sample_mode_deterministic():
    d = diagram_Fn(3)
    oracle = forbh_oracle(FnFamily())
    one = check_confusion(d, 2, oracle, mode="sample", samples=20, seed=42)
    two = check_confusion(d, 2, oracle, mode="sample", samples=20, seed=42)
    assert one.to_dict() == two.to_dict()
    assert one.colorings_tested == 20
    with pytest.raises(StructureError):
        check_confusion(d, 2, oracle, mode="sample", samples=0)
    with pytest.raises(StructureError):
        check_confusion(d, 2, oracle, mode="bogus")


def test_check_confusion_sample_budget_before_drawing(monkeypatch):
    def spy(*args):
        raise AssertionError("encodings drawn before the sample budget check")

    monkeypatch.setattr(verifier, "SplitMix64", spy)
    with pytest.raises(BudgetExceeded):
        check_confusion(
            diagram_Fn(3), 2, forbh_oracle(FnFamily()), mode="sample",
            samples=verifier.SAMPLE_LIMIT + 1,
        )


def test_pickled_diagram_carries_no_index_after_a_sweep():
    d = diagram_Fn(3)
    oracle = forbh_oracle(FnFamily())
    report = check_confusion(d, 2, oracle, jobs=1).to_dict()
    j_all = d.skeleton(2).all
    assert j_all._index is not None  # the sweep indexed J_all
    fresh = diagram_Fn(3)
    fresh.skeleton(2)
    data = pickle.dumps(d)
    assert len(data) == len(pickle.dumps(fresh))
    again = pickle.loads(data)
    skeleton = again.skeleton(2)
    for s in (again.base, again.left, again.right, skeleton.j, skeleton.all):
        assert s._index is None and s._positions is None
    assert check_confusion(again, 2, oracle, jobs=1).to_dict() == report


def _rename_fresh(d: Diagram, side: str, old: str, new: str) -> Diagram:
    """``d`` with the fresh element ``old`` of its ``side`` (``"L"`` or ``"R"``) renamed ``new``."""
    part, emb = (d.left, d.left_emb) if side == "L" else (d.right, d.right_emb)
    name = {x: new if x == old else x for x in part.domain}
    part = Structure(
        part.signature,
        [name[x] for x in part.domain],
        {r: [tuple(name[x] for x in t) for t in ts] for r, ts in part.relations_items()},
    )
    emb = ElementMap(d.base.domain, part.domain, {a: name[emb[a]] for a in d.base.domain})
    if side == "L":
        return Diagram(d.base, part, d.right, emb, d.right_emb)
    return Diagram(d.base, d.left, part, d.left_emb, emb)


SHARED_FRESH_CASES = {
    # the right apex named like the left one
    "F3 blue->red": (_rename_fresh(diagram_Fn(3), "R", "blue", "red"), forbh_oracle(FnFamily())),
    # the blue vertex named like the root of the tree
    "((..).) blue->t": (
        _rename_fresh(diagram_G(TreeShape.parse("((..).)")), "R", "blue", "t"),
        forbh_oracle(GFamily()),
    ),
    # as above, and an inner node named like the root with one quote, so
    # the right copies need two
    "((..).) t0->'t, blue->t": (
        _rename_fresh(
            _rename_fresh(diagram_G(TreeShape.parse("((..).)")), "L", "t0", "'t"), "R", "blue", "t"
        ),
        forbh_oracle(GFamily()),
    ),
    # both markings share every inner node of the tree
    "lineq Z2 n=2": (
        diagram_lineq(2, AbelianGroup([2])),
        consistency_oracle(build_template(AbelianGroup([2])), 2, 3),
    ),
}


def _plain_union(d: Diagram, m: int, coloring: Coloring) -> Structure:
    """The blow-up joined with one side copy per colored spot, a fresh x of
    the copy at spot k named ``#k.x`` whichever its side: there is one copy
    per spot, so no two copies share a name."""
    emb = canonical_embeddings(d.base, m)
    assert not any("#" in x for x in emb.target.domain)
    index = {spot: k for k, spot in enumerate(emb.members)}
    domain = list(emb.target.domain)
    rels = {name: set(ts) for name, ts in emb.target.relations_items()}
    for spot, side in zip(coloring.spots, coloring.sides):
        part, side_emb = (d.left, d.left_emb) if side == "L" else (d.right, d.right_emb)
        name = {x: f"#{index[spot]}.{x}" for x in part.domain}
        name.update({side_emb[a]: spot[a] for a in d.base.domain})
        domain.extend(name.values())
        for rel, ts in part.relations_items():
            rels[rel].update(tuple(map(name.__getitem__, t)) for t in ts)
    return Structure(d.base.signature, domain, rels)


@pytest.mark.parametrize("name", sorted(SHARED_FRESH_CASES))
def test_shared_fresh_identifier_keeps_copies_apart(name):
    # the L and R copies at one spot take distinct names in J_all, so every
    # J_C is a view of it; it must equal the reference, be the plain union
    # of its copies up to isomorphism, and get that union's verdict and
    # explanation, up to the names in the map an explanation shows
    d, oracle = SHARED_FRESH_CASES[name]
    skeleton = d.skeleton(2)
    assert isinstance(skeleton.all, Structure)
    spots = skeleton.spots
    for enc in range(1 << len(spots)):
        coloring = Coloring.from_encoding(spots, enc)
        glued = build_JC(d, 2, coloring)
        reference = reference_build_JC(d, 2, coloring)
        plain = _plain_union(d, 2, coloring)
        assert glued.host is skeleton.all and glued == reference
        assert morphisms.is_isomorphic(glued, plain)
        assert oracle.member(glued) == oracle.member(reference) == oracle.member(plain)
        why, plain_why = oracle.explain(glued), oracle.explain(plain)
        assert why == oracle.explain(reference)
        assert (why is None) == (plain_why is None)
        if why is not None:
            assert why.split(" via ")[0] == plain_why.split(" via ")[0]


class FixedMembers:
    """A family that yields the same members for every input: a hand-made
    Forb_h class.  A class at module level, so that workers can unpickle it."""

    def __init__(self, members):
        self.members = tuple(members)

    def __call__(self, s):
        return iter(self.members)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(
    mixed_structures(max_size=5),
    st.lists(mixed_structures(max_size=3), min_size=1, max_size=3),
    st.data(),
)
def test_forbh_on_views_matches_standalone_copies(host, members, data):
    # one oracle answers several views of one host from the host's images;
    # each verdict and witness must be that of a structure built on its own
    oracle = forbh_oracle(FixedMembers(members))
    for _ in range(3):
        alive = data.draw(st.integers(0, (1 << len(host.domain)) - 1))
        view = core.induced_on_mask(host, alive)
        copy = standalone_copy(host, alive)
        assert view.host is host and copy.host is copy
        assert oracle.member(view) == oracle.member(copy)
        assert oracle.explain(view) == oracle.explain(copy)


DIRECTED = ("Ed", "Ed0", "Ed1")


@st.composite
def family_hosts(draw):
    """A family and a host of its signature with at most 5 elements.

    Half the hosts draw their directed relations forward only, from x_i to
    x_j with i < j, so they are acyclic and often taller than their views;
    the others are often cyclic.  Each directed or unary relation holds at
    most 4 tuples.  Half the hosts relate every pair by E, so that a family
    member maps in whenever the directed relations and the labels allow.
    """
    family = draw(st.sampled_from([FnFamily, PnFamily, GFamily]))
    signature = REFERENCE_MEMBERS[family][0].signature
    domain = [f"x{i}" for i in range(draw(st.integers(1, 5)))]
    forward = draw(st.booleans())
    dense = draw(st.booleans())
    relations = {}
    for name, arity in signature.symbols:
        tuples = list(product(domain, repeat=arity))
        if forward and name in DIRECTED:
            tuples = [(u, v) for u, v in tuples if u < v]
        if dense and name == "E":
            relations[name] = tuples
        elif tuples:
            relations[name] = draw(st.sets(st.sampled_from(tuples), max_size=4))
    return family, Structure(signature, domain, relations)


def forbh_outcome(oracle: ClassOracle, s: Structure):
    """``member`` and ``explain`` on ``s``, or the message of their refusal."""
    try:
        return oracle.member(s), oracle.explain(s)
    except BudgetExceeded as refusal:
        return str(refusal)


# an Ed path a -> b -> c: the host has height 2 and its view on a, b has 1
TALL_P_HOST = Structure(
    P_SIGNATURE, ["a", "b", "c"], {"Ed": [("a", "b"), ("b", "c")], "S": [("a",)], "T": [("b",)]}
)
TALL_F_HOST = Structure(
    FN_SIGNATURE,
    ["a", "b", "blue", "c", "red"],
    {
        "Ed": [("a", "b"), ("b", "c")],
        "S": [("a",)],
        "T": [("b",)],
        "R": [("red",)],
        "B": [("blue",)],
        "E": [(x, c) for x in "ab" for c in ("blue", "red")]
        + [(c, x) for x in "ab" for c in ("blue", "red")],
    },
)
# an Ed 2-cycle a <-> b: cyclic, while its view on a, c, d has height 1
CYCLIC_P_HOST = Structure(
    P_SIGNATURE,
    ["a", "b", "c", "d"],
    {"Ed": [("a", "b"), ("b", "a"), ("a", "c")], "S": [("a",)], "T": [("c",)]},
)
# an Ed0 = Ed1 chain x0 -> ... -> x5 of depth 5, above G_MAX_DEPTH, with a
# red root and every node E-adjacent to blue; without x5 the depth is 4
DEEP_G_HOST = Structure(
    G_SIGNATURE,
    ["blue"] + [f"x{i}" for i in range(6)],
    {
        "Ed0": [(f"x{i}", f"x{i + 1}") for i in range(5)],
        "Ed1": [(f"x{i}", f"x{i + 1}") for i in range(5)],
        "R": [("x0",)],
        "B": [("blue",)],
        "E": [("blue", f"x{i}") for i in range(6)] + [(f"x{i}", "blue") for i in range(6)],
    },
)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(family_hosts(), st.lists(st.integers(0, (1 << 5) - 1), min_size=1, max_size=3))
# masks over the host's sorted domain
@example((PnFamily, TALL_P_HOST), [0b011, 0b110])
@example((FnFamily, TALL_F_HOST), [0b11011, 0b01011])
@example((PnFamily, CYCLIC_P_HOST), [0b1101, 0b0011, 0b1001])
@example((GFamily, DEEP_G_HOST), [0b0111111, 0b0000111])
def test_forbh_bounds_views_by_their_hosts(case, masks):
    # the families bound a view by its host's height where the host allows;
    # each verdict, witness and refusal must be that of the standalone copy,
    # which is bounded by its own height
    family, host = case
    oracle = forbh_oracle(family())
    for alive in [host.alive] + masks:
        alive &= host.alive
        view = core.induced_on_mask(host, alive)
        copy = standalone_copy(host, alive)
        assert forbh_outcome(oracle, view) == forbh_outcome(forbh_oracle(family()), copy)


def test_families_read_the_host_height_once():
    # the tall hosts bound their views by the host's height 2, kept on the
    # host's index; the cyclic and the too deep host bound them by their own
    view = core.induced_on_mask(TALL_P_HOST, 0b011)
    assert core.height(view, ("Ed",)) == 1
    assert [len(p.domain) for p in PnFamily()(view)] == [1, 2, 3]
    assert TALL_P_HOST.mask_index().heights == {("Ed",): 2}
    fn_view = core.induced_on_mask(TALL_F_HOST, 0b11011)
    assert [len(f.domain) - 2 for f in FnFamily()(fn_view)] == [1, 2, 3]
    acyclic = core.induced_on_mask(CYCLIC_P_HOST, 0b1101)
    assert [len(p.domain) for p in PnFamily()(acyclic)] == [1, 2]
    assert CYCLIC_P_HOST.mask_index().heights == {("Ed",): None}
    shallow = core.induced_on_mask(DEEP_G_HOST, 0b0111111)
    assert len(list(GFamily()(shallow))) == len(GFamily().members_of_depth(4))
    with pytest.raises(BudgetExceeded):
        list(GFamily()(DEEP_G_HOST))
    assert forbh_oracle(GFamily()).explain(shallow) == (
        "member of size 4 maps in via {'blue': 'blue', 't': 'x0', 't0': 'x1', 't1': 'x1'}"
    )


RED_BLUE_NEIGHBOUR = Structure(
    FN_SIGNATURE,
    ["r", "b", "v"],
    {"R": [("r",)], "B": [("b",)], "E": [("r", "v"), ("v", "r"), ("b", "v"), ("v", "b")]},
)
RED_EDGE_BLUE = Structure(
    FN_SIGNATURE,
    ["r", "v", "w", "b"],
    {
        "R": [("r",)],
        "B": [("b",)],
        "Ed": [("v", "w")],
        "E": [("r", "v"), ("v", "r"), ("w", "b"), ("b", "w")],
    },
)
TWO_REDS_NEIGHBOUR = Structure(
    FN_SIGNATURE,
    ["r1", "r2", "v"],
    {"R": [("r1",), ("r2",)], "E": [("r1", "v"), ("v", "r1"), ("r2", "v"), ("v", "r2")]},
)
RED_ROOT_ED1_CHILD_BLUE = Structure(
    G_SIGNATURE,
    ["r", "c", "b"],
    {"R": [("r",)], "B": [("b",)], "Ed1": [("r", "c")], "E": [("c", "b"), ("b", "c")]},
)
# (diagram, the one member forbidden, failing colorings at m=2)
FAILING_SWEEPS = {
    "F_2 red and blue share a neighbour": (diagram_Fn(2), RED_BLUE_NEIGHBOUR, 14),
    "F_3 red and blue share a neighbour": (diagram_Fn(3), RED_BLUE_NEIGHBOUR, 254),
    "F_3 red-v Ed w-blue": (diagram_Fn(3), RED_EDGE_BLUE, 254),
    "F_2 two reds share a neighbour": (diagram_Fn(2), TWO_REDS_NEIGHBOUR, 15),
    "(..) red root's Ed1 child sees blue": (
        diagram_G(TreeShape.parse("(..)")),
        RED_ROOT_ED1_CHILD_BLUE,
        12,
    ),
    "((..).) red root's Ed1 child sees blue": (
        diagram_G(TreeShape.parse("((..).)")),
        RED_ROOT_ED1_CHILD_BLUE,
        252,
    ),
}


def reference_failures(d: Diagram, m: int, oracle: ClassOracle) -> list:
    """Failing encodings and their evidence, each glued structure rebuilt on its own."""
    spots = d.skeleton(m).spots
    failures = []
    for enc in range(1 << len(spots)):
        reference = reference_build_JC(d, m, Coloring.from_encoding(spots, enc))
        assert reference.host is reference
        if not oracle.member(reference):
            failures.append((enc, oracle.explain(reference)))
    return failures


@pytest.mark.parametrize("name", sorted(FAILING_SWEEPS))
def test_failing_sweeps_on_views_match_reference_build(name):
    # every J_C is a view of J_all, answered from J_all's images
    d, member, count = FAILING_SWEEPS[name]
    oracle = forbh_oracle(FixedMembers([member]))
    spots = d.skeleton(2).spots
    failures = []
    for enc in range(1 << len(spots)):
        glued = build_JC(d, 2, Coloring.from_encoding(spots, enc))
        assert glued.host is d.skeleton(2).all
        if not oracle.member(glued):
            failures.append((enc, oracle.explain(glued)))
    assert len(failures) == count
    assert failures == reference_failures(d, 2, oracle)


def test_failing_sweep_across_workers_matches_reference_build():
    # each worker unpickles the oracle without its memo and rebuilds it
    d, member, count = FAILING_SWEEPS["F_3 red and blue share a neighbour"]
    oracle = forbh_oracle(FixedMembers([member]))
    one = check_confusion(d, 2, oracle, jobs=1)
    two = check_confusion(d, 2, oracle, jobs=2)
    assert one.to_dict() == two.to_dict()
    assert list(two.failures) == reference_failures(d, 2, oracle) and len(two.failures) == count


def test_forbh_images_live_on_each_host_outside_pickles(monkeypatch):
    # each J_all keeps its members' images beside its heights, so a second
    # sweep of F_3 after one of F_2 searches neither J_all again, and the
    # oracle holds no host
    searched = []
    real_image_masks = morphisms.HomomorphismSearcher.image_masks

    def image_masks(self, source):
        searched.append(self.target)
        return real_image_masks(self, source)

    monkeypatch.setattr(morphisms.HomomorphismSearcher, "image_masks", image_masks)
    family = FixedMembers([RED_BLUE_NEIGHBOUR])
    oracle = forbh_oracle(family)
    f3, f2 = diagram_Fn(3), diagram_Fn(2)
    for d, searches in ((f3, 1), (f2, 1), (f3, 0)):
        host = d.skeleton(2).all
        searched.clear()
        report = check_confusion(d, 2, oracle, jobs=1)
        assert sum(target is host for target in searched) == searches
        assert host.mask_index().images.keys() == {RED_BLUE_NEIGHBOUR}
        assert list(report.failures) == reference_failures(d, 2, oracle)
        assert len(pickle.dumps(oracle)) == len(pickle.dumps(forbh_oracle(family)))
    for d in (f3, f2):
        host = d.skeleton(2).all
        assert host.mask_index().images.keys() == {RED_BLUE_NEIGHBOUR}
        assert pickle.loads(pickle.dumps(host)).mask_index().images == {}


def test_failing_forbh_sweep_walks_the_family_once_per_decision(monkeypatch):
    # a failing coloring's evidence is what its membership test found, so
    # the family is walked once for each of the 16 colorings and for each of
    # the base, the two sides and the free amalgam
    walks = []
    real_call = FixedMembers.__call__

    def walk(self, s):
        walks.append(s)
        return real_call(self, s)

    monkeypatch.setattr(FixedMembers, "__call__", walk)
    oracle = forbh_oracle(FixedMembers([RED_BLUE_NEIGHBOUR]))
    report = check_confusion(diagram_Fn(2), 2, oracle, jobs=1)
    assert report.colorings_tested == 16 and len(report.failures) == 14
    assert len(walks) == 16 + 4


def test_check_confusion_parallel_matches_sequential():
    d = diagram_Fn(2)
    oracle = forbh_oracle(FnFamily())
    seq = check_confusion(d, 2, oracle, jobs=1)
    par = check_confusion(d, 2, oracle, jobs=2)
    assert seq.to_dict() == par.to_dict()


def test_fanout_cuts_at_most_one_contiguous_share_per_worker(monkeypatch):
    # each share unpickles J_all and searches its images once, so a sweep
    # over jobs workers cuts at most jobs shares, in order, covering every
    # encoding once; exhaustive shares stay ranges, which pickle as 3 ints
    seen = []

    class InProcessPool:
        def __init__(self, max_workers):
            self.max_workers = max_workers

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, chunks):
            chunks = list(chunks)
            seen.append((self.max_workers, [encodings for *_, encodings in chunks]))
            return map(fn, chunks)

    monkeypatch.setattr(verifier, "ProcessPoolExecutor", InProcessPool)
    usable = 3
    monkeypatch.setattr(verifier, "usable_cpus", lambda: usable)
    oracle = forbh_oracle(FnFamily())
    f3, f4 = diagram_Fn(3), diagram_Fn(4)
    n_spots = len(f4.skeleton(2).spots)
    rng = SplitMix64(3)
    drawn = [rng.next_bits(n_spots) for _ in range(301)]

    def decoded(share, mode):
        # a sample share is a range of draw indices: seek to its first draw
        if mode["mode"] == "exhaustive":
            return list(share)
        rng = SplitMix64(mode["seed"])
        rng.skip(share.start * n_spots)
        return [rng.next_bits(n_spots) for _ in share]

    cases = [
        (f3, {"mode": "exhaustive"}, list(range(1 << len(f3.skeleton(2).spots)))),
        # 301 draws cut unevenly, so the later shares start mid-stream
        (f4, {"mode": "sample", "samples": 301, "seed": 3}, drawn),
    ]
    for d, mode, encodings in cases:
        one = check_confusion(d, 2, oracle, jobs=1, **mode).to_dict()
        # a pool forks all its workers at once, so --jobs 16384 starts 3
        for jobs in (2, 3, 16384):
            seen.clear()
            assert check_confusion(d, 2, oracle, jobs=jobs, **mode).to_dict() == one
            [(workers, shares)] = seen
            assert workers == min(jobs, usable) and 1 < len(shares) <= workers
            assert all(type(share) is range for share in shares)
            assert [enc for share in shares for enc in decoded(share, mode)] == encodings


@pytest.mark.parametrize(
    "d, m, mode",
    [
        (diagram_Fn(3), 0, {}),
        (diagram_Fn(3), 3, {}),  # 27 spots
        (diagram_Fn(3), 2, {"mode": "sample", "samples": 0}),
        (diagram_Fn(3), 2, {"mode": "sample", "samples": verifier.SAMPLE_LIMIT + 1}),
        (diagram_Fn(3), 2, {"mode": "orbits"}),
        (diagram_Fn(4), 30, {"mode": "sample", "samples": 1}),  # over SKELETON_LIMIT
    ],
    ids=["m=0", "spots", "no-samples", "samples", "mode", "skeleton"],
)
def test_check_confusion_refuses_from_the_arguments_before_deciding(monkeypatch, d, m, mode):
    def decide(diagram, oracle):
        raise AssertionError("a structure was decided before the arguments were checked")

    monkeypatch.setattr(verifier, "witnesses_failure", decide)
    with pytest.raises((StructureError, BudgetExceeded)):
        check_confusion(d, m, forbh_oracle(FnFamily()), **mode)


def test_sample_sweep_draws_one_pass_ahead(monkeypatch):
    # an oracle that raises on the third coloring stops the sweep there; the
    # 1000 samples of F_3's 8 spots are 8000 words, but the sweep drew only
    # the first block of them, one pass of the kernel
    drawn = []
    next_bits = SplitMix64.next_bits

    def counting(self, count):
        drawn.append(count)
        return next_bits(self, count)

    monkeypatch.setattr(SplitMix64, "next_bits", counting)
    calls = []

    def reason(s):
        calls.append(s)
        if len(calls) == 4 + 3:  # base, left, right and free amalgam come first
            raise RuntimeError("third coloring")
        return "free amalgam" if len(calls) == 4 else None  # it is no member

    class Counting(ClassOracle):
        evidence = staticmethod(reason)

    oracle = Counting()
    with pytest.raises(RuntimeError, match="third coloring"):
        check_confusion(diagram_Fn(3), 2, oracle, mode="sample", samples=1000, seed=1)
    assert drawn == [verifier._PASS // 8 * 8]  # one pass: 512 encodings of 8 words


@pytest.mark.parametrize("n_spots", [1, 7, 16, 81, verifier._PASS + 1])
def test_sample_encodings_are_the_per_draw_stream(n_spots):
    # encoding j of a block is the j-th next_bits(n_spots), also in shares
    # that start and end mid-pass
    take = max(1, verifier._PASS // n_spots)
    samples = 2 * take + 3
    stream = SplitMix64(5)
    encodings = [reference_next_bits(stream, n_spots) for _ in range(samples)]
    for start, stop in ((0, samples), (1, samples - 1), (take - 1, take + 2), (take + 2, samples)):
        share = range(start, stop)
        assert list(verifier._encodings(share, 5, n_spots)) == encodings[start:stop]


def test_check_confusion_exhaustive_small_spot_counts():
    # every coloring passes whenever the sweep is exhaustively testable
    oracle = forbh_oracle(FnFamily())
    for n, m in ((2, 2), (2, 3)):
        report = check_confusion(diagram_Fn(n), m, oracle)
        assert report.colorings_tested == 2 ** (m**n)
        assert report.verdict


def test_bounds_cross_link_with_confusion():
    # a confusing diagram of order n plus a minimal multiplicity from the
    # threshold arithmetic; the sweep at that multiplicity is sampled when
    # exhausting it is out of budget
    from finstruct.bounds import BoundsParams, condition_holds, minimal_m

    d = diagram_Fn(2)
    oracle = forbh_oracle(FnFamily())
    m = minimal_m(n=2, r=1, t=0, cap=10**6)
    assert m == 4
    assert condition_holds(BoundsParams(1, 0, 2, m)).verdict
    report = check_confusion(d, m, oracle, mode="sample", samples=48, seed=5)
    assert report.verdict and report.colorings_tested == 48


def test_check_confusion_reports_failures():
    # lineq(2) at m=2: odd-parity colorings leave the consistent class
    d = diagram_lineq(2, Z2)
    oracle = consistency_oracle(T2, 2, 3)
    report = check_confusion(d, 2, oracle)
    assert report.colorings_tested == 16
    failed = {enc for enc, _ in report.failures}
    assert failed == {enc for enc in range(16) if bin(enc).count("1") % 2 == 1}
    assert not report.verdict


# SHA-256 of the lineq Z2 n=2 sweep's report at m=2, as ``confuse`` prints it
LINEQ2_REPORT_SHA256 = "4f878a8fbd742b38fe4c7b324a18588ffa605d5d83321e5d7d3696fcb9c3860a"
# SHA-256 of the report of F_4's sweep at m=2 over 700 samples of seed 3
# (11,200 words, more than two passes of the kernel), as ``confuse`` prints it
F4_SAMPLE_REPORT_SHA256 = "bfba422443931e4d6cb75f732e57c9e76d8e7c5ea4c878b25928f89faed3a69c"


@pytest.mark.parametrize("jobs", [1, 3])
def test_multi_pass_sample_report_is_pinned(jobs):
    # under several workers the later shares start mid-pass
    oracle = forbh_oracle(FnFamily())
    report = check_confusion(diagram_Fn(4), 2, oracle, mode="sample", samples=700, seed=3, jobs=jobs)
    text = cli.dump_canonical(report.to_dict())
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == F4_SAMPLE_REPORT_SHA256


def test_failing_consistency_sweep_runs_one_fixpoint_per_coloring(monkeypatch):
    # a failing coloring's evidence reads the verdict its membership call has
    # just found: one fixpoint for each of the 16 colorings and for each of
    # the base, the two sides and the free amalgam, all on the k-element
    # tables, as l = k + 1
    runs = {consistency._Fixpoint: [], consistency._KSetFixpoint: []}
    for engine, calls in runs.items():

        def run(self, real_run=engine.run, calls=calls):
            calls.append(self)
            return real_run(self)

        monkeypatch.setattr(engine, "run", run)
    report = check_confusion(diagram_lineq(2, Z2), 2, consistency_oracle(T2, 2, 3), jobs=1)
    assert len(runs[consistency._KSetFixpoint]) == 20
    assert runs[consistency._Fixpoint] == []
    text = cli.dump_canonical(report.to_dict())
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == LINEQ2_REPORT_SHA256


def test_consistency_sweep_across_workers_matches_one_process():
    # each worker unpickles the oracle without its evidence memo
    d = diagram_lineq(2, Z2)
    oracle = consistency_oracle(T2, 2, 3)
    one = check_confusion(d, 2, oracle, jobs=1).to_dict()
    assert oracle._last[0] is not None
    assert len(pickle.dumps(oracle)) == len(pickle.dumps(consistency_oracle(T2, 2, 3)))
    assert pickle.loads(pickle.dumps(oracle))._last == (None, None)
    assert check_confusion(d, 2, oracle, jobs=2).to_dict() == one


def test_oracles_pickle():
    # empty structures are members of both built-in classes
    for oracle, sig in (
        (forbh_oracle(FnFamily()), FN_SIGNATURE),
        (consistency_oracle(T2, 2, 3), T2.signature),
    ):
        clone = pickle.loads(pickle.dumps(oracle))
        assert clone.member(Structure(sig, [], {}))


def test_antichain():
    assert antichain([gen_Fn(3), gen_Fn(4), gen_Fn(5)])
    assert not antichain([gen_Fn(3), gen_Fn(3)])
    shapes = TreeShape.all_shapes(4)
    assert len(shapes) == 5
    assert antichain([gen_G(s) for s in shapes])


@pytest.mark.parametrize("seed", [0, 9, (1 << 64) - 1])
def test_random_expansion_draws_each_tuple_in_product_order(seed):
    # bit i of a predicate's draw decides its i-th candidate tuple, as one
    # next_bit() per tuple did
    f3 = gen_Fn(3)
    for t in range(4):
        for r in range(1, 4):
            expansion = random_expansion(f3, ExpansionSpec(t, r, seed))
            stream = SplitMix64(seed)
            for j in range(1, t + 1):
                candidates = product(f3.domain, repeat=(j - 1) % r + 1)
                chosen = {tup for tup in candidates if stream.next_bit()}
                assert expansion.relation(f"Q{j}") == chosen


def test_random_expansion():
    f3 = gen_Fn(3)
    unchanged = random_expansion(f3, ExpansionSpec(0, 1, seed=3))
    assert unchanged == f3
    one = random_expansion(f3, ExpansionSpec(2, 2, seed=9))
    two = random_expansion(f3, ExpansionSpec(2, 2, seed=9))
    assert one == two
    assert one.signature.arity("Q1") == 1
    assert one.signature.arity("Q2") == 2
    assert core.reduct(one, FN_SIGNATURE.names) == f3
    with pytest.raises(StructureError):
        ExpansionSpec(-1, 1, 0)
    with pytest.raises(StructureError):
        ExpansionSpec(1, 0, 0)


def test_collision_search_trivial_cases():
    d = diagram_Fn(3)
    spots = canonical_embeddings(d.base, 3).members
    constant = Coloring.from_encoding(spots, 0)
    glued = build_JC(d, 3, constant)
    assert collision_search(d, 3, constant, glued) is None
    mixed = Coloring.from_encoding(spots, 0b1)
    glued = build_JC(d, 3, mixed)
    pair = collision_search(d, 3, mixed, glued)
    assert pair is not None
    pi, sigma = pair
    assert mixed.of(pi) != mixed.of(sigma)


def test_collision_search_verified_on_random_expansions():
    d = diagram_Fn(3)
    spots = canonical_embeddings(d.base, 3).members
    rng = SplitMix64(123)
    for trial in range(3):
        coloring = Coloring.from_encoding(spots, rng.next_bits(len(spots)))
        glued = build_JC(d, 3, coloring)
        expansion = random_expansion(glued, ExpansionSpec(2, 1, seed=trial))
        pair = collision_search(d, 3, coloring, expansion)
        if pair is None:
            continue
        pi, sigma = pair
        hat_pi = ElementMap(d.base.domain, expansion.domain, pi.assignment)
        hat_sigma = ElementMap(d.base.domain, expansion.domain, sigma.assignment)
        assert pullback(hat_pi, expansion) == pullback(hat_sigma, expansion)
        assert coloring.of(pi) != coloring.of(sigma)


def test_collision_search_domain_mismatch():
    d = diagram_Fn(3)
    spots = canonical_embeddings(d.base, 2).members
    coloring = Coloring.from_encoding(spots, 0b1)
    with pytest.raises(StructureError):
        collision_search(d, 2, coloring, gen_Fn(3))


def test_homogenization_probe_basics():
    from finstruct.families import P_SIGNATURE

    single = Structure(P_SIGNATURE, ["a"], {"S": [("a",)]})
    assert homogenization_probe([single], seed=5)
    fragments = [
        Structure(
            P_SIGNATURE,
            ["a", "b", "c"],
            {"Ed": [("a", "b")], "S": [("a",)], "T": [("c",)]},
        ),
        Structure(P_SIGNATURE, ["u", "w"], {"Ed": [("u", "w")], "T": [("u",)]}),
    ]
    assert homogenization_probe(fragments, seed=17, trials=12)
    bad = Structure(
        P_SIGNATURE, ["a", "b"], {"Ed": [("a", "b")], "S": [("a",)], "T": [("b",)]}
    )
    with pytest.raises(StructureError):
        homogenization_probe([bad], seed=1)


def test_homogenization_probe_filters_label_mismatches():
    from finstruct.families import P_SIGNATURE

    # one expansion puts its element inside, the other outside; every trial
    # that tries to identify them is skipped by the embedding check
    inside = Structure(P_SIGNATURE, ["a"], {"S": [("a",)]})
    outside = Structure(P_SIGNATURE, ["a"], {"T": [("a",)]})
    assert homogenization_probe([inside, outside], seed=3, trials=24)
