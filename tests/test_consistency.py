"""The consistency fixpoint against the independent game-search oracle."""

from __future__ import annotations

import hashlib
import io
import tracemalloc

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from oracles import (
    MIXED,
    game_consistent,
    mixed_structures,
    partial_homomorphism_tables,
    reference_run,
)

from finstruct import cli, consistency
from finstruct.consistency import (
    BudgetExceeded,
    GameTrace,
    TraceNode,
    inverse_hom_transfer,
    is_consistent,
    kl_family,
    spoiler_trace,
    validate_family,
    validate_trace,
)
from finstruct.core import ElementMap, Structure, StructureError
from finstruct.families import (
    AbelianGroup,
    Coloring,
    build_JC,
    build_template,
    diagram_lineq,
    gen_Pn,
    marking,
    template_signature,
    tree_instance,
)
from finstruct.morphisms import canonical_embeddings, find_homomorphism

Z2 = AbelianGroup([2])
Z3 = AbelianGroup([3])
T2 = build_template(Z2)


def conflicted_point() -> Structure:
    """One element carrying both constant labels: no partial homomorphism."""
    sig = template_signature(Z2)
    return Structure(
        sig, ["a"], {"value": [("a",)], "C_0": [("a",)], "C_1": [("a",)]}
    )


def lineq_amalgam(n: int, group: AbelianGroup = Z2) -> Structure:
    return diagram_lineq(n, group).free_amalgam().amalgam


def test_kl_family_absent_on_conflicted_point():
    assert kl_family(conflicted_point(), T2, 2, 3) is None
    assert not is_consistent(conflicted_point(), T2, 2, 3)


def test_kl_family_present_on_solvable_instance():
    marked = marking(tree_instance(2), (0,), Z2)
    family = kl_family(marked, T2, 2, 3)
    assert family is not None
    assert validate_family(family)
    # the two solutions appear among the full-size assignments of the leaves
    leaves = ("n0", "n1")
    values = {tuple(v) for v in family.table[leaves]}
    assert ("0", "0") in values and ("1", "1") in values


def test_kl_family_absent_on_free_amalgam():
    assert kl_family(lineq_amalgam(4), T2, 2, 3) is None


def test_is_consistent_examples():
    assert is_consistent(marking(tree_instance(4), (1,), Z2), T2, 2, 3)
    assert not is_consistent(conflicted_point(), T2, 2, 3)
    assert not is_consistent(lineq_amalgam(4), T2, 2, 3)
    empty = Structure(template_signature(Z2), [], {})
    assert is_consistent(empty, T2, 2, 3)


def test_arg_validation():
    with pytest.raises(StructureError):
        is_consistent(T2, T2, 0, 3)
    with pytest.raises(StructureError):
        is_consistent(T2, T2, 3, 2)
    from finstruct.core import SignatureMismatch
    from finstruct.families import gen_Fn

    with pytest.raises(SignatureMismatch):
        is_consistent(gen_Fn(2), T2, 2, 3)


def test_solvability_implies_consistency():
    for n in (2, 4):
        for group in (Z2, AbelianGroup([3])):
            template = build_template(group)
            marked = marking(tree_instance(n), group.first_nonzero(), group)
            assert find_homomorphism(marked, template) is not None
            for k, l in ((1, 1), (1, 2), (2, 2), (2, 3), (3, 3)):
                assert is_consistent(marked, template, k, l)


def test_monotonicity_in_k_and_l():
    amalgam = lineq_amalgam(2)
    verdicts = {
        (k, l): is_consistent(amalgam, T2, k, l)
        for k, l in ((1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (2, 4), (3, 3), (3, 4))
    }
    for (k1, l1), v1 in verdicts.items():
        for (k2, l2), v2 in verdicts.items():
            if not v1 and k2 >= k1 and l2 >= l1:
                assert not v2


def test_game_oracle_agreement():
    instances = [
        marking(tree_instance(2), (0,), Z2),
        marking(tree_instance(2), (1,), Z2),
        conflicted_point(),
        lineq_amalgam(2),
        marking(tree_instance(4), (0,), Z2),
    ]
    for inst in instances:
        for k, l in ((1, 2), (2, 2), (2, 3)):
            assert is_consistent(inst, T2, k, l) == game_consistent(inst, T2, k, l)


def test_spoiler_trace_none_when_consistent():
    marked = marking(tree_instance(2), (0,), Z2)
    assert spoiler_trace(marked, T2, 2, 3) is None


def test_spoiler_trace_depth_one():
    trace = spoiler_trace(conflicted_point(), T2, 2, 3)
    assert trace is not None
    assert trace.root.action == "extend"
    assert trace.root.target == ("a",)
    assert trace.root.children == ()
    assert validate_trace(trace, conflicted_point(), T2, 2, 3)


def test_spoiler_trace_round_trip():
    for n in (2, 4):
        amalgam = lineq_amalgam(n)
        trace = spoiler_trace(amalgam, T2, 2, 3)
        assert trace is not None
        assert validate_trace(trace, amalgam, T2, 2, 3)


def test_validate_trace_rejects_mutations():
    amalgam = lineq_amalgam(2)
    trace = spoiler_trace(amalgam, T2, 2, 3)
    assert trace is not None

    node = _find(trace.root, lambda n: n.action == "extend" and len(n.children) > 1)
    assert node is not None
    # dropping one duplicator reply leaves the tree incomplete
    pruned = TraceNode(
        node.pebbles, node.values, node.action, node.target, node.children[1:]
    )

    def rebuild(current):
        if current is node:
            return pruned
        children = tuple(
            (values, rebuild(child)) for values, child in current.children
        )
        return TraceNode(
            current.pebbles, current.values, current.action, current.target, children
        )

    mutated = GameTrace(rebuild(trace.root))
    assert not validate_trace(mutated, amalgam, T2, 2, 3)
    # pretending a leaf where replies exist is also rejected
    stuck = TraceNode(node.pebbles, node.values, node.action, node.target, ())
    mutated = GameTrace(
        rebuild(trace.root) if node is trace.root else _swap(trace.root, node, stuck)
    )
    assert not validate_trace(mutated, amalgam, T2, 2, 3)
    # a child whose values differ from its reply: the first reply leads to
    # the second reply's position
    (reply, _), (_, other) = node.children[:2]
    crossed = TraceNode(
        node.pebbles, node.values, node.action, node.target,
        ((reply, other),) + node.children[1:],
    )
    assert not validate_trace(GameTrace(_swap(trace.root, node, crossed)), amalgam, T2, 2, 3)
    # a retraction to another lost position on the same pebbles, which is
    # not the restriction of its own (the n=2 strategy never retracts)
    amalgam4 = lineq_amalgam(4)
    trace4 = spoiler_trace(amalgam4, T2, 2, 3)
    assert trace4 is not None
    retract = _find(trace4.root, lambda n: n.action == "retract")
    assert retract is not None
    ((_, child),) = retract.children
    moved = _find(trace4.root, lambda n: n.pebbles == child.pebbles and n.values != child.values)
    assert moved is not None
    bad_retract = TraceNode(
        retract.pebbles, retract.values, "retract", retract.target, ((moved.values, moved),)
    )
    assert validate_trace(trace4, amalgam4, T2, 2, 3)
    assert not validate_trace(
        GameTrace(_swap(trace4.root, retract, bad_retract)), amalgam4, T2, 2, 3
    )
    # a root that already holds values
    root = trace.root
    assert not validate_trace(
        GameTrace(TraceNode((), (T2.domain[0],), root.action, root.target, root.children)),
        amalgam, T2, 2, 3,
    )


def test_validate_trace_rejects_unknown_target():
    # a target element outside the instance is refused, not looked up
    stray = GameTrace(TraceNode((), (), "extend", ("a", "zz"), ()))
    assert not validate_trace(stray, conflicted_point(), T2, 2, 3)


def _find(node, wanted):
    """The first node, depth first, that ``wanted`` accepts."""
    if wanted(node):
        return node
    for _, child in node.children:
        hit = _find(child, wanted)
        if hit is not None:
            return hit
    return None


def _swap(current, old, new):
    if current is old:
        return new
    children = tuple((values, _swap(child, old, new)) for values, child in current.children)
    return TraceNode(current.pebbles, current.values, current.action, current.target, children)


def test_inverse_hom_transfer_identity():
    marked = marking(tree_instance(2), (0,), Z2)
    family = kl_family(marked, T2, 2, 3)
    moved = inverse_hom_transfer(marked, ElementMap.identity(marked.domain), family)
    assert moved.table == family.table
    assert validate_family(moved)


def test_inverse_hom_transfer_collapse():
    sig = template_signature(Z2)
    two = Structure(sig, ["a", "b"], {"value": [("a",), ("b",)]})
    one = Structure(sig, ["c"], {"value": [("c",)]})
    family = kl_family(one, T2, 2, 3)
    collapse = ElementMap(two.domain, one.domain, {"a": "c", "b": "c"})
    moved = inverse_hom_transfer(two, collapse, family)
    assert validate_family(moved)
    assert moved.instance == two
    # both elements inherit the single point's surviving values
    assert moved.table[("a",)] == family.table[("c",)]


def test_inverse_hom_transfer_from_quotient_projection():
    # gluing two identically-marked trees along their leaves stays solvable,
    # and so does collapsing the two roots; the projection then transfers the
    # quotient's family back onto the glued structure
    from finstruct.core import free_amalgam, induced_substructure, quotient
    from finstruct.families import tree_leaves

    marked = marking(tree_instance(2), (0,), Z2)
    leaves = tree_leaves(tree_instance(2))
    base = induced_substructure(marked, leaves)
    inclusion = ElementMap(base.domain, marked.domain, {x: x for x in leaves})
    glued = free_amalgam(base, inclusion, marked, inclusion, marked).amalgam
    assert find_homomorphism(glued, T2) is not None
    roots = [x for x in glued.domain if x.endswith(".n")]
    blocks = [[x] for x in glued.domain if x not in roots] + [roots]
    collapsed, projection = quotient(glued, blocks)
    family = kl_family(collapsed, T2, 2, 3)
    assert family is not None
    moved = inverse_hom_transfer(glued, projection, family)
    assert validate_family(moved)
    assert moved.instance == glued


def test_inverse_hom_transfer_rejects_non_hom():
    marked = marking(tree_instance(2), (0,), Z2)
    family = kl_family(marked, T2, 2, 3)
    sig = template_signature(Z2)
    other = Structure(sig, ["x"], {"value": [("x",)], "C_1": [("x",)]})
    bad = ElementMap(other.domain, marked.domain, {"x": "n"})  # C_1 not preserved
    with pytest.raises(StructureError):
        inverse_hom_transfer(other, bad, family)


def test_budget_guard(monkeypatch):
    monkeypatch.setattr(consistency, "MEMORY_CAP", 100_000)
    with pytest.raises(BudgetExceeded):
        kl_family(lineq_amalgam(4), T2, 2, 3)


def test_neighbour_lists_are_counted_as_run_builds_them(monkeypatch):
    # before the up lists were taken from the budget as ``run`` builds them,
    # the count from the arguments for this path at (1,3) was 931,908 bytes,
    # as if every subset would be popped; now it is 583,990
    monkeypatch.setattr(consistency, "MEMORY_CAP", 750_000)
    assert not is_consistent(gen_Pn(20), gen_Pn(1), 1, 3)
    monkeypatch.undo()
    fix = consistency._Fixpoint(lineq_amalgam(2), T2, 2, 4)
    built = consistency.MEMORY_CAP - fix.left
    assert not fix.run()
    assert consistency.MEMORY_CAP - fix.left > built


@pytest.mark.parametrize("trace", [False, True], ids=["plain", "traced"])
@pytest.mark.parametrize(
    "n, group", [(2, Z2), (4, Z2), (8, Z2), (4, AbelianGroup([3]))], ids=["Z2-2", "Z2-4", "Z2-8", "Z3-4"]
)
def test_counted_bytes_bound_the_engine_peak(n, group, trace):
    # the budget's count, from the arguments, the tables and the trace's
    # nodes, is at least what the engine holds at its peak
    a, b = lineq_amalgam(n, group), build_template(group)
    spoiler_trace(a, b, 2, 3)  # index both structures' relations first
    tracemalloc.start()
    try:
        fix = consistency._Fixpoint(a, b, 2, 3, trace=trace)
        initial = list(fix.table)
        if not fix.run() and trace:
            fix.build_trace(initial)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert consistency.MEMORY_CAP - fix.left >= peak


def lineq2_colorings() -> list[Structure]:
    """The 16 glued J_C of the lineq Z2 n=2 diagram at m=2, 8 of them
    solvable."""
    d = diagram_lineq(2, Z2)
    spots = canonical_embeddings(d.base, 2).members
    return [build_JC(d, 2, Coloring.from_encoding(spots, enc)) for enc in range(16)]


@pytest.mark.parametrize(
    "instance, group",
    [(lineq_amalgam(2), Z2), (lineq_amalgam(4), Z2), (lineq_amalgam(8), Z2), (lineq_amalgam(4, Z3), Z3)]
    + [(jc, Z2) for jc in lineq2_colorings()[:2]],
    ids=["Z2-2", "Z2-4", "Z2-8", "Z3-4", "JC-0", "JC-1"],
)
@pytest.mark.parametrize("k", [2, 3])
def test_counted_bytes_bound_the_kset_engine_peak(instance, group, k):
    # the same bound for the (k,k+1) engine: its count from the arguments
    # and its deletion log's are at least its peak
    b = build_template(group)
    is_consistent(instance, b, 1, 2)  # index both structures' relations first
    tracemalloc.start()
    try:
        fix = consistency._KSetFixpoint(instance, b, k)
        fix.run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert consistency.MEMORY_CAP - fix.left >= peak


def test_kset_engine_refuses_from_the_arguments(monkeypatch):
    # the count refuses before any subset is listed, and a (k,k+1) run the
    # other engine refuses at once is decided within the cap
    monkeypatch.setattr(consistency, "MEMORY_CAP", 100_000)
    with pytest.raises(BudgetExceeded, match="subsets"):
        is_consistent(lineq_amalgam(8), T2, 2, 3)
    monkeypatch.undo()
    with pytest.raises(BudgetExceeded):
        consistency._Fixpoint(lineq_amalgam(8), T2, 4, 5)
    assert not is_consistent(lineq_amalgam(4), T2, 4, 5)


def test_each_count_refuses_where_it_is_made(monkeypatch):
    # the arguments' count refuses before the tables, the deletion log's
    # right after them, and the trace's nodes after the fixpoint
    a = lineq_amalgam(4)
    fix = consistency._Fixpoint(a, T2, 2, 3, trace=True)
    logged = consistency.MEMORY_CAP - fix.left
    initial = list(fix.table)
    assert not fix.run()
    fix.build_trace(initial)
    total = consistency.MEMORY_CAP - fix.left
    monkeypatch.setattr(consistency, "MEMORY_CAP", total)
    assert spoiler_trace(a, T2, 2, 3) is not None
    for cap, stage in [(total - 1, "trace"), (logged - 1, "deletion log"), (100_000, "subsets")]:
        monkeypatch.setattr(consistency, "MEMORY_CAP", cap)
        with pytest.raises(BudgetExceeded, match=stage):
            spoiler_trace(a, T2, 2, 3)


def test_spoiler_trace_on_a_large_lineq_amalgam():
    # Z2xZ2 n=8 holds 3.7 million initial entries at (2,3)
    z22 = AbelianGroup([2, 2])
    a, b = lineq_amalgam(8, z22), build_template(z22)
    trace = spoiler_trace(a, b, 2, 3)
    assert trace is not None and validate_trace(trace, a, b, 2, 3)


UNARY = tuple(name for name, arity in T2.signature.symbols if arity == 1)
BINARY = tuple(name for name, arity in T2.signature.symbols if arity == 2)


@st.composite
def z2_instances(draw) -> Structure:
    """Up to four elements with random unary labels and pi-edges."""
    domain = [f"x{i}" for i in range(draw(st.integers(1, 4)))]
    element = st.sampled_from(domain)
    relations: dict[str, list[tuple[str, ...]]] = {name: [] for name in UNARY + BINARY}
    for name, x in draw(st.lists(st.tuples(st.sampled_from(UNARY), element), max_size=4)):
        relations[name].append((x,))
    for name, x, y in draw(
        st.lists(st.tuples(st.sampled_from(BINARY), element, element), max_size=6)
    ):
        relations[name].append((x, y))
    return Structure(T2.signature, domain, relations)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(z2_instances(), st.sampled_from([(1, 1), (1, 2), (1, 3), (2, 2), (2, 3)]))
def test_fixpoint_matches_game_oracle(instance, kl):
    k, l = kl
    consistent = is_consistent(instance, T2, k, l)
    assert consistent == game_consistent(instance, T2, k, l)
    family = kl_family(instance, T2, k, l)
    assert (family is not None) == consistent
    if family is not None:
        assert validate_family(family)
    else:
        trace = spoiler_trace(instance, T2, k, l)
        assert trace is not None and validate_trace(trace, instance, T2, k, l)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(
    mixed_structures(),
    st.one_of(st.just(Structure(MIXED, [], {})), mixed_structures()),
    st.integers(1, 3),
)
def test_initial_tables_match_brute_force(instance, template, l):
    fix = consistency._Fixpoint(instance, template, 1, l)
    base = max(len(template.domain), 1)
    digit = {v: i for i, v in enumerate(template.domain)}
    expected = {
        subset: sum(1 << sum(digit[v] * base**r for r, v in enumerate(values)) for values in rows)
        for subset, rows in partial_homomorphism_tables(instance, template, l).items()
    }
    got = {
        tuple(instance.domain[e] for e in elems): table
        for elems, table in zip(fix.subset_elems, fix.table)
    }
    assert got == expected


# a batch of restriction deaths whose later members skipped their support
# checks left an entry of the pair {x1, x6} alive here
BATCH_CASE = (
    Structure(MIXED, ["x1", "x4", "x5", "x6"], {"E": [("x5", "x1")], "T": [("x6", "x5", "x4")]}),
    Structure(
        MIXED,
        ["x0", "x1", "x2", "x3"],
        {
            "E": [("x0", "x3"), ("x2", "x1"), ("x3", "x2")],
            "T": [("x0", "x3", "x2"), ("x2", "x0", "x1")],
        },
    ),
    (2, 3),
)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(mixed_structures(), mixed_structures(), st.sampled_from([(1, 2), (2, 3), (3, 4)]))
@example(*BATCH_CASE)
def test_kset_engine_matches_fixpoint(instance, template, kl):
    # a run that ends consistent holds the greatest fixpoint, so the
    # engines' tables of at most k elements agree too
    k, l = kl
    fast, slow = consistency._KSetFixpoint(instance, template, k), consistency._Fixpoint(instance, template, k, l)
    consistent = fast.run()
    assert consistent == slow.run()
    if consistent:
        assert [tables[0] for tables in fast.copies[1:]] == slow.table[1 : len(fast.copies)]


@st.composite
def planted_z2_instances(draw) -> Structure:
    """``z2_instances``, half of them cut down to the tuples that one drawn
    map into T2 preserves, so that those are solvable, hence consistent."""
    instance = draw(z2_instances())
    if not draw(st.booleans()):
        return instance
    values = st.sampled_from(T2.domain)
    image = dict(zip(instance.domain, draw(st.lists(values, min_size=4, max_size=4))))
    relations = {
        name: [t for t in ts if tuple(map(image.__getitem__, t)) in T2.relation(name)]
        for name, ts in instance.relations_items()
    }
    return Structure(T2.signature, instance.domain, relations)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(planted_z2_instances(), st.sampled_from([(1, 2), (2, 3)]))
def test_kset_engine_matches_game_oracle(instance, kl):
    k, l = kl
    assert consistency._KSetFixpoint(instance, T2, k).run() == game_consistent(instance, T2, k, l)


@pytest.mark.parametrize("k", [2, 3])
def test_kset_engine_on_the_lineq_sweep(k):
    # the 16 J_C of the lineq Z2 n=2 sweep at m=2: the solvable ones are
    # consistent, and both engines agree on every one
    for enc, jc in enumerate(lineq2_colorings()):
        consistent = consistency._KSetFixpoint(jc, T2, k).run()
        assert consistent == consistency._Fixpoint(jc, T2, k, k + 1).run()
        if bin(enc).count("1") % 2 == 0:
            assert consistent
    for enc in (0, 1):  # one consistent, one not; the game is slow on 12 elements
        jc = lineq2_colorings()[enc]
        assert consistency._KSetFixpoint(jc, T2, 2).run() == game_consistent(jc, T2, 2, 3)


@pytest.mark.parametrize("group, n", [(Z2, 2), (Z2, 4), (Z3, 2)], ids=["Z2-2", "Z2-4", "Z3-2"])
@pytest.mark.parametrize("k", [2, 3])
def test_kset_engine_on_lineq_amalgams(group, n, k):
    a, b = lineq_amalgam(n, group), build_template(group)
    verdict = consistency._KSetFixpoint(a, b, k).run()
    assert verdict == consistency._Fixpoint(a, b, k, k + 1).run()
    if n == 2:
        assert verdict == game_consistent(a, b, k, k + 1)


def expand_deaths(fix) -> list[tuple[tuple[int, int], tuple]]:
    """The fixpoint's death log as ``[((s_id, h), reason)]``, in deletion
    order, with the reasons ``_Fixpoint.reasons`` derives."""
    reason = fix.reasons()
    return [(entry, reason(*entry)) for entry in (divmod(key, fix.span) for key in fix.deaths)]


def assert_same_deletions(instance: Structure, template: Structure, k: int, l: int) -> None:
    """``_Fixpoint.run`` deletes what the reference loop deletes, in the same
    order, on the verdict and the trace path; on the trace path the derived
    reasons are the ones the reference records."""
    for trace in (False, True):
        fast, slow = (consistency._Fixpoint(instance, template, k, l, trace) for _ in range(2))
        consistent, reasons = reference_run(slow)
        assert fast.run() == consistent
        assert fast.table == slow.table
        if trace:
            assert expand_deaths(fast) == list(reasons.items())
        else:
            assert [divmod(key, fast.span) for key in fast.deaths] == list(reasons)


KL_UP_TO_3_4 = [(k, l) for k in range(1, 4) for l in range(k, 5)]


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(mixed_structures(), mixed_structures(), st.sampled_from(KL_UP_TO_3_4))
def test_run_matches_reference_deletions(instance, template, kl):
    assert_same_deletions(instance, template, *kl)


@pytest.mark.parametrize("group, n", [(Z2, 2), (Z2, 4), (AbelianGroup([3]), 2)])
@pytest.mark.parametrize("kl", [(2, 3), (2, 4), (2, 2), (3, 3)])
def test_run_matches_reference_deletions_on_lineq(group, n, kl):
    assert_same_deletions(lineq_amalgam(n, group), build_template(group), *kl)


# templates of 12 and 20 elements, so restriction batches are wide
@pytest.mark.parametrize("group, n", [(AbelianGroup([3]), 4), (AbelianGroup([2, 2]), 2)])
def test_run_matches_reference_deletions_on_wide_lineq_batches(group, n):
    assert_same_deletions(lineq_amalgam(n, group), build_template(group), 2, 3)


# SHA-256 of the canonical trace documents of the lineq Z2 free amalgams at
# (2,3); any change to the deletion order or reasons changes these bytes
TRACE_SHA256 = {
    2: "37f5a41c35f0a8d9aa8e7f8d0f2fb54abc8530534b8fba4fc069537bb7584215",
    4: "830c1c80e340b4f1f1ce9c91e744204231eea84c46b4c31399fc5875548724f6",
}


@pytest.mark.parametrize("n", sorted(TRACE_SHA256))
def test_trace_bytes_pinned(n):
    trace = spoiler_trace(lineq_amalgam(n), T2, 2, 3)
    assert trace is not None
    text = cli.dump_canonical(cli._trace_to_doc(trace.root))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == TRACE_SHA256[n]


@pytest.mark.parametrize("n", sorted(TRACE_SHA256))
def test_cli_trace_bytes_pinned(tmp_path, capsys, n):
    amalgam, template, out = tmp_path / "am.json", tmp_path / "t2.json", tmp_path / "trace.json"
    amalgam.write_text(cli.dump_canonical(cli.structure_to_doc(lineq_amalgam(n))))
    template.write_text(cli.dump_canonical(cli.structure_to_doc(T2)))
    argv = ["consist", str(amalgam), str(template), "--k", "2", "--l", "3"]
    assert cli.main(argv + ["--trace", str(out)]) == 1
    assert capsys.readouterr().out == "inconsistent\n"
    assert hashlib.sha256(out.read_bytes()).hexdigest() == TRACE_SHA256[n]

    assert cli.main(argv + ["--trace", "-"]) == 1
    assert capsys.readouterr().out == out.read_text(encoding="utf-8") + "inconsistent\n"


def test_verdict_paths_record_no_reasons(monkeypatch):
    fixpoints = []
    real_run = consistency._Fixpoint.run

    def run(self):
        fixpoints.append(self)
        return real_run(self)

    monkeypatch.setattr(consistency._Fixpoint, "run", run)
    amalgam = lineq_amalgam(2)
    # (2,3) verdicts run on the k-element tables, so the verdict path is
    # checked at (2,4)
    assert not is_consistent(amalgam, T2, 2, 4)
    assert kl_family(amalgam, T2, 2, 3) is None
    assert kl_family(marking(tree_instance(2), (0,), Z2), T2, 2, 3) is not None
    assert len(fixpoints) == 3 and all(fix.unsupported is None for fix in fixpoints)
    assert spoiler_trace(amalgam, T2, 2, 3) is not None
    assert fixpoints[-1].unsupported


def _write_trace_text(root: TraceNode) -> str:
    out = io.StringIO()
    cli._write_trace(out, root)
    return out.getvalue()


# identifier characters the JSON escaper treats specially, or that are not ASCII
ODD_NAMES = st.text(alphabet='x"\\\té\u2028', min_size=1, max_size=3)


def relabel(s: Structure, names: list[str]) -> Structure:
    rename = dict(zip(s.domain, names))
    relations = {
        name: [tuple(rename[x] for x in t) for t in ts] for name, ts in s.relations_items()
    }
    return Structure(s.signature, names, relations)


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(
    z2_instances(),
    st.lists(ODD_NAMES, min_size=4, max_size=4, unique=True),
    st.lists(ODD_NAMES, min_size=len(T2.domain), max_size=len(T2.domain), unique=True),
    st.sampled_from([(1, 1), (1, 2), (2, 2), (2, 3)]),
)
def test_write_trace_matches_document(instance, names, template_names, kl):
    instance = relabel(instance, names[: len(instance.domain)])
    template = relabel(T2, template_names)
    trace = spoiler_trace(instance, template, *kl)
    assume(trace is not None)
    expected = cli.dump_canonical(cli._trace_to_doc(trace.root))
    assert _write_trace_text(trace.root) == expected


ODD_TUPLES = st.lists(ODD_NAMES, max_size=3).map(tuple)
ACTIONS = st.sampled_from(["extend", "retract"])
TRACE_LEAVES = st.builds(TraceNode, ODD_TUPLES, ODD_TUPLES, ACTIONS, ODD_TUPLES, st.just(()))
TRACE_TREES = st.recursive(
    TRACE_LEAVES,
    lambda nodes: st.builds(
        TraceNode,
        ODD_TUPLES,
        ODD_TUPLES,
        ACTIONS,
        ODD_TUPLES,
        st.lists(st.tuples(ODD_TUPLES, nodes), max_size=3).map(tuple),
    ),
    max_leaves=12,
)
EMPTY_LEAF = TraceNode((), (), "extend", (), ())


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(TRACE_TREES)
@example(EMPTY_LEAF)
@example(TraceNode((), (), "extend", ("a",), (((), EMPTY_LEAF), (("0",), EMPTY_LEAF))))
def test_write_trace_matches_document_hand_built(root):
    assert _write_trace_text(root) == cli.dump_canonical(cli._trace_to_doc(root))
