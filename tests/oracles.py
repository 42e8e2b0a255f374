"""Independent brute-force oracles the tests check the library against.

Nothing here reuses the library's search or fixpoint machinery: maps are
enumerated as raw products and checked against the definitions directly,
and the game oracle computes the spoiler-win set as a least fixpoint over
the explicit move graph.  ``mixed_structures`` and ``two_relations`` draw
the small random structures the property tests feed to both sides;
``standalone_copy`` gives a host's substructure on a mask as a structure
built and checked on its own, to compare views against.

Three exceptions are the library's earlier, plainer forms, kept to check
the faster ones against: ``reference_run``, the (k,l) fixpoint's deletion
loop without its shortcuts, which ``_Fixpoint.run`` must match deletion for
deletion, with every reason recorded (it borrows the fixpoint's tables and
masks, but lists supersets on its own, with ``plain_supersets``);
``reference_build_JC``, the glued structure rebuilt as a union and checked
through ``Structure``, its copies named by the rule it states itself;
``reference_height``, the topological sweep for the longest walk; and
``reference_next_bits``, the one-word-per-bit loop that
``SplitMix64.next_bits`` computes lane-parallel.
"""

from __future__ import annotations

from collections import deque
from itertools import combinations, product
from typing import Optional

from hypothesis import strategies as st

from finstruct.consistency import _bits
from finstruct.core import ElementMap, Signature, Structure
from finstruct.families import AbelianGroup, Coloring, Diagram, TreeShape
from finstruct.morphisms import canonical_embeddings, check_partial_homomorphism

MIXED = Signature([("U", 1), ("E", 2), ("T", 3)])
TWO_BINARY = Signature([("E", 2), ("F", 2)])


@st.composite
def mixed_structures(draw, max_size: int = 4) -> Structure:
    """Up to max_size elements with random unary, binary (loops too) and ternary tuples."""
    domain = [f"x{i}" for i in range(draw(st.integers(1, max_size)))]
    element = st.sampled_from(domain)
    return Structure(
        MIXED,
        domain,
        {
            "U": draw(st.lists(st.tuples(element), max_size=3)),
            "E": draw(st.lists(st.tuples(element, element), max_size=5)),
            "T": draw(st.lists(st.tuples(element, element, element), max_size=3)),
        },
    )


@st.composite
def two_relations(draw) -> Structure:
    """Up to 3 elements with two binary relations, each any subset of all
    pairs, loops included: a prefix of drawn length of the pairs in a drawn
    order.  Dense relations, 2-cycles and two constraints on one pair are
    then common, unlike in ``mixed_structures``."""
    domain = [f"x{i}" for i in range(draw(st.integers(1, 3)))]
    pairs = list(product(domain, repeat=2))

    def relation() -> list[tuple[str, str]]:
        return draw(st.permutations(pairs))[: draw(st.integers(0, len(pairs)))]

    return Structure(TWO_BINARY, domain, {"E": relation(), "F": relation()})


def preserves_tuples(assign: dict[str, str], a: Structure, b: Structure) -> bool:
    for name, ts in a.relations_items():
        rb = b.relation(name)
        for t in ts:
            if all(x in assign for x in t):
                if tuple(assign[x] for x in t) not in rb:
                    return False
    return True


def reflects_tuples(assign: dict[str, str], a: Structure, b: Structure) -> bool:
    """No tuple outside R^A maps into R^B, for a total map."""
    for name, arity in a.signature.symbols:
        ra, rb = a.relation(name), b.relation(name)
        for t in product(a.domain, repeat=arity):
            if t not in ra and tuple(assign[x] for x in t) in rb:
                return False
    return True


def morphism_kinds(assign: dict[str, str], a: Structure, b: Structure) -> dict[str, bool]:
    """For a total map, whether it is each kind of morphism, by the definitions."""
    hom = preserves_tuples(assign, a, b)
    strong = hom and reflects_tuples(assign, a, b)
    injective = len(set(assign.values())) == len(assign)
    surjective = set(assign.values()) == set(b.domain)
    return {
        "homomorphism": hom,
        "monomorphism": hom and injective,
        "embedding": strong and injective,
        "strong-homomorphism": strong,
        "isomorphism": strong and injective and surjective,
    }


def all_maps(a: Structure, b: Structure) -> list[dict[str, str]]:
    """Every total map, in lexicographic order of the values over the sorted domain."""
    return [dict(zip(a.domain, choice)) for choice in product(b.domain, repeat=len(a.domain))]


def all_homomorphisms(a: Structure, b: Structure) -> list[dict[str, str]]:
    """Every total homomorphism, by filtering the full map product."""
    return [assign for assign in all_maps(a, b) if preserves_tuples(assign, a, b)]


def all_partial_homomorphisms(a: Structure, b: Structure, max_size: int):
    """Every partial homomorphism with domain size at most max_size."""
    for size in range(min(max_size, len(a.domain)) + 1):
        for subset in combinations(a.domain, size):
            for choice in product(b.domain, repeat=size):
                assign = dict(zip(subset, choice))
                if preserves_tuples(assign, a, b):
                    yield assign


def partial_homomorphism_tables(
    a: Structure, b: Structure, max_size: int
) -> dict[tuple[str, ...], list[tuple[str, ...]]]:
    """For each subset of at most max_size elements (a sorted identifier
    tuple), every assignment of it that check_partial_homomorphism accepts,
    as value tuples aligned with the subset."""
    tables = {}
    for size in range(min(max_size, len(a.domain)) + 1):
        for subset in combinations(a.domain, size):
            tables[subset] = [
                values
                for values in product(b.domain, repeat=size)
                if check_partial_homomorphism(
                    ElementMap(a.domain, b.domain, dict(zip(subset, values))), a, b
                )
            ]
    return tables


def game_consistent(a: Structure, b: Structure, k: int, l: int) -> bool:
    """Pebble-game verdict by least-fixpoint spoiler-win computation.

    Positions are partial homomorphisms with at most l pebbles.  Spoiler
    wins a position by retracting to a winning position, or, from at most
    k pebbles, by choosing a superset all of whose partial-homomorphism
    replies are winning (vacuously if none exists).  The instance is
    consistent exactly when the empty position is not spoiler-won.
    """
    positions: dict[frozenset, dict[str, str]] = {}
    for assign in all_partial_homomorphisms(a, b, l):
        positions[frozenset(assign.items())] = assign

    # universal moves: (position, target subset) -> list of reply keys
    moves: list[tuple[frozenset, list[frozenset]]] = []
    moves_of_reply: dict[frozenset, list[int]] = {key: [] for key in positions}
    pending: deque[frozenset] = deque()
    winning: set[frozenset] = set()

    by_subset: dict[tuple[str, ...], list[frozenset]] = {}
    for key, assign in positions.items():
        by_subset.setdefault(tuple(sorted(assign)), []).append(key)

    for key, assign in positions.items():
        if len(assign) > k:
            continue
        dom = set(assign)
        rest = [x for x in a.domain if x not in dom]
        for extra_size in range(1, min(l, len(a.domain)) - len(dom) + 1):
            for extra in combinations(rest, extra_size):
                target = tuple(sorted(dom | set(extra)))
                replies = [
                    reply
                    for reply in by_subset.get(target, [])
                    if key <= reply
                ]
                index = len(moves)
                moves.append((key, replies))
                for reply in replies:
                    moves_of_reply[reply].append(index)
                if not replies and key not in winning:
                    winning.add(key)
                    pending.append(key)

    counters = [len(replies) for _, replies in moves]
    # retract parents: one-pebble extensions of a winning position lose too
    parents: dict[frozenset, list[frozenset]] = {key: [] for key in positions}
    for key, assign in positions.items():
        for x in assign:
            sub = frozenset((y, v) for y, v in assign.items() if y != x)
            parents[sub].append(key)

    while pending:
        won = pending.popleft()
        for parent in parents[won]:
            if parent not in winning:
                winning.add(parent)
                pending.append(parent)
        for index in moves_of_reply[won]:
            counters[index] -= 1
            if counters[index] == 0:
                owner = moves[index][0]
                if owner not in winning:
                    winning.add(owner)
                    pending.append(owner)

    return frozenset() not in winning


def marking_solution_count(
    n: int, group: AbelianGroup, mark: tuple[int, ...], shape: TreeShape | None = None
) -> int:
    """Count solutions of a marked tree instance by leaf-value propagation.

    Assigns every leaf combination, propagates father = -(left + right)
    upward, and counts combinations whose root value equals the marking.
    """
    shape = shape if shape is not None else TreeShape.balanced(n.bit_length() - 1)

    def root_value(node: TreeShape, leaf_values: list[tuple[int, ...]]) -> tuple[int, ...]:
        if node.is_leaf:
            return leaf_values.pop(0)
        left = root_value(node.left, leaf_values)
        right = root_value(node.right, leaf_values)
        return group.neg(group.add(left, right))

    count = 0
    for combo in product(group.elements(), repeat=shape.leaf_count()):
        if root_value(shape, list(combo)) == mark:
            count += 1
    return count


def plain_supersets(fix, x: tuple[int, ...], top: int) -> list[tuple[int, int, list[int]]]:
    """``(id, free, stems)`` of every superset of x with at most top
    elements, sorted by id: x joined with each combination of the other
    elements, then sorted, with the masks of x's positions in it."""
    rest = [e for e in range(len(fix.a_ids)) if e not in x]
    found = []
    for extra_size in range(1, top - len(x) + 1):
        for extra in combinations(rest, extra_size):
            y = tuple(sorted(x + extra))
            free, stems, _ = fix._masks(len(y), tuple(map(y.index, x)))
            found.append((fix.subset_id[y], free, stems))
    return sorted(found, key=lambda sup: sup[0])


def reference_run(self, pops: Optional[list] = None) -> tuple[bool, dict[tuple[int, int], tuple]]:
    """The (k,l) deletion loop in its plain form: every neighbour listed
    again on each pop by ``plain_supersets``, every projection checked on
    each pop, support checked before liveness, one ``delete`` call per
    entry, and every reason recorded.  Returns the verdict and each
    deleted (s_id, h) with its reason, in deletion order; each popped
    (s_id, h) is appended to ``pops`` if it is given.  ``_Fixpoint.run``
    must make the same deletions in the same order, and its derived reasons
    must be these.  ``self`` is a fresh ``_Fixpoint``."""
    table = self.table
    subset_elems, subset_id = self.subset_elems, self.subset_id
    queue: deque[tuple[int, int]] = deque()
    reasons: dict[tuple[int, int], tuple] = {}

    def delete(s_id: int, h: int, reason: tuple) -> None:
        table[s_id] ^= 1 << h
        reasons[(s_id, h)] = reason
        queue.append((s_id, h))

    # initial extension-support pass over assignments of size <= k
    for x_id, x_elems in enumerate(subset_elems):
        if len(x_elems) > self.k:
            break
        sups = plain_supersets(self, x_elems, self.top)
        for h in _bits(table[x_id]):
            for y_id, free, stems in sups:
                if not table[y_id] & free << stems[h]:
                    delete(x_id, h, ("unsupported", y_id))
                    break
    # per subset size: the positions of its proper subsets of at most k elements
    downs = [
        [
            (positions, *self._masks(size, positions))
            for sub_size in range(min(self.k, size - 1) + 1)
            for positions in combinations(range(size), sub_size)
        ]
        for size in range(self.top + 1)
    ]
    # subset 0 is the empty one; its table is 1 until the empty assignment dies
    while queue and table[0]:
        y_id, g = queue.popleft()
        if pops is not None:
            pops.append((y_id, g))
        y_elems = subset_elems[y_id]
        size = len(y_elems)
        # restriction closure: extensions of g on immediate supersets die
        if size < self.top:
            for z_id, free, stems in plain_supersets(self, y_elems, size + 1):
                for ext in _bits(table[z_id] & free << stems[g]):
                    delete(z_id, ext, ("restriction", y_id, g))
        # extension support: small projections of g may have lost their witness
        for positions, free, stems, proj in downs[size]:
            h = proj[g]
            if not table[y_id] & free << stems[h]:
                x_id = subset_id[tuple(map(y_elems.__getitem__, positions))]
                if table[x_id] >> h & 1:
                    delete(x_id, h, ("unsupported", y_id))
    return bool(table[0]), reasons


def reference_build_JC(diagram: Diagram, m: int, coloring: Coloring) -> Structure:
    """The blow-up of the base joined with one side copy per colored spot,
    as the union of their tuple sets, built and checked by ``Structure``.

    The naming rule is stated here on its own.  The prefix is the shortest
    run of ``g`` that starts no blow-up identifier.  A fresh element x of
    the copy at spot k (in the lexicographic spot order) is ``{prefix}{k}.x``
    on the left and ``{prefix}{k}.{r}x`` on the right, r the fewest quotes
    with r + y no fresh left identifier for any fresh right identifier y."""
    embeddings = canonical_embeddings(diagram.base, m)
    blowup = embeddings.target
    spot_index = {spot: k for k, spot in enumerate(embeddings.members)}
    prefix = "g"
    while any(x.startswith(prefix) for x in blowup.domain):
        prefix += "g"
    left_fresh = set(diagram.left.domain) - set(diagram.left_emb.assignment.values())
    right_fresh = set(diagram.right.domain) - set(diagram.right_emb.assignment.values())
    quotes = ""
    while left_fresh & {quotes + y for y in right_fresh}:
        quotes += "'"
    domain = list(blowup.domain)
    rels = {name: set(ts) for name, ts in blowup.relations_items()}
    for spot, side in zip(coloring.spots, coloring.sides):
        if side == "L":
            part, emb, tag = diagram.left, diagram.left_emb, f"{prefix}{spot_index[spot]}."
        else:
            part, emb, tag = diagram.right, diagram.right_emb, f"{prefix}{spot_index[spot]}.{quotes}"
        name = {x: tag + x for x in part.domain}
        name.update({emb[a]: spot[a] for a in diagram.base.domain})
        domain.extend(name.values())
        for rel, ts in part.relations_items():
            rels[rel].update(tuple(map(name.__getitem__, t)) for t in ts)
    return Structure(diagram.base.signature, domain, rels)


def standalone_copy(host: Structure, alive: int) -> Structure:
    """The host's substructure on the masked elements, rebuilt and checked by Structure."""
    keep = [x for i, x in enumerate(host.domain) if alive >> i & 1]
    rels = {name: [t for t in ts if set(t) <= set(keep)] for name, ts in host.relations_items()}
    return Structure(host.signature, keep, rels)


def reference_height(s: Structure, names) -> int | None:
    """Edges on the longest directed walk in the union of the binary
    relations ``names``, by a topological sweep; None on a cycle."""
    succ: dict[str, set[str]] = {x: set() for x in s.domain}
    for name in names:
        for u, v in s.relation(name):
            succ[u].add(v)
    indegree = dict.fromkeys(s.domain, 0)
    for targets in succ.values():
        for v in targets:
            indegree[v] += 1
    level = dict.fromkeys(s.domain, 0)
    ready = [x for x in s.domain if not indegree[x]]
    done = 0
    while ready:
        u = ready.pop()
        done += 1
        for v in succ[u]:
            level[v] = max(level[v], level[u] + 1)
            indegree[v] -= 1
            if not indegree[v]:
                ready.append(v)
    if done < len(s.domain):
        return None
    return max(level.values(), default=0)


def reference_next_bits(rng, count: int) -> int:
    """An integer whose bit i is the i-th ``next_bit`` of rng (one word per bit)."""
    out = 0
    for i in range(count):
        out |= rng.next_bit() << i
    return out
