"""Decision and search procedures for homomorphisms and embeddings.

Search is deterministic: static variable order by identifier, value order by
identifier.  Pruning is limited to unary candidate filtering, arc consistency
over binary tuples, and forward checking during the descent; all three only
remove values that occur in no solution, so the maps found, and their order,
are independent of the pruning.

Values are bits over the target's host (``Structure.mask_index``, built once
per host and shared by all its views), restricted to the target's ``alive``
mask; the bit order is the host's identifier order, which on the target is
its own.  One search loop yields each map as those bits: ``find``,
``iter_all`` and ``iter_injective`` turn them into maps, and
``image_masks`` into the set of images of all maps, which answers for every
induced substructure of the target at once.
"""

from __future__ import annotations

from collections import deque
from itertools import combinations, islice, product
from typing import Iterator, Optional

from .core import (
    ElementMap,
    SignatureMismatch,
    Structure,
    StructureError,
    blowup,
    blowup_id,
    pullback,
)

KINDS = (
    "homomorphism",
    "monomorphism",
    "embedding",
    "strong-homomorphism",
    "isomorphism",
)


class EmbeddingSet:
    """All (or some chosen) embeddings of a base structure into a target."""

    __slots__ = ("base", "target", "members")

    def __init__(self, base: Structure, target: Structure, members: tuple[ElementMap, ...]):
        self.base = base
        self.target = target
        self.members = members

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)


def _require_total(f: ElementMap, a: Structure, b: Structure) -> None:
    if tuple(f.source) != a.domain or tuple(f.target) != b.domain:
        raise StructureError("map domains do not match the given structures")
    if not f.is_total:
        raise StructureError("map is not total; use check_partial_homomorphism")


def _is_strong(f: ElementMap, a: Structure, b: Structure) -> bool:
    # f(A^k \ R^A) avoids R^B  <=>  every preimage of a tuple of R^B lies in R^A
    pulled = pullback(f, b)
    return all(pulled.relation(name) <= ts for name, ts in a.relations_items())


def check_morphism(f: ElementMap, a: Structure, b: Structure, kind: str) -> bool:
    """True iff the total map ``f`` satisfies the definition of ``kind``."""
    if kind not in KINDS:
        raise StructureError(f"unknown morphism kind: {kind!r}")
    if a.signature != b.signature:
        raise SignatureMismatch("check_morphism needs a common signature")
    _require_total(f, a, b)
    if not check_partial_homomorphism(f, a, b):
        return False
    if kind == "homomorphism":
        return True
    if kind == "monomorphism":
        return f.is_injective
    if not _is_strong(f, a, b):
        return False
    if kind == "strong-homomorphism":
        return True
    if not f.is_injective:
        return False
    if kind == "embedding":
        return True
    return len(f.image) == len(b.domain)  # isomorphism: surjective embedding


def check_partial_homomorphism(f: ElementMap, a: Structure, b: Structure) -> bool:
    """True iff ``f`` is a homomorphism from ``A[dom f]`` to ``B``."""
    if a.signature != b.signature:
        raise SignatureMismatch("check_partial_homomorphism needs a common signature")
    dom = set(f.keys())
    for x in dom:
        if x not in a.domain_set:
            raise StructureError(f"map key {x!r} is not in the source structure")
    for name, ts in a.relations_items():
        rb = b.relation(name)
        for t in ts:
            if all(x in dom for x in t) and f.map_tuple(t) not in rb:
                return False
    return True


class HomomorphismSearcher:
    """Backtracking homomorphism search against a fixed target structure.

    The target is read through its host's ``Structure.mask_index``, built
    once per host: a value is a bit, and bit i stands for the host's i-th
    identifier.  A target that is no view is its own host, with every bit
    alive; a view built by ``core.induced_on_mask`` leaves its host's rows
    as they are and narrows by its mask instead.  Candidates start at
    ``alive`` and unary and loop masks are ANDed into them, so every
    candidate, and by the ANDs every narrowed set, lies inside ``alive``.
    A host row read at a live value then yields, once ANDed with a set
    inside ``alive``, exactly the view's row: the view's tuples are the
    host's tuples inside the mask.  Wide tuples are looked up in the
    host's sets, which agree with the view's on tuples of live values.
    So the search visits the same values in the same order as on a
    standalone copy, and since the view's sorted domain is a subsequence
    of the host's, lowest bit first is identifier order.  Sources must
    share the target's signature and are read through
    ``Structure.positions``.
    """

    __slots__ = ("target", "_index", "_alive", "_n", "_values")

    def __init__(self, target: Structure):
        self.target = target
        self._index = target.mask_index()
        self._alive = target.alive
        self._n = len(target.domain)
        self._values = target.host.domain

    def _prepare(self, source: Structure):
        """Candidate masks and constraint indexes for one source structure.

        ``support[i]`` holds (j, rows, total, tag) entries with rows[w] =
        mask of values allowed for variable i when variable j takes value w,
        total the union of all rows and tag naming the row table;
        ``forward[i]`` holds the mirrored (j, rows) pairs used to narrow
        later variables when i is assigned.  Candidates start at ``alive``.
        """
        if source.signature != self.target.signature:
            raise SignatureMismatch("searcher and source signatures differ")
        index = self._index
        n = len(source.domain)
        cand = [self._alive] * n
        support: list[list[tuple[int, list[int], int, int]]] = [[] for _ in range(n)]
        forward: list[list[tuple[int, list[int]]]] = [[] for _ in range(n)]
        wide_checks: list[list[tuple[str, tuple[int, ...]]]] = [[] for _ in range(n)]
        for name in source.signature.names:
            if name in index.unary:
                mask = index.unary[name]
                for (ix,) in source.positions(name):
                    cand[ix] &= mask
            elif name in index.succ:
                succ = index.succ[name]
                pred = index.pred[name]
                diag = index.diag[name]
                for ix, iy in source.positions(name):
                    if ix == iy:
                        cand[ix] &= diag
                    else:
                        support[ix].append((iy, *pred))
                        support[iy].append((ix, *succ))
                        forward[ix].append((iy, succ[0]))
                        forward[iy].append((ix, pred[0]))
            else:
                for posn in source.positions(name):
                    wide_checks[max(posn)].append((name, posn))
        return cand, support, forward, wide_checks

    def _ac(self, cand: list[int], support, forward) -> bool:
        """Arc-consistency fixpoint; False when some candidate set empties.

        Support unions are cached per (variable, row table tag) and reused
        while that variable's candidates are unchanged.  A candidate set
        still equal to ``alive`` contributes the host's whole-table union
        instead: that is a superset of the rows of the live values, so it
        may keep a value without support but never drops one with it, and
        the maps found do not change.
        """
        n = len(cand)
        alive = self._alive
        queue = deque(range(n))
        queued = [True] * n
        cache: dict[tuple[int, int], tuple[int, int]] = {}
        while queue:
            i = queue.popleft()
            queued[i] = False
            ci = cand[i]
            for (j, rows, total, tag) in support[i]:
                mj = cand[j]
                if mj == alive:
                    supp = total
                else:
                    key = (j, tag)
                    hit = cache.get(key)
                    if hit is not None and hit[0] == mj:
                        supp = hit[1]
                    else:
                        supp = 0
                        scan = mj
                        while scan:
                            low = scan & -scan
                            supp |= rows[low.bit_length() - 1]
                            scan ^= low
                        cache[key] = (mj, supp)
                ci &= supp
                if not ci:
                    return False
            if ci != cand[i]:
                cand[i] = ci
                for (j, _rows) in forward[i]:
                    if not queued[j]:
                        queued[j] = True
                        queue.append(j)
        return True

    def _solve(self, source: Structure, injective: bool) -> Iterator[list[int]]:
        """Every homomorphism from ``source`` (injective ones only, if asked),
        in lexicographic order, as the bits of the values of ``source.domain``.
        The list is the search's own and changes on resumption: read it first.
        """
        cand, support, forward, wide_checks = self._prepare(source)
        n = len(source.domain)
        if n == 0:
            yield []
            return
        if injective and n > self._n:
            return
        if any(c == 0 for c in cand) or not self._ac(cand, support, forward):
            return
        values = self._values
        wide = self._index.wide
        assign = [-1] * n
        used = 0
        rem = [0] * n  # untried candidates per depth
        trail: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        rem[0] = cand[0]
        depth = 0
        while depth >= 0:
            # take back the last value tried at this depth; the trail is
            # undone last change first, as one variable may narrow twice
            undo = trail[depth]
            while undo:
                j, old = undo.pop()
                cand[j] = old
            if injective and assign[depth] >= 0:
                used &= ~(1 << assign[depth])
            mask = rem[depth]
            if injective:
                mask &= ~used
            if not mask:
                depth -= 1
                continue
            low = mask & -mask
            rem[depth] ^= low
            v = low.bit_length() - 1
            assign[depth] = v
            if injective:
                used |= 1 << v
            ok = True
            for (j, rows) in forward[depth]:
                if j > depth:
                    old = cand[j]
                    new = old & rows[v]
                    if new != old:
                        undo.append((j, old))
                        cand[j] = new
                        if not new:
                            ok = False
                            break
            if ok:
                for (name, posn) in wide_checks[depth]:
                    t = tuple(values[assign[p]] for p in posn)
                    if t not in wide[name]:
                        ok = False
                        break
            if not ok:
                continue
            if depth == n - 1:
                yield assign
                continue
            depth += 1
            rem[depth] = cand[depth]
            assign[depth] = -1

    def _map(self, source: Structure, assign: list[int]) -> ElementMap:
        values = self._values
        return ElementMap(
            source.domain, self.target.domain, {x: values[v] for x, v in zip(source.domain, assign)}
        )

    def find(self, source: Structure) -> Optional[ElementMap]:
        for assign in self._solve(source, injective=False):
            return self._map(source, assign)
        return None

    def exists(self, source: Structure) -> bool:
        return self.find(source) is not None

    def iter_all(self, source: Structure, limit: Optional[int] = None) -> Iterator[ElementMap]:
        for assign in islice(self._solve(source, injective=False), limit):
            yield self._map(source, assign)

    def iter_injective(self, source: Structure) -> Iterator[ElementMap]:
        for assign in self._solve(source, injective=True):
            yield self._map(source, assign)

    def image_masks(self, source: Structure) -> set[int]:
        """The distinct images of all homomorphisms from ``source``, as masks.

        Bit i of a mask is set when the map hits the host's i-th identifier.
        One search visits every homomorphism, where ``exists`` stops at the
        first.
        """
        images = set()
        for assign in self._solve(source, injective=False):
            mask = 0
            for v in assign:
                mask |= 1 << v
            images.add(mask)
        return images


def find_homomorphism(a: Structure, b: Structure) -> Optional[ElementMap]:
    """First total homomorphism from ``a`` to ``b`` in deterministic order, or None."""
    if a.signature != b.signature:
        raise SignatureMismatch("find_homomorphism needs a common signature")
    return HomomorphismSearcher(b).find(a)


def enumerate_homomorphisms(a: Structure, b: Structure, limit: Optional[int] = None) -> list[ElementMap]:
    """All total homomorphisms in deterministic order, truncated at ``limit``."""
    if a.signature != b.signature:
        raise SignatureMismatch("enumerate_homomorphisms needs a common signature")
    return list(HomomorphismSearcher(b).iter_all(a, limit=limit))


def enumerate_embeddings(a: Structure, b: Structure) -> EmbeddingSet:
    """All embeddings of ``a`` into ``b`` in deterministic order."""
    if a.signature != b.signature:
        raise SignatureMismatch("enumerate_embeddings needs a common signature")
    members = tuple(
        f for f in HomomorphismSearcher(b).iter_injective(a) if _is_strong(f, a, b)
    )
    return EmbeddingSet(a, b, members)


def canonical_embeddings(a: Structure, m: int) -> EmbeddingSet:
    """The m^|A| index-choice embeddings of ``a`` into its m-fold blow-up.

    The member for f : A -> [m] sends each element x to the (x, f(x)) copy.
    Members come in lexicographic order of the index choices over the sorted
    domain of ``a``.
    """
    if m < 1:
        raise StructureError("blow-up multiplicity must be >= 1")
    target = blowup(a, m)
    members = []
    for choice in product(range(m), repeat=len(a.domain)):
        assign = {x: blowup_id(x, i) for x, i in zip(a.domain, choice)}
        members.append(ElementMap(a.domain, target.domain, assign))
    return EmbeddingSet(a, target, tuple(members))


def restriction_set(emb: EmbeddingSet, r: int) -> list[ElementMap]:
    """Deduplicated restrictions of the members to all r-element subsets."""
    n = len(emb.base.domain)
    if r < 0 or r > n:
        raise StructureError(f"restriction size {r} out of range for |A| = {n}")
    seen: set[ElementMap] = set()
    out: list[ElementMap] = []
    for subset in combinations(emb.base.domain, r):
        for member in emb.members:
            g = member.restrict(subset)
            if g not in seen:
                seen.add(g)
                out.append(g)
    out.sort(key=lambda f: f.items())
    return out


def is_isomorphic(a: Structure, b: Structure) -> bool:
    """Isomorphism test via embedding search after cardinality screens."""
    if a.signature != b.signature:
        raise SignatureMismatch("is_isomorphic needs a common signature")
    if len(a.domain) != len(b.domain):
        return False
    for name in a.signature.names:
        if len(a.relation(name)) != len(b.relation(name)):
            return False
    for f in HomomorphismSearcher(b).iter_injective(a):
        if _is_strong(f, a, b):
            return True  # injective with |A| = |B| makes the embedding surjective
    return False
