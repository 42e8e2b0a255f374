"""Finite relational structures over explicit signatures.

Structures are immutable values: a signature, an ordered domain of opaque
string identifiers, and one tuple set per relation symbol.  Every operation
in this module is a pure function returning fresh values, so structures can
be shared freely between threads or processes.  A view (``induced_on_mask``)
is a host and a mask; everything else about it is derived when first read.
"""

from __future__ import annotations

from itertools import compress
from typing import Iterable, Iterator, Mapping, Optional


class StructureError(ValueError):
    """Base class for structure construction and operation errors."""


class SignatureMismatch(StructureError):
    """Two structures that were expected to share a signature do not."""


class BudgetExceeded(RuntimeError):
    """A table, sweep or enumeration would exceed its resource budget."""


class DomainError(StructureError):
    """An identifier is used outside the domain that declares it."""


class Signature:
    """An ordered set of relation symbols with positive arities.

    Symbols are canonically sorted by name, so two signatures are equal
    exactly when their (name, arity) sets are equal.
    """

    __slots__ = ("_symbols", "_arities")

    def __init__(self, symbols: Iterable[tuple[str, int]]):
        seen: dict[str, int] = {}
        for name, arity in symbols:
            if not isinstance(name, str) or not name:
                raise StructureError(f"bad symbol name: {name!r}")
            if name in seen:
                raise StructureError(f"duplicate symbol name: {name!r}")
            if not isinstance(arity, int) or arity < 1:
                raise StructureError(f"arity of {name!r} must be a positive integer")
            seen[name] = arity
        self._symbols: tuple[tuple[str, int], ...] = tuple(sorted(seen.items()))
        self._arities = dict(self._symbols)

    @property
    def symbols(self) -> tuple[tuple[str, int], ...]:
        return self._symbols

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self._symbols)

    def arity(self, name: str) -> int:
        try:
            return self._arities[name]
        except KeyError:
            raise StructureError(f"unknown relation symbol: {name!r}") from None

    def extended(self, extra: Iterable[tuple[str, int]]) -> "Signature":
        """Signature enlarged by ``extra`` symbols (names must be fresh)."""
        return Signature(self._symbols + tuple(extra))

    def __contains__(self, name: str) -> bool:
        return name in self._arities

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Signature) and self._symbols == other._symbols

    def __hash__(self) -> int:
        return hash(self._symbols)

    def __repr__(self) -> str:
        inner = ", ".join(f"{n}/{a}" for n, a in self._symbols)
        return f"Signature({inner})"


_BIT_FLAGS = bytes.maketrans(b"01", b"\x00\x01")


class Structure:
    """A finite relational structure.

    ``domain`` is kept sorted and relations are stored as frozen tuple sets;
    every symbol of the signature is keyed, possibly by the empty set.  Two
    structures are equal iff signature, domain and all relations coincide.

    A structure built by ``induced_on_mask`` is a view: it is the host it
    was cut from and the mask of its elements over the host's sorted
    domain.  Its domain, domain set and relations are derived from the host
    and the mask on first read, and every read inside this class goes
    through ``domain``, ``domain_set`` and ``_rels``.  Any other structure
    is its own host with the full mask.  The host, the mask and the lazily
    built indexes stay out of equality and hashing, and the indexes out of
    pickles; a view pickles its host.
    """

    __slots__ = (
        "_signature",
        "_domain",
        "_domain_set",
        "_relations",
        "_hash",
        "_positions",
        "_host",
        "_alive",
        "_index",
    )

    def __init__(
        self,
        signature: Signature,
        domain: Iterable[str],
        relations: Mapping[str, Iterable[tuple[str, ...]]],
    ):
        dom = tuple(sorted(set(domain)))
        dom_set = frozenset(dom)
        for x in dom:
            if not isinstance(x, str):
                raise DomainError(f"identifiers must be strings, got {x!r}")
        rels: dict[str, frozenset[tuple[str, ...]]] = {}
        for name, tuples in relations.items():
            if name not in signature:
                raise StructureError(f"relation {name!r} not in signature")
            arity = signature.arity(name)
            frozen = frozenset(tuple(t) for t in tuples)
            for t in frozen:
                if len(t) != arity:
                    raise StructureError(
                        f"tuple {t!r} has length {len(t)}, expected {arity} for {name!r}"
                    )
                for x in t:
                    if x not in dom_set:
                        raise DomainError(f"tuple {t!r} mentions {x!r} outside the domain")
            rels[name] = frozen
        for name, _ in signature.symbols:
            rels.setdefault(name, frozenset())
        self._set(signature, dom, dom_set, rels, None, None)

    def _set(self, signature, domain, domain_set, relations, host, alive) -> None:
        self._signature = signature
        self._domain = domain  # None: a view's, derived on first read
        self._domain_set = domain_set  # likewise
        self._relations = relations  # likewise
        self._host: Optional[Structure] = host  # None: its own host
        self._alive: Optional[int] = alive  # None: the full mask
        self._hash: Optional[int] = None  # computed on first use; sweeps never hash
        self._positions: Optional[dict[str, tuple[tuple[int, ...], ...]]] = None
        self._index: Optional[MaskIndex] = None  # built on first use, hosts only

    def __getstate__(self):
        return self._signature, self.domain, self._rels(), self._host, self._alive

    def __setstate__(self, state) -> None:
        signature, domain, relations, host, alive = state
        self._set(signature, domain, None, relations, host, alive)

    @property
    def signature(self) -> Signature:
        return self._signature

    @property
    def domain(self) -> tuple[str, ...]:
        """The sorted domain; a view reads it off its host's on the first call."""
        if self._domain is None:
            root = self._host.domain
            # one 0/1 byte per host element, lowest bit first, for compress to read
            flags = format(self._alive, f"0{len(root)}b").encode()[::-1].translate(_BIT_FLAGS)
            self._domain = tuple(compress(root, flags))
        return self._domain

    @property
    def domain_set(self) -> frozenset[str]:
        if self._domain_set is None:
            self._domain_set = frozenset(self.domain)
        return self._domain_set

    def _rels(self) -> dict[str, frozenset[tuple[str, ...]]]:
        """The relations; a view derives them from its host on the first call."""
        if self._relations is None:
            keep = self.domain_set
            self._relations = {
                name: frozenset(t for t in ts if keep.issuperset(t))
                for name, ts in self._host.relations_items()
            }
        return self._relations

    def relation(self, name: str) -> frozenset[tuple[str, ...]]:
        try:
            return self._rels()[name]
        except KeyError:
            raise StructureError(f"unknown relation symbol: {name!r}") from None

    def positions(self, name: str) -> tuple[tuple[int, ...], ...]:
        """The tuples of relation ``name``, each element replaced by its
        index in ``domain``.

        Every relation is indexed on the first call and kept, outside
        equality and hashing.  Tuple order follows the frozenset and so
        depends on the hash seed: use the result only where order cannot
        show, as in mask ANDs and ORs or confluent arc-consistency and
        forward-checking narrowing.
        """
        if self._positions is None:
            index = {x: i for i, x in enumerate(self.domain)}
            self._positions = {
                n: tuple(tuple(map(index.__getitem__, t)) for t in ts)
                for n, ts in self._rels().items()
            }
        try:
            return self._positions[name]
        except KeyError:
            raise StructureError(f"unknown relation symbol: {name!r}") from None

    def relations_items(self) -> Iterator[tuple[str, frozenset[tuple[str, ...]]]]:
        for name in self._signature.names:
            yield name, self._rels()[name]

    @property
    def host(self) -> "Structure":
        """The structure this one is an induced view of, or itself."""
        return self if self._host is None else self._host

    @property
    def alive(self) -> int:
        """The mask of this structure's elements over the host's sorted domain."""
        if self._alive is None:
            return (1 << len(self.domain)) - 1
        return self._alive

    def mask_index(self) -> "MaskIndex":
        """The host's relations as bitmasks over the host's sorted domain.

        Built on the host's first call and kept there, outside equality,
        hashing and pickles, so every view of one host shares it.
        """
        if self._host is not None:
            return self._host.mask_index()
        if self._index is None:
            self._index = MaskIndex(self)
        return self._index

    def __len__(self) -> int:
        return len(self.domain)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Structure)
            and self._signature == other._signature
            and self.domain == other.domain
            and self._rels() == other._rels()
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(
                (
                    self._signature,
                    self.domain,
                    tuple(sorted((n, tuple(sorted(ts))) for n, ts in self._rels().items())),
                )
            )
        return self._hash

    def __repr__(self) -> str:
        return f"Structure(|dom|={len(self)}, sig={self._signature!r})"


class MaskIndex:
    """The relations of a host structure as bitmasks over its sorted domain.

    Bit i of a mask stands for ``domain[i]``.  ``unary[name]`` is the mask
    of a unary relation.  For a binary relation, ``succ[name]`` is
    ``(rows, union, tag)`` with rows[u] the mask of the v with (u, v) in
    the relation, union the OR of all rows and tag an integer naming the
    row table; ``pred[name]`` is the same for (v, u), and ``diag[name]``
    masks the loops.  Wider relations stay tuple sets in ``wide``.
    ``heights`` keeps the host's own ``height`` per tuple of relation
    names, worked out on first use: the Forb_h families bound every view
    of one host by it, so a sweep reads it once.  ``images`` maps a Forb_h
    family member to its image masks on the host, as the Forb_h oracle
    finds them: one search per member serves every view of the host.
    """

    __slots__ = ("unary", "succ", "pred", "diag", "wide", "heights", "images")

    def __init__(self, host: Structure):
        rank = {v: i for i, v in enumerate(host.domain)}
        n = len(rank)
        self.unary: dict[str, int] = {}
        self.succ: dict[str, tuple[list[int], int, int]] = {}
        self.pred: dict[str, tuple[list[int], int, int]] = {}
        self.diag: dict[str, int] = {}
        self.wide: dict[str, frozenset[tuple[str, ...]]] = {}
        self.heights: dict[tuple[str, ...], Optional[int]] = {}
        self.images: dict[Structure, tuple[int, ...]] = {}
        for name, ts in host.relations_items():
            arity = host.signature.arity(name)
            if arity == 1:
                mask = 0
                for (v,) in ts:
                    mask |= 1 << rank[v]
                self.unary[name] = mask
            elif arity == 2:
                succ = [0] * n
                pred = [0] * n
                diag = 0
                for (u, v) in ts:
                    iu, iv = rank[u], rank[v]
                    succ[iu] |= 1 << iv
                    pred[iv] |= 1 << iu
                    if iu == iv:
                        diag |= 1 << iu
                union_succ = 0
                for mask in succ:
                    union_succ |= mask
                union_pred = 0
                for mask in pred:
                    union_pred |= mask
                tag = 2 * len(self.succ)
                self.succ[name] = (succ, union_succ, tag)
                self.pred[name] = (pred, union_pred, tag + 1)
                self.diag[name] = diag
            else:
                self.wide[name] = ts


class ElementMap:
    """A partial map between two structure domains.

    The full source and target domains are retained so totality is
    derivable.  Maps are immutable and hashable; equality is equality of
    (source, target, assignment).  The hash is computed on first use and
    kept, outside pickles: string hashes depend on ``PYTHONHASHSEED``.
    """

    __slots__ = ("_source", "_target", "_assignment", "_key", "_hash")

    def __init__(
        self,
        source: Iterable[str],
        target: Iterable[str],
        assignment: Mapping[str, str],
    ):
        src = tuple(sorted(set(source)))
        tgt = tuple(sorted(set(target)))
        src_set = set(src)
        tgt_set = set(tgt)
        assign = dict(assignment)
        for k, v in assign.items():
            if k not in src_set:
                raise DomainError(f"map key {k!r} not in source domain")
            if v not in tgt_set:
                raise DomainError(f"map value {v!r} not in target domain")
        self._source = src
        self._target = tgt
        self._assignment = assign
        self._key = (src, tgt, tuple(sorted(assign.items())))
        self._hash: Optional[int] = None

    def __getstate__(self):
        return self._source, self._target, self._assignment, self._key

    def __setstate__(self, state) -> None:
        self._source, self._target, self._assignment, self._key = state
        self._hash = None

    @classmethod
    def identity(cls, domain: Iterable[str]) -> "ElementMap":
        dom = tuple(domain)
        return cls(dom, dom, {x: x for x in dom})

    @property
    def source(self) -> tuple[str, ...]:
        return self._source

    @property
    def target(self) -> tuple[str, ...]:
        return self._target

    @property
    def assignment(self) -> dict[str, str]:
        return dict(self._assignment)

    def __getitem__(self, key: str) -> str:
        return self._assignment[key]

    def __contains__(self, key: str) -> bool:
        return key in self._assignment

    def keys(self) -> tuple[str, ...]:
        return tuple(sorted(self._assignment))

    def items(self) -> tuple[tuple[str, str], ...]:
        return tuple(sorted(self._assignment.items()))

    @property
    def is_total(self) -> bool:
        return len(self._assignment) == len(self._source)

    @property
    def is_injective(self) -> bool:
        vals = list(self._assignment.values())
        return len(set(vals)) == len(vals)

    @property
    def image(self) -> frozenset[str]:
        return frozenset(self._assignment.values())

    def restrict(self, subset: Iterable[str]) -> "ElementMap":
        keep = set(subset)
        return ElementMap(
            self._source,
            self._target,
            {k: v for k, v in self._assignment.items() if k in keep},
        )

    def then(self, other: "ElementMap") -> "ElementMap":
        """Composition ``other ∘ self`` (apply self first)."""
        assign = {
            k: other._assignment[v]
            for k, v in self._assignment.items()
            if v in other._assignment
        }
        return ElementMap(self._source, other._target, assign)

    def map_tuple(self, t: tuple[str, ...]) -> tuple[str, ...]:
        return tuple(self._assignment[x] for x in t)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ElementMap) and self._key == other._key

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(self._key)
        return self._hash

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}->{v}" for k, v in self.items())
        return f"ElementMap({inner})"


class AmalgamResult:
    """A free amalgam together with its two injections."""

    __slots__ = ("amalgam", "left_injection", "right_injection")

    def __init__(self, amalgam: Structure, left_injection: ElementMap, right_injection: ElementMap):
        self.amalgam = amalgam
        self.left_injection = left_injection
        self.right_injection = right_injection


def _require_same_signature(a: Structure, b: Structure) -> None:
    if a.signature != b.signature:
        raise SignatureMismatch(f"signatures differ: {a.signature!r} vs {b.signature!r}")


def induced_substructure(s: Structure, subset: Iterable[str]) -> Structure:
    """Substructure of ``s`` induced by ``subset``."""
    keep = set(subset)
    for x in keep:
        if x not in s.domain_set:
            raise DomainError(f"{x!r} is not in the domain")
    rels = {
        name: {t for t in ts if all(x in keep for x in t)}
        for name, ts in s.relations_items()
    }
    return Structure(s.signature, keep, rels)


def induced_on_mask(host: Structure, alive: int) -> Structure:
    """Substructure of ``host`` induced on the elements whose bits are set in ``alive``.

    Bit i stands for ``host.host.domain[i]``, and ``alive`` must lie inside
    ``host.alive``.  The result is a view: the root host and the mask, and
    nothing else until read.  Its searchers and heights read the host's
    ``mask_index``; its domain is read off the sorted host domain, so it is
    sorted already and its identifiers are valid, and its relations are the
    host's tuples inside it.  Nothing is sorted or checked again.
    """
    if alive < 0 or alive & ~host.alive:
        raise DomainError("mask selects elements outside the host")
    view = Structure.__new__(Structure)
    view._set(host.signature, None, None, None, host.host, alive)
    return view


def union(b: Structure, c: Structure) -> Structure:
    """Union of two structures; overlapping identifiers denote the same element."""
    _require_same_signature(b, c)
    rels = {name: b.relation(name) | c.relation(name) for name in b.signature.names}
    return Structure(b.signature, set(b.domain) | set(c.domain), rels)


def disjoint_union(b: Structure, c: Structure) -> tuple[Structure, ElementMap, ElementMap]:
    """Disjoint union with fresh identifiers; returns the two injections.

    Fresh names are derived deterministically by prefixing, so repeated runs
    produce identical structures.
    """
    _require_same_signature(b, c)
    left = {x: f"u0.{x}" for x in b.domain}
    right = {x: f"u1.{x}" for x in c.domain}
    domain = set(left.values()) | set(right.values())
    rels: dict[str, set[tuple[str, ...]]] = {name: set() for name in b.signature.names}
    for name, ts in b.relations_items():
        rels[name] |= {tuple(left[x] for x in t) for t in ts}
    for name, ts in c.relations_items():
        rels[name] |= {tuple(right[x] for x in t) for t in ts}
    result = Structure(b.signature, domain, rels)
    emb_b = ElementMap(b.domain, result.domain, left)
    emb_c = ElementMap(c.domain, result.domain, right)
    return result, emb_b, emb_c


def quotient(s: Structure, partition: Iterable[Iterable[str]]) -> tuple[Structure, ElementMap]:
    """Quotient by a partition of the domain; one element per block.

    A tuple is in a relation of the quotient iff some preimage tuple is.
    The returned map is the total surjective projection; block identifiers
    are the sorted-least members of their blocks.
    """
    blocks = [tuple(sorted(set(block))) for block in partition]
    seen: dict[str, str] = {}
    for block in blocks:
        if not block:
            raise StructureError("empty partition block")
        rep = block[0]
        for x in block:
            if x not in s.domain_set:
                raise DomainError(f"{x!r} is not in the domain")
            if x in seen:
                raise StructureError(f"{x!r} appears in two blocks")
            seen[x] = rep
    if len(seen) != len(s.domain):
        missing = set(s.domain) - set(seen)
        raise StructureError(f"partition does not cover the domain: missing {sorted(missing)}")
    rels = {
        name: {tuple(seen[x] for x in t) for t in ts}
        for name, ts in s.relations_items()
    }
    result = Structure(s.signature, set(seen.values()), rels)
    proj = ElementMap(s.domain, result.domain, seen)
    return result, proj


def free_amalgam(
    base: Structure,
    f: ElementMap,
    left: Structure,
    g: ElementMap,
    right: Structure,
) -> AmalgamResult:
    """Free amalgam of ``left`` and ``right`` glued along ``base``.

    ``f`` and ``g`` must be embeddings of the base into the two sides.  The
    result is the canonical representative: the two copies renamed with
    reserved prefixes and overlapping exactly in the glued base image, so
    ``|result| = |left| + |right| - |base|``.
    """
    from . import morphisms  # runtime import: morphisms depends on core

    if not morphisms.check_morphism(f, base, left, "embedding"):
        raise StructureError("f is not an embedding of the base into the left side")
    if not morphisms.check_morphism(g, base, right, "embedding"):
        raise StructureError("g is not an embedding of the base into the right side")

    glued = {g[a]: f"l.{f[a]}" for a in base.domain}  # right-side base image -> left copy
    left_names = {x: f"l.{x}" for x in left.domain}
    right_names = {x: glued.get(x, f"r.{x}") for x in right.domain}
    domain = set(left_names.values()) | set(right_names.values())
    rels: dict[str, set[tuple[str, ...]]] = {name: set() for name in base.signature.names}
    for name, ts in left.relations_items():
        rels[name] |= {tuple(left_names[x] for x in t) for t in ts}
    for name, ts in right.relations_items():
        rels[name] |= {tuple(right_names[x] for x in t) for t in ts}
    amalgam = Structure(base.signature, domain, rels)
    inj_left = ElementMap(left.domain, amalgam.domain, left_names)
    inj_right = ElementMap(right.domain, amalgam.domain, right_names)
    return AmalgamResult(amalgam, inj_left, inj_right)


def blowup_id(element: str, index: int) -> str:
    """Identifier of the (element, index) copy in a blow-up."""
    return f"{element}@{index}"


def blowup(a: Structure, m: int) -> Structure:
    """Blow-up with domain ``A x [m]``; relations are lifted index-independently."""
    if m < 1:
        raise StructureError("blow-up multiplicity must be >= 1")
    from itertools import product

    domain = [blowup_id(x, i) for x in a.domain for i in range(m)]
    rels: dict[str, set[tuple[str, ...]]] = {}
    for name, ts in a.relations_items():
        arity = a.signature.arity(name)
        lifted: set[tuple[str, ...]] = set()
        for t in ts:
            for idx in product(range(m), repeat=arity):
                lifted.add(tuple(blowup_id(x, i) for x, i in zip(t, idx)))
        rels[name] = lifted
    return Structure(a.signature, domain, rels)


def pullback(f: ElementMap, target: Structure) -> Structure:
    """Pullback of ``target`` along ``f``: relations are preimages under f.

    The result is the unique structure on the source of ``f`` for which
    ``f`` is a strong homomorphism into the target.
    """
    if not f.is_total:
        raise StructureError("pullback requires a total map")
    preimage: dict[str, list[str]] = {}
    for x in f.source:
        preimage.setdefault(f[x], []).append(x)
    from itertools import product

    rels: dict[str, set[tuple[str, ...]]] = {}
    for name, ts in target.relations_items():
        pulled: set[tuple[str, ...]] = set()
        for t in ts:
            classes = [preimage.get(b) for b in t]
            if any(cls is None for cls in classes):
                continue
            for combo in product(*classes):  # type: ignore[arg-type]
                pulled.add(combo)
        rels[name] = pulled
    return Structure(target.signature, f.source, rels)


def gaifman_adjacency(s: Structure) -> dict[str, set[str]]:
    """Adjacency of the Gaifman graph: elements co-occurring in some tuple."""
    adj: dict[str, set[str]] = {x: set() for x in s.domain}
    for _, ts in s.relations_items():
        for t in ts:
            for x in t:
                for y in t:
                    if x != y:
                        adj[x].add(y)
    return adj


def is_connected(s: Structure) -> bool:
    """True iff the Gaifman graph is connected (empty structure: True)."""
    if not s.domain:
        return True
    adj = gaifman_adjacency(s)
    seen = {s.domain[0]}
    stack = [s.domain[0]]
    while stack:
        x = stack.pop()
        for y in adj[x]:
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return len(seen) == len(s.domain)


def height(s: Structure, names: Iterable[str]) -> Optional[int]:
    """Edges on the longest directed walk in the union of binary relations.

    None when the union of the relations ``names`` has a cycle (a loop is
    one), since walks are then unbounded.  Read off the host's successor
    rows restricted to ``s.alive``: W_0 is every element and W_{k+1} the
    elements with a predecessor in W_k, so W_k holds the ends of walks of
    k edges.  W_1 lies in W_0, hence by induction each W_{k+1} in W_k.  The
    first empty W_{k+1} makes k the height.  A nonempty W_{k+1} = W_k means
    every element of it has a predecessor in it, which only a cycle
    allows; a cycle keeps its elements in every W_k, so the sets then
    settle on a nonempty set.  Elements without an edge out reach nothing
    and are not scanned.  A host's own height is kept in its
    ``MaskIndex.heights``, keyed by ``names``, and read from there again.
    """
    index = s.mask_index()
    names = tuple(names)
    own = s.host is s
    if own and names in index.heights:
        return index.heights[names]
    tables = []
    tails = 0  # elements of the host with an edge out: the union of the pred rows
    for name in names:
        if name not in index.succ:
            if name in s.signature:
                raise StructureError(f"height needs binary relations; {name!r} is not one")
            raise StructureError(f"unknown relation symbol: {name!r}")
        tables.append(index.succ[name][0])
        tails |= index.pred[name][1]
    alive = s.alive
    frontier = alive
    edges: Optional[int] = 0
    while frontier:
        reached = 0
        scan = frontier & tails
        while scan:
            low = scan & -scan
            u = low.bit_length() - 1
            for rows in tables:
                reached |= rows[u]
            scan ^= low
        reached &= alive
        if reached == frontier:
            edges = None
            break
        if not reached:
            break
        frontier = reached
        edges += 1
    if own:
        index.heights[names] = edges
    return edges


def reduct(s: Structure, names: Iterable[str]) -> Structure:
    """Reduct of ``s`` to the given symbols."""
    keep = set(names)
    symbols = [(n, a) for n, a in s.signature.symbols if n in keep]
    missing = keep - {n for n, _ in symbols}
    if missing:
        raise StructureError(f"symbols not present: {sorted(missing)}")
    return Structure(
        Signature(symbols),
        s.domain,
        {n: s.relation(n) for n, _ in symbols},
    )


def add_symbols(
    s: Structure,
    extra: Iterable[tuple[str, int]],
    tuples: Optional[Mapping[str, Iterable[tuple[str, ...]]]] = None,
) -> Structure:
    """Expansion of ``s`` by fresh symbols, empty unless ``tuples`` provides them."""
    sig = s.signature.extended(extra)
    rels: dict[str, Iterable[tuple[str, ...]]] = {n: ts for n, ts in s.relations_items()}
    if tuples:
        for name, ts in tuples.items():
            rels[name] = set(tuple(t) for t in ts)
    return Structure(sig, s.domain, rels)
