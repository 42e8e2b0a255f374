"""Generators for the concrete structure families used throughout.

Covers the linear-equation templates over finite Abelian groups and their
binary-tree instances, the colored-path family with its source/target path
class, the binary-tree family with leaf gluing, spans of embeddings
(diagrams), and the glued blow-up construction, a mask over the union of
all side copies.
"""

from __future__ import annotations

from itertools import product
from typing import Iterable, Iterator, Optional, Sequence

from . import core, morphisms
from .core import BudgetExceeded, ElementMap, Signature, Structure, StructureError


class AbelianGroup:
    """A finite Abelian group given as a product of cyclic factors.

    Elements are tuples reduced componentwise; the identity is all-zero.
    """

    __slots__ = ("orders",)

    def __init__(self, orders: Sequence[int]):
        if not orders:
            raise StructureError("group needs at least one cyclic factor")
        for d in orders:
            if not isinstance(d, int) or d < 1:
                raise StructureError("cyclic orders must be integers >= 1")
        self.orders = tuple(orders)

    @classmethod
    def parse(cls, text: str) -> "AbelianGroup":
        """Parse e.g. ``"2"`` for Z_2 or ``"2x2"`` for Z_2 x Z_2."""
        try:
            return cls([int(part) for part in text.split("x")])
        except ValueError:
            raise StructureError(f"bad group spec: {text!r}") from None

    @property
    def order(self) -> int:
        n = 1
        for d in self.orders:
            n *= d
        return n

    @property
    def zero(self) -> tuple[int, ...]:
        return (0,) * len(self.orders)

    @property
    def is_trivial(self) -> bool:
        return all(d == 1 for d in self.orders)

    def elements(self) -> list[tuple[int, ...]]:
        return [tuple(e) for e in product(*(range(d) for d in self.orders))]

    def add(self, a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
        return tuple((x + y) % d for x, y, d in zip(a, b, self.orders))

    def neg(self, a: Sequence[int]) -> tuple[int, ...]:
        return tuple((-x) % d for x, d in zip(a, self.orders))

    def first_nonzero(self) -> tuple[int, ...]:
        """Generator of the first nontrivial cyclic factor."""
        for i, d in enumerate(self.orders):
            if d > 1:
                return tuple(1 if j == i else 0 for j in range(len(self.orders)))
        raise StructureError("the trivial group has no nonzero element")

    def render(self, a: Sequence[int]) -> str:
        return "-".join(str(x) for x in a)

    def label(self, a: Sequence[int]) -> str:
        return f"C_{self.render(a)}"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, AbelianGroup) and self.orders == other.orders

    def __hash__(self) -> int:
        return hash(self.orders)

    def __repr__(self) -> str:
        return "Z" + "xZ".join(str(d) for d in self.orders)


class TreeShape:
    """A full binary tree: every node is a leaf or has exactly two children.

    The textual form is ``.`` for a leaf and ``(LR)`` for an inner node,
    e.g. ``((..)(..))`` for the balanced four-leaf tree.
    """

    __slots__ = ("left", "right")

    def __init__(self, left: Optional["TreeShape"] = None, right: Optional["TreeShape"] = None):
        if (left is None) != (right is None):
            raise StructureError("an inner node needs exactly two children")
        self.left = left
        self.right = right

    @property
    def is_leaf(self) -> bool:
        return self.left is None

    @classmethod
    def leaf(cls) -> "TreeShape":
        return cls()

    @classmethod
    def balanced(cls, depth: int) -> "TreeShape":
        if depth < 0:
            raise StructureError("depth must be >= 0")
        if depth == 0:
            return cls.leaf()
        sub = cls.balanced(depth - 1)
        return cls(sub, sub)

    @classmethod
    def parse(cls, text: str) -> "TreeShape":
        shape, rest = cls._parse(text.strip())
        if rest:
            raise StructureError(f"trailing input in shape: {rest!r}")
        return shape

    @classmethod
    def _parse(cls, text: str) -> tuple["TreeShape", str]:
        if not text:
            raise StructureError("empty shape")
        if text[0] == ".":
            return cls.leaf(), text[1:]
        if text[0] == "(":
            left, rest = cls._parse(text[1:])
            right, rest = cls._parse(rest)
            if not rest or rest[0] != ")":
                raise StructureError("unbalanced parentheses in shape")
            return cls(left, right), rest[1:]
        raise StructureError(f"unexpected character {text[0]!r} in shape")

    def render(self) -> str:
        if self.is_leaf:
            return "."
        return f"({self.left.render()}{self.right.render()})"

    def leaf_count(self) -> int:
        if self.is_leaf:
            return 1
        return self.left.leaf_count() + self.right.leaf_count()

    def paths(self) -> Iterator[tuple[str, bool]]:
        """All (path, is_leaf) pairs, root path being the empty string."""
        stack = [("", self)]
        while stack:
            path, node = stack.pop()
            yield path, node.is_leaf
            if not node.is_leaf:
                stack.append((path + "1", node.right))
                stack.append((path + "0", node.left))

    @classmethod
    def all_shapes(cls, leaves: int, depth: Optional[int] = None) -> list["TreeShape"]:
        """All full binary trees with the given leaf count (Catalan many).

        With ``depth``, only the trees of at most that depth, pruned in the
        recursion: a tree of depth d has at most 2^d leaves.  The order is
        that of the unbounded list with the deeper trees left out.
        """
        if leaves < 1:
            raise StructureError("leaf count must be >= 1")
        if depth is not None:
            if depth < 0:
                raise StructureError("depth must be >= 0")
            if leaves > 1 << depth:
                return []
        if leaves == 1:
            return [cls.leaf()]
        sub = None if depth is None else depth - 1
        out: list[TreeShape] = []
        for k in range(1, leaves):
            rights = cls.all_shapes(leaves - k, sub)
            for left in cls.all_shapes(k, sub):
                for right in rights:
                    out.append(cls(left, right))
        return out

    def __eq__(self, other: object) -> bool:
        return isinstance(other, TreeShape) and self.render() == other.render()

    def __hash__(self) -> int:
        return hash(self.render())

    def __repr__(self) -> str:
        return f"TreeShape({self.render()!r})"


class Diagram:
    """A span of two embeddings of a common base into a left and right side."""

    __slots__ = ("base", "left", "right", "left_emb", "right_emb", "_skeletons")

    def __init__(
        self,
        base: Structure,
        left: Structure,
        right: Structure,
        left_emb: ElementMap,
        right_emb: ElementMap,
    ):
        if base.signature != left.signature or base.signature != right.signature:
            raise core.SignatureMismatch("diagram parts must share one signature")
        if not morphisms.check_morphism(left_emb, base, left, "embedding"):
            raise StructureError("left map is not an embedding of the base")
        if not morphisms.check_morphism(right_emb, base, right, "embedding"):
            raise StructureError("right map is not an embedding of the base")
        self.base = base
        self.left = left
        self.right = right
        self.left_emb = left_emb
        self.right_emb = right_emb
        self._skeletons: dict[int, _JCSkeleton] = {}  # built on first use, per m

    @property
    def order(self) -> int:
        return len(self.base.domain)

    def skeleton(self, m: int) -> "_JCSkeleton":
        """The glue skeleton of the m-fold blow-up of the base (see ``build_JC``).

        Raises ``BudgetExceeded``, before building anything, when
        ``_skeleton_size`` is over ``SKELETON_LIMIT``.
        """
        if m not in self._skeletons:
            self._skeletons[m] = _JCSkeleton(self, m)
        return self._skeletons[m]

    def free_amalgam(self) -> core.AmalgamResult:
        return core.free_amalgam(self.base, self.left_emb, self.left, self.right_emb, self.right)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Diagram)
            and self.base == other.base
            and self.left == other.left
            and self.right == other.right
            and self.left_emb == other.left_emb
            and self.right_emb == other.right_emb
        )

    def __hash__(self) -> int:
        return hash((self.base, self.left, self.right, self.left_emb, self.right_emb))

    def __repr__(self) -> str:
        return f"Diagram(|A|={self.order}, |L|={len(self.left.domain)}, |R|={len(self.right.domain)})"


class Coloring:
    """A two-sided coloring of a list of embeddings ("spots").

    ``sides`` holds one of ``"L"``/``"R"`` per spot, aligned with ``spots``.
    The encoding is the integer whose bit i is 1 exactly when spot i is
    colored ``"R"``.
    """

    __slots__ = ("spots", "sides")

    def __init__(self, spots: Sequence[ElementMap], sides: Sequence[str]):
        if len(spots) != len(sides):
            raise StructureError("coloring must assign one side per spot")
        for side in sides:
            if side not in ("L", "R"):
                raise StructureError(f"bad side {side!r}; expected 'L' or 'R'")
        self.spots = tuple(spots)
        self.sides = tuple(sides)

    @classmethod
    def from_encoding(cls, spots: Sequence[ElementMap], encoding: int) -> "Coloring":
        """The coloring whose spot i is ``"R"`` exactly when bit i of ``encoding`` is set.

        Bits from ``len(spots)`` up are ignored, and a negative encoding is
        read in two's complement.  The sides are decoded in one pass, lowest
        bit first, and are valid by construction, so they are not checked.
        """
        coloring = cls.__new__(cls)
        coloring.spots = spots = tuple(spots)
        n = len(spots)
        bits = format(encoding & ((1 << n) - 1), "b").zfill(n)[::-1] if n else ""
        coloring.sides = tuple(bits.translate(_SIDES))
        return coloring

    def of(self, spot: ElementMap) -> str:
        try:
            return self.sides[self.spots.index(spot)]
        except ValueError:
            raise StructureError("spot is not in the coloring's domain") from None

    def __len__(self) -> int:
        return len(self.spots)


_SIDES = str.maketrans("01", "LR")


# ---------------------------------------------------------------------------
# Linear-equation templates and tree instances

VALUE = "value"
TRIPLE = "triple"
PI = ("pi1", "pi2", "pi3")


def template_signature(group: AbelianGroup) -> Signature:
    symbols = [(PI[0], 2), (PI[1], 2), (PI[2], 2), (VALUE, 1), (TRIPLE, 1)]
    symbols += [(group.label(a), 1) for a in group.elements()]
    return Signature(symbols)


def build_template(group: AbelianGroup) -> Structure:
    """Incidence template for x+y+z = 0 over the group, plus x = a markers.

    The domain has one element per group value and one per zero-sum triple;
    the three binary relations are the graphs of the coordinate projections.
    """
    sig = template_signature(group)
    elements = group.elements()
    value_id = {a: group.render(a) for a in elements}
    rels: dict[str, set[tuple[str, ...]]] = {name: set() for name in sig.names}
    domain: list[str] = list(value_id.values())
    for a in elements:
        rels[VALUE].add((value_id[a],))
        rels[group.label(a)].add((value_id[a],))
    for x in elements:
        for y in elements:
            z = group.neg(group.add(x, y))
            t = f"{group.render(x)}+{group.render(y)}+{group.render(z)}"
            domain.append(t)
            rels[TRIPLE].add((t,))
            rels[PI[0]].add((t, value_id[x]))
            rels[PI[1]].add((t, value_id[y]))
            rels[PI[2]].add((t, value_id[z]))
    return Structure(sig, domain, rels)


def _tree_shape_for(n: int, shape: Optional[TreeShape]) -> TreeShape:
    if shape is not None:
        return shape
    if n < 1 or n & (n - 1):
        raise StructureError("leaf count must be a power of two unless a shape is given")
    return TreeShape.balanced(n.bit_length() - 1)


def tree_instance(n: int, shape: Optional[TreeShape] = None) -> Structure:
    """Equation instance shaped like a binary tree with ``n`` leaves.

    Nodes are value elements and each inner node contributes a triple
    element wired to its father, left son, and right son.  The default
    shape is the complete tree, so ``n`` must then be a power of two;
    passing an explicit shape lifts that restriction (such instances sit
    outside the balanced-tree guarantees of the glued families).
    """
    shape = _tree_shape_for(n, shape)
    if shape.leaf_count() != n:
        raise StructureError("shape leaf count disagrees with n")
    sig = Signature([(PI[0], 2), (PI[1], 2), (PI[2], 2), (VALUE, 1), (TRIPLE, 1)])
    rels: dict[str, set[tuple[str, ...]]] = {name: set() for name in sig.names}
    domain: list[str] = []
    for path, is_leaf in shape.paths():
        node = f"n{path}"
        domain.append(node)
        rels[VALUE].add((node,))
        if not is_leaf:
            trip = f"t{path}"
            domain.append(trip)
            rels[TRIPLE].add((trip,))
            rels[PI[0]].add((trip, node))
            rels[PI[1]].add((trip, f"n{path}0"))
            rels[PI[2]].add((trip, f"n{path}1"))
    return Structure(sig, domain, rels)


def tree_root(instance: Structure) -> str:
    """The root node: a value element that is never a left or right son."""
    sons = {t[1] for t in instance.relation(PI[1])} | {t[1] for t in instance.relation(PI[2])}
    roots = [x for (x,) in instance.relation(VALUE) if x not in sons]
    fathers = {t[1] for t in instance.relation(PI[0])}
    if fathers:
        roots = [x for x in roots if x in fathers]
    if len(roots) != 1:
        raise StructureError("instance has no identifiable root")
    return roots[0]


def tree_leaves(instance: Structure) -> list[str]:
    """Leaf nodes: value elements that are below no triple."""
    fathers = {t[1] for t in instance.relation(PI[0])}
    return [x for (x,) in sorted(instance.relation(VALUE)) if x not in fathers]


def marking(instance: Structure, a: Sequence[int], group: AbelianGroup) -> Structure:
    """The instance with its root marked by the predicate of value ``a``.

    The signature is enlarged to the full template signature of ``group``,
    so markings can be matched directly against ``build_template(group)``.
    """
    a = tuple(a)
    if a not in set(group.elements()):
        raise StructureError(f"{a!r} is not an element of {group!r}")
    root = tree_root(instance)
    target_sig = template_signature(group)
    extra = [s for s in target_sig.symbols if s[0] not in instance.signature]
    expanded = core.add_symbols(instance, extra)
    rels = {name: set(ts) for name, ts in expanded.relations_items()}
    rels[group.label(a)].add((root,))
    return Structure(expanded.signature, expanded.domain, rels)


def _span(left: Structure, right: Structure, shared: Iterable[str]) -> Diagram:
    """The span over ``left`` induced on ``shared``, both maps inclusions."""
    base = core.induced_substructure(left, shared)
    inclusion = {x: x for x in base.domain}
    return Diagram(
        base,
        left,
        right,
        ElementMap(base.domain, left.domain, inclusion),
        ElementMap(base.domain, right.domain, inclusion),
    )


def diagram_lineq(
    n: int,
    group: AbelianGroup,
    a: Optional[Sequence[int]] = None,
    shape: Optional[TreeShape] = None,
) -> Diagram:
    """Span gluing the 0-marked and a-marked copies of a tree along its leaves."""
    if group.is_trivial:
        raise StructureError("the trivial group admits no distinct markings")
    if n < 2:
        raise StructureError("need at least two leaves")
    mark = tuple(a) if a is not None else group.first_nonzero()
    if mark == group.zero:
        raise StructureError("the second marking must be nonzero")
    instance = tree_instance(n, shape)
    left = marking(instance, group.zero, group)
    right = marking(instance, mark, group)
    return _span(left, right, tree_leaves(instance))


# ---------------------------------------------------------------------------
# The colored-path family and its double-cone structures

FN_SIGNATURE = Signature([("E", 2), ("Ed", 2), ("R", 1), ("B", 1), ("S", 1), ("T", 1)])


def _path_ids(n: int, prefix: str) -> list[str]:
    width = len(str(n))
    return [f"{prefix}{str(i).zfill(width)}" for i in range(1, n + 1)]


def gen_Fn(n: int) -> Structure:
    """Directed source-to-target path with a red and a blue vertex cone.

    Both colored vertices see every path vertex through the symmetric edge
    relation; each unary label occurs exactly once.
    """
    if n < 1:
        raise StructureError("the path needs at least one vertex")
    path = _path_ids(n, "v")
    red, blue = "red", "blue"
    rels: dict[str, set[tuple[str, ...]]] = {name: set() for name in FN_SIGNATURE.names}
    rels["S"].add((path[0],))
    rels["T"].add((path[-1],))
    rels["R"].add((red,))
    rels["B"].add((blue,))
    for u, v in zip(path, path[1:]):
        rels["Ed"].add((u, v))
    for v in path:
        for c in (red, blue):
            rels["E"].add((c, v))
            rels["E"].add((v, c))
    return Structure(FN_SIGNATURE, path + [red, blue], rels)


def diagram_Fn(n: int) -> Diagram:
    """Span of the red-only and blue-only halves glued along the path."""
    full = gen_Fn(n)
    path = [x for x in full.domain if x not in ("red", "blue")]
    left = core.induced_substructure(full, path + ["red"])
    right = core.induced_substructure(full, path + ["blue"])
    return _span(left, right, path)


# ---------------------------------------------------------------------------
# The binary-tree family with a blue vertex over the leaves

G_SIGNATURE = Signature([("E", 2), ("Ed0", 2), ("Ed1", 2), ("R", 1), ("B", 1)])


def gen_G(shape: TreeShape) -> Structure:
    """Rooted directed binary tree, red root, blue vertex over all leaves."""
    if shape.is_leaf:
        raise StructureError("the tree needs at least one inner node")
    rels: dict[str, set[tuple[str, ...]]] = {name: set() for name in G_SIGNATURE.names}
    domain: list[str] = ["blue"]
    leaves: list[str] = []
    for path, is_leaf in shape.paths():
        node = f"t{path}"
        domain.append(node)
        if is_leaf:
            leaves.append(node)
        else:
            rels["Ed0"].add((node, f"t{path}0"))
            rels["Ed1"].add((node, f"t{path}1"))
    rels["R"].add(("t",))
    rels["B"].add(("blue",))
    for leaf in leaves:
        rels["E"].add(("blue", leaf))
        rels["E"].add((leaf, "blue"))
    return Structure(G_SIGNATURE, domain, rels)


def diagram_G(shape: TreeShape) -> Diagram:
    """Span of the bare tree and the blue cone glued along the leaves."""
    full = gen_G(shape)
    tree_nodes = [x for x in full.domain if x != "blue"]
    leaves = sorted(t[1] for t in full.relation("E") if t[0] == "blue")
    left = core.induced_substructure(full, tree_nodes)
    right = core.induced_substructure(full, leaves + ["blue"])
    return _span(left, right, leaves)


# ---------------------------------------------------------------------------
# Glued blow-ups

def _right_quotes(diagram: Diagram) -> str:
    """The shortest run r of ``'`` such that no r + x, for x a fresh
    identifier of the right side, is a fresh identifier of the left side."""
    left = diagram.left.domain_set - diagram.left_emb.image
    right = diagram.right.domain_set - diagram.right_emb.image
    quotes = ""
    while any(quotes + x in left for x in right):
        quotes += "'"
    return quotes


# Most elements plus tuples a glue skeleton may plan for its union of side
# copies.  F_4 at m=9 plans 249,615 and ((..)(..)) 183,744.  Built and indexed
# for search, F_4's skeleton peaked at 137 MiB at m=9 and at 777 MiB at m=12
# (788,472 planned), since each bitmask row spans the whole union.  F_4 at
# m=30 (810,000 spots) plans over 30 million and is refused before any spot
# is built.
SKELETON_LIMIT = 1 << 18


def capped_power(m: int, e: int, cap: int) -> int:
    """m**e for m >= 0, or cap + 1 when that is larger.

    Read from bit lengths first: for m >= 2, m**e is at least
    2**((m.bit_length() - 1) e), and below 2**(2 (m.bit_length() - 1) e), so
    no power of more than 2 cap.bit_length() bits is ever raised.
    """
    if m > 1 and (m.bit_length() - 1) * e > cap.bit_length():
        return cap + 1
    return min(m**e, cap + 1)


def _skeleton_size(diagram: Diagram, m: int) -> int:
    """Elements plus tuples of the m-fold skeleton's union of side copies,
    bounded above; any count over ``SKELETON_LIMIT`` stands for all larger.

    Counted from the diagram alone: the blow-up has m elements per base
    element and m^r tuples per base tuple of arity r, and each of the m^|A|
    spots adds at most one copy of each side, elements and tuples.  Each
    power of m is capped just over the limit (``capped_power``), so a huge m
    is refused without being raised to any power: a capped power times a
    count of at least 1 is over the limit alone, and times 0 is exact.
    """
    base = diagram.base
    blown = m * len(base.domain) + sum(
        capped_power(m, base.signature.arity(name), SKELETON_LIMIT) * len(ts)
        for name, ts in base.relations_items()
    )
    sides = sum(
        len(part.domain) + sum(len(ts) for _, ts in part.relations_items())
        for part in (diagram.left, diagram.right)
    )
    return blown + capped_power(m, len(base.domain), SKELETON_LIMIT) * sides


class _JCSkeleton:
    """The m-fold blow-up of a diagram's base with every side copy rendered.

    ``spots`` are the canonical embeddings of the base into the blow-up
    ``j``, in their lexicographic order.  A fresh element x of the left
    copy glued at spot k is named ``{prefix}{k}.x``, and one of the right
    copy ``{prefix}{k}.{r}x``, where r is the shortest run of ``'`` such
    that no r + x, for x a fresh identifier of the right side, is a fresh
    identifier of the left side (``_right_quotes``).  The prefix is ``g``,
    lengthened until no blow-up identifier starts with it.  No two copies
    share a name, and no copy shares one with the blow-up:

    - every fresh name starts with the prefix, and no blow-up identifier does;
    - the prefix holds no ``.``, so k ends at the first one: spots differ;
    - at one spot, ``{k}.x = {k}.{r}y`` needs x = r + y, which r rules out.

    When the sides share no fresh identifier, as in F_n and G, r is empty;
    the two markings of one tree in ``diagram_lineq`` share their inner
    nodes, and r is ``'``.

    ``all`` is J_all: the blow-up glued with both side copies at every
    spot, an ordinary structure checked once by ``Structure``.  ``blowup``
    is the mask of the blow-up's elements over J_all's sorted domain, and
    ``copies`` maps each spot to the ``(L, R)`` masks of its two copies'
    fresh elements; ``pairs`` lists the same pairs aligned with ``spots``,
    so a coloring over ``spots`` itself finds them without hashing a spot.
    Nothing here depends on a coloring.  ``_skeleton_size`` is checked
    against ``SKELETON_LIMIT`` before any spot is built, and a larger
    skeleton raises ``BudgetExceeded``.
    """

    __slots__ = ("j", "spots", "all", "blowup", "copies", "pairs")

    def __init__(self, diagram: Diagram, m: int):
        size = _skeleton_size(diagram, m)
        if size > SKELETON_LIMIT:
            raise BudgetExceeded(
                f"the m-fold glue skeleton plans over {SKELETON_LIMIT} elements and tuples"
            )
        emb = morphisms.canonical_embeddings(diagram.base, m)
        self.j = emb.target
        self.spots = emb.members
        prefix = "g"
        while any(x.startswith(prefix) for x in self.j.domain):
            prefix += "g"
        sides = (
            (diagram.left, diagram.left_emb, ""),
            (diagram.right, diagram.right_emb, _right_quotes(diagram)),
        )
        domain = list(self.j.domain)
        rels = {name: set(ts) for name, ts in self.j.relations_items()}
        fresh = []  # the fresh names of each copy, L then R at each spot
        for k, spot in enumerate(self.spots):
            for part, side_emb, quotes in sides:
                glued = {side_emb[a]: spot[a] for a in diagram.base.domain}
                name = {x: f"{prefix}{k}.{quotes}{x}" for x in part.domain if x not in glued}
                fresh.append(list(name.values()))
                domain.extend(fresh[-1])
                name.update(glued)
                for rel, ts in part.relations_items():
                    rels[rel].update(tuple(map(name.__getitem__, t)) for t in ts)
        self.all = Structure(diagram.base.signature, domain, rels)
        bit = {x: 1 << i for i, x in enumerate(self.all.domain)}
        self.blowup = sum(map(bit.__getitem__, self.j.domain))
        masks = [sum(map(bit.__getitem__, names)) for names in fresh]
        self.pairs = tuple(zip(masks[::2], masks[1::2]))
        self.copies = dict(zip(self.spots, self.pairs))


def build_JC(diagram: Diagram, m: int, coloring: Coloring) -> Structure:
    """Blow-up of the base glued with one fresh side copy per colored spot.

    Spots must be canonical embeddings of the base into its m-fold blow-up;
    a partial coloring glues only the spots it covers.  A coloring over the
    skeleton's own ``spots`` tuple, as every sweep's is, reads its copies
    from ``pairs`` by position; any other looks each spot up in ``copies``.
    The blow-up stays an induced substructure, so each spot, read with the
    glued domain as target, is the lifted embedding of the base.  Fresh
    copies are named as in ``_JCSkeleton``.

    J_C is J_all induced on ``alive``, the blow-up and the fresh elements
    of the chosen copies.  Every tuple of J_C is in J_all and inside
    ``alive``.  Conversely, every tuple of J_all comes from the blow-up or
    from one copy, and no two copies share a name, so none joins fresh
    elements of two copies.  A tuple of J_all inside ``alive`` is thus a
    blow-up tuple, a chosen copy's, or an unchosen copy's among glued
    elements only.  The last is the image of a base tuple, since the side
    map is an embedding, carried by the spot into the blow-up, which holds
    it already.  So ``core.induced_on_mask`` gives J_C, its tuples derived
    from J_all, which was checked when the skeleton was built.
    """
    skeleton = diagram.skeleton(m)
    pairs = skeleton.pairs
    if coloring.spots is not skeleton.spots:
        try:
            pairs = [skeleton.copies[spot] for spot in coloring.spots]
        except KeyError:
            raise StructureError("coloring mentions a spot outside the canonical embeddings") from None
    alive = skeleton.blowup
    for pair, side in zip(pairs, coloring.sides):
        alive |= pair[side == "R"]
    return core.induced_on_mask(skeleton.all, alive)


# ---------------------------------------------------------------------------
# Source-to-target paths and their reachability split

P_SIGNATURE = Signature([("Ed", 2), ("S", 1), ("T", 1)])


def gen_Pn(n: int) -> Structure:
    """Simple directed path on n nodes, source-labeled start, target-labeled end."""
    if n < 1:
        raise StructureError("the path needs at least one node")
    ids = _path_ids(n, "p")
    rels: dict[str, set[tuple[str, ...]]] = {name: set() for name in P_SIGNATURE.names}
    rels["S"].add((ids[0],))
    rels["T"].add((ids[-1],))
    for u, v in zip(ids, ids[1:]):
        rels["Ed"].add((u, v))
    return Structure(P_SIGNATURE, ids, rels)


class ExcludedPathError(StructureError):
    """A directed walk from a source node to a target node was found."""

    def __init__(self, path: list[str]):
        super().__init__(f"source-to-target path exists: {' -> '.join(path)}")
        self.path = path


def io_expansion(s: Structure) -> Structure:
    """Expansion splitting the domain into forward-reachable and the rest.

    ``I`` holds the nodes reachable from a source-labeled node (including
    those nodes), ``O`` the complement.  Raises ExcludedPathError with a
    witnessing walk when a target-labeled node is reachable.
    """
    if s.signature != P_SIGNATURE:
        raise core.SignatureMismatch("expected the source/target path signature")
    succ: dict[str, list[str]] = {x: [] for x in s.domain}
    for (u, v) in sorted(s.relation("Ed")):
        succ[u].append(v)
    targets = {x for (x,) in s.relation("T")}
    parent: dict[str, Optional[str]] = {}
    frontier = sorted(x for (x,) in s.relation("S"))
    for x in frontier:
        parent[x] = None
    queue = list(frontier)
    while queue:
        x = queue.pop(0)
        if x in targets:
            path = [x]
            while parent[path[-1]] is not None:
                path.append(parent[path[-1]])  # type: ignore[arg-type]
            raise ExcludedPathError(list(reversed(path)))
        for y in succ[x]:
            if y not in parent:
                parent[y] = x
                queue.append(y)
    inside = set(parent)
    return core.add_symbols(
        s,
        [("I", 1), ("O", 1)],
        {
            "I": {(x,) for x in inside},
            "O": {(x,) for x in s.domain if x not in inside},
        },
    )


def cplus_check(splus: Structure) -> bool:
    """The reachability-split membership conditions for expanded structures.

    Requires the I/O predicates to partition the domain, sources inside,
    targets outside, and no directed edge from inside to outside.
    """
    for name in ("I", "O", "S", "T", "Ed"):
        if name not in splus.signature:
            raise StructureError(f"missing predicate {name!r}")
    inside = {x for (x,) in splus.relation("I")}
    outside = {x for (x,) in splus.relation("O")}
    if inside & outside or inside | outside != set(splus.domain):
        return False
    if not {x for (x,) in splus.relation("S")} <= inside:
        return False
    if not {x for (x,) in splus.relation("T")} <= outside:
        return False
    for (u, v) in splus.relation("Ed"):
        if u in inside and v in outside:
            return False
    return True


# ---------------------------------------------------------------------------
# Family enumerators for Forb_h membership
#
# Calling a family on an input structure yields its members in the family's
# order up to a bound worked out from the input, which always covers the first
# member that maps homomorphically into it.  The bounds rest on the height
# (core.height) of the input's directed relations, since a homomorphism maps
# a directed walk onto a walk of the same length (Hell & Nesetril, Graphs and
# Homomorphisms, 2004).
#
# A view (core.induced_on_mask) is bounded by its host's height, which the
# host's MaskIndex keeps, so every J_C of one sweep reads one number.  The
# view is an induced substructure of its host, so its walks are walks of the
# host, and an acyclic host's height bounds the view's.  The members up to
# the host's bound contain those up to the view's, in the same order, and a
# member past the view's bound maps into no view.  So the first member that
# maps, and with it the verdict and the evidence, are those of the view's
# own bound.  A cyclic host bounds nothing, and the view's own height is
# used.

# Deepest tree shapes the G family enumerates: 676 members have depth at most
# 4, but 458,329 have depth at most 5.
G_MAX_DEPTH = 4


class _PathFamily:
    """One member per path length n, for n up to h + 1 when Ed is acyclic
    with height h and up to |s| otherwise; ``generate`` builds member n.
    The height h is the host's when the host's Ed is acyclic: the range up
    to the host's h + 1 starts with the range up to the view's."""

    def __init__(self):
        self._cache: dict[int, Structure] = {}

    def __call__(self, s: Structure) -> Iterator[Structure]:
        h = core.height(s.host, ("Ed",))
        if h is None:
            h = core.height(s, ("Ed",))
        most = len(s.domain) if h is None else h + 1
        for n in range(1, most + 1):
            if n not in self._cache:
                self._cache[n] = self.generate(n)
            yield self._cache[n]


class FnFamily(_PathFamily):
    """The colored-path family, indexed by path length; member size is n + 2.

    On input ``s`` it yields F_n for n <= h + 1 when Ed is acyclic in ``s``
    with height h, and for n <= |s| otherwise.  Proof: a homomorphism from
    F_n sends its path to an Ed-walk of n - 1 edges, so n - 1 <= h.  That
    walk runs from an S-element to a T-element through elements that are
    E-adjacent both ways to the images of red and blue; the shortest such
    walk among those elements is a simple path of k <= min(n, |s|) nodes,
    and F_k maps onto it.  So the first member that maps, in order of n, is
    always yielded.  On a view whose host's Ed is acyclic, h is the host's
    height: the view's walks are the host's, so the host's h bounds the
    view's, and F_n past the view's own bound maps into no view.
    """

    generate = staticmethod(gen_Fn)


class GFamily:
    """The leaf-glued binary-tree family, enumerated by leaf count then shape.

    A member with k leaves has 2k elements.  On input ``s`` it yields the
    shapes of depth at most D, where D is the height h of Ed0 | Ed1 in ``s``
    when that union is acyclic, and |s| otherwise.  Proof: a homomorphism
    sends each root-to-leaf path of depth d to a walk of d edges, so d <= h.
    In the cyclic case take a mapping member with the fewest leaves.  Were
    its depth above |s|, its deepest root-to-leaf path would hold two inner
    nodes u above w with one image; putting the subtree at w in place of the
    subtree at u keeps a homomorphism and loses leaves.  So the first member
    that maps, in leaf order, is always yielded.  D above G_MAX_DEPTH raises
    BudgetExceeded.

    On a view, h is the host's height when the host's Ed0 | Ed1 is acyclic
    and at most G_MAX_DEPTH, and the view's own otherwise, so no input is
    refused that the view's own bound would take.  The host's walks hold
    the view's, so its h bounds the view's; ``all_shapes(leaves, depth)``
    is the unbounded list with the deeper trees left out, so the members
    up to the view's depth are the host's with the deeper ones left out,
    in the same order, and a deeper member maps into no view.
    """

    def __init__(self):
        self._cache: dict[int, list[Structure]] = {}

    def members_of_depth(self, depth: int) -> list[Structure]:
        """Members of depth at most ``depth``, by leaf count then shape."""
        if depth not in self._cache:
            self._cache[depth] = [
                gen_G(shape)
                for leaves in range(2, (1 << depth) + 1)
                for shape in TreeShape.all_shapes(leaves, depth)
            ]
        return self._cache[depth]

    def __call__(self, s: Structure) -> Iterator[Structure]:
        h = core.height(s.host, ("Ed0", "Ed1"))
        if h is None or h > G_MAX_DEPTH:
            h = core.height(s, ("Ed0", "Ed1"))
        depth = len(s.domain) if h is None else h
        if depth > G_MAX_DEPTH:
            raise BudgetExceeded(
                f"tree members up to depth {depth} exceed the depth limit {G_MAX_DEPTH}"
            )
        yield from self.members_of_depth(depth)


class PnFamily(_PathFamily):
    """The source-to-target path family; member size is n.

    Yields P_n for the same n as FnFamily, by the same proof: the image of
    P_n is an S-to-T Ed-walk, whose shortest sub-walk is a simple path.  A
    view is bounded by its host's height as FnFamily's is.
    """

    generate = staticmethod(gen_Pn)
