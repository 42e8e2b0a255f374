"""(k,l)-consistency as a greatest-fixpoint computation over partial maps.

Two engines compute the same greatest fixpoint.  ``_Fixpoint`` keeps, for
every subset of the instance domain of size at most l, the set of surviving
assignments into the template.  Starting from all partial homomorphisms,
assignments are deleted when a restriction dies or when a required
extension to some superset disappears; the fixpoint family is empty exactly
when the empty assignment is deleted.  The deletion order is deterministic
and is kept, 8 bytes per deletion.  When a trace is asked for, the fixpoint
also records the superset behind each "unsupported" death; every other
reason is derived from the deletion order, and the reasons drive the
extraction of a spoiler strategy tree for inconsistent instances.
``spoiler_trace``, ``kl_family`` and ``is_consistent`` at l != k + 1 run it.

``_KSetFixpoint`` decides ``is_consistent`` at l = k + 1 from the tables of
at most k elements alone: there a (k+1)-element entry survives iff it is a
partial homomorphism whose k-element projections survive, so its support
checks read the k-element tables directly (path consistency at k = 2).

One memory budget, ``MEMORY_CAP``, bounds what either engine holds: its
subset index, tables, masks and neighbour lists, counted from the arguments
before any subset is listed (``_Fixpoint`` takes each neighbour list as it
builds it); its deletion log, counted once the tables are built; and a
trace's nodes, counted as each is made.

Each subset's surviving assignments are one bit set: an assignment packs
into an integer with one base-|B| digit per subset position, and is present
while that bit of the subset's table is set.  Support checks, restriction
closure and the duplicator's replies in a trace are then ANDs with
precomputed extension masks, or with rows of the k-element tables.
"""

from __future__ import annotations

from array import array
from bisect import bisect
from itertools import combinations, product, repeat
from math import comb
from typing import Optional

from . import morphisms
from .core import BudgetExceeded, ElementMap, SignatureMismatch, Structure, StructureError

# bytes a (k,l) engine may hold (see ``_Fixpoint._check_memory``): at (2,3)
# lineq Z3 n=16 counts 213 MiB with its trace, and Z5 n=8 1.5 MiB without
# one; Z5 n=2 at (2,4) is refused from the arguments
MEMORY_CAP = 256 * 2**20


class ConsistencyFamily:
    """The surviving family of partial homomorphisms, indexed per subset.

    ``table`` maps each subset of the instance domain (as a sorted identifier
    tuple, sizes 0..l) to the frozen set of surviving assignments, each a
    value-identifier tuple aligned with the subset.
    """

    __slots__ = ("instance", "template", "k", "l", "table")

    def __init__(
        self,
        instance: Structure,
        template: Structure,
        k: int,
        l: int,
        table: dict[tuple[str, ...], frozenset[tuple[str, ...]]],
    ):
        self.instance = instance
        self.template = template
        self.k = k
        self.l = l
        self.table = table


class TraceNode:
    """One spoiler move: the position held, the action, and all replies.

    ``action`` is "extend" or "retract"; ``target`` is the pebbled subset
    after the move.  For extensions, ``children`` pairs every duplicator
    reply that is a partial homomorphism with the follow-up node; a childless
    extension is a winning leaf.  Retractions have the single forced child.
    """

    __slots__ = ("pebbles", "values", "action", "target", "children")

    def __init__(
        self,
        pebbles: tuple[str, ...],
        values: tuple[str, ...],
        action: str,
        target: tuple[str, ...],
        children: tuple[tuple[tuple[str, ...], "TraceNode"], ...],
    ):
        self.pebbles = pebbles
        self.values = values
        self.action = action
        self.target = target
        self.children = children


class GameTrace:
    """A finite spoiler strategy tree extracted from the deletion sequence."""

    __slots__ = ("root",)

    def __init__(self, root: TraceNode):
        self.root = root


def _validate_args(a: Structure, b: Structure, k: int, l: int) -> None:
    if a.signature != b.signature:
        raise SignatureMismatch("instance and template signatures differ")
    if k < 1:
        raise StructureError("k must be >= 1")
    if l < k:
        raise StructureError("l must be >= k")


def _int_bytes(bits: int) -> int:
    """What ``tracemalloc`` counts for an int of that many bits (see
    ``_Fixpoint._check_memory``)."""
    return 28 + 4 * (bits // 30)


class _Tables:
    """What both engines build their first tables from.

    An assignment on a sequence of distinct instance elements is packed
    into an int, one base-|B| digit per position (position r weighs
    base**r); a table is one int whose bit h is set while packed assignment
    h is present.  ``_initial_table`` takes the elements in any order, and
    the digits follow that order.
    """

    def __init__(self, a: Structure, b: Structure, k: int, l: int):
        _validate_args(a, b, k, l)
        self.a = a
        self.b = b
        self.k = k
        self.l = l
        self.a_ids = a.domain
        self.b_ids = b.domain
        self.base = max(len(self.b_ids), 1)
        self.left = MEMORY_CAP
        self.mask_memo: dict[tuple[int, tuple[int, ...]], tuple[int, list[int], list[int]]] = {}
        self.tuple_memo: dict[tuple[str, int, tuple[int, ...]], int] = {}

    def _tuple_mask(self, name: str, size: int, at: tuple[int, ...]) -> int:
        """Every assignment on a size-element subset that maps the instance
        tuple at subset positions ``at`` into the template relation ``name``."""
        key = (name, size, at)
        found = self.tuple_memo.get(key)
        if found is None:
            positions = tuple(sorted(set(at)))
            free, stems, _ = self._masks(size, positions)
            found = 0
            for row in self.b.positions(name):
                digit = dict(zip(at, row))
                # a repeated element needs equal template values
                if all(digit[p] == v for p, v in zip(at, row)):
                    h = sum(digit[p] * self.base**r for r, p in enumerate(positions))
                    found |= free << stems[h]
            self.tuple_memo[key] = found
        return found

    def _initial_table(self, elems: tuple[int, ...], groups, table: int = -1) -> int:
        """The assignments of table, by default all of them, on elems that
        satisfy every instance tuple of ``groups``, lists of (name, element
        indices), that lies inside elems."""
        index_of = {e: i for i, e in enumerate(elems)}
        table &= (1 << len(self.b_ids) ** len(elems)) - 1
        for group in groups:
            for name, idx in group:
                if all(i in index_of for i in idx):
                    at = tuple(map(index_of.__getitem__, idx))
                    table &= self._tuple_mask(name, len(elems), at)
        return table

    def _number_subsets(self, n: int, top: int) -> None:
        """Number the subsets of at most top of the n elements by size, then
        lexicographically: ``subset_elems`` and ``subset_id`` map between
        numbers and sorted element tuples.  A deletion is kept as the key
        ``s_id * span + h`` with ``span = base**top``, which must fit in a
        signed 64-bit integer."""
        self.span = self.base**top
        if sum(comb(n, size) for size in range(top + 1)) * self.span > 2**63:
            raise BudgetExceeded("consistency table is too large to number its assignments")
        self.subset_elems: list[tuple[int, ...]] = []
        self.subset_id: dict[tuple[int, ...], int] = {}
        for size in range(top + 1):
            for elems in combinations(range(n), size):
                self.subset_id[elems] = len(self.subset_elems)
                self.subset_elems.append(elems)

    def _spend(self, need: int, what: str) -> None:
        """Take need bytes from what is left of ``MEMORY_CAP``, or refuse."""
        self.left -= need
        if self.left < 0:
            raise BudgetExceeded(
                f"the consistency {what} would take the run over "
                f"its {MEMORY_CAP >> 20} MiB memory cap"
            )

    def _memo_bytes(self, size: int, placings: int = 1) -> int:
        """The most ``mask_memo`` and ``tuple_memo`` can hold for
        size-element subsets (the figures are ``_Fixpoint._check_memory``'s):
        one mask entry per position pattern, and one tuple mask per distinct
        placement, of which a relation has at most size**arity, and at most
        ``placings`` x 2**size per instance tuple."""
        assignments = self.base**size
        table = _int_bytes(assignments)
        position = _int_bytes(assignments.bit_length())
        need = 0
        for j in range(size + 1):
            values = self.base**j
            proj = 9 + (_int_bytes(values.bit_length()) if values > 257 else 0)
            pattern = 100 + 96 + 8 * j + 64 + table + 56 + values * (9 + position)
            need += comb(size, j) * (pattern + 56 + assignments * proj)
        for name, arity in self.a.signature.symbols:
            placements = min(size**arity, placings * len(self.a.positions(name)) << size)
            need += placements * (204 + 8 * arity + table)
        return need

    def _masks(self, size: int, positions: tuple[int, ...]) -> tuple[int, list[int], list[int]]:
        """``(free, stems, proj)`` for ascending positions in a size-element
        subset (see ``_Fixpoint``)."""
        key = (size, positions)
        found = self.mask_memo.get(key)
        if found is None:
            base = self.base
            free, stems, proj = 1, [0], [0]
            for p in range(size):
                digit = [d * base**p for d in range(base)]
                if p in positions:
                    weight = base ** positions.index(p)
                    stems = [s + v for v in digit for s in stems]
                    proj = [h + d * weight for d in range(base) for h in proj]
                else:
                    free = sum(free << v for v in digit)
                    proj = [h for _ in digit for h in proj]
            found = self.mask_memo[key] = (free, stems, proj)
        return found


class _Fixpoint(_Tables):
    """The (k,l) engine for kl_family, spoiler_trace and is_consistent at
    l != k + 1.

    Subsets of the instance domain with at most l elements are numbered by
    size, then lexicographically; ``subset_elems`` and ``subset_id`` map
    between numbers and sorted element-index tuples.  An assignment on a
    subset is packed into an int, one base-|B| digit per subset position
    (position r weighs base**r).  Each subset's table is one int whose bit h
    is set while packed assignment h survives.

    ``MEMORY_CAP`` is the one budget, and ``left`` is what is left of it.
    It is counted in three places: from the arguments, before any subset
    is listed (``_check_memory``); once, in one compare, right after the
    tables are built, for the deletion log and the trace path's reason
    maps; and in ``build_trace``, for each node as it is made.  A deletion
    is kept as the key ``s_id * span + h`` with ``span = base**top``.  The
    count bounds both the number of subsets and span by 8 x ``MEMORY_CAP``
    bits, so every key fits in a signed 64-bit integer; the key check is
    kept apart so that a larger cap still cannot overflow the deletion
    array.

    ``_masks(size, positions)`` describes a subset X seen through its
    positions inside a size-element subset Y.  The mask of h, every
    assignment on Y whose digits at ``positions`` spell h, is
    ``free << stems[h]``: ``free`` has a bit for each assignment of the other
    digits (with these digits 0) and ``stems[h]`` writes h's digits into
    ``positions``, so the two never carry into each other.  ``proj[g]`` is
    the digits of g at ``positions``, packed.  Masks range over all base
    values of the free digits, and every digit of a bit set in a table is a
    template value, so ``table[Y] & free << stems[h]`` is exactly the set of
    surviving extensions of h to Y, and h has support in Y iff it is
    nonzero.  A pattern costs base**size bits and at most 2 x base**size
    list entries, and a size has at most 2**size patterns.

    The first table of Y is the AND, over the instance tuples inside Y, of
    each tuple's mask: ``free << stems[h]`` ORed over the template tuples
    that fit it, with ``positions`` the distinct positions of its elements
    in Y and h the template digits there.  A template tuple fits when it
    agrees wherever the instance tuple repeats an element.  A partial
    homomorphism on Y is exactly an assignment that satisfies every instance
    tuple inside Y; each tuple's condition reads only the digits at its own
    positions, and its mask holds every assignment of the other digits.  So
    the AND of the masks, started from all |B|**|Y| assignments, is the set
    of partial homomorphisms on Y, unary tuples included.

    Y's immediate supersets, built by insertion (``_supersets``), and its
    down-subsets depend on Y's elements alone: ``run`` lists them on Y's
    first pop, never up front, in the order the plain loop lists them on
    every pop, and marks each deletion with the support checks it needs.
    """

    def __init__(self, a: Structure, b: Structure, k: int, l: int, trace: bool = False):
        super().__init__(a, b, k, l)
        self._constraints()
        self._subsets(trace)
        # the packed keys of the deleted assignments, in deletion order
        self.deaths = array("q")
        # the superset Y behind each "unsupported" death; only spoiler_trace
        # reads it, and every other reason follows from ``deaths``
        self.unsupported: Optional[dict[int, int]] = {} if trace else None

    # -- construction -------------------------------------------------

    def _constraints(self) -> None:
        """Index each instance tuple, as element indices, under its least
        element."""
        self.tuples_by_least: list[list[tuple[str, tuple[int, ...]]]] = [[] for _ in self.a_ids]
        for name in self.a.signature.names:
            for idx in self.a.positions(name):
                self.tuples_by_least[min(idx)].append((name, idx))

    def _subsets(self, trace: bool) -> None:
        n = len(self.a_ids)
        self.top = min(self.l, n)
        self._check_memory(n, trace)
        self._number_subsets(n, self.top)
        by_least = self.tuples_by_least
        self.table = [
            self._initial_table(elems, map(by_least.__getitem__, elems)) for elems in self.subset_elems
        ]
        # each initial entry dies at most once: 8 bytes for its key in
        # ``deaths`` and 1 for its mark, and 1 more for the 1/16 an array
        # over-allocates as it grows; on the trace path every entry below
        # the top size takes at most one ``unsupported`` and one ``when``
        # slot, each with a 32-byte key and value
        need = 10 * sum(t.bit_count() for t in self.table)
        if trace:
            below = len(self.subset_elems) - comb(n, self.top)
            need += 2 * (100 + 64) * sum(t.bit_count() for t in self.table[:below])
        self._spend(need, "deletion log")

    def _check_memory(self, n: int, trace: bool) -> None:
        """Count the bytes the run will hold from the arguments alone, and
        refuse over ``MEMORY_CAP`` before any subset is listed.

        Each figure is what ``tracemalloc`` reports for the object on 64-bit
        CPython 3.11, read off ``sys.getsizeof`` and, for the growth of a
        container, the peak of building it under ``tracemalloc``:

        - an int of b bits, 28 + 4 (b // 30) (30-bit digits after a 24-byte
          head): 32 for an id, int(b) below;
        - a tuple of t items, 40 + 8 t;
        - a list slot 9 (8, and a list grown by appends over-allocates by
          1/8), after a 56-byte head;
        - a dict slot 100, besides its key and value: building dicts of
          1,000 to 350,000 int -> int entries peaked at 154 bytes an entry,
          56 of them the two ints (the 24-byte entry and its index at 2/3
          load, with the old and the new table alive through a resize).

        The subsets are counted size by size, smallest first, and compared
        after each size, so an oversize l is refused after a few sizes and
        before any mask is counted.  A subset of size s takes, with
        P = base**s, D its down patterns and R the immediate supersets
        ``run`` lists for it (n - s below the top size, else none):

        - its tuple 40 + 8 s, its ``subset_elems`` slot 9, its ``subset_id``
          slot 100 with its id 32, its table slot 9 and its table int(P),
          twice on the trace path, where ``spoiler_trace`` keeps the tables
          from before the fixpoint, with 8 for its slot in that list;
        - its ``neighbours`` slot 8, and 162 for the initial pass's
          superset lists.  The empty subset's list holds every other
          subset at 81 each and is alive with the next one's, which holds
          fewer.  The ``neighbours`` entry itself, a 3-tuple 64, its up
          list 56 + 81 R (a 4-tuple and a slot each) and its down-subset
          ids 40 + 8 D, is taken from the budget by ``run`` when it builds
          it, at the subset's first pop, as most subsets are never popped.

        Then the masks of each size s, over every position pattern of j of
        its positions, with V = base**j values on them:

        - its ``mask_memo`` entry: a slot 100, the key and positions
          tuples 56 + 40 + 8 j, the value 3-tuple 64, ``free`` int(P),
          ``stems`` 56 + V (9 + 32 or more for each position below P) and
          ``proj`` 56 + 9 P, with one int(V) more per entry once V is
          over 257, past the ints CPython shares;
        - for a down pattern, its support masks 56 + V (9 + int(P)), its
          3-tuple 64 and positions tuple 40 + 8 j in ``checks``, and s + 2
          slots in its size's pick lists;
        - per relation of arity r, each instance tuple mask: a slot 100,
          its key 64 + 40 + 8 r and int(P), for at most min(s**r, 2**s x
          the relation's tuples) distinct placements;
        - its pick lists, ``downs`` and ``full``, their pair and the
          ``checks`` slot, 56 (s + 5);
        - and last, four transient ints of the top size, the operands and
          result of the largest AND or XOR, and ``tuples_by_least``: 56 per
          instance element and a pair and slot 65 per instance tuple.
        """
        base, k, top = self.base, self.k, self.top
        for size in range(top + 1):
            table = _int_bytes(base**size)
            if trace:
                table = 2 * table + 8
            subset = 40 + 8 * size + 9 + 132 + 9 + table + 8 + 2 * 81
            self._spend(comb(n, size) * subset, "subsets and tables")
        tuples = sum(len(self.a.positions(name)) for name in self.a.signature.names)
        need = 4 * _int_bytes(base**top) + 56 * n + 65 * tuples
        for size in range(top + 1):
            need += 56 * (size + 5) + self._memo_bytes(size)
            table = _int_bytes(base**size)
            for j in range(min(k, size - 1) + 1):
                down = 56 + base**j * (9 + table) + 104 + 8 * j + 9 * (size + 2)
                need += comb(size, j) * down
        self._spend(need, "masks")

    def _supersets(self, x: tuple[int, ...], top: int):
        """``(id, free, stems, i)`` of every superset of x with at most top
        elements, with the masks of x's positions in it.  An immediate
        superset is built by inserting an element at position i, so x's
        positions in it are all but i; a larger one has i = -1.

        Supersets come in id order: by size, and within a size x joined with
        lexicographically ordered extras is lexicographically ordered, since
        two such sets first differ where their extras do.
        """
        size, subset_id = len(x), self.subset_id
        rest = [e for e in range(len(self.a_ids)) if e not in x]
        if top > size:
            grown = size + 1
            up = [self._masks(grown, (*range(i), *range(i + 1, grown))) for i in range(grown)]
            for e in rest:
                i = bisect(x, e)
                free, stems, _ = up[i]
                yield subset_id[x[:i] + (e,) + x[i:]], free, stems, i
        for extra_size in range(2, top - size + 1):
            for extra in combinations(rest, extra_size):
                y = tuple(sorted(x + extra))
                free, stems, _ = self._masks(len(y), tuple(map(y.index, x)))
                yield subset_id[y], free, stems, -1

    # -- the fixpoint ---------------------------------------------------

    def run(self) -> bool:
        """Delete to fixpoint; True iff the family stays nonempty.

        The initial pass deletes every assignment of at most k elements that
        lacks an extension to some superset of at most l elements.  Each
        deletion appends its key to ``deaths``, which is also the queue: the
        loop takes each deleted (Y, g) in turn, in deletion order.  g's
        extensions on the immediate supersets Z of Y die by restriction, and
        each projection h of g onto a subset X of Y with at most k elements
        dies, as unsupported in Y, if it is still alive and has no extension
        left in Y.  Only the unsupported deaths' Y is recorded, and only on
        the trace path; ``reasons`` derives the rest.  The deletions and
        their order are those of the plain loop that lists Y's neighbours on
        every pop, checks every projection and deletes one entry at a time
        (``tests/oracles.py``, ``reference_run``):

        - Alive before unsupported.  Both tests only read tables, so their
          conjunction does not depend on which is read first.  The down step
          deletes only from proper subsets of Y and the restriction step
          only from proper supersets, so ``table[Y]`` is the same for every
          X of one pop and is read once.
        - One XOR per superset.  Every bit of ``table[Z] & free << stems[g]``
          is set in ``table[Z]``, so XORing the whole mask clears the same
          bits as one XOR per bit, and nothing reads ``table[Z]`` in between.
          The keys still follow in ascending bit order, and an empty mask
          adds none.
        - One check per batch for the shared projections.  The keys one
          restriction step kills in Z are a batch, popped one after another,
          and a pop of Z writes only to proper subsets and supersets of Z,
          so ``table[Z]`` stays the same through the batch.  Every key in it
          agrees with g off the position i that Z adds to Y, so a down
          pattern avoiding i projects them all to the same h.  Once the
          first key has checked h, h is dead or supported in the unchanged
          ``table[Z]`` for the rest of the batch.  So a key's mark is i, to
          check only the patterns that contain i, in order; the batch's
          first key and every other death are marked -1, to check all.
        """
        table = self.table
        subset_elems, subset_id = self.subset_elems, self.subset_id
        span = self.span
        deaths = self.deaths
        append = deaths.append
        unsupported = self.unsupported

        # initial extension-support pass over assignments of size <= k
        for x_id, x_elems in enumerate(subset_elems):
            if len(x_elems) > self.k:
                break
            sups = list(self._supersets(x_elems, self.top))
            for h in _bits(table[x_id]):
                for y_id, free, stems, _ in sups:
                    if not table[y_id] & free << stems[h]:
                        table[x_id] ^= 1 << h
                        key = x_id * span + h
                        if unsupported is not None:
                            unsupported[key] = y_id
                        append(key)
                        break
        marks = array("b", [-1]) * len(deaths)  # one per key, appended with it
        # per subset size: the positions of its proper subsets of at most k
        # elements; for each, its index, proj and every sub-assignment h's
        # support mask, listed for each position i among the patterns that
        # contain i, and last in full, which mark -1 picks
        checks = []
        for size in range(self.top + 1):
            sub_sizes = range(min(self.k, size - 1) + 1)
            downs = [p for sub_size in sub_sizes for p in combinations(range(size), sub_size)]
            full = [
                (j, proj, [free << stem for stem in stems])
                for j, (free, stems, proj) in enumerate(self._masks(size, p) for p in downs)
            ]
            picks = [[c for c, p in zip(full, downs) if i in p] for i in range(size)]
            checks.append((downs, picks + [full]))
        # per popped subset: its immediate supersets with their masks, its
        # down-subsets' ids in ``downs`` order, and its size's checks
        neighbours: list[Optional[tuple[list, tuple[int, ...], list]]] = [None] * len(table)
        # array iterators read the current length at every step, so they also
        # yield the keys and marks appended below: a FIFO queue.  Subset 0 is
        # the empty one; its table is 1 until the empty assignment dies
        for key, at in zip(deaths, marks):
            if not table[0]:
                break
            y_id, g = divmod(key, span)
            near = neighbours[y_id]
            if near is None:
                y_elems = subset_elems[y_id]
                size = len(y_elems)
                ups = list(self._supersets(y_elems, size + 1)) if size < self.top else []
                downs, picks = checks[size]
                down_ids = tuple(
                    subset_id[tuple(map(y_elems.__getitem__, positions))] for positions in downs
                )
                self._spend(64 + 56 + 81 * len(ups) + 40 + 8 * len(downs), "neighbour lists")
                near = neighbours[y_id] = (ups, down_ids, picks)
            ups, down_ids, picks = near
            # restriction closure: extensions of g on immediate supersets die
            for z_id, free, stems, i in ups:
                dead = table[z_id] & free << stems[g]
                if dead:
                    table[z_id] ^= dead
                    z_key = z_id * span
                    while dead:
                        low = dead & -dead
                        append(z_key + low.bit_length() - 1)
                        dead ^= low
                    marks.append(-1)
                    marks.extend(repeat(i, len(deaths) - len(marks)))
            # extension support: small projections of g may have lost their witness
            y_table = table[y_id]
            for j, proj, supports in picks[at]:
                h = proj[g]
                x_id = down_ids[j]
                if table[x_id] >> h & 1 and not y_table & supports[h]:
                    table[x_id] ^= 1 << h
                    key = x_id * span + h
                    if unsupported is not None:
                        unsupported[key] = y_id
                    append(key)
                    marks.append(-1)
        return bool(table[0])

    def reasons(self):
        """A function from a deleted (s_id, h) to why it died, as
        ``("unsupported", Y)`` or ``("restriction", Y, g)``; trace path only.

        - ``run`` pops in deletion order, so the popped entries are a prefix
          of ``deaths``.
        - An unsupported death needs a proper superset of at most l
          elements, so it happens only on subsets of at most k elements, and
          each one's Y is recorded in ``unsupported``.
        - Any other dead (Z, ext) died by restriction, at the pop of one of
          its projections (Y, ext|Y) onto an immediate subset Y; the
          restriction step deletes nothing else.  Pops follow ``deaths``, so
          the projection that comes earliest there was popped, and before
          any other.  Its pop kills (Z, ext) unless (Z, ext) is dead
          already, and only an earlier projection's pop or a recorded
          unsupported death could have killed it.  So the reason is
          ``("restriction", Y, ext|Y)`` for that earliest projection.

        A restriction cause is one size smaller than the entry it kills, so
        only the positions of the deaths below the top size are indexed,
        once, and each restriction reason then costs at most l probes.
        """
        span, base = self.span, self.base
        subset_elems, subset_id = self.subset_elems, self.subset_id
        unsupported = self.unsupported
        below_top = (len(subset_elems) - comb(len(self.a_ids), self.top)) * span
        when = {key: i for i, key in enumerate(self.deaths) if key < below_top}

        def reason(s_id: int, h: int) -> tuple:
            y_id = unsupported.get(s_id * span + h)
            if y_id is not None:
                return ("unsupported", y_id)
            z_elems = subset_elems[s_id]
            causes = []
            for i in range(len(z_elems)):
                y_id = subset_id[z_elems[:i] + z_elems[i + 1 :]]
                low = base**i
                g = h % low + h // (low * base) * low  # h without digit i
                at = when.get(y_id * span + g)
                if at is not None:
                    causes.append((at, y_id, g))
            _, y_id, g = min(causes)
            return ("restriction", y_id, g)

        return reason

    # -- decoding --------------------------------------------------------

    def decode(self, s_id: int, h: int) -> tuple[tuple[str, ...], tuple[str, ...]]:
        elems = self.subset_elems[s_id]
        base = self.base
        values = []
        for _ in elems:
            values.append(self.b_ids[h % base])
            h //= base
        return tuple(self.a_ids[e] for e in elems), tuple(values)

    def family(self) -> ConsistencyFamily:
        table: dict[tuple[str, ...], frozenset[tuple[str, ...]]] = {}
        for s_id, elems in enumerate(self.subset_elems):
            key = tuple(self.a_ids[e] for e in elems)
            table[key] = frozenset(self.decode(s_id, h)[1] for h in _bits(self.table[s_id]))
        return ConsistencyFamily(self.a, self.b, self.k, self.l, table)

    # -- trace extraction --------------------------------------------------

    def build_trace(self, initial: list[int]) -> GameTrace:
        """The spoiler strategy read off the deletion reasons; ``initial`` is
        the tables from before ``run``, whose entries are all the replies.

        Each node is counted against what is left of ``MEMORY_CAP`` as it is
        made: once its replies are known, so its children's frames, still
        being made, are counted already.  A node takes its slots 72, three
        name tuples, its ``memo`` slot 100 with its key 32, and 320 for its
        frame's ``_bits`` generator, reply list and children tuple heads;
        each reply a pair 56, its values tuple and two slots 17.
        """
        memo: dict[int, TraceNode] = {}
        reason_of = self.reasons()
        span = self.span
        names = 40 + 8 * self.top  # a tuple of at most top names
        node_bytes = 72 + 3 * names + 132 + 320
        reply_bytes = 56 + names + 17

        def node_for(s_id: int, h: int) -> TraceNode:
            key = s_id * span + h
            if key in memo:
                return memo[key]
            reason = reason_of(s_id, h)
            pebbles, values = self.decode(s_id, h)
            if reason[0] == "unsupported":
                # the duplicator's replies: every initial assignment on Y extending h
                y_id = reason[1]
                x_elems, y_elems = self.subset_elems[s_id], self.subset_elems[y_id]
                free, stems, _ = self._masks(len(y_elems), tuple(map(y_elems.index, x_elems)))
                replies = initial[y_id] & free << stems[h]
                self._spend(node_bytes + replies.bit_count() * reply_bytes, "trace")
                children = []
                for g in _bits(replies):
                    _, g_values = self.decode(y_id, g)
                    children.append((g_values, node_for(y_id, g)))
                target = tuple(self.a_ids[e] for e in y_elems)
                node = TraceNode(pebbles, values, "extend", target, tuple(children))
            else:  # restriction death: retract to the dead sub-assignment
                self._spend(node_bytes + reply_bytes, "trace")
                x_sub_id, h_sub = reason[1], reason[2]
                sub_pebbles, sub_values = self.decode(x_sub_id, h_sub)
                child = node_for(x_sub_id, h_sub)
                node = TraceNode(pebbles, values, "retract", sub_pebbles, ((sub_values, child),))
            memo[key] = node
            return node

        return GameTrace(node_for(self.subset_id[()], 0))


class _KSetFixpoint(_Tables):
    """The (k,k+1) engine: ``is_consistent``'s verdict from the tables of at
    most k elements alone.

    A (k,l)-consistent family holds partial homomorphisms on subsets of at
    most l elements, is closed under restriction, and extends each of its
    entries of at most k elements to every superset of at most l elements.
    The greatest one, G, is the union of all of them (the union of two is
    one), and the instance is consistent iff G is nonempty.  At l = k + 1:

    - A (k+1)-entry e is in G iff it is a partial homomorphism and each of
      its k-projections is in G.  Only if: G is closed under restriction.
      If: G with e added is still closed under restriction (every proper
      projection of e lies under a k-projection, and G is closed), its other
      entries keep their extensions, and e needs none; so it is consistent,
      and e is in G.  Hence g on a k-set X extends to X + z iff some value c
      is in the row of ``table[Y + z]`` at g|Y for each of the k
      (k-1)-subsets Y of X, and (g, z->c) satisfies the instance tuples
      whose elements are exactly X + z: those rows are the k-projections of
      (g, z->c) other than g, and any other tuple inside X + z lies inside X
      or inside some Y + z, whose tables hold partial homomorphisms only.
      That is k + 1 ANDs of |B|-bit ints.
    - Checking the immediate supersets only gives the same families, so the
      same greatest one.  A family whose entries of at most k elements
      extend to every immediate superset of at most k + 1 elements extends
      them to every such superset Z: supports chain, as adding Z's other
      elements one at a time extends an entry of fewer than |Z| elements,
      so of at most k, at each step.  The converse is a special case.
    - The verdict does not depend on the deletion order, because the
      greatest fixpoint is unique.  A deletion removes an entry that lacks
      a restriction or an extension in the current tables, and by induction
      these contain G, whose entries lack neither; so no entry of G is ever
      deleted.  When the queue is empty, every entry left has what it needs
      (below), so what is left is a consistent family containing G: G
      itself, in any order.  If a table is left empty, G has no entry there,
      so G's empty assignment lacks an extension to that subset and G is
      empty: the run stops at once, inconsistent.  Otherwise what is left,
      with the empty assignment, is nonempty and consistent.

    Every check reads the tables as they are when it runs, and each
    deletion queues the checks that read the deleted entry: the extensions
    of (X, g) on immediate supersets die by restriction; each projection of
    g on an immediate subset is checked for an extension left in X; and at
    the top size, for each z outside X and each position t of X, the row of
    the k-set X - x_t + z at z whose other digits are g's is checked against
    x_t, as its entries and g are k-projections of one (k+1)-entry.  So a
    check that fails at the end runs after the last deletion it reads, and
    fails then.  The initial pass checks every entry once, except against a
    superset X + w whose w shares an instance tuple with no element of X:
    there every entry g of X extends, by any value v of w's first table, as
    each tuple inside X + w lies inside X or on w alone, so (g, w->v) is a
    partial homomorphism and so are its projections.  At the top size,
    above 1, it also skips a w that shares tuples with one element x of X
    only: then (g, w->v) is a partial homomorphism iff (g(x), v) is one on
    {x, w}, so g extends iff x->g(x) does, and if that fails the pass
    deletes x->g(x), whose deletion deletes g by restriction.  One call of
    ``kill`` deletes entries that share every digit but p; the first one's
    pop makes the checks that read only the shared digits, after the whole
    batch is gone, so the others are marked p to skip them, as
    ``_Fixpoint.run`` marks its batches.

    Each stored subset of s elements keeps s copies of its table: copy p
    packs digit p lowest and the others after it in order, so the row of
    position p at the other digits r is ``copies[s][p] >> base * r & full``.
    A deletion clears its entry in every copy.  A copy is first built from
    the copy of the subset without its last digit's element, times that
    element's table spread to the last digit's weight, then ANDed with the
    masks of the tuples through that element and another.
    """

    def __init__(self, a: Structure, b: Structure, k: int):
        super().__init__(a, b, k, k + 1)
        n = len(self.a_ids)
        self.top = top = min(k, n)
        self._check_memory(n)
        self._number_subsets(n, top)
        base, subset_id = self.base, self.subset_id
        # the instance tuples by their sorted set of distinct elements, and
        # for each element, the others it shares a tuple with
        by_set: dict[tuple[int, ...], list[tuple[str, tuple[int, ...]]]] = {}
        for name in self.a.signature.names:
            for idx in self.a.positions(name):
                by_set.setdefault(tuple(sorted(set(idx))), []).append((name, idx))
        self.near: list[set[int]] = [set() for _ in range(n)]
        for elems in by_set:
            for e in elems:
                self.near[e].update(elems)
        singles = [self._initial_table((e,), (by_set.get((e,), ()),)) for e in range(n)]
        # spread[j][e]: bit b * base**j for each value b of e's first table
        spread = [[sum(1 << b * base**j for b in _bits(one)) for one in singles] for j in range(top)]
        self.copies: list[list[int]] = [[]] + [[one] for one in singles]
        for elems in self.subset_elems[n + 1 :]:
            size = len(elems)
            tables = []
            for p in range(size):
                order = elems[p : p + 1] + elems[:p] + elems[p + 1 :]
                # the prefix without the last digit's element is a copy of
                # the subset without it, at the first digit's position there
                last = order[-1]
                prefix = self.copies[subset_id[tuple(sorted(order[:-1]))]][min(p, size - 2)]
                through = [
                    by_set.get(tuple(sorted(others + (last,))), ())
                    for j in range(1, size)
                    for others in combinations(order[:-1], j)
                ]
                table = prefix * spread[size - 1][last]
                tables.append(self._initial_table(order, through, table) if any(through) else table)
            self.copies.append(tables)
        # per subset below the top size, for each element z: the id of the
        # subset with z inserted and z's position there, or None for z inside
        self.up = [
            [None if z in elems else (subset_id[tuple(sorted(elems + (z,)))], bisect(elems, z)) for z in range(n)]
            for elems in self.subset_elems
            if len(elems) < top
        ]
        # per subset, the ids of the subsets without position t, t ascending
        self.down = [
            tuple(subset_id[elems[:t] + elems[t + 1 :]] for t in range(len(elems)))
            for elems in self.subset_elems
        ]
        # the tuples on exactly k + 1 elements: (id of X, z) -> the assignments
        # of z and X, z's digit lowest, that satisfy those on X + z
        self.exact: dict[tuple[int, int], int] = {}
        for elems, tuples in by_set.items():
            if len(elems) == top + 1:
                for t, z in enumerate(elems):
                    x_elems = elems[:t] + elems[t + 1 :]
                    self.exact[subset_id[x_elems], z] = self._initial_table((z,) + x_elems, (tuples,))
        # each initial entry dies at most once: 8 bytes for its key and 1 for
        # its mark, and 1 more for the 1/16 an array over-allocates
        self._spend(10 * sum(tables[0].bit_count() for tables in self.copies[1:]), "deletion log")

    def _check_memory(self, n: int) -> None:
        """Count the bytes the run will hold from the arguments alone, and
        refuse over ``MEMORY_CAP`` before any subset is listed; the figures
        are those of ``_Fixpoint._check_memory``.

        A subset of size s takes its tuple 40 + 8 s, its ``subset_elems``
        slot 9, its ``subset_id`` slot 100 with its id 32, its copies, a slot
        8, a list 56 + 8 s and s ints of base**s bits, and its ``down`` slot
        8 and tuple 40 + 8 s; below the top size, its ``up`` slot 8 and list
        56 + 8 n, with a pair 56 for each element outside it.  Then the masks
        of each size, with s orders of a subset's elements placing a tuple;
        at the top size plus one, the masks and the ``exact`` tables of the
        tuples on that many elements, a slot 100, a key 56 and int(base**(s
        + 1)) for each of their at most s + 1 entries; per element its first
        table, its spread tables, its ``near`` set and a list slot, 512 +
        the ints; per instance tuple its ``by_set`` entry, a slot 100, a key
        40 + 8 r, a list 56 + 9 and a pair 56, and 64 r in ``near`` sets; and
        last four transient ints of base**(s + 1) bits, the operands and
        result of the largest AND, shift or product.
        """
        base, top = self.base, self.top
        for size in range(top + 1):
            tables = 8 + 56 + 8 * size + size * _int_bytes(base**size)
            subset = 40 + 8 * size + 9 + 132 + tables + 8 + 40 + 8 * size
            if size < top:
                subset += 8 + 56 + 8 * n + 56 * (n - size)
            self._spend(comb(n, size) * subset, "subsets and tables")
        need = 4 * _int_bytes(base ** (top + 1))
        need += n * (512 + sum(_int_bytes(base**size) for size in range(top + 1)))
        wide = 0
        for name, arity in self.a.signature.symbols:
            tuples = len(self.a.positions(name))
            need += tuples * (100 + 40 + 8 * arity + 65 + 56 + 64 * arity)
            wide += tuples if arity > top else 0
        need += sum(self._memo_bytes(size, size) for size in range(1, top + 1))
        if top < n and wide:
            need += self._memo_bytes(top + 1)
            need += wide * (top + 1) * (100 + 56 + _int_bytes(base ** (top + 1)))
        self._spend(need, "masks")

    def run(self) -> bool:
        """Delete to fixpoint; True iff no table is left empty."""
        copies, up, down, exact, near = self.copies, self.up, self.down, self.exact, self.near
        subset_elems, span, base, top = self.subset_elems, self.span, self.base, self.top
        n = len(self.a_ids)
        full = (1 << len(self.b_ids)) - 1
        weight = [base**i for i in range(top + 2)]
        # the shift that moves digit t into the row index of the subset
        # without position y, for y != t
        moves = [[base * weight[t - (t > y)] for y in range(top)] for t in range(top)]
        deaths = array("q")
        marks = array("b")
        if not all(tables[0] for tables in copies[1:]):
            return False

        def kill(s_id: int, p: int, rest: int, dead: int) -> bool:
            """Delete the entries of subset s_id with digit p in dead and the
            others spelling rest; False iff its table is left empty."""
            tables = copies[s_id]
            tables[p] ^= dead << base * rest
            low = rest % weight[p]
            high = (rest - low) * base
            mark = -1
            while dead:
                bit = dead & -dead
                dead ^= bit
                g = low + (bit.bit_length() - 1) * weight[p] + high
                for q in range(len(tables)):
                    if q != p:
                        at = g // weight[q] % base + base * (g % weight[q] + g // weight[q + 1] * weight[q])
                        tables[q] ^= 1 << at
                deaths.append(s_id * span + g)
                marks.append(mark)
                mark = p
            return bool(tables[p])

        def check(x_id: int, g: int, t: int, zs) -> bool:
            """For a top-size X, g on it and each z of zs outside X: delete
            the values of z in the row of X - x_t + z at g's other digits
            that no value v of x_t supports; False iff a table is left
            empty.  Digit t of g is not read."""
            x_tables = copies[x_id]
            ups = [up[d] for d in down[x_id]]
            hs = [g % weight[y] + g // weight[y + 1] * weight[y] for y in range(top)]
            h = hs[t]
            values = x_tables[t] >> base * h & full
            g_t = g // weight[t] % base
            move = moves[t]
            # face y's row index at v is shift + v * step
            others = [(ups[y], base * hs[y] - g_t * move[y], move[y]) for y in range(top) if y != t]
            faces = ups[t]
            for z in zs:
                f_id, q = faces[z]
                cands = copies[f_id][q] >> base * h & full
                if not cands:
                    continue
                tm = exact.get((x_id, z)) if exact else None
                allowed = 0
                rest = values
                while rest and cands & ~allowed:
                    bit = rest & -rest
                    rest ^= bit
                    v = bit.bit_length() - 1
                    conj = full if tm is None else tm >> base * (g + (v - g_t) * weight[t]) & full
                    for face, shift, step in others:
                        f_y, q_y = face[z]
                        conj &= copies[f_y][q_y] >> shift + v * step
                    allowed |= conj
                dead = cands & ~allowed
                if dead and not kill(f_id, q, h, dead):
                    return False
            return True

        def touching(elems: tuple[int, ...]) -> set[int]:
            """The elements outside elems that share a tuple with one inside."""
            return set().union(*(near[e] for e in elems)).difference(elems)

        # the initial pass: every entry below the top size needs an
        # extension on each immediate superset ...
        for s_id in range(1, len(up)):
            faces = [up[s_id][z] for z in touching(subset_elems[s_id])]
            entries = copies[s_id][0]
            while entries:
                bit = entries & -entries
                entries ^= bit
                g = bit.bit_length() - 1
                for w_id, p in faces:
                    if not copies[w_id][p] >> base * g & full:
                        if not kill(s_id, 0, g // base, 1 << g % base):
                            return False
                        break
        # ... and every top-size entry on F one on each F + w: F is face t of
        # X + u, with u its last element and X = F - u + w, checked row by row
        last = top - 1
        for f_id in range(len(up), len(copies) if top < n else 0):
            f_elems = subset_elems[f_id]
            for w in touching(f_elems):
                if top > 1 and len(near[w].intersection(f_elems)) < 2:
                    continue
                x_id, t = up[down[f_id][last]][w]
                rows = copies[f_id][last]
                while rows:
                    h = ((rows & -rows).bit_length() - 1) // base
                    rows &= ~(full << base * h)
                    if not check(x_id, h % weight[t] + h // weight[t] * weight[t + 1], t, f_elems[last:]):
                        return False

        # array iterators read the current length at every step, so they also
        # yield the keys and marks appended below: a FIFO queue
        for key, mark in zip(deaths, marks):
            s_id, g = divmod(key, span)
            elems = subset_elems[s_id]
            size = len(elems)
            if size < top:
                # restriction: g's extensions on immediate supersets die
                for face in up[s_id]:
                    if face is not None:
                        dead = copies[face[0]][face[1]] >> base * g & full
                        if dead and not kill(face[0], face[1], g, dead):
                            return False
            if size > 1:
                # support: g's projections may have lost their last extension
                tables = copies[s_id]
                for t, y_id in enumerate(down[s_id]):
                    if t != mark:
                        h = g % weight[t] + g // weight[t + 1] * weight[t]
                        if copies[y_id][0] >> h & 1 and not tables[t] >> base * h & full:
                            if not kill(y_id, 0, h // base, 1 << h % base):
                                return False
            if size == top < n:
                # the (k+1)-entries through g died with it
                outside = [z for z in range(n) if z not in elems]
                for t in range(top):
                    if t != mark and not check(s_id, g, t, outside):
                        return False
        return True


def _bits(mask: int):
    """The indices of the set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def kl_family(a: Structure, b: Structure, k: int, l: int) -> Optional[ConsistencyFamily]:
    """The maximal (k,l)-consistent family on (a, b), or None if none exists."""
    fix = _Fixpoint(a, b, k, l)
    if fix.run():
        return fix.family()
    return None


def is_consistent(a: Structure, b: Structure, k: int, l: int) -> bool:
    """True iff a nonempty (k,l)-consistent family on (a, b) exists.

    At l = k + 1 the verdict comes from the tables of at most k elements
    (``_KSetFixpoint``); at any other (k,l) from ``_Fixpoint``.
    """
    if l == k + 1:
        return _KSetFixpoint(a, b, k).run()
    return _Fixpoint(a, b, k, l).run()


def spoiler_trace(a: Structure, b: Structure, k: int, l: int) -> Optional[GameTrace]:
    """The spoiler strategy tree read off the fixpoint's deletion reasons, or
    None iff the instance is (k,l)-consistent.

    The tree is not checked here; ``validate_trace`` checks it against the
    game rules, independently of the fixpoint.
    """
    fix = _Fixpoint(a, b, k, l, trace=True)
    initial = list(fix.table)  # ints are immutable: this shares, not copies
    if fix.run():
        return None
    return fix.build_trace(initial)


def validate_trace(trace: GameTrace, a: Structure, b: Structure, k: int, l: int) -> bool:
    """Independent check of a strategy tree against the game rules.

    Verifies pebble budgets, the retract-before-extend discipline, that
    every extension node branches over exactly the partial-homomorphism
    replies, and that leaves are duplicator-stuck.

    No node's position is checked against the instance on its own: every
    position the walk reaches is a partial homomorphism, by induction along
    the edge it is reached by.  The root must hold the empty map, which is
    one since no relation has arity 0.  An extension child's values must
    equal its reply, and the replies must be exactly those ``reply_values``
    produced, each of which maps every instance tuple inside the target into
    the template.  A retraction child's values must equal the restriction of
    its parent's position, already checked, to a subset of its pebbles.
    """
    _validate_args(a, b, k, l)
    if not isinstance(trace, GameTrace) or not isinstance(trace.root, TraceNode):
        return False
    if trace.root.pebbles != () or trace.root.values != ():
        return False
    checked: set[TraceNode] = set()

    def reply_values(position: dict[str, str], target: tuple[str, ...]) -> list[tuple[str, ...]]:
        """Every assignment of target extending position that maps each
        instance tuple inside target into its template relation."""
        inside = set(target)
        checks = [
            (b.relation(name), t)
            for name, ts in a.relations_items()
            for t in ts
            if inside.issuperset(t)
        ]
        free = [x for x in target if x not in position]
        out = []
        for choice in product(b.domain, repeat=len(free)):
            assign = dict(position)
            assign.update(zip(free, choice))
            if all(tuple(map(assign.__getitem__, t)) in rel for rel, t in checks):
                out.append(tuple(assign[x] for x in target))
        return out

    def walk(node: TraceNode) -> bool:
        if node in checked:
            return True
        if len(node.pebbles) != len(node.values) or len(node.pebbles) > l:
            return False
        position = dict(zip(node.pebbles, node.values))
        if node.action == "extend":
            if len(node.pebbles) > k or len(node.target) > l:
                return False
            if not set(node.pebbles) < set(node.target) <= a.domain_set:
                return False
            expected = reply_values(position, node.target)
            got = [values for values, _ in node.children]
            if sorted(expected) != sorted(got):
                return False
            for values, child in node.children:
                if child.pebbles != tuple(node.target):
                    return False
                if child.values != values:
                    return False
                if not walk(child):
                    return False
        elif node.action == "retract":
            if len(node.children) != 1:
                return False
            if not set(node.target) < set(node.pebbles):
                return False
            values, child = node.children[0]
            expect = tuple(position[x] for x in node.target)
            if values != expect or child.pebbles != tuple(node.target) or child.values != expect:
                return False
            if not walk(child):
                return False
        else:
            return False
        checked.add(node)
        return True

    return walk(trace.root)


def inverse_hom_transfer(
    aprime: Structure,
    h: ElementMap,
    family: ConsistencyFamily,
) -> ConsistencyFamily:
    """Transfer a consistent family along a homomorphism into its instance.

    Composing ``h`` with each stored partial map yields a valid
    (k,l)-consistent family on ``aprime``, witnessing closure of the
    consistent class under inverse homomorphisms.
    """
    if not morphisms.check_morphism(h, aprime, family.instance, "homomorphism"):
        raise StructureError("the transfer map must be a total homomorphism")
    l = family.l
    table: dict[tuple[str, ...], frozenset[tuple[str, ...]]] = {}
    for size in range(min(l, len(aprime.domain)) + 1):
        for subset in combinations(aprime.domain, size):
            image = tuple(sorted({h[x] for x in subset}))
            pos = {e: i for i, e in enumerate(image)}
            entries = set()
            for values in family.table[image]:
                entries.add(tuple(values[pos[h[x]]] for x in subset))
            table[subset] = frozenset(entries)
    return ConsistencyFamily(aprime, family.template, family.k, l, table)


def validate_family(family: ConsistencyFamily) -> bool:
    """Verbatim check of the three consistency-family conditions plus nonemptiness."""
    a, b, k, l = family.instance, family.template, family.k, family.l
    table = family.table
    if table.get((), None) != frozenset({()}):
        return False
    for subset, entries in table.items():
        if len(subset) > l:
            return False
        for values in entries:
            f = ElementMap(a.domain, b.domain, dict(zip(subset, values)))
            if not morphisms.check_partial_homomorphism(f, a, b):
                return False
            for drop in range(len(subset)):
                sub = subset[:drop] + subset[drop + 1 :]
                sub_values = values[:drop] + values[drop + 1 :]
                if sub_values not in table.get(sub, frozenset()):
                    return False
            if len(subset) <= k:
                assign = dict(zip(subset, values))
                rest = [x for x in a.domain if x not in assign]
                for extra_size in range(1, min(l, len(a.domain)) - len(subset) + 1):
                    for extra in combinations(rest, extra_size):
                        target = tuple(sorted(subset + extra))
                        hit = False
                        for cand in table.get(target, frozenset()):
                            if all(
                                cand[target.index(x)] == assign[x] for x in subset
                            ):
                                hit = True
                                break
                        if not hit:
                            return False
    return True
