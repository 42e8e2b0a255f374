"""(k,l)-consistency as a greatest-fixpoint computation over partial maps.

The table keeps, for every subset of the instance domain of size at most l,
the set of surviving assignments into the template.  Starting from all
partial homomorphisms, assignments are deleted when a restriction dies or
when a required extension to some superset disappears; the fixpoint family
is empty exactly when the empty assignment is deleted.  The deletion order
is deterministic and is kept, 8 bytes per deletion.  When a trace is asked
for, the fixpoint also records the superset behind each "unsupported"
death; every other reason is derived from the deletion order, and the
reasons drive the extraction of a spoiler strategy tree for inconsistent
instances.

One memory budget, ``MEMORY_CAP``, bounds what the engine holds: its subset
index, tables, masks and neighbour lists, counted from the arguments before
any subset is listed; its deletion log, counted once the tables are built;
and a trace's nodes, counted as each is made.

Each subset's surviving assignments are one bit set: an assignment packs
into an integer with one base-|B| digit per subset position, and is present
while that bit of the subset's table is set.  Support checks, restriction
closure and the duplicator's replies in a trace are then ANDs with
precomputed extension masks.
"""

from __future__ import annotations

from array import array
from bisect import bisect
from itertools import combinations, product, repeat
from math import comb
from typing import Optional

from . import morphisms
from .core import BudgetExceeded, ElementMap, SignatureMismatch, Structure, StructureError

# bytes the (k,l) engine may hold (see ``_Fixpoint._check_memory``): at
# (2,3) lineq Z3 n=16 counts 213 MiB with its trace and Z5 n=8 158 MiB
# without one; Z5 n=2 at (2,4) is refused from the arguments
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


class _Fixpoint:
    """Shared machinery for kl_family, is_consistent and spoiler_trace.

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
        _validate_args(a, b, k, l)
        self.a = a
        self.b = b
        self.k = k
        self.l = l
        self.a_ids = a.domain
        self.b_ids = b.domain
        self.base = max(len(self.b_ids), 1)
        self.mask_memo: dict[tuple[int, tuple[int, ...]], tuple[int, list[int], list[int]]] = {}
        self.tuple_memo: dict[tuple[str, int, tuple[int, ...]], int] = {}
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

    def _initial_table(self, elems: tuple[int, ...]) -> int:
        """The partial homomorphisms on one subset, as a bit set."""
        index_of = {e: i for i, e in enumerate(elems)}
        table = (1 << len(self.b_ids) ** len(elems)) - 1
        for e in elems:
            for name, idx in self.tuples_by_least[e]:
                if all(i in index_of for i in idx):
                    at = tuple(map(index_of.__getitem__, idx))
                    table &= self._tuple_mask(name, len(elems), at)
        return table

    def _subsets(self, trace: bool) -> None:
        n = len(self.a_ids)
        self.top = min(self.l, n)
        self.left = MEMORY_CAP
        self._check_memory(n, trace)
        self.span = self.base**self.top
        subsets = sum(comb(n, size) for size in range(self.top + 1))
        if subsets * self.span > 2**63:
            raise BudgetExceeded("consistency table is too large to number its assignments")
        self.subset_elems: list[tuple[int, ...]] = []
        self.subset_id: dict[tuple[int, ...], int] = {}
        for size in range(self.top + 1):
            for elems in combinations(range(n), size):
                self.subset_id[elems] = len(self.subset_elems)
                self.subset_elems.append(elems)
        self.table = [self._initial_table(elems) for elems in self.subset_elems]
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

    def _spend(self, need: int, what: str) -> None:
        """Take need bytes from what is left of ``MEMORY_CAP``, or refuse."""
        self.left -= need
        if self.left < 0:
            raise BudgetExceeded(
                f"the consistency {what} would take the run over "
                f"its {MEMORY_CAP >> 20} MiB memory cap"
            )

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
        - the larger of its ``neighbours`` entry, a slot 8, a 3-tuple 64,
          its up list 56 + 81 R (a 4-tuple and a slot each) and its
          down-subset ids 40 + 8 D, and 162 for the initial pass's
          superset lists.  The empty subset's list holds every other
          subset at 81 each and is alive with the next one's, which holds
          fewer; both are gone before ``run`` makes its first entry.

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

        def int_bytes(bits: int) -> int:
            return 28 + 4 * (bits // 30)

        for size in range(top + 1):
            ups = n - size if size < top else 0
            downs = sum(comb(size, j) for j in range(min(k, size - 1) + 1))
            table = int_bytes(base**size)
            if trace:
                table = 2 * table + 8
            lists = max(8 + 64 + 56 + 81 * ups + 40 + 8 * downs, 2 * 81)
            subset = 40 + 8 * size + 9 + 132 + 9 + table + lists
            self._spend(comb(n, size) * subset, "subsets and tables")
        tuples = sum(len(self.a.positions(name)) for name in self.a.signature.names)
        need = 4 * int_bytes(base**top) + 56 * n + 65 * tuples
        for size in range(top + 1):
            need += 56 * (size + 5)
            assignments = base**size
            table = int_bytes(assignments)
            position = int_bytes(assignments.bit_length())
            for j in range(size + 1):
                values = base**j
                proj = 9 + (int_bytes(values.bit_length()) if values > 257 else 0)
                pattern = 100 + 96 + 8 * j + 64 + table + 56 + values * (9 + position)
                pattern += 56 + assignments * proj
                if j <= min(k, size - 1):
                    pattern += 56 + values * (9 + table) + 104 + 8 * j + 9 * (size + 2)
                need += comb(size, j) * pattern
            for name, arity in self.a.signature.symbols:
                placements = min(size**arity, len(self.a.positions(name)) << size)
                need += placements * (204 + 8 * arity + table)
        self._spend(need, "masks")

    def _masks(self, size: int, positions: tuple[int, ...]) -> tuple[int, list[int], list[int]]:
        """``(free, stems, proj)`` for ascending positions in a size-element subset."""
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
    """True iff a nonempty (k,l)-consistent family on (a, b) exists."""
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
