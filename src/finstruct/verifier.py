"""Class-membership oracles and meta-level amalgamation checks.

The two built-in oracle constructors cover classes defined by forbidden
homomorphisms and by local consistency; both are closed under inverse
homomorphisms, which is what lets the free amalgam decide amalgamation
failure for every amalgam at once.  An oracle defines only the evidence
that a structure is no member, and decides and explains from it once.
Confusion sweeps iterate colorings of the canonical blow-up embeddings,
glue, and test membership, optionally across worker processes in one
contiguous share of colorings per worker.  Every glued J_C, whatever the
diagram, is a mask over the skeleton's J_all.  A Forb_h oracle tests any
structure against the images of the family members in its host, found by
one search per member and kept on the host's index, not on the oracle.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from typing import Iterable, Iterator, Optional, Sequence

from . import core, families, morphisms
from .consistency import is_consistent
from .core import BudgetExceeded, ElementMap, Structure, StructureError, pullback
from .families import Coloring, Diagram, build_JC
from .morphisms import HomomorphismSearcher
from .rng import _PASS, SplitMix64

EXHAUSTIVE_SPOT_LIMIT = 20
SAMPLE_LIMIT = 1 << EXHAUSTIVE_SPOT_LIMIT  # as many colorings as exhaustive mode allows


class ClassOracle:
    """A class of finite structures closed under inverse homomorphisms.

    A subclass defines one hook, ``evidence(s)``: None for a member, else
    why ``s`` is no member.  ``member`` keeps the evidence, with the
    structure it decided, in one memo that ``__getstate__`` leaves out of
    pickles, and ``explain`` reads it back for that structure, so a sweep
    explaining the coloring it has just failed decides it once.  Closure
    is the contract of the type: a homomorphism from A' to a member A makes
    A' a member.  Forb_h and the (k,l)-consistent instances of a template
    are both closed so, and ``witnesses_failure`` relies on it.
    """

    _last: tuple[Optional[Structure], Optional[str]] = (None, None)

    def __getstate__(self):
        return {key: value for key, value in vars(self).items() if key != "_last"}

    def evidence(self, s: Structure) -> Optional[str]:
        raise NotImplementedError

    def member(self, s: Structure) -> bool:
        self._last = (s, self.evidence(s))
        return self._last[1] is None

    def explain(self, s: Structure) -> Optional[str]:
        last, evidence = self._last
        return evidence if last is s else self.evidence(s)


class _ForbhMembership(ClassOracle):
    """No family member maps homomorphically into the input.

    Every input is answered from its host's images: a view (as ``build_JC``
    returns, over the glue skeleton's J_all) is its host and its mask, and
    any other structure is its own host with the full mask.  A homomorphism
    into an induced substructure is exactly a homomorphism into the whole
    structure whose image lies inside it (Hell & Nešetřil, *Graphs and
    Homomorphisms*, 2004).  So a member maps into the input iff one of its
    image masks on the host (``HomomorphismSearcher.image_masks``) lies
    inside ``s.alive``.  The members tested are those ``family(s)`` yields,
    so the verdict is the one a search of ``s`` itself would give; for a
    glued J_C, ``build_JC`` proves that J_C is J_all induced on ``alive``.

    The evidence walks the members once: the first with an image inside
    ``s.alive`` is the first that maps into ``s``, and ``s`` is searched for
    it alone to name the map.  The images of each member are found by one
    search of the host, which visits every homomorphism where ``exists``
    stops at the first: a sweep gains once a few colorings share the host,
    while a single structure pays more.  They are kept in the host's
    ``MaskIndex.images``, beside its heights, which pickles leave out, so
    each worker rebuilds them from its own copy of the host.
    """

    def __init__(self, family):
        self.family = family

    def evidence(self, s: Structure) -> Optional[str]:
        dead = ~s.alive
        images = s.mask_index().images
        for member in self.family(s):
            found = images.get(member)
            if found is None:
                found = images[member] = tuple(HomomorphismSearcher(s.host).image_masks(member))
            if any(not image & dead for image in found):
                hom = HomomorphismSearcher(s).find(member)
                return f"member of size {len(member.domain)} maps in via {dict(hom.items())}"
        return None


class _ConsistencyMembership(ClassOracle):
    """(k,l)-consistency with the template: one fixpoint per structure decided."""

    def __init__(self, template: Structure, k: int, l: int):
        self.template = template
        self.k = k
        self.l = l

    def evidence(self, s: Structure) -> Optional[str]:
        if is_consistent(s, self.template, self.k, self.l):
            return None
        return f"not ({self.k},{self.l})-consistent with the template"


def forbh_oracle(family) -> ClassOracle:
    """Membership oracle for the class forbidding homomorphisms from a family.

    ``family(s)`` yields family members in the family's fixed order, and
    must include the first member that maps homomorphically into ``s``
    whenever one does.  Each family bounds its members by the input alone
    and proves the bound in its docstring.  The input is a member of the
    class iff no yielded member maps in; ``explain`` names the first one
    that does.
    """
    return _ForbhMembership(family)


def consistency_oracle(template: Structure, k: int, l: int) -> ClassOracle:
    """Membership oracle for the (k,l)-consistent instances of a template."""
    return _ConsistencyMembership(template, k, l)


def witnesses_failure(diagram: Diagram, oracle: ClassOracle) -> bool:
    """True iff no amalgam over the diagram stays in the class.

    Decided on the free amalgam alone: it maps homomorphically onto every
    amalgam, and every ``ClassOracle`` is closed under inverse
    homomorphisms, so a non-member free amalgam rules out every amalgam.
    The diagram's own parts must be members.
    """
    for label, part in (("base", diagram.base), ("left", diagram.left), ("right", diagram.right)):
        if not oracle.member(part):
            raise StructureError(f"diagram {label} is not a member of the class")
    return not oracle.member(diagram.free_amalgam().amalgam)


class ConfusionReport:
    """Outcome of a coloring sweep over one diagram and blow-up multiplicity."""

    __slots__ = ("diagram", "m", "mode", "colorings_tested", "failures", "verdict")

    def __init__(
        self,
        diagram: Diagram,
        m: int,
        mode: dict,
        colorings_tested: int,
        failures: tuple[tuple[int, Optional[str]], ...],
    ):
        self.diagram = diagram
        self.m = m
        self.mode = mode
        self.colorings_tested = colorings_tested
        self.failures = failures
        self.verdict = colorings_tested > 0 and not failures

    def to_dict(self) -> dict:
        return {
            "order": self.diagram.order,
            "m": self.m,
            "mode": self.mode,
            "witnesses_failure": True,  # checked before any coloring is tested
            "colorings_tested": self.colorings_tested,
            "failures": [
                {"coloring": enc, "evidence": evidence} for enc, evidence in self.failures
            ],
            "verdict": self.verdict,
        }


def usable_cpus() -> int:
    """CPUs this process may run on; the CPU count where affinity is unknown."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _test_colorings(
    diagram: Diagram,
    m: int,
    oracle: ClassOracle,
    spots: Sequence[ElementMap],
    encodings: Iterable[int],
) -> list[tuple[int, Optional[str]]]:
    failures = []
    for enc in encodings:
        coloring = Coloring.from_encoding(spots, enc)
        glued = build_JC(diagram, m, coloring)
        if not oracle.member(glued):
            failures.append((enc, oracle.explain(glued)))
    return failures


def _encodings(draws: range, seed: Optional[int], n_spots: int) -> Iterable[int]:
    """The encodings of one share of draw indices, drawn one pass ahead.

    An exhaustive share (``seed`` None) is its own encodings.  A sample share
    seeks to its first draw: ``next_bits`` reads one word per bit, so draw j
    starts j * n_spots words into the seeded stream.  It then draws
    max(1, _PASS // n_spots) encodings with one ``next_bits`` call, at most
    one kernel pass of words unless one encoding is longer, and cuts them
    apart: bit i of ``next_bits(a * n)`` is bit 0 of the i-th word, so
    encoding j of a block is the j-th ``next_bits(n)``.  No block is drawn
    before the last one's encodings were read.
    """
    if seed is None:
        return draws
    return _drawn(draws, seed, n_spots)


def _drawn(draws: range, seed: int, n_spots: int) -> Iterator[int]:
    rng = SplitMix64(seed)
    rng.skip(draws.start * n_spots)
    take = max(1, _PASS // n_spots)
    mask = (1 << n_spots) - 1
    for first in range(0, len(draws), take):
        block = min(take, len(draws) - first)
        bits = rng.next_bits(block * n_spots)
        for _ in range(block):
            yield bits & mask
            bits >>= n_spots


def _confusion_chunk(args) -> list[tuple[int, Optional[str]]]:
    diagram, m, oracle, seed, draws = args
    spots = diagram.skeleton(m).spots
    return _test_colorings(diagram, m, oracle, spots, _encodings(draws, seed, len(spots)))


def check_confusion(
    diagram: Diagram,
    m: int,
    oracle: ClassOracle,
    mode: str = "exhaustive",
    samples: int = 0,
    seed: int = 0,
    jobs: int = 1,
) -> ConfusionReport:
    """Sweep colorings of the canonical embeddings and test glued membership.

    Exhaustive mode iterates all 2^(m^|A|) colorings and is refused beyond
    2^20 of them; sample mode draws ``samples`` seeded colorings, at most
    one pass of ``next_bits`` words ahead of the one tested (``_encodings``),
    and is refused beyond 2^20 samples.  Both refusals, and the
    glue skeleton's own budget (``families.SKELETON_LIMIT``), come from the
    arguments, before any structure is decided, and read m^|A| through
    ``families.capped_power``, so a huge m is never raised to a power.  The
    diagram must then witness failure of amalgamation for the oracle.  The
    spots and the glue skeleton are the diagram's own (``Diagram.skeleton``),
    so worker processes receive them with the pickled diagram.  The draw
    indices are cut into at most min(``jobs``, ``usable_cpus()``) contiguous
    ranges, in order, one per worker, and each share unpickles and searches
    J_all once.  Failures are reported sorted by coloring encoding; the
    verdict is true when no coloring left the class.
    """
    if m < 1:
        raise StructureError("blow-up multiplicity must be >= 1")
    if mode == "exhaustive":
        n_spots = families.capped_power(m, diagram.order, EXHAUSTIVE_SPOT_LIMIT)
        if n_spots > EXHAUSTIVE_SPOT_LIMIT:
            raise BudgetExceeded(
                f"exhaustive sweep over more than {EXHAUSTIVE_SPOT_LIMIT} spots "
                f"exceeds 2^{EXHAUSTIVE_SPOT_LIMIT} colorings"
            )
        mode_doc = {"kind": "exhaustive"}
        draws, sample_seed = range(1 << n_spots), None
    elif mode == "sample":
        if samples < 1:
            raise StructureError("sample mode needs a positive sample count")
        if samples > SAMPLE_LIMIT:
            raise BudgetExceeded(
                f"{samples} samples exceed the limit of 2^{EXHAUSTIVE_SPOT_LIMIT} colorings"
            )
        mode_doc = {"kind": "sample", "count": samples, "seed": seed}
        draws, sample_seed = range(samples), seed
    else:
        raise StructureError(f"unknown mode {mode!r}")
    spots = diagram.skeleton(m).spots
    if not witnesses_failure(diagram, oracle):
        raise StructureError("diagram does not witness failure of amalgamation")

    workers = min(jobs, usable_cpus())  # a pool forks every worker at once
    if workers > 1 and len(draws) >= 4 * workers:
        chunk_size = -(-len(draws) // workers)  # one share per worker
        chunks = [
            (diagram, m, oracle, sample_seed, draws[i : i + chunk_size])
            for i in range(0, len(draws), chunk_size)
        ]
        failures: list[tuple[int, Optional[str]]] = []
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for result in pool.map(_confusion_chunk, chunks):
                failures.extend(result)
    else:
        encodings = _encodings(draws, sample_seed, len(spots))
        failures = _test_colorings(diagram, m, oracle, spots, encodings)
    failures.sort(key=lambda fail: fail[0])
    return ConfusionReport(diagram, m, mode_doc, len(draws), tuple(failures))


def antichain(structures: Sequence[Structure]) -> bool:
    """True iff no structure maps homomorphically into a different one."""
    for target_index, target in enumerate(structures):
        searcher = HomomorphismSearcher(target)
        for source_index, source in enumerate(structures):
            if source_index != target_index and searcher.exists(source):
                return False
    return True


class ExpansionSpec:
    """Parameters of a seeded random expansion: predicate count, max arity, seed."""

    __slots__ = ("t", "r", "seed")

    def __init__(self, t: int, r: int, seed: int):
        if t < 0:
            raise StructureError("predicate count must be >= 0")
        if r < 1:
            raise StructureError("maximum arity must be >= 1")
        self.t = t
        self.r = r
        self.seed = seed


def random_expansion(s: Structure, spec: ExpansionSpec) -> Structure:
    """Expansion by ``t`` fresh predicates of arities cycling 1..r.

    Every candidate tuple is included independently with probability 1/2,
    drawn from the seeded splitmix stream; identical seeds give identical
    expansions.
    """
    from itertools import compress, product

    rng = SplitMix64(spec.seed)
    extra: list[tuple[str, int]] = []
    tuples: dict[str, set[tuple[str, ...]]] = {}
    for j in range(1, spec.t + 1):
        name = f"Q{j}"
        while name in s.signature or name in dict(extra):
            name += "_"
        arity = ((j - 1) % spec.r) + 1
        extra.append((name, arity))
        # bit i decides the i-th candidate tuple, as one next_bit() each did
        count = len(s.domain) ** arity
        flags = format(rng.next_bits(count), "b").zfill(count)[::-1]
        tuples[name] = set(compress(product(s.domain, repeat=arity), map(int, flags)))
    return core.add_symbols(s, extra, tuples)


def collision_search(
    diagram: Diagram,
    m: int,
    coloring: Coloring,
    jplus: Structure,
) -> Optional[tuple[ElementMap, ElementMap]]:
    """First differently-colored spot pair with equal pullback expansions.

    ``jplus`` must expand the glued structure of the given coloring (same
    domain).  Pullbacks are taken along the spots, which are the lifted
    embeddings of the base; the scan runs in lexicographic spot-pair order.
    """
    glued = build_JC(diagram, m, coloring)
    if set(jplus.domain) != set(glued.domain):
        raise StructureError("expansion domain does not match the glued structure")
    spots = list(coloring.spots)
    pullbacks = []
    for spot in spots:
        hat = ElementMap(diagram.base.domain, jplus.domain, spot.assignment)
        pullbacks.append(pullback(hat, jplus))
    for i in range(len(spots)):
        for j in range(i + 1, len(spots)):
            if coloring.sides[i] != coloring.sides[j] and pullbacks[i] == pullbacks[j]:
                return spots[i], spots[j]
    return None


def homogenization_probe(
    samples: Sequence[Structure],
    seed: int,
    trials: Optional[int] = None,
) -> bool:
    """Check the reachability-split expansion and its free-amalgam closure.

    Every sample must avoid source-to-target paths; each is expanded, the
    expansion must satisfy the split conditions and reduce back to the
    sample, and seeded random pairs are glued along random common induced
    substructures (skipped unless the random identification is an
    embedding of expansions) with the amalgam checked again.
    """
    oracle = forbh_oracle(families.PnFamily())
    expansions = []
    for sample in samples:
        if not oracle.member(sample):
            raise StructureError("sample admits a source-to-target path")
        expanded = families.io_expansion(sample)
        if not families.cplus_check(expanded):
            return False
        if core.reduct(expanded, sample.signature.names) != sample:
            return False
        expansions.append(expanded)
    if not expansions:
        return True
    rng = SplitMix64(seed)
    if trials is None:
        trials = 2 * len(expansions)
    for _ in range(trials):
        first = expansions[rng.next_below(len(expansions))]
        second = expansions[rng.next_below(len(expansions))]
        size = rng.next_below(min(len(first.domain), len(second.domain)) + 1)
        shared = [first.domain[i] for i in rng.sample_indices(len(first.domain), size)]
        targets = [second.domain[i] for i in rng.sample_indices(len(second.domain), size)]
        base = core.induced_substructure(first, shared)
        inclusion = ElementMap(base.domain, first.domain, {x: x for x in shared})
        candidate = ElementMap(base.domain, second.domain, dict(zip(sorted(shared), targets)))
        if not morphisms.check_morphism(candidate, base, second, "embedding"):
            continue  # mismatched labels on the shared part: not a legal gluing
        result = core.free_amalgam(base, inclusion, first, candidate, second)
        if not families.cplus_check(result.amalgam):
            return False
    return True
