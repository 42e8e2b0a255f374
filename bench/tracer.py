"""Spans around the public calls into each finstruct layer, installed from outside.

The tracer replaces module and class attributes with timing wrappers; nothing
under ``src/`` knows about it.  Every span records calls, busy seconds and
self seconds (busy time minus the time of wrapped spans nested inside it).  A
call re-entering a span that is already open (``_trace_to_doc`` recursing) is
part of the outer span, not a span of its own.

Worker processes of a ``--jobs`` sweep are forked after installation, so they
inherit the wrappers.  Each worker resets its copy of the tracer on its first
chunk and writes a snapshot to ``<work>/trace-worker-<pid>.json`` after every
chunk; ``merge_workers`` folds those snapshots into the parent's figures.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import time
from pathlib import Path

from finstruct import cli, consistency, core, families, morphisms, verifier

# span name -> attributes that hold the same callable (module globals imported
# by name elsewhere must be patched everywhere they are looked up)
SPANS = (
    ("core.structure_init", ((core.Structure, "__init__"),)),
    ("families.build_JC", ((families, "build_JC"), (verifier, "build_JC"))),
    ("morphisms.searcher_init", ((morphisms.HomomorphismSearcher, "__init__"),)),
    ("morphisms.search", ((morphisms.HomomorphismSearcher, "find"),)),
    (
        "morphisms.canonical_embeddings",
        ((morphisms, "canonical_embeddings"), (verifier, "canonical_embeddings")),
    ),
    ("verifier.sweep", ((verifier, "check_confusion"),)),
    ("verifier.member", ((verifier.ClassOracle, "member"),)),
    ("verifier.witness", ((verifier._ForbhMembership, "explain"),)),
    ("verifier.witness", ((verifier._ConsistencyMembership, "explain"),)),
    (
        "consistency.is_consistent",
        ((consistency, "is_consistent"), (verifier, "is_consistent")),
    ),
    ("consistency.spoiler_trace", ((consistency, "spoiler_trace"),)),
    ("consistency.fixpoint", ((consistency._Fixpoint, "run"),)),
    ("cli.load", ((cli, "load_structure"),)),
    ("cli.load", ((cli, "load_diagram"),)),
    ("cli.trace_doc", ((cli, "_trace_to_doc"),)),
    ("cli.trace_doc", ((cli, "dump_canonical"),)),
    ("cli", ((cli, "main"),)),
)
SPAN_NAMES = tuple(dict.fromkeys(name for name, _ in SPANS))
HIT_SPANS = ("morphisms.search",)  # spans whose non-None results count as hits


class Tracer:
    def __init__(self, work: Path):
        self.work = work
        self.pid = os.getpid()
        self.reset()

    def reset(self) -> None:
        self.spans = {name: [0, 0.0, 0.0] for name in SPAN_NAMES}  # calls, s, self_s
        self.hits = {name: 0 for name in HIT_SPANS}
        self.coloring_s: list[float] = []
        self._children: list[float] = []  # nested span time, one slot per open span
        self._open: set[str] = set()
        self._coloring_start = None

    # -- wrappers ------------------------------------------------------------

    def _span(self, name: str, fn):
        count_hits = name in HIT_SPANS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name in self._open:
                return fn(*args, **kwargs)
            self._open.add(name)
            self._children.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                took = time.perf_counter() - start
                nested = self._children.pop()
                self._open.discard(name)
                entry = self.spans[name]
                entry[0] += 1
                entry[1] += took
                entry[2] += took - nested
                if self._children:
                    self._children[-1] += took
            if count_hits and result is not None:
                self.hits[name] += 1
            return result

        return wrapper

    def _test_colorings(self, fn):
        """Close the last coloring's interval when a sweep chunk returns."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._coloring_start = None
            result = fn(*args, **kwargs)
            if self._coloring_start is not None:
                self.coloring_s.append(time.perf_counter() - self._coloring_start)
                self._coloring_start = None
            return result

        return wrapper

    def _from_encoding(self, fn):
        """Each coloring starts with its decoding; the previous one ends there."""

        @functools.wraps(fn)
        def wrapper(cls, spots, encoding):
            now = time.perf_counter()
            if self._coloring_start is not None:
                self.coloring_s.append(now - self._coloring_start)
            self._coloring_start = now
            return fn(cls, spots, encoding)

        return classmethod(wrapper)

    def _chunk(self, fn):
        @functools.wraps(fn)
        def wrapper(args):
            if os.getpid() != self.pid:  # first chunk in a forked worker
                self.pid = os.getpid()
                self.reset()
            result = fn(args)
            path = self.work / f"trace-worker-{self.pid}.json"
            path.write_text(json.dumps(self.snapshot()))
            return result

        return wrapper

    def install(self) -> None:
        for name, places in SPANS:
            owner, attr = places[0]
            wrapped = self._span(name, inspect.getattr_static(owner, attr))
            for owner, attr in places:
                setattr(owner, attr, wrapped)
        verifier._test_colorings = self._test_colorings(verifier._test_colorings)
        raw = inspect.getattr_static(families.Coloring, "from_encoding").__func__
        families.Coloring.from_encoding = self._from_encoding(raw)
        verifier._confusion_chunk = self._chunk(verifier._confusion_chunk)

    # -- figures ---------------------------------------------------------------

    def snapshot(self) -> dict:
        return {
            "spans": {name: list(entry) for name, entry in self.spans.items()},
            "hits": dict(self.hits),
            "coloring_s": list(self.coloring_s),
        }

    def merge_workers(self) -> None:
        """Fold the worker snapshots into these figures and delete them."""
        for path in sorted(self.work.glob("trace-worker-*.json")):
            snap = json.loads(path.read_text())
            for name, values in snap["spans"].items():
                entry = self.spans[name]
                for i, value in enumerate(values):
                    entry[i] += value
            for name, value in snap["hits"].items():
                self.hits[name] += value
            self.coloring_s.extend(snap["coloring_s"])
            path.unlink()

    def calls(self) -> dict[str, int]:
        return {name: entry[0] for name, entry in self.spans.items()}
