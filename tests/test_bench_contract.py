"""The names the traced benchmark (``bench/tracer.py``) patches must exist.

``bench/run.py --trace 1`` wraps library attributes from outside; a rename
under ``src/`` would otherwise only show when the traced benchmark runs.
The tracer module is imported and read, never installed.
"""

from __future__ import annotations

import importlib.util
import inspect
from pathlib import Path

from finstruct import families, verifier

TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_span_resolves():
    for name, places in _tracer().SPANS:
        owner, attr = places[0]
        assert callable(inspect.getattr_static(owner, attr)), name


def test_sweep_hooks_exist():
    assert callable(verifier._test_colorings)
    assert callable(verifier._confusion_chunk)
    assert isinstance(inspect.getattr_static(families.Coloring, "from_encoding"), classmethod)


def test_oracles_count_members_through_the_base_class():
    # the tracer wraps ``ClassOracle.member`` and ``explain`` as each subclass
    # resolves it; an override would go uncounted, and each subclass defines
    # only the evidence both read
    for impl in (verifier._ForbhMembership, verifier._ConsistencyMembership):
        assert issubclass(impl, verifier.ClassOracle)
        assert not {"member", "explain", "__call__"} & set(vars(impl))
        assert "evidence" in vars(impl)
    assert "__call__" not in vars(verifier.ClassOracle)
