"""Command-line frontend: generation, checks, sweeps, bounds, and export.

Interchange is canonical JSON (sorted keys, sorted domains, sorted tuples,
UTF-8, LF) so documents round-trip byte-identically.  Exit codes follow one
contract everywhere: 0 success / property holds, 1 checked-and-fails,
2 usage, input, or budget error.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from itertools import islice
from typing import Optional

from . import bounds as bounds_mod
from . import consistency, families, verifier
from .core import BudgetExceeded, ElementMap, Signature, Structure, StructureError
from .families import AbelianGroup, Diagram, TreeShape
from .morphisms import KINDS, HomomorphismSearcher, check_morphism, is_isomorphic

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_ERROR = 2

# elements plus tuples ``gen`` may build in one structure, counted from the
# arguments first (a diagram holds about three such structures): at the
# limit, ``gen fn --n 43689 --diagram`` peaks near 190 MiB
GEN_LIMIT = 1 << 18


# ---------------------------------------------------------------------------
# canonical JSON documents

def structure_to_doc(s: Structure) -> dict:
    return {
        "signature": [{"name": n, "arity": a} for n, a in s.signature.symbols],
        "domain": list(s.domain),
        "relations": {name: [list(t) for t in sorted(ts)] for name, ts in s.relations_items()},
    }


def structure_from_doc(doc: dict) -> Structure:
    try:
        sig = Signature([(entry["name"], entry["arity"]) for entry in doc["signature"]])
        domain = doc["domain"]
        for x in domain:
            if "\n" in x:
                raise StructureError("identifiers must not contain newlines")
        relations = {
            name: [tuple(t) for t in ts] for name, ts in doc.get("relations", {}).items()
        }
        return Structure(sig, domain, relations)
    except StructureError:
        raise
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise StructureError(f"malformed structure document: {exc}") from None


def diagram_to_doc(d: Diagram) -> dict:
    return {
        "base": structure_to_doc(d.base),
        "left": structure_to_doc(d.left),
        "right": structure_to_doc(d.right),
        "leftEmb": dict(d.left_emb.items()),
        "rightEmb": dict(d.right_emb.items()),
    }


def diagram_from_doc(doc: dict) -> Diagram:
    try:
        base = structure_from_doc(doc["base"])
        left = structure_from_doc(doc["left"])
        right = structure_from_doc(doc["right"])
        left_emb = ElementMap(base.domain, left.domain, doc["leftEmb"])
        right_emb = ElementMap(base.domain, right.domain, doc["rightEmb"])
    except StructureError:
        raise
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise StructureError(f"malformed diagram document: {exc}") from None
    return Diagram(base, left, right, left_emb, right_emb)


def dump_canonical(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


@contextlib.contextmanager
def _output(path: str):
    """A text handle on path: stdout for ``-``, else the file (UTF-8, LF)."""
    if path == "-":
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            yield handle


def _write(path: str, text: str) -> None:
    with _output(path) as out:
        out.write(text)


def _read_json(path: str) -> dict:
    """The document at path (``-``: stdin), refused with ``StructureError``
    unless its bytes are UTF-8 and its strings can be written back as UTF-8.

    Only a ``\\u`` escape can spell a lone surrogate in decoded text, so a
    document without one is not re-encoded.
    """
    try:
        if path == "-":
            data = sys.stdin.buffer.read()
        else:
            with open(path, "rb") as handle:
                data = handle.read()
        text = data.decode("utf-8")
        doc = json.loads(text)
        if "\\u" in text:
            json.dumps(doc, ensure_ascii=False).encode("utf-8")
        return doc
    except json.JSONDecodeError:
        raise
    except ValueError as exc:  # bad UTF-8, a surrogate, or a number past the int digit limit
        raise StructureError(f"unreadable document: {exc}") from None


def load_structure(path: str) -> Structure:
    return structure_from_doc(_read_json(path))


def load_diagram(path: str) -> Diagram:
    return diagram_from_doc(_read_json(path))


# ---------------------------------------------------------------------------
# DOT export

def structure_to_dot(s: Structure, symmetric: tuple[str, ...] = ()) -> str:
    """Deterministic DOT rendering.

    Binary relations become labeled edges, undirected for the relations
    listed as symmetric (orientation pairs deduplicated); unary predicates
    annotate node labels; wider tuples become auxiliary factor nodes with
    port-numbered edges to their components.  Every identifier and relation
    name is escaped for its quoted string; the ``\\n`` before unary labels
    is the one escape left for Graphviz to read.
    """

    def q(text: str) -> str:  # the text of a DOT quoted string
        return text.replace("\\", "\\\\").replace('"', '\\"')

    lines = ["digraph structure {"]
    labels: dict[str, list[str]] = {x: [] for x in s.domain}
    for name, ts in s.relations_items():
        if s.signature.arity(name) == 1:
            for (x,) in sorted(ts):
                labels[x].append(q(name))
    for x in s.domain:
        suffix = f"\\n{','.join(labels[x])}" if labels[x] else ""
        lines.append(f'  "{q(x)}" [label="{q(x)}{suffix}"];')
    for name, ts in s.relations_items():
        arity = s.signature.arity(name)
        if arity == 1:
            continue
        if arity == 2:
            if name in symmetric:
                seen = set()
                for (u, v) in sorted(ts):
                    if (v, u) in seen:
                        continue
                    seen.add((u, v))
                    lines.append(f'  "{q(u)}" -> "{q(v)}" [label="{q(name)}", dir=none];')
            else:
                for (u, v) in sorted(ts):
                    lines.append(f'  "{q(u)}" -> "{q(v)}" [label="{q(name)}"];')
        else:
            for index, t in enumerate(sorted(ts)):
                factor = q(f"{name}#{index}")
                lines.append(f'  "{factor}" [shape=point, label="{q(name)}"];')
                for port, x in enumerate(t, start=1):
                    lines.append(f'  "{factor}" -> "{q(x)}" [label="{port}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# commands

def _check_gen_size(size: int) -> None:
    if size > GEN_LIMIT:
        raise BudgetExceeded(f"{size} elements and tuples exceed the gen limit of {GEN_LIMIT}")


def _template(group: AbelianGroup) -> Structure:
    # |G| + |G|^2 elements, their labels, 3 |G|^2 projections, |G| markers
    _check_gen_size(5 * group.order**2 + 3 * group.order)
    return families.build_template(group)


def _cmd_gen(args) -> int:
    group = AbelianGroup.parse(args.group) if args.group else None
    if args.family == "fn":
        if args.n is None:
            raise StructureError("gen fn needs --n")
        _check_gen_size(6 * args.n + 5)  # n + 2 elements, 5n + 3 tuples
        doc = (
            diagram_to_doc(families.diagram_Fn(args.n))
            if args.diagram
            else structure_to_doc(families.gen_Fn(args.n))
        )
    elif args.family == "g":
        if not args.shape:
            raise StructureError("gen g needs --shape")
        shape = TreeShape.parse(args.shape)
        doc = (
            diagram_to_doc(families.diagram_G(shape))
            if args.diagram
            else structure_to_doc(families.gen_G(shape))
        )
    elif args.family == "lineq":
        if args.n is None or group is None:
            raise StructureError("gen lineq needs --n and --group")
        _check_gen_size(9 * args.n - 6)  # 3n - 2 elements, labels, 3n - 3 projections, a mark
        shape = TreeShape.parse(args.shape) if args.shape else None
        if args.diagram:
            doc = diagram_to_doc(families.diagram_lineq(args.n, group, shape=shape))
        else:
            instance = families.tree_instance(args.n, shape)
            marked = families.marking(instance, _parse_mark(args.mark, group), group)
            doc = structure_to_doc(marked)
    elif args.family == "path":
        if args.n is None:
            raise StructureError("gen path needs --n")
        _check_gen_size(2 * args.n + 1)
        doc = structure_to_doc(families.gen_Pn(args.n))
    elif args.family == "template":
        if group is None:
            raise StructureError("gen template needs --group")
        doc = structure_to_doc(_template(group))
    else:
        raise StructureError(f"unknown family {args.family!r}")
    _write(args.output, dump_canonical(doc))
    return EXIT_OK


def _parse_mark(text: Optional[str], group: AbelianGroup) -> tuple[int, ...]:
    if text is None:
        return group.zero
    try:
        parts = tuple(int(p) for p in text.split("-"))
    except ValueError:
        raise StructureError(f"bad group element: {text!r}") from None
    if len(parts) != len(group.orders):
        raise StructureError(f"element {text!r} has wrong component count for {group!r}")
    return parts


def _cmd_hom(args) -> int:
    """Each map is written and counted as the search finds it, never stored.

    Monomorphisms, embeddings and isomorphisms are injective, and the
    injective search yields the injective homomorphisms in the order of all
    of them.  Without ``--all`` or ``--count`` the search stops at the first
    map.
    """
    a = load_structure(args.src)
    b = load_structure(args.dst)
    kind = args.kind
    listing = args.all or args.count
    if kind == "isomorphism" and not listing:
        return EXIT_OK if is_isomorphic(a, b) else EXIT_FAIL
    searcher = HomomorphismSearcher(b)  # a signature mismatch raises at the first step
    if kind in ("homomorphism", "strong-homomorphism"):
        maps = searcher.iter_all(a)
    else:
        maps = searcher.iter_injective(a)
    if kind != "homomorphism":
        maps = (f for f in maps if check_morphism(f, a, b, kind))
    count = 0
    for f in maps if listing else islice(maps, 1):
        count += 1
        if args.all:
            sys.stdout.write(json.dumps(dict(f.items()), sort_keys=True) + "\n")
    if args.count:
        sys.stdout.write(f"{count}\n")
    return EXIT_OK if count else EXIT_FAIL


def _cmd_consist(args) -> int:
    instance = load_structure(args.instance)
    template = load_structure(args.template)
    if args.trace:
        # one fixpoint: the trace is None exactly when the instance is consistent
        trace = consistency.spoiler_trace(instance, template, args.k, args.l)
        consistent = trace is None
        if not consistent:
            with _output(args.trace) as out:
                _write_trace(out, trace.root)
    else:
        consistent = consistency.is_consistent(instance, template, args.k, args.l)
    if consistent:
        sys.stdout.write("consistent\n")
        return EXIT_OK
    sys.stdout.write("inconsistent\n")
    return EXIT_FAIL


def _trace_to_doc(node: consistency.TraceNode) -> dict:
    """The trace as a document tree; ``_write_trace`` writes its canonical text."""
    return {
        "pebbles": list(node.pebbles),
        "values": list(node.values),
        "action": node.action,
        "target": list(node.target),
        "children": [
            {"reply": list(values), "node": _trace_to_doc(child)}
            for values, child in node.children
        ],
    }


def _write_trace(out, root: consistency.TraceNode) -> None:
    """Write ``dump_canonical(_trace_to_doc(root))`` to out as it is rendered.

    The strategy DAG expands to a tree that can be far larger than the DAG,
    so no document is built: each node's fixed-shape text (sorted keys,
    two-space indents, ``[]`` for an empty list) is written depth first,
    and every string goes through the escaper ``json.dumps`` uses with
    ``ensure_ascii=False``.
    """
    enc = json.encoder.encode_basestring

    def strings(items, pad: str) -> str:
        if not items:
            return "[]"
        sep = ",\n" + pad + "  "
        return "[\n" + pad + "  " + sep.join(map(enc, items)) + "\n" + pad + "]"

    def node(n: consistency.TraceNode, pad: str) -> None:
        inner = pad + "  "
        entry = inner + "  "
        field = entry + "  "
        out.write(f'{{\n{inner}"action": {enc(n.action)},\n{inner}"children": ')
        if n.children:
            sep = "[\n"
            for reply, child in n.children:
                out.write(f'{sep}{entry}{{\n{field}"node": ')
                node(child, field)
                out.write(f',\n{field}"reply": {strings(reply, field)}\n{entry}}}')
                sep = ",\n"
            out.write(f"\n{inner}],\n")
        else:
            out.write("[],\n")
        out.write(
            f'{inner}"pebbles": {strings(n.pebbles, inner)},\n'
            f'{inner}"target": {strings(n.target, inner)},\n'
            f'{inner}"values": {strings(n.values, inner)}\n{pad}}}'
        )

    node(root, "")
    out.write("\n")


def _oracle_for(spec: str) -> verifier.ClassOracle:
    if spec == "fn":
        return verifier.forbh_oracle(families.FnFamily())
    if spec == "g":
        return verifier.forbh_oracle(families.GFamily())
    if spec.startswith("lineq:"):
        try:
            k_text, l_text, group_text = spec[len("lineq:") :].split(",")
            k, l = int(k_text), int(l_text)
        except ValueError:
            raise StructureError(f"bad class spec {spec!r}; expected lineq:<k>,<l>,<group>") from None
        return verifier.consistency_oracle(_template(AbelianGroup.parse(group_text)), k, l)
    raise StructureError(f"unknown class {spec!r}")


def _cmd_confuse(args) -> int:
    diagram = load_diagram(args.diagram)
    oracle = _oracle_for(args.cls)
    report = verifier.check_confusion(
        diagram,
        args.m,
        oracle,
        mode=args.mode,
        samples=args.samples,
        seed=args.seed,
        jobs=args.jobs,
    )
    sys.stdout.write(dump_canonical(report.to_dict()))
    return EXIT_OK if report.verdict else EXIT_FAIL


def _cmd_bounds(args) -> int:
    if args.find_m:
        m = bounds_mod.minimal_m(args.n, args.r, args.t, cap=args.cap)
        doc: dict = {"n": args.n, "r": args.r, "t": args.t, "cap": str(args.cap)}
        if m is None:
            doc["minimal_m"] = None
        else:
            doc["minimal_m"] = str(m)
            doc["report"] = bounds_mod.condition_holds(
                bounds_mod.BoundsParams(args.r, args.t, args.n, m)
            ).to_dict()
        sys.stdout.write(dump_canonical(doc))
        return EXIT_OK
    if args.m is None:
        raise StructureError("bounds needs --m or --find-m")
    params = bounds_mod.BoundsParams(args.r, args.t, args.n, args.m)
    bounds_mod.check_printable(params)
    report = bounds_mod.condition_holds(params)
    sys.stdout.write(dump_canonical(report.to_dict()))
    return EXIT_OK


def _cmd_export_dot(args) -> int:
    s = load_structure(args.structure)
    _write(args.output, structure_to_dot(s, tuple(args.symmetric)))
    return EXIT_OK


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="finstruct",
        description="Finite relational structures: generation, checks, sweeps, bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a family structure or diagram")
    gen.add_argument("family", choices=["fn", "g", "lineq", "path", "template"])
    gen.add_argument("--n", type=int)
    gen.add_argument("--group", help="cyclic factors, e.g. 2 or 2x2")
    gen.add_argument("--shape", help="tree shape, e.g. ((..)(..))")
    gen.add_argument("--mark", help="marking element for lineq instances, e.g. 1 or 1-0")
    gen.add_argument("--diagram", action="store_true", help="emit the diagram instead")
    gen.add_argument("--output", "-o", default="-")
    gen.set_defaults(func=_cmd_gen)

    hom = sub.add_parser("hom", help="homomorphism search between two structures")
    hom.add_argument("--from", dest="src", required=True)
    hom.add_argument("--to", dest="dst", required=True)
    hom.add_argument("--kind", default="homomorphism", choices=list(KINDS))
    hom.add_argument("--all", action="store_true", help="print every map as JSON")
    hom.add_argument("--count", action="store_true", help="print the number of maps")
    hom.set_defaults(func=_cmd_hom)

    consist = sub.add_parser("consist", help="(k,l)-consistency verdict")
    consist.add_argument("instance")
    consist.add_argument("template")
    consist.add_argument("--k", type=int, required=True)
    consist.add_argument("--l", type=int, required=True)
    consist.add_argument("--trace", help="write a spoiler strategy tree here when inconsistent")
    consist.set_defaults(func=_cmd_consist)

    confuse = sub.add_parser("confuse", help="coloring sweep over a diagram")
    confuse.add_argument("--diagram", required=True)
    confuse.add_argument("--m", type=int, required=True)
    confuse.add_argument("--mode", default="exhaustive", choices=["exhaustive", "sample"])
    confuse.add_argument("--samples", type=int, default=0)
    confuse.add_argument("--seed", type=int, default=0)
    confuse.add_argument("--class", dest="cls", required=True, help="fn | g | lineq:<k>,<l>,<group>")
    confuse.add_argument("--jobs", type=_positive_int, default=verifier.usable_cpus())
    confuse.set_defaults(func=_cmd_confuse)

    bounds_p = sub.add_parser("bounds", help="threshold condition arithmetic")
    bounds_p.add_argument("--n", type=int, required=True)
    bounds_p.add_argument("--r", type=int, required=True)
    bounds_p.add_argument("--t", type=int, required=True)
    bounds_p.add_argument("--m", type=int)
    bounds_p.add_argument("--find-m", action="store_true")
    bounds_p.add_argument("--cap", type=int, default=10**6)
    bounds_p.set_defaults(func=_cmd_bounds)

    dot = sub.add_parser("export-dot", help="render a structure document as DOT")
    dot.add_argument("structure")
    dot.add_argument("--output", "-o", default="-")
    dot.add_argument("--symmetric", nargs="*", default=[], help="relations drawn undirected")
    dot.set_defaults(func=_cmd_export_dot)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_ERROR if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (StructureError, BudgetExceeded, OSError, json.JSONDecodeError, RecursionError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
