"""One benchmark pass in a fresh interpreter.

A pass sets up its inputs with ``finstruct gen`` and free-amalgam documents,
runs the workload's timed commands through ``finstruct.cli.main`` in this
process, reads its peak memory, and only then checks every output.  A fresh
interpreter per pass starts the library's module-level caches cold, as for a
command-line user.

    python3 bench/child.py setup  --workload W --seed N --work DIR --spawned T
    python3 bench/child.py pass   --workload W --seed N --work DIR --spawned T [--traced]
    python3 bench/child.py record --work DIR

``setup`` stops when the inputs are ready.  ``pass`` prints one JSON line.
``record`` runs every workload once with seed 0, checks everything but the
digests, and rewrites ``reference.json`` from the outputs; run it only on a
commit whose outputs are known good.  ``--spawned`` is the parent's
``time.monotonic()`` just before it started this interpreter.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from itertools import product
from pathlib import Path
from typing import NamedTuple

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
sys.path.insert(0, str(SRC))

import finstruct  # noqa: E402
from finstruct import cli, consistency  # noqa: E402

REFERENCE = BENCH / "reference.json"
# bench/probe.py's kernel time on an uncontended core of the 2.1 GHz Xeon KVM
# guest the benchmark was defined on; it sets the unit of the normalised times
REFERENCE_KERNEL_S = 0.00122
SAMPLES = 2500
WORKLOADS = ("sweep-sample", "sweep-exhaustive", "consist-trace")
# colorings of the lineq n=2 diagram at m=2 that leave the (2,3)-consistent
# class: the odd-parity markings (criterion 07)
LINEQ2_FAILURES = (1, 2, 4, 7, 8, 11, 13, 14)


class Op(NamedTuple):
    name: str
    argv: tuple[str, ...]
    colorings: int = 0  # confuse: colorings the report must count
    jobs: int = 1
    failures: tuple[int, ...] = ()  # confuse: expected failing encodings


def _confuse(name, diagram, m, cls, jobs, colorings, mode=(), failures=()) -> Op:
    argv = ("confuse", "--diagram", diagram, "--m", str(m), "--class", cls, *mode, "--jobs", str(jobs))
    return Op(name, argv, colorings, jobs, failures)


def _consist(name: str, instance: str, template: str) -> Op:
    return Op(name, ("consist", instance, template, "--k", "2", "--l", "3", "--trace", f"{name}.trace.json"))


def workload(name: str, seed: int):
    """Documents to generate, free amalgams to derive, and timed commands.

    Only ``sweep-sample`` reads the seed: it is the sample seed of both
    sweeps.  The other workloads are the same for every seed.
    """
    if name == "sweep-sample":
        docs = {
            "f4.json": ("gen", "fn", "--n", "4", "--diagram"),
            "g4.json": ("gen", "g", "--shape", "((..)(..))", "--diagram"),
        }
        mode = ("--mode", "sample", "--samples", str(SAMPLES), "--seed", str(seed))
        ops = [
            _confuse("f4-sample", "f4.json", 2, "fn", 1, SAMPLES, mode),
            _confuse("g4-sample", "g4.json", 2, "g", 1, SAMPLES, mode),
        ]
        return docs, {}, ops
    if name == "sweep-exhaustive":
        docs = {
            "f3.json": ("gen", "fn", "--n", "3", "--diagram"),
            "g3.json": ("gen", "g", "--shape", "((..).)", "--diagram"),
            "g2.json": ("gen", "g", "--shape", "(..)", "--diagram"),
        }
        ops = [
            _confuse("f3-m2", "f3.json", 2, "fn", 2, 256),
            _confuse("g3-m2", "g3.json", 2, "g", 2, 256),
            _confuse("g2-m4", "g2.json", 4, "g", 2, 65536),
        ]
        return docs, {}, ops
    if name == "consist-trace":
        docs = {
            "z2-n8.json": ("gen", "lineq", "--n", "8", "--group", "2", "--diagram"),
            "z3-n8.json": ("gen", "lineq", "--n", "8", "--group", "3", "--diagram"),
            "z2x2-n4.json": ("gen", "lineq", "--n", "4", "--group", "2x2", "--diagram"),
            "z2-n2.json": ("gen", "lineq", "--n", "2", "--group", "2", "--diagram"),
            "t-z2.json": ("gen", "template", "--group", "2"),
            "t-z3.json": ("gen", "template", "--group", "3"),
            "t-z2x2.json": ("gen", "template", "--group", "2x2"),
        }
        amalgams = {
            "am-z2-n8.json": "z2-n8.json",
            "am-z3-n8.json": "z3-n8.json",
            "am-z2x2-n4.json": "z2x2-n4.json",
        }
        # the 0.7 s lineq sweep runs before, between and after the traces, so
        # that its colorings per second average over the whole pass
        sweep = _confuse("lineq-z2-n2", "z2-n2.json", 2, "lineq:2,3,2", 1, 16, failures=LINEQ2_FAILURES)
        ops = [
            sweep,
            _consist("z2-n8", "am-z2-n8.json", "t-z2.json"),
            sweep,
            _consist("z3-n8", "am-z3-n8.json", "t-z3.json"),
            sweep,
            _consist("z2x2-n4", "am-z2x2-n4.json", "t-z2x2.json"),
            sweep,
        ]
        return docs, amalgams, ops
    raise ValueError(f"unknown workload {name!r}")


def set_up(docs: dict, amalgams: dict) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        for path, argv in docs.items():
            if cli.main([*argv, "-o", path]) != 0:
                raise RuntimeError(f"finstruct {' '.join(argv)} failed")
    for path, diagram in amalgams.items():
        amalgam = cli.load_diagram(diagram).free_amalgam().amalgam
        Path(path).write_text(cli.dump_canonical(cli.structure_to_doc(amalgam)), encoding="utf-8")


# ---------------------------------------------------------------------------
# output checks

def lineq2_solvable(encoding: int) -> bool:
    """Brute force over the four blow-up leaf values of the lineq n=2, m=2 system.

    Spot (i, j) has index 2i + j in the lexicographic spot order and asks
    x_i + y_j = bit (2i + j) of the encoding over Z_2.
    """
    spots = list(product((0, 1), repeat=2))
    for x0, x1, y0, y1 in product((0, 1), repeat=4):
        x, y = (x0, x1), (y0, y1)
        if all((x[i] + y[j]) % 2 == (encoding >> s) & 1 for s, (i, j) in enumerate(spots)):
            return True
    return False


class CheckFailed(Exception):
    pass


def canonical(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def rebuild_trace(doc: dict, memo: dict) -> consistency.TraceNode:
    """The trace document as a DAG again: one node per (pebbles, values)."""
    key = (tuple(doc["pebbles"]), tuple(doc["values"]))
    node = memo.get(key)
    if node is None:
        children = tuple(
            (tuple(child["reply"]), rebuild_trace(child["node"], memo)) for child in doc["children"]
        )
        node = consistency.TraceNode(key[0], key[1], doc["action"], tuple(doc["target"]), children)
        memo[key] = node
    return node


def check_confuse(op: Op, code: int, out: str, seed: int, ref) -> dict:
    expected_code = 1 if op.failures else 0
    if code != expected_code:
        raise CheckFailed(f"exit {code}, expected {expected_code}")
    report = json.loads(out)
    if report["colorings_tested"] != op.colorings:
        raise CheckFailed(f"{report['colorings_tested']} colorings tested, expected {op.colorings}")
    failed = [f["coloring"] for f in report["failures"]]
    if failed != list(op.failures) or report["verdict"] != (not op.failures):
        raise CheckFailed(f"failures {failed}, verdict {report['verdict']}")
    for enc in failed:
        if lineq2_solvable(enc):
            raise CheckFailed(f"coloring {enc} failed but its system is solvable")
    if ref is not None:
        if "report" in ref:  # sampled sweeps: the recorded report with this seed
            expected = dict(ref["report"], mode=dict(ref["report"]["mode"], seed=seed))
            if out != canonical(expected):
                raise CheckFailed("report bytes differ from the recorded report")
        elif sha256(out.encode()) != ref["stdout_sha256"]:
            raise CheckFailed("report digest differs from the reference")
    return {}


def check_consist(op: Op, code: int, out: str, ref) -> dict:
    if code != 1 or out != "inconsistent\n":
        raise CheckFailed(f"exit {code} with {out!r}, expected exit 1 with 'inconsistent'")
    instance_path, template_path, trace_path = op.argv[1], op.argv[2], op.argv[-1]
    data = Path(trace_path).read_bytes()
    if ref is not None and sha256(data) != ref["trace_sha256"]:
        raise CheckFailed("trace digest differs from the reference")
    memo: dict = {}
    trace = consistency.GameTrace(rebuild_trace(json.loads(data), memo))
    instance = cli.load_structure(instance_path)
    template = cli.load_structure(template_path)
    start = time.perf_counter()
    valid = consistency.validate_trace(trace, instance, template, 2, 3)
    took = time.perf_counter() - start
    if not valid:
        raise CheckFailed("trace fails validate_trace")
    return {"trace_nodes": len(memo), "validate_s": took, "trace_bytes": len(data)}


def check(op: Op, code: int, out: str, seed: int, ref) -> dict:
    if op.argv[0] == "confuse":
        return check_confuse(op, code, out, seed, ref)
    return check_consist(op, code, out, ref)


# ---------------------------------------------------------------------------
# passes

def children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def peak_rss_mb() -> float:
    kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kib / 1024


@contextlib.contextmanager
def speed_probes(cpus: list[int]):
    """Run one bench/probe.py per CPU; the yielded dict fills with their samples on exit."""
    procs = {
        cpu: subprocess.Popen([sys.executable, str(BENCH / "probe.py"), str(cpu)],
                              stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        for cpu in cpus
    }
    samples: dict[int, list] = {}
    try:
        for proc in procs.values():
            if proc.stdout.readline().strip() != "ready":
                raise RuntimeError("speed probe did not start")
        yield samples
        for cpu, proc in procs.items():
            out, _ = proc.communicate(input="", timeout=30)
            samples[cpu] = json.loads(out)
    finally:
        for proc in procs.values():
            if proc.poll() is None:
                proc.kill()
                proc.wait()


def speed(samples: dict, cpus: list[int], begin: float, end: float) -> float:
    """Speed of the CPUs a command ran on, relative to the reference core.

    Per CPU: the reference kernel time over the median probe time while the
    command ran (the 3 samples nearest to it for a command shorter than that).
    Workers on several CPUs split the work by speed, so the command's speed is
    the mean of theirs.
    """
    speeds = []
    for cpu in cpus:
        times = [took for t, took in samples[cpu] if begin <= t <= end]
        if len(times) < 3:
            nearest = sorted(samples[cpu], key=lambda pair: abs(pair[0] - (begin + end) / 2))
            times = [took for _, took in nearest[:3]]
        speeds.append(REFERENCE_KERNEL_S / statistics.median(times))
    return statistics.mean(speeds)


def timed_ops(ops, tracer) -> list[dict]:
    """Run the commands; a single-process command is pinned to the first CPU."""
    cpus = sorted(os.sched_getaffinity(0))
    runs = []
    for op in ops:
        run_cpus = cpus if op.jobs > 1 else cpus[:1]
        os.sched_setaffinity(0, run_cpus)
        calls = tracer.calls() if tracer else None
        cpu = children_cpu_s()
        buf = io.StringIO()
        begin = time.monotonic()
        start = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            code = cli.main(list(op.argv))
        wall = time.perf_counter() - start
        run = {"op": op, "code": code, "out": buf.getvalue(), "raw_wall_s": wall,
               "window": (run_cpus, begin, time.monotonic()),
               "worker_cpu_s": children_cpu_s() - cpu}
        if tracer:
            tracer.merge_workers()
            run["calls"] = {n: c - calls[n] for n, c in tracer.calls().items()}
        runs.append(run)
    os.sched_setaffinity(0, cpus)
    return runs


def identity_errors(runs: list[dict], tracer) -> list[str]:
    """Accounting identities of the traced pass at this commit."""
    errors = []
    for run in runs:
        op, calls = run["op"], run["calls"]
        if op.argv[0] != "confuse":
            continue
        if calls["families.build_JC"] != op.colorings:
            errors.append(f"{op.name}: build_JC ran {calls['families.build_JC']} times for {op.colorings} colorings")
        if calls["verifier.member"] != op.colorings + 4:
            errors.append(f"{op.name}: member ran {calls['verifier.member']} times, expected {op.colorings} + 4")
    colorings = sum(run["op"].colorings for run in runs)
    if len(tracer.coloring_s) != colorings:
        errors.append(f"{len(tracer.coloring_s)} per-coloring samples for {colorings} colorings")
    return errors


def layer_metrics(runs: list[dict], tracer) -> dict:
    metrics = {}
    for name, (calls, busy, own) in tracer.spans.items():
        metrics[f"{name}.calls"] = (calls, "count")
        metrics[f"{name}.s"] = (busy, "s")
        metrics[f"{name}.self_s"] = (own, "s")
    sweeps = [run for run in runs if run["op"].argv[0] == "confuse"]
    fanned = [run for run in sweeps if run["op"].jobs > 1]
    consists = [run for run in runs if run["op"].argv[0] == "consist"]
    colorings = sum(run["op"].colorings for run in sweeps)
    cuts = statistics.quantiles(tracer.coloring_s, n=100, method="inclusive")
    worker_cpu = sum(run["worker_cpu_s"] for run in fanned)
    fanned_capacity = sum(run["op"].jobs * run["raw_wall_s"] for run in fanned)
    fixpoints = sum(run["calls"]["consistency.fixpoint"] for run in consists)
    metrics.update({
        "morphisms.search.hits": (tracer.hits["morphisms.search"], "count"),
        "morphisms.searches_per_coloring": (tracer.spans["morphisms.search"][0] / colorings, "ratio"),
        "verifier.colorings": (colorings, "count"),
        "verifier.coloring_s.p50": (cuts[49], "s"),
        "verifier.coloring_s.p99": (cuts[98], "s"),
        "verifier.coloring_s.samples": (len(tracer.coloring_s), "count"),
        "verifier.fanout.worker_cpu_s": (worker_cpu, "s"),
        "verifier.fanout.busy_share": (worker_cpu / fanned_capacity if fanned else 0.0, "ratio"),
        "consistency.fixpoint_runs_per_verdict": (fixpoints / len(consists) if consists else 0.0, "ratio"),
        "consistency.trace_nodes": (sum(run["trace_nodes"] for run in consists), "count"),
        "consistency.validate_trace.s": (sum(run["validate_s"] for run in consists), "s"),
        "cli.bytes_out": (sum(run["bytes_out"] for run in runs), "bytes"),
    })
    return metrics


def run_pass(args) -> dict:
    docs, amalgams, ops = workload(args.workload, args.seed)
    set_up(docs, amalgams)
    setup_s = time.monotonic() - args.spawned
    tracer = None
    if args.traced:
        from tracer import Tracer

        tracer = Tracer(Path.cwd())
        tracer.install()
    with speed_probes(sorted(os.sched_getaffinity(0))) as samples:
        runs = timed_ops(ops, tracer)
        # before the checks, which hold whole traces in memory, and before the
        # probes are reaped, which would count their memory as a child's
        peak = peak_rss_mb()
    for run in runs:
        run["speed"] = speed(samples, *run["window"])
        run["wall_s"] = run["raw_wall_s"] * run["speed"]
    reference = json.loads(REFERENCE.read_text())
    for run in runs:
        op = run["op"]
        try:
            run.update(check(op, run["code"], run["out"], args.seed, reference[op.name]))
            run["error"] = None
        except (CheckFailed, KeyError, TypeError, ValueError, OSError) as exc:
            run["error"] = f"{type(exc).__name__}: {exc}"
        run["bytes_out"] = len(run["out"].encode()) + run.get("trace_bytes", 0)
    result = {
        "setup_s": setup_s,
        "peak_rss_mb": peak,
        "ops": [
            {"name": run["op"].name, "wall_s": run["wall_s"], "raw_wall_s": run["raw_wall_s"],
             "speed": run["speed"], "colorings": run["op"].colorings, "error": run["error"]}
            for run in runs
        ],
    }
    if tracer:
        result["identity_errors"] = identity_errors(runs, tracer)
        if all(run["error"] is None for run in runs):
            result["layers"] = layer_metrics(runs, tracer)
    return result


def record() -> None:
    reference = {}
    for name in WORKLOADS:
        docs, amalgams, ops = workload(name, 0)
        set_up(docs, amalgams)
        for run in timed_ops(ops, None):
            op, out = run["op"], run["out"]
            check(op, run["code"], out, 0, None)
            if "--seed" in op.argv:
                entry = {"report": json.loads(out)}
            else:
                entry = {"stdout_sha256": sha256(out.encode())}
            if op.argv[0] == "consist":
                entry["trace_sha256"] = sha256(Path(op.argv[-1]).read_bytes())
            reference[op.name] = entry
            print(f"{name} {op.name}: {run['raw_wall_s']:.2f} s", file=sys.stderr)
    REFERENCE.write_text(json.dumps(reference, sort_keys=True, indent=2) + "\n")


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=["setup", "pass", "record"])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--spawned", type=float)
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args()
    if Path(finstruct.__file__).resolve().parent != SRC / "finstruct":
        sys.exit(f"error: finstruct imported from {finstruct.__file__}, not from {SRC}")
    args.work.mkdir(parents=True, exist_ok=True)
    os.chdir(args.work)
    if args.mode == "record":
        record()
        return 0
    if args.mode == "setup":
        docs, amalgams, _ = workload(args.workload, args.seed)
        set_up(docs, amalgams)
        print(json.dumps({"setup_s": time.monotonic() - args.spawned}))
        return 0
    print(json.dumps(run_pass(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
