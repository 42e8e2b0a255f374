"""finstruct benchmark: one workload, timed end to end or traced per layer.

    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a source tree (``src/finstruct`` next to ``bench/``).
Each pass is a fresh interpreter (``bench/child.py``) that sets up the
workload's inputs, times its commands through ``finstruct.cli.main`` and
checks every output.  Passes repeat until ``--seconds`` have gone by (at
least one); figures are medians over passes.  ``setup_s`` is the median of
every pass's set-up plus a few set-up-only interpreters.

Times are normalised to a reference core.  While the commands run,
``bench/probe.py`` times a fixed kernel on every CPU, and each command's wall
time is scaled by the speed the probes saw on its CPUs; set-up time is scaled
by the passes' speed.  The host the benchmark was defined on slows each core
by up to 2x, at random and for tens of seconds, which a run cannot average
out.  The raw figures and the speed go to the machine record.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics of the traced
ones, with ``trace.overhead_s`` = traced minus untraced ``wall_s``; it fails
instead of printing numbers when an accounting identity breaks.  The last
line of standard output is the result as JSON; the line before it records
the machine.  See NOTES.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("sweep-sample", "sweep-exhaustive", "consist-trace")
SETUP_REPEATS = 9
RUN_LIMIT_S = 170.0  # the whole run, every interpreter it starts included


class BenchError(Exception):
    pass


def run_child(mode: str, args, work: Path, deadline: float, traced: bool = False) -> dict:
    """Start one fresh interpreter, wait for it, and return its JSON line."""
    cmd = [sys.executable, str(BENCH / "child.py"), mode, "--workload", args.workload,
           "--seed", str(args.seed), "--work", str(work)]
    if traced:
        cmd.append("--traced")
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd + ["--spawned", repr(spawned)], stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the pass and its sweep workers
        proc.communicate()
        raise BenchError(f"{mode} pass did not finish within the run limit") from None
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0 or not out.strip():
        raise BenchError(f"{mode} pass exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def machine() -> dict:
    return {
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "commit": commit(),
        "src_sha256": src_digest(),
    }


def pass_wall(p: dict, key: str = "wall_s") -> float:
    return sum(op[key] for op in p["ops"])


def pass_speed(p: dict) -> float:
    return pass_wall(p) / pass_wall(p, "raw_wall_s")


def end_to_end(plain: list[dict], setups: list[float], ok_share: float) -> dict:
    # over the whole pass: a sweep workload's pass is all sweeps, and on
    # consist-trace the 0.7 s sweeps alone would be too short to time steadily
    per_s = [sum(op["colorings"] for op in p["ops"]) / pass_wall(p) for p in plain]
    # set-up is too short to probe; it is scaled by the speed of the passes around it
    speed = statistics.median(pass_speed(p) for p in plain)
    return {
        "setup_s": (statistics.median(setups) * speed, "s"),
        "wall_s": (statistics.median(pass_wall(p) for p in plain), "s"),
        "colorings_per_s": (statistics.median(per_s), "1/s"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in plain), "MiB"),
        "ok_share": (ok_share, "ratio"),
    }


def per_layer(plain: list[dict], traced: list[dict]) -> dict:
    names = traced[0]["layers"]
    metrics = {
        name: (statistics.median(p["layers"][name][0] for p in traced), unit)
        for name, (_, unit) in names.items()
    }
    overhead = statistics.median(pass_wall(p) for p in traced) - statistics.median(
        pass_wall(p) for p in plain
    )
    metrics["trace.overhead_s"] = (overhead, "s")
    return metrics


def measure(args, work_root: Path) -> tuple[dict, int, int, dict]:
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    plain: list[dict] = []
    traced: list[dict] = []
    longest = 0.0
    while True:
        before = time.monotonic()
        plain.append(run_child("pass", args, work_root / f"p{len(plain)}", deadline))
        if args.trace:
            traced.append(run_child("pass", args, work_root / f"t{len(traced)}", deadline, True))
        now = time.monotonic()
        longest = max(longest, now - before)
        if now - start >= args.seconds or deadline - now < 1.5 * longest + 5:
            break
    setups = [p["setup_s"] for p in plain + traced]
    for i in range(SETUP_REPEATS):
        setups.append(run_child("setup", args, work_root / f"s{i}", deadline)["setup_s"])

    ops = [op for p in plain + traced for op in p["ops"]]
    failed = [op for op in ops if op["error"]]
    for op in failed:
        print(f"FAILED {op['name']}: {op['error']}", file=sys.stderr)
    record = machine()
    if args.trace:
        errors = [e for p in traced for e in p["identity_errors"]]
        if errors:
            raise BenchError("accounting identity broken: " + "; ".join(errors))
        if failed:
            raise BenchError("traced pass had failed operations; no per-layer figures")
        metrics = per_layer(plain, traced)
        record["tracing_overhead_s"] = metrics["trace.overhead_s"][0]
    else:
        metrics = end_to_end(plain, setups, (len(ops) - len(failed)) / len(ops))
    record.update(
        workload=args.workload, seed=args.seed, passes=len(plain), traced_passes=len(traced),
        raw_setup_s=statistics.median(setups),
        raw_wall_s=statistics.median(pass_wall(p, "raw_wall_s") for p in plain),
        cpu_speed=statistics.median(pass_speed(p) for p in plain),
    )
    return metrics, len(ops), len(failed), record


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "finstruct" / "__init__.py").is_file():
        print(f"error: no finstruct sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    work_root = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    try:
        metrics, attempted, failed, record = measure(args, work_root)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
        try:
            work_root.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    for name, (value, unit) in metrics.items():
        print(f"{name:44s} {value:>16.6g} {unit}")
    print(json.dumps({"machine": record}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
