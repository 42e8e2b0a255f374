"""CLI contract: documents round-trip, exit codes, determinism, DOT export."""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finstruct import cli
from finstruct.core import Signature, Structure, disjoint_union, quotient
from finstruct.families import AbelianGroup, build_template, diagram_Fn, diagram_lineq, gen_Fn
from finstruct.morphisms import check_morphism, enumerate_homomorphisms


SRC = Path(__file__).resolve().parents[1] / "src"


def run(capsys, *argv) -> tuple[int, str]:
    code = cli.main(list(argv))
    return code, capsys.readouterr().out


def run_process(*argv, env=None, **kwargs) -> subprocess.CompletedProcess:
    """The CLI in a fresh interpreter, importing the package from this tree."""
    return subprocess.run(
        [sys.executable, "-m", "finstruct.cli", *argv],
        capture_output=True,
        env={**os.environ, "PYTHONPATH": str(SRC), **(env or {})},
        **kwargs,
    )


def write_structure(path: Path, structure: Structure) -> str:
    path.write_text(cli.dump_canonical(cli.structure_to_doc(structure)))
    return str(path)


def test_round_trip_is_byte_identical(tmp_path):
    doc = cli.structure_to_doc(gen_Fn(3))
    text = cli.dump_canonical(doc)
    reparsed = cli.structure_from_doc(json.loads(text))
    assert cli.dump_canonical(cli.structure_to_doc(reparsed)) == text


def test_diagram_document_round_trip():
    d = diagram_Fn(3)
    doc = cli.diagram_to_doc(d)
    again = cli.diagram_from_doc(json.loads(cli.dump_canonical(doc)))
    assert again == d


def test_diagram_document_validates_embeddings():
    d = diagram_Fn(3)
    doc = cli.diagram_to_doc(d)
    doc["leftEmb"]["v1"] = "v2"  # no longer injective
    with pytest.raises(Exception):
        cli.diagram_from_doc(doc)


def test_gen_fn(tmp_path, capsys):
    out = tmp_path / "f3.json"
    code, _ = run(capsys, "gen", "fn", "--n", "3", "-o", str(out))
    assert code == 0
    doc = json.loads(out.read_text())
    assert len(doc["domain"]) == 5


def test_gen_lineq_diagram(capsys):
    code, text = run(capsys, "gen", "lineq", "--n", "8", "--group", "2", "--diagram")
    assert code == 0
    doc = json.loads(text)
    assert len(doc["base"]["domain"]) == 8
    assert len(doc["left"]["domain"]) == 22


def test_gen_template(capsys):
    code, text = run(capsys, "gen", "template", "--group", "2")
    assert code == 0
    assert len(json.loads(text)["domain"]) == 6


def test_gen_bad_params_exit_2(capsys):
    code, _ = run(capsys, "gen", "fn")
    assert code == 2
    code, _ = run(capsys, "gen", "lineq", "--n", "3", "--group", "2")
    assert code == 2


def test_hom_exit_codes(tmp_path, capsys):
    f3 = tmp_path / "f3.json"
    f4 = tmp_path / "f4.json"
    run(capsys, "gen", "fn", "--n", "3", "-o", str(f3))
    run(capsys, "gen", "fn", "--n", "4", "-o", str(f4))
    code, _ = run(capsys, "hom", "--from", str(f3), "--to", str(f4))
    assert code == 1
    code, _ = run(capsys, "hom", "--from", str(f3), "--to", str(f3))
    assert code == 0
    code, text = run(capsys, "hom", "--from", str(f3), "--to", str(f3), "--all", "--count")
    assert code == 0
    lines = text.strip().splitlines()
    assert int(lines[-1]) == len(lines) - 1 >= 1
    code, _ = run(capsys, "hom", "--from", str(f3), "--to", "/nonexistent.json")
    assert code == 2
    code, _ = run(capsys, "hom", "--from", str(f3), "--to", str(f3), "--kind", "isomorphism")
    assert code == 0
    code, text = run(
        capsys, "hom", "--from", str(f3), "--to", str(f3), "--kind", "embedding", "--count"
    )
    assert code == 0 and int(text.strip()) >= 1
    code, _ = run(capsys, "hom", "--from", str(f3), "--to", str(f4), "--kind", "monomorphism")
    assert code == 1
    iso_count = ("--kind", "isomorphism", "--count")
    assert run(capsys, "hom", "--from", str(f3), "--to", str(f3), *iso_count) == (0, "1\n")
    assert run(capsys, "hom", "--from", str(f3), "--to", str(f4), *iso_count) == (1, "0\n")


def test_hom_lists_and_counts_the_library_maps(tmp_path, capsys):
    # the maps are written and counted as the search finds them; the bytes
    # are those of the library's full list, in its order
    f3 = gen_Fn(3)
    folded, _ = quotient(f3, [["red", "blue"], ["v1"], ["v2"], ["v3"]])
    targets = {
        "F_4 free amalgam": diagram_Fn(4).free_amalgam().amalgam,  # no map
        "F_3 J_all at m=2": diagram_Fn(3).skeleton(2).all,  # 8 maps, all injective
        "F_3 beside its fold": disjoint_union(f3, folded)[0],  # 2 maps, 1 injective
    }
    src = write_structure(tmp_path / "f3.json", f3)
    for name, target in targets.items():
        dst = write_structure(tmp_path / "dst.json", target)
        for kind in ("homomorphism", "monomorphism"):
            maps = [f for f in enumerate_homomorphisms(f3, target) if check_morphism(f, f3, target, kind)]
            listed = "".join(json.dumps(dict(f.items()), sort_keys=True) + "\n" for f in maps)
            counted = f"{len(maps)}\n"
            code = 0 if maps else 1
            argv = ("hom", "--from", src, "--to", dst, "--kind", kind)
            assert run(capsys, *argv, "--all") == (code, listed), (name, kind)
            assert run(capsys, *argv, "--count") == (code, counted), (name, kind)
            assert run(capsys, *argv, "--all", "--count") == (code, listed + counted), (name, kind)
            assert run(capsys, *argv) == (code, ""), (name, kind)


def _cap_address_space() -> None:
    cap = 512 * 2**20
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))


def assert_refused_at_once(*argv: str) -> None:
    """The CLI exits 2 with one error line within 10 s, under a 512 MiB
    address-space cap."""
    start = time.monotonic()
    proc = run_process(*argv, preexec_fn=_cap_address_space, timeout=120)
    assert time.monotonic() - start < 10
    assert proc.returncode == 2 and proc.stdout == b""
    lines = proc.stderr.decode().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")


def assert_consist_refused_at_once(tmp_path, n: int, group: AbelianGroup, l: int) -> None:
    """``consist`` at (2, l) on the lineq free amalgam is refused at once."""
    amalgam = write_structure(
        tmp_path / "am.json", diagram_lineq(n, group).free_amalgam().amalgam
    )
    template = write_structure(tmp_path / "t.json", build_template(group))
    assert_refused_at_once("consist", amalgam, template, "--k", "2", "--l", str(l))


def test_consist_refuses_oversize_l_at_once(tmp_path):
    # (Z2, n=8) has 36 elements: 135,142,796 subsets of at most 9 of them
    assert_consist_refused_at_once(tmp_path, 8, AbelianGroup([2]), 9)


def test_consist_refuses_oversize_masks_at_once(tmp_path):
    # (Z5, n=2) has 6 elements and a 30-element template: at (2,4) the
    # support masks of the size-4 subsets alone would take about 570 MB
    assert_consist_refused_at_once(tmp_path, 2, AbelianGroup([5]), 4)


def assert_refused_within_a_second(capsys, *argv: str) -> None:
    """The CLI, in this process, exits 2 with one error line within 1 s."""
    start = time.monotonic()
    code = cli.main(list(argv))
    elapsed = time.monotonic() - start
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert elapsed < 1


def test_consist_refuses_huge_l_within_a_second(tmp_path, capsys):
    # the marked n=16 instance has 46 elements: the subset count alone is
    # over the memory budget a few sizes in, before any mask is counted
    marked, template = str(tmp_path / "m.json"), str(tmp_path / "t.json")
    run(capsys, "gen", "lineq", "--n", "16", "--group", "2", "--mark", "1", "-o", marked)
    run(capsys, "gen", "template", "--group", "2", "-o", template)
    assert_refused_within_a_second(capsys, "consist", marked, template, "--k", "2", "--l", "100000")


@pytest.mark.parametrize(
    "n, m, mode",
    [
        (4, "1" + "0" * 1100, "exhaustive"),
        (4, "1" + "0" * 1100, "sample"),
        (2000, "9" * 4299, "exhaustive"),
        (2000, "9" * 4299, "sample"),
    ],
    ids=["F4-exhaustive", "F4-sample", "F2000-exhaustive", "F2000-sample"],
)
def test_confuse_refuses_huge_m_within_a_second(tmp_path, capsys, n, m, mode):
    # m^|A| is refused from bit lengths: it is never raised, nor printed
    diagram = str(tmp_path / "d.json")
    run(capsys, "gen", "fn", "--n", str(n), "--diagram", "-o", diagram)
    assert_refused_within_a_second(
        capsys, "confuse", "--diagram", diagram, "--m", m, "--mode", mode, "--samples", "1",
        "--class", "fn", "--jobs", "1",
    )


def test_confuse_refuses_oversize_skeleton_at_once(tmp_path):
    # F_4 at m=30 has 810,000 spots; the skeleton would plan over 30 million
    # elements and tuples
    diagram = tmp_path / "f4.json"
    diagram.write_text(cli.dump_canonical(cli.diagram_to_doc(diagram_Fn(4))))
    assert_refused_at_once(
        "confuse", "--diagram", str(diagram), "--mode", "sample", "--samples", "1",
        "--m", "30", "--class", "fn", "--jobs", "1",
    )


def test_confuse_refuses_oversize_sample_count_at_once(tmp_path):
    diagram = tmp_path / "f3.json"
    diagram.write_text(cli.dump_canonical(cli.diagram_to_doc(diagram_Fn(3))))
    assert_refused_at_once(
        "confuse", "--diagram", str(diagram), "--mode", "sample", "--samples", "100000000",
        "--m", "2", "--class", "fn", "--jobs", "1",
    )


def test_confuse_refuses_oversize_template_at_once(tmp_path):
    # Z2000's template would hold 20 million elements and tuples: the size
    # ``gen template`` refuses is refused before ``confuse`` builds it
    diagram = tmp_path / "l2.json"
    diagram.write_text(cli.dump_canonical(cli.diagram_to_doc(diagram_lineq(2, AbelianGroup([2])))))
    assert_refused_at_once(
        "confuse", "--diagram", str(diagram), "--m", "2", "--class", "lineq:2,3,2000", "--jobs", "1",
    )


def test_bounds_refuses_threshold_too_long_to_print_at_once():
    # the threshold has more decimal digits than ``str`` of an int may print
    assert_refused_at_once("bounds", "--n", "6", "--r", "5", "--t", "1", "--m", "2")


def test_bounds_refuses_q_too_long_to_print_at_once():
    # q = Bell(7) * 2^(7^6) alone is over the printing limit
    assert_refused_at_once("bounds", "--n", "8", "--r", "6", "--t", "1", "--m", "2")


@pytest.mark.parametrize("path", [("--m", "2"), ("--find-m",)], ids=["m", "find-m"])
def test_bounds_refuses_parameters_too_large_for_a_float_at_once(path):
    # 10^400 overflows a float; n and r both that large on the --m path,
    # n alone on the --find-m path, which needs r < n
    big = str(10**400)
    r = big if path[0] == "--m" else "1"
    assert_refused_at_once("bounds", "--n", big, "--r", r, "--t", "1", *path)


def test_bounds_refuses_q_too_long_to_print_before_the_bell_triangle():
    # q = Bell(4001) is far over the printing limit, and its Bell triangle
    # takes 8 s or more to build, so a refusal within 3 s comes from the
    # arguments alone
    start = time.monotonic()
    assert_refused_at_once("bounds", "--n", "4000", "--r", "4000", "--t", "0", "--m", "2")
    assert time.monotonic() - start < 3


def test_bounds_refuses_oversize_atomic_type_count_at_once():
    # q = Bell(31) * 2^(31^30) could never be held, let alone printed
    assert_refused_at_once("bounds", "--n", "60", "--r", "30", "--t", "1", "--m", "2")


def test_bounds_refuses_oversize_threshold_at_once(capsys):
    # q has 9^8 bits and the threshold is q^C(12,8), about 21 billion bits;
    # at (8,6,1) the threshold has 3.3 million bits and is still computed
    assert_refused_at_once("bounds", "--n", "12", "--r", "8", "--t", "1", "--find-m", "--cap", "10")
    code, text = run(capsys, "bounds", "--n", "8", "--r", "6", "--t", "1", "--find-m", "--cap", "10")
    assert code == 0 and json.loads(text)["minimal_m"] is None


@pytest.mark.parametrize(
    "argv",
    [
        ("fn", "--n", "30000000"),
        ("path", "--n", "30000000"),
        ("lineq", "--n", "4194304", "--group", "2"),
        ("template", "--group", "3000"),
    ],
    ids=["fn", "path", "lineq", "template"],
)
def test_gen_refuses_oversize_family_at_once(argv):
    assert_refused_at_once("gen", *argv)


def test_consist_trace_peak_rss(tmp_path):
    # lineq Z3 n=8 at (2,3) deletes 401,002 assignments; the trace path keeps
    # 8 bytes for each, not a reason tuple, so the run stays well under 64 MiB.
    # The child reads its own VmHWM: ru_maxrss would carry the high-water
    # mark of the pytest process that started it across the exec
    if not os.path.exists("/proc/self/status"):
        pytest.skip("needs /proc/self/status for the child's VmHWM")
    z3 = AbelianGroup([3])
    amalgam = write_structure(tmp_path / "am.json", diagram_lineq(8, z3).free_amalgam().amalgam)
    template = write_structure(tmp_path / "t3.json", build_template(z3))
    script = (
        "import sys\n"
        "from finstruct import cli\n"
        "code = cli.main(sys.argv[1:])\n"
        "with open('/proc/self/status') as status:\n"
        "    [peak] = [line.split()[1] for line in status if line.startswith('VmHWM:')]\n"
        "print(code, peak, file=sys.stderr)\n"
    )
    argv = ["consist", amalgam, template, "--k", "2", "--l", "3", "--trace", os.devnull]
    proc = subprocess.run(
        [sys.executable, "-c", script, *argv],
        capture_output=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        timeout=300,
    )
    assert proc.stdout == b"inconsistent\n"
    code, peak_kib = map(int, proc.stderr.decode().split())
    assert code == 1
    assert peak_kib < 64 * 1024  # VmHWM is in kB


def test_output_bytes_do_not_depend_on_hash_seed(tmp_path):
    z2 = AbelianGroup([2])
    template = write_structure(tmp_path / "t2.json", build_template(z2))
    lineq4 = write_structure(
        tmp_path / "am4.json", diagram_lineq(4, z2).free_amalgam().amalgam
    )
    f3 = write_structure(tmp_path / "f3.json", gen_Fn(3))
    f3_amalgam = write_structure(tmp_path / "f3am.json", diagram_Fn(3).free_amalgam().amalgam)
    lineq2 = tmp_path / "l2.json"
    lineq2.write_text(cli.dump_canonical(cli.diagram_to_doc(diagram_lineq(2, z2))))
    commands = [
        ("consist", lineq4, template, "--k", "2", "--l", "3", "--trace", "-"),
        ("hom", "--from", f3, "--to", f3_amalgam, "--all"),
        ("hom", "--from", f3, "--to", f3_amalgam, "--kind", "embedding", "--all"),
        ("confuse", "--diagram", str(lineq2), "--class", "lineq:2,3,2", "--m", "2", "--jobs", "1"),
    ]
    for argv in commands:
        runs = [run_process(*argv, env={"PYTHONHASHSEED": seed}) for seed in ("1", "2")]
        assert runs[0].stdout and runs[0].stdout == runs[1].stdout, argv
        assert runs[0].returncode == runs[1].returncode, argv


def test_consist_exit_codes(tmp_path, capsys):
    template = tmp_path / "t2.json"
    run(capsys, "gen", "template", "--group", "2", "-o", str(template))
    solvable = tmp_path / "m0.json"
    run(capsys, "gen", "lineq", "--n", "4", "--group", "2", "-o", str(solvable))
    code, _ = run(capsys, "consist", str(solvable), str(template), "--k", "2", "--l", "3")
    assert code == 0

    amalgam_doc = cli.structure_to_doc(
        diagram_lineq(2, AbelianGroup([2])).free_amalgam().amalgam
    )
    amalgam = tmp_path / "am.json"
    amalgam.write_text(cli.dump_canonical(amalgam_doc))
    trace_out = tmp_path / "trace.json"
    code, _ = run(
        capsys,
        "consist", str(amalgam), str(template), "--k", "2", "--l", "3",
        "--trace", str(trace_out),
    )
    assert code == 1
    trace_doc = json.loads(trace_out.read_text())
    assert trace_doc["pebbles"] == [] and trace_doc["action"] == "extend"

    code, _ = run(capsys, "consist", str(solvable), str(template), "--k", "3", "--l", "2")
    assert code == 2


def test_confuse_fn_small(tmp_path, capsys):
    diagram = tmp_path / "d2.json"
    run(capsys, "gen", "fn", "--n", "2", "--diagram", "-o", str(diagram))
    code, text = run(
        capsys,
        "confuse", "--diagram", str(diagram), "--m", "2", "--class", "fn", "--jobs", "1",
    )
    assert code == 0
    report = json.loads(text)
    assert report["colorings_tested"] == 16 and report["verdict"] is True


def test_confuse_g_small(tmp_path, capsys):
    diagram = tmp_path / "g3.json"
    run(capsys, "gen", "g", "--shape", "((..).)", "--diagram", "-o", str(diagram))
    code, text = run(
        capsys,
        "confuse", "--diagram", str(diagram), "--m", "2", "--class", "g", "--jobs", "1",
    )
    assert code == 0
    report = json.loads(text)
    assert report["colorings_tested"] == 256 and report["verdict"] is True


def test_confuse_g_too_deep_exit_2(tmp_path, capsys):
    # the tree side has depth 5, beyond the tree members the class enumerates
    diagram = tmp_path / "g5.json"
    run(capsys, "gen", "g", "--shape", "(((((..).).).).)", "--diagram", "-o", str(diagram))
    code = cli.main(
        [
            "confuse", "--diagram", str(diagram), "--m", "2", "--mode", "sample",
            "--samples", "1", "--class", "g", "--jobs", "1",
        ]
    )
    err = capsys.readouterr().err
    assert code == 2
    assert len(err.splitlines()) == 1 and err.startswith("error:")
    assert "Traceback" not in err


def test_consist_trace_when_consistent(tmp_path, capsys):
    template = tmp_path / "t2.json"
    run(capsys, "gen", "template", "--group", "2", "-o", str(template))
    solvable = tmp_path / "m0.json"
    run(capsys, "gen", "lineq", "--n", "4", "--group", "2", "-o", str(solvable))
    trace_out = tmp_path / "trace.json"
    code, text = run(
        capsys,
        "consist", str(solvable), str(template), "--k", "2", "--l", "3",
        "--trace", str(trace_out),
    )
    assert code == 0 and text == "consistent\n"
    assert not trace_out.exists()


@pytest.mark.parametrize(
    "command, doc",
    [
        (
            "consist {bad} {good} --k 1 --l 1",
            {"signature": [{"name": "E", "arity": 2}], "domain": ["a"], "relations": []},
        ),
        (
            "confuse --diagram {bad} --m 2 --class fn --jobs 1",
            {**cli.diagram_to_doc(diagram_Fn(2)), "leftEmb": [["v1", "v1", "v2"]]},
        ),
        ("hom --from {bad} --to {good}", [cli.structure_to_doc(gen_Fn(2))]),
    ],
    ids=["list-relations", "list-leftEmb", "top-level-array"],
)
def test_malformed_document_exit_2(tmp_path, capsys, command, doc):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    good = tmp_path / "good.json"
    good.write_text(cli.dump_canonical(cli.structure_to_doc(gen_Fn(2))))
    code = cli.main([arg.format(bad=bad, good=good) for arg in command.split()])
    err = capsys.readouterr().err
    assert code == 2
    assert len(err.splitlines()) == 1 and err.startswith("error:")
    assert "Traceback" not in err


def assert_one_error_line(capsys, argv: list[str]) -> None:
    """The CLI, in this process, exits 2 with one ``error:`` line."""
    code = cli.main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert len(err.splitlines()) == 1 and err.startswith("error:")


SMALL_DOC = '{"signature": [{"name": "E", "arity": %s}], "domain": [%s], "relations": {}}'


def test_non_utf8_document_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes((SMALL_DOC % ("2", '"a"')).encode().replace(b'"a"', b'"a\xff"'))
    assert_one_error_line(capsys, ["export-dot", str(bad)])


def test_number_past_the_int_digit_limit_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(SMALL_DOC % ("1" * 5000, '"a"'))
    good = tmp_path / "good.json"
    good.write_text(cli.dump_canonical(cli.structure_to_doc(gen_Fn(2))))
    assert_one_error_line(capsys, ["hom", "--from", str(bad), "--to", str(good)])


def test_lone_surrogate_identifier_exit_2(tmp_path, capsys):
    # the escape decodes to a string that no UTF-8 writer can write
    bad, out = tmp_path / "bad.json", tmp_path / "out.dot"
    bad.write_text(SMALL_DOC % ("2", '"\\ud800"'))
    assert_one_error_line(capsys, ["export-dot", str(bad), "-o", str(out)])
    assert not out.exists()
    # a surrogate pair is one character, and is kept
    pair = tmp_path / "pair.json"
    pair.write_text(SMALL_DOC % ("2", '"\\ud83d\\ude00"'))
    assert cli.main(["export-dot", str(pair), "-o", str(out)]) == 0
    assert "\U0001f600" in out.read_text(encoding="utf-8")


def test_deeply_nested_shape_exit_2(capsys):
    # a valid left comb 3000 levels deep: (((..).)...)
    shape = "(" * 3000 + "." + ".)" * 3000
    code = cli.main(["gen", "g", "--shape", shape])
    err = capsys.readouterr().err
    assert code == 2
    assert len(err.splitlines()) == 1 and err.startswith("error:")


def test_deeply_nested_document_exit_2(tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000 + "]" * 200_000)
    code = cli.main(["export-dot", str(deep)])
    err = capsys.readouterr().err
    assert code == 2
    assert len(err.splitlines()) == 1 and err.startswith("error:")


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_confuse_rejects_nonpositive_jobs(tmp_path, capsys, jobs):
    diagram = tmp_path / "d2.json"
    run(capsys, "gen", "fn", "--n", "2", "--diagram", "-o", str(diagram))
    code = cli.main(
        ["confuse", "--diagram", str(diagram), "--m", "2", "--class", "fn", "--jobs", jobs]
    )
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "--jobs: must be at least 1" in captured.err


def test_confuse_lineq_failures_exit_1(tmp_path, capsys):
    diagram = tmp_path / "dl2.json"
    run(capsys, "gen", "lineq", "--n", "2", "--group", "2", "--diagram", "-o", str(diagram))
    code, text = run(
        capsys,
        "confuse", "--diagram", str(diagram), "--m", "2",
        "--class", "lineq:2,3,2", "--jobs", "1",
    )
    assert code == 1
    report = json.loads(text)
    assert len(report["failures"]) == 8


def test_confuse_budget_exit_2(tmp_path, capsys):
    diagram = tmp_path / "d3.json"
    run(capsys, "gen", "fn", "--n", "3", "--diagram", "-o", str(diagram))
    code, _ = run(
        capsys,
        "confuse", "--diagram", str(diagram), "--m", "3", "--class", "fn", "--jobs", "1",
    )
    assert code == 2


def test_confuse_exhaustive_refusal_is_one_error_line(tmp_path, capsys):
    # 3^3 = 27 spots: refused from the spot count, before any spot is built
    diagram = tmp_path / "d3.json"
    run(capsys, "gen", "fn", "--n", "3", "--diagram", "-o", str(diagram))
    code = cli.main(
        ["confuse", "--diagram", str(diagram), "--m", "3", "--class", "fn", "--jobs", "1"]
    )
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error:")


def test_confuse_sample_deterministic(tmp_path, capsys):
    diagram = tmp_path / "d3.json"
    run(capsys, "gen", "fn", "--n", "3", "--diagram", "-o", str(diagram))
    outputs = []
    for _ in range(2):
        code, text = run(
            capsys,
            "confuse", "--diagram", str(diagram), "--m", "2", "--mode", "sample",
            "--samples", "10", "--seed", "7", "--class", "fn", "--jobs", "1",
        )
        assert code == 0
        outputs.append(text)
    assert outputs[0] == outputs[1]


def test_bounds_command(capsys):
    code, text = run(capsys, "bounds", "--n", "2", "--r", "1", "--t", "1", "--find-m")
    assert code == 0
    doc = json.loads(text)
    assert doc["minimal_m"] == "12"
    assert doc["report"]["q"] == "8" and doc["report"]["p"] == 3

    code, text = run(capsys, "bounds", "--n", "2", "--r", "1", "--t", "1", "--m", "11")
    assert code == 0
    assert json.loads(text)["verdict"] is False

    code, text = run(capsys, "bounds", "--n", "1", "--r", "1", "--t", "0", "--m", "3")
    assert code == 0
    assert json.loads(text)["verdict"] is False

    code, _ = run(capsys, "bounds", "--n", "1", "--r", "2", "--t", "0", "--m", "3")
    assert code == 2


def test_export_dot(tmp_path, capsys):
    empty = tmp_path / "empty.json"
    empty.write_text(
        cli.dump_canonical(cli.structure_to_doc(Structure(Signature([("E", 2)]), [], {})))
    )
    code, text = run(capsys, "export-dot", str(empty))
    assert code == 0
    assert "->" not in text

    f3 = tmp_path / "f3.json"
    run(capsys, "gen", "fn", "--n", "3", "-o", str(f3))
    code, text = run(capsys, "export-dot", str(f3), "--symmetric", "E")
    assert code == 0
    undirected = [line for line in text.splitlines() if "dir=none" in line]
    directed = [line for line in text.splitlines() if '"Ed"' in line]
    assert len(undirected) == 6 and len(directed) == 2

    t2 = tmp_path / "t2.json"
    run(capsys, "gen", "template", "--group", "2", "-o", str(t2))
    code, text = run(capsys, "export-dot", str(t2))
    projections = [line for line in text.splitlines() if '"pi' in line]
    assert len(projections) == 12


def test_export_dot_factor_nodes(tmp_path, capsys):
    ternary = Structure(
        Signature([("W", 3)]), ["a", "b", "c"], {"W": [("a", "b", "c")]}
    )
    path = tmp_path / "ternary.json"
    path.write_text(cli.dump_canonical(cli.structure_to_doc(ternary)))
    code, text = run(capsys, "export-dot", str(path))
    assert code == 0
    assert 'label="1"' in text and 'label="3"' in text
    assert '"W#0"' in text


def _quotes_balanced(line: str) -> bool:
    """Every DOT quoted string on the line closes: escapes drop out first."""
    return line.replace("\\\\", "").replace('\\"', "").count('"') % 2 == 0


def test_export_dot_escapes_quotes_and_backslashes(tmp_path, capsys):
    odd = Structure(
        Signature([("E", 2), ('Q"', 1), ("R\\", 2), ("W", 3)]),
        ['a"b', "c\\d", "e\\"],
        {
            "E": [('a"b', "c\\d")],
            'Q"': [("e\\",)],
            "R\\": [("c\\d", "e\\")],
            "W": [('a"b', "c\\d", "e\\")],
        },
    )
    path = tmp_path / "odd.json"
    path.write_text(cli.dump_canonical(cli.structure_to_doc(odd)))
    code, text = run(capsys, "export-dot", str(path), "--symmetric", "E")
    assert code == 0
    lines = text.splitlines()
    assert lines == [
        "digraph structure {",
        '  "a\\"b" [label="a\\"b"];',
        '  "c\\\\d" [label="c\\\\d"];',
        '  "e\\\\" [label="e\\\\\\nQ\\""];',
        '  "a\\"b" -> "c\\\\d" [label="E", dir=none];',
        '  "c\\\\d" -> "e\\\\" [label="R\\\\"];',
        '  "W#0" [shape=point, label="W"];',
        '  "W#0" -> "a\\"b" [label="1"];',
        '  "W#0" -> "c\\\\d" [label="2"];',
        '  "W#0" -> "e\\\\" [label="3"];',
        "}",
    ]
    assert all(_quotes_balanced(line) for line in lines)


def test_same_inputs_same_bytes(tmp_path, capsys):
    first = run(capsys, "gen", "g", "--shape", "((..)(..))")[1]
    second = run(capsys, "gen", "g", "--shape", "((..)(..))")[1]
    assert first == second


_DELETE = object()
# Keys whose removal always invalidates a document ("relations" may be absent).
REQUIRED_KEYS = {
    "signature", "domain", "name", "arity", "base", "left", "right", "leftEmb", "rightEmb"
}
FLOATS = st.floats(allow_nan=False, allow_infinity=False)
SCALARS = st.one_of(st.integers(), FLOATS, st.none())


def _paths(doc, path=()):
    yield path
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _paths(value, path + (key,))
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from _paths(value, path + (i,))


def _wrong_type(value) -> st.SearchStrategy:
    """Replacements that no document accepts in place of ``value``.

    Identifiers and names must be strings, arities non-boolean integers, and
    containers must stay containers; booleans are left out since ``True``
    passes as arity 1.
    """
    containers = st.one_of(
        st.lists(st.text(max_size=3), max_size=2),
        st.dictionaries(st.text(max_size=3), st.text(max_size=3), max_size=2),
    )
    if isinstance(value, str):
        return st.one_of(SCALARS, containers)
    if isinstance(value, int):
        return st.one_of(FLOATS, st.none(), st.text(max_size=3), containers)
    return SCALARS


def mutations(doc) -> st.SearchStrategy:
    """Mutated copies of ``doc``: one node of a wrong type, or one required key gone."""
    paths = list(_paths(doc))

    def replace(path, new):
        if not path:
            return new
        copy = json.loads(json.dumps(doc))
        node = copy
        for step in path[:-1]:
            node = node[step]
        if new is _DELETE:
            del node[path[-1]]
        else:
            node[path[-1]] = new
        return copy

    def node_at(path):
        node = doc
        for step in path:
            node = node[step]
        return node

    deletable = [p for p in paths if p and p[-1] in REQUIRED_KEYS]
    retyped = st.sampled_from(paths).flatmap(
        lambda path: _wrong_type(node_at(path)).map(lambda new: replace(path, new))
    )
    deleted = st.sampled_from(deletable).map(lambda path: replace(path, _DELETE))
    return st.one_of(retyped, deleted)


STRUCTURE_DOC = cli.structure_to_doc(gen_Fn(2))
DIAGRAM_DOC = cli.diagram_to_doc(diagram_Fn(2))
FUZZ_COMMANDS = {
    "hom-from": (STRUCTURE_DOC, "hom --from {bad} --to {good}"),
    "hom-to": (STRUCTURE_DOC, "hom --from {good} --to {bad}"),
    "consist": (STRUCTURE_DOC, "consist {bad} {good} --k 1 --l 2"),
    "export-dot": (STRUCTURE_DOC, "export-dot {bad} -o {out}"),
    "confuse": (DIAGRAM_DOC, "confuse --diagram {bad} --m 2 --class fn --jobs 1"),
}


@pytest.mark.parametrize("command", sorted(FUZZ_COMMANDS))
def test_cli_fuzz_mutated_documents(tmp_path_factory, command):
    doc, template = FUZZ_COMMANDS[command]
    work = tmp_path_factory.mktemp(command)
    good = work / "good.json"
    good.write_text(cli.dump_canonical(STRUCTURE_DOC))
    argv = template.format(bad=work / "bad.json", good=good, out=work / "out.dot").split()

    @settings(derandomize=True, database=None, max_examples=150, deadline=None)
    @given(mutations(doc))
    def check(mutated):
        (work / "bad.json").write_text(json.dumps(mutated))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        assert code == 2, (mutated, err.getvalue())
        assert len(err.getvalue().splitlines()) == 1 and err.getvalue().startswith("error:")
        assert "Traceback" not in err.getvalue() and out.getvalue() == ""

    check()
