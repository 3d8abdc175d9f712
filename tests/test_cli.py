"""CLI: subcommands, piping, exit codes, report schema."""

import io
import json
import subprocess
import sys
import time

from posurf import SimplicialComplex, annulus, classify_both, read_facets, sphere, write_facets
from posurf.cli import main


def run_cli(argv, stdin_text="", monkeypatch=None, capsys=None):
    if monkeypatch is not None:
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin_text))
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def test_gen_to_file_then_classify(tmp_path, capsys, monkeypatch):
    target = tmp_path / "s2.facets"
    code, out, _ = run_cli(["gen", "sphere", "2", "-o", str(target)], capsys=capsys)
    assert code == 0 and out == ""
    code, out, _ = run_cli(["classify", str(target), "--mode", "both"], capsys=capsys)
    assert code == 0
    assert "surface: yes" in out and "path: both" in out


def test_gen_classify_pipe_equivalent(capsys, monkeypatch):
    code, facets_text, _ = run_cli(["gen", "sphere", "2"], capsys=capsys)
    assert code == 0
    code, out, _ = run_cli(
        ["classify", "-", "--mode", "both", "--json"],
        stdin_text=facets_text,
        monkeypatch=monkeypatch,
        capsys=capsys,
    )
    assert code == 0
    report = json.loads(out)
    # piped round-trip equals in-process classification
    in_process = classify_both(read_facets(facets_text))
    assert report["classification"]["rank"] == in_process.rank
    assert report["classification"]["is_surface"] == in_process.is_surface
    assert report["classification"]["category"] == in_process.category
    assert report["instance"]["total_faces"] == 14
    assert report["instance"]["faces_by_rank"] == {"0": 4, "1": 6, "2": 4}


def test_json_schema_stable(capsys, monkeypatch):
    code, out, _ = run_cli(
        ["classify", "--json"],
        stdin_text=write_facets(sphere(1)),
        monkeypatch=monkeypatch,
        capsys=capsys,
    )
    assert code == 0
    report = json.loads(out)
    assert set(report) == {"command", "input", "format", "mode", "instance", "classification"}
    assert set(report["classification"]) == {
        "rank",
        "is_surface",
        "is_pcm",
        "is_smooth_pcm",
        "is_pseudomanifold",
        "is_normal_pseudomanifold",
        "border_empty",
        "category",
        "path",
        "timings_ms",
    }


def test_classify_empty_input(capsys, monkeypatch):
    code, out, _ = run_cli(
        ["classify"], stdin_text="", monkeypatch=monkeypatch, capsys=capsys
    )
    assert code == 0
    assert "rank: -1" in out
    assert "surface: yes" in out
    assert "pcm: yes" in out


def test_classify_text_report(capsys, monkeypatch):
    code, out, _ = run_cli(
        ["classify"], stdin_text=write_facets(annulus(6)), monkeypatch=monkeypatch, capsys=capsys
    )
    assert code == 0
    assert out == (
        "instance: 48 faces, by rank {'0': 12, '1': 24, '2': 12}\n"
        "rank: 2\n"
        "surface: no\n"
        "pcm: yes\n"
        "smooth pcm: yes\n"
        "pseudomanifold: yes\n"
        "normal pseudomanifold: yes\n"
        "border empty: no\n"
        "category: pcm\n"
        "path: fast\n"
    )


def test_classify_pinched_sphere(capsys, monkeypatch):
    code, gen_out, _ = run_cli(["gen", "pinched-sphere"], capsys=capsys)
    code, out, _ = run_cli(
        ["classify"], stdin_text=gen_out, monkeypatch=monkeypatch, capsys=capsys
    )
    assert code == 0
    assert "pseudomanifold: yes" in out
    assert "normal pseudomanifold: no" in out


def test_classify_hasse_poset(capsys, monkeypatch):
    code, gen_out, _ = run_cli(["gen", "khalimsky", "2", "2"], capsys=capsys)
    assert code == 0
    code, out, _ = run_cli(
        ["classify", "--format", "hasse"],
        stdin_text=gen_out,
        monkeypatch=monkeypatch,
        capsys=capsys,
    )
    assert code == 0
    assert "pcm: yes" in out
    assert "pseudomanifold: not evaluated" in out


def test_fast_mode_on_hasse_is_refused(capsys, monkeypatch):
    code, gen_out, _ = run_cli(["gen", "khalimsky", "1", "1"], capsys=capsys)
    code, _, err = run_cli(
        ["classify", "--format", "hasse", "--mode", "fast"],
        stdin_text=gen_out,
        monkeypatch=monkeypatch,
        capsys=capsys,
    )
    assert code == 1
    assert "error" in err


def test_gen_khalimsky_facets_refused(capsys):
    code, _, err = run_cli(["gen", "khalimsky", "2", "2", "--format", "facets"], capsys=capsys)
    assert code == 1
    assert "hasse" in err


def test_border_command(capsys, monkeypatch):
    code, gen_out, _ = run_cli(["gen", "disk", "6"], capsys=capsys)
    code, out, _ = run_cli(
        ["border"], stdin_text=gen_out, monkeypatch=monkeypatch, capsys=capsys
    )
    assert code == 0
    assert "# border: 12 of 25 faces, 1 component(s)" in out
    assert "component 0: 12 faces, 1-surface" in out
    assert "rank 1" in out  # the emitted border poset


def test_border_empty_poset_is_domain_error(capsys, monkeypatch):
    code, _, err = run_cli(
        ["border"], stdin_text="", monkeypatch=monkeypatch, capsys=capsys
    )
    assert code == 1
    assert "undefined" in err


def test_check_flags(capsys, monkeypatch):
    text = write_facets(sphere(2))
    for flag, expect in [
        ("--surface", "surface: yes (rank 2)"),
        ("--pcm", "pcm: no"),
        ("--smooth", "smooth pcm: no"),
        ("--pseudomanifold", "pseudomanifold: yes"),
        ("--normal", "normal pseudomanifold: yes"),
    ]:
        code, out, _ = run_cli(
            ["check", flag], stdin_text=text, monkeypatch=monkeypatch, capsys=capsys
        )
        assert code == 0
        assert expect in out


def test_check_pm_on_hasse_refused(capsys, monkeypatch):
    code, gen_out, _ = run_cli(["gen", "khalimsky", "1", "1"], capsys=capsys)
    code, _, err = run_cli(
        ["check", "--normal", "--format", "hasse"],
        stdin_text=gen_out,
        monkeypatch=monkeypatch,
        capsys=capsys,
    )
    assert code == 1


def test_parse_error_reports_line(tmp_path, capsys):
    bad = tmp_path / "bad.facets"
    bad.write_text("1 2 3\n4 x\n")
    code, _, err = run_cli(["classify", str(bad)], capsys=capsys)
    assert code == 1
    assert "line 2" in err


def test_unreadable_input_exits_1(tmp_path, capsys):
    code, out, err = run_cli(["classify", str(tmp_path)], capsys=capsys)
    assert code == 1 and out == "" and err.startswith("posurf: error:")
    latin1 = tmp_path / "latin1.facets"
    latin1.write_bytes(b"# caf\xe9\n1 2 3\n")
    code, out, err = run_cli(["classify", str(latin1)], capsys=capsys)
    assert code == 1 and out == "" and "is not UTF-8 text" in err


def test_recursive_mode_refuses_an_oversized_face_poset(capsys, monkeypatch):
    # annulus 8000 has 64,000 faces; its face poset's bitmasks would take
    # about 850 MB, so the recursive path fails before building them
    code, _, err = run_cli(
        ["classify", "--mode", "recursive", "-"],
        stdin_text=write_facets(annulus(8000)),
        monkeypatch=monkeypatch,
        capsys=capsys,
    )
    assert code == 1
    assert "64000 faces is above the limit" in err


def test_recursive_mode_refuses_a_poset_too_deep_for_the_recursion(capsys, monkeypatch):
    # a 600-face chain has rank 599; the recursion would nest past Python's
    # frame limit, so it is refused with one line instead of a RecursionError
    chain = "".join(f"f {i} : {i - 1 if i else ''}\n" for i in range(600))
    code, out, err = run_cli(
        ["classify", "--format", "hasse", "--mode", "recursive", "-"],
        stdin_text=chain,
        monkeypatch=monkeypatch,
        capsys=capsys,
    )
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and err.startswith("posurf: error:")
    assert "rank 599 would nest the recursion 599 views deep" in err


def test_usage_errors_exit_1(capsys):
    assert run_cli(["bogus"], capsys=capsys)[0] == 1
    assert run_cli(["classify", "--mode", "sideways"], capsys=capsys)[0] == 1
    assert run_cli([], capsys=capsys)[0] == 1


def test_gen_deterministic(capsys):
    a = run_cli(["gen", "random-pure", "2", "8", "6", "42"], capsys=capsys)[1]
    b = run_cli(["gen", "random-pure", "2", "8", "6", "42"], capsys=capsys)[1]
    c = run_cli(["gen", "random-pure", "2", "8", "6", "--seed", "42"], capsys=capsys)[1]
    assert a == b == c


def test_gen_random_pure_fails_fast_or_draws_fast(capsys):
    # 100,000 triangles are over the face budget: refused before drawing
    start = time.perf_counter()
    code, out, err = run_cli(["gen", "random-pure", "2", "100000", "100000"], capsys=capsys)
    assert code == 1 and out == "" and "above the limit of" in err
    # a full pool of 8 vertices holds C(8, 3) = 56 triangles, and the draw
    # stops there; a huge pool is never scanned
    code, out, _ = run_cli(["gen", "random-pure", "2", "8", "1000000"], capsys=capsys)
    assert code == 0 and len(out.splitlines()) == 56
    code, out, _ = run_cli(["gen", "random-pure", "2", "1000000000", "3"], capsys=capsys)
    assert code == 0 and len(out.splitlines()) == 3
    # one facet of 20,001 or 1,000,001 vertices is over the budget alone:
    # refused before the pool's C(vertices, dim + 1) is counted
    for argv in (["20000", "20002", "1"], ["1000000", "2000000", "1"]):
        code, out, err = run_cli(["gen", "random-pure", *argv], capsys=capsys)
        assert code == 1 and out == "" and "above the limit of" in err
    assert time.perf_counter() - start < 1


def test_memo_disable_env_var(capsys, monkeypatch):
    text = write_facets(sphere(2))
    monkeypatch.setenv("POSURF_DISABLE_MEMO", "1")
    code, out_nomemo, _ = run_cli(
        ["classify", "--mode", "both"], stdin_text=text, monkeypatch=monkeypatch, capsys=capsys
    )
    assert code == 0
    monkeypatch.delenv("POSURF_DISABLE_MEMO")
    code, out_memo, _ = run_cli(
        ["classify", "--mode", "both"], stdin_text=text, monkeypatch=monkeypatch, capsys=capsys
    )
    assert code == 0
    assert out_nomemo == out_memo


def test_classify_counts_faces_without_the_face_poset(capsys, monkeypatch):
    def refuse(self):
        raise AssertionError("face poset built")

    monkeypatch.setattr(SimplicialComplex, "face_poset", refuse)
    code, out, _ = run_cli(
        ["classify", "--json"], stdin_text=write_facets(sphere(2)), monkeypatch=monkeypatch,
        capsys=capsys,
    )
    assert code == 0
    instance = json.loads(out)["instance"]
    assert instance == {"total_faces": 14, "faces_by_rank": {"0": 4, "1": 6, "2": 4}}


def test_bench_small(capsys):
    code, out, _ = run_cli(
        ["bench", "--max-sphere", "2", "--random", "4"], capsys=capsys
    )
    assert code == 0
    assert "speedup" in out and "instance mix:" in out


def test_bench_json_schema(capsys):
    code, out, _ = run_cli(
        ["bench", "--max-sphere", "1", "--random", "3", "--json"], capsys=capsys
    )
    assert code == 0
    report = json.loads(out)
    assert set(report) == {"command", "rows", "category_counts"}
    assert report["command"] == "bench"
    rows = report["rows"]
    assert [r["instance"] for r in rows[-5:]] == [
        "sphere 0",
        "sphere 1",
        "random-pure d1 #0",
        "random-pure d2 #1",
        "random-pure d3 #2",
    ]
    for row in rows:
        assert set(row) == {"instance", "faces", "category", "fast_ms", "recursive_ms", "speedup"}
        assert isinstance(row["faces"], int) and row["faces"] >= 0
        assert row["category"] in ("empty", "surface", "pcm", "neither")
        for key in ("fast_ms", "recursive_ms", "speedup"):
            assert isinstance(row[key], (int, float)) and row[key] >= 0
    counts: dict[str, int] = {}
    for row in rows:
        counts[row["category"]] = counts.get(row["category"], 0) + 1
    assert report["category_counts"] == dict(sorted(counts.items()))
    assert list(report["category_counts"]) == sorted(report["category_counts"])


def test_real_pipe_subprocess():
    # one true end-to-end pipe through the OS
    cmd = (
        f"{sys.executable} -m posurf gen sphere 2 | "
        f"{sys.executable} -m posurf classify --mode both"
    )
    proc = subprocess.run(
        cmd, shell=True, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert "surface: yes" in proc.stdout
