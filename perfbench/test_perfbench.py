"""Tests of the benchmark itself. Run from the root of a checkout:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys

import pytest

import run
import workloads
from tracing import COUNTS, PER_LAYER_UNITS


@pytest.fixture(scope="module")
def ps():
    sys.path.insert(0, str(run.ROOT / "src"))
    return run.import_fresh()


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def test_benchmark_json_matches_the_code():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.MODES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER_UNITS


def test_same_seed_same_texts_other_seed_other_texts(ps):
    for workload in ("fast-large", "recursive"):
        first = workloads.build(workload, 5, ps)
        assert first == workloads.build(workload, 5, ps)
        assert [r.text for r in first] != [r.text for r in workloads.build(workload, 6, ps)]


@pytest.mark.parametrize("workload", ["recursive", "fast-large"])
def test_counts_repeat_exactly_across_two_runs_of_one_seed(workload):
    cmd = [sys.executable, str(run.ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "0", "--trace", "1"]
    runs = [subprocess.run(cmd, capture_output=True, text=True, timeout=170) for _ in range(2)]
    results = [last_json(proc.stdout) for proc in runs]
    assert all(proc.returncode == 0 for proc in runs)
    exact = [*COUNTS, "classify.fallback_frac"]
    first, second = ({name: r["metrics"][name]["value"] for name in exact} for r in results)
    assert first == second
    assert first["simplicial.link.calls"] > 0
    assert first["simplicial.face_poset.calls"] > 0
    assert first["surfaces.memo_entries"] > 0
    if workload == "fast-large":
        # pinched-box is the only family whose condition (C) fails
        assert first["classify.fallback_frac"] == pytest.approx(4 / 16)
    else:
        assert first["border.pcm_memo_entries"] > 0


def test_wrong_verdict_and_raising_request_count_as_failed(ps):
    cheap = {"sphere 3", "annulus 6", "pinched-sphere", "pinched-box 5", "khalimsky 10 10"}
    requests = [r for r in workloads.build("recursive", 1, ps) if r.name in cheap]
    wrong = next(i for i, r in enumerate(requests) if r.expected == ("surface", False))
    requests[wrong] = dataclasses.replace(requests[wrong], expected=("neither", False))
    requests.append(workloads.Request("unparsable", "facets", "1 x\n", ("surface", False)))
    loop = run.run_loop(ps, requests, "recursive", 0)
    failed = run.failures(loop, run.expected_verdicts(ps, requests), requests)
    assert sum(loop.outcomes.values()) == len(requests)
    assert list(failed.values()) == [1, 1]
    first, second = failed
    assert first.startswith(requests[wrong].name)
    assert "ParseError" in second


def test_a_wrong_verdict_fails_the_command(ps, monkeypatch, capsys):
    monkeypatch.setitem(workloads.KNOWN, "sphere", ("pcm", True))
    assert run.main(["--workload", "recursive", "--seconds", "0"]) == 1
    result = last_json(capsys.readouterr().out)
    assert result["correct"] is False
    assert result["failed"] == 3  # sphere 3, 4 and 5, one pass
    assert set(result["metrics"]) == set(run.END_TO_END)


def test_fails_without_the_library_sources(tmp_path):
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench")
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "recursive", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout
