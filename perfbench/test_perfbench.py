"""Self-tests of the benchmark (not of the engine).

    python3 -m pytest perfbench/test_perfbench.py -q

from the repository root.  Smoke runs use tiny inputs (``--scale``) and
a one-second window, so they test plumbing, not speed: every named
metric is printed with its unit, and a deliberately corrupted result
fails each workload's correctness check.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, ROOT)

from measure import CheckFailed, same_ranking, spread, tail  # noqa: E402

WORKLOADS = ["bulk", "search", "churn"]
SCALE = "0.05"


def _bench() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def _run(workload: str, seed: int = 1, trace: int = 0, *extra: str):
    cmd = [sys.executable, os.path.join(HERE, "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", "1",
           "--trace", str(trace), "--scale", SCALE, *extra]
    return subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=300)


def _result(p) -> dict:
    assert p.returncode == 0, p.stderr[-2000:]
    res = json.loads(p.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["attempted"] >= 1
    return res


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_prints_every_metric_with_unit(workload, trace):
    want = _bench()["per_layer" if trace else "end_to_end"]
    res = _result(_run(workload, 1, trace))
    got = {n: m["unit"] for n, m in res["metrics"].items()}
    assert got == {m["name"]: m["unit"] for m in want}
    for m in res["metrics"].values():
        assert isinstance(m["value"], float)
    if not trace:
        assert all(m["value"] > 0 for m in res["metrics"].values())


def test_second_seed_same_metric_names():
    a = _result(_run("bulk", 1))
    b = _result(_run("bulk", 2))
    assert set(a["metrics"]) == set(b["metrics"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_corrupted_result_fails_the_run(workload):
    p = _run(workload, 1, 0, "--corrupt")
    assert p.returncode != 0
    assert "CheckFailed" in p.stderr
    assert '"correct"' not in p.stdout


def test_seed_changes_inputs(tmp_path):
    from workloads import Search
    a = Search(str(tmp_path / "a"), 1, float(SCALE))
    b = Search(str(tmp_path / "b"), 2, float(SCALE))
    os.makedirs(a.tmp)
    os.makedirs(b.tmp)
    a.make_inputs()
    b.make_inputs()
    assert a.texts() != b.texts()
    assert a.stream != b.stream
    again = Search(str(tmp_path / "c"), 1, float(SCALE))
    os.makedirs(again.tmp)
    again.make_inputs()
    assert again.texts() == a.texts() and again.stream == a.stream


def test_same_ranking_rejects_wrong_score_and_wrong_doc():
    want = [(1, 2.5), (2, 1.25)]
    scores = {1: 2.5, 2: 1.25, 3: 1.25}
    same_ranking(list(want), want, scores, "ok")
    same_ranking([(1, 2.5), (3, 1.25)], want, scores, "tie swap")
    with pytest.raises(CheckFailed):
        same_ranking([(1, 2.5), (2, 1.2501)], want, scores, "score")
    with pytest.raises(CheckFailed):
        same_ranking([(1, 2.5), (4, 1.25)], want, scores, "doc")
    with pytest.raises(CheckFailed):
        same_ranking([(1, 2.5)], want, scores, "length")


def test_tail_needs_ten_samples_beyond():
    assert tail(list(range(1000)))[0] == 0.99
    q, _ = tail(list(range(100)))
    assert q == pytest.approx(0.9)
    assert tail(list(range(10)))[0] == 0.5


def test_spread_matches_statistics_quantiles():
    s = spread([1.0, 2.0, 3.0, 4.0, 5.0])
    assert s["median"] == 3.0
    assert s["spread"] == pytest.approx((s["q3"] - s["q1"]) / 3.0)


def test_without_engine_exits_nonzero(tmp_path):
    """A directory holding only BENCHMARK.json and the benchmark fails
    fast and prints no result."""
    import shutil
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    p = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                        "bulk", "--seed", "1", "--seconds", "1",
                        "--trace", "0"], cwd=tmp_path, stdout=subprocess.PIPE,
                       stderr=subprocess.PIPE, text=True, timeout=180,
                       env={k: v for k, v in os.environ.items()
                            if k != "PYTHONPATH"})
    assert p.returncode != 0
    assert '"correct"' not in p.stdout
