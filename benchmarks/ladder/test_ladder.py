"""Self-test of the ladder benchmark.

Run explicitly (it is outside tier-1's ``tests/`` path and takes about two
minutes)::

    python -m pytest benchmarks/ladder/test_ladder.py -q
"""

import json
import os
import re
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, HERE)

import instrument  # noqa: E402  (pure Python: does not import the library)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
WORKLOADS = ["ite_j1j2", "rqc_evolve", "norm_bmps", "norm_ibmps", "sample_ctm",
             "norm_dist", "sweep_shell"]


def contract():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def ladder(*arguments, cwd=ROOT):
    document = contract()
    return subprocess.run(
        document["command"] + [str(a) for a in arguments],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def result_of(done):
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_benchmark_json_schema():
    document = contract()
    assert set(document) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert document["paths"] == ["benchmarks/ladder"]
    assert isinstance(document["run_seconds"], int) and 1 <= document["run_seconds"] <= 60
    assert [w["name"] for w in document["workloads"]] == WORKLOADS
    names = []
    for workload in document["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
        names.append(workload["name"])
    for metric in document["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 <= metric["bound"] <= 0.25
        names.append(metric["name"])
    for metric in document["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
        names.append(metric["name"])
    for metric in document["end_to_end"] + document["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    assert all(NAME.match(name) for name in names)
    assert len(names) == len(set(names)), "a name is used twice"
    setup = [m for m in document["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in document["end_to_end"])
    # 4 + 22 runs per workload, each the measuring time plus set-up, warm-up
    # and oracle (about 5 s here), must fit the driver's 3420 s.
    runs = 4 + 22 * len(document["workloads"])
    assert runs * (document["run_seconds"] + 5) <= 3420


def test_smoke_pass_of_every_workload_is_marked_not_for_claims():
    document = contract()
    expected = {metric["name"] for metric in document["end_to_end"]}
    begin = time.monotonic()
    for name in WORKLOADS:
        done = ladder("--workload", name, "--seed", 11, "--seconds", 1, "--trace", 0)
        result = result_of(done)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert isinstance(result["attempted"], int) and result["attempted"] >= 1
        assert set(result["metrics"]) == expected
        assert all(entry["value"] > 0 for entry in result["metrics"].values())
        assert "NOT FOR CLAIMS" in done.stdout
    assert time.monotonic() - begin < 60
    assert not [e for e in os.listdir(ROOT) if e.startswith(".ladder-")], "work files left"


@pytest.mark.parametrize("name", ["norm_bmps", "sweep_shell"])
def test_counts_repeat_exactly_and_trace_declares_every_layer_metric(name):
    document = contract()
    expected = {metric["name"] for metric in document["per_layer"]}
    counts = [metric["name"] for metric in document["per_layer"] if metric["unit"] == "count"]
    first, second = (
        result_of(ladder("--workload", name, "--seed", 5, "--seconds", 1, "--trace", 1))
        for _ in range(2)
    )
    assert set(first["metrics"]) == expected
    for metric in counts + ["oracle.rel_err", "backends.einsum_flops"]:
        assert first["metrics"][metric] == second["metrics"][metric], metric
    flops = [
        result_of(ladder("--workload", name, "--seed", 5, "--seconds", 1, "--trace", 0))
        ["metrics"]["flops"]["value"]
        for _ in range(2)
    ]
    assert flops[0] == flops[1]


def test_another_seed_gives_other_inputs_and_still_passes():
    values = [
        result_of(ladder("--workload", "norm_dist", "--seed", seed, "--seconds", 1, "--trace", 1))
        ["metrics"]["oracle.rel_err"]["value"]
        for seed in (1, 2)
    ]
    assert values[0] != values[1]


def test_fails_without_the_library(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "ladder",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = ladder("--workload", "norm_bmps", "--seed", 1, "--seconds", 1, "--trace", 0,
                  cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""


def test_self_time_is_span_minus_children_and_nested_names_count_once():
    # outer(0..10) > inner(1..4) > outer(2..3); outer(0..10) > leaf(5..9)
    spans = [
        ["outer", 0.0, 10.0, -1, None],
        ["inner", 1.0, 4.0, 0, None],
        ["outer", 2.0, 3.0, 1, None],
        ["leaf", 5.0, 9.0, 0, 7],
    ]
    table = instrument.summarize(spans)
    assert table["outer"] == {"calls": 2, "inclusive_s": 10.0, "self_s": 3.0 + 1.0, "note": 0.0}
    assert table["inner"]["inclusive_s"] == 3.0 and table["inner"]["self_s"] == 2.0
    assert table["leaf"]["note"] == 7
    assert sum(row["self_s"] for row in table.values()) == 10.0
