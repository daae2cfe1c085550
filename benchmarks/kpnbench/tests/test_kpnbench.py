"""Self-tests of the benchmark harness.

Run explicitly; they are outside tier-1's ``testpaths``::

    PYTHONPATH=src:benchmarks python -m pytest benchmarks/kpnbench/tests -q
"""

from __future__ import annotations

import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
PACKAGE = os.path.dirname(HERE)
REPO = os.path.dirname(os.path.dirname(PACKAGE))
sys.path.insert(0, os.path.dirname(PACKAGE))
sys.path.insert(0, os.path.join(REPO, "src"))

from kpnbench import cli, host, runner, spans, workloads  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]*$")


def bench(*args, cwd=REPO, timeout=170):
    """Run the benchmark's command the way BENCHMARK.json names it."""
    with open(os.path.join(REPO, "BENCHMARK.json")) as fh:
        command = json.load(fh)["command"]
    return subprocess.run([*command, *args], cwd=cwd, capture_output=True,
                          text=True, timeout=timeout)


def last_json(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def contract():
    with open(os.path.join(REPO, "BENCHMARK.json")) as fh:
        return json.load(fh)


# -- the contract file and the code agree ----------------------------------

def test_contract_names_match_the_code(contract):
    gated = [w["name"] for w in contract["workloads"]]
    assert gated == list(workloads.WORKLOADS)[:len(gated)]
    declared = {m["name"]: m["unit"] for m in contract["end_to_end"]}
    assert declared == {k: u for k, (u, _) in runner.END_TO_END.items()}
    for m in contract["end_to_end"]:
        assert m["better"] == runner.END_TO_END[m["name"]][1]
        assert 0 < m["bound"] <= 0.25
    layer = {m["name"]: m["unit"] for m in contract["per_layer"]}
    assert layer == cli.PER_LAYER_UNITS
    names = [*declared, *layer, *workloads.WORKLOADS]
    assert all(NAME.match(n) and len(n) <= 64 for n in names)
    assert len(set(names)) == len(names)
    assert all(len(w["why"]) <= 200 for w in contract["workloads"])
    assert any(m["name"] == "setup_s" and m["unit"] == "s"
               and m["better"] == "lower" for m in contract["end_to_end"])


# -- smoke: every workload, every metric, nothing fails ---------------------

def test_smoke_reports_every_workload_and_metric():
    t0 = time.monotonic()
    proc = bench("--smoke", "--seed", "5")
    elapsed = time.monotonic() - t0
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert elapsed < 20.0, f"--smoke took {elapsed:.1f}s"
    doc = last_json(proc)
    assert doc["correct"] is True and doc["failed"] == 0
    assert doc["attempted"] >= 1
    for name in workloads.WORKLOADS:
        for key, (unit, _) in runner.END_TO_END.items():
            metric = doc["metrics"][f"{name}.{key}"]
            assert metric["unit"] == unit and metric["value"] > 0
        assert f"{name}/failed_share" in proc.stdout
    for key in doc["metrics"]:
        assert NAME.match(key), key
    assert "not_measurable" in proc.stdout or len(host.cpus()) >= 4


def test_contract_form_prints_exactly_the_end_to_end_metrics(contract):
    proc = bench("--workload", "chain_fused", "--seed", "9", "--seconds", "1",
                 "--trace", "0")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    doc = last_json(proc)
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] is True and doc["failed"] == 0
    assert set(doc["metrics"]) == {m["name"] for m in contract["end_to_end"]}
    for m in contract["end_to_end"]:
        assert doc["metrics"][m["name"]]["unit"] == m["unit"]
        assert doc["metrics"][m["name"]]["value"] > 0


def test_traced_smoke_writes_spans_and_every_layer_metric(contract):
    proc = bench("--workload", "wordcount_link", "--smoke", "--trace", "1")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    doc = last_json(proc)
    assert doc["failed"] == 0
    assert set(doc["metrics"]) == {m["name"] for m in contract["per_layer"]}
    for m in contract["per_layer"]:
        assert doc["metrics"][m["name"]]["unit"] == m["unit"]
    with open(cli.TRACE_FILE) as fh:
        trace = json.load(fh)
    by_id = {s["id"]: s for s in trace["spans"]}
    assert len(by_id) == len(trace["spans"])
    for span in trace["spans"]:
        assert span["parent"] is None or span["parent"] in by_id
        assert span["self_s"] >= 0 and span["end"] >= span["start"]
        assert span["run"]
    seen = {s["name"] for s in trace["spans"]}
    for wanted in ("repeat", "setup.interpreter", "setup", "setup.import",
                   "setup.build", "setup.cluster_start", "setup.ship",
                   "setup.start", "run.closed", "run.paced", "teardown",
                   "layers"):
        assert wanted in seen, wanted
    assert "trace.overhead_share" in trace["per_layer"]


# -- failures are counted, not crashes --------------------------------------

def test_injected_wrong_result_raises_failed_share():
    proc = bench("--workload", "chain_thread", "--smoke", "--fault", "wrong")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    doc = last_json(proc)
    assert doc["correct"] is False
    assert 1 <= doc["failed"] < doc["attempted"]


def test_sink_timeout_fails_the_remaining_items():
    sizes = runner.sizes_for("chain_thread", 0.5, 1)
    result = runner.run_repeat("chain_thread", 1, sizes, 0, fault="stall",
                               timeout=1.5)
    assert result["error"] == "timeout"
    assert result["attempted"] == sizes.total
    assert result["failed"] == sizes.total - sizes.closed // 2
    summary = runner.summarise("chain_thread", [result])
    assert 0 < summary["failed_share"] < 1


def test_crashed_repeat_fails_all_its_items():
    sizes = runner.sizes_for("chain_thread", 0.5, 1)
    result = runner.run_repeat("no_such_workload", 1, sizes, 0, timeout=5)
    assert result["failed"] == result["attempted"] == sizes.total
    assert "error" in result


def test_without_the_program_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(os.path.join(REPO, "BENCHMARK.json"), tmp_path)
    shutil.copytree(PACKAGE, tmp_path / "benchmarks" / "kpnbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = bench("--workload", "chain_thread", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


# -- pieces -----------------------------------------------------------------

def test_self_time_is_duration_minus_children():
    rec = spans.Recorder("r")
    outer = rec.add("outer", 0.0, 10.0)
    rec.add("a", 1.0, 4.0, parent=outer)
    rec.add("b", 5.0, 7.0, parent=outer)
    done = {s["name"]: s for s in spans.finish(rec.spans)}
    assert done["outer"]["self_s"] == pytest.approx(5.0)
    assert done["a"]["self_s"] == pytest.approx(3.0)


def test_quartiles_are_the_statistics_module_quartiles():
    values = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6, 5.0, 3.5, 8.0, 9.7]
    q = statistics.quantiles(values, n=4)
    assert host.quartiles(values) == (q[0], q[2])
    assert host.quartiles([2.5]) == (2.5, 2.5)


def test_timing_metrics_are_the_third_best_slice_of_all_repeats():
    assert runner.nth_best([5.0, 1.0, 3.0, 2.0, 4.0], "lower") == 3.0
    assert runner.nth_best([5.0, 1.0, 3.0, 2.0, 4.0], "higher") == 3.0
    assert runner.nth_best([7.0, 9.0], "lower") == 9.0      # too few: the last
    repeats = [
        {"attempted": 10, "failed": 0, "setup_s": 0.3, "peak_rss_mb": 20.0,
         "closed_slices": [[100, 0.10, 0.08], [100, 0.20, 0.09]],
         "paced_slices": [0.5, 0.9]},
        {"attempted": 10, "failed": 0, "setup_s": 0.5, "peak_rss_mb": 22.0,
         "closed_slices": [[100, 0.05, 0.10], [100, 0.25, 0.07]],
         "paced_slices": [0.7, 0.4]},
    ]
    metrics = runner.summarise("chain_thread", repeats)["metrics"]
    assert metrics["items_per_s"]["value"] == pytest.approx(100 / 0.20)
    assert metrics["cpu_ms_per_item"]["value"] == pytest.approx(0.9)
    assert metrics["latency_p50_ms"]["value"] == 0.7
    assert metrics["items_per_s"]["n"] == 4
    assert metrics["setup_s"]["value"] == 0.3
    assert metrics["peak_rss_mb"]["value"] == pytest.approx(21.0)


def test_a_slice_takes_as_long_as_the_slower_of_source_and_sink():
    from kpnbench.repeat import closed_slices
    sent = [(9, 0.0), (19, 0.5), (29, 0.6), (33, 0.7)]
    received = [(9, 1.0, 0.0), (19, 1.1, 0.05), (29, 1.6, 0.15), (33, 1.7, 0.2)]
    assert closed_slices(sent, received, 10, 2) == [
        [20, pytest.approx(0.5), pytest.approx(0.05)],     # the source was slower
        [20, pytest.approx(0.5), pytest.approx(0.10)]]     # the sink was; 4 items: no slice


def test_load_sends_closed_items_then_keeps_to_its_schedule():
    sizes = workloads.Sizes(closed=5, paced=4, rate=200.0)
    go, drained = threading.Event(), threading.Event()
    go.set()
    drained.set()
    load = workloads.Load(lambda i: i, sizes, go, drained)
    assert list(load) == list(range(9))
    gaps = [b - a for a, b in zip(load.due, load.due[1:])]
    assert gaps == pytest.approx([1 / 200.0] * 3)
    assert 0 <= load.max_late < 0.05


def test_seed_is_the_only_input_to_generation():
    assert workloads.text_chunks(7) == workloads.text_chunks(7)
    assert workloads.text_chunks(7) != workloads.text_chunks(8)
    total = lambda seed: sum(len(c) for c in workloads.text_chunks(seed))  # noqa: E731
    assert abs(total(7) - total(8)) < 0.01 * total(7)
    assert workloads.ramp(7) == workloads.ramp(7) != workloads.ramp(8)
    assert workloads.weak_key(7, 100) != workloads.weak_key(8, 100)


def test_oracles_agree_with_the_program_functions():
    import numpy as np
    for chunk in workloads.text_chunks(3)[:8]:
        assert workloads.count_words(chunk) == workloads.count_words_reference(chunk)
    frame = workloads.frames(3)[0]
    assert np.allclose(workloads.FeatureTask(frame).run(),
                       workloads.features_reference(frame),
                       rtol=1e-3, atol=1e-2)
    n, p, d = workloads.weak_key(3, 50)
    assert p * (p + d) == n and d > 2 * workloads.FACTOR_BATCH * 50

