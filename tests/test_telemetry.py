"""Tests for repro.telemetry: registry, tracer, report renderers and wiring."""

import json
import threading

import pytest

from repro.sim import RunSpec, Simulation
from repro.sim.__main__ import main
from repro.telemetry import global_snapshot
from repro.telemetry.metrics import (
    REGISTRY,
    Gauge,
    MetricsRegistry,
    parse_flat_name,
)
from repro.telemetry.report import (
    classify,
    render,
    render_bench_trajectory,
    render_run_summary,
    render_sweep_summary,
    render_trace_summary,
)
from repro.telemetry.trace import TRACER, Tracer, span, traced

MODEL = {"kind": "heisenberg_j1j2", "j1": [1.0, 1.0, 1.0],
         "j2": [0.5, 0.5, 0.5], "field": [0.2, 0.2, 0.2]}


def ite_spec(tmp_path, **overrides):
    payload = {
        "name": "test-telemetry",
        "workload": "ite",
        "lattice": [2, 2],
        "n_steps": 4,
        "seed": 7,
        "model": MODEL,
        "algorithm": {"tau": 0.05},
        "update": {"kind": "qr", "rank": 2},
        "contraction": {"kind": "ibmps", "bond": 4, "niter": 1, "seed": 0},
        "measure_every": 1,
        "checkpoint_every": 2,
        "checkpoint_dir": str(tmp_path / "ckpt"),
    }
    payload.update(overrides)
    return RunSpec.from_dict(payload)


class TestMetricsRegistry:
    def test_counter_accumulates_and_rejects_negative(self):
        registry = MetricsRegistry()
        counter = registry.counter("calls")
        counter.add()
        counter.add(4)
        assert counter.value == 5
        assert registry.value("calls") == 5
        with pytest.raises(ValueError):
            counter.add(-1)

    def test_get_or_create_returns_same_object(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")
        assert registry.counter("x", a="1") is registry.counter("x", a="1")
        assert registry.counter("x") is not registry.counter("x", a="1")

    def test_labels_are_order_insensitive(self):
        registry = MetricsRegistry()
        a = registry.counter("m", x="1", y="2")
        b = registry.counter("m", y="2", x="1")
        assert a is b

    def test_kind_collision_raises(self):
        registry = MetricsRegistry()
        registry.counter("m")
        with pytest.raises(TypeError, match="already registered"):
            registry.gauge("m")

    def test_gauge_set_and_update_max(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("bytes_peak")
        gauge.set(10)
        gauge.update_max(5)
        assert gauge.value == 10
        gauge.update_max(20)
        assert gauge.value == 20

    def test_histogram_moments(self):
        registry = MetricsRegistry()
        hist = registry.histogram("dur")
        for v in (1.0, 3.0, 2.0):
            hist.observe(v)
        assert hist.count == 3
        assert hist.sum == 6.0
        assert hist.min == 1.0
        assert hist.max == 3.0
        assert hist.mean == 2.0

    def test_snapshot_is_flat_sorted_and_json_safe(self):
        registry = MetricsRegistry()
        registry.counter("flops", category="svd").add(2)
        registry.counter("calls").add(1)
        registry.histogram("dur").observe(0.5)
        snap = registry.snapshot()
        assert list(snap) == sorted(snap)
        assert snap["flops{category=svd}"] == 2
        assert snap["dur:count"] == 1
        json.dumps(snap)  # must be JSON-serializable as-is

    def test_delta_subtracts_counters_and_drops_zeros(self):
        registry = MetricsRegistry()
        registry.counter("a").add(3)
        registry.counter("idle").add(1)
        mark = registry.snapshot()
        registry.counter("a").add(2)
        delta = registry.delta(mark)
        assert delta == {"a": 2}

    def test_delta_reports_moved_gauges(self):
        registry = MetricsRegistry()
        registry.gauge("level").set(5)
        mark = registry.snapshot()
        assert registry.delta(mark) == {}
        registry.gauge("level").set(9)
        assert registry.delta(mark) == {"level": 9}

    def test_merge_adds_counters_and_maxes_gauges(self):
        worker = MetricsRegistry()
        worker.counter("ops", category="einsum").add(10)
        worker.gauge("bytes_peak").update_max(100)
        worker.histogram("dur").observe(2.0)
        parent = MetricsRegistry()
        parent.counter("ops", category="einsum").add(5)
        parent.gauge("bytes_peak").update_max(400)
        parent.histogram("dur").observe(1.0)
        parent.merge(worker.snapshot())
        assert parent.value("ops", category="einsum") == 15
        assert parent.value("bytes_peak") == 400
        hist = parent.histogram("dur")
        assert hist.count == 2 and hist.sum == 3.0
        assert hist.min == 1.0 and hist.max == 2.0

    def test_merge_unseen_peak_name_becomes_gauge(self):
        parent = MetricsRegistry()
        parent.merge({"dist.tensor_bytes_peak": 7})
        parent.merge({"dist.tensor_bytes_peak": 3})
        assert parent.value("dist.tensor_bytes_peak") == 7
        assert isinstance(parent.gauge("dist.tensor_bytes_peak"), Gauge)

    def test_reset_zeroes_in_place_keeping_identities(self):
        registry = MetricsRegistry()
        counter = registry.counter("n")
        counter.add(9)
        hist = registry.histogram("h")
        hist.observe(1.0)
        registry.reset()
        assert counter.value == 0
        assert hist.count == 0 and hist.min is None
        counter.add(1)  # the held reference is still live
        assert registry.value("n") == 1

    def test_parse_flat_name_round_trip(self):
        assert parse_flat_name("plain") == ("plain", ())
        assert parse_flat_name("m{a=1,b=2}") == ("m", (("a", "1"), ("b", "2")))

    def test_thread_safety_under_contention(self):
        registry = MetricsRegistry()
        counter = registry.counter("hits")

        def work():
            for _ in range(1000):
                counter.add()

        threads = [threading.Thread(target=work) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert counter.value == 4000

    def test_deepcopy_clones_values_with_fresh_locks(self):
        # A live Backend (FlopCounter inside) flows through dataclasses.asdict
        # when a RunSpec is serialized; the registry must survive deepcopy.
        import copy

        registry = MetricsRegistry()
        registry.counter("n").add(3)
        registry.gauge("level").set(2)
        registry.histogram("h").observe(1.5)
        clone = copy.deepcopy(registry)
        assert clone.snapshot() == registry.snapshot()
        clone.counter("n").add(1)
        assert registry.value("n") == 3  # independent after the copy

    def test_global_snapshot_includes_einsum_cache_gauges(self):
        snap = global_snapshot()
        assert any(key.startswith("einsum.") for key in snap)


class TestTracer:
    def test_inactive_span_is_shared_noop(self):
        tracer = Tracer()
        assert tracer.span("x") is tracer.span("y")
        assert span("module-level") is span("other")

    def test_start_stop_writes_chrome_trace(self, tmp_path):
        tracer = Tracer()
        path = tmp_path / "trace.json"
        tracer.start(str(path))
        with tracer.span("outer", step=1):
            with tracer.span("inner"):
                pass
        assert tracer.stop() == str(path)
        document = json.loads(path.read_text())
        assert document["displayTimeUnit"] == "ms"
        events = document["traceEvents"]
        assert [e["name"] for e in events] == ["inner", "outer"]
        for event in events:
            assert event["ph"] == "X"
            assert event["dur"] >= 0.0
        assert events[1]["args"] == {"step": 1}

    def test_span_attribute_may_be_called_name(self, tmp_path):
        # The span's own name is positional-only, so "name" stays usable
        # as an attribute key (sweep points label themselves this way).
        tracer = Tracer()
        tracer.start(str(tmp_path / "t.json"))
        with tracer.span("sweep_point", name="0001-rank2"):
            pass
        with span("outer", name="x"):
            pass
        path = tracer.stop()
        events = json.loads(open(path).read())["traceEvents"]
        assert events[0]["args"] == {"name": "0001-rank2"}

    def test_start_twice_raises(self, tmp_path):
        tracer = Tracer()
        tracer.start(str(tmp_path / "a.json"))
        try:
            with pytest.raises(RuntimeError, match="already active"):
                tracer.start(str(tmp_path / "b.json"))
        finally:
            tracer.stop()

    def test_stop_when_inactive_returns_none(self):
        assert Tracer().stop() is None

    def test_traced_decorator_records_only_when_active(self, tmp_path):
        calls = []

        @traced("my_span")
        def work(x):
            calls.append(x)
            return x * 2

        assert work(3) == 6  # inactive: plain call
        TRACER.start(str(tmp_path / "t.json"))
        try:
            assert work(4) == 8
        finally:
            path = TRACER.stop()
        assert calls == [3, 4]
        events = json.loads(open(path).read())["traceEvents"]
        assert [e["name"] for e in events] == ["my_span"]

    def test_traced_default_name_is_qualname(self, tmp_path):
        @traced()
        def helper():
            pass

        TRACER.start(str(tmp_path / "t.json"))
        try:
            helper()
        finally:
            path = TRACER.stop()
        events = json.loads(open(path).read())["traceEvents"]
        assert "helper" in events[0]["name"]


class TestReport:
    def test_classify(self):
        assert classify([{"step": 1}]) == "run"
        assert classify({"traceEvents": []}) == "trace"
        assert classify({"benchmark": "batching"}) == "bench"
        assert classify({"points": []}) == "sweep"
        with pytest.raises(ValueError):
            classify(42)

    def test_render_run_summary_totals_metrics(self):
        records = [
            {"step": 1, "energy": -1.0, "metrics": {"peps.row_absorptions": 4}},
            {"step": 2, "energy": -1.5, "metrics": {"peps.row_absorptions": 6}},
        ]
        text = render_run_summary(records)
        assert "records: 2" in text
        assert "steps:   1..2" in text
        assert "energy=-1.5" in text
        assert "peps.row_absorptions" in text and "10" in text

    def test_render_run_summary_empty(self):
        assert render_run_summary([]) == "no records"

    def test_render_sweep_summary(self):
        manifest = {
            "name": "grid",
            "points": [
                {"name": "p0", "status": "done", "final_step": 3,
                 "metrics": {"wall_time_s": 0.5, "ctm_moves": 8,
                             "flops_by_category": {"einsum": 1.0}}},
                {"name": "p1", "status": "failed"},
            ],
        }
        text = render_sweep_summary(manifest)
        assert "sweep: grid" in text and "done=1" in text and "failed=1" in text
        assert "ctm_moves" in text
        assert "flops_by_category" not in text  # dict-valued metrics skipped

    def test_render_trace_summary_groups_by_name(self):
        document = {"traceEvents": [
            {"name": "einsum", "ph": "X", "ts": 0.0, "dur": 10.0},
            {"name": "einsum", "ph": "X", "ts": 20.0, "dur": 30.0},
            {"name": "step", "ph": "X", "ts": 0.0, "dur": 50.0},
            {"name": "meta", "ph": "M"},
        ]}
        text = render_trace_summary(document)
        assert "span events: 3" in text
        rows = [l for l in text.splitlines()[1:] if l and not l.startswith("-")]
        assert rows[1].startswith("step")  # sorted by total duration desc
        assert rows[2].startswith("einsum")

    def test_render_bench_trajectory(self):
        documents = {
            "BENCH_batching.json": {
                "benchmark": "batching", "scale": "smoke",
                "serial": {"wall_s": 2.0}, "lockstep": {"wall_s": 0.5},
                "einsum_call_ratio": 0.04, "sampling_speedup": 4.0,
            },
            "BENCH_fig13.json": {
                "benchmark": "fig13", "scale": "smoke",
                "points": [{"name": "p", "wall_time_s": 1.5, "flops": 100.0}],
            },
        }
        text = render_bench_trajectory(documents)
        assert "einsum_call_ratio=0.04" in text
        assert "points=1" in text
        assert render_bench_trajectory({}) == "no BENCH_*.json documents found"

    def test_render_file_round_trip(self, tmp_path):
        path = tmp_path / "r.jsonl"
        path.write_text('{"step": 1, "energy": -1.0}\n')
        text = render(str(path))
        assert text.startswith("== r.jsonl (run) ==")


class TestSpecValidation:
    def test_telemetry_defaults_to_none(self, tmp_path):
        assert ite_spec(tmp_path).telemetry is None

    def test_telemetry_round_trips(self, tmp_path):
        spec = ite_spec(tmp_path, telemetry={"metrics": True, "trace": "t.json"})
        again = RunSpec.from_dict(spec.to_dict())
        assert again.telemetry == {"metrics": True, "trace": "t.json"}

    def test_telemetry_unknown_key_raises(self, tmp_path):
        with pytest.raises(ValueError, match="telemetry"):
            ite_spec(tmp_path, telemetry={"bogus": 1})

    def test_telemetry_bad_trace_type_raises(self, tmp_path):
        with pytest.raises(ValueError, match="trace"):
            ite_spec(tmp_path, telemetry={"trace": 7})


class TestRunnerWiring:
    def test_traced_run_is_bitwise_identical_and_writes_trace(self, tmp_path):
        # Bond 1 truncates: at bond 4 every IBMPS sketch covers the operator's
        # short side and the calls run the explicit SVD, not Algorithm 4.
        contraction = {"kind": "ibmps", "bond": 1, "niter": 1, "seed": 0}
        ref = Simulation(
            ite_spec(tmp_path, checkpoint_dir=str(tmp_path / "a"), contraction=contraction)
        ).run()
        trace_path = tmp_path / "trace.json"
        traced_run = Simulation(
            ite_spec(
                tmp_path,
                checkpoint_dir=str(tmp_path / "b"),
                contraction=contraction,
                telemetry={"trace": str(trace_path)},
            )
        ).run()
        assert traced_run.records == ref.records
        assert not TRACER.active  # runner stopped the tracer it started
        events = json.loads(trace_path.read_text())["traceEvents"]
        names = {e["name"] for e in events}
        assert {"step", "measure", "checkpoint", "einsum"} <= names
        # Algorithm 4's local sketch SVD is timed on its own (IBMPS measure)
        assert "randomized_svd.sketch_svd" in names

    def test_metrics_deltas_attached_per_step(self, tmp_path):
        spec = ite_spec(tmp_path, telemetry={"metrics": True})
        result = Simulation(spec).run()
        assert result.records
        for record in result.records:
            assert "metrics" in record
            assert all(
                isinstance(v, int) for v in record["metrics"].values()
            ), record["metrics"]
        assert any(
            record["metrics"].get("peps.row_absorptions", 0) > 0
            for record in result.records
        )

    def test_metrics_key_absent_by_default(self, tmp_path):
        result = Simulation(ite_spec(tmp_path)).run()
        assert all("metrics" not in r for r in result.records)

    def test_checkpoint_spec_payload_never_stores_telemetry(self, tmp_path):
        spec = ite_spec(tmp_path, telemetry={"metrics": True})
        simulation = Simulation(spec)
        simulation.run()
        path = simulation.latest_checkpoint()
        payload = json.load(open(path))
        assert "telemetry" not in payload["spec"]


class TestReportCli:
    def test_report_renders_run_and_trace(self, tmp_path, capsys):
        results = tmp_path / "r.jsonl"
        trace_path = tmp_path / "trace.json"
        spec_path = tmp_path / "spec.json"
        spec = ite_spec(tmp_path, results=str(results))
        payload = spec.to_dict()
        payload["telemetry"] = {"trace": str(trace_path)}
        spec_path.write_text(json.dumps(payload))
        assert main(["run", str(spec_path), "--quiet"]) == 0
        assert main(["report", str(results), str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert "(run) ==" in out and "(trace) ==" in out
        assert "einsum" in out

    def test_report_no_paths_renders_trajectory(self, tmp_path, capsys, monkeypatch):
        (tmp_path / "BENCH_x.json").write_text(
            json.dumps({"benchmark": "x", "scale": "smoke",
                        "serial": {"wall_s": 1.0}})
        )
        monkeypatch.chdir(tmp_path)
        assert main(["report"]) == 0
        out = capsys.readouterr().out
        assert "perf trajectory" in out and "BENCH_x.json" in out

    def test_report_bad_path_exits_nonzero(self, tmp_path, capsys):
        missing = tmp_path / "nope.json"
        assert main(["report", str(missing)]) == 1
        out = capsys.readouterr().out
        assert "nope.json" in out and "error" in out

    def test_run_trace_flag_writes_trace(self, tmp_path, capsys, monkeypatch):
        spec_path = tmp_path / "spec.json"
        spec = ite_spec(tmp_path, results=str(tmp_path / "r.jsonl"))
        spec_path.write_text(json.dumps(spec.to_dict()))
        trace_path = tmp_path / "t.json"
        assert main([
            "run", str(spec_path), "--trace", str(trace_path), "--quiet",
        ]) == 0
        document = json.loads(trace_path.read_text())
        assert document["traceEvents"]


class TestStatsShims:
    def test_env_stats_plain_counters(self):
        from repro.peps.envs import EnvStats

        stats = EnvStats(row_absorptions=2)
        stats.ctm_moves += 5
        assert stats.row_absorptions == 2
        assert stats.ctm_moves == 5
        assert stats.as_dict()["ctm_moves"] == 5
        assert stats == EnvStats(row_absorptions=2, ctm_moves=5)
        stats.reset()
        assert stats == EnvStats()
        with pytest.raises(TypeError):
            EnvStats(bogus=1)

    def test_execution_stats_registry_backed(self):
        from repro.backends.distributed.cost_model import ExecutionStats

        stats = ExecutionStats()
        stats.record("einsum", seconds=0.5, flops=100.0, comm_bytes=8, messages=2)
        stats.observe_tensor(64)
        stats.observe_tensor(32)
        assert stats.flops == 100.0
        assert stats.comm_bytes == 8
        assert stats.counts == {"einsum": 1}
        assert stats.registry.value("dist.tensor_bytes_peak") == 64
