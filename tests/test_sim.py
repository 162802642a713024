"""Tests for the config-driven simulation runner (repro.sim).

Covers the RunSpec config layer, the versioned serialization round trips
(PEPS with attached environments, option objects), atomic checkpoint
files, and — the load-bearing guarantee — that interrupted-and-resumed runs
reproduce uninterrupted ones float-for-float.
"""

import copy
import dataclasses
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from repro import peps
from repro.operators.observable import Observable
from repro.peps import BMPS, CTMOption, Exact, LocalGramQRSVDUpdate, QRUpdate
from repro.sim import (
    RunSpec,
    SerializationError,
    Simulation,
    Sweep,
    SweepSpec,
    contract_option_from_dict,
    contract_option_to_dict,
    latest_checkpoint,
    load_checkpoint,
    peps_from_dict,
    peps_to_dict,
    update_option_from_dict,
    update_option_to_dict,
)
from repro.sim.__main__ import main as cli_main
from repro.sim.io import atomic_write_json, write_checkpoint
from repro.sim.sinks import JSONLSink, JSONSink, MemorySink, SweepSink, make_sink
from repro.tensornetwork import ExplicitSVD, ImplicitRandomizedSVD

MODEL = {"kind": "heisenberg_j1j2", "j1": [1.0, 1.0, 1.0],
         "j2": [0.5, 0.5, 0.5], "field": [0.2, 0.2, 0.2]}


def ite_spec(tmp_path, n_steps=6, checkpoint_every=2, **overrides):
    payload = {
        "name": "test-ite",
        "workload": "ite",
        "lattice": [2, 2],
        "n_steps": n_steps,
        "seed": 7,
        "model": MODEL,
        "algorithm": {"tau": 0.05},
        "update": {"kind": "qr", "rank": 2},
        "contraction": {"kind": "ibmps", "bond": 4, "niter": 1, "seed": 0},
        "measure_every": 1,
        "checkpoint_every": checkpoint_every,
        "checkpoint_dir": str(tmp_path / "ckpt"),
    }
    payload.update(overrides)
    return RunSpec.from_dict(payload)


class TestRunSpec:
    @pytest.mark.parametrize("cls, key, value, error, name", [
        (RunSpec, "measure_every", 0, ValueError, "measure_every"),
        (RunSpec, "measure_every", -3, ValueError, "measure_every"),
        (RunSpec, "measure_every", 2.7, TypeError, "measure_every"),
        (RunSpec, "measure_every", True, TypeError, "measure_every"),
        (RunSpec, "checkpoint_every", -1, ValueError, "checkpoint_every"),
        (RunSpec, "n_steps", 2.9, TypeError, "n_steps"),
        (RunSpec, "lattice", [2.9, 2], TypeError, "lattice rows"),
        (RunSpec, "lattice", [2, 0], ValueError, "lattice columns"),
        (RunSpec, "keep_checkpoints", -4, ValueError, "keep_checkpoints"),
        (SweepSpec, "jobs", 2.5, TypeError, "jobs"),
        (SweepSpec, "jobs", "3", TypeError, "jobs"),
        (SweepSpec, "jobs", True, TypeError, "jobs"),
    ])
    def test_counts_are_neither_rounded_nor_clamped(self, cls, key, value, error, name):
        payload = {"workload": "ite", key: value}
        if cls is SweepSpec:
            payload = {"base": {"workload": "ite"}, "axes": {"seed": [1, 2]}, key: value}
        with pytest.raises(error, match=f"^{name} must be"):
            cls.from_dict(payload)

    @pytest.mark.parametrize("command, value, error, name", [
        ("run --checkpoint-every", "-1", ValueError, "checkpoint_every"),
        ("sweep --jobs", "0", ValueError, "jobs"),
        ("sweep --jobs", "-3", ValueError, "jobs"),
        ("Sweep.run", 0, ValueError, "jobs"),
        ("Sweep.run", 2.5, TypeError, "jobs"),
    ])
    def test_overrides_are_neither_rounded_nor_clamped(self, tmp_path, command, value,
                                                       error, name):
        """The CLI's and ``Sweep.run``'s overrides of these counts are checked
        as the spec fields are, before anything runs or is written."""
        run_file, sweep_file = tmp_path / "run.json", tmp_path / "sweep.json"
        run_file.write_text(json.dumps(ite_spec(tmp_path).to_dict()))
        sweep = SweepSpec.from_dict({"base": ite_spec(tmp_path).to_dict(),
                                     "axes": {"seed": [1, 2]},
                                     "sweep_dir": str(tmp_path / "sweep")})
        sweep_file.write_text(json.dumps(sweep.to_dict()))
        with pytest.raises(error, match=f"^{name} must be"):
            if command == "Sweep.run":
                Sweep(sweep).run(jobs=value)
            else:
                subcommand, flag = command.split()
                spec_file = run_file if subcommand == "run" else sweep_file
                cli_main([subcommand, str(spec_file), flag, value, "--quiet"])
        assert not (tmp_path / "sweep").exists() and not (tmp_path / "ckpt").exists()

    def test_dict_round_trip(self, tmp_path):
        spec = ite_spec(tmp_path)
        again = RunSpec.from_dict(spec.to_dict())
        assert again == spec

    def test_from_file(self, tmp_path):
        spec = ite_spec(tmp_path)
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec.to_dict()))
        assert RunSpec.from_file(path) == spec

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown RunSpec fields"):
            RunSpec.from_dict({"workload": "ite", "bogus_field": 1})

    @pytest.mark.parametrize("nprocs", [2.5, True, "2"])
    def test_non_integer_backend_nprocs_rejected(self, nprocs):
        backend = {"kind": "distributed", "nprocs": nprocs}
        with pytest.raises(TypeError, match="nprocs must be an integer"):
            RunSpec.from_dict({"workload": "ite", "backend": backend})

    def test_backend_nprocs_below_one_rejected(self):
        backend = {"kind": "distributed", "nprocs": 0}
        with pytest.raises(ValueError, match="nprocs must be positive"):
            RunSpec.from_dict({"workload": "ite", "backend": backend})

    @pytest.mark.parametrize("limits, error", [
        ({"max_restarts": -3}, ValueError),
        ({"max_restarts": 1.5}, TypeError),
        ({"timeout": -1.0}, ValueError),
        ({"timeout": float("nan")}, ValueError),
    ])
    def test_bad_backend_pool_limits_rejected(self, limits, error):
        backend = {"kind": "distributed", "nprocs": 2, "executor": "pool", **limits}
        with pytest.raises(error, match=next(iter(limits))):
            RunSpec.from_dict({"workload": "ite", "backend": backend})

    def test_numpy_integer_backend_nprocs_becomes_int(self):
        backend = {"kind": "distributed", "nprocs": np.int64(2)}
        spec = RunSpec.from_dict({"workload": "ite", "backend": backend})
        assert type(spec.backend["nprocs"]) is int
        assert spec.resolve_backend().nprocs == 2
        assert json.loads(json.dumps(spec.to_dict()))["backend"]["nprocs"] == 2

    def test_builders(self, tmp_path):
        spec = ite_spec(tmp_path)
        ham = spec.build_model()
        assert ham.n_sites == 4
        update = spec.build_update_option()
        assert isinstance(update, QRUpdate) and update.rank == 2
        contract = spec.build_contract_option()
        assert isinstance(contract, BMPS)
        svd = contract.resolved_svd_option()
        assert isinstance(svd, ImplicitRandomizedSVD)
        assert svd.rank == 4 and svd.seed == 0

    def test_observables_string_becomes_single_name(self, tmp_path):
        spec = ite_spec(tmp_path, observables="norm")
        assert spec.observables == ("norm",)

    def test_contraction_exact_rejects_extra_keys(self, tmp_path):
        spec = ite_spec(tmp_path, contraction={"kind": "exact", "bond": 4})
        with pytest.raises(ValueError, match="unknown contraction config keys"):
            spec.build_contract_option()

    def test_contraction_bond_rank_conflict_rejected(self, tmp_path):
        spec = ite_spec(tmp_path, contraction={"kind": "ibmps", "bond": 4, "rank": 2})
        with pytest.raises(ValueError, match="not both"):
            spec.build_contract_option()

    def test_contraction_unknown_kind_rejected(self, tmp_path):
        spec = ite_spec(tmp_path, contraction={"kind": "nope", "bond": 4})
        with pytest.raises(ValueError, match="unknown contraction kind"):
            spec.build_contract_option()

    def test_contraction_io_layer_form_accepted(self, tmp_path):
        svd = {"kind": "implicit", "rank": 4, "seed": 0}
        spec = ite_spec(tmp_path, contraction={"kind": "two_layer_ibmps", "svd": svd})
        option = spec.build_contract_option()
        assert type(option) is BMPS
        assert option.truncation_bond == 4

    def test_unknown_model_kind(self, tmp_path):
        spec = ite_spec(tmp_path, model={"kind": "nope"})
        with pytest.raises(ValueError, match="unknown model kind"):
            spec.build_model()

    def test_unknown_workload(self, tmp_path):
        spec = ite_spec(tmp_path, workload="nope")
        with pytest.raises(ValueError, match="unknown workload"):
            Simulation(spec)


class TestOptionSerialization:
    @pytest.mark.parametrize("option", [
        None,
        Exact(),
        BMPS(ExplicitSVD(rank=4)),
        BMPS(ImplicitRandomizedSVD(rank=8, niter=2, oversample=3, seed=5)),
        CTMOption(chi=12),
    ])
    def test_contract_round_trip(self, option):
        payload = contract_option_to_dict(option)
        if payload is not None:
            json.dumps(payload)  # must be JSON-serializable
        again = contract_option_from_dict(payload)
        assert type(again) is type(option)
        if isinstance(option, BMPS):
            assert again.truncation_bond == option.truncation_bond
            assert type(again.resolved_svd_option()) is type(option.resolved_svd_option())
        if isinstance(option, CTMOption):
            assert again == option

    @pytest.mark.parametrize("option", [
        None,
        QRUpdate(rank=3),
        LocalGramQRSVDUpdate(rank=2),
    ])
    def test_update_round_trip(self, option):
        payload = update_option_to_dict(option)
        again = update_option_from_dict(payload)
        assert again == option

    # Payloads as checkpoints and spec files wrote them while TwoLayerBMPS and
    # BMPS.truncate_bond existed; the norms are those the writer computed on
    # random_peps(3, 3, bond_dim=2, seed=0) with its resolved option.
    @pytest.mark.parametrize("legacy, resolved, norm", [
        ({"kind": "two_layer_bmps",
          "svd": {"kind": "explicit", "rank": 3, "cutoff": None, "absorb": "even"},
          "truncate_bond": None},
         BMPS(ExplicitSVD(rank=3)), 0.4193791602240843),
        ({"kind": "two_layer_bmps",
          "svd": {"kind": "implicit", "rank": 3, "cutoff": None, "absorb": "even",
                  "niter": 1, "oversample": 2, "orth_method": "auto", "seed": 0},
          "truncate_bond": None},
         BMPS(ImplicitRandomizedSVD(rank=3, seed=0)), 0.4193791602240842),
        ({"kind": "bmps",
          "svd": {"kind": "explicit", "rank": 8, "cutoff": None, "absorb": "even"},
          "truncate_bond": 2},
         BMPS(ExplicitSVD(rank=2)), 0.4227785583404315),
        ({"kind": "bmps",
          "svd": {"kind": "implicit", "rank": 8, "cutoff": None, "absorb": "even",
                  "niter": 1, "oversample": 2, "orth_method": "auto", "seed": 1},
          "truncate_bond": 2},
         BMPS(ImplicitRandomizedSVD(rank=2, seed=1)), 0.42277855834043127),
        ({"kind": "bmps", "svd": None, "truncate_bond": 2},
         BMPS(ExplicitSVD(rank=2)), 0.4227785583404315),
        ("two_layer_bmps", BMPS(ExplicitSVD(rank=3)), 0.4193791602240843),
        ("two_layer_ibmps", BMPS(ImplicitRandomizedSVD(rank=3, seed=0)), 0.4193791602240842),
    ], ids=["two-layer-explicit", "two-layer-implicit", "truncate-bond-explicit",
            "truncate-bond-implicit", "truncate-bond-default-svd", "spec-two_layer_bmps",
            "spec-two_layer_ibmps"])
    def test_legacy_wire_forms_load_to_the_same_computation(self, legacy, resolved, norm):
        from repro.peps.envs import option_signature

        if isinstance(legacy, str):
            option = RunSpec(contraction={"kind": legacy, "bond": 3}).build_contract_option()
        else:
            option = contract_option_from_dict(legacy)
        assert type(option) is BMPS
        assert option_signature(option) == option_signature(resolved)
        state = peps.random_peps(3, 3, bond_dim=2, seed=0)
        assert state.norm(option) == state.norm(resolved)
        assert state.norm(option) == pytest.approx(norm, rel=1e-12)
        assert contract_option_to_dict(option)["kind"] == "bmps"
        assert "truncate_bond" not in contract_option_to_dict(option)

    def test_legacy_truncate_bond_only_reads_on_boundary_mps_kinds(self):
        with pytest.raises(SerializationError, match="truncate_bond"):
            contract_option_from_dict({"kind": "exact", "truncate_bond": None})

    @pytest.mark.parametrize("rank", [0, -2])
    def test_non_positive_rank_rejected_everywhere(self, rank):
        for cls in (ExplicitSVD, ImplicitRandomizedSVD, QRUpdate):
            with pytest.raises(ValueError, match="rank must be positive"):
                cls(rank=rank)
        for cls in (ExplicitSVD, ImplicitRandomizedSVD):
            with pytest.raises(ValueError, match="rank must be positive"):
                BMPS(cls(rank=rank))
            with pytest.raises(ValueError, match="rank must be positive"):
                dataclasses.replace(cls(rank=4), rank=rank)
        with pytest.raises(ValueError, match="chi must be positive"):
            CTMOption(chi=rank)
        for kind in ("bmps", "ibmps"):
            spec = RunSpec(contraction={"kind": kind, "bond": rank})
            with pytest.raises(ValueError, match="rank must be positive"):
                spec.build_contract_option()
        # a spec is refused when its option is built, before any step runs
        with pytest.raises(ValueError, match="chi must be positive"):
            RunSpec(contraction={"kind": "ctm", "chi": rank}).build_contract_option()
        with pytest.raises(ValueError, match="rank must be positive"):
            RunSpec(update={"kind": "qr", "rank": rank}).build_update_option()
        for payload in (
            {"kind": "bmps", "svd": {"kind": "implicit", "rank": rank}},
            {"kind": "bmps", "svd": {"kind": "explicit", "rank": 4}, "truncate_bond": rank},
        ):
            with pytest.raises(ValueError, match="rank must be positive"):
                contract_option_from_dict(payload)

    @pytest.mark.parametrize("field, value", [
        ("orth_method", "qrr"), ("niter", -3), ("oversample", -5),
    ])
    def test_invalid_einsumsvd_fields_rejected_at_construction(self, field, value):
        with pytest.raises(ValueError, match=field):
            ImplicitRandomizedSVD(rank=4, **{field: value})
        # a spec is refused when its option is built, before any step runs
        spec = RunSpec(contraction={"kind": "ibmps", "bond": 4, field: value})
        with pytest.raises(ValueError, match=field):
            spec.build_contract_option()

    @pytest.mark.parametrize("build, match", [
        (lambda: CTMOption(chi=2.5), "chi must be positive"),
        (lambda: QRUpdate(rank=3.0), "rank must be positive"),
    ], ids=["ctm-chi-float", "qr-rank-float"])
    def test_non_integral_bound_rejected_at_construction(self, build, match):
        with pytest.raises(ValueError, match=match):
            build()
        # integral NumPy scalars are valid
        assert CTMOption(chi=np.int64(4)) == CTMOption(chi=4)

    @pytest.mark.parametrize("build, match", [
        (lambda: RunSpec(contraction={"kind": "bmps", "bond": True}).build_contract_option(),
         "rank must be positive"),
        (lambda: ExplicitSVD(rank=True), "rank must be positive"),
        (lambda: CTMOption(chi=True), "chi must be positive"),
        (lambda: QRUpdate(rank=True), "rank must be positive"),
    ], ids=["spec-bmps-bond-true", "explicit-rank-true", "ctm-chi-true", "qr-rank-true"])
    def test_bool_bound_rejected(self, build, match):
        with pytest.raises(ValueError, match=match):
            build()

    @pytest.mark.parametrize("field, value", [
        ("niter", 1.5), ("oversample", 2.7), ("niter", "2"), ("oversample", False),
    ], ids=["niter-float", "oversample-float", "niter-str", "oversample-bool"])
    def test_non_integer_iteration_counts_rejected(self, field, value):
        with pytest.raises(TypeError, match=f"{field} must be an integer"):
            ImplicitRandomizedSVD(rank=4, **{field: value})
        spec = RunSpec(contraction={"kind": "ibmps", "bond": 4, field: value})
        with pytest.raises(TypeError, match=f"{field} must be an integer"):
            spec.build_contract_option()

    def test_generator_seed_rejected(self):
        option = BMPS(ImplicitRandomizedSVD(rank=4, seed=np.random.default_rng(0)))
        with pytest.raises(SerializationError, match="integer"):
            contract_option_to_dict(option)


class TestStateSerialization:
    def test_peps_bitwise_round_trip(self):
        state = peps.random_peps(3, 3, bond_dim=2, seed=2)
        again = peps_from_dict(peps_to_dict(state))
        for i in range(3):
            for j in range(3):
                np.testing.assert_array_equal(
                    np.asarray(state.grid[i][j]), np.asarray(again.grid[i][j])
                )

    def test_peps_with_environment_round_trip(self):
        """PEPS + BMPS environment serialize -> restore: norm and expectation agree."""
        state = peps.random_peps(3, 3, bond_dim=2, seed=3)
        env = state.attach_environment(BMPS(ExplicitSVD(rank=4)))
        obs = Observable.sum(Observable.Z(s) for s in range(state.n_sites))
        norm_before = state.norm()
        expect_before = state.expectation(obs)
        absorptions_before = env.stats.row_absorptions

        restored = peps_from_dict(peps_to_dict(state))
        assert restored.environment is not None
        # The caches were serialized warm: no new row absorptions for the norm.
        assert restored.environment.stats.row_absorptions == 0
        assert restored.norm() == pytest.approx(norm_before, abs=1e-12)
        assert restored.environment.stats.row_absorptions == 0
        assert restored.expectation(obs) == pytest.approx(expect_before, abs=1e-12)
        assert absorptions_before > 0

    def test_environment_option_survives(self):
        state = peps.random_peps(2, 2, bond_dim=2, seed=4)
        state.attach_environment(BMPS(ImplicitRandomizedSVD(rank=4, seed=9)))
        restored = peps_from_dict(peps_to_dict(state))
        option = restored.environment.contract_option
        assert option.resolved_svd_option().seed == 9

    def test_format_version_checked(self):
        state = peps.random_peps(2, 2, bond_dim=1, seed=0)
        payload = peps_to_dict(state)
        payload["format_version"] = 999
        with pytest.raises(SerializationError, match="version"):
            peps_from_dict(payload)


class TestCheckpointFiles:
    def test_atomic_write_and_load(self, tmp_path):
        path = write_checkpoint(
            tmp_path, "run", 10, {"spec": True}, {"state": 1}, [{"step": 10}]
        )
        payload = load_checkpoint(path)
        assert payload["step"] == 10
        assert payload["records"] == [{"step": 10}]

    def test_latest_and_pruning(self, tmp_path):
        for step in (2, 4, 6, 8):
            write_checkpoint(tmp_path, "run", step, {}, {}, [], keep=2)
        names = sorted(os.listdir(tmp_path))
        assert names == ["run-step000006.ckpt.json", "run-step000008.ckpt.json"]
        assert latest_checkpoint(tmp_path, "run").endswith("run-step000008.ckpt.json")
        assert latest_checkpoint(tmp_path, "other") is None

    def test_fresh_run_clears_stale_checkpoints(self, tmp_path):
        """A rerun into a directory with a superseded session's higher-step
        checkpoints must not have them shadow or outlive its own."""
        spec = ite_spec(tmp_path, n_steps=6, checkpoint_every=2)
        Simulation(spec).run()  # leaves checkpoints up to step 6
        short = ite_spec(tmp_path, n_steps=4, checkpoint_every=2)
        partial = Simulation(short).run(stop_after=2)
        assert partial.checkpoint_path is not None
        assert os.path.exists(partial.checkpoint_path)
        steps = sorted(
            int(n.rsplit("-step", 1)[1].split(".")[0])
            for n in os.listdir(tmp_path / "ckpt")
        )
        assert steps == [2]  # stale step-4/6 checkpoints are gone
        resumed = Simulation(short).run(resume=True)
        assert resumed.final_step == 4

    def test_no_tmp_files_left(self, tmp_path):
        atomic_write_json(tmp_path / "out.json", {"a": 1})
        assert [p for p in os.listdir(tmp_path) if p.startswith(".tmp")] == []


class TestSinks:
    def test_make_sink_suffix_dispatch(self, tmp_path):
        assert isinstance(make_sink(None), MemorySink)
        assert isinstance(make_sink(tmp_path / "x.jsonl"), JSONLSink)
        assert isinstance(make_sink(tmp_path / "x.json"), JSONSink)
        assert isinstance(make_sink(tmp_path / "x.out"), JSONSink)

    def test_jsonl_rewrites_prior_records(self, tmp_path):
        path = tmp_path / "out.jsonl"
        sink = JSONLSink(path)
        sink.open([{"step": 1}])
        sink.write({"step": 2})
        sink.close()
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert lines == [{"step": 1}, {"step": 2}]

    def test_jsonl_reopen_with_prior_records_has_no_duplicates(self, tmp_path):
        """Reopening with checkpointed prior records (the resume path) must
        rewrite the file from scratch, never append a second copy."""
        path = tmp_path / "out.jsonl"
        sink = JSONLSink(path)
        sink.open()
        sink.write({"step": 1})
        sink.write({"step": 2})
        sink.close()
        again = JSONLSink(path)
        again.open([{"step": 1}, {"step": 2}])
        again.write({"step": 3})
        again.close()
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert lines == [{"step": 1}, {"step": 2}, {"step": 3}]
        assert again.records == lines

    def test_jsonl_write_before_open_self_opens(self, tmp_path):
        path = tmp_path / "out.jsonl"
        sink = JSONLSink(path)
        sink.write({"step": 1})
        sink.close()
        assert [json.loads(l) for l in path.read_text().splitlines()] == [{"step": 1}]

    def test_json_sink_rewrites_the_document_on_every_write(self, tmp_path):
        path = tmp_path / "out.json"
        sink = JSONSink(path)
        sink.open()
        sink.write({"step": 1})
        assert json.loads(path.read_text()) == {"records": [{"step": 1}]}
        sink.write({"step": 2})
        assert json.loads(path.read_text()) == {"records": [{"step": 1}, {"step": 2}]}
        sink.close()
        assert json.loads(path.read_text()) == {"records": [{"step": 1}, {"step": 2}]}

    def test_sweep_sink_tags_and_orders_records(self, tmp_path):
        path = tmp_path / "combined.jsonl"
        sweep_sink = SweepSink(make_sink(path))
        sweep_sink.open()
        sweep_sink.write_point("a", [{"step": 1, "energy": 0.5}])
        sweep_sink.write_point("b", [{"step": 1, "energy": 0.25}])
        sweep_sink.close()
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert lines == [
            {"point": "a", "step": 1, "energy": 0.5},
            {"point": "b", "step": 1, "energy": 0.25},
        ]
        assert sweep_sink.records == lines


class TestResumeReproducibility:
    def test_ite_resume_matches_uninterrupted(self, tmp_path):
        """Interrupt an ITE run mid-flight; the resumed trace is bitwise equal."""
        spec = ite_spec(tmp_path)
        reference = Simulation(spec).run()
        assert not reference.interrupted
        assert len(reference.records) == spec.n_steps

        spec2 = ite_spec(tmp_path, checkpoint_dir=str(tmp_path / "ckpt2"))
        partial = Simulation(spec2).run(stop_after=3)
        assert partial.interrupted and partial.final_step == 3
        resumed = Simulation(spec2).run(resume=True)
        assert not resumed.interrupted
        # Float-for-float: identical record dicts, not just approximately.
        assert resumed.records == reference.records

    def test_ite_150_steps_interrupted_at_75(self, tmp_path):
        """The acceptance scenario: a 150-step Fig. 13-style run interrupted at
        step 75 resumes to the exact uninterrupted energy trajectory."""
        common = dict(n_steps=150, checkpoint_every=75, measure_every=10)
        reference = Simulation(
            ite_spec(tmp_path, checkpoint_dir=str(tmp_path / "ref-ckpt"), **common)
        ).run()
        spec = ite_spec(tmp_path, checkpoint_dir=str(tmp_path / "int-ckpt"), **common)
        partial = Simulation(spec).run(stop_after=75)
        assert partial.interrupted and partial.final_step == 75
        resumed = Simulation(spec).run(resume=True)
        assert resumed.final_step == 150
        assert resumed.records == reference.records
        assert [r["step"] for r in resumed.records] == list(range(10, 151, 10))

    def test_vqe_resume_matches_uninterrupted(self, tmp_path):
        payload = {
            "name": "test-vqe", "workload": "vqe", "lattice": [2, 2],
            "n_steps": 4, "seed": 3,
            "model": {"kind": "transverse_field_ising", "jz": -1.0, "hx": -3.5},
            "algorithm": {"n_layers": 1, "iters_per_step": 2},
            "update": {"kind": "qr", "rank": 2},
            "contraction": {"kind": "bmps", "bond": 4},
            "checkpoint_every": 2,
        }
        ref_spec = RunSpec.from_dict({**payload, "checkpoint_dir": str(tmp_path / "a")})
        reference = Simulation(ref_spec).run()
        spec = RunSpec.from_dict({**payload, "checkpoint_dir": str(tmp_path / "b")})
        partial = Simulation(spec).run(stop_after=2)
        assert partial.interrupted
        resumed = Simulation(spec).run(resume=True)
        assert resumed.records == reference.records

    def test_rqc_resume_matches_uninterrupted(self, tmp_path):
        payload = {
            "name": "test-rqc", "workload": "rqc_amplitude", "lattice": [2, 2],
            "seed": 5,
            "algorithm": {"n_layers": 4},
            "update": {"kind": "qr"},
            "contraction": {"kind": "exact"},
            "measure_every": 10,
            "checkpoint_every": 7,
        }
        ref_spec = RunSpec.from_dict({**payload, "checkpoint_dir": str(tmp_path / "a")})
        reference = Simulation(ref_spec).run()
        assert reference.final_step == 20  # 4 layers x 4 qubits + 1 iSWAP round
        spec = RunSpec.from_dict({**payload, "checkpoint_dir": str(tmp_path / "b")})
        Simulation(spec).run(stop_after=9)
        resumed = Simulation(spec).run(resume=True)
        assert resumed.records == reference.records

    def test_rqc_requires_integer_seed(self):
        spec = RunSpec.from_dict({
            "name": "rqc-noseed", "workload": "rqc_amplitude", "lattice": [2, 2],
            "seed": None, "algorithm": {"n_layers": 4},
        })
        with pytest.raises(ValueError, match="integer RunSpec seed"):
            Simulation(spec).run()

    def test_resume_accepts_tuple_vs_list_configs(self, tmp_path):
        """In-memory tuples vs JSON lists in model configs must not block resume."""
        spec = ite_spec(tmp_path)
        Simulation(spec).run(stop_after=2)
        tupled = ite_spec(
            tmp_path,
            model={"kind": "heisenberg_j1j2", "j1": (1.0, 1.0, 1.0),
                   "j2": (0.5, 0.5, 0.5), "field": (0.2, 0.2, 0.2)},
        )
        resumed = Simulation(tupled).run(resume=True)
        assert not resumed.interrupted

    def test_resume_requires_checkpoint(self, tmp_path):
        spec = ite_spec(tmp_path, checkpoint_dir=str(tmp_path / "empty"))
        with pytest.raises(FileNotFoundError):
            Simulation(spec).run(resume=True)

    def test_resume_rejects_incompatible_spec(self, tmp_path):
        spec = ite_spec(tmp_path)
        Simulation(spec).run(stop_after=2)
        other = ite_spec(tmp_path, seed=99)
        with pytest.raises(ValueError, match="incompatible"):
            Simulation(other).run(resume=True)

    def test_resume_rejects_changed_physics(self, tmp_path):
        """Editing tau/model/options between sessions must not silently mix dynamics."""
        spec = ite_spec(tmp_path)
        Simulation(spec).run(stop_after=2)
        with pytest.raises(ValueError, match="algorithm"):
            Simulation(ite_spec(tmp_path, algorithm={"tau": 0.1})).run(resume=True)
        with pytest.raises(ValueError, match="contraction"):
            Simulation(
                ite_spec(tmp_path, contraction={"kind": "ibmps", "bond": 8, "seed": 0})
            ).run(resume=True)

    @pytest.mark.parametrize("written", [
        {"kind": "two_layer_bmps", "bond": 2},
        {"kind": "bmps", "svd": {"kind": "explicit", "rank": 2}},
        {"kind": "bmps", "bond": 2, "absorb": "even"},
    ], ids=["retired-kind", "io-layer-form", "explicit-default"])
    def test_resume_compares_the_normalized_contraction(self, tmp_path, written):
        """A contraction block spelled another way for the same computation
        (a retired kind alias, the io-layer form, a spelled-out default)
        resumes as the shorthand."""
        Simulation(ite_spec(tmp_path, contraction=written)).run(stop_after=2)
        shorthand = {"kind": "bmps", "bond": 2}
        resumed = Simulation(ite_spec(tmp_path, contraction=shorthand)).run(resume=True)
        reference = Simulation(
            ite_spec(tmp_path, contraction=shorthand, checkpoint_dir=str(tmp_path / "ref"))
        ).run()
        assert resumed.records == reference.records

    def test_resume_allows_extending_n_steps(self, tmp_path):
        """Schedule fields may change: resuming with a larger n_steps extends the run."""
        spec = ite_spec(tmp_path, n_steps=4)
        Simulation(spec).run()
        extended = Simulation(ite_spec(tmp_path, n_steps=6)).run(resume=True)
        assert extended.final_step == 6
        reference = Simulation(
            ite_spec(tmp_path, n_steps=6, checkpoint_dir=str(tmp_path / "ref"))
        ).run()
        assert extended.records == reference.records


class TestRunnerFeatures:
    def test_measurement_hooks_and_schedule(self, tmp_path):
        spec = ite_spec(tmp_path, n_steps=6, checkpoint_every=0, measure_every=2)
        sim = Simulation(spec)
        sim.add_measurement_hook("extra", lambda s, step: {"twice": 2 * step})
        result = sim.run()
        assert [r["step"] for r in result.records] == [2, 4, 6]
        assert all(r["twice"] == 2 * r["step"] for r in result.records)
        assert all("energy" in r and "max_bond" in r for r in result.records)

    def test_results_jsonl_stream(self, tmp_path):
        path = tmp_path / "out.jsonl"
        spec = ite_spec(tmp_path, n_steps=3, checkpoint_every=0, results=str(path))
        result = Simulation(spec).run()
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert lines == result.records

    def test_sample_observable_uses_run_seed(self, tmp_path):
        spec = ite_spec(
            tmp_path, n_steps=2, checkpoint_every=0,
            observables=["sample"], algorithm={"tau": 0.05, "nshots": 3},
        )
        a = Simulation(spec).run()
        b = Simulation(spec).run()
        assert a.records == b.records  # sampling derives from the RunSpec seed
        assert np.asarray(a.records[-1]["samples"]).shape == (3, 4)

    def test_sample_observable_needs_an_integer_nshots(self, tmp_path):
        spec = ite_spec(
            tmp_path, n_steps=1, checkpoint_every=0,
            observables=["sample"], algorithm={"tau": 0.05, "nshots": 2.7},
        )
        with pytest.raises(TypeError, match="nshots"):
            Simulation(spec).run()

    def test_vqe_statevector_workload(self, tmp_path):
        spec = RunSpec.from_dict({
            "name": "sv", "workload": "vqe", "lattice": [2, 2],
            "n_steps": 3, "seed": 0,
            "model": {"kind": "transverse_field_ising"},
            "algorithm": {"n_layers": 1, "simulator": "statevector",
                          "iters_per_step": 5},
        })
        result = Simulation(spec).run()
        assert result.energies[-1] <= result.energies[0] + 1e-12


class TestCLI:
    def test_cli_interrupt_resume_round_trip(self, tmp_path):
        """The CI smoke scenario: run, 'crash' at a checkpoint, resume, compare."""
        spec_path = tmp_path / "spec.json"
        spec = ite_spec(
            tmp_path, n_steps=5, checkpoint_every=2,
            checkpoint_dir=str(tmp_path / "cli-ckpt"),
        )
        spec_path.write_text(json.dumps(spec.to_dict()))
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")

        def cli(*args):
            return subprocess.run(
                [sys.executable, "-m", "repro.sim", "run", str(spec_path), "--quiet", *args],
                env=env, cwd=tmp_path, capture_output=True, text=True,
            )

        ref = cli("--results", str(tmp_path / "ref.jsonl"),
                  "--checkpoint-dir", str(tmp_path / "ref-ckpt"))
        assert ref.returncode == 0, ref.stderr
        crashed = cli("--results", str(tmp_path / "out.jsonl"), "--stop-after", "3")
        assert crashed.returncode == 3, crashed.stderr
        resumed = cli("--results", str(tmp_path / "out.jsonl"), "--resume")
        assert resumed.returncode == 0, resumed.stderr
        assert (tmp_path / "out.jsonl").read_text() == (tmp_path / "ref.jsonl").read_text()

    @pytest.mark.skipif(os.name == "nt", reason="POSIX signal semantics")
    def test_cli_sigterm_checkpoints_and_resumes(self, tmp_path):
        """SIGTERM mid-run must checkpoint-and-exit (code 4) and resume bitwise —
        even with scheduled checkpointing disabled."""
        import signal

        spec_path = tmp_path / "spec.json"
        spec = ite_spec(
            tmp_path, n_steps=40, checkpoint_every=0, lattice=[3, 3],
            checkpoint_dir=str(tmp_path / "sig-ckpt"),
        )
        spec_path.write_text(json.dumps(spec.to_dict()))
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        base = [sys.executable, "-m", "repro.sim", "run", str(spec_path)]

        reference = subprocess.run(
            base + ["--quiet", "--results", str(tmp_path / "ref.jsonl"),
                    "--checkpoint-dir", str(tmp_path / "ref-ckpt")],
            env=env, cwd=tmp_path, capture_output=True, text=True,
        )
        assert reference.returncode == 0, reference.stderr

        process = subprocess.Popen(
            base + ["--results", str(tmp_path / "out.jsonl")],
            env=env, cwd=tmp_path, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True, bufsize=1,
        )
        # Wait until the run is demonstrably mid-flight (first record printed).
        for line in process.stdout:
            if line.startswith("step="):
                break
        process.send_signal(signal.SIGTERM)
        process.stdout.read()  # drain until exit
        assert process.wait(timeout=120) == 4, process.stderr.read()
        checkpoint = latest_checkpoint(tmp_path / "sig-ckpt", spec.name)
        assert checkpoint is not None  # written off-schedule by the handler

        resumed = subprocess.run(
            base + ["--quiet", "--results", str(tmp_path / "out.jsonl"), "--resume"],
            env=env, cwd=tmp_path, capture_output=True, text=True,
        )
        assert resumed.returncode == 0, resumed.stderr
        assert (tmp_path / "out.jsonl").read_text() == (tmp_path / "ref.jsonl").read_text()


class TestStopRequests:
    def test_request_stop_checkpoints_off_schedule(self, tmp_path):
        """request_stop() finishes the step, writes a checkpoint even with
        checkpoint_every=0, and the run resumes bitwise."""
        reference = Simulation(
            ite_spec(tmp_path, checkpoint_every=0, checkpoint_dir=str(tmp_path / "ref"))
        ).run()

        spec = ite_spec(tmp_path, checkpoint_every=0, checkpoint_dir=str(tmp_path / "ckpt"))
        simulation = Simulation(spec)

        def stop_at_step_2(sim, step):
            if step == 2:
                sim.request_stop()
            return None

        simulation.add_measurement_hook("stopper", stop_at_step_2)
        result = simulation.run()
        assert result.interrupted and result.stop_reason == "stop_requested"
        assert result.final_step == 2
        assert result.checkpoint_path is not None
        assert latest_checkpoint(tmp_path / "ckpt", spec.name) is not None

        resumed = Simulation(ite_spec(
            tmp_path, checkpoint_every=0, checkpoint_dir=str(tmp_path / "ckpt")
        )).run(resume=True)
        assert not resumed.interrupted and resumed.stop_reason is None
        assert resumed.records == reference.records

    def test_stop_request_on_final_step_completes(self, tmp_path):
        spec = ite_spec(tmp_path, n_steps=2, checkpoint_every=0)
        simulation = Simulation(spec)
        simulation.add_measurement_hook(
            "late", lambda sim, step: sim.request_stop() if step == 2 else None
        )
        result = simulation.run()
        assert not result.interrupted and result.stop_reason is None
        assert result.final_step == 2

    def test_stop_after_reports_reason(self, tmp_path):
        result = Simulation(ite_spec(tmp_path)).run(stop_after=2)
        assert result.interrupted and result.stop_reason == "stop_after"


class TestDeepCopyHelpers:
    def test_peps_copy_is_deep(self):
        state = peps.random_peps(2, 2, bond_dim=2, seed=0)
        for clone in (state.copy(), copy.copy(state), copy.deepcopy(state)):
            before = np.asarray(state.grid[0][0]).copy()
            clone.grid[0][0] = clone.grid[0][0] * 2.0
            np.testing.assert_array_equal(np.asarray(state.grid[0][0]), before)


class TestDeprecations:
    def test_expectation_shim_is_gone(self):
        # The deprecated repro.peps.expectation shim (PR 2) was removed;
        # the non-deprecated entry points live in repro.peps.measure.
        with pytest.raises(ImportError):
            import repro.peps.expectation  # noqa: F401

    def test_peps_expectation_does_not_warn(self):
        import warnings

        state = peps.random_peps(2, 2, bond_dim=1, seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            state.expectation(Observable.Z(0))


class TestMisspeltOptionKeys:
    """A key that is no field of the option class, or that no workload
    reads from the ``algorithm`` block, is an error naming the accepted
    keys — not a silently dropped truncation or time step."""

    CASES = [
        ("update", {"kind": "qr", "rnk": 4}, "rnk", "rank"),
        ("contraction", {"kind": "bmps", "svd": {"kind": "explicit", "rnk": 4}}, "rnk", "rank"),
        ("contraction", {"kind": "ctm", "chii": 8}, "chii", "chi"),
    ]

    @pytest.mark.parametrize("block,config,key,meant", CASES)
    def test_io_form_rejects_unknown_keys(self, block, config, key, meant):
        from_dict = update_option_from_dict if block == "update" else contract_option_from_dict
        with pytest.raises(ValueError, match=f"'{key}'.*accepted fields.*did you mean '{meant}'"):
            from_dict(config)

    @pytest.mark.parametrize("block,config,key,meant", CASES)
    def test_spec_builders_reject_unknown_keys(self, tmp_path, block, config, key, meant):
        spec = ite_spec(tmp_path, **{block: config})
        build = spec.build_update_option if block == "update" else spec.build_contract_option
        with pytest.raises(ValueError, match=f"'{key}'.*accepted fields.*did you mean '{meant}'"):
            build()

    def test_shorthand_rejects_unknown_keys_too(self, tmp_path):
        spec = ite_spec(tmp_path, contraction={"kind": "ibmps", "bnd": 4})
        with pytest.raises(ValueError, match="'bnd'.*accepted fields"):
            spec.build_contract_option()

    @pytest.mark.parametrize("workload,algorithm,key,meant", [
        ("ite", {"tau": 0.05, "nshot": 4}, "nshot", "nshots"),
        ("ite", {"tau": 0.05, "taus": 0.5}, "taus", "tau"),
        ("ite", {"sampler": "mc"}, "sampler", None),
        ("ite", {"sampler": {"kind": "mc", "sweeps": 8}}, "sampler", None),
        ("vqe", {"n_layer": 1}, "n_layer", "n_layers"),
        ("rqc_amplitude", {"entangle_evry": 2}, "entangle_evry", "entangle_every"),
    ], ids=["nshot", "taus", "sampler", "sampler-config", "n_layer", "entangle_evry"])
    def test_workloads_reject_unknown_algorithm_keys(self, workload, algorithm, key, meant):
        spec = RunSpec.from_dict({
            "name": "typo", "workload": workload, "lattice": [2, 2], "n_steps": 1,
            "seed": 0, "model": {"kind": "transverse_field_ising"}, "algorithm": algorithm,
        })
        hint = f".*did you mean '{meant}'" if meant else ""
        with pytest.raises(ValueError, match=f"algorithm keys \\['{key}'\\]; known: \\[.*\\]{hint}"):
            Simulation(spec)

    def test_correct_spellings_build_the_documented_objects(self, tmp_path):
        assert update_option_from_dict({"kind": "qr", "rank": 4}) == QRUpdate(rank=4)
        assert contract_option_from_dict(
            {"kind": "bmps", "svd": {"kind": "explicit", "rank": 4}}
        ) == BMPS(ExplicitSVD(rank=4))
        assert contract_option_from_dict({"kind": "ctm", "chi": 8}) == CTMOption(chi=8)
        spec = ite_spec(tmp_path, contraction={"kind": "ibmps", "bond": 4})
        assert spec.build_contract_option() == BMPS(ImplicitRandomizedSVD(rank=4, seed=0))
