"""Golden-run and example-spec tests.

Two guarantees live here:

* **Bitwise stability of pre-existing square-lattice runs.**  The files under
  ``tests/golden/`` were produced by the CLI *before* the lattice-layer
  refactor (and regenerated, deliberately, each time a contraction changed
  how it rounds: for the one planner energies moved by at most 3.2e-16
  relative, for the subset search that reaches the 7-9 operand strip columns
  by at most 4.6e-16; for the NumPy backend executing the plan's own steps
  as matrix products, by 1.1e-15 on ``ite_smoke`` and by 4.2e-8 on
  ``ite_ctm_smoke`` -- not rounding any more: CTM's ``_gram_half`` takes the
  square root of round-off-sized eigenvalues of rank-deficient corner Grams,
  so any re-association of the Gram einsums moves the energy at the
  ``sqrt(eps)`` level -- and not at all on ``ite_dist_smoke``; when an
  implicit ``einsumsvd`` whose sketch covers its operator's short side
  started to run the explicit SVD, by 9.2e-16 on ``ite_smoke`` and by
  7.75e-11 on ``ite_dist_smoke``, whose old values carried the error of
  Algorithm 5's Gram QR and which now equals ``ite_smoke`` byte for byte);
  ``python tests/regenerate_golden.py`` rewrites them and reports the
  deviation.  Re-running the same specs must reproduce the results stream
  and the final checkpoints byte for byte (sha256).
  Hamiltonian terms, Trotter gates and RNG streams all follow lattice bond
  order, so any accidental reordering shows up here immediately.

* **Every shipped example spec keeps working.**  Each ``examples/specs``
  file must survive a from_file -> to_dict -> from_dict round trip and build
  its workload, and the specs exercising the new subsystems (checkerboard
  Hubbard, basis-state sampling) must run end-to-end through
  ``python -m repro.sim`` — including an interrupt/resume cycle and a
  sweep — with bitwise-identical results.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.sim import RunSpec, SweepSpec, build_workload

REPO_ROOT = Path(__file__).resolve().parent.parent
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
SPEC_DIR = REPO_ROOT / "examples" / "specs"

GOLDEN = {
    key: entry
    for key, entry in json.loads((GOLDEN_DIR / "checkpoint_hashes.json").read_text()).items()
    if not key.startswith("_")
}


def cli_env():
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


def run_cli(cwd, *args):
    return subprocess.run(
        [sys.executable, "-m", "repro.sim", *[str(a) for a in args]],
        env=cli_env(), cwd=cwd, capture_output=True, text=True,
    )


def run_golden(workdir, entry):
    """Run one golden spec in ``workdir``: its records stream and the sha256
    of each pinned checkpoint file (``regenerate_golden.py`` rewrites the
    golden files from exactly this)."""
    result = run_cli(
        workdir, "run", REPO_ROOT / entry["spec"], "--quiet",
        "--results", entry["results"],
        "--checkpoint-dir", entry["checkpoint_dir"],
    )
    assert result.returncode == 0, result.stderr
    digests = {
        filename: hashlib.sha256(
            (workdir / entry["checkpoint_dir"] / filename).read_bytes()
        ).hexdigest()
        for filename in entry["checkpoints"]
    }
    return (workdir / entry["results"]).read_text(), digests


class TestGoldenBitwise:
    """Re-run the pre-refactor golden specs and compare bytes."""

    @pytest.mark.parametrize("key", sorted(GOLDEN), ids=sorted(GOLDEN))
    def test_records_and_checkpoints_match_golden(self, tmp_path, key):
        entry = GOLDEN[key]
        produced, digests = run_golden(tmp_path, entry)
        assert produced == (GOLDEN_DIR / f"{key}_records.jsonl").read_text()
        assert digests == entry["checkpoints"]


class TestDistributedParity:
    """The pool executor reproduces the simulated backend's golden run
    bitwise — identical records stream and checkpoint sha256 — for every
    rank count.  This is the serial<->parallel parity guarantee: the block
    placement of the contraction work must not leak into the numerics."""

    def test_distributed_golden_records_are_the_numpy_ones(self):
        """Every IBMPS call of the 2x2 smoke run has a sketch that covers its
        operator's short side, so both backends factor the same contracted
        matrices with the same SVD: no Gram QR sets the distributed run apart."""
        numpy_records = (GOLDEN_DIR / "ite_smoke_records.jsonl").read_bytes()
        assert (GOLDEN_DIR / "ite_dist_smoke_records.jsonl").read_bytes() == numpy_records

    @pytest.mark.parametrize("nprocs", [1, 2, 4], ids=lambda n: f"nprocs{n}")
    def test_pool_executor_matches_simulated_golden(self, tmp_path, nprocs):
        entry = GOLDEN["ite_dist_smoke"]
        payload = json.loads((REPO_ROOT / entry["spec"]).read_text())
        payload["backend"] = dict(
            payload["backend"], executor="pool", nprocs=nprocs
        )
        spec_path = tmp_path / "pool.json"
        spec_path.write_text(json.dumps(payload))

        result = run_cli(
            tmp_path, "run", spec_path, "--quiet",
            "--results", entry["results"],
            "--checkpoint-dir", entry["checkpoint_dir"],
        )
        assert result.returncode == 0, result.stderr

        produced = (tmp_path / entry["results"]).read_text()
        golden = (GOLDEN_DIR / "ite_dist_smoke_records.jsonl").read_text()
        assert produced == golden

        for filename, digest in entry["checkpoints"].items():
            data = (tmp_path / entry["checkpoint_dir"] / filename).read_bytes()
            assert hashlib.sha256(data).hexdigest() == digest, filename


@pytest.mark.parametrize(
    "path", sorted(SPEC_DIR.glob("*.json")), ids=lambda p: p.name,
)
class TestExampleSpecRoundTrip:
    def test_from_file_to_dict_from_dict_parity(self, path):
        payload = json.loads(path.read_text())
        cls = SweepSpec if "base" in payload else RunSpec
        first = cls.from_file(path).to_dict()
        second = cls.from_dict(first).to_dict()
        assert first == second
        json.dumps(first)  # the round-tripped payload must stay JSON-clean

    def test_every_point_builds_its_workload(self, path):
        payload = json.loads(path.read_text())
        if "base" in payload:
            specs = [point.spec for point in SweepSpec.from_file(path).expand()]
        else:
            specs = [RunSpec.from_file(path)]
        for spec in specs:
            assert build_workload(spec).spec is spec


class TestNewSpecsEndToEnd:
    """The checkerboard-Hubbard and sampling specs run through the CLI,
    survive an interrupt/resume cycle bitwise, and drive a sweep."""

    @pytest.mark.parametrize("spec_name, stop_after", [
        ("hubbard_checkerboard_smoke.json", 3),
        ("ite_sampling_smoke.json", 2),
    ])
    def test_run_interrupt_resume_bitwise(self, tmp_path, spec_name, stop_after):
        spec_path = SPEC_DIR / spec_name
        ref = run_cli(tmp_path, "run", spec_path, "--quiet",
                      "--results", "ref.jsonl", "--checkpoint-dir", "ref-ckpt")
        assert ref.returncode == 0, ref.stderr
        records = [json.loads(line)
                   for line in (tmp_path / "ref.jsonl").read_text().splitlines()]
        assert records and all("energy" in r for r in records)

        crashed = run_cli(tmp_path, "run", spec_path, "--quiet",
                          "--results", "out.jsonl", "--stop-after", stop_after)
        assert crashed.returncode == 3, crashed.stderr
        resumed = run_cli(tmp_path, "run", spec_path, "--quiet",
                          "--results", "out.jsonl", "--resume")
        assert resumed.returncode == 0, resumed.stderr
        assert (tmp_path / "out.jsonl").read_text() == (tmp_path / "ref.jsonl").read_text()

    def test_sampling_records_carry_samples(self, tmp_path):
        spec_path = SPEC_DIR / "ite_sampling_smoke.json"
        spec = RunSpec.from_file(spec_path)
        result = run_cli(tmp_path, "run", spec_path, "--quiet", "--results", "out.jsonl")
        assert result.returncode == 0, result.stderr
        records = [json.loads(line)
                   for line in (tmp_path / "out.jsonl").read_text().splitlines()]
        nshots = spec.algorithm["nshots"]
        for record in records:
            samples = record["samples"]
            assert len(samples) == nshots
            assert all(len(shot) == spec.nrow * spec.ncol for shot in samples)
            assert all(bit in (0, 1) for shot in samples for bit in shot)

    @pytest.mark.parametrize("spec_name", [
        "hubbard_checkerboard_smoke.json",
        "ite_sampling_smoke.json",
    ])
    def test_sweep_interrupt_resume_bitwise(self, tmp_path, spec_name):
        base = json.loads((SPEC_DIR / spec_name).read_text())
        # Sweeps manage per-point output locations themselves.
        base.pop("results", None)
        base.pop("checkpoint_dir", None)
        base["n_steps"] = 2
        base["checkpoint_every"] = 1
        sweep_path = tmp_path / "sweep.json"
        sweep_path.write_text(json.dumps({
            "name": f"{base['name']}-sweep",
            "base": base,
            "axes": {"update.rank": [1, 2]},
            "sweep_dir": "sweep-ref",
        }))

        ref = run_cli(tmp_path, "sweep", sweep_path, "--quiet",
                      "--results", "ref.jsonl", "--sweep-dir", str(tmp_path / "ref"))
        assert ref.returncode == 0, ref.stderr
        crashed = run_cli(tmp_path, "sweep", sweep_path, "--quiet",
                          "--results", "out.jsonl", "--stop-after-points", "1")
        assert crashed.returncode == 3, crashed.stderr
        resumed = run_cli(tmp_path, "sweep", sweep_path, "--quiet",
                          "--results", "out.jsonl", "--resume")
        assert resumed.returncode == 0, resumed.stderr
        assert (tmp_path / "out.jsonl").read_text() == (tmp_path / "ref.jsonl").read_text()
