"""Checkpoints written by an earlier build keep resuming.

``tests/golden/compat/`` holds three frozen mid-run checkpoints of the
``ite_ctm_smoke`` spec (step 2 of 5), written by the last build that could
still *write* the inline payload format — the parent commit of the change
that made it read-only — each next to the ``reference.jsonl`` the same build
produced running the same spec uninterrupted:

* ``inline/``  — the all-JSON document (base64 tensors, the v1 encoding),
* ``npz/``     — a version-2 document plus its ``.ckpt.npz`` sidecar,
* ``sharded/`` — the same spec on ``{"kind": "distributed", "nprocs": 2}``:
  a document plus one ``.ckpt.rank<r>.npz`` file per rank.

Every fixture must resume to completion and reproduce its reference records
byte for byte.  The files are never regenerated: a build that cannot read
them has broken compatibility, and a contraction change that moves the
energies (see ``tests/regenerate_golden.py``) needs the *records* compared at
the tolerance it reports, not new fixtures.

``sharded/`` is that case.  Its writer ran each distributed block through
NumPy's C einsum kernel; this build runs it as BLAS matrix products, which
round differently in the last bit, and CTM's projectors (``_gram_half`` takes
square roots of round-off-sized Gram eigenvalues) amplify that to 1.0e-8,
5.4e-9 and 2.2e-8 relative in the energies of steps 3-5.  Its records are
compared byte for byte except for the energies, which must agree to 1e-7
relative.
"""

import json
import re
import shutil
from pathlib import Path

import pytest

from repro.sim import RunSpec, Simulation
from repro.sim.io import (
    InlinePayloadStore,
    SerializationError,
    load_checkpoint,
    open_payload_store,
)
from test_spec_golden import run_cli

COMPAT_DIR = Path(__file__).resolve().parent / "golden" / "compat"
CHECKPOINT = "ite-ctm-smoke-step000002.ckpt.json"
#: A record's energy value, cut out to compare the rest of its bytes.
ENERGY = re.compile(rb'"energy": [^,}]*')


def fixture_copy(tmp_path, name):
    work = tmp_path / name
    shutil.copytree(COMPAT_DIR / name, work)
    return work


def resume_in_process(work):
    spec = RunSpec.from_dict(dict(
        json.loads((work / "spec.json").read_text()),
        checkpoint_dir=str(work), results=str(work / "out.jsonl"),
    ))
    return Simulation(spec).run(resume=True)


class TestFrozenCheckpointsResume:
    @pytest.mark.parametrize("name", ["inline", "npz", "sharded"])
    def test_cli_resume_reproduces_the_reference_bitwise(self, tmp_path, name):
        work = fixture_copy(tmp_path, name)
        result = run_cli(work, "run", "spec.json", "--resume", "--quiet")
        assert result.returncode == 0, result.stderr
        out = (work / "out.jsonl").read_bytes()
        reference = (work / "reference.jsonl").read_bytes()
        if name != "sharded":
            assert out == reference
            return
        out_lines, reference_lines = out.splitlines(), reference.splitlines()
        assert len(out_lines) == len(reference_lines)
        for line, expected in zip(out_lines, reference_lines):
            assert ENERGY.sub(b"", line) == ENERGY.sub(b"", expected)
            energy, reference_energy = json.loads(line)["energy"], json.loads(expected)["energy"]
            assert abs(energy - reference_energy) <= 1e-7 * abs(reference_energy)

    def test_payload_files_really_exist(self):
        """The fixtures exercise the file-backed stores, not all-inline ones."""
        npz = load_checkpoint(COMPAT_DIR / "npz" / CHECKPOINT)
        assert npz["payload_format"] == "npz" and npz["sidecar_sha256"]
        assert (COMPAT_DIR / "npz" / npz["sidecar"]).stat().st_size > 0
        sharded = load_checkpoint(COMPAT_DIR / "sharded" / CHECKPOINT)
        assert sharded["payload_format"] == "sharded" and len(sharded["shards"]) == 2
        inline = load_checkpoint(COMPAT_DIR / "inline" / CHECKPOINT)
        assert inline["payload_format"] == "inline" and inline["sidecar"] is None
        assert inline["spec"]["checkpoint_payload"] == "inline"

    def test_version_1_document_resumes(self, tmp_path):
        """The same inline document as PR 2 wrote it: ``format_version`` 1
        throughout and no ``payload_format`` / ``sidecar`` fields."""
        work = fixture_copy(tmp_path, "inline")
        document = json.loads((work / CHECKPOINT).read_text())

        def downgrade(node):
            if isinstance(node, dict):
                if node.get("format_version") == 2:
                    node["format_version"] = 1
                for value in node.values():
                    downgrade(value)
            elif isinstance(node, list):
                for value in node:
                    downgrade(value)

        downgrade(document)
        del document["payload_format"], document["sidecar"]
        (work / CHECKPOINT).write_text(json.dumps(document))
        payload = load_checkpoint(work / CHECKPOINT)
        assert isinstance(open_payload_store(payload, work / CHECKPOINT), InlinePayloadStore)

        result = resume_in_process(work)
        assert not result.interrupted
        reference = [json.loads(line) for line in (work / "reference.jsonl").open()]
        assert result.records == reference


class TestRefusals:
    """Torn, missing and mismatched payload files, through the one opener."""

    def open(self, work):
        path = work / CHECKPOINT
        return open_payload_store(load_checkpoint(path), path)

    def test_torn_sidecar_is_refused(self, tmp_path):
        work = fixture_copy(tmp_path, "npz")
        sidecar = work / "ite-ctm-smoke-step000002.ckpt.npz"
        sidecar.write_bytes(sidecar.read_bytes()[:-100])
        with pytest.raises(SerializationError, match="sidecar .* does not match the digest"):
            self.open(work)
        with pytest.raises(SerializationError, match="does not match the digest"):
            resume_in_process(work)

    def test_missing_rank_file_is_refused(self, tmp_path):
        work = fixture_copy(tmp_path, "sharded")
        (work / "ite-ctm-smoke-step000002.ckpt.rank1.npz").unlink()
        with pytest.raises(SerializationError, match="rank file .*rank1.npz' is missing"):
            self.open(work)

    @pytest.mark.parametrize("name", ["npz", "sharded"])
    def test_wrong_digest_is_refused(self, tmp_path, name):
        work = fixture_copy(tmp_path, name)
        document = json.loads((work / CHECKPOINT).read_text())
        if name == "npz":
            document["sidecar_sha256"] = "0" * 64
        else:
            document["shards"][0]["sha256"] = "0" * 64
        (work / CHECKPOINT).write_text(json.dumps(document))
        with pytest.raises(SerializationError, match="does not match the digest"):
            self.open(work)

    def test_payload_files_need_the_checkpoint_path(self):
        for name in ("npz", "sharded"):
            payload = load_checkpoint(COMPAT_DIR / name / CHECKPOINT)
            with pytest.raises(SerializationError, match="pass the checkpoint path"):
                open_payload_store(payload, None)


class TestRetiredPayloadKnob:
    """Specs of earlier builds name a ``checkpoint_payload``; whatever it
    says, a fresh run writes npz checkpoints, and resume reads every format."""

    @pytest.mark.parametrize("name", ["inline", "sharded"])
    def test_fresh_run_writes_npz(self, tmp_path, name):
        spec = json.loads((COMPAT_DIR / name / "spec.json").read_text())
        spec.update(checkpoint_payload=name, n_steps=2)
        (tmp_path / "spec.json").write_text(json.dumps(spec))
        result = run_cli(tmp_path, "run", "spec.json", "--quiet")
        assert result.returncode == 0, result.stderr
        written = sorted(path.name for path in tmp_path.glob("*.ckpt.*"))
        assert written == [CHECKPOINT, CHECKPOINT.replace(".json", ".npz")]
        document = load_checkpoint(tmp_path / CHECKPOINT)
        assert document["payload_format"] == "npz"
        assert "checkpoint_payload" not in document["spec"]
