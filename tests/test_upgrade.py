"""``repro.sim.upgrade``: every retired wire form is lifted in one place.

Each step has a unit test built from a minimal legacy document.  Two sampled
properties pin the table as a whole: a document the current build writes is
returned as the very object passed in, and lifting is idempotent — a lifted
document is current.
"""

import copy
import json
import os
import tempfile

import pytest
from hypothesis import given, strategies as st

from repro.peps import BMPS, Exact, QRUpdate, random_peps
from repro.peps.contraction.options import CTMOption
from repro.sim import RunSpec, Simulation, Sweep, SweepSpec
from repro.sim import io as sim_io
from repro.sim.upgrade import (
    CHECKPOINT,
    CONTRACTION,
    EINSUMSVD,
    ENVIRONMENT,
    MANIFEST,
    RUN_SPEC,
    SPEC_CONTRACTION,
    STEPS,
    SWEEP_SPEC,
    UPDATE,
    upgrade,
)
from repro.tensornetwork import ExplicitSVD, ImplicitRandomizedSVD
from test_properties import contract_options, svd_options, update_options
from tests.conftest import FAST

SPEC_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "examples", "specs")
KINDS = (CHECKPOINT, MANIFEST, ENVIRONMENT, RUN_SPEC, SWEEP_SPEC, CONTRACTION,
         SPEC_CONTRACTION, EINSUMSVD, UPDATE)


def wire(payload):
    return json.loads(json.dumps(payload))


def lifted(document, kind):
    """Upgrade ``document``, checking the input is left as it was."""
    before = copy.deepcopy(document)
    out = upgrade(document, kind)
    assert document == before
    return out


# --------------------------------------------------------------------- #
# One unit test per step
# --------------------------------------------------------------------- #
class TestSteps:
    def test_every_step_reads_a_known_kind(self):
        assert {step.kind for step in STEPS} == set(KINDS)
        assert all(step.retired_in for step in STEPS)
        with pytest.raises(KeyError):
            upgrade({}, "checkpoint")

    def test_version_1_checkpoint(self):
        legacy = {
            "format_version": 1, "type": "Checkpoint", "name": "run", "step": 2,
            "payload_format": "inline", "sidecar": None,
            "workload_state": {"format_version": 1, "workload": "ite",
                               "peps": {"format_version": 1, "type": "PEPS"}},
            "records": [{"step": 1}],
        }
        out = lifted(legacy, CHECKPOINT)
        assert out["format_version"] == 2
        assert out["workload_state"]["format_version"] == 2
        assert out["workload_state"]["peps"]["format_version"] == 2
        assert out == {**legacy, "format_version": 2, "workload_state": out["workload_state"]}

    def test_checkpoint_without_payload_format(self):
        legacy = {"format_version": 2, "type": "Checkpoint", "name": "run", "step": 2}
        out = lifted(legacy, CHECKPOINT)
        assert out == {**legacy, "payload_format": "inline", "sidecar": None}

    def test_version_1_manifest(self):
        legacy = {"format_version": 1, "type": "SweepManifest", "points": []}
        assert lifted(legacy, MANIFEST) == {**legacy, "format_version": 2}

    @pytest.mark.parametrize("payload", ["npz", "sharded", "inline", "hdf5"])
    def test_run_spec_checkpoint_payload(self, payload):
        legacy = {"name": "run", "workload": "ite", "checkpoint_payload": payload}
        assert lifted(legacy, RUN_SPEC) == {"name": "run", "workload": "ite"}

    @pytest.mark.parametrize("payload", ["npz", "sharded", "inline", None])
    def test_run_spec_builds_the_same_whatever_payload_it_names(self, payload):
        """Spec files and stored ``RunSpec.to_dict()`` payloads of earlier
        builds name a checkpoint format; every one builds the spec an
        unnamed one does (``None``: the key is absent)."""
        current = {"name": "run", "workload": "ite", "lattice": [3, 3], "seed": 5,
                   "contraction": {"kind": "ibmps", "bond": 4}, "checkpoint_every": 2}
        legacy = dict(current)
        if payload is not None:
            legacy["checkpoint_payload"] = payload
        spec = RunSpec.from_dict(legacy)
        assert spec == RunSpec.from_dict(current)
        assert "checkpoint_payload" not in spec.to_dict()
        assert RunSpec.from_dict({**spec.to_dict(), "checkpoint_payload": payload}) == spec

    def test_ladder_shaped_sweep_base_naming_npz_expands(self, tmp_path):
        """The sweep ladder workload's base still names ``"npz"``."""
        spec = SweepSpec.from_dict({
            "name": "sweep_shell",
            "base": {"name": "point", "workload": "rqc_amplitude", "lattice": [2, 2],
                     "seed": 3, "algorithm": {"n_layers": 4, "entangle_every": 2},
                     "update": {"kind": "qr", "rank": 16},
                     "contraction": {"kind": "ibmps", "bond": 16, "seed": 0},
                     "measure_every": 10 ** 6,
                     "checkpoint_every": 10 ** 6, "checkpoint_payload": "npz"},
            "axes": {"update.rank": [16, 24], "contraction.bond": [16, 32]},
            "sweep_dir": str(tmp_path / "sweep"),
        })
        points = spec.expand()
        assert len(points) == 4
        assert all(point.spec.checkpoint_every == 10 ** 6 for point in points)

    def test_sweep_overrides_naming_checkpoint_payload(self, tmp_path):
        """A saved sweep whose axes or points override the retired field
        loads: the axis goes, the key leaves every point."""
        base = {"name": "point", "workload": "rqc_amplitude", "lattice": [2, 2], "seed": 3,
                "algorithm": {"n_layers": 4, "entangle_every": 2}, "measure_every": 10 ** 6}
        by_axes = {"name": "s", "base": base, "sweep_dir": str(tmp_path / "a"),
                   "axes": {"checkpoint_payload": ["npz", "sharded"], "update.rank": [16, 24]}}
        assert lifted(by_axes, SWEEP_SPEC) == {**by_axes, "axes": {"update.rank": [16, 24]}}
        by_points = {"name": "s", "base": base, "sweep_dir": str(tmp_path / "p"),
                     "points": [{"checkpoint_payload": "sharded", "update.rank": 16},
                                {"checkpoint_payload.x": 1}]}
        assert lifted(by_points, SWEEP_SPEC)["points"] == [{"update.rank": 16}, {}]
        assert len(SweepSpec.from_dict(by_axes).expand()) == 2
        assert len(SweepSpec.from_dict(by_points).expand()) == 2

    @pytest.mark.parametrize("every", [1, 2, 0, -1, 2.5, "x", None])
    def test_run_spec_normalize_every(self, every):
        """Every value goes: each step renormalizes, as the default did."""
        current = {"name": "run", "workload": "ite", "algorithm": {"tau": 0.1}}
        legacy = {**current, "algorithm": {"tau": 0.1, "normalize_every": every}}
        assert lifted(legacy, RUN_SPEC) == current
        assert RunSpec.from_dict(legacy) == RunSpec.from_dict(current)

    def test_normalize_every_of_another_workload_stays_unknown(self, tmp_path):
        """Only ITE read the key: a VQE spec naming it, or a sweep whose
        points may run VQE, is left as it is and still rejected."""
        vqe = {"name": "run", "workload": "vqe", "lattice": [2, 2],
               "algorithm": {"normalize_every": 1}}
        assert lifted(vqe, RUN_SPEC) is vqe
        with pytest.raises(ValueError, match="does not read algorithm keys.*normalize_every"):
            Simulation(RunSpec.from_dict(vqe))
        ite = {"name": "point", "workload": "ite", "lattice": [2, 2], "n_steps": 1}
        for document in (
            {"name": "s", "base": {**vqe, "algorithm": {}}, "sweep_dir": str(tmp_path / "a"),
             "axes": {"algorithm.normalize_every": [1, 2]}},
            {"name": "s", "base": ite, "sweep_dir": str(tmp_path / "w"),
             "axes": {"workload": ["ite", "vqe"], "algorithm.normalize_every": [1]}},
            {"name": "s", "base": ite, "sweep_dir": str(tmp_path / "p"),
             "points": [{"workload": "vqe", "algorithm.normalize_every": 3}]},
        ):
            assert lifted(document, SWEEP_SPEC) is document

    def test_sweep_overrides_naming_normalize_every(self, tmp_path):
        """A dotted path is retired with everything inside it, and only that."""
        base = {"name": "point", "workload": "ite", "lattice": [2, 2], "n_steps": 1}
        by_axes = {"name": "s", "base": base, "sweep_dir": str(tmp_path / "a"),
                   "axes": {"algorithm.normalize_every": [1, 2], "algorithm.tau": [0.1, 0.05]}}
        assert lifted(by_axes, SWEEP_SPEC) == {**by_axes, "axes": {"algorithm.tau": [0.1, 0.05]}}
        by_points = {"name": "s", "base": base, "sweep_dir": str(tmp_path / "p"),
                     "points": [{"algorithm.normalize_every": 3, "algorithm.tau": 0.1},
                                {"algorithm.normalize_everyday": 1, "algorithm": {"tau": 0.2}}]}
        assert lifted(by_points, SWEEP_SPEC)["points"] == [
            {"algorithm.tau": 0.1}, {"algorithm.normalize_everyday": 1, "algorithm": {"tau": 0.2}}]
        points = SweepSpec.from_dict(by_axes).expand()
        assert [point.spec.algorithm for point in points] == [{"tau": 0.1}, {"tau": 0.05}]

    def test_two_layer_bmps_kind(self):
        svd = {"kind": "explicit", "rank": 3}
        legacy = {"kind": "two_layer_bmps", "svd": svd}
        assert lifted(legacy, CONTRACTION) == {"kind": "bmps", "svd": svd}

    @pytest.mark.parametrize("legacy, expected", [
        ({"kind": "bmps", "svd": {"kind": "explicit", "rank": 8}, "truncate_bond": None},
         {"kind": "bmps", "svd": {"kind": "explicit", "rank": 8}}),
        ({"kind": "bmps", "svd": {"kind": "explicit", "rank": 8}, "truncate_bond": 2},
         {"kind": "bmps", "svd": {"kind": "explicit", "rank": 2}}),
        ({"kind": "bmps", "svd": None, "truncate_bond": 2},
         {"kind": "bmps", "svd": {"rank": 2}}),
        ({"kind": "two_layer_bmps", "truncate_bond": 3},
         {"kind": "bmps", "svd": {"rank": 3}}),
    ], ids=["null", "folds-into-rank", "no-svd", "two-layer-kind"])
    def test_truncate_bond_folds_into_svd_rank(self, legacy, expected):
        assert lifted(legacy, CONTRACTION) == expected

    @pytest.mark.parametrize("kind", ["exact", "ctm"])
    def test_truncate_bond_is_lifted_on_boundary_mps_kinds_only(self, kind):
        legacy = {"kind": kind, "truncate_bond": 2}
        assert upgrade(legacy, CONTRACTION) is legacy
        with pytest.raises(sim_io.SerializationError, match="truncate_bond"):
            sim_io.contract_option_from_dict(legacy)

    def test_ctm_convergence_knobs(self):
        legacy = {"kind": "ctm", "chi": 8, "tol": 1e-10, "max_sweeps": 4}
        assert lifted(legacy, CONTRACTION) == {"kind": "ctm", "chi": 8}
        assert lifted({"kind": "ctm", "chi": 8, "tol": 1e-10}, CONTRACTION) == {
            "kind": "ctm", "chi": 8,
        }

    def test_environment_ctm_state(self):
        legacy = {"format_version": 2, "type": "Environment",
                  "contract_option": {"kind": "ctm", "chi": 4},
                  "upper_valid": 0, "lower_valid": 2, "upper": [], "lower": [],
                  "ctm_state": {"converged": True, "n_sweeps": 2}}
        out = lifted(legacy, ENVIRONMENT)
        assert "ctm_state" not in out
        assert out == {k: v for k, v in legacy.items() if k != "ctm_state"}

    @pytest.mark.parametrize("legacy, current", [
        ("two_layer_bmps", "bmps"), ("two_layer_ibmps", "ibmps"),
    ])
    def test_spec_two_layer_shorthand(self, legacy, current):
        block = {"kind": legacy, "bond": 4, "seed": 1}
        assert lifted(block, SPEC_CONTRACTION) == {**block, "kind": current}

    @pytest.mark.parametrize("kind, document", [
        (CONTRACTION, {"kind": "ctm", "chi": 8}),
        (EINSUMSVD, {"kind": "explicit", "rank": 4}),
        (UPDATE, {"kind": "qr", "rank": 2}),
    ], ids=["contraction", "einsumsvd", "update"])
    def test_cutoff(self, kind, document):
        """Truncation is by bond dimension alone: a null cutoff goes, any
        other is refused by name."""
        assert lifted({**document, "cutoff": None}, kind) == document
        for value in (1e-3, 0.0, 0):
            with pytest.raises(ValueError, match="'cutoff' is retired"):
                upgrade({**document, "cutoff": value}, kind)

    def test_absorb(self):
        document = {"kind": "implicit", "rank": 4, "seed": 0}
        assert lifted({**document, "absorb": "even"}, EINSUMSVD) == document
        for value in ("left", "right", "none"):
            with pytest.raises(ValueError, match="'absorb' is retired"):
                upgrade({**document, "absorb": value}, EINSUMSVD)

    def test_update_svd(self):
        document = {"kind": "qr", "rank": 2}
        assert lifted({**document, "svd": None}, UPDATE) == document
        with pytest.raises(ValueError, match="'svd' is retired"):
            upgrade({**document, "svd": {"kind": "implicit", "rank": 2}}, UPDATE)

    def test_sweep_mode(self):
        document = {"name": "s", "axes": {"update.rank": [1, 2]}}
        assert lifted({**document, "mode": "product"}, SWEEP_SPEC) == document
        with pytest.raises(ValueError, match="'mode' is retired.*points"):
            upgrade({**document, "mode": "zip"}, SWEEP_SPEC)

    def test_sweep_derive_seeds(self):
        document = {"name": "s", "axes": {"update.rank": [1, 2]}}
        assert lifted({**document, "derive_seeds": True}, SWEEP_SPEC) == document
        for value in (False, 1):
            with pytest.raises(ValueError, match="'derive_seeds' is retired"):
                upgrade({**document, "derive_seeds": value}, SWEEP_SPEC)

    @pytest.mark.parametrize("seconds", [0.05, 7.5, None])
    def test_sweep_queue_heartbeat_seconds(self, seconds):
        document = {"name": "s", "queue": {"max_attempts": 2, "poll_seconds": 0.01}}
        legacy = {**document, "queue": {**document["queue"], "heartbeat_seconds": seconds}}
        assert lifted(legacy, SWEEP_SPEC) == document

    @pytest.mark.parametrize("seconds", [30.0, 0.5, None])
    def test_sweep_queue_lease_seconds(self, seconds):
        document = {"name": "s", "queue": {"max_attempts": 2, "poll_seconds": 0.01}}
        legacy = {**document, "queue": {**document["queue"], "lease_seconds": seconds}}
        assert lifted(legacy, SWEEP_SPEC) == document
        alone = {"name": "s", "queue": {"lease_seconds": seconds, "heartbeat_seconds": 1.0}}
        assert lifted(alone, SWEEP_SPEC) == {"name": "s", "queue": {}}

    def test_retired_option_fields_load_through_the_readers(self):
        """Checkpoints and spec files of earlier builds spell every option
        field out; they build the options they always did."""
        svd = {"kind": "explicit", "rank": 3, "cutoff": None, "absorb": "even"}
        assert sim_io.svd_option_from_dict(svd) == ExplicitSVD(rank=3)
        assert sim_io.contract_option_from_dict({"kind": "bmps", "svd": svd}) == BMPS(
            ExplicitSVD(rank=3))
        assert sim_io.contract_option_from_dict(
            {"kind": "ctm", "chi": 8, "cutoff": None}) == CTMOption(chi=8)
        assert sim_io.update_option_from_dict(
            {"kind": "qr", "rank": 2, "cutoff": None, "svd": None}) == QRUpdate(rank=2)
        spec = RunSpec(contraction={"kind": "ibmps", "bond": 4, "cutoff": None,
                                    "absorb": "even"}, update={"rank": 2, "cutoff": None})
        assert spec.build_contract_option() == BMPS(ImplicitRandomizedSVD(rank=4, seed=0))
        assert spec.build_update_option() == QRUpdate(rank=2)
        with pytest.raises(ValueError, match="'cutoff' is retired"):
            RunSpec(contraction={"kind": "bmps", "bond": 4, "cutoff": 0.1}).build_contract_option()

    def test_retired_sweep_fields_load_through_the_reader(self, tmp_path):
        base = {"workload": "ite", "lattice": [2, 2], "n_steps": 1, "seed": 3,
                "model": {"kind": "transverse_field_ising"}}
        current = {"name": "s", "base": base, "axes": {"update.rank": [1, 2]},
                   "sweep_dir": str(tmp_path), "queue": {"max_attempts": 4}}
        legacy = {**current, "mode": "product", "derive_seeds": True,
                  "queue": {"max_attempts": 4, "lease_seconds": 4.0,
                            "heartbeat_seconds": 0.5}}
        assert SweepSpec.from_dict(legacy) == SweepSpec.from_dict(current)
        with pytest.raises(ValueError, match="points"):
            SweepSpec.from_dict({**current, "mode": "zip"})

    @pytest.mark.parametrize("kind", KINDS)
    def test_non_dicts_pass_through_for_the_codec_to_reject(self, kind):
        assert upgrade(None, kind) is None
        marker = ["not", "a", "document"]
        assert upgrade(marker, kind) is marker


# --------------------------------------------------------------------- #
# Shipped and frozen specs build what they built before the retirements
# --------------------------------------------------------------------- #
ROOT = os.path.dirname(os.path.dirname(SPEC_DIR))
IBMPS4 = BMPS(ImplicitRandomizedSVD(rank=4, seed=0))
BUILT_BY_SPEC = {
    "examples/specs/hubbard_checkerboard_smoke.json": (IBMPS4, QRUpdate(rank=2)),
    "examples/specs/ite_ctm_smoke.json": (CTMOption(chi=8), QRUpdate(rank=2)),
    "examples/specs/ite_dist_smoke.json": (IBMPS4, QRUpdate(rank=2)),
    "examples/specs/ite_sampling_smoke.json": (IBMPS4, QRUpdate(rank=2)),
    "examples/specs/ite_smoke.json": (IBMPS4, QRUpdate(rank=2)),
    "tests/golden/compat/inline/spec.json": (CTMOption(chi=8), QRUpdate(rank=2)),
    "tests/golden/compat/npz/spec.json": (CTMOption(chi=8), QRUpdate(rank=2)),
    "tests/golden/compat/sharded/spec.json": (CTMOption(chi=8), QRUpdate(rank=2)),
}


class TestSpecsBuildTheSameObjects:
    @pytest.mark.parametrize("name", sorted(BUILT_BY_SPEC))
    def test_run_specs(self, name):
        with open(os.path.join(ROOT, name)) as handle:
            spec = RunSpec.from_dict(json.load(handle))
        assert (spec.build_contract_option(), spec.build_update_option()) == BUILT_BY_SPEC[name]

    def test_sweep_spec(self):
        with open(os.path.join(SPEC_DIR, "ite_sweep_smoke.json")) as handle:
            points = SweepSpec.from_dict(json.load(handle)).expand()
        assert [(p.name, p.payload["seed"], p.spec.build_contract_option(),
                 p.spec.build_update_option()) for p in points] == [
            ("0000-rank1-bond2", 8141949595410671981,
             BMPS(ImplicitRandomizedSVD(rank=2, seed=0)), QRUpdate(rank=1)),
            ("0001-rank1-bond4", 4488123607163468292, IBMPS4, QRUpdate(rank=1)),
            ("0002-rank2-bond2", 630026451310891759,
             BMPS(ImplicitRandomizedSVD(rank=2, seed=0)), QRUpdate(rank=2)),
            ("0003-rank2-bond4", 3969197366336509226, IBMPS4, QRUpdate(rank=2)),
        ]


# --------------------------------------------------------------------- #
# Current documents are returned as the same object
# --------------------------------------------------------------------- #
state_options = st.one_of(
    st.none(),
    st.just(Exact()),
    st.builds(lambda m: BMPS(ExplicitSVD(rank=m)), st.integers(1, 4)),
    st.builds(lambda m: BMPS(ImplicitRandomizedSVD(rank=m, seed=0)), st.integers(1, 4)),
    st.builds(lambda chi: CTMOption(chi=chi), st.integers(1, 4)),
)
spec_contractions = st.one_of(
    st.fixed_dictionaries(
        {"kind": st.sampled_from(["bmps", "ibmps"]), "bond": st.integers(1, 16)},
        optional={"niter": st.integers(0, 3), "seed": st.integers(0, 9)},
    ),
    st.fixed_dictionaries({"bond": st.integers(1, 16)}),
    st.builds(lambda chi: {"kind": "ctm", "chi": chi}, st.integers(1, 16)),
    contract_options.map(lambda option: wire(sim_io.option_to_dict(option))),
)


def state_with_environment(nrow, ncol, option, build, seed):
    state = random_peps(nrow, ncol, bond_dim=2, seed=seed)
    if option is not None:
        env = state.attach_environment(option)
        if build:
            env.build()
    return state


def checkpoint_document(state):
    """A checkpoint of ``state`` as this build writes it, read back raw."""
    with tempfile.TemporaryDirectory() as directory:
        store = sim_io.NpzPayloadStore()
        path = sim_io.write_checkpoint(
            directory, "run", 1, {"name": "run"},
            {"format_version": sim_io.FORMAT_VERSION, "workload": "ite",
             "peps": sim_io.peps_to_dict(state, store=store)},
            [{"step": 1}], store=store,
        )
        with open(path) as handle:
            raw = json.load(handle)
        assert sim_io.load_checkpoint(path) == raw
    return raw


@pytest.fixture(scope="module")
def manifests(tmp_path_factory):
    """The manifests of one small sweep: mid-run and finished."""
    directory = tmp_path_factory.mktemp("sweep")
    spec = SweepSpec.from_dict({
        "name": "upgrade-sweep",
        "base": {"workload": "ite", "lattice": [2, 2], "n_steps": 1, "seed": 3,
                 "model": {"kind": "transverse_field_ising"},
                 "contraction": {"kind": "bmps", "bond": 2}, "checkpoint_every": 1},
        "axes": {"update.rank": [1, 2, 3]},
        "sweep_dir": str(directory / "sweep"),
    })
    documents = []
    for resume in (False, True):
        result = Sweep(spec).run(resume=resume, stop_after_points=None if resume else 1)
        with open(result.manifest_path) as handle:
            documents.append(json.load(handle))
        assert Sweep.load_manifest(result.manifest_path) == documents[-1]
    return documents


class TestCurrentDocumentsAreUntouched:
    @FAST
    @given(pair=st.one_of(
        st.tuples(svd_options, st.just((EINSUMSVD, SPEC_CONTRACTION))),
        st.tuples(contract_options, st.just((CONTRACTION, SPEC_CONTRACTION))),
        st.tuples(update_options, st.just((UPDATE,))),
    ))
    def test_option_dicts(self, pair):
        option, kinds = pair
        document = wire(sim_io.option_to_dict(option))
        for kind in kinds:
            assert upgrade(document, kind) is document

    @FAST
    @given(block=spec_contractions)
    def test_spec_contraction_blocks(self, block):
        assert upgrade(block, SPEC_CONTRACTION) is block

    @FAST
    @given(nrow=st.integers(1, 3), ncol=st.integers(1, 3), option=state_options,
           build=st.booleans(), seed=st.integers(0, 99))
    def test_state_and_checkpoint_documents(self, nrow, ncol, option, build, seed):
        state = state_with_environment(nrow, ncol, option, build, seed)
        document = wire(sim_io.peps_to_dict(state))
        environment = document["environment"]
        if environment is not None:
            assert upgrade(environment, ENVIRONMENT) is environment
            contract = environment["contract_option"]
            assert upgrade(contract, CONTRACTION) is contract
        checkpoint = checkpoint_document(state)
        assert upgrade(checkpoint, CHECKPOINT) is checkpoint

    @FAST
    @given(data=st.data())
    def test_manifests(self, manifests, data):
        manifest = data.draw(st.sampled_from(manifests))
        points = data.draw(st.lists(st.sampled_from(manifest["points"]), max_size=4))
        document = {**manifest, "points": points}
        assert upgrade(document, MANIFEST) is document

    @pytest.mark.parametrize("name", sorted(
        name for name in os.listdir(SPEC_DIR) if "sweep" not in name
    ))
    def test_run_specs(self, name):
        with open(os.path.join(SPEC_DIR, name)) as handle:
            document = json.load(handle)
        assert upgrade(document, RUN_SPEC) is document
        stored = RunSpec.from_dict(document).to_dict()
        assert upgrade(stored, RUN_SPEC) is stored

    @pytest.mark.parametrize("name", sorted(
        name for name in os.listdir(SPEC_DIR) if "sweep" in name
    ))
    def test_sweep_specs(self, name):
        with open(os.path.join(SPEC_DIR, name)) as handle:
            document = json.load(handle)
        assert upgrade(document, SWEEP_SPEC) is document
        stored = SweepSpec.from_dict(document).to_dict()
        assert upgrade(stored, SWEEP_SPEC) is stored


# --------------------------------------------------------------------- #
# Lifting is idempotent
# --------------------------------------------------------------------- #
def downgrade_to_version_1(node):
    """``node`` as a version-1 build wrote it (every version stamp 1)."""
    if isinstance(node, dict):
        out = {key: downgrade_to_version_1(value) for key, value in node.items()}
        if out.get("format_version") == 2:
            out["format_version"] = 1
        return out
    if isinstance(node, list):
        return [downgrade_to_version_1(value) for value in node]
    return node


@st.composite
def legacy_contractions(draw):
    """A current contraction option dict dressed in retired forms."""
    current = wire(sim_io.option_to_dict(draw(contract_options)))
    legacy = dict(current)
    if legacy["kind"] == "bmps":
        if draw(st.booleans()):
            legacy["kind"] = "two_layer_bmps"
        if draw(st.booleans()):
            legacy["truncate_bond"] = draw(st.none() | st.integers(1, 8))
    elif legacy["kind"] == "ctm":
        if draw(st.booleans()):
            legacy["cutoff"] = None
        if draw(st.booleans()):
            legacy["tol"] = 1e-10
        if draw(st.booleans()):
            legacy["max_sweeps"] = draw(st.integers(1, 8))
    return current, legacy


class TestLiftingIsIdempotent:
    @FAST
    @given(pair=legacy_contractions())
    def test_contraction_options(self, pair):
        current, legacy = pair
        once = lifted(legacy, CONTRACTION)
        assert upgrade(once, CONTRACTION) is once
        bond = legacy.get("truncate_bond")
        if bond is None:
            assert once == current
        else:
            option = sim_io.contract_option_from_dict(once)
            assert option.truncation_bond == bond

    @FAST
    @given(block=spec_contractions, two_layer=st.booleans())
    def test_spec_contraction_blocks(self, block, two_layer):
        legacy = dict(block)
        if two_layer and legacy.get("kind") in ("bmps", "ibmps"):
            legacy["kind"] = "two_layer_" + legacy["kind"]
        once = lifted(legacy, SPEC_CONTRACTION)
        assert upgrade(once, SPEC_CONTRACTION) is once
        assert once == block

    @FAST
    @given(nrow=st.integers(1, 3), ncol=st.integers(1, 3), option=state_options,
           seed=st.integers(0, 99))
    def test_environments_and_checkpoints(self, nrow, ncol, option, seed):
        state = state_with_environment(nrow, ncol, option, True, seed)
        environment = wire(sim_io.peps_to_dict(state))["environment"]
        if environment is not None:
            legacy = {**environment, "ctm_state": {"converged": True, "n_sweeps": 1}}
            once = lifted(legacy, ENVIRONMENT)
            assert upgrade(once, ENVIRONMENT) is once
            assert once == environment
        legacy = downgrade_to_version_1(checkpoint_document(state))
        del legacy["payload_format"], legacy["sidecar"]
        once = lifted(legacy, CHECKPOINT)
        assert upgrade(once, CHECKPOINT) is once
        assert downgrade_to_version_1(once["workload_state"]) == legacy["workload_state"]

    def test_manifests(self, manifests):
        for manifest in manifests:
            once = lifted(downgrade_to_version_1(manifest), MANIFEST)
            assert upgrade(once, MANIFEST) is once
            assert once == manifest
