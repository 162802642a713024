#!/usr/bin/env python3
"""The ladder: seven PEPS workloads behind one command.

One workload, one process (what the benchmark driver calls)::

    python3 benchmarks/ladder/run.py --workload norm_ibmps --seed 7 --seconds 8 --trace 0

builds the inputs from the seed (timed, several times: ``setup_s``), does one
untimed warm-up pass with flop counting on (``flops``), then timed passes
with counting and tracing off until ``--seconds`` have gone by (``wall_s``,
``peak_rss_mb``), checks the result against the workload's oracle, prints
every metric by name and unit, and ends with one JSON line.  ``--trace 1``
instead spends the time on untraced and then traced passes and prints the
per-layer metrics and the inclusive/self table.

Without ``--workload`` every workload is run this way in a child process of
its own, one after the other, so memory peaks and caches are per workload::

    python3 benchmarks/ladder/run.py [--seed S] [--seconds T] [--trace 1]
    python3 benchmarks/ladder/run.py --check-repeat 10   # spreads vs. the bounds
    python3 benchmarks/ladder/run.py --check-counts      # exact counts vs. baseline.json
    python3 benchmarks/ladder/run.py --write-baseline    # regenerate baseline.json

The closed loop has one client and one thread: BLAS is pinned to a single
thread before NumPy loads (two OpenBLAS threads make the small contractions
here slower, not faster).  README.md has the catalog of workloads and metrics.
"""

from __future__ import annotations

import os
import sys

BLAS_THREADS = "1"
for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_variable] = BLAS_THREADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, os.path.join(ROOT, "src"))

import argparse
import contextlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import tempfile
import time
from typing import Any, Dict, List, Optional

import numpy as np

import instrument
from workloads import WORKLOADS, Workload

from repro.backends import NumPyBackend, path_cache_stats
from repro.telemetry import REGISTRY
from repro.utils.flops import FlopCounter

DEFAULT_SEED = 20260930
#: Set-up is repeated this many times before every pass; each such block
#: contributes its fastest build and ``setup_s`` is the median over the blocks.
#: Most set-ups take well under a millisecond: the first build of a block runs
#: on caches the pass has just emptied, and blocks spread over the whole run
#: see the same mix of machine speeds as ``wall_s`` does.
SETUPS_PER_PASS = 5
BASELINE = os.path.join(HERE, "baseline.json")

#: The counts that repeat exactly at a fixed seed, pinned in baseline.json.
PINNED_COUNTS = (
    "flops", "peps.contraction.row_absorptions", "backends.einsum_calls",
    "backends.svd_calls", "peps.envs.ctm_moves", "sim.checkpoint_writes",
)


def load_contract() -> Dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def machine_line() -> Dict[str, Any]:
    """Where a result was measured; every result document carries it."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        openblas = "unknown"
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    return {
        "nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
        "numpy": np.__version__, "blas": openblas, "blas_threads": int(BLAS_THREADS),
        "git": sha,
    }


# --------------------------------------------------------------------- #
# One workload in this process
# --------------------------------------------------------------------- #
@contextlib.contextmanager
def counting_flops():
    """Give every NumPy backend built inside the block one shared counter."""
    counter = FlopCounter()
    original = NumPyBackend.__init__

    def init(self, flop_counter=None):
        original(self, counter if flop_counter is None else flop_counter)

    NumPyBackend.__init__ = init
    try:
        yield counter
    finally:
        NumPyBackend.__init__ = original


def clear_directory(path: str) -> None:
    for entry in os.scandir(path):
        if entry.is_dir(follow_symlinks=False):
            shutil.rmtree(entry.path)
        else:
            os.unlink(entry.path)


class Runner:
    """Runs passes of one workload and keeps the failure accounting."""

    def __init__(self, workload: Workload, seed: int, workdir: str) -> None:
        self.workload = workload
        self.workdir = workdir
        self.seed = seed
        self.setup_times: List[float] = []
        self.inputs = self.timed_setups()
        with counting_flops() as counter:
            self.first = workload.run(self.inputs)
        self.flops = float(workload.flops(self.inputs, counter.total))
        self.flops_by_category = counter.by_category()
        self.last = self.first
        self.passes = 1
        self.unrepeatable = 0

    def timed_setups(self) -> Any:
        """One block of ``SETUPS_PER_PASS`` builds; returns the last build."""
        times = []
        for _ in range(SETUPS_PER_PASS):
            begin = time.perf_counter()
            inputs = self.workload.setup(self.seed, self.workdir)
            times.append(time.perf_counter() - begin)
        self.setup_times.append(min(times))
        return inputs

    def timed_pass(self) -> float:
        """One pass on a cleared work directory; returns its wall time."""
        clear_directory(self.workdir)
        self.timed_setups()
        begin = time.perf_counter()
        out = self.workload.run(self.inputs)
        wall = time.perf_counter() - begin
        self.passes += 1
        if out["value"] != self.first["value"]:
            self.unrepeatable += 1
        self.last = out
        return wall

    def passes_for(self, seconds: float, at_least: int = 3) -> List[float]:
        walls: List[float] = []
        begin = time.perf_counter()
        while len(walls) < at_least or time.perf_counter() - begin < seconds:
            walls.append(self.timed_pass())
        return walls

    def verdict(self) -> Dict[str, Any]:
        check = self.workload.check(self.inputs, self.first["value"])
        repeatable = self.passes - self.unrepeatable
        failed = check.failed * repeatable + check.attempted * self.unrepeatable
        return {
            "correct": failed == 0,
            "attempted": check.attempted * self.passes,
            "failed": failed,
            "rel_err": check.rel_err,
        }


def end_to_end(runner: Runner, seconds: float) -> Dict[str, float]:
    walls = runner.passes_for(seconds)
    q1, median, q3 = statistics.quantiles(walls, n=4)
    print(f"# wall_s over {len(walls)} passes: q1 {q1:.4f} median {median:.4f} "
          f"q3 {q3:.4f} min {min(walls):.4f}")
    print("# passes: " + " ".join(f"{wall:.4f}" for wall in walls))
    return {
        "wall_s": median,
        "setup_s": statistics.median(runner.setup_times),
        # before the oracle runs: its dense reference must not count
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "flops": runner.flops,
    }


def per_layer(runner: Runner, seconds: float, trace_out: Optional[str]) -> Dict[str, float]:
    probe = instrument.Instrument()
    probe.install()
    if probe.missing:
        print(f"# not measured (target gone): {', '.join(probe.missing)}", file=sys.stderr)
    untraced: List[float] = []
    passes: List[Dict[str, float]] = []
    try:
        begin = time.perf_counter()
        while len(passes) < 2 or time.perf_counter() - begin < seconds:
            # Untraced and traced passes alternate so that drift in the
            # machine's speed cancels in their ratio; between recordings the
            # wrappers only forward the call.
            untraced.append(runner.timed_pass())
            mark = REGISTRY.snapshot()
            cache_mark = path_cache_stats()["path"]
            with probe:
                wall = runner.timed_pass()
            table = instrument.summarize(probe.spans)
            cache = path_cache_stats()["path"]
            passes.append(layer_metrics(
                table, wall, REGISTRY.delta(mark),
                cache["hits"] - cache_mark["hits"], cache["misses"] - cache_mark["misses"],
                runner,
            ))
    finally:
        probe.remove()
    print(f"# inclusive/self time of the last traced pass ({wall:.4f} s)")
    print(instrument.format_table(table, wall))
    if trace_out:
        instrument.write_chrome_trace(trace_out, runner.workload.name, probe.spans)
    metrics = {name: statistics.median(p[name] for p in passes) for name in passes[0]}
    base = statistics.median(untraced)
    metrics["telemetry.trace_overhead_ratio"] = metrics.pop("_wall") / base
    metrics.update(runner.workload.layer_extras(runner.inputs, base))
    return metrics


def layer_metrics(
    table: Dict[str, Dict[str, float]], wall: float, registry: Dict[str, float],
    cache_hits: int, cache_misses: int, runner: Runner,
) -> Dict[str, float]:
    """The per-layer metrics of one traced pass (names as in BENCHMARK.json)."""
    zero = {"calls": 0, "inclusive_s": 0.0, "self_s": 0.0, "note": 0.0}

    def calls(name: str) -> float:
        return table.get(name, zero)["calls"]

    def seconds(name: str) -> float:
        return table.get(name, zero)["inclusive_s"]

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    einsum_flops = runner.flops_by_category.get("einsum", 0.0)
    if not runner.flops_by_category:
        einsum_flops = runner.flops  # distributed backend: one total, nearly all einsum
    absorptions = registry.get("peps.row_absorptions", 0)
    hits = registry.get("peps.strip_cache_hits", 0)
    misses = registry.get("peps.strip_cache_misses", 0)
    points = calls("sim.run")
    metrics = {
        "_wall": wall,
        "backends.einsum_calls": calls("backends.einsum"),
        "backends.einsum_s": seconds("backends.einsum"),
        "backends.einsum_flops": einsum_flops,
        "backends.einsum_gflops": ratio(einsum_flops, seconds("backends.einsum")) / 1e9,
        "backends.einsum_batched_calls": calls("backends.einsum_batched"),
        "backends.einsum_batched_s": seconds("backends.einsum_batched"),
        "backends.svd_calls": calls("backends.svd"),
        "backends.svd_s": seconds("backends.svd"),
        "backends.qr_calls": calls("backends.qr"),
        "backends.qr_s": seconds("backends.qr"),
        "backends.path_cache_hit_ratio": ratio(cache_hits, cache_hits + cache_misses),
        "linalg.truncated_svd_calls": calls("linalg.truncated_svd"),
        "linalg.truncated_svd_s": seconds("linalg.truncated_svd"),
        "linalg.randomized_svd_calls": calls("linalg.randomized_svd"),
        "linalg.randomized_svd_s": seconds("linalg.randomized_svd"),
        "tensornetwork.einsumsvd_explicit_calls": calls("tensornetwork.einsumsvd_explicit"),
        "tensornetwork.einsumsvd_explicit_s": seconds("tensornetwork.einsumsvd_explicit"),
        "tensornetwork.einsumsvd_implicit_calls": calls("tensornetwork.einsumsvd_implicit"),
        "tensornetwork.einsumsvd_implicit_s": seconds("tensornetwork.einsumsvd_implicit"),
        "tensornetwork.contract_network_calls": calls("tensornetwork.contract_network"),
        "tensornetwork.contract_network_s": seconds("tensornetwork.contract_network"),
        "tensornetwork.contract_network_self_s":
            table.get("tensornetwork.contract_network", zero)["self_s"],
        "peps.update.two_site_calls": calls("peps.update.two_site"),
        "peps.update.two_site_s": seconds("peps.update.two_site"),
        "peps.update.one_site_s": seconds("peps.update.one_site"),
        "peps.contraction.row_absorptions": absorptions,
        "peps.contraction.absorb_row_s": seconds("peps.contraction.absorb_row"),
        "peps.contraction.s_per_absorption":
            ratio(seconds("peps.contraction.absorb_row"), absorptions),
        "peps.contraction.single_layer_s": seconds("peps.contraction.single_layer"),
        "peps.envs.build_s": seconds("peps.envs.build"),
        "peps.envs.expectation_s": seconds("peps.envs.expectation"),
        "peps.envs.strip_term_calls": calls("peps.envs.strip_term"),
        "peps.envs.strip_term_s": seconds("peps.envs.strip_term"),
        "peps.envs.strip_cache_hit_ratio": ratio(hits, hits + misses),
        "peps.envs.measure_1site_s": seconds("peps.envs.measure_1site"),
        "peps.envs.ctm_moves": registry.get("peps.ctm_moves", 0),
        "peps.envs.ctm_move_s": seconds("peps.envs.ctm_move"),
        "peps.envs.sample_s": seconds("peps.envs.sample"),
        "peps.envs.batched_contractions": registry.get("peps.batched_contractions", 0),
        "peps.envs.uniform_fallbacks": 0,
        "algorithms.step_s": seconds("algorithms.step"),
        "algorithms.measure_s": seconds("algorithms.measure"),
        "algorithms.measure_share": ratio(seconds("algorithms.measure"), wall),
        "backends.distributed.plan_calls": calls("backends.distributed.plan"),
        "backends.distributed.plan_s": seconds("backends.distributed.plan"),
        "backends.distributed.contract_s": seconds("backends.distributed.contract"),
        "backends.distributed.predicted_s": 0.0,
        "backends.distributed.comm_bytes": 0.0,
        "backends.distributed.messages": 0.0,
        "backends.distributed.overhead_ratio": 0.0,
        "sim.points": points,
        "sim.point_s": ratio(seconds("sim.run"), points),
        "sim.checkpoint_writes": calls("sim.checkpoint_write"),
        "sim.checkpoint_write_s": seconds("sim.checkpoint_write"),
        "sim.checkpoint_bytes": table.get("sim.checkpoint_write", zero)["note"],
        "sim.shell_share":
            1.0 - ratio(seconds("sim.step") + seconds("sim.measure"), wall) if points else 0.0,
    }
    metrics.update(runner.last.get("layer", {}))
    return metrics


def run_workload(workload: Workload, seed: int, seconds: float, trace: int,
                 trace_out: Optional[str]) -> int:
    contract = load_contract()
    # Work files stay inside the checkout the benchmark was started from.
    workdir = tempfile.mkdtemp(prefix=".ladder-", dir=os.getcwd())
    try:
        print(f"# ladder {workload.name} seed={seed} seconds={seconds:g} trace={trace}")
        print(f"# {workload.why}")
        if seconds < contract["run_seconds"]:
            print(f"# NOT FOR CLAIMS: shorter than the benchmark's {contract['run_seconds']} s")
        runner = Runner(workload, seed, workdir)
        if trace:
            values = per_layer(runner, seconds, trace_out)
            declared = contract["per_layer"]
        else:
            values = end_to_end(runner, seconds)
            declared = contract["end_to_end"]
        verdict = runner.verdict()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if trace:
        values["oracle.rel_err"] = verdict["rel_err"]
    mismatch = set(values) ^ {metric["name"] for metric in declared}
    if mismatch:
        raise SystemExit(
            f"metrics computed and metrics declared in BENCHMARK.json differ: {sorted(mismatch)}"
        )
    metrics = {
        metric["name"]: {"value": float(values[metric["name"]]), "unit": metric["unit"]}
        for metric in declared
    }
    for name, entry in metrics.items():
        print(f"{name:<44}{entry['value']:>18.9g} {entry['unit']}")
    share = verdict["failed"] / verdict["attempted"]
    print(f"{'rel_err':<44}{verdict['rel_err']:>18.9g} 1")
    print(f"{'failed_share':<44}{share:>18.9g} ratio "
          f"({verdict['failed']} of {verdict['attempted']} operations)")
    print(json.dumps({
        "correct": verdict["correct"], "attempted": verdict["attempted"],
        "failed": verdict["failed"], "metrics": metrics,
    }))
    return 0 if verdict["correct"] else 1


# --------------------------------------------------------------------- #
# Every workload, one child process each
# --------------------------------------------------------------------- #
def run_child(name: str, seed: int, seconds: float, trace: int, echo: bool = True,
              trace_out: Optional[str] = None) -> Dict[str, Any]:
    command = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if trace_out:
        command += ["--trace-out", trace_out]
    done = subprocess.run(command, capture_output=True, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    if echo:
        print("\n".join(lines[:-1]), flush=True)
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        raise SystemExit(f"{name}: no result line (exit {done.returncode})\n{done.stderr}")
    if done.stderr.strip():
        print(done.stderr.strip(), file=sys.stderr)
    return result


def value_of(result: Dict[str, Any], name: str) -> float:
    return result["metrics"][name]["value"]


def run_all(seed: int, seconds: float, trace: int, trace_out: Optional[str]) -> int:
    machine = machine_line()
    print("# machine: " + " ".join(f"{key}={value}" for key, value in machine.items()))
    failures = []
    for workload in WORKLOADS:
        for mode in ([0, 1] if trace else [0]):
            out = None
            if mode and trace_out:
                stem, extension = os.path.splitext(trace_out)
                out = f"{stem}-{workload.name}{extension or '.json'}"
            result = run_child(workload.name, seed, seconds, mode, trace_out=out)
            if not result["correct"]:
                failures.append(workload.name)
    if failures:
        print(f"# FAILED oracle: {', '.join(sorted(set(failures)))}")
        return 1
    print("# every workload passed its oracle")
    return 0


def collect_counts(seed: int, seconds: float = 1):
    """Per workload: the pinned counts, and the end-to-end result they came with.

    The end-to-end run measures for ``seconds``; counts need no time, so the
    traced run is always short.
    """
    counts: Dict[str, Dict[str, float]] = {}
    flats: Dict[str, Dict[str, Any]] = {}
    for workload in WORKLOADS:
        flat = run_child(workload.name, seed, seconds, 0, echo=False)
        traced = run_child(workload.name, seed, 1, 1, echo=False)
        if not (flat["correct"] and traced["correct"]):
            raise SystemExit(f"{workload.name}: oracle failed while counting")
        flats[workload.name] = flat
        counts[workload.name] = {
            name: value_of(flat if name == "flops" else traced, name) for name in PINNED_COUNTS
        }
    return counts, flats


def check_counts(seed: int) -> int:
    with open(BASELINE, encoding="utf-8") as handle:
        baseline = json.load(handle)
    if seed != baseline["seed"]:
        raise SystemExit(f"baseline.json pins seed {baseline['seed']}, not {seed}")
    status = 0
    for name, counts in collect_counts(seed)[0].items():
        for metric, value in counts.items():
            pinned = baseline["counts"][name][metric]
            verdict = "ok" if value == pinned else "CHANGED"
            status |= value != pinned
            print(f"{name:<14}{metric:<40}{value:>18.9g}{pinned:>18.9g}  {verdict}")
    return status


def write_baseline(seed: int, seconds: float) -> int:
    counts, flats = collect_counts(seed, seconds)
    document = {
        "seed": seed,
        "machine": machine_line(),
        "counts": counts,
        "wall_for_information_only": {
            workload: {name: value_of(flat, name) for name in ("wall_s", "setup_s", "peak_rss_mb")}
            for workload, flat in flats.items()
        },
    }
    with open(BASELINE, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {BASELINE}")
    return 0


def spread(values: List[float]) -> float:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


def check_repeat(seed: int, seconds: float, seeds: int, only: Optional[str]) -> int:
    """Two sets of ``seeds`` runs per workload, as the benchmark driver makes them.

    Per end-to-end metric: the spread of each set (interquartile distance
    over the median; ``setup_s`` is exempt) and the worsening of the second
    set's median over the first must both stay within the metric's bound.
    """
    contract = load_contract()
    status = 0
    print(f"{'workload':<14}{'metric':<14}{'median 1':>14}{'median 2':>14}"
          f"{'spread 1':>10}{'spread 2':>10}{'worse by':>10}{'bound':>8}")
    for workload in WORKLOADS:
        if only not in (None, workload.name):
            continue
        sets = [
            [run_child(workload.name, seed + index, seconds, 0, echo=False)
             for index in range(seeds)]
            for _ in range(2)
        ]
        if not all(result["correct"] for results in sets for result in results):
            print(f"{workload.name}: an oracle failed")
            status = 1
        if [value_of(r, "flops") for r in sets[0]] != [value_of(r, "flops") for r in sets[1]]:
            print(f"{workload.name}: flops did not repeat exactly at equal seeds")
            status = 1
        for metric in contract["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            first, second = ([value_of(r, name) for r in results] for results in sets)
            medians = statistics.median(first), statistics.median(second)
            worse = (medians[1] - medians[0]) / medians[0]
            if metric["better"] == "higher":
                worse = -worse
            spreads = spread(first), spread(second)
            steady = name == "setup_s" or max(spreads) <= bound
            ok = steady and worse <= bound
            status |= not ok
            print(f"{workload.name:<14}{name:<14}{medians[0]:>14.6g}{medians[1]:>14.6g}"
                  f"{spreads[0]:>10.4f}{spreads[1]:>10.4f}{worse:>10.4f}{bound:>8.2f}"
                  f"{'' if ok else '  OUT OF BOUND'}", flush=True)
            if not ok:
                for values in (first, second):
                    print("    " + " ".join(f"{value:.6g}" for value in values))
    return status


def main(argv: Optional[List[str]] = None) -> int:
    names = [workload.name for workload in WORKLOADS]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names,
                        help="run this one workload in-process (with --check-repeat: only it)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time of one run (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0,
                        help="1: the traced pass and the per-layer metrics")
    parser.add_argument("--trace-out", metavar="PATH",
                        help="also write the last traced pass as Chrome trace events")
    parser.add_argument("--check-repeat", type=int, metavar="SEEDS", nargs="?", const=10,
                        help="two sets of SEEDS runs per workload against the bounds")
    parser.add_argument("--check-counts", action="store_true",
                        help="compare the exact counts with baseline.json")
    parser.add_argument("--write-baseline", action="store_true",
                        help="regenerate baseline.json at --seed")
    args = parser.parse_args(argv)
    seconds = args.seconds if args.seconds is not None else load_contract()["run_seconds"]
    if args.check_repeat:
        return check_repeat(args.seed, seconds, args.check_repeat, args.workload)
    if args.workload:
        workload = WORKLOADS[names.index(args.workload)]
        return run_workload(workload, args.seed, seconds, args.trace, args.trace_out)
    if args.check_counts:
        return check_counts(args.seed)
    if args.write_baseline:
        return write_baseline(args.seed, seconds)
    return run_all(args.seed, seconds, args.trace, args.trace_out)


if __name__ == "__main__":
    sys.exit(main())
