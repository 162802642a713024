"""Every public name in ``src/repro`` has a caller, or a reason in ENTRY_POINTS.

The check is a name scan over the AST: a public module-level function or
class, or a public method of a module-level class, counts as called when its name
is read (as a name or an attribute) somewhere in ``src/``, ``benchmarks/`` or
``examples/`` outside its own definition.  Import lines and ``__all__`` do not
count, and neither does anything under ``tests/``: a name only its own unit
test calls is code without a caller.  A name scan is a floor (a method that
shares another definition's name looks used), never a proof of use.

What fails is either deleted or listed in ENTRY_POINTS with its reason.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
CALLER_ROOTS = (ROOT / "src", ROOT / "benchmarks", ROOT / "examples")

#: Public names with no caller in the scanned trees, each kept for the reason
#: given.  Keys are dotted ``module.qualname``.  Adding API means adding a
#: caller or a row here; a row whose name gains a caller is deleted.
ENTRY_POINTS = {
    # Documented API: README, docs/ and docstrings tell a user to call these.
    "repro.sim.runner.run_spec": "repro.sim's one-call Simulation(spec).run()",
    "repro.sim.runner.SimulationResult.measured_steps": "README: the steps a run measured",
    "repro.sim.runner.Simulation.add_measurement_hook": "README: extra per-record measurements",
    "repro.sim.spec.register_model": "README and docs/models.md: custom Hamiltonians",
    "repro.sim.serve.ServeClient.submit_run": "docs/serve.md: the client API",
    "repro.sim.serve.ServeClient.submit_sweep": "docs/serve.md: the client API",
    "repro.sim.serve.ServeClient.stream_results": "docs/serve.md: the client API",
    "repro.sim.serve.wait_for_endpoint": "docs/serve.md: wait for a (re)started daemon",
    "repro.telemetry.global_snapshot": "docs/observability.md: the process registry as data",
    "repro.telemetry.metrics.MetricsRegistry.merge": "docs/observability.md: fold a snapshot in",
    "repro.backends.numpy_backend.clear_path_caches": "docs/perf.md: reset the plan cache",
    "repro.peps.peps.PEPS.detach_environment":
        "ImaginaryTimeEvolution.run's docstring: drop the attached environment",
    # Reached by name: specs select workloads by their registry key.
    "repro.sim.workloads.ITEWorkload": "@register_workload(\"ite\")",
    "repro.sim.workloads.VQEWorkload": "@register_workload(\"vqe\")",
    "repro.sim.workloads.RQCAmplitudeWorkload": "@register_workload(\"rqc_amplitude\")",
    # Standard-library overrides: http.server calls them by name.
    "repro.sim.serve._Handler.do_GET": "http.server dispatches GET requests to it",
    "repro.sim.serve._Handler.do_POST": "http.server dispatches POST requests to it",
    "repro.sim.serve._Handler.log_message": "silences http.server's per-request log",
    # References that tests compare the library against.
    "repro.peps.peps.PEPS.to_statevector": "dense state of a PEPS",
    "repro.linalg.implicit_op.DenseTensorOperator": "explicit twin of the implicit operators",
    "repro.linalg.implicit_op.TensorNetworkOperator.materialize": "the implicit operator, dense",
    "repro.operators.gates.is_unitary": "the unitarity check gate tests assert",
    # The paper's method, tested against term-by-term values.
    "repro.peps.measure.expectation_via_evolution": "Eq. 6, Sec. IV-B's Trotter/Taylor estimator",
}


def _module_name(path, package_root):
    parts = path.relative_to(package_root.parent).with_suffix("").parts
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def _public(name):
    return not name.startswith("_")


def public_definitions(package_root):
    """Yield ``(path, lineno, end_lineno, module, qualname, name)`` per public definition.

    Module-level functions and classes with a public name, and the public
    methods of every module-level class (properties, class and static
    methods included; the HTTP handler's stdlib overrides live on a private
    class).
    """
    for path in sorted(package_root.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        module = _module_name(path, package_root)
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if _public(node.name):
                yield path, node.lineno, node.end_lineno, module, node.name, node.name
            if not isinstance(node, ast.ClassDef):
                continue
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and _public(item.name):
                    yield (path, item.lineno, item.end_lineno, module,
                           f"{node.name}.{item.name}", item.name)


def references(roots):
    """Map each name read in ``roots`` to the ``(path, lineno)`` places it is read.

    A read is an ``ast.Name`` or ``ast.Attribute`` in load context.  Import
    statements bind names and ``__all__`` lists them as strings, so neither
    is a read.
    """
    found = {}
    for root in roots:
        for path in sorted(Path(root).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    found.setdefault(node.id, []).append((path, node.lineno))
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    found.setdefault(node.attr, []).append((path, node.lineno))
    return found


def uncalled(package_root, caller_roots, base):
    """Map ``module.qualname`` to ``"path:line qualname"`` for each uncalled definition.

    A definition is uncalled when no file under ``caller_roots`` reads its
    name outside the definition itself (recursion or a class naming itself
    is not a caller).  Paths in the entries are relative to ``base``.
    """
    refs = references(caller_roots)
    found = {}
    for path, start, end, module, qualname, name in public_definitions(package_root):
        if not any(where != path or not start <= line <= end
                   for where, line in refs.get(name, ())):
            found[f"{module}.{qualname}"] = f"{path.relative_to(base)}:{start} {qualname}"
    return found


def unlisted(package_root, caller_roots, entry_points, base):
    """The report: uncalled definitions that ``entry_points`` does not list."""
    return [entry for key, entry in uncalled(package_root, caller_roots, base).items()
            if key not in entry_points]


def test_every_public_name_has_a_caller_or_an_entry_point_row():
    report = unlisted(PACKAGE, CALLER_ROOTS, ENTRY_POINTS, ROOT)
    assert not report, (
        "public definitions with no caller in src/, benchmarks/ or examples/ "
        "(delete them, or list them in ENTRY_POINTS with a reason):\n  "
        + "\n  ".join(report))


def test_every_entry_point_row_names_an_uncalled_definition():
    stale = sorted(set(ENTRY_POINTS) - set(uncalled(PACKAGE, CALLER_ROOTS, ROOT)))
    assert not stale, (
        f"ENTRY_POINTS rows whose name is gone or has a caller (delete them): {stale}")


class TestCheckerOnASyntheticTree:
    """The checker itself: a planted uncalled function is reported, a caller clears it."""

    def _tree(self, tmp_path, caller_source):
        package = tmp_path / "src" / "pkg"
        package.mkdir(parents=True)
        (package / "__init__.py").write_text(
            "from pkg.mod import Used, planted\n__all__ = ['Used', 'planted']\n")
        (package / "mod.py").write_text(
            "def planted():\n"
            "    return planted  # a self-reference is not a caller\n"
            "\n"
            "class Used:\n"
            "    def method(self):\n"
            "        return 1\n"
            "\n"
            "    def _private(self):\n"
            "        return 2\n")
        examples = tmp_path / "examples"
        examples.mkdir()
        (examples / "demo.py").write_text(caller_source)
        tests = tmp_path / "tests"
        tests.mkdir()
        (tests / "test_mod.py").write_text("from pkg.mod import planted\nplanted()\n")
        return package, (tmp_path / "src", examples)

    def test_planted_function_without_caller_is_reported(self, tmp_path):
        package, roots = self._tree(
            tmp_path, "from pkg.mod import Used, planted\nUsed().method()\n")
        assert unlisted(package, roots, {}, tmp_path) == ["src/pkg/mod.py:1 planted"]

    def test_planted_caller_clears_it(self, tmp_path):
        package, roots = self._tree(
            tmp_path, "from pkg.mod import Used, planted\nUsed().method()\nplanted()\n")
        assert unlisted(package, roots, {}, tmp_path) == []

    def test_entry_point_row_clears_it(self, tmp_path):
        package, roots = self._tree(tmp_path, "from pkg.mod import Used\nUsed().method()\n")
        rows = {"pkg.mod.planted": "documented API"}
        assert unlisted(package, roots, rows, tmp_path) == []
