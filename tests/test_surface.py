"""Every public name, parameter and option field in ``src/repro`` has a caller.

Three AST scans over ``src/``, ``benchmarks/`` and ``examples/`` (never
``tests/``: a name, argument or field only its own unit test uses is code
without a caller).  What fails is either deleted or listed, with its reason,
in the table next to its check.

* **Names** (``ENTRY_POINTS``): a public module-level function or class, or a
  public method of a module-level class, counts as called when its name is
  read (as a name or an attribute) outside its own definition.  Import lines
  and ``__all__`` do not count.  A module-level name is read only in its own
  module or in a file that imports it, its module, or a package that
  re-exports it (its ``__init__`` imports the name or lists it as a string);
  a method is read wherever its name is.
* **Parameters** (``KEPT_PARAMETERS``): every defaulted parameter of a public
  function, of a public method, or of a public class's ``__init__`` is passed,
  by keyword or by position, by some call of that name (the class name for
  ``__init__``; ``super().__init__`` in a subclass calls its bases).  A call
  with ``*args`` or ``**kwargs`` passes everything.  A method that overrides
  one of a base class in ``src/repro`` shares the base's parameters: they
  count once, for the protocol and all its implementations.
* **Fields** (``KEPT_FIELDS``): every field of the option dataclasses (the
  ``EinsumSVDOption``, ``ContractOption`` and ``UpdateOption`` families) and
  of ``RunSpec``/``SweepSpec`` is set by keyword (or position) in a call of its
  class or ``dataclasses.replace``, or named under its wire key by a dict
  literal or a JSON file.

Scans match by name, so they are a floor (a method that shares another
definition's name looks used: ``gen.random()`` reads as a call of any public
``random`` method), never a proof of use.
"""

import ast
import json
from pathlib import Path

import pytest

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
    "repro.telemetry.metrics.Histogram.observe": "docs/observability.md: record a histogram value",
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

#: Defaulted parameters that no call in the scanned trees passes, each kept
#: for the reason given.  Keys are ``module.qualname(param=)``, a
#: constructor's qualname being its class's and a protocol method's the
#: protocol's.  A row whose parameter gains a caller is deleted.
KEPT_PARAMETERS = {
    # Reached through ``**``: spec ``model`` blocks call the builder by kind.
    "repro.operators.hamiltonians.hubbard(ncol=)": "model builder: spec model blocks pass **params",
    "repro.operators.hamiltonians.hubbard(t=)": "model builder: spec model blocks pass **params",
    "repro.operators.hamiltonians.hubbard(v=)": "model builder: spec model blocks pass **params",
    "repro.operators.hamiltonians.hubbard(mu=)": "model builder: spec model blocks pass **params",
    "repro.lattice.geometry.SquareLattice(couplings=)":
        "a spec lattice block's couplings, passed by Lattice.from_config's cls(...)",
    "repro.lattice.geometry.CheckerboardLattice(couplings=)":
        "a spec lattice block's couplings, passed by Lattice.from_config's cls(...)",
    # Documented API (ENTRY_POINTS rows or docs/): what a user passes.
    "repro.peps.measure.expectation_via_evolution(tau=)": "Eq. 6's expansion step",
    "repro.peps.measure.expectation_via_evolution(contract_option=)":
        "Eq. 6's overlaps, contracted like any other norm",
    "repro.peps.measure.expectation_via_evolution(normalized=)":
        "the unnormalized Eq. 6 value, as PEPS.expectation offers",
    "repro.sim.serve.ServeClient.stream_results(timeout=)": "docs/serve.md: the client API",
    "repro.sim.serve.wait_for_endpoint(timeout=)": "docs/serve.md: wait for a (re)started daemon",
    "repro.sim.__main__.main(argv=)": "the console entry point: None reads sys.argv",
    "repro.operators.observable.Observable.identity(coefficient=)":
        "the value of a constant term (an energy offset)",
    # Test doubles and references.
    "repro.peps.peps.random_peps(phys_dim=)":
        "property tests draw qudit states to check contractions beyond qubits",
    "repro.peps.peps.random_single_layer_grid(backend=)":
        "the contraction tests build each grid on both backends",
    # Run by every pass of the ladder's sample_ctm workload, whose timing
    # leaves no room for an unmeasured edit; deleting them is a change
    # measured on that workload.
    "repro.backends.interface.Backend.astensor(dtype=)": "every CTM move of sample_ctm calls it",
    "repro.peps.envs.boundary.BoundaryEnvironment.measure_1site(sites=)":
        "sample_ctm measures <Z> on every site through it",
    "repro.peps.envs.boundary.BoundaryEnvironment.measure_1site(normalized=)":
        "sample_ctm measures <Z> on every site through it",
}

#: Option and spec fields that nothing in the scanned trees sets, each kept
#: for the reason given.  Keys are ``module.Class.field``.
KEPT_FIELDS = {
    "repro.sim.spec.RunSpec.keep_checkpoints": "disk retention: how many checkpoints a run keeps",
    "repro.tensornetwork.einsumsvd.ImplicitRandomizedSVD.orth_method":
        "the NumPy/distributed IBMPS parity property compares both at one orth_method",
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
    """Map each name read in ``roots`` to the ``(path, lineno)`` places it is
    read, and each file to the modules it imports.

    A read is an ``ast.Name`` or ``ast.Attribute`` in load context; a read of
    an ``import ... as`` alias is a read of the imported name.  Import
    statements bind names and ``__all__`` lists them as strings, so neither
    is a read.  ``import m`` imports ``m`` and ``from m import a`` imports
    ``m.a`` (a name, or a module).
    """
    found, imported = {}, {}
    for root in roots:
        for path in sorted(Path(root).rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            modules, renames = set(), {}
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    modules.update(alias.name for alias in node.names)
                elif isinstance(node, ast.ImportFrom) and node.module:
                    for alias in node.names:
                        modules.add(f"{node.module}.{alias.name}")
                        if alias.asname:
                            renames[alias.asname] = alias.name
            imported[path] = modules
            for node in ast.walk(tree):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    name = renames.get(node.id, node.id)
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    name = node.attr
                else:
                    continue
                found.setdefault(name, []).append((path, node.lineno))
    return found, imported


def exported_names(package_root, package):
    """The names ``package``'s ``__init__`` imports or spells as a string
    (``__all__``, a lazy-export table)."""
    path = package_root.parent.joinpath(*package.split("."), "__init__.py")
    if not path.exists():
        return set()
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def uncalled(package_root, caller_roots, base):
    """Map ``module.qualname`` to ``"path:line qualname"`` for each uncalled definition.

    A definition is uncalled when no file under ``caller_roots`` reads its
    name outside the definition itself (recursion or a class naming itself
    is not a caller); a module-level name counts only where it is visible
    (see the module docstring).  Paths in the entries are relative to
    ``base``.
    """
    refs, imported = references(caller_roots)
    exports = {}

    def sees(where, module, name):
        modules = imported.get(where, ())
        if module in modules or f"{module}.{name}" in modules:
            return True
        parts = module.split(".")
        for package in (".".join(parts[:n]) for n in range(1, len(parts))):
            if package in modules or f"{package}.{name}" in modules:
                if package not in exports:
                    exports[package] = exported_names(package_root, package)
                if name in exports[package]:
                    return True
        return False

    found = {}
    for path, start, end, module, qualname, name in public_definitions(package_root):
        method = qualname != name
        if not any((where != path or not start <= line <= end)
                   and (method or where == path or sees(where, module, name))
                   for where, line in refs.get(name, ())):
            found[f"{module}.{qualname}"] = f"{path.relative_to(base)}:{start} {qualname}"
    return found


def unlisted(package_root, caller_roots, entry_points, base):
    """The report: uncalled definitions that ``entry_points`` does not list."""
    return [entry for key, entry in uncalled(package_root, caller_roots, base).items()
            if key not in entry_points]


# --------------------------------------------------------------------- #
# Parameters and option fields
# --------------------------------------------------------------------- #
#: The classes whose fields the field check covers, with every subclass.
FIELD_FAMILIES = ("EinsumSVDOption", "ContractOption", "UpdateOption", "RunSpec", "SweepSpec")


def _classes(package_root):
    """Map each module-level class name in ``package_root`` to
    ``(path, module, node, base names)``."""
    found = {}
    for path in sorted(package_root.rglob("*.py")):
        module = _module_name(path, package_root)
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(node, ast.ClassDef):
                bases = [base.id if isinstance(base, ast.Name) else base.attr
                         for base in node.bases if isinstance(base, (ast.Name, ast.Attribute))]
                found[node.name] = (path, module, node, bases)
    return found


def _ancestors(name, classes):
    """``name``'s base classes in ``classes``, nearest first, transitively."""
    out, todo = [], list(classes[name][3])
    while todo:
        base = todo.pop(0)
        if base in classes and base not in out:
            out.append(base)
            todo.extend(classes[base][3])
    return out


def _methods(node):
    return {item.name: item for item in node.body
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))}


def _defaulted(function, skip):
    """``(name, positional index or None)`` of each defaulted parameter;
    ``skip`` leading parameters (``self``, ``cls``) are bound, not passed."""
    args = function.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    for index, arg in enumerate(positional[first:], start=first):
        yield arg.arg, index - skip
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield arg.arg, None


def _bound(function):
    decorators = {d.id for d in function.decorator_list if isinstance(d, ast.Name)}
    return 0 if "staticmethod" in decorators else 1


def parameter_definitions(package_root):
    """Yield ``(key, where, call names, range, param, index)`` per defaulted
    parameter of a public function, method or constructor.

    The key is ``module.qualname(param=)``, a constructor's qualname being
    its class's, and ``where`` is ``(path, lineno, qualname)`` of the
    definition reported.  A method whose parameter a base class's same-named
    method also takes is keyed and reported at the topmost such base.
    ``range`` is ``(path, first line, last line)`` of the definition, whose
    own calls (recursion) pass nothing.
    """
    classes = _classes(package_root)
    for path in sorted(package_root.rglob("*.py")):
        module = _module_name(path, package_root)
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and _public(node.name):
                for param, index in _defaulted(node, 0):
                    yield (f"{module}.{node.name}({param}=)", (path, node.lineno, node.name),
                           {node.name}, (path, node.lineno, node.end_lineno), param, index)
            if not isinstance(node, ast.ClassDef):
                continue
            for name, method in _methods(node).items():
                span = (path, method.lineno, method.end_lineno)
                if name == "__init__" and _public(node.name):
                    names = {node.name} | {
                        sub for sub in classes
                        if node.name in _ancestors(sub, classes)
                        and "__init__" not in _methods(classes[sub][2])}
                    for param, index in _defaulted(method, 1):
                        yield (f"{module}.{node.name}({param}=)",
                               (path, method.lineno, node.name), names, span, param, index)
                if not _public(name):
                    continue
                for param, index in _defaulted(method, _bound(method)):
                    owner, where = f"{module}.{node.name}", (path, method.lineno, node.name)
                    for base in _ancestors(node.name, classes):
                        inherited = _methods(classes[base][2]).get(name)
                        if inherited is not None and param in dict(_defaulted(inherited, 0)):
                            owner = f"{classes[base][1]}.{base}"
                            where = (classes[base][0], inherited.lineno, base)
                    yield (f"{owner}.{name}({param}=)", (where[0], where[1], f"{where[2]}.{name}"),
                           {name}, span, param, index)


def calls(roots):
    """Map each called name in ``roots`` to ``(path, lineno, positional
    count, keywords, forwarded keywords)`` per call.

    The name is the called function's (``f(...)``, ``obj.f(...)``);
    ``super().__init__(...)`` inside a class calls that class's bases.  A
    count of ``None`` marks a call with ``*args`` or ``**kwargs``.  A
    keyword is forwarded when its value is an attribute of the same name
    (``cutoff=option.cutoff``).
    """
    found = {}

    def visit(node, bases):
        for child in ast.iter_child_nodes(node):
            inner = bases
            if isinstance(child, ast.ClassDef):
                inner = [base.id if isinstance(base, ast.Name) else getattr(base, "attr", "")
                         for base in child.bases]
            if isinstance(child, ast.Call):
                func = child.func
                names = ([func.id] if isinstance(func, ast.Name)
                         else [func.attr] if isinstance(func, ast.Attribute) else [])
                if (isinstance(func, ast.Attribute) and func.attr == "__init__"
                        and isinstance(func.value, ast.Call)
                        and getattr(func.value.func, "id", None) == "super"):
                    names = inner
                star = (any(isinstance(arg, ast.Starred) for arg in child.args)
                        or any(keyword.arg is None for keyword in child.keywords))
                forwarded = {keyword.arg for keyword in child.keywords
                             if getattr(keyword.value, "attr", None) == keyword.arg}
                entry = (path, child.lineno, None if star else len(child.args),
                         {keyword.arg for keyword in child.keywords}, forwarded)
                for name in names:
                    found.setdefault(name, []).append(entry)
            visit(child, inner)

    for root in roots:
        for path in sorted(Path(root).rglob("*.py")):
            visit(ast.parse(path.read_text(), filename=str(path)), [])
    return found


def _passes(call, param, index):
    count, keywords = call[2], call[3]
    return count is None or param in keywords or (index is not None and index < count)


def unpassed(package_root, caller_roots, base):
    """Map each parameter key to ``"path:line qualname(param=)"`` when no call
    of its name, outside the definition itself, passes the parameter."""
    found_calls = calls(caller_roots)
    where, passed = {}, set()
    for key, (path, line, qualname), names, span, param, index in \
            parameter_definitions(package_root):
        where.setdefault(key, f"{path.relative_to(base)}:{line} {qualname}({param}=)")
        if any(_passes(call, param, index) for name in names
               for call in found_calls.get(name, ())
               if call[0] != span[0] or not span[1] <= call[1] <= span[2]):
            passed.add(key)
    return {key: entry for key, entry in where.items() if key not in passed}


def _fields(name, classes):
    """``{field: (path, lineno, module, owner)}`` of a dataclass, inherited
    fields first, in ``__init__`` order."""
    out = {}
    for owner in reversed([name] + _ancestors(name, classes)):
        path, module, node, _bases = classes[owner]
        for item in node.body:
            if (isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
                    and "ClassVar" not in ast.unparse(item.annotation)):
                out.setdefault(item.target.id, (path, item.lineno, module, owner))
    return out


def _json_keys(node):
    if isinstance(node, dict):
        for key, value in node.items():
            yield key
            yield from _json_keys(value)
    elif isinstance(node, list):
        for value in node:
            yield from _json_keys(value)


def wire_keys(roots):
    """Every key a dict literal (or ``dict(...)`` keyword) in the Python files
    under ``roots`` sets, and every object key of their JSON files.  An entry
    whose value is an attribute of the key's name (``"mode": self.mode``)
    forwards a value and sets nothing."""
    keys = set()
    for root in roots:
        for path in sorted(Path(root).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
                if isinstance(node, ast.Dict):
                    keys.update(key.value for key, value in zip(node.keys, node.values)
                                if isinstance(key, ast.Constant) and isinstance(key.value, str)
                                and getattr(value, "attr", None) != key.value)
                elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                        and node.func.id == "dict"):
                    keys.update(keyword.arg for keyword in node.keywords
                                if keyword.arg and getattr(keyword.value, "attr", None)
                                != keyword.arg)
        for path in sorted(Path(root).rglob("*.json")):
            keys.update(_json_keys(json.loads(path.read_text())))
    return keys


def stored_attributes(roots):
    """Every attribute name assigned on an object other than ``self``
    (``spec.telemetry = ...``) in the Python files under ``roots``."""
    return {node.attr for root in roots for path in sorted(Path(root).rglob("*.py"))
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
            and getattr(node.value, "id", None) != "self"}


def unset(package_root, caller_roots, base, renamed=None):
    """Map each family field key ``module.Class.field`` to ``"path:line
    Class.field"`` when nothing in ``caller_roots`` sets it: no call of a
    class that has the field passes it by position or by a keyword that
    does not forward it, no ``replace`` call by such a keyword, no
    assignment to the attribute outside ``self``, and no dict literal or JSON
    file names its wire key.  ``*``/``**`` set nothing here.
    ``renamed`` maps a field to its wire key where the two differ.
    """
    renamed = renamed or {}
    classes = _classes(package_root)
    family = [name for name in classes
              if name in FIELD_FAMILIES or set(_ancestors(name, classes)) & set(FIELD_FAMILIES)]
    found_calls, keys = calls(caller_roots), wire_keys(caller_roots)
    assigned = set().union(*(call[3] - call[4] for call in found_calls.get("replace", [])),
                           stored_attributes(caller_roots))
    fields, is_set = {}, set()
    for name in family:
        for index, (field, place) in enumerate(_fields(name, classes).items()):
            fields[field, place[3]] = place
            if field in assigned or any(field in call[3] - call[4] or (call[2] or 0) > index
                                        for call in found_calls.get(name, [])):
                is_set.add((field, place[3]))
    return {f"{module}.{owner}.{field}": f"{path.relative_to(base)}:{line} {owner}.{field}"
            for (field, owner), (path, line, module, _owner) in fields.items()
            if (field, owner) not in is_set and renamed.get(field, field) not in keys}


def io_wire_keys(package_root):
    """``repro.sim.io._WIRE_KEYS``, read from the AST: the option fields
    whose wire key is not their name."""
    tree = ast.parse((package_root / "sim" / "io.py").read_text())
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(target, "id", None) == "_WIRE_KEYS" for target in node.targets)):
            return ast.literal_eval(node.value)
    return {}


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


def test_every_defaulted_parameter_is_passed_or_kept():
    report = [entry for key, entry in unpassed(PACKAGE, CALLER_ROOTS, ROOT).items()
              if key not in KEPT_PARAMETERS]
    assert not report, (
        "defaulted parameters that no call in src/, benchmarks/ or examples/ passes "
        "(delete them, or list them in KEPT_PARAMETERS with a reason):\n  "
        + "\n  ".join(report))


def test_every_kept_parameter_row_names_an_unpassed_parameter():
    stale = sorted(set(KEPT_PARAMETERS) - set(unpassed(PACKAGE, CALLER_ROOTS, ROOT)))
    assert not stale, (
        f"KEPT_PARAMETERS rows whose parameter is gone or has a caller (delete them): {stale}")


def test_every_option_field_is_set_or_kept():
    found = unset(PACKAGE, CALLER_ROOTS, ROOT, io_wire_keys(PACKAGE))
    report = [entry for key, entry in found.items() if key not in KEPT_FIELDS]
    assert not report, (
        "option and spec fields that nothing in src/, benchmarks/ or examples/ sets "
        "(delete them, or list them in KEPT_FIELDS with a reason):\n  " + "\n  ".join(report))


def test_every_kept_field_row_names_an_unset_field():
    found = unset(PACKAGE, CALLER_ROOTS, ROOT, io_wire_keys(PACKAGE))
    stale = sorted(set(KEPT_FIELDS) - set(found))
    assert not stale, f"KEPT_FIELDS rows whose field is gone or is set (delete them): {stale}"


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

    @pytest.mark.parametrize("caller", [
        "from pkg import planted\nplanted()\n",
        "from pkg import mod\nmod.planted()\n",
        "import pkg.mod as m\nm.planted()\n",
        "from pkg.mod import planted as alias\nalias()\n",
    ])
    def test_a_read_through_the_package_or_module_clears_it(self, tmp_path, caller):
        package, roots = self._tree(tmp_path, "from pkg.mod import Used\nUsed().method()\n"
                                    + caller)
        assert unlisted(package, roots, {}, tmp_path) == []

    def test_a_same_name_function_elsewhere_does_not_clear_it(self, tmp_path):
        package, roots = self._tree(
            tmp_path, "from pkg.mod import Used\nfrom pkg.other import planted\n"
            "Used().method()\nplanted()\n")
        (package / "other.py").write_text("def planted():\n    return 3\n")
        assert unlisted(package, roots, {}, tmp_path) == ["src/pkg/mod.py:1 planted"]


class TestParameterAndFieldChecksOnASyntheticTree:
    """The parameter and field checks: a planted unpassed parameter and an
    unset option field are reported, a planted caller clears each, and a
    table row whose entry has a caller is stale."""

    def _tree(self, tmp_path, caller_source, spec_json="{}"):
        package = tmp_path / "src" / "pkg"
        package.mkdir(parents=True)
        (package / "__init__.py").write_text("")
        (package / "mod.py").write_text(
            "from dataclasses import dataclass\n"
            "\n"
            "def build(size, scale=1.0):\n"
            "    return build(size, scale=scale)  # recursion passes nothing\n"
            "\n"
            "class Base:\n"
            "    def move(self, step=1):\n"
            "        return step\n"
            "\n"
            "class Impl(Base):\n"
            "    def move(self, step=1):\n"
            "        return -step\n"
            "\n"
            "@dataclass\n"
            "class EinsumSVDOption:\n"
            "    rank: int = 1\n"
            "    planted: float = 0.0\n")
        examples = tmp_path / "examples"
        examples.mkdir()
        (examples / "demo.py").write_text(caller_source)
        (examples / "spec.json").write_text(spec_json)
        tests = tmp_path / "tests"
        tests.mkdir()
        (tests / "test_mod.py").write_text(
            "from pkg.mod import EinsumSVDOption, build\n"
            "build(1, scale=2.0)\n"
            "EinsumSVDOption(planted=1.0)\n")
        return package, (tmp_path / "src", examples)

    BASE = ("from pkg.mod import EinsumSVDOption, Impl, build\n"
            "build(1)\nImpl().move(2)\nEinsumSVDOption(rank=2)\n")

    def test_planted_parameter_without_caller_is_reported(self, tmp_path):
        package, roots = self._tree(tmp_path, self.BASE)
        assert list(unpassed(package, roots, tmp_path).values()) == [
            "src/pkg/mod.py:3 build(scale=)"]

    @pytest.mark.parametrize("call", ["build(1, scale=3.0)", "build(1, 3.0)", "build(*args)",
                                      "build(**options)"])
    def test_planted_caller_clears_the_parameter(self, tmp_path, call):
        package, roots = self._tree(tmp_path, self.BASE + call + "\n")
        assert unpassed(package, roots, tmp_path) == {}

    def test_a_protocol_parameter_counts_once(self, tmp_path):
        package, roots = self._tree(
            tmp_path, self.BASE.replace("Impl().move(2)", "Impl().move()"))
        assert list(unpassed(package, roots, tmp_path).values()) == [
            "src/pkg/mod.py:3 build(scale=)", "src/pkg/mod.py:7 Base.move(step=)"]

    def test_planted_field_without_setter_is_reported(self, tmp_path):
        package, roots = self._tree(tmp_path, self.BASE)
        assert list(unset(package, roots, tmp_path).values()) == [
            "src/pkg/mod.py:17 EinsumSVDOption.planted"]

    @pytest.mark.parametrize("caller, spec", [
        ("EinsumSVDOption(planted=0.5)\n", "{}"),
        ("EinsumSVDOption(2, 0.5)\n", "{}"),
        ("config = {'planted': 0.5}\n", "{}"),
        ("option.planted = 0.5\n", "{}"),
        ("", '{"svd": {"planted": 0.5}}'),
    ])
    def test_planted_setter_clears_the_field(self, tmp_path, caller, spec):
        package, roots = self._tree(tmp_path, self.BASE + caller, spec)
        assert unset(package, roots, tmp_path) == {}

    def test_forwarding_a_field_does_not_set_it(self, tmp_path):
        package, roots = self._tree(
            tmp_path, self.BASE + "EinsumSVDOption(planted=other.planted)\n"
            "config = {'planted': other.planted}\n")
        assert list(unset(package, roots, tmp_path)) == ["pkg.mod.EinsumSVDOption.planted"]

    def test_a_row_whose_entry_gains_a_caller_is_stale(self, tmp_path):
        package, roots = self._tree(
            tmp_path, self.BASE + "build(1, scale=3.0)\nEinsumSVDOption(planted=0.5)\n")
        parameters = {"pkg.mod.build(scale=)": "kept"}
        fields = {"pkg.mod.EinsumSVDOption.planted": "kept"}
        assert set(parameters) - set(unpassed(package, roots, tmp_path)) == set(parameters)
        assert set(fields) - set(unset(package, roots, tmp_path)) == set(fields)
