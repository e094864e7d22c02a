"""Guard against library code that nothing in the library uses.

Every public function, class and method defined under ``src/carshift`` must be
named somewhere in ``src/`` outside its own definition (a call, an attribute
access, a reference), or be listed in ``KEEP`` with the reason it stays.

A function or class counts as used when its identifier is read anywhere.  A
method counts as used only through an attribute read whose receiver is not a
module, so ``np.linalg.norm`` does not use a method ``norm``, and a bare name
``adjoint`` does not use a method ``adjoint``.  A method named like an
``np.ndarray`` attribute (``size``, ``conj``, ...) cannot be told apart from
the arrays' own attribute this way, so it must be listed in ``SHARED`` with
the reads that reach it.
"""

import ast
import importlib
import importlib.util
import inspect
import json
from collections import Counter
from pathlib import Path

import numpy as np

import carshift

SRC = Path(carshift.__file__).parent
ROOT = SRC.parent.parent

# qualified name -> why it stays although nothing in src/ names it: the
# acceptance criterion that calls it or the perfbench metric that reads it.
# Test oracles live in tests/ (oracles.py, dense_modular.py), not here.
KEEP = {
    "fock.mode_annihilator": "perfbench metric fock.mode_annihilator.calls",
    "quasifree.purification_projection": (
        "acceptance criterion 3 (test_criterion_03_purification); "
        "perfbench metric quasifree.purification_projection.s"
    ),
    "hardyshift.defect_increment_hs": "acceptance criterion 8 (test_criterion_08_defect_slope)",
    "hardyshift.estimate_inequalities": (
        "acceptance criterion 9 (test_criterion_09_estimates_sum_linear)"
    ),
    "hardyshift.laplace_pairing": (
        "acceptance criterion 10 (test_criterion_10_window_defect_and_laplace_identity)"
    ),
    "hardyshift.DilationOperator.to_dense": "perfbench metric hardyshift.to_dense.s",
}

# method named like an np.ndarray attribute -> the reads in src/ that reach it
SHARED = {
    "expcalc.ExpCombo.compress": "ExpCombo(terms).compress() in theta_apply",
    "hardyshift.ExponentialFamily.size": "family.size in orthogonalize and cli._run_pipeline",
}

ARRAY_ATTRIBUTES = frozenset(dir(np.ndarray))


def _definitions(tree, module):
    """``(qualified name, node)`` of each public module-level function and
    class and each public method of a module-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield f"{module}.{node.name}", node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{module}.{node.name}.{item.name}", item


def _names(node):
    """Identifiers read anywhere in ``node``: names and attribute names."""
    return Counter(
        sub.id if isinstance(sub, ast.Name) else sub.attr
        for sub in ast.walk(node)
        if isinstance(sub, (ast.Name, ast.Attribute))
    )


def _imports(tree):
    """The names that the import statements of a ``carshift`` module bind,
    with the objects they bind."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                top = alias.name.split(".")[0]
                bound[alias.asname or top] = importlib.import_module(alias.name if alias.asname else top)
        elif isinstance(node, ast.ImportFrom):
            base = "carshift" if node.level else ""
            base = ".".join(filter(None, [base, node.module]))
            for alias in node.names:
                try:
                    obj = importlib.import_module(f"{base}.{alias.name}")
                except ImportError:
                    obj = getattr(importlib.import_module(base), alias.name)
                bound[alias.asname or alias.name] = obj
    return bound


def _is_module(node, namespace):
    """Whether ``node``, a name or a dotted chain of names, evaluates to a
    module in ``namespace``."""
    attrs = []
    while isinstance(node, ast.Attribute):
        attrs.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name) or node.id not in namespace:
        return False
    obj = namespace[node.id]
    for attr in reversed(attrs):
        obj = getattr(obj, attr, None)
    return inspect.ismodule(obj)


def _method_reads(node, namespace):
    """Attribute names read in ``node`` on a receiver that is not a module."""
    return Counter(
        sub.attr
        for sub in ast.walk(node)
        if isinstance(sub, ast.Attribute) and not _is_module(sub.value, namespace)
    )


def _unused(trees):
    """Qualified names of the definitions in ``trees`` (module -> AST) that
    nothing outside their own definition uses, by the rules above."""
    imports = {module: _imports(tree) for module, tree in trees.items()}
    names = sum((_names(tree) for tree in trees.values()), Counter())
    reads = sum((_method_reads(tree, imports[m]) for m, tree in trees.items()), Counter())
    unused = []
    for module, tree in trees.items():
        for qualname, node in _definitions(tree, module):
            name = qualname.rsplit(".", 1)[1]
            if qualname in KEEP or qualname in SHARED:
                continue
            if qualname.count(".") == 2:
                own = _method_reads(node, imports[module])[name]
                used = name not in ARRAY_ATTRIBUTES and reads[name] > own
            else:
                used = names[name] > _names(node)[name]
            if not used:
                unused.append(qualname)
    return unused


def _surface():
    return {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def test_every_public_name_has_a_caller_or_a_reason():
    unused = _unused(_surface())
    assert unused == [], "delete these or give them a KEEP or SHARED entry: %s" % unused


def test_keep_reasons_name_an_acceptance_criterion_or_a_perfbench_metric():
    # a test oracle belongs in tests/, so "oracle of ..." is no reason to stay
    assert [name for name, reason in KEEP.items()
            if "acceptance criterion" not in reason and "perfbench metric" not in reason] == []


def test_keep_names_only_definitions_that_exist():
    trees = _surface()
    defined = {name for module, tree in trees.items() for name, _ in _definitions(tree, module)}
    assert sorted((set(KEEP) | set(SHARED)) - defined) == []


def test_method_reads_through_a_module_or_an_array_name_do_not_count():
    # the two gaps of matching bare identifiers: np.linalg.norm read as a use of
    # a method norm, and an array's .size read as a use of a method size
    source = (
        "import numpy as np\n"
        "class Combo:\n"
        "    def norm(self):\n"
        "        return 0.0\n"
        "    def size(self):\n"
        "        return 0\n"
        "    def scaled(self):\n"
        "        return self\n"
        "def use(c):\n"
        "    return np.linalg.norm(np.zeros(3).size * c.scaled().terms)\n"
        "use(Combo())\n"
    )
    unused = _unused({"toy": ast.parse(source)})
    assert unused == ["toy.Combo.norm", "toy.Combo.size"]


def _tracing():
    """``perfbench/tracing.py``, loaded from its file (perfbench is not a package)."""
    spec = importlib.util.spec_from_file_location("tracing", ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_perfbench_metrics_name_public_functions_or_traced_methods():
    # a per-layer metric "<module>.<name>.<stat>" reads the span of a public
    # function of carshift.<module> or of a traced method; deleting the
    # function or renaming the method would make the traced run fail
    tracing = _tracing()
    for module_name, class_name, method, _ in tracing.METHODS:
        owner = getattr(importlib.import_module("carshift." + module_name), class_name)
        assert method in vars(owner), f"{module_name}.{class_name}.{method}"
    metrics = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    counters = {counter for counter, _ in tracing.COUNTERS.values()} | {"cli.csv_bytes"}
    spans = {span for *_, span in tracing.METHODS}
    missing = []
    for metric in metrics:
        module_name = metric.split(".")[0]
        if module_name not in tracing.MODULES or metric in counters:
            continue
        span = metric.rsplit(".", 1)[0]
        module = importlib.import_module("carshift." + module_name)
        function = getattr(module, span.split(".", 1)[1], None)
        public = inspect.isfunction(function) and function.__module__ == module.__name__
        if not (public or span in spans):
            missing.append(metric)
    assert missing == []
    for name, reason in KEEP.items():
        if "perfbench" in reason:
            assert any(metric in reason for metric in metrics), name
