"""Guard against library code that nothing in the library uses.

Every public function, class and method defined under ``src/carshift`` must be
named somewhere in ``src/`` outside its own definition (a call, an attribute
access, a reference), or be listed in ``KEEP`` with the reason it stays.
Names are matched as identifiers, so a method counts as used when any
attribute of that name is read anywhere in the package.
"""

import ast
from collections import Counter
from pathlib import Path

import carshift

SRC = Path(carshift.__file__).parent

# qualified name -> why it stays although nothing in src/ names it
KEEP = {
    "opalg.AntilinearOperator.is_antiunitary": "oracle of polar_antilinear's J",
    "fock.creator": "perfbench",
    "fock.mode_annihilator": "perfbench",
    "fock.number_operator": "perfbench",
    "quasifree.purification_projection": "perfbench",
    "modular.commutant_check": "paper verdict-to-be (commutant = J M J)",
    "modular.kms_residual": "paper verdict-to-be (KMS condition)",
    "bogoliubov.lift": "paper verdict-to-be (implemented liftings)",
    "bogoliubov.Lifting.implementer": "paper verdict-to-be (implemented liftings)",
    "expcalc.ExpCombo.backshift": "oracle of backward_shift_matrix",
    "expcalc.ExpCombo.evaluate": "oracle of the closed-form inner products (quadrature)",
    "hardyshift.FlowData.apply_combo": "oracle of defect_hs_norm and defect_increment_hs",
    "hardyshift.defect_increment_hs": "acceptance",
    "hardyshift.estimate_inequalities": "acceptance",
    "hardyshift.laplace_pairing": "acceptance",
    "hardyshift.unitary_dilation": "acceptance",
    "hardyshift.wold_decompose": "paper verdict-to-be (Wold decomposition)",
    "hardyshift.GridModel.flow_matrix": "oracle of flow_dilation's compression",
    "hardyshift.DilationOperator.to_dense": "perfbench; oracle of the factored norms",
}


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


def _surface():
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    defs = [d for module, tree in trees.items() for d in _definitions(tree, module)]
    return trees, defs


def test_every_public_name_has_a_caller_or_a_reason():
    trees, defs = _surface()
    everywhere = sum((_names(tree) for tree in trees.values()), Counter())
    unused = []
    for qualname, node in defs:
        name = qualname.rsplit(".", 1)[1]
        if qualname not in KEEP and everywhere[name] == _names(node)[name]:
            unused.append(qualname)
    assert unused == [], "delete these or give them a KEEP reason: %s" % unused


def test_keep_names_only_definitions_that_exist():
    _, defs = _surface()
    assert sorted(set(KEEP) - {qualname for qualname, _ in defs}) == []
