"""Static checks on the package source: no stranded imports, no dead functions.

Both read src/designlab with the stdlib ast module only. A name counts as
referenced when it appears anywhere in the package as a name, an attribute
or an imported alias (so a re-export from __init__.py counts).
"""

from __future__ import annotations

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "designlab"
TREES = {p.name: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}

# public functions with no caller in src/, each kept by the test that uses it;
# an oracle that only tests use lives in tests/oracles.py instead
TEST_BACKED = {
    "haar_channel_reference": "test_densemat.py::test_k2_explicit_formula",
    "measure_alpha": "test_acceptance.py::test_criterion_6_reconstruction",
    "reconstruct_channel": "test_acceptance.py::test_criterion_6_reconstruction",
    "channel_coefficients_direct": "test_otolab.py::test_round_trip_matches_direct",
    # perfbench's tracer wraps it, and the stream tests use it as their oracle
    "Ensemble.sample_block": "test_densemat.py::test_tableau_chunks_are_counted_by_draws",
}


def _imported(tree: ast.Module) -> set[str]:
    names = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            names.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
    return names


def _referenced(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.asname or node.name)
    return names


@pytest.mark.parametrize("module", sorted(set(TREES) - {"__init__.py"}))
def test_every_import_is_used(module):
    tree = TREES[module]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(_imported(tree) - used) == []


def _public_functions(tree: ast.Module):
    """(qualified name, name) of each public function and of each public
    method of a public class."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield node.name, node.name
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item.name


def test_every_public_function_has_a_caller():
    referenced = set().union(*map(_referenced, TREES.values()))
    uncalled = {qualified for tree in TREES.values()
                for qualified, name in _public_functions(tree) if name not in referenced}
    # a new dead function fails the first; a wired-up one leaves a stale entry
    assert sorted(uncalled - set(TEST_BACKED)) == []
    assert sorted(set(TEST_BACKED) - uncalled) == []


@pytest.mark.parametrize("qualified", sorted(TEST_BACKED))
def test_each_exemption_names_a_test_that_uses_it(qualified):
    # the allow-list stays honest: its test exists and still calls the name
    file_name, test_name = TEST_BACKED[qualified].split("::")
    tree = ast.parse((pathlib.Path(__file__).parent / file_name).read_text())
    tests = [node for node in ast.walk(tree)
             if isinstance(node, ast.FunctionDef) and node.name == test_name]
    assert len(tests) == 1
    assert qualified.split(".")[-1] in _referenced(tests[0])


def _reads_of(tree: ast.AST, name: str) -> int:
    """Uses of `name` as a name or an attribute; a re-export is not a read."""
    return sum(isinstance(node, ast.Name) and node.id == name
               or isinstance(node, ast.Attribute) and node.attr == name
               for node in ast.walk(tree))


def test_one_weingarten_route():
    # every Weingarten sum goes through wg.contract; the k!^2 table is read
    # only by the Q Q^-1 row of the verify battery
    verify_row = next(node for node in TREES["cli.py"].body
                      if isinstance(node, ast.FunctionDef) and node.name == "_verify_checks")
    reads = {module: _reads_of(tree, "q_inverse") for module, tree in TREES.items()
             if module != "wg.py"}
    reads["cli.py"] -= _reads_of(verify_row, "q_inverse")
    assert {module: count for module, count in reads.items() if count} == {}


def _is_bound(name: str) -> bool:
    return name.startswith("MAX_") or name.endswith("_GUARD")


@pytest.mark.parametrize("module", sorted(set(TREES) - {"limits.py"}))
def test_bounds_have_one_home(module):
    # every guard and budget lives in limits.py and is read there at call
    # time, so one patch of limits.X reaches every check that reads it
    tree = TREES[module]
    assigned = [target.id for node in tree.body if isinstance(node, (ast.Assign, ast.AnnAssign))
                for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
                if isinstance(target, ast.Name) and _is_bound(target.id)]
    imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                for alias in node.names if _is_bound(alias.name)]
    bare = [node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and _is_bound(node.id)]
    elsewhere = [node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
                 and _is_bound(node.attr)
                 and not (isinstance(node.value, ast.Name) and node.value.id == "limits")]
    assert (assigned, imported, bare, elsewhere) == ([], [], [], [])


@pytest.mark.parametrize("module", sorted(set(TREES) - {"densemat.py", "cli.py"}))
def test_only_densemat_knows_draws_come_as_a_list(module):
    # Ensemble.average hands an integrand each exact draw of a list chunk
    # alone, so no integrand branches on a list (cli.py's are JSON values)
    listed = [node.lineno for node in ast.walk(TREES[module])
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "isinstance" and len(node.args) == 2
              and any(isinstance(t, ast.Name) and t.id == "list" for t in ast.walk(node.args[1]))]
    assert listed == []


def test_element_to_matrix_takes_one_element():
    # the runtime side of the rule above: a list of draws is not an element
    from designlab import cliffordgrp, densemat

    with pytest.raises(TypeError, match="cannot convert ensemble element of type <class 'list'>"):
        densemat.element_to_matrix(cliffordgrp.clifford_ensemble(2, seed=1).sample_block(1, 2))
