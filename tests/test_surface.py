"""Guards on the shape of src/seqlimit, read from its source files: no
unused import, and no function, class or method that nothing calls.  The
test files, tests/*.py, are held to the first: no unused import.

A public top-level def or class must be referenced somewhere in src/
other than its own body and the package's exports, or be one of the few
names in CALLED_FROM_TESTS, which the acceptance criteria and the test
oracles in tests/util.py call.  A name that only tests use belongs in
tests/util.py.  A private top-level def or class (`_name`) must be
referenced somewhere in src/ other than its own body, so a helper whose
last caller is gone goes with it.  A method of a top-level class, other
than a dunder, must be read as an attribute of that name somewhere in
src/ outside its own body, or be listed in CALLED_FROM_TESTS: so test-only
methods, such as the `PiecewisePoly` operators that tests/util.py now
holds as functions, do not grow back.  The check goes by name, so a
method that shares its name with another attribute passes.

The modules form layers, in the order of LAYERS: each imports, anywhere
in its body, only modules of the package earlier in that order.  So the
pattern-trie walk that counts words and integrates limits stays in
`words`, below `piecewise`, and no lower layer reaches up.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "seqlimit"
MODULES = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
TEST_MODULES = {f"tests.{path.stem}": ast.parse(path.read_text())
                for path in sorted(Path(__file__).resolve().parent.glob("*.py"))}

CALLED_FROM_TESTS = {
    "words.pattern_density": "t(u, w), the pattern density every result is stated in",
    "words.all_patterns": "criteria 02 and 04",
    "words.density_table": "criterion 13",
    "words.hamming_d1": "criterion 09",
    "words.extract": "the reference of `random_subsequence`, which gathers the codes at its positions itself",
    "permutons.grid_density_table": "criterion 11",
    "permutons._GuideTable.draw": "its contract with Generator.choice; `_grid_points` reads the same `slots`",
    "moments.moment_words": "criterion 06",
    "moments.MomentCombination.evaluate": "criterion 06",
    "uniformity.discrepancy": "criteria 03 and 04; `quasirandomness_report` scores its hulls itself",
    "uniformity.best_uniformity": "the exact minimum over d; `analyze` reads it off `quasirandomness_report`",
}


LAYERS = ["streams", "words", "poly", "piecewise", "uniformity", "sampling", "moments",
          "regularity", "hereditary", "permutons", "serialize", "cli"]


def package_imports(tree: ast.Module) -> set[str]:
    """Modules of the package that a module imports, at any depth."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("seqlimit")):
            module = (node.module or "").removeprefix("seqlimit").lstrip(".")
            names |= {module.split(".")[0]} if module else {a.name for a in node.names}
        elif isinstance(node, ast.Import):
            names |= {a.name.split(".")[1] for a in node.names if a.name.startswith("seqlimit.")}
    return names


def test_each_module_imports_only_earlier_layers():
    assert sorted(MODULES) == sorted([*LAYERS, "__init__", "__main__"])
    assert package_imports(MODULES["piecewise"]) == {"poly", "words"}
    assert package_imports(MODULES["uniformity"]) == {"words"}
    for i, module in enumerate(LAYERS):
        assert sorted(package_imports(MODULES[module]) - set(LAYERS[:i])) == [], module


def top_level_imports(tree: ast.Module) -> list[str]:
    names = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            names += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names += [a.asname or a.name for a in node.names]
    return names


def top_level_defs() -> dict[str, set[tuple[str, str | None]]]:
    """'module.name' of each top-level def or class outside __init__,
    with the (module, top-level def) pairs that reference it."""
    refs: dict[str, set[tuple[str, str | None]]] = {}
    defs = []
    for module, tree in MODULES.items():
        if module == "__init__":
            continue
        for node in tree.body:
            owner = getattr(node, "name", None)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs.append((module, owner))
            for sub in ast.walk(node):
                name = sub.id if isinstance(sub, ast.Name) else sub.attr if isinstance(sub, ast.Attribute) else None
                if name:
                    refs.setdefault(name, set()).add((module, owner))
    return {f"{m}.{n}": refs.get(n, set()) - {(m, n)} for m, n in defs}


@pytest.mark.parametrize("module", sorted(m for m in MODULES if m != "__init__") + sorted(TEST_MODULES))
def test_every_import_is_used(module):
    tree = {**MODULES, **TEST_MODULES}[module]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert [name for name in top_level_imports(tree) if name not in used] == []


def is_private(name: str) -> bool:
    return name.split(".")[1].startswith("_")


def class_methods() -> dict[str, int]:
    """'module.Class.method' of each non-dunder method of a top-level class
    outside __init__, with the number of attribute reads of its name in
    src/ outside its own body."""
    attrs = [node for module, tree in MODULES.items() if module != "__init__"
             for node in ast.walk(tree) if isinstance(node, ast.Attribute)]
    out = {}
    for module, tree in MODULES.items():
        for cls in (node for node in tree.body if isinstance(node, ast.ClassDef) and module != "__init__"):
            for fn in (node for node in cls.body if isinstance(node, ast.FunctionDef)):
                if not (fn.name.startswith("__") and fn.name.endswith("__")):
                    inside = {id(node) for node in ast.walk(fn)}
                    out[f"{module}.{cls.name}.{fn.name}"] = sum(
                        node.attr == fn.name and id(node) not in inside for node in attrs)
    return out


def test_every_public_def_has_a_caller_in_src_or_is_listed():
    defs = {name: users for name, users in top_level_defs().items() if not is_private(name)}
    uncalled = {name for name, users in defs.items() if not users}
    assert sorted(uncalled - set(CALLED_FROM_TESTS)) == []
    assert set(CALLED_FROM_TESTS) <= set(defs) | set(class_methods())


def test_every_method_has_a_caller_in_src_or_is_listed():
    methods = class_methods()
    assert len(methods) > 30 and "piecewise.PiecewisePoly.range_bounds" in methods
    assert sorted(name for name, reads in methods.items() if not reads and name not in CALLED_FROM_TESTS) == []


def test_every_private_def_has_a_caller_in_src():
    assert sorted(name for name, users in top_level_defs().items() if is_private(name) and not users) == []
