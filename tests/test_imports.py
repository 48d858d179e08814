"""Every name that a package module imports is used in that module, and
every public function, class, method or property of the package has a
caller in the package or the benchmark."""

import ast
from importlib import resources
from pathlib import Path

# (module, name): why the import stays although the module never uses it.
_KEPT = {
    ("baselines", "evaluate_fixed_solutions"):
        "the benchmark's tracer wraps it in the baselines namespace",
}

# name (``Class.method`` for a method or property): why a public definition
# stays although nothing in src/ or benchmarks/ refers to it by name.
_UNCALLED: dict[str, str] = {
    "MstOracle.perturbed_adam_pass":
        "the trainer looks it up through getattr by its name as a string",
    "MstOracle.perturbed_split_pass":
        "the trainer looks it up through getattr by its name as a string",
}

_BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


def _annotation_names(node: ast.AST) -> set[str]:
    """Names inside a string annotation such as ``"np.ndarray"``."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return {n.id for n in ast.walk(ast.parse(node.value, mode="eval"))
                if isinstance(n, ast.Name)}
    return set()


def _imports_and_uses(tree: ast.Module) -> tuple[dict[str, int], set[str]]:
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation is not None:
            used |= _annotation_names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            used |= _annotation_names(node.returns)
    return imported, used


def _modules():
    root = resources.files("costru")
    for path in sorted(root.rglob("*.py")):
        if path.name != "__init__.py":  # a package's imports are its re-exports
            yield ".".join(path.relative_to(root).with_suffix("").parts), path


def test_no_unused_imports():
    unused = []
    for module, path in _modules():
        imported, used = _imports_and_uses(ast.parse(path.read_text()))
        unused += [f"{module}:{line} imports {name}" for name, line in imported.items()
                   if name not in used and (module, name) not in _KEPT]
    assert not unused, "\n".join(unused)


def test_kept_imports_are_still_imported():
    """An entry of _KEPT goes when its module stops importing the name."""
    modules = dict(_modules())
    for module, name in _KEPT:
        imported, _ = _imports_and_uses(ast.parse(modules[module].read_text()))
        assert name in imported, f"{module} no longer imports {name}"


def _public_definitions(tree: ast.Module) -> dict[str, int]:
    """Line of each top-level public function or class, and of each public
    method or property of a class, as ``Class.method``."""
    defs = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defs[node.name] = node.lineno
        if isinstance(node, ast.ClassDef):
            defs |= {f"{node.name}.{item.name}": item.lineno for item in node.body
                     if isinstance(item, ast.FunctionDef)}
    return {name: line for name, line in defs.items()
            if not name.rpartition(".")[2].startswith("_")}


def _references(tree: ast.Module) -> set[str]:
    """Names that the code loads, bare or as an attribute; an import alone
    is not a reference.  Matching is by name, whatever the module."""
    return {node.id if isinstance(node, ast.Name) else node.attr for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))}


def test_public_names_have_callers():
    """Tests do not count as callers: a public entry that only tests call is
    surface to delete (the tests call what it forwards to).  A method or
    property counts as called when any code loads an attribute of its name."""
    trees = {module: ast.parse(path.read_text()) for module, path in _modules()}
    referenced = set().union(*map(_references, trees.values()))
    for path in sorted(_BENCHMARKS.rglob("*.py")):
        referenced |= _references(ast.parse(path.read_text()))
    uncalled = [f"{module}:{line} defines {name}" for module, tree in trees.items()
                for name, line in _public_definitions(tree).items()
                if name.rpartition(".")[2] not in referenced and name not in _UNCALLED]
    assert not uncalled, "\n".join(uncalled)


def test_uncalled_entries_are_still_defined():
    """An entry of _UNCALLED goes when its name is no longer defined."""
    defined = set().union(*(_public_definitions(ast.parse(path.read_text()))
                            for _, path in _modules()))
    assert set(_UNCALLED) <= defined
