"""Every name that a package module imports is used in that module."""

import ast
from importlib import resources

# (module, name): why the import stays although the module never uses it.
_KEPT = {
    ("baselines", "evaluate_fixed_solutions"):
        "the benchmark's tracer wraps it in the baselines namespace",
}


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
