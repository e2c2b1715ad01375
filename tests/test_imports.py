"""Every module of the package, every test module and every demo uses each
name it imports, every function of the package reads each of its
parameters, and only ``config`` and the measure side read ``Config.tol``.

The checks read the source with ``ast``: a name bound by an import must be
read somewhere in the module, as a name or as the base of an attribute, and
a parameter somewhere in its function's body (``self`` and ``cls`` are
exempt).  The package ``__init__`` only re-exports, so it is left out of the
import check.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "riskchain"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
SCRIPTS = sorted(ROOT.glob("tests/*.py")) + sorted(ROOT.glob("demos/*.py"))


def imported_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            # ``import a.b`` binds ``a``
            names.update(a.asname or a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
    return names


def read_names(tree: ast.Module) -> set[str]:
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def test_the_package_is_found():
    assert SRC / "riskset.py" in MODULES


def module_id(path: Path) -> str:
    return path.stem if path.parent == SRC else f"{path.parent.name}/{path.stem}"


@pytest.mark.parametrize("path", MODULES + SCRIPTS, ids=module_id)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert sorted(imported_names(tree) - read_names(tree)) == []


def unread_parameters(tree: ast.Module) -> list[str]:
    """``function.parameter`` for each parameter that its function's body
    never reads; a read in a nested function or lambda counts."""
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        a = node.args
        params = a.posonlyargs + a.args + a.kwonlyargs + [p for p in (a.vararg, a.kwarg) if p]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = set().union(*(read_names(stmt) for stmt in body))
        name = getattr(node, "name", "<lambda>")
        out += [f"{name}.{p.arg}" for p in params
                if p.arg not in ("self", "cls") and p.arg not in read]
    return out


def test_no_unread_parameters():
    assert [f"{path.stem}.{name}" for path in sorted(SRC.glob("*.py"))
            for name in unread_parameters(ast.parse(path.read_text(encoding="utf-8")))] == []


# Functions outside ``config`` that may read ``.tol``: the measure side, whose
# comparisons keep their own rules.  Every other verdict compares with
# ``Config.tol_at``, the tolerance at its input's scale.
TOL_READERS = {
    "riskset.member": "the probability pre-check compares a measure's entries "
                      "and sum, and the NNLS threshold scales tol by its own rule",
    "cli.cmd_example6": "the golden diffs hold the engine to closed forms at tol itself",
}


def tol_reads(path: Path) -> list[str]:
    """``module.function`` once per read of an attribute ``tol``, named by the
    innermost function or class around it."""
    out = []

    def walk(node, where):
        for child in ast.iter_child_nodes(node):
            inner = where
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{where}.{child.name}"
            elif isinstance(child, ast.Attribute) and child.attr == "tol":
                out.append(where)
            walk(child, inner)

    walk(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    return out


def test_only_config_and_the_measure_side_read_tol():
    reads = [r for path in sorted(SRC.glob("*.py")) if path.name != "config.py"
             for r in tol_reads(path)]
    assert [r for r in reads if r not in TOL_READERS] == []
    assert sorted(set(reads)) == sorted(TOL_READERS)    # no stale exemption
