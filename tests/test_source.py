"""Rules the package source keeps, read from its syntax trees."""

import ast
import builtins
from pathlib import Path

import pytest

import polariton_phases

_SRC = Path(polariton_phases.__file__).resolve().parent
_MODULES = sorted(_SRC.rglob("*.py"))


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _bound_at_module_scope(tree: ast.Module) -> set[str]:
    """Names the module's top-level statements bind, those under a
    top-level `if` (`if TYPE_CHECKING:` imports) included."""
    names = set()
    pending = list(tree.body)
    while pending:
        node = pending.pop()
        if isinstance(node, ast.If):
            pending += node.body + node.orelse
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names |= {(a.asname or a.name).split(".")[0] for a in node.names}
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            names |= {n.id for t in targets for n in ast.walk(t)
                      if isinstance(n, ast.Name)}
    return names


def _annotations(tree: ast.Module):
    """(line, expression) of every annotation in the module, a string one
    parsed."""
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef):
            args = node.args
            found = [a.annotation for a in (*args.posonlyargs, *args.args,
                                            *args.kwonlyargs, args.vararg,
                                            args.kwarg) if a is not None]
            found.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            found = [node.annotation]
        else:
            continue
        for annotation in filter(None, found):
            line = annotation.lineno
            if isinstance(annotation, ast.Constant) \
                    and isinstance(annotation.value, str):
                annotation = ast.parse(annotation.value, mode="eval").body
            yield line, annotation


def test_modules_found():
    assert {p.name for p in _MODULES} >= {"__init__.py", "nlse.py",
                                          "bh_ed.py", "cli.py"}


@pytest.mark.parametrize("path", _MODULES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    # python -O strips assert: a runtime check must raise instead
    lines = [node.lineno for node in ast.walk(_tree(path))
             if isinstance(node, ast.Assert)]
    assert lines == [], f"assert at {path.name} lines {lines}"


@pytest.mark.parametrize("path", _MODULES, ids=lambda p: p.name)
def test_annotation_names_bound_at_module_scope(path):
    # an annotation may name a module the code imports only inside a
    # function, but type checkers resolve it at module scope: it must be
    # bound there, under TYPE_CHECKING where the import is costly
    tree = _tree(path)
    bound = _bound_at_module_scope(tree) | set(dir(builtins))
    unbound = sorted({f"{node.id} (line {line})"
                      for line, annotation in _annotations(tree)
                      for node in ast.walk(annotation)
                      if isinstance(node, ast.Name) and node.id not in bound})
    assert unbound == [], f"{path.name}: unbound {unbound}"
