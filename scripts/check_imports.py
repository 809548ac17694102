"""Report imports that their module never uses, and exports it never binds.

Usage: python scripts/check_imports.py [FILE_OR_DIR ...]

Scans the Python files under ``src/``, ``tests/`` and ``scripts/`` of the
repository (or the paths given) with the standard ``ast`` module only.  A
name bound by an import is unused when it is never read anywhere in its
module: not as a bare name, not as the root of an attribute chain, and not
listed in the module's ``__all__`` (how ``__init__.py`` re-exports).
``from __future__`` imports are directives, not bindings, and are skipped.
An ``__all__`` entry is unbound when no module-level import, ``def``,
``class`` or assignment binds it, which breaks ``from module import *``.
Prints one line per unused import or unbound export and exits 1 if there is
any, else 0.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_DIRS = ("src", "tests", "scripts")


def _exported(tree: ast.Module) -> dict[str, int]:
    """The string entries of a module-level ``__all__`` list or tuple, with their lines."""
    names: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            if isinstance(node.value, (ast.List, ast.Tuple)):
                names.update(
                    (e.value, e.lineno) for e in node.value.elts
                    if isinstance(e, ast.Constant) and isinstance(e.value, str)
                )
    return names


def _module_bindings(tree: ast.Module) -> set[str]:
    """Names bound at module level by import, ``def``, ``class`` or assignment.

    Statements nested in module-level ``if``, ``try``, ``with`` or ``for``
    bind module names too; function and class bodies do not.  A star import
    binds names unknown here and is recorded as ``"*"``.
    """
    names: set[str] = set()
    todo: list[ast.AST] = list(tree.body)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(
                n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)
            )
        else:
            todo.extend(
                n for n in ast.iter_child_nodes(node)
                if isinstance(n, (ast.stmt, ast.excepthandler))
            )
    return names


def unused_imports(source: str, filename: str = "<unknown>") -> list[tuple[int, str]]:
    """(line, name) of each imported name the module never reads, sorted."""
    tree = ast.parse(source, filename)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                # ``import a.b`` binds ``a``
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    used.update(_exported(tree))
    return sorted((line, name) for name, line in imported.items() if name not in used)


def unbound_exports(source: str, filename: str = "<unknown>") -> list[tuple[int, str]]:
    """(line, name) of each ``__all__`` entry the module never binds, sorted."""
    tree = ast.parse(source, filename)
    bound = _module_bindings(tree)
    if "*" in bound:
        return []
    return sorted(
        (line, name) for name, line in _exported(tree).items() if name not in bound
    )


def report(paths: list[Path]) -> list[str]:
    """One ``file:line: name`` line per unused import or unbound export under ``paths``."""
    files = sorted(
        f for p in paths for f in (p.rglob("*.py") if p.is_dir() else [p])
    )
    found = []
    for f in files:
        source = f.read_text(encoding="utf-8")
        found += [
            f"{f}:{line}: {name!r} imported but unused"
            for line, name in unused_imports(source, str(f))
        ]
        found += [
            f"{f}:{line}: {name!r} in __all__ but never bound"
            for line, name in unbound_exports(source, str(f))
        ]
    return found


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    found = report([Path(a) for a in args] or [ROOT / d for d in DEFAULT_DIRS])
    print("\n".join(found) if found else "no unused imports or unbound exports")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
