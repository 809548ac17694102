"""Report imports that their module never uses.

Usage: python scripts/check_imports.py [FILE_OR_DIR ...]

Scans the Python files under ``src/``, ``tests/`` and ``scripts/`` of the
repository (or the paths given) with the standard ``ast`` module only.  A
name bound by an import is unused when it is never read anywhere in its
module: not as a bare name, not as the root of an attribute chain, and not
listed in the module's ``__all__`` (how ``__init__.py`` re-exports).
``from __future__`` imports are directives, not bindings, and are skipped.
Prints one line per unused import and exits 1 if there is any, else 0.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_DIRS = ("src", "tests", "scripts")


def _exported(tree: ast.Module) -> set[str]:
    """The string entries of a module-level ``__all__`` list or tuple."""
    names: set[str] = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            if isinstance(node.value, (ast.List, ast.Tuple)):
                names.update(
                    e.value for e in node.value.elts
                    if isinstance(e, ast.Constant) and isinstance(e.value, str)
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
    used |= _exported(tree)
    return sorted((line, name) for name, line in imported.items() if name not in used)


def report(paths: list[Path]) -> list[str]:
    """One ``file:line: name`` line per unused import in the Python files under ``paths``."""
    files = sorted(
        f for p in paths for f in (p.rglob("*.py") if p.is_dir() else [p])
    )
    return [
        f"{f}:{line}: {name!r} imported but unused"
        for f in files
        for line, name in unused_imports(f.read_text(encoding="utf-8"), str(f))
    ]


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    found = report([Path(a) for a in args] or [ROOT / d for d in DEFAULT_DIRS])
    print("\n".join(found) if found else "no unused imports")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
