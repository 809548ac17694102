"""Every name a module imports is used in that module.

The package's ``__init__.py`` is left out: it imports names only to
re-export them.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(
    path
    for folder in ("src/rcfilter", "tests", "scripts")
    for path in (ROOT / folder).glob("*.py")
    if path != ROOT / "src" / "rcfilter" / "__init__.py"
)


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each imported name the module never reads."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                # `import a.b` binds `a`
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_unused_imports_lists_each_unread_name():
    source = "import os, sys\nfrom a.b import c, d as e\nimport x.y\nprint(sys, e, x)\n"
    assert unused_imports(source) == [(1, "os"), (2, "c")]


def test_no_unused_imports():
    found = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path in FILES
        for line, name in unused_imports(path.read_text())
    ]
    assert FILES
    assert found == [], "unused imports:\n" + "\n".join(found)
