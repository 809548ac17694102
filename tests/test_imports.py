"""Every name a module imports is used in that module.

The scan is ``scripts/check_imports.py``, which CI also runs on its own.
"""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "check_imports", ROOT / "scripts" / "check_imports.py"
)
check_imports = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_imports)


def test_unused_imports_lists_each_unread_name():
    source = "import os, sys\nfrom a.b import c, d as e\nimport x.y\nprint(sys, e, x)\n"
    assert check_imports.unused_imports(source) == [(1, "os"), (2, "c")]
    # a future import binds nothing; a name in __all__ is read by re-export
    source = "from __future__ import annotations\nfrom m import f, g\n__all__ = ['f']\n"
    assert check_imports.unused_imports(source) == [(2, "g")]


def test_no_unused_imports():
    found = check_imports.report([ROOT / d for d in check_imports.DEFAULT_DIRS])
    assert found == [], "unused imports:\n" + "\n".join(found)
