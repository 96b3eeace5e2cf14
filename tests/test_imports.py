"""Every name a library module imports is used in that module.

A name counts as used when it appears as a name anywhere in the module's
syntax tree besides its import, or as a string in ``__all__``.  An import
statement marked ``# noqa: F401`` is a deliberate re-export and is skipped.
"""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "regmom"


def unused_imports(source: str) -> list[str]:
    """'<line> <name>' for each imported name that the module never uses."""
    lines = source.splitlines()
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) == "__future__":
                continue
            if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
                continue
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, ast.Assign) and isinstance(node.value, (ast.List, ast.Tuple))
              and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(e.value for e in node.value.elts if isinstance(e, ast.Constant))
    return [f"{line} {name}" for name, line in sorted(imported.items(), key=lambda kv: kv[1])
            if name not in used]


def test_checker_flags_unused_and_honours_noqa():
    source = ("import os\nimport sys\nfrom math import pi, tau  # noqa: F401\n"
              "from json import dumps\n__all__ = ['dumps']\nprint(sys.argv)\n")
    assert unused_imports(source) == ["1 os"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_library_module_has_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
