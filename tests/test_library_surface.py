"""Every module-level function and class of the library has a caller.

A definition counts as used when another library module names it (as a
name, an attribute or an imported name), when its own module names it
outside its own definition, when ``bench/*.py`` names it (strings included,
since the benchmark wraps functions by name), or when ``[project.scripts]``
points at it.  Re-exports in ``__init__.py`` do not count: code that only
the tests call belongs with the tests.
"""
import ast
import tomllib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "regmom"


def names_in(nodes, strings: bool = False) -> set[str]:
    """Names, attributes and imported names in the trees ``nodes``."""
    out: set[str] = set()
    for tree in nodes:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                out.add(node.id)
            elif isinstance(node, ast.Attribute):
                out.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                out.update(alias.name for alias in node.names)
            elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
                out.add(node.value)
    return out


def unused_definitions(modules: dict[str, str], outside: set[str]) -> list[str]:
    """'<module>.<name>' for each top-level def/class nobody else names.

    ``modules`` maps module names to their source; ``outside`` holds the
    names used outside the library.
    """
    trees = {mod: ast.parse(src) for mod, src in modules.items()}
    unused = []
    for mod, tree in trees.items():
        others = names_in(t for m, t in trees.items() if m not in (mod, "__init__"))
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            own = names_in(n for n in tree.body if n is not node)
            if node.name not in others | own | outside:
                unused.append(f"{mod}.{node.name}")
    return unused


def test_checker_flags_definitions_without_callers():
    modules = {
        "__init__": "from .a import lonely, used\n",
        "a": ("def used(): pass\n"
              "def helper(): pass\n"
              "def lonely(): return lonely()\n"
              "def caller(): return helper()\n"
              "def traced(): pass\n"),
        "b": "from .a import used\nused()\n",
    }
    assert unused_definitions(modules, outside={"traced"}) == ["a.lonely", "a.caller"]


def test_library_definitions_have_callers():
    modules = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    outside = names_in((ast.parse(p.read_text()) for p in sorted((ROOT / "bench").glob("*.py"))),
                       strings=True)
    scripts = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["scripts"]
    outside.update(target.rpartition(":")[2] for target in scripts.values())
    assert unused_definitions(modules, outside) == []
