"""Every module-level function and class of the library, and every public
method of its classes, has a caller.

A definition counts as used when another library module names it (as a
name, an attribute or an imported name), when its own module names it
outside its own definition, when ``bench/*.py`` names it (strings included,
since the benchmark wraps functions by name), or when ``[project.scripts]``
points at it.  Re-exports in ``__init__.py`` do not count: code that only
the tests call belongs with the tests.  Methods whose names start with an
underscore, dunders included, are exempt.

Every exception class of the library is raised in the module that defines
it: a class defined in one module for others to raise is a second owner of
the failure it names.
"""
import ast
import builtins
import tomllib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "regmom"


def names_in(nodes, strings: bool = False, skip: ast.AST | None = None) -> set[str]:
    """Names, attributes and imported names in the trees ``nodes``, outside
    the subtree ``skip``."""
    out: set[str] = set()
    stack = list(nodes)
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.add(node.value)
        stack.extend(ast.iter_child_nodes(node))
    return out


def definitions(tree: ast.Module):
    """(qualified name, node) of each top-level def/class and public method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item


def unused_definitions(modules: dict[str, str], outside: set[str]) -> list[str]:
    """'<module>.<qualified name>' for each definition nobody else names.

    ``modules`` maps module names to their source; ``outside`` holds the
    names used outside the library.
    """
    trees = {mod: ast.parse(src) for mod, src in modules.items()}
    unused = []
    for mod, tree in trees.items():
        others = names_in(t for m, t in trees.items() if m not in (mod, "__init__"))
        for qualname, node in definitions(tree):
            if node.name not in others | names_in([tree], skip=node) | outside:
                unused.append(f"{mod}.{qualname}")
    return unused


def test_checker_flags_definitions_without_callers():
    modules = {
        "__init__": "from .a import lonely, used\n",
        "a": ("def used(): pass\n"
              "def helper(): pass\n"
              "def lonely(): return lonely()\n"
              "def caller(): return helper()\n"
              "def traced(): pass\n"
              "class Box:\n"
              "    def __init__(self): self._fill()\n"
              "    def _fill(self): pass\n"
              "    def _spare(self): pass\n"
              "    def opened(self): pass\n"
              "    def solo(self): return self.solo()\n"),
        "b": "from .a import used, Box\nused()\nBox().opened()\n",
    }
    assert unused_definitions(modules, outside={"traced"}) == ["a.lonely", "a.caller",
                                                               "a.Box.solo"]


def test_library_definitions_have_callers():
    modules = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    outside = names_in((ast.parse(p.read_text()) for p in sorted((ROOT / "bench").glob("*.py"))),
                       strings=True)
    scripts = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["scripts"]
    outside.update(target.rpartition(":")[2] for target in scripts.values())
    assert unused_definitions(modules, outside) == []


def exceptions_not_raised_at_home(modules: dict[str, str]) -> list[str]:
    """'<module>.<class>' for each exception class whose own module has no
    ``raise`` of it.  A class is an exception class when a base is a builtin
    exception or another exception class of ``modules``."""
    trees = {mod: ast.parse(src) for mod, src in modules.items()}
    classes = [(mod, node) for mod, tree in trees.items() for node in tree.body
               if isinstance(node, ast.ClassDef)]
    exceptions: set[str] = set()
    for _ in classes:      # enough passes for any chain of library bases
        for _, node in classes:
            for base in node.bases:
                name = base.id if isinstance(base, ast.Name) else None
                builtin = getattr(builtins, name or "", None)
                if name in exceptions or (isinstance(builtin, type)
                                          and issubclass(builtin, BaseException)):
                    exceptions.add(node.name)
    raised = {mod: set() for mod in trees}
    for mod, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                target = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(target, ast.Name):
                    raised[mod].add(target.id)
    return [f"{mod}.{node.name}" for mod, node in classes
            if node.name in exceptions and node.name not in raised[mod]]


def test_checker_flags_exceptions_raised_only_elsewhere():
    modules = {
        "a": ("class Lost(ValueError): pass\n"
              "class Kept(RuntimeError): pass\n"
              "class Child(Kept): pass\n"
              "class Plain: pass\n"
              "def fail(): raise Kept('x')\n"),
        "b": "from .a import Child, Lost\ndef g():\n    raise Lost('y')\n",
    }
    assert exceptions_not_raised_at_home(modules) == ["a.Lost", "a.Child"]


def test_library_exceptions_are_raised_where_they_are_defined():
    modules = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert exceptions_not_raised_at_home(modules) == []
