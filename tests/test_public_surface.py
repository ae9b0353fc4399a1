"""Every public name and every private helper has a caller.

A name in a module's ``__all__``, and a public method or property of a
public class, must be used somewhere in ``src/sparsekl`` outside its own
definition (``__all__`` lists and ``__init__.py`` re-exports do not count,
and neither do docstrings; a member's own class does not count), or be named
in README.md, which lists the public API that no route in ``src/`` calls; a
member is named there as ``Class.member``.
A private top-level function or class must be used in ``src/sparsekl``
outside its own definition; a use in a test does not count.
"""

import ast
import pathlib
import re

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "sparsekl"
README = SRC.parents[1] / "README.md"


def _public_names(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return [elt.value for elt in node.value.elts]
    return []


def _definitions(tree):
    """Top-level definitions by name: the nodes whose own references do not count."""
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out[node.name] = node
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    out[target.id] = node
    return out


def _used_names(node):
    """Names and attributes read in ``node``; string constants, docstrings among
    them, and import statements are not uses."""
    names = []
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.append(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.append(sub.attr)
    return names


def _trees_and_uses(src):
    """Each module's tree but ``__init__``'s, and for each name the modules and
    top-level definitions it is used from."""
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(src.glob("*.py"))}
    trees.pop("__init__", None)
    used = {}
    for module, tree in trees.items():
        defs = _definitions(tree)
        for node in tree.body:
            owner = next((name for name, d in defs.items() if d is node), None)
            for name in _used_names(node):
                used.setdefault(name, set()).add((module, owner))
    return trees, used


def _public_api(tree):
    """``(label, name, owner)`` for each public name of a module, then each public method
    or property of its public classes: uses inside the top-level definition ``owner``
    do not count, and the README must name the ``label`` (``Class.member``)."""
    names = _public_names(tree)
    for name in names:
        yield name, name, name
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and node.name in names:
            for member in node.body:
                if isinstance(member, ast.FunctionDef) and not member.name.startswith("_"):
                    yield f"{node.name}.{member.name}", member.name, node.name


def uncalled_public_names(src, readme_text):
    """``module.label`` for each public name, method or property with no use in ``src``
    and no mention in the README."""
    trees, used = _trees_and_uses(src)
    missing = []
    for module, tree in trees.items():
        for label, name, owner in _public_api(tree):
            callers = used.get(name, set()) - {(module, owner)}
            if not callers and not re.search(rf"\b{re.escape(label)}\b", readme_text):
                missing.append(f"{module}.{label}")
    return missing


def uncalled_private_helpers(src):
    """``module.name`` for each private top-level function or class with no use in ``src``."""
    trees, used = _trees_and_uses(src)
    return [
        f"{module}.{name}"
        for module, tree in trees.items()
        for name, node in _definitions(tree).items()
        if name.startswith("_")
        and isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not used.get(name, set()) - {(module, name)}
    ]


def test_every_public_name_has_a_caller_or_a_readme_entry():
    assert uncalled_public_names(SRC, README.read_text(encoding="utf-8")) == []


def test_every_private_helper_has_a_caller():
    assert uncalled_private_helpers(SRC) == []


def test_scan_counts_only_real_uses(tmp_path):
    (tmp_path / "__init__.py").write_text("from .a import *\nfrom .a import lonely\n")
    (tmp_path / "a.py").write_text(
        '__all__ = ["used", "lonely", "recursive", "documented", "listed", "CONST", "Holder"]\n'
        "CONST = 3\n"
        "def used(): return CONST\n"
        "def lonely(): pass\n"
        "def recursive(n): return recursive(n - 1)\n"
        "def documented(): pass\n"
        "def listed(): pass\n"
        "def _helper(): return _Shared()\n"
        "class _Shared: pass\n"
        "def _stale(n): return _stale(n - 1)\n"
        "x = _helper()\n"
        "class Holder:\n"
        "    def called(self): return self.unused()\n"
        "    def unused(self): pass\n"
    )
    (tmp_path / "b.py").write_text(
        '"""Names ``lonely`` in a docstring only."""\n'
        "from .a import listed\nfrom . import a\nx = a.used()\ny = a.Holder().called()\n"
    )
    missing = uncalled_public_names(tmp_path, "The API also offers `documented`, not `unused`.")
    # a public method whose only use is inside its own class has no caller
    assert missing == ["a.lonely", "a.recursive", "a.listed", "a.Holder.unused"]
    # a private helper whose only use is inside its own definition has no caller
    assert uncalled_private_helpers(tmp_path) == ["a._stale"]
