"""The product is what runs: every public class, function and method under
``src/repro`` has a caller in the product.

The product is ``src/repro`` (outside the name's own definition and the
packages' ``__init__`` re-exports) plus ``bench/``, ``examples/`` and
``tools/``.  A name that only tests call is a test helper and lives in
``tests/helpers.py``; a name whose only subject is its own tests goes.  The
few names kept anyway are listed in :data:`ALLOWED`, each with its reason.

The scan matches by name: a method counts as called when any product code
reads an attribute of that name.  It walks the syntax tree rather than the
token stream, so comments and strings (docstrings included) never count as
a caller, and a name read inside an f-string counts on every Python version
(3.11 tokenizes an f-string as one string token, 3.12 as its parts).
"""

from __future__ import annotations

import ast
import pathlib
from typing import Dict, Iterator, Set, Tuple

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
PRODUCT = (SRC, ROOT / "bench", ROOT / "examples", ROOT / "tools")

#: Public names with no product caller, kept on purpose: name -> reason.
ALLOWED: Dict[str, str] = {}


def _definitions(path: pathlib.Path) -> Iterator[Tuple[str, str]]:
    """``(qualified name, bare name)`` of every public top-level class and
    function of ``path`` and every public method of those classes."""
    tree = ast.parse(path.read_text(), filename=str(path))
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if not isinstance(node, defs) or node.name.startswith("_"):
            continue
        yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, defs) and not sub.name.startswith("_"):
                    yield f"{node.name}.{sub.name}", sub.name


def _names_read(path: pathlib.Path) -> Set[str]:
    """Every name ``path``'s code reads: variables, attributes, and names
    imported into a module that is not a package's re-export list."""
    names: Set[str] = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and path.name != "__init__.py":
            names.update(alias.name for alias in node.names)
    return names


def product_orphans() -> Set[str]:
    """Public ``src/repro`` names nothing in the product reads."""
    read: Set[str] = set()
    for base in PRODUCT:
        for path in base.rglob("*.py"):
            if path.name != "__init__.py" or SRC not in path.parents:
                read |= _names_read(path)
    return {
        qualified
        for path in sorted(SRC.rglob("*.py"))
        for qualified, bare in _definitions(path)
        if bare not in read
    }


def test_every_public_name_has_a_product_caller():
    orphans = product_orphans()
    assert orphans - set(ALLOWED) == set(), (
        "public names only tests call: move each to tests/helpers.py, or "
        "delete it with the tests whose only subject it is"
    )
    assert set(ALLOWED) - orphans == set(), (
        "allowlisted names that now have a product caller: drop them from "
        "ALLOWED"
    )


def test_allowlist_is_short_and_explained():
    assert len(ALLOWED) <= 5
    assert all(reason.strip() for reason in ALLOWED.values())
