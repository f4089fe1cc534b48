"""Every name the package exports is code the package itself runs.

A public name that only tests call is a test helper living in the library;
it belongs under tests/. The check is syntactic: an exported name must be
read (as a bare name or an attribute) somewhere in the package's modules
other than ``__init__.py``. Its own ``def``/``class`` line and the import
lines that re-export it do not count.
"""

import ast
import pathlib

import autolabel

SRC = pathlib.Path(autolabel.__file__).parent


def exported_names() -> "set[str]":
    tree = ast.parse((SRC / "__init__.py").read_text())
    return {alias.asname or alias.name
            for node in tree.body if isinstance(node, ast.ImportFrom)
            for alias in node.names}


def referenced_names() -> "set[str]":
    used = set()
    for path in SRC.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


def test_exports_are_found():
    names = exported_names()
    assert {"run_tbal", "estimate_thresholds", "parse_config"} <= names
    assert all(hasattr(autolabel, name) for name in names)


def test_every_export_is_used_inside_the_package():
    unused = sorted(exported_names() - referenced_names())
    assert unused == [], f"exported but run by nothing in the package: {unused}"
