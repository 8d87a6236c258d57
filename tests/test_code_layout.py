"""Code that only the tests call lives in tests/, not in the package."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _trees(paths):
    return [(p, ast.parse(p.read_text(encoding="utf-8"))) for p in paths]


def test_every_public_definition_is_used_outside_the_tests():
    """Every public top-level function or class of src/diarkit is named
    somewhere in src/diarkit or perfbench/. A package __init__ re-export and
    a test file do not count as a use; a definition that only they name
    belongs in tests/."""
    src = _trees(p for p in sorted((ROOT / "src" / "diarkit").rglob("*.py"))
                 if p.name != "__init__.py")
    bench = _trees(p for p in sorted((ROOT / "perfbench").glob("*.py"))
                   if p.name != "__init__.py" and not p.name.startswith("test_"))
    used = set()
    for _, tree in src + bench:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    unused = [f"{path.relative_to(ROOT)}: {node.name}"
              for path, tree in src for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
              and not node.name.startswith("_") and node.name not in used]
    assert not unused, "only the tests use " + ", ".join(unused)


def test_binary_fields_are_read_by_the_one_reader():
    """struct.unpack and struct.unpack_from are called only in binfile.py, so
    every binary file gets the same truncation, trailing-byte and finiteness
    checks."""
    readers = {"unpack", "unpack_from"}
    calls = []
    for path, tree in _trees(sorted((ROOT / "src" / "diarkit").rglob("*.py"))):
        if path.name == "binfile.py":
            continue
        for node in ast.walk(tree):
            named = (isinstance(node, ast.Attribute) and node.attr in readers
                     and isinstance(node.value, ast.Name) and node.value.id == "struct")
            imported = (isinstance(node, ast.ImportFrom) and node.module == "struct"
                        and any(a.name in readers for a in node.names))
            if named or imported:
                calls.append(f"{path.relative_to(ROOT)}:{node.lineno}")
    assert not calls, "struct read outside binfile.py at " + ", ".join(calls)


def test_no_scipy_signal_in_the_package():
    """The AR(1) smoothing is numpy's: nothing in src/diarkit imports
    scipy.signal, whose import costs about 70 MB and a second of start-up."""
    imports = []
    for path, tree in _trees(sorted((ROOT / "src" / "diarkit").rglob("*.py"))):
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                names = [node.module] + [f"{node.module}.{a.name}" for a in node.names]
            else:
                continue
            if any(n == "scipy.signal" or n.startswith("scipy.signal.") for n in names):
                imports.append(f"{path.relative_to(ROOT)}:{node.lineno}")
    assert not imports, "scipy.signal imported at " + ", ".join(imports)
