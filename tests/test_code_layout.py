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


def _imported_as(tree) -> dict[str, str]:
    """The names a file imports under an alias, mapped to what they name."""
    return {a.asname: a.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
            for a in node.names if a.asname}


def test_every_parameter_is_set_outside_the_tests():
    """Every parameter of a public top-level function of src/diarkit is set,
    by position or by keyword, by some call in src/diarkit or perfbench/; a
    call through an import alias counts for the function it names, and a call
    with *args or **kwargs sets every parameter. A parameter that only the
    tests set selects a mode nothing ships, and its code belongs in tests/."""
    src = _trees(sorted((ROOT / "src" / "diarkit").rglob("*.py")))
    bench = _trees(p for p in sorted((ROOT / "perfbench").glob("*.py"))
                   if not p.name.startswith("test_"))
    functions = [(path, node) for path, tree in src for node in tree.body
                 if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                 and not node.name.startswith("_")]
    given: dict[str, set] = {}  # function name -> the positions and keywords calls set
    unpacking = set()  # names called with *args or **kwargs
    for _, tree in src + bench:
        aliases = _imported_as(tree)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            if isinstance(node.func, ast.Name):
                name = aliases.get(node.func.id, node.func.id)
            elif isinstance(node.func, ast.Attribute):
                name = node.func.attr
            else:
                continue
            if (any(isinstance(a, ast.Starred) for a in node.args)
                    or any(k.arg is None for k in node.keywords)):
                unpacking.add(name)
            given.setdefault(name, set()).update(range(len(node.args)),
                                                  (k.arg for k in node.keywords))
    unset = []
    for path, fn in functions:
        positional = fn.args.posonlyargs + fn.args.args
        set_by = given.get(fn.name, set())
        for i, a in enumerate(positional + fn.args.kwonlyargs):
            if fn.name not in unpacking and a.arg not in set_by and not (
                    i < len(positional) and i in set_by):
                unset.append(f"{path.relative_to(ROOT)}: {fn.name}({a.arg})")
    assert not unset, "set only by the tests: " + ", ".join(unset)


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
