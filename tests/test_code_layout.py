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
