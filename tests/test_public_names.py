"""Every name `skattn/__init__.py` exports has a use: it is named in `src/`
outside its own def or class, in `bench/`, or in code in `README.md`."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "skattn"


def _exports() -> list[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return [alias.asname or alias.name for node in tree.body if isinstance(node, ast.ImportFrom)
            for alias in node.names]


def _src_uses() -> set[str]:
    """Identifiers read, imported or taken as attributes in the package's
    modules, except within the def or class that defines them."""
    used = set()
    for path in PACKAGE.glob("*.py"):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        own = {node.name: range(node.lineno, node.end_lineno + 1) for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.alias):
                name = node.asname or node.name
            else:
                continue
            if node.lineno not in own.get(name, ()):
                used.add(name)
    return used


def test_every_export_has_a_caller_or_a_readme_claim():
    used = _src_uses()
    bench = "\n".join(p.read_text() for p in (ROOT / "bench").rglob("*.py"))
    readme_code = " ".join(re.findall(r"`[^`]+`", (ROOT / "README.md").read_text()))
    unused = [name for name in _exports() if name not in used
              and not re.search(rf"\b{name}\b", bench)
              and not re.search(rf"\b{name}\b", readme_code)]
    assert unused == []
