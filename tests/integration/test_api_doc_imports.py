"""Every ``repro`` import shown in API.md's Python examples resolves.

A name removed from the package but left in the docs fails here instead
of misleading a reader.  The ``import`` statements are taken from the
```python fences by parsing each fence; the rest of a fence (which may
name the reader's own functions) is not run.
"""

import ast
import re
from pathlib import Path

import pytest

API_MD = Path(__file__).resolve().parents[2] / "API.md"
FENCE = re.compile(r"^```python\n(.*?)^```", re.M | re.S)


def doc_imports() -> list[str]:
    statements = []
    for fence in FENCE.findall(API_MD.read_text()):
        for node in ast.walk(ast.parse(fence)):
            if isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            elif isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            else:
                continue
            if any(m == "repro" or m.startswith("repro.") for m in modules):
                statements.append(ast.unparse(node))
    return statements


def test_api_md_shows_imports():
    # the extraction itself must keep finding the examples
    assert len(doc_imports()) >= 2


@pytest.mark.parametrize("statement", doc_imports())
def test_api_md_import_resolves(statement):
    exec(statement, {})
