"""Every name a module imports at module level is read in that module.

Standard library only: each file under `src/quivermoment/` and `tests/` is
parsed with `ast`, and a name bound by a module-level `import` or `from ...
import` (not `from __future__`) must be read somewhere in the module, in
code or in an annotation, or be listed in the module's `__all__`.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted([*(ROOT / "src" / "quivermoment").glob("*.py"), *(ROOT / "tests").glob("*.py")])


def unused_imports(source: str) -> list[str]:
    """The names the module-level imports of `source` bind and the module never reads."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.partition(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names if alias.name != "*"]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            if isinstance(node.value, (ast.List, ast.Tuple)):
                read |= {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return [name for name in bound if name not in read]


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_module_level_import_is_read(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_scan_finds_an_unused_import():
    source = "from __future__ import annotations\nimport os, sys\nfrom a import b, c as d\n__all__ = ['d']\nprint(sys)\n"
    assert unused_imports(source) == ["os", "b"]
