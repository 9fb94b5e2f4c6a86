"""The pool and the fabric know nothing of delta re-scoring.

Pool workers full-sweep every candidate, so the delta route lives only
in the serial provider (:mod:`repro.ga.fitness`) and :mod:`repro.ppi`.
An import of :mod:`repro.ppi.delta` anywhere under ``repro/parallel/``
or in ``repro/fabric.py`` — typing-only imports included — would bring
the structure transport back by the side door.
"""

import ast
import pathlib

import pytest

import repro

ROOT = pathlib.Path(repro.__file__).parent
FILES = sorted((ROOT / "parallel").rglob("*.py")) + [ROOT / "fabric.py"]


def _imported_modules(tree: ast.AST) -> set[str]:
    """Every module an ``import`` or ``from ... import`` statement in
    ``tree`` names, with ``from a import b`` also read as ``a.b``."""
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            names.add(node.module)
            names.update(f"{node.module}.{alias.name}" for alias in node.names)
    return names


@pytest.mark.parametrize(
    "path", FILES, ids=lambda path: str(path.relative_to(ROOT))
)
def test_no_delta_import_in_the_pool_or_the_fabric(path):
    modules = _imported_modules(ast.parse(path.read_text(), filename=str(path)))
    assert "repro.ppi.delta" not in modules


def test_the_boundary_sees_imports():
    tree = ast.parse(
        "from repro.ppi import delta\n"
        "if TYPE_CHECKING:\n"
        "    from repro.ppi.delta import Provenance\n"
    )
    assert "repro.ppi.delta" in _imported_modules(tree)
    assert len(FILES) > 5
