"""Import and call guards for the eeikit package and the demos.

No package module imports a name it never uses, and no package module or
demo imports an underscore-prefixed name from an eeikit module.  Test
files may reach private helpers and are not checked.  No package module
uses numpy's direct O(N*M) ``convolve``; the oracle convolves by FFT.
"""

import ast
from pathlib import Path

import pytest

import eeikit

PACKAGE = Path(eeikit.__file__).parent
DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    if path.name == "__init__.py":
        used.update(eeikit.__all__)
    assert sorted(imported - used) == []


@pytest.mark.parametrize(
    "path",
    sorted(PACKAGE.glob("*.py")) + sorted(DEMOS.glob("*.py")),
    ids=lambda p: f"{p.parent.name}/{p.name}",
)
def test_no_private_eeikit_imports(path):
    tree = ast.parse(path.read_text())
    private = [
        f"{node.module or '.'}:{alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level or (node.module or "").split(".")[0] == "eeikit")
        for alias in node.names
        if alias.name.startswith("_") and not alias.name.endswith("__")
    ]
    assert private == []


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_direct_convolution(path):
    tree = ast.parse(path.read_text())
    uses = [
        node.lineno
        for node in ast.walk(tree)
        if (isinstance(node, ast.Attribute) and node.attr == "convolve")
        or (
            isinstance(node, ast.ImportFrom)
            and (node.module or "").split(".")[0] == "numpy"
            and any(alias.name == "convolve" for alias in node.names)
        )
    ]
    assert uses == []
