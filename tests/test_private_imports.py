"""The package imports no private scipy module: nothing from a scipy module path with a `_`-prefixed segment."""
import ast
from pathlib import Path

import randvol

SOURCES = sorted(Path(randvol.__file__).parent.glob("*.py"))


def private_scipy_imports(source: str) -> list:
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            modules = [node.module] + [f"{node.module}.{alias.name}" for alias in node.names]
        else:
            continue
        for module in modules:
            parts = module.split(".")
            if parts[0] == "scipy" and any(part.startswith("_") for part in parts[1:]):
                found.append(module)
    return found


def test_the_scan_finds_private_imports():
    assert private_scipy_imports("from scipy.optimize._lsq.common import update_tr_radius") == [
        "scipy.optimize._lsq.common", "scipy.optimize._lsq.common.update_tr_radius"]
    assert private_scipy_imports("import scipy._lib as lib\nfrom scipy.linalg import _flapack") == [
        "scipy._lib", "scipy.linalg._flapack"]
    assert private_scipy_imports("from scipy.linalg import svd\nimport numpy._core\nfrom ._x import y") == []


def test_no_module_imports_private_scipy():
    assert len(SOURCES) > 5
    found = {path.name: hits for path in SOURCES if (hits := private_scipy_imports(path.read_text(encoding="utf-8")))}
    assert found == {}
