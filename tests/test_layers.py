"""The four routes stay independent: which package modules each may import.

Read from the import statements of each module's source, so a violation
fails here even where no test exercises the import.
"""

import ast
from pathlib import Path

import pytest

import optoepr

PACKAGE = Path(optoepr.__file__).parent

FORBIDDEN = {
    "model": {"criterion", "spectra", "sde", "cli"},
    "criterion": {"spectra", "sde", "cli"},
    "spectra": {"sde", "cli"},
    "sde": {"criterion", "cli"},
}


def package_imports(module: str) -> set[str]:
    """Sibling modules that ``optoepr.<module>`` imports, at any depth."""
    found = set()
    for node in ast.walk(ast.parse((PACKAGE / f"{module}.py").read_text())):
        if isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["optoepr" if node.level else "", node.module]))
            names = [base] + [f"{base}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            continue
        found.update(name.split(".")[1] for name in names
                     if name.startswith("optoepr."))
    return found


def test_reader_sees_known_imports():
    # The rules below are only as good as the reader.
    assert {"errors", "spectra"} <= package_imports("sde")
    assert {"criterion", "model", "sde", "spectra"} <= package_imports("cli")


@pytest.mark.parametrize("module", sorted(FORBIDDEN))
def test_route_layers(module):
    assert not package_imports(module) & FORBIDDEN[module]
