"""Module boundary: verification code lives in oracles and selfcheck only."""

import ast
import pathlib

import pytest

import corrsets
from corrsets import oracles

SRC = pathlib.Path(corrsets.__file__).parent

PRODUCTION = ("smallmat", "twoqubit", "geometry", "detect")
VERIFICATION = {"oracles", "selfcheck"}

# Verification-only kernels, routes and samplers; oracles holds each of them.
MOVED = {"LEVI_CIVITA", "SpecialSvdResult", "special_svd", "max_trace_over_rotations",
         "det3_intrinsic", "_psd_sqrt", "gram_equivalent_support",
         "random_product_state", "random_separable_state", "random_quantum_state"}
# Wrappers and test-only helpers that no module defines any more.
DELETED = {"kron", "vec", "eigenvalues_hermitian", "construct_target_Z"}


def _imports_and_definitions(name):
    tree = ast.parse((SRC / f"{name}.py").read_text(encoding="utf-8"))
    imported, defined = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add((node.module or "").split(".")[-1])
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[-1] for alias in node.names)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, ast.Assign):
            defined.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return imported, defined


@pytest.mark.parametrize("name", PRODUCTION)
def test_production_module_holds_no_verification_code(name):
    imported, defined = _imports_and_definitions(name)
    assert not imported & VERIFICATION
    assert not defined & (MOVED | DELETED)


def test_oracles_holds_the_moved_names():
    _, defined = _imports_and_definitions("oracles")
    assert MOVED <= defined
    assert not defined & DELETED
    assert all(hasattr(oracles, name) for name in MOVED)
