"""Module layout: verification code lives in oracles and selfcheck only, cli
builds its parser lazily and dispatches by name, and frames and cores are
formed only where their spectral records are built."""

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
         "random_product_state", "random_separable_state", "random_quantum_state",
         "support_m2_closed_form", "gauge_m2_closed_form", "_cos_sin_m2", "_cross_norm",
         "_gram_2x2", "_skew_2x2", "DEGENERATE_ANGLE_TOL"}
# Wrappers and test-only helpers that no module defines any more.
DELETED = {"kron", "vec", "eigenvalues_hermitian", "construct_target_Z", "_gram_supports",
           "_numerical_rank", "_support_batch", "_draw_size", "_draw_settings",
           "_random_instance", "one_party", "_modulus", "_sin_sq", "_signed_norm"}


def _imports_and_definitions(name):
    tree = ast.parse((SRC / f"{name}.py").read_text(encoding="utf-8"))
    imported, defined = set(), set()
    for node in ast.walk(tree):
        # every component of a dotted name, so `import scipy.linalg` counts
        # as importing both scipy and linalg
        if isinstance(node, ast.ImportFrom):
            imported.update((node.module or "").split("."))
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(part for alias in node.names for part in alias.name.split("."))
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


@pytest.mark.parametrize("name", sorted(p.stem for p in SRC.glob("*.py")))
def test_every_module_imports_numpy_only(name):
    # pyproject.toml declares numpy alone; scipy, mpmath and Hypothesis may
    # be installed, but only tests may reach them, through importorskip
    assert not _imports_and_definitions(name)[0] & {"scipy", "mpmath", "hypothesis"}


@pytest.mark.parametrize("name", sorted(p.stem for p in SRC.glob("*.py")))
def test_no_module_defines_a_deleted_name(name):
    assert not _imports_and_definitions(name)[1] & DELETED


@pytest.mark.parametrize("name", sorted(p.stem for p in SRC.glob("*.py")))
def test_no_module_rewinds_a_generator(name):
    # The battery's random stream is what its block draws take, in order. A
    # module that saved and restored a generator's state could replay some
    # other stream behind that rule, so none reads or sets bit_generator.state.
    tree = ast.parse((SRC / f"{name}.py").read_text(encoding="utf-8"))
    assert not [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Attribute)
                and node.attr == "state" and isinstance(node.value, ast.Attribute)
                and node.value.attr == "bit_generator"]


def test_oracles_holds_the_moved_names():
    _, defined = _imports_and_definitions("oracles")
    assert MOVED <= defined
    assert not defined & DELETED
    assert all(hasattr(oracles, name) for name in MOVED)


def test_the_noise_bisection_lives_in_selfcheck_only():
    # Production thresholds are closed forms; the bisection is the
    # independent route that the battery checks them against.
    assert "_bisect_threshold" in _imports_and_definitions("selfcheck")[1]
    for name in PRODUCTION:
        assert "_bisect_threshold" not in _imports_and_definitions(name)[1]


def test_cli_builds_its_parser_lazily_and_dispatches_by_name():
    # A command function bound into a long-lived parser, or a parser built
    # at import, would not see functions rebound on the module afterwards.
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    calls = [n for n in ast.walk(tree) if isinstance(n, ast.Call)]
    assert not [n for n in calls if isinstance(n.func, ast.Attribute)
                and n.func.attr == "set_defaults"
                and any(k.arg == "func" for k in n.keywords)]
    in_functions = {id(n) for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)
                    for stmt in f.body for n in ast.walk(stmt)}
    assert not [n for n in calls if id(n) not in in_functions
                and isinstance(n.func, ast.Name) and n.func.id == "build_parser"]
    main = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "main")
    assert any(isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
               and n.func.id == "build_parser" for n in ast.walk(main))


def test_geometry_calls_the_unchecked_norm_kernels():
    # geometry checks each frame and core once, after forming it; a checked
    # wrapper would check it a second time. It takes the sign from the
    # unchecked kernel and forms the norms from the record's float values,
    # bit-equal to smallmat's norm kernels (test_geometry.py).
    imported, _ = _imports_and_definitions("geometry")
    assert not imported & {"op_norm", "trace_norm", "norm_plus", "norm_minus", "signed_svals"}
    assert "_det_sign" in imported


@pytest.mark.parametrize("name", ["geometry", "smallmat"])
def test_norm_modules_never_use_builtin_sum(name):
    # From Python 3.12 builtin sum adds floats with compensation, so a norm
    # formed with it would move off the kernels' bits on a newer Python only.
    tree = ast.parse((SRC / f"{name}.py").read_text(encoding="utf-8"))
    assert not [node.lineno for node in ast.walk(tree)
                if isinstance(node, ast.Name) and node.id == "sum"]


def test_cli_reports_the_spectrum_geometry_read():
    # The support and gauge reports print the record their value came from;
    # cli neither re-forms a frame or core nor factors one. cli.pinv and
    # geometry.svdvals stay: bench/test_bench.py checks the tracer rebinds them.
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    imported, _ = _imports_and_definitions("cli")
    assert "signed_svals" not in imported and "pinv" in imported
    assert not [n for n in ast.walk(tree)
                if isinstance(n, ast.BinOp) and isinstance(n.op, ast.MatMult)]
    assert not {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)} & {
        "pinv_a", "pinv_b", "_frame", "_gauge_core"}
    assert "svdvals" in _imports_and_definitions("geometry")[0]


def _calls_by_function(name):
    """{called name: names of the top-level functions holding such a call}."""
    tree = ast.parse((SRC / f"{name}.py").read_text(encoding="utf-8"))
    found = {}
    for top in tree.body:
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                func = node.func
                called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                found.setdefault(called, set()).add(getattr(top, "name", None))
    return found


@pytest.mark.parametrize("name", sorted(p.stem for p in SRC.glob("*.py")))
def test_frames_and_cores_are_formed_only_by_the_record_constructors(name):
    # A frame or core formed anywhere else would bypass the settings' record
    # slots and factor the same matrix a second time. The stacked forms take
    # one stack of matrices at a time, which no slot would reuse.
    calls = _calls_by_function(name)
    builders = {"_frame": {"_frame_record", "support_stack"},
                "_gauge_core": {"_core_record", "gauge_stack"}}
    for formed, owners in builders.items():
        assert calls.get(formed, set()) <= (owners if name == "geometry" else set())
    if name == "geometry":
        assert {formed: calls[formed] for formed in builders} == builders


def test_detect_reads_geometry_through_its_public_names():
    tree = ast.parse((SRC / "detect.py").read_text(encoding="utf-8"))
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                and node.module == "geometry" for alias in node.names}
    attributes = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
                  and isinstance(node.value, ast.Name) and node.value.id == "geometry"}
    assert attributes and not [n for n in imported | attributes if n.startswith("_")]


def test_oracles_forms_no_frame_of_its_own():
    # The dual oracle reads its sampled supports off geometry.support_stack;
    # a second stacked support, with its own einsum frames of the settings
    # rows, would differ from the production frames in the last bits.
    tree = ast.parse((SRC / "oracles.py").read_text(encoding="utf-8"))
    einsums = [n for n in ast.walk(tree) if isinstance(n, ast.Call)
               and getattr(n.func, "attr", getattr(n.func, "id", None)) == "einsum"]
    assert einsums
    assert not [n.lineno for n in einsums for arg in n.args
                if isinstance(arg, ast.Attribute) and arg.attr in ("a", "b")]
    assert "gauge_dual_oracle" in _calls_by_function("oracles")["support_stack"]
    assert "ratio_scan" in _calls_by_function("oracles")["gauge_stack"]
