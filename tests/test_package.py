"""The package root: its re-exported names and its layer modules."""

import importlib
import sys

import pytest

import fplrs

# Every name the package root re-exported when it imported its layers
# eagerly, by the module that defined it then.
ROOT_NAMES = {
    "errors": (
        "ArityMismatch", "FplrsError", "GeometryMismatch", "IndexOutOfRange",
        "InvalidTriplet", "KernelDimensionError", "NonUniqueGamma", "UnknownIdentity",
    ),
    "lattice": (
        "BoundaryCondition", "BoundaryString", "Domain", "GluedGraph",
        "boundary_string", "build_square", "glue_and_gamma",
    ),
    "linkpat": ("LinkPattern", "LpVector", "RotationClass", "all_patterns", "catalan"),
    "fplcore": (
        "FplConfig", "LinkData", "asm_count_formula", "count_configs",
        "enumerate_configs", "link_data", "plaquette_indicator", "refined_counts",
        "vertex_type",
    ),
    "gyration": ("Orbit", "apply_h", "gyrate", "orbit", "orbit_partition"),
    "groundstate": ("build_h_matrix", "stationary_vector", "verify_rs"),
    "identities": ("aux_state", "check_identity", "check_spr", "run_identity_suite"),
}
LAYERS = ("lattice", "linkpat", "fplcore", "gyration", "groundstate", "identities", "sampling", "suites")


@pytest.mark.parametrize(
    "layer, name",
    [(layer, name) for layer, names in ROOT_NAMES.items() for name in names],
)
def test_root_name_is_its_layer_object(layer, name):
    module = importlib.import_module(f"fplrs.{layer}")
    assert getattr(fplrs, name) is getattr(module, name)
    assert name in dir(fplrs)


def test_product_formula_is_one_object():
    # defined in linkpat, so that groundstate need not load fplcore for
    # it; fplcore and the package root still name it
    from fplrs import fplcore, linkpat

    assert fplrs.asm_count_formula is fplcore.asm_count_formula is linkpat.asm_count_formula
    assert [linkpat.asm_count_formula(n) for n in range(1, 6)] == [1, 2, 7, 42, 429]


def test_from_import_of_a_root_name():
    from fplrs import build_square, verify_rs

    assert build_square is sys.modules["fplrs.lattice"].build_square
    assert verify_rs is sys.modules["fplrs.groundstate"].verify_rs


def test_layers_are_package_attributes():
    for layer in LAYERS:
        assert getattr(fplrs, layer) is sys.modules[f"fplrs.{layer}"]
        assert layer in dir(fplrs)


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        fplrs.no_such_name
    assert not hasattr(fplrs, "cli_main")
    with pytest.raises(ImportError):
        from fplrs import no_such_name  # noqa: F401
