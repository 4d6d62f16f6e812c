"""Exact combinatorics of fully-packed loops on square-lattice domains:
enumeration refined by link pattern, the diagram algebra acting on
pattern space, the plaquette-flipping bijection and its orbits, and the
exact stationary vector of the loop-model Hamiltonian, together with
verification suites that certify their interrelations at small sizes.

Every layer module is in ``sys.modules`` and is an attribute of the
package from the start, but its code runs only when one of its
attributes is first read (``importlib.util.LazyLoader``), so a command
compiles and executes only the layers it calls.  The names re-exported
here resolve through the module ``__getattr__`` and load their layer
the same way.  The first load of a layer is not thread-safe: touch it
before starting threads that use it.
"""

import importlib.util
import sys

from .errors import (
    ArityMismatch,
    FplrsError,
    GeometryMismatch,
    IndexOutOfRange,
    InvalidTriplet,
    KernelDimensionError,
    NonUniqueGamma,
    UnknownIdentity,
)

__version__ = "0.1.0"

# cli is left out: ``python -m fplrs.cli`` would find it already in
# sys.modules, which runpy warns about.
_LAYERS = ("lattice", "linkpat", "fplcore", "gyration", "groundstate", "identities", "sampling")


def _register(name: str):
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


globals().update({name: _register(name) for name in _LAYERS})

_EXPORTS = {
    "lattice": (
        "BoundaryCondition", "BoundaryString", "Domain", "GluedGraph",
        "boundary_string", "build_square", "glue_and_gamma",
    ),
    "linkpat": (
        "LinkPattern", "LpVector", "RotationClass", "all_patterns", "asm_count_formula", "catalan",
    ),
    "fplcore": (
        "FplConfig", "LinkData", "PsiTable", "count_configs",
        "enumerate_configs", "link_data", "plaquette_indicator", "refined_counts",
        "vertex_type",
    ),
    "gyration": ("Orbit", "apply_h", "gyrate", "orbit", "orbit_partition"),
    "groundstate": ("build_h_matrix", "stationary_vector", "verify_rs"),
    "identities": ("aux_state", "check_identity", "check_spr", "run_identity_suite"),
}
_LAYER_OF = {name: layer for layer, names in _EXPORTS.items() for name in names}


def __getattr__(name: str):
    layer = _LAYER_OF.get(name)
    if layer is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[layer], name)


def __dir__():
    return sorted({*globals(), *_LAYER_OF})
