"""Exact combinatorics of fully-packed loops on square-lattice domains:
enumeration refined by link pattern, the diagram algebra acting on
pattern space, the plaquette-flipping bijection and its orbits, and the
exact stationary vector of the loop-model Hamiltonian, together with
verification suites that certify their interrelations at small sizes.

Every layer module, and ``suites`` with the verification suites, is in
``sys.modules`` and is an attribute of the package from the start, but
its code runs only when one of its attributes is first read
(``importlib.util.LazyLoader``), so a command compiles and executes only
the layers it calls.  Each name is reached through its layer
(``fplrs.lattice.build_square``); the root re-exports none.  The first
load of a layer is not thread-safe: touch it before starting threads
that use it.
"""

import importlib.util
import sys

__version__ = "0.1.0"

# cli is left out: ``python -m fplrs.cli`` would find it already in
# sys.modules, which runpy warns about.
_LAYERS = (
    "lattice", "linkpat", "fplcore", "gyration", "groundstate", "identities", "sampling", "suites",
)


def _register(name: str):
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


globals().update({name: _register(name) for name in _LAYERS})
