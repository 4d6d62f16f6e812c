"""The package root: its re-exported names and its layer modules; and
the package's surface, every name of which some code in the package
reaches."""

import ast
import importlib
import sys
from pathlib import Path

import pytest

import fplrs

# Every name the package root re-exports, by the module that defines it.
ROOT_NAMES = {
    "errors": (
        "ArityMismatch", "FplrsError", "GeometryMismatch", "IndexOutOfRange",
        "InvalidTriplet", "KernelDimensionError", "NonUniqueGamma", "UnknownIdentity",
    ),
    "lattice": (
        "BoundaryCondition", "Domain", "GluedGraph", "build_square", "glue_and_gamma",
    ),
    "linkpat": ("LinkPattern", "LpVector", "RotationClass", "all_patterns"),
    "fplcore": (
        "FplConfig", "asm_count_formula", "count_configs", "enumerate_configs",
        "plaquette_indicator", "refined_counts", "vertex_type",
    ),
    "gyration": ("Orbit", "apply_h", "gyrate", "orbit_partition"),
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


# Entry points that only code outside the package calls: the RS
# certificate, which the benchmark's ``certificate`` operation runs.
ENTRY_POINTS = ("groundstate.kernel_dimension_certificate",)


def _unreached(src: Path) -> list[str]:
    """Every module-level function and class, and every method, of the
    modules in ``src`` whose name no code there uses outside its own
    definition, ``__all__`` and ``_EXPORTS``, as ``module.name`` or
    ``module.Class.name``.  Dunders are the interpreter's to call.

    A use of a method is an ``Attribute``; a use of a function or class
    is also a loaded ``Name`` or an import alias.  A class or static
    method is reached only as an attribute of its own class's name or of
    ``cls``.  Matching by name alone can miss a dead method that shares
    its name with a live attribute, but never flags a live definition."""
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}
    defs = []  # (qualified name, node, the (kind, name) uses that reach it)
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs.append((f"{module}.{node.name}", node, (("name", node.name), ("attr", node.name))))
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if not isinstance(item, ast.FunctionDef):
                        continue
                    keys = (("attr", item.name),)
                    if any(
                        isinstance(dec, ast.Name) and dec.id in ("classmethod", "staticmethod")
                        for dec in item.decorator_list
                    ):
                        keys = (("attr", f"{node.name}.{item.name}"), ("attr", f"cls.{item.name}"))
                    defs.append((f"{module}.{node.name}.{item.name}", item, keys))
    # (kind, name) -> for each use, the ids of the definitions it sits in;
    # an attribute of a plain name is also kept as "owner.name"
    uses: dict[tuple[str, str], list[set[int]]] = {}

    def visit(node, inside: set[int]) -> None:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id in ("__all__", "_EXPORTS") for t in node.targets
        ):
            return
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            inside = inside | {id(node)}
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            uses.setdefault(("name", node.id), []).append(inside)
        elif isinstance(node, ast.Attribute):
            uses.setdefault(("attr", node.attr), []).append(inside)
            if isinstance(node.value, ast.Name):
                uses.setdefault(("attr", f"{node.value.id}.{node.attr}"), []).append(inside)
        elif isinstance(node, ast.alias):
            uses.setdefault(("name", node.name.rpartition(".")[2]), []).append(inside)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    for tree in trees.values():
        visit(tree, set())
    return sorted(
        qualname for qualname, node, keys in defs
        if not (node.name.startswith("__") and node.name.endswith("__"))
        and not any(id(node) not in inside for key in keys for inside in uses.get(key, ()))
    )


def test_every_definition_is_reached_from_the_package():
    # an entry point that the package starts to call, or that goes,
    # leaves the allowlist too
    assert _unreached(Path(fplrs.__file__).parent) == sorted(ENTRY_POINTS)


def test_an_unreached_definition_is_found(tmp_path):
    (tmp_path / "a.py").write_text(
        "__all__ = ['used', 'unused', 'Box']\n"
        "def used(other): return Box().size() + Box.empty() + other.basis\n"
        "def unused(): return unused()\n"
        "class Box:\n"
        "    def __len__(self): return 0\n"
        "    def size(self): return 1\n"
        "    def spare(self): return self.spare()\n"
        "    def width(self): return 2\n"
        "    @staticmethod\n"
        "    def empty(): return Box.make()\n"
        "    @classmethod\n"
        "    def make(cls): return cls.zero()\n"
        "    @classmethod\n"
        "    def zero(cls): return cls()\n"
        "    @classmethod\n"
        "    def basis(cls): return cls.basis()\n"
        "def area(width): return width\n"
    )
    (tmp_path / "b.py").write_text("from .a import used as go\n")
    # a local or a parameter of the same name does not reach a method,
    # and an attribute of another object does not reach a class method
    assert _unreached(tmp_path) == ["a.Box.basis", "a.Box.spare", "a.Box.width", "a.area", "a.unused"]


def test_the_package_does_not_import_dataclasses():
    # importing dataclasses costs every command about 12 ms of start-up
    # (it pulls in inspect, ast, dis and tokenize); the records are
    # NamedTuples or plain classes.  Tests and the benchmark may use it
    found = []
    for path in sorted(Path(fplrs.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno}" for name in names if name.split(".")[0] == "dataclasses"]
    assert found == []
