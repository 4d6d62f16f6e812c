"""The package root and its layer modules; the package's surface, every
name of which some code in the package reaches; and the settable
surface, the options and environment variables a run can set."""

import ast
import importlib
import sys
from pathlib import Path

import pytest

import fplrs
from fplrs import cli

# Every name the package root once re-exported, by the layer it read
# the name from.  The root re-exports none now: each is reached one way,
# through the module that defines it.  Six left their layer as well:
# gyrate and the rotation-class record went, the product formula is
# linkpat's alone, the vertex type and the face indicator are the
# tests' census oracle, since the identity census reads both off edge
# bits, and the configuration record went, since a configuration is its
# bitmask, an int, and its domain comes with the gluing or the orbit.
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
LEFT_THEIR_LAYER = {
    ("fplcore", "asm_count_formula"), ("gyration", "gyrate"), ("linkpat", "RotationClass"),
    ("fplcore", "vertex_type"), ("fplcore", "plaquette_indicator"), ("fplcore", "FplConfig"),
}
LAYERS = ("lattice", "linkpat", "fplcore", "gyration", "groundstate", "identities", "sampling", "suites")


@pytest.mark.parametrize(
    "layer, name",
    [(layer, name) for layer, names in ROOT_NAMES.items() for name in names],
)
def test_root_name_is_its_layer_object(layer, name):
    # the layer's object has no second spelling at the root
    module = importlib.import_module(f"fplrs.{layer}")
    assert not hasattr(fplrs, name) and name not in dir(fplrs)
    assert hasattr(module, name) == ((layer, name) not in LEFT_THEIR_LAYER)


def test_product_formula_is_one_object():
    # defined in linkpat, so that groundstate need not load fplcore for
    # it; no other module names it for others to import
    from fplrs import linkpat

    assert not hasattr(fplrs.fplcore, "asm_count_formula")
    assert "asm_count_formula" not in fplrs.fplcore.__all__
    assert [linkpat.asm_count_formula(n) for n in range(1, 6)] == [1, 2, 7, 42, 429]


def test_from_import_of_a_root_name():
    # a layer name is imported from its layer, not from the root
    with pytest.raises(ImportError, match="build_square"):
        from fplrs import build_square  # noqa: F401
    with pytest.raises(ImportError, match="verify_rs"):
        from fplrs import verify_rs  # noqa: F401


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
    definition and ``__all__``, as ``module.name`` or
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
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
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


CACHES = ("cache", "lru_cache", "functools.cache", "functools.lru_cache")


def _cached_constants(src: Path) -> list[str]:
    """Every module-level function of the modules in ``src`` that takes
    no argument and is wrapped in ``functools.cache`` or ``lru_cache``,
    by decorator or as ``name = lru_cache(...)(name)``, as
    ``module.name``.  Such a function is a constant computed at run
    time, and a fault in what it computes moves the constant instead of
    failing a check.  Methods and cached properties are not at module
    level."""
    found = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        defs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
        wrapped = [(node.name, dec) for node in defs.values() for dec in node.decorator_list] + [
            (node.value.args[0].id, node.value.func)
            for node in tree.body
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
            and len(node.value.args) == 1 and isinstance(node.value.args[0], ast.Name)
        ]
        for name, wrapper in wrapped:
            args = defs[name].args if name in defs else None
            if isinstance(wrapper, ast.Call):
                wrapper = wrapper.func
            if (
                ast.unparse(wrapper) in CACHES and args is not None
                and not (args.posonlyargs or args.args or args.vararg or args.kwonlyargs or args.kwarg)
            ):
                found.append(f"{path.stem}.{name}")
    return sorted(found)


def test_no_constant_is_computed_at_run_time():
    # a convention the package relies on is a literal in src, derived in
    # the tests and checked by the suites
    assert _cached_constants(Path(fplrs.__file__).parent) == []


def test_a_cached_constant_is_found(tmp_path):
    (tmp_path / "a.py").write_text(
        "import functools\n"
        "from functools import cache, cached_property, lru_cache\n"
        "@lru_cache(maxsize=None)\n"
        "def table(): return {}\n"
        "@functools.cache\n"
        "def power(): return -1\n"
        "@cache\n"
        "def per_size(n): return n\n"
        "def letters(): return 'abc'\n"
        "letters = lru_cache(maxsize=None)(letters)\n"
        "def plain(): return 0\n"
        "class Box:\n"
        "    @cache\n"
        "    def size(self): return 1\n"
        "    @cached_property\n"
        "    def width(self): return 2\n"
        "def outer():\n"
        "    @cache\n"
        "    def inner(): return 3\n"
        "    return inner\n"
    )
    assert _cached_constants(tmp_path) == ["a.letters", "a.power", "a.table"]


# The settable surface.  A new option or environment variable edits
# these lists, which is where a review asks who sets it to a second value.
OPTIONS = {
    "enumerate": ["--allow-large", "--cache-dir", "--n", "--out", "--sign", "--threads"],
    "groundstate": ["--allow-large", "--cache-dir", "--n", "--out"],
    "verify": ["--format", "--n-max", "--out", "--seed"],
    "orbit-report": ["--allow-large", "--n", "--out", "--sign"],
}


def test_the_options_of_each_command_are_pinned():
    (sub,) = [a for a in cli.build_parser()._actions if a.choices and a.dest == "command"]
    found = {
        command: sorted(s for a in parser._actions for s in a.option_strings if s not in ("-h", "--help"))
        for command, parser in sub.choices.items()
    }
    assert found == OPTIONS


def _environment_reads(src: Path) -> set[str]:
    """The string constants that code in ``src`` reads from the
    environment, as ``os.environ.get(...)`` or ``os.environ[...]``."""
    found = set()
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "get"
                and ast.unparse(node.func.value) == "os.environ"
                and node.args
            ):
                key = node.args[0]
            elif isinstance(node, ast.Subscript) and ast.unparse(node.value) == "os.environ":
                key = node.slice
            else:
                continue
            found.add(key.value if isinstance(key, ast.Constant) else ast.unparse(key))
    return found


def test_the_environment_the_package_reads_is_pinned():
    assert _environment_reads(Path(fplrs.__file__).parent) == {"FPLRS_CACHE_DIR"}


def test_an_environment_read_is_found(tmp_path):
    (tmp_path / "a.py").write_text(
        "import os\n"
        "a = os.environ.get('ONE')\n"
        "b = os.environ['TWO']\n"
        "c = os.environ.get(name, '1')\n"
        "d = os.getcwd()\n"
    )
    assert _environment_reads(tmp_path) == {"ONE", "TWO", "name"}
