"""The catalogue of known mutants of the package, each with the check
that kills it.

A row names a file under ``src/fplrs``, a snippet that occurs in it
exactly once, and the snippet's replacement.  Its catcher is either a
pytest node, which must fail on the mutated copy, or the arguments of
an ``fplrs`` command, which must exit 1 with a ``[FAIL]`` or ``error:``
line.  ``tests/test_mutants.py`` applies each row to a copy of the
package and runs its catcher in a child process.
"""

from __future__ import annotations

from typing import NamedTuple


class Mutant(NamedTuple):
    name: str
    file: str
    snippet: str
    replacement: str
    node: str | None = None  # a pytest node id that must fail
    command: tuple[str, ...] = ()  # fplrs arguments that must exit 1


MUTANTS = (
    Mutant(
        "a fresh sweep child drops what its run ORs in",
        "fplcore.py",
        "bucket[cut] = {c | one: v for c, v in closeds.items()} if one else dict(closeds)",
        "bucket[cut] = dict(closeds)",
        node="tests/test_fplcore.py::TestSweepMergesTheWalk::test_squares_with_the_census_keep[+-4]",
    ),
    Mutant(
        "a loop walk skips the glue pass",
        "fplcore.py",
        "            if eid >= n_internal:\n                j = ends.get(eid)",
        "            if eid >= n_internal and not loops:\n                j = ends.get(eid)",
        node="tests/test_gyration.py::TestGluedWalkerOracle::test_pinned_domain_with_monochromatic_pairs",
    ),
    Mutant(
        "the last quotient row loses an entry",
        "groundstate.py",
        "    return class_of, [{c: v for c, v in row.items() if v} for row in rows]",
        "    rows[-1].popitem()\n    return class_of, [{c: v for c, v in row.items() if v} for row in rows]",
        command=("groundstate", "--n", "5"),
    ),
    Mutant(
        "the capped counts of leg 1 rotate by -1",
        "gyration.py",
        "vec = apply_rotation(vec, 1)",
        "vec = apply_rotation(vec, -1)",
        command=("verify", "gyration-general", "--n-max", "4"),
    ),
    Mutant(
        "the TL suite calls the bare operators",
        "suites.py",
        "lru_cache(maxsize=None)(op) for op in",
        "op for op in",
        node="tests/test_cli.py::test_tl_memo_calls_each_generator_once",
    ),
    Mutant(
        "the walk runs a start state again",
        "fplcore.py",
        "    run = lru_cache(maxsize=None)(run)\n",
        "",
        node="tests/test_fplcore.py::TestSweepMergesTheWalk::test_squares_run_each_state_once[+-4]",
    ),
    Mutant(
        "gyration rotates by R^1",
        "gyration.py",
        "ROTATION = -1",
        "ROTATION = 1",
        command=("verify", "wieland", "--n-max", "1"),
    ),
    Mutant(
        "the orbits step the inverse gyration, minus pass first",
        "gyration.py",
        "def _cycle(start: int, plus: GluedGraph, minus: GluedGraph)",
        "def _cycle(start: int, minus: GluedGraph, plus: GluedGraph)",
        command=("verify", "orbits", "--n-max", "3"),
    ),
    Mutant(
        "the even-b gyration relation rotates the other way",
        "identities.py",
        '"gyr_b_even": ("even", "b", +1, 1)',
        '"gyr_b_even": ("even", "b", +1, -1)',
        command=("verify", "identities", "--n-max", "3"),
    ),
    Mutant(
        "two vertex-type letters exchanged",
        "identities.py",
        'frozenset((EAST, NORTH)): "a", frozenset((WEST, SOUTH)): "a",\n    frozenset((EAST, SOUTH)): "b"',
        'frozenset((EAST, NORTH)): "b", frozenset((WEST, SOUTH)): "a",\n    frozenset((EAST, SOUTH)): "a"',
        command=("verify", "identities", "--n-max", "2"),
    ),
    Mutant(
        "the vector certificate skips the search",
        "groundstate.py",
        "if all(v > 0 for v in x) and len(_visit_order(h.cols)) == len(h.basis):",
        "if all(v > 0 for v in x):",
        node="tests/test_groundstate.py::TestKernelDimension::test_reducible_h_has_no_stationary_vector",
    ),
    Mutant(
        "a glued walk leaves the partner leg unmarked",
        "fplcore.py",
        "                eid = glue[eid]\n                walked |= 1 << eid\n",
        "                eid = glue[eid]\n",
        node="tests/test_gyration.py::TestGluedWalkerOracle::test_pinned_domain_with_monochromatic_pairs",
    ),
)
