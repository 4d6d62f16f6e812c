"""Per-layer metrics, read from the spans of a traced pass.

Each traced operation leaves a calling-context tree of the package's
public functions (see probe.py).  A span's self time is its summed
duration minus that of its child spans; a layer's self time is the sum
over its spans.  Which end-to-end metric each layer metric should move
is listed in README.md.
"""

from __future__ import annotations

import json
from pathlib import Path

from probe import LAYERS

UNITS = {
    "lattice.build_square_s": "s",
    "lattice.glue_and_gamma_s": "s",
    "fplcore.leaves": "count",
    "fplcore.dfs_leaves_per_s": "1/s",
    "fplcore.enumerate_configs_s": "s",
    "fplcore.link_data_us_per_config": "us",
    "fplcore.refined_counts_s": "s",
    "fplcore.refined_counts_jobs2_s": "s",
    "fplcore.jobs2_speedup": "ratio",
    "fplcore.count_jobs2_speedup": "ratio",
    "fplcore.split_prefixes": "count",
    "fplcore.split_max_share": "ratio",
    "fplcore.vertex_type_us": "us",
    "linkpat.tl_e_per_s": "1/s",
    "linkpat.all_patterns_s": "s",
    "linkpat.apply_hamiltonian_s": "s",
    "groundstate.build_h_matrix_s": "s",
    "groundstate.stationary_vector_s": "s",
    "groundstate.kernel_certificate_s": "s",
    "groundstate.matrix_size": "count",
    "groundstate.verify_rs_s": "s",
    "gyration.gyrate_per_s": "1/s",
    "gyration.orbit_partition_s": "s",
    "gyration.orbits": "count",
    "gyration.pair_link_data_us": "us",
    "gyration.generalized_gyration_check_s": "s",
    "identities.census_s": "s",
    "identities.run_identity_suite_s": "s",
    "identities.check_spr_s": "s",
    "cli.cache_put_s": "s",
    "cli.cache_get_s": "s",
    "cli.cache_hits": "count",
    "cli.cache_misses": "count",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.overhead_s": "s",
    "trace.coverage": "ratio",
}


class Tree:
    """The spans of one traced operation."""

    def __init__(self, data: dict):
        self.spans = data["spans"]
        self.counters = data["counters"]
        self.wrapper_cost = data["wrapper_cost"]
        self.by_id = {s["id"]: s for s in self.spans}

    def _nested_in_same(self, span: dict) -> bool:
        parent = span["parent"]
        while parent is not None:
            up = self.by_id[parent]
            if up["name"] == span["name"]:
                return True
            parent = up["parent"]
        return False

    def total(self, name: str) -> float:
        """Time inside calls of name, counting recursive calls once."""
        return sum(s["total"] for s in self.spans
                   if s["name"] == name and not self._nested_in_same(s))

    def calls(self, name: str) -> int:
        return sum(s["calls"] for s in self.spans if s["name"] == name)

    def wrapper_time(self) -> float:
        """The tracer's own cost: wrapped calls and generator steps times
        the measured cost of one wrapped call."""
        return sum(s["calls"] + s["items"] for s in self.spans) * self.wrapper_cost

    def root_total(self, name: str | None = None) -> float:
        return sum(s["total"] for s in self.spans
                   if s["parent"] is None and name in (None, s["name"]))

    def self_times(self) -> dict[str, float]:
        child = {}
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] = child.get(s["parent"], 0.0) + s["total"]
        out: dict[str, float] = {}
        for s in self.spans:
            layer = s["name"].split(".")[0]
            out[layer] = out.get(layer, 0.0) + s["total"] - child.get(s["id"], 0.0)
        return out


def _per_call(trees, name: str, scale: float = 1.0) -> float:
    calls = sum(t.calls(name) for t in trees)
    return sum(t.total(name) for t in trees) / calls * scale if calls else 0.0


def _rate(trees, name: str) -> float:
    time = sum(t.total(name) for t in trees)
    return sum(t.calls(name) for t in trees) / time if time else 0.0


def per_layer(traced, counters: dict) -> dict[str, float]:
    """Metrics of one traced pass.  An operation the workload does not
    run (gyration-general outside ``verify``) contributes 0."""
    empty = Tree({"spans": [], "counters": {}, "wrapper_cost": 0.0})
    ops = {r.op.name: Tree(r.spans) for r in traced.ops}
    every = list(ops.values())

    def op(name: str) -> Tree:
        return ops.get(name, empty)

    def total(name: str, *op_names: str) -> float:
        return sum(op(o).total(name) for o in op_names or ops)

    def count(op_name: str, name: str):
        values = op(op_name).counters.get(name, [])
        return values[-1] if values else 0

    leaves = count("count_jobs1", "fplcore.leaves")
    count1 = total("fplcore.count_configs", "count_jobs1")
    count2 = total("fplcore.count_configs", "count_jobs2")
    refined = total("fplcore.refined_counts", "table_plus")
    refined2 = total("fplcore.refined_counts", "table_threads2")
    prefix_leaves = counters.get("fplcore.prefix_leaves") or [0]
    selfs: dict[str, float] = {}
    for tree in every:
        for layer, value in tree.self_times().items():
            selfs[layer] = selfs.get(layer, 0.0) + value
    metrics = {
        "lattice.build_square_s": total("lattice.build_square"),
        "lattice.glue_and_gamma_s": total("lattice.glue_and_gamma"),
        "fplcore.leaves": leaves,
        "fplcore.dfs_leaves_per_s": leaves / count1 if count1 else 0.0,
        "fplcore.enumerate_configs_s": total("fplcore.enumerate_configs", "table_plus"),
        "fplcore.link_data_us_per_config": _per_call([op("table_plus")], "fplcore.link_data", 1e6),
        "fplcore.refined_counts_s": refined,
        "fplcore.refined_counts_jobs2_s": refined2,
        "fplcore.jobs2_speedup": refined / refined2 if refined2 else 0.0,
        "fplcore.count_jobs2_speedup": count1 / count2 if count2 else 0.0,
        "fplcore.split_prefixes": count("count_jobs2", "fplcore.split_prefixes"),
        "fplcore.split_max_share": max(prefix_leaves) / leaves if leaves else 0.0,
        "fplcore.vertex_type_us": _per_call(every, "fplcore.vertex_type", 1e6),
        "linkpat.tl_e_per_s": _rate([op("verify_tl")], "linkpat.tl_e"),
        "linkpat.all_patterns_s": total("linkpat.all_patterns"),
        "linkpat.apply_hamiltonian_s": total("linkpat.apply_hamiltonian", "verify_rs"),
        "groundstate.build_h_matrix_s": total("groundstate.build_h_matrix", "groundstate", "certificate"),
        "groundstate.stationary_vector_s": total("groundstate.stationary_vector", "groundstate"),
        "groundstate.kernel_certificate_s": total("groundstate.kernel_dimension_certificate", "certificate"),
        "groundstate.matrix_size": max(
            op("groundstate").counters.get("groundstate.matrix_size", [0])
            + op("certificate").counters.get("groundstate.matrix_size", [0])
        ),
        "groundstate.verify_rs_s": total("groundstate.verify_rs", "verify_rs"),
        "gyration.gyrate_per_s": _rate([op("verify_orbits")], "gyration.gyrate"),
        "gyration.orbit_partition_s": total("gyration.orbit_partition", "verify_orbits"),
        "gyration.orbits": count("verify_orbits", "gyration.orbits"),
        "gyration.pair_link_data_us": _per_call(
            [op("verify_gyration_general")], "gyration.pair_link_data", 1e6),
        "gyration.generalized_gyration_check_s": total(
            "gyration.generalized_gyration_check", "verify_gyration_general"),
        "identities.census_s": op("verify_identities").root_total("identities.s_vector"),
        "identities.run_identity_suite_s": total("identities.run_identity_suite", "verify_identities"),
        "identities.check_spr_s": total("identities.check_spr", "verify_identities"),
        "cli.cache_put_s": total("cli.Cache.put"),
        "cli.cache_get_s": total("cli.Cache.get"),
        "cli.cache_hits": sum(len(t.counters.get("cli.cache_hits", [])) for t in every),
        "cli.cache_misses": sum(len(t.counters.get("cli.cache_misses", [])) for t in every),
        **{f"{layer}.self_s": selfs.get(layer, 0.0) for layer in LAYERS},
        "trace.overhead_s": sum(t.wrapper_time() for t in every),
        "trace.coverage": sum(t.root_total() for t in every) / traced.wall,
    }
    return metrics


def write_trace(path: Path, facts: dict, traced, pass_id: int = 0) -> None:
    """All spans of a traced pass: one per operation, and under it the
    spans its process recorded.  Ids are "<pass>:<op>" for operations and
    "<pass>:<op>:<id>" for spans inside them."""
    spans = []
    for i, r in enumerate(traced.ops):
        op_id = f"{pass_id}:{i}"
        spans.append({"id": op_id, "name": f"op.{r.op.name}", "parent": None,
                      "start": r.start, "end": r.start + r.wall, "pass": pass_id,
                      "calls": 1, "items": 0, "total": r.wall})
        for s in r.spans["spans"]:
            parent = op_id if s["parent"] is None else f"{op_id}:{s['parent']}"
            spans.append({**s, "id": f"{op_id}:{s['id']}", "parent": parent, "pass": pass_id})
    path.write_text(json.dumps({"facts": facts, "spans": spans}))
