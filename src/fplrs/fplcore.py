"""Fully-packed loop configurations over a domain.

A configuration colours every edge slot (internal edges and
terminations) black or white so that each vertex sees exactly two of
each; it is stored as a bitmask over the domain's canonical edge order
(bit set = black).  The enumerator is a depth-first search branching on
the first undecided edge in canonical order, white before black, with
constraint propagation: once a vertex has two edges of one colour its
remaining edges are forced.  The emitted stream is therefore the
lexicographic order of canonical bitstrings.  Every count, serial or
pooled, walks the same tree through one engine, ``_tally``, which
counts the leaves by a key, so stream and counts cannot disagree.

Open monochromatic paths end at terminations; the black ones, labelled
cyclically from the anchor, give the configuration's link pattern.
Vertex types a, b, c classify the position of the two black edges
around a vertex.  The assignment of the six edge-pair placements to the
three letters is not hard-coded: on first use it is pinned by brute
force as the unique labelling under which every bottom row at sizes 2
and 3 reads b..bca..a, asserted unique, then cached.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache, partial
from itertools import combinations
from typing import Callable, Iterator, Mapping, Sequence

from .lattice import BoundaryCondition, Cell, Domain, build_square
from .linkpat import LinkPattern, LpVector

__all__ = [
    "FplConfig",
    "LinkData",
    "PsiTable",
    "enumerate_configs",
    "count_configs",
    "split_prefixes",
    "asm_count_formula",
    "link_data",
    "vertex_type",
    "vertex_type_table",
    "plaquette_indicator",
    "refined_counts",
    "psi_counts",
]


@dataclass(frozen=True)
class FplConfig:
    """One ice-rule colouring; bit e of ``bits`` set means edge e is black."""

    domain: Domain
    bits: int

    def colour(self, edge_id: int) -> int:
        return (self.bits >> edge_id) & 1

    def boundary(self) -> BoundaryCondition:
        base = len(self.domain.internal_edges)
        return BoundaryCondition(
            tuple(self.colour(base + k) for k in range(self.domain.perimeter))
        )

    def complemented(self) -> "FplConfig":
        mask = (1 << len(self.domain.edges)) - 1
        return FplConfig(self.domain, self.bits ^ mask)

    def bitstring(self) -> str:
        return "".join(str(self.colour(e)) for e in range(len(self.domain.edges)))

    def check_ice_rule(self) -> bool:
        for v, slots in self.domain.vertex_edges.items():
            if sum(self.colour(e) for e in slots) != 2:
                return False
        return True


def _search(
    domain: Domain,
    bc: BoundaryCondition,
    forced: Sequence[tuple[int, int]] = (),
    split_depth: int | None = None,
):
    """Core DFS shared by streaming, counting and task splitting.

    Yields solution bitmasks, or, when ``split_depth`` is given,
    ``("prefix", decisions)`` once the decision stack reaches that depth
    (the subtree is then skipped) alongside ``("done", bits)`` for
    solutions found earlier.
    """
    if len(bc.colours) != domain.perimeter:
        raise ValueError("boundary condition length mismatch")
    edges = domain.edges
    n_edges = len(edges)
    n_internal = len(domain.internal_edges)
    verts = domain.vertices
    v_index = {v: i for i, v in enumerate(verts)}
    edges_of_vert = [tuple(domain.vertex_edges[v]) for v in verts]
    vert_of_edge: list[tuple[int, ...]] = [
        tuple(v_index[v] for v in vs) for vs in domain.edge_vertices
    ]

    colour = [-1] * n_edges
    nb = [0] * len(verts)
    nw = [0] * len(verts)
    trail: list[int] = []

    def assign(e0: int, c0: int) -> bool:
        stack = [(e0, c0)]
        while stack:
            e, c = stack.pop()
            cur = colour[e]
            if cur >= 0:
                if cur != c:
                    return False
                continue
            colour[e] = c
            trail.append(e)
            for v in vert_of_edge[e]:
                if c:
                    nb[v] += 1
                    if nb[v] > 2:
                        return False
                    if nb[v] == 2:
                        for e2 in edges_of_vert[v]:
                            if colour[e2] < 0:
                                stack.append((e2, 0))
                else:
                    nw[v] += 1
                    if nw[v] > 2:
                        return False
                    if nw[v] == 2:
                        for e2 in edges_of_vert[v]:
                            if colour[e2] < 0:
                                stack.append((e2, 1))
        return True

    def undo(mark: int) -> None:
        while len(trail) > mark:
            e = trail.pop()
            c = colour[e]
            colour[e] = -1
            counts = nb if c else nw
            for v in vert_of_edge[e]:
                counts[v] -= 1

    ok = True
    for k, c in enumerate(bc.colours):
        if not assign(n_internal + k, c):
            ok = False
            break
    if ok:
        for e, c in forced:
            if not assign(e, c):
                ok = False
                break
    if not ok:
        return

    def encode() -> int:
        bits = 0
        for e in range(n_edges):
            if colour[e]:
                bits |= 1 << e
        return bits

    splitting = split_depth is not None
    decisions: list[list[int]] = []  # [edge, trail mark, colour tried]
    ptr = 0
    descending = True
    while True:
        if descending:
            while ptr < n_edges and colour[ptr] >= 0:
                ptr += 1
            if ptr == n_edges:
                yield ("done", encode()) if splitting else encode()
                descending = False
                continue
            if splitting and len(decisions) == split_depth:
                yield ("prefix", tuple((d[0], d[2]) for d in decisions))
                descending = False
                continue
            decisions.append([ptr, len(trail), 0])
            descending = assign(ptr, 0)
        else:
            if not decisions:
                return
            edge, mark, tried = decisions[-1]
            undo(mark)
            if tried == 0:
                decisions[-1][2] = 1
                ptr = edge
                descending = assign(edge, 1)
            else:
                decisions.pop()


def enumerate_configs(
    d: Domain, t: BoundaryCondition, forced: Sequence[tuple[int, int]] = ()
) -> Iterator[FplConfig]:
    """Every ice-rule colouring extending t, in lexicographic bit order."""
    for bits in _search(d, t, forced):
        yield FplConfig(d, bits)


def split_prefixes(
    d: Domain, t: BoundaryCondition, depth: int
) -> tuple[list[int], list[tuple[tuple[int, int], ...]]]:
    """Split the search tree at the given decision depth.

    Returns solutions completed above the split together with the
    decision prefixes of the open subtrees; enumerating each prefix
    independently and merging in order reproduces the full stream.
    """
    done: list[int] = []
    prefixes: list[tuple[tuple[int, int], ...]] = []
    for kind, payload in _search(d, t, split_depth=depth):
        if kind == "done":
            done.append(payload)
        else:
            prefixes.append(payload)
    return done, prefixes


def _tally(
    d: Domain,
    t: BoundaryCondition,
    key: Callable,
    jobs: int = 1,
    prefix: Sequence[tuple[int, int]] = (),
) -> dict:
    """Count the leaves below ``prefix`` by ``key(domain, bits)``; a
    ``None`` key drops the leaf.

    With jobs > 1 the tree is split on its earliest decisions and each
    open subtree is tallied by this function in a process pool (so
    ``key`` must be picklable); leaves completed above the split go
    through the same key.  The split changes no count.
    """
    parts: list[dict] = []
    if jobs > 1:
        depth = max(1, (jobs * 4 - 1).bit_length())
        leaves, prefixes = split_prefixes(d, t, depth)
        if prefixes:
            import multiprocessing as mp

            with mp.Pool(jobs) as pool:
                parts = pool.starmap(_tally, [(d, t, key, 1, p) for p in prefixes])
    else:
        leaves = _search(d, t, prefix)
    counts: dict = {}
    for bits in leaves:
        k = key(d, bits)
        if k is not None:
            counts[k] = counts.get(k, 0) + 1
    for part in parts:
        for k, v in part.items():
            counts[k] = counts.get(k, 0) + v
    return counts


def _any_leaf(d: Domain, bits: int) -> bool:
    return True


def count_configs(d: Domain, t: BoundaryCondition, jobs: int = 1) -> int:
    """Number of configurations, walking the same tree as the stream.

    With jobs > 1 the tree is split on the earliest decisions and the
    subtree counts are added; the split changes nothing about which
    leaves exist.
    """
    return sum(_tally(d, t, _any_leaf, jobs).values())


def asm_count_formula(n: int) -> int:
    """1, 2, 7, 42, 429, ... via the running-ratio form of the product."""
    if n < 1:
        raise ValueError("n must be positive")
    value = Fraction(1)
    a = 1
    for k in range(1, n):
        value = Fraction(a) * math.comb(3 * k + 1, k) / math.comb(2 * k, k)
        if value.denominator != 1:
            raise AssertionError("running product left the integers")
        a = value.numerator
    return a


# ---------------------------------------------------------------------------
# Path tracing


@dataclass(frozen=True)
class LinkData:
    """Black and white link patterns plus closed-cycle counts."""

    black: LinkPattern
    white: LinkPattern
    loops_black: int
    loops_white: int

    @property
    def loops(self) -> int:
        return self.loops_black + self.loops_white


def _trace_colour(phi: FplConfig, want: int) -> tuple[LinkPattern, int]:
    d = phi.domain
    n_internal = len(d.internal_edges)
    terms = [
        k for k in range(d.perimeter) if phi.colour(d.termination_id(k)) == want
    ]
    label = {k: i for i, k in enumerate(terms)}
    edges_of_vert = d.vertex_edges
    vert_of_edge = d.edge_vertices
    seen: set[int] = set()
    match = [-1] * len(terms)
    for start in terms:
        eid = d.termination_id(start)
        if eid in seen:
            continue
        seen.add(eid)
        v = vert_of_edge[eid][0]
        while True:
            nxt = next(
                e2
                for e2 in edges_of_vert[v]
                if e2 != eid and phi.colour(e2) == want
            )
            seen.add(nxt)
            if nxt >= n_internal:
                end = nxt - n_internal
                match[label[start]] = label[end]
                match[label[end]] = label[start]
                break
            a, b = vert_of_edge[nxt]
            v = b if a == v else a
            eid = nxt
    loops = 0
    for eid in range(n_internal):
        if phi.colour(eid) != want or eid in seen:
            continue
        loops += 1
        v = vert_of_edge[eid][1]
        cur = eid
        while True:
            seen.add(cur)
            nxt = next(
                e2
                for e2 in edges_of_vert[v]
                if e2 != cur and phi.colour(e2) == want
            )
            if nxt == eid:
                break
            a, b = vert_of_edge[nxt]
            v = b if a == v else a
            cur = nxt
    return LinkPattern(tuple(match)), loops


def link_data(phi: FplConfig) -> LinkData:
    """Trace all open paths and closed cycles of both colours.

    Black endpoints are labelled cyclically counter-clockwise starting
    from the first black termination at or after the anchor, white ones
    likewise.
    """
    black, lb = _trace_colour(phi, 1)
    white, lw = _trace_colour(phi, 0)
    return LinkData(black, white, lb, lw)


# ---------------------------------------------------------------------------
# Vertex types


def _black_dirs(phi: FplConfig, v: Cell) -> frozenset[int]:
    slots = phi.domain.vertex_edges[v]
    return frozenset(d for d in range(4) if phi.colour(slots[d]) == 1)


def _matches_bottom_law(types: Sequence[str]) -> bool:
    if types.count("c") != 1:
        return False
    k = types.index("c")
    return all(t == "b" for t in types[:k]) and all(t == "a" for t in types[k + 1:])


@lru_cache(maxsize=None)
def vertex_type_table() -> dict[frozenset[int], str]:
    """The pinned assignment of the six black-pair placements to a, b, c.

    Derived, not guessed: among all ways to split the six placements
    into three labelled pairs, exactly one makes every bottom row of
    the size-2 and size-3 ensembles read b..bca..a.  That unique
    assignment is returned; ambiguity or failure raises.
    """
    keys = [frozenset(p) for p in combinations(range(4), 2)]
    rows: list[tuple[frozenset[int], ...]] = []
    for n in (2, 3):
        d, t = build_square(n, "+")
        for phi in enumerate_configs(d, t):
            rows.append(tuple(_black_dirs(phi, (x, 1)) for x in range(1, n + 1)))
    valid: list[dict[frozenset[int], str]] = []
    for a_pick in combinations(range(6), 2):
        rest = [i for i in range(6) if i not in a_pick]
        for b_pick in combinations(rest, 2):
            c_pick = [i for i in rest if i not in b_pick]
            table = {keys[i]: "a" for i in a_pick}
            table.update({keys[i]: "b" for i in b_pick})
            table.update({keys[i]: "c" for i in c_pick})
            if all(_matches_bottom_law([table[k] for k in row]) for row in rows):
                valid.append(table)
    if len(valid) != 1:
        raise AssertionError(
            f"vertex-type calibration found {len(valid)} assignments"
        )
    return valid[0]


def vertex_type(phi: FplConfig, v: Cell) -> str:
    """Type letter of an internal vertex under the calibrated table."""
    return vertex_type_table()[_black_dirs(phi, v)]


def plaquette_indicator(phi: FplConfig, alpha: Cell) -> int:
    """+1 for two black horizontal and two white vertical edges around
    the face whose bottom-left vertex is ``alpha``; -1 for the colour
    complement; 0 otherwise."""
    bottom, right, top, left = phi.domain.face_edges(alpha)
    h = phi.colour(bottom) + phi.colour(top)
    v = phi.colour(right) + phi.colour(left)
    if h == 2 and v == 0:
        return 1
    if h == 0 and v == 2:
        return -1
    return 0


# ---------------------------------------------------------------------------
# Refined counts


@dataclass
class PsiTable:
    """Exact per-link-pattern counts with provenance metadata."""

    n: int
    sign: str
    anchor: int
    counts: dict[str, int] = field(default_factory=dict)

    def total(self) -> int:
        return sum(self.counts.values())

    def add(self, word: str, amount: int = 1) -> None:
        self.counts[word] = self.counts.get(word, 0) + amount

    def merge(self, other: "PsiTable") -> "PsiTable":
        if (self.n, self.sign, self.anchor) != (other.n, other.sign, other.anchor):
            raise ValueError("tables describe different ensembles")
        out = PsiTable(self.n, self.sign, self.anchor, dict(self.counts))
        for word, v in other.counts.items():
            out.add(word, v)
        return out

    def value(self, p: LinkPattern) -> int:
        return self.counts.get(p.word, 0)

    def as_vector(self) -> LpVector:
        return LpVector.from_counts(
            self.n,
            {LinkPattern.from_word(w): v for w, v in self.counts.items()},
        )

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "sign": self.sign,
            "anchor": self.anchor,
            "counts": {w: str(v) for w, v in sorted(self.counts.items())},
        }

    @classmethod
    def from_json(cls, data: Mapping) -> "PsiTable":
        return cls(
            n=int(data["n"]),
            sign=data["sign"],
            anchor=int(data["anchor"]),
            counts={w: int(v) for w, v in data["counts"].items()},
        )

    def dumps(self) -> str:
        return json.dumps(self.to_json(), indent=0, sort_keys=True)


def _black_pattern(
    predicate: Callable[[FplConfig], bool] | None, d: Domain, bits: int
) -> LinkPattern | None:
    phi = FplConfig(d, bits)
    if predicate is not None and not predicate(phi):
        return None
    return _trace_colour(phi, 1)[0]


def psi_counts(
    d: Domain,
    t: BoundaryCondition,
    predicate: Callable[[FplConfig], bool] | None = None,
) -> dict[LinkPattern, int]:
    """Black-pattern counts over an arbitrary ensemble, optionally filtered."""
    return _tally(d, t, partial(_black_pattern, predicate))


def refined_counts(n: int, sign: str = "+", jobs: int = 1) -> PsiTable:
    """Per-link-pattern counts over the square ensemble.

    With jobs > 1 the search tree is partitioned and the per-subtree
    counts merged; merging is commutative so the result is identical.
    """
    d, t = build_square(n, sign)
    table = PsiTable(n=n, sign=sign, anchor=d.anchor)
    for p, v in _tally(d, t, partial(_black_pattern, None), jobs).items():
        table.add(p.word, v)
    return table
