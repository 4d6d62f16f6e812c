"""Fully-packed loop configurations over a domain.

A configuration colours every edge slot (internal edges and
terminations) black or white so that each vertex sees exactly two of
each.  It is a plain int, a bitmask over its domain's canonical edge
order (bit set = black); the domain is passed beside it, never stored
in it.

One engine counts and enumerates: a frontier sweep, the connectivity
transfer matrix of Batchelor, Blöte, Nienhuis & Yung (1996), visits the
vertices in canonical order and carries the colours and black
connectivity of the edges cut between visited and unvisited vertices.
From a cut, the transitions up to the next decision (a vertex whose path
may go on by E or by N) leave no choice; both traversals follow them by
one function, once per cut, and afterwards only OR in what they added.
That function is the one place the ice rule is applied, at each vertex
as it is reached; no colour is propagated ahead of it.  Counting merges
the states that reach a decision by cut: each cut is one entry, holding
the counts of its configurations by closed termination pairs, and is run
once, so no configuration is visited; it can also count by the colours
of chosen internal edges, and with jobs > 1 runs once per decision
prefix in a process pool.  Enumeration walks the same transitions depth
first, one state at a time, with every internal edge's colour kept.
Internal edge ids run in vertex order, E before N, and each decision
tries E white first, so the stream is the lexicographic order of
canonical bitstrings; each leaf's closed termination pairs are its
black link pattern, which the walk hands out with it.

Open monochromatic paths end at terminations; the black ones, labelled
cyclically from the anchor, give the configuration's link pattern.
One walking loop traces paths and loops on the domain's cached ``walk``
table (at each edge end, the vertex's other three edges), colours read
off the bitmask, for the flat domain and its gluings: a walk stops at a
labelled termination and passes a glued one on to its partner leg.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import lru_cache
from typing import Iterator, Mapping, Sequence

from .lattice import BoundaryCondition, Domain, build_square
from .linkpat import LinkPattern, LpVector

__all__ = [
    "enumerate_configs",
    "count_configs",
    "split_prefixes",
    "refined_counts",
    "psi_counts",
]


def enumerate_configs(
    d: Domain, t: BoundaryCondition, forced: Sequence[tuple[int, int]] = ()
) -> Iterator[int]:
    """Every ice-rule colouring extending t that gives each edge in
    ``forced`` its colour, as its bitmask over d's edges, in
    lexicographic bit order."""
    for bits, _ in _walk(d, t, forced):
        yield bits


def split_prefixes(
    d: Domain, t: BoundaryCondition, depth: int
) -> tuple[list[int], list[tuple[tuple[int, int], ...]]]:
    """Split the walk at the given decision depth.

    Returns solutions completed above the split together with the
    decision prefixes of the open subtrees; enumerating each prefix
    independently and merging in order reproduces the full stream.
    """
    done: list[int] = []
    prefixes: list[tuple[tuple[int, int], ...]] = []
    for bits, payload in _walk(d, t, split_depth=depth):
        if bits is None:
            prefixes.append(payload)
        else:
            done.append(bits)
    return done, prefixes


def count_configs(d: Domain, t: BoundaryCondition, jobs: int = 1) -> int:
    """Number of configurations: the sum of the frontier sweep's
    pattern counts, which merge the walk's runs by cut.  With jobs > 1
    the sweep is split over the walk's decision prefixes as
    :func:`_patterns` does; the split changes nothing about which
    configurations are counted.
    """
    return sum(_patterns(d, t, jobs).values())


# ---------------------------------------------------------------------------
# Path tracing


def _walk_paths(
    d: Domain, bits: int, ends: dict[int, int], glue: dict[int, int]
) -> tuple[LinkPattern, int]:
    """The link pattern and closed-loop count of the colour set in
    ``bits``, walked on the domain's ``walk`` table.

    Every termination of the colour is either in ``ends`` (edge id to
    label; a path stops there) or in ``glue`` (edge id to its partner
    leg; a walk passes on and re-enters at the partner's vertex).  The
    colour's edges not yet walked are the zero bits of one int,
    ``walked``.  One loop walks from each end among them, in ``ends``
    order, then from the lowest one left, each such start a closed
    loop.  A walk stops at a labelled end, or back at its first edge;
    so two glued legs alone close a loop.
    """
    n_internal = d.n_internal
    walk = d.walk
    full = (1 << len(d.edge_vertices)) - 1
    walked = ~bits & full
    match = [-1] * len(ends)
    loops = 0
    starts = iter(ends.items())
    while walked != full:
        first, i = next(starts, (-1, -1))
        if first < 0:
            first = (~walked & (walked + 1)).bit_length() - 1
            loops += 1
        elif (walked >> first) & 1:
            continue
        walked |= 1 << first
        state = 2 * first
        while True:
            # leave along the vertex's one other edge of this colour
            for state in walk[state]:
                if (bits >> (state >> 1)) & 1:
                    break
            else:
                raise ValueError("a walk of the colour stops at an inner vertex")
            eid = state >> 1
            walked |= 1 << eid
            if eid >= n_internal:
                j = ends.get(eid)
                if j is not None:
                    match[i], match[j] = j, i
                    break
                eid = glue[eid]
                walked |= 1 << eid
                state = 2 * eid
            if eid == first:
                break
    return LinkPattern(tuple(match)), loops


def _trace_colour(d: Domain, bits: int) -> tuple[LinkPattern, int]:
    """The black link pattern and closed black-loop count of the
    bitmask, every black termination a path end, labelled in anchor
    order."""
    ends: dict[int, int] = {}
    for e in range(d.n_internal, len(d.edge_vertices)):
        if (bits >> e) & 1:
            ends[e] = len(ends)
    return _walk_paths(d, bits, ends, {})


# ---------------------------------------------------------------------------
# Refined counts


def _add_patterns(counts: dict, swept: Mapping) -> dict[LinkPattern, int]:
    """Add sweep counts into ``counts`` with the bitmask summed out of
    their (bitmask, pattern) keys."""
    for (_, p), v in swept.items():
        counts[p] = counts.get(p, 0) + v
    return counts


def _patterns(d: Domain, t: BoundaryCondition, jobs: int = 1) -> dict[LinkPattern, int]:
    """Black-pattern counts by the sweep; with jobs > 1, one sweep per
    decision prefix of the walk in a pool, leaves above the split traced."""
    if jobs <= 1:
        return _add_patterns({}, _transfer(d, t))
    # every prefix sweeps the whole square, so split no finer than jobs
    depth = max(1, (jobs - 1).bit_length())
    leaves, prefixes = split_prefixes(d, t, depth)
    counts: dict[LinkPattern, int] = {}
    for bits in leaves:
        p = _trace_colour(d, bits)[0]
        counts[p] = counts.get(p, 0) + 1
    if prefixes:
        import multiprocessing as mp

        with mp.Pool(jobs) as pool:
            for part in pool.starmap(_transfer, [(d, t, p) for p in prefixes]):
                _add_patterns(counts, part)
    return counts


def psi_counts(
    d: Domain, t: BoundaryCondition, forced: Sequence[tuple[int, int]] = ()
) -> LpVector:
    """The count vector of an arbitrary ensemble by black pattern,
    restricted to the configurations that give each edge in ``forced``
    its colour."""
    return LpVector(t.n_black // 2, _add_patterns({}, _transfer(d, t, forced)))


def refined_counts(n: int, sign: str = "+", jobs: int = 1) -> LpVector:
    """The count vector of the square ensemble: its configurations
    counted by black link pattern, as integers.

    With jobs > 1 the sweep is split over the walk's earliest decisions
    and the per-prefix counts merged; merging is commutative so the
    result is identical.
    """
    d, t = build_square(n, sign)
    return LpVector(n, _patterns(d, t, jobs))


# ---------------------------------------------------------------------------
# Frontier sweep
#
# The vertices are visited in canonical (y, x) order.  When a vertex is
# reached its W and S slots are decided: each is a termination or an
# internal edge on the cut between visited and unvisited vertices.  The
# cut holds at most one vertical edge per column plus the W edge of the
# current vertex; ordered along the cut (a vertical edge in column x at
# key 2x, the W edge at 2x - 1) the vertex's internal in-edges are
# adjacent, and its internal N and E out-edges take their place.
#
# A state is the tag of every cut edge plus the termination pairs
# closed so far.  Tags: 0 white, 1 and 2 the two ends of a black path
# whose both ends are on the cut (left end 1, right end 2), and L + 3 a
# black path ending at the L-th black termination.  The visited region
# lies on one side of the cut, so paths between cut edges never cross
# and the 1/2 ends pair up like brackets; no path ids are needed.  The
# closed pairs are packed into one int, ``width`` bits per black
# termination holding its partner + 1.  Above them, at bit ``off + e``
# with ``off = width * n_black``, the same int holds the black edges e
# the caller asked to keep; once coloured an edge never changes.
#
# The future of a state depends on its cut tags alone, so the sweep
# keeps one entry per cut and, inside it, the counts by that int:
# states that differ only in their closed pairs or kept edges share the
# entry and are counted apart inside it.  A run from the cut ORs the
# same int into each of them, and that never merges two: it closes only
# pairs whose ends are still tagged on the cut, so none is closed yet,
# and colours only edges not coloured yet, so it sets no bit that a
# state already has, and ``closed | one`` is ``closed + one``.
#
# A vertex with one black in-edge and both out-edges internal and free
# is a decision.  Elsewhere a state has at most one successor, so the
# states form a graph of runs, each from a decision to the next one, a
# leaf or a dead end.  ``_runs`` builds it; the sweep merges its states
# by cut at each decision vertex, which is the transfer matrix with the
# forced vertices between decisions multiplied out, and the walk follows
# it depth first.


@lru_cache(maxsize=128)
def _schedule(d: Domain) -> tuple[tuple[int, int, int, int, int, int], ...]:
    """Per vertex in (y, x) order: the cut index of its first internal
    in-edge, the number of internal in-edges, and its W, S, N, E edge
    ids.  Depends on the domain only, so it is built once per domain."""
    n_internal = d.n_internal
    keys: list[int] = []  # the cut's keys, in order
    plan = []
    for v in d.vertices:
        x = v[0]
        e_, n_, w_, s_ = d.vertex_edges[v]
        i = bisect_left(keys, 2 * x - 1)
        r = (w_ < n_internal) + (s_ < n_internal)
        keys[i:i + r] = [k for k, e in ((2 * x, n_), (2 * x + 1, e_)) if e < n_internal]
        plan.append((i, r, w_, s_, n_, e_))
    assert not keys
    return tuple(plan)


def _partner(tags: tuple[int, ...], i: int, end: int) -> int:
    """Cut index of the partner of a path end removed at index i: right
    of i for a left end (1), left of i for a right end (2)."""
    j, step = (i, 1) if end == 1 else (i - 1, -1)
    other, depth = 3 - end, 0
    while True:
        x = tags[j]
        if x == other:
            if not depth:
                return j
            depth -= 1
        elif x == end:
            depth += 1
        j += step


def _join(
    tags: tuple[int, ...], i: int, x: int, y: int, closed: int, width: int
) -> tuple[tuple[int, ...], int]:
    """Join the black path ends x (left) and y (right) removed at cut
    index i: close a termination pair, or retag the partner end."""
    if x >= 3 and y >= 3:
        a, b = x - 3, y - 3
        return tags, closed | (b + 1) << (width * a) | (a + 1) << (width * b)
    if x >= 3 or y >= 3:
        end, tag = (y, x) if x >= 3 else (x, y)
    elif x == y:
        end, tag = x, x
    else:
        return tags, closed  # a closed loop (1, 2) or a bridge (2, 1)
    j = _partner(tags, i, end)
    return tags[:j] + (tag,) + tags[j + 1:], closed


def _runs(
    d: Domain, t: BoundaryCondition, forced: Sequence[tuple[int, int]], keep: Sequence[int]
) -> tuple | None:
    """The transition graph that the sweep merges and the walk follows,
    keeping the black internal edges in ``keep``: ``(run, decode)``, or
    None when the forced colours contradict each other or the boundary.
    Nothing is propagated ahead: ``run`` applies the ice rule at each
    vertex as it reaches it.

    ``run(k, tags)`` follows the transitions that leave no choice from
    the cut ``tags`` at vertex k.  It returns what they OR into a state's
    closed pairs and kept bits, as an int, when they reach a leaf; None
    at a dead end; or, at the next decision, its E edge and per E colour,
    white first, the state ``(k + 1, tags)`` after it and what was OR-ed
    in up to there.  ``decode`` splits a leaf's int into the bitmask
    (bit e set = black) of the kept edges and the black terminations,
    and its black pattern.
    """
    if len(t.colours) != d.perimeter:
        raise ValueError("boundary condition length mismatch")
    n_internal = d.n_internal
    allowed = [(0, 1)] * n_internal + [(c,) for c in t.colours]
    for e, c in forced:
        allowed[e] = tuple(x for x in allowed[e] if x == c)
    if not all(allowed):
        return None
    n_black = t.n_black
    width = max(1, n_black.bit_length())  # of one closed pair
    off = width * n_black
    bit = [0] * len(allowed)
    for e in keep:
        bit[e] = 1 << (off + e)
    tag = [0] * len(allowed)
    label = 3
    ends = 0  # the black terminations, as edge bits
    for k, c in enumerate(t.colours):
        if c:
            tag[n_internal + k] = label
            label += 1
            ends |= 1 << (n_internal + k)

    def build(i: int, r: int, w_: int, s_: int, n_: int, e_: int) -> tuple:
        """A vertex's schedule entry with what its allowed N, E colourings
        put on the cut, by number of black out-edges: the entries inserted
        when both are white; the entries, with their kept-edge bits or the
        termination pair they close, when both are black; and one (before,
        after, termination tag, kept-edge bit) per colouring with one
        black out-edge, E white first, whose path end goes between before
        and after when the tag is 0."""
        zero_n = (0,) if n_ < n_internal else ()
        zero_e = (0,) if e_ < n_internal else ()
        white, black, singles = None, None, []
        for ce in allowed[e_]:
            for cn in allowed[n_]:
                if not cn and not ce:
                    white = zero_n + zero_e
                elif cn and ce:
                    entries = tuple(tag[e] for e in (n_, e_) if e >= n_internal) or (1, 2)
                    black = entries, bit[n_] | bit[e_]
                    if len(entries) == 2 and entries[0] >= 3:
                        black = _join((), 0, *entries, 0, width)
                elif cn:
                    singles.append(((), zero_e, tag[n_], bit[n_]))
                else:
                    singles.append((zero_n, (), tag[e_], bit[e_]))
        return i, r, w_ < n_internal, tag[w_], s_ < n_internal, tag[s_], e_, white, black, singles

    steps = [build(*entry) for entry in _schedule(d)]
    last = len(steps)

    def run(k: int, tags: tuple) -> int | tuple | None:
        closed = 0
        while k < last:
            i, r, wp, wt, sp, st, e_, white, black, singles = steps[k]
            a = tags[i] if wp else wt
            b = tags[i + wp] if sp else st
            if a and b:
                if white is None:
                    return None
                tags, closed = _join(tags[:i] + white + tags[i + r:], i, a, b, closed, width)
            elif a or b:
                c = a or b
                left, right = tags[:i], tags[i + r:]
                if len(singles) == 2:
                    # both out-edges are internal and free
                    (pre0, post0, _, one0), (pre1, post1, _, one1) = singles
                    return (e_, (k + 1, left + pre0 + (c,) + post0 + right), closed | one0,
                            (k + 1, left + pre1 + (c,) + post1 + right), closed | one1)
                if not singles:
                    return None
                (pre, post, term, one), = singles
                if term:
                    tags, closed = _join(left + pre + post + right, i, c, term, closed, width)
                else:
                    tags, closed = left + pre + (c,) + post + right, closed | one
            elif black is not None:
                tags, closed = tags[:i] + black[0] + tags[i + r:], closed | black[1]
            else:
                return None
            k += 1
        return closed

    low, mask = (1 << off) - 1, (1 << width) - 1

    @lru_cache(maxsize=None)
    def pattern(pairs: int) -> LinkPattern:
        return LinkPattern(tuple(((pairs >> (width * k)) & mask) - 1 for k in range(n_black)))

    def decode(closed: int) -> tuple[int, LinkPattern]:
        return (closed >> off) | ends, pattern(closed & low)

    return run, decode


def _transfer(
    d: Domain, t: BoundaryCondition, forced: Sequence[tuple[int, int]] = (), keep: Sequence[int] = ()
) -> dict[tuple[int, LinkPattern], int]:
    """Counts of every ice-rule colouring extending t that gives each
    edge in ``forced`` its colour, by one frontier sweep, keyed by the
    bitmask (bit e set = black) of the internal edges e in ``keep`` and
    the black terminations, and by black pattern.

    The runs of :func:`_runs` are merged by cut at each decision: the
    states that start a run at vertex k wait in bucket k, one entry per
    cut holding their counts by closed pairs and kept edges, and the
    buckets go in increasing k.  Each entry's cut is run once, and every
    count in it, stepped by what the run ORs in, is added into the entry
    of each child cut; a child cut with no entry yet gets those stepped
    counts as a new dict, built in one expression.  The counts equal
    those of the leaves of ``_walk(d, t, forced)``, patterns included,
    with the kept edges and the terminations read off their bits.
    """
    built = _runs(d, t, forced, keep)
    if built is None:
        return {}
    run, decode = built
    leaves: dict[tuple, dict[int, int]] = {}  # by the leaf's empty cut
    pending: dict[int, dict] = {0: {(): {0: 1}}}
    while pending:
        k = min(pending)
        for tags, closeds in pending.pop(k).items():
            out = run(k, tags)
            if out is None:
                continue
            if type(out) is int:
                steps = ((leaves, (), out),)
            else:
                _, (k1, tags0), one0, (_, tags1), one1 = out
                bucket = pending.setdefault(k1, {})
                steps = (bucket, tags0, one0), (bucket, tags1, one1)
            for bucket, cut, one in steps:
                into = bucket.get(cut)
                if into is None:
                    # a fresh child entry is built whole, at C speed
                    bucket[cut] = {c | one: v for c, v in closeds.items()} if one else dict(closeds)
                    continue
                for closed, cnt in closeds.items():
                    key = closed | one
                    into[key] = into.get(key, 0) + cnt
    return {decode(closed): cnt for closed, cnt in leaves.get((), {}).items()}


def _walk(
    d: Domain,
    t: BoundaryCondition,
    forced: Sequence[tuple[int, int]] = (),
    split_depth: int | None = None,
) -> Iterator[tuple]:
    """Every ice-rule colouring extending t that gives each edge in
    ``forced`` its colour, as ``(bits, black pattern)``, by walking the
    runs of :func:`_runs` depth first: one state at a time, every
    internal edge kept.

    Internal edge ids run in vertex order, E before N, and each decision
    tries E white first, so the leaves come in lexicographic bit order.
    When ``split_depth`` is given, a decision met with that many above
    it yields ``(None, decisions)`` as (edge, colour) pairs instead, and
    its subtree is skipped.
    """
    built = _runs(d, t, forced, range(d.n_internal))
    if built is None:
        return
    run, decode = built
    # What a run adds depends on its start state alone, not on the
    # edges coloured before it, so each start state is run once.
    run = lru_cache(maxsize=None)(run)
    splitting = split_depth is not None
    stack = [((0, ()), 0, ())]
    while stack:
        state, closed, decisions = stack.pop()
        out = run(*state)
        if out is None:
            continue
        if type(out) is int:
            yield decode(closed | out)
            continue
        e_, first, one0, second, one1 = out
        later = decisions
        if splitting:
            if len(decisions) == split_depth:
                yield None, decisions
                continue
            later, decisions = decisions + ((e_, 1),), decisions + ((e_, 0),)
        stack.append((second, closed | one1, later))
        stack.append((first, closed | one0, decisions))
