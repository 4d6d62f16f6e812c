"""The verification suites behind ``fplrs verify``: each is a generator
of the check lines of one suite, which the command line writes as they
come.

    rs                the RS certificate of the stationary vector
    wieland           both signs' tables agree and are rotation invariant
    orbits            gyration orbits and their plaquette sums
    identities        the identity census of the proof
    tl                Temperley-Lieb and add/cap relations
    gyration-general  the gyration pass on glued domains

A configuration is handed round as its bitmask over its domain's
edges, a plain int, as in the layers; the domain comes with the
ensemble or the gluing.

Like ``fplrs.cli``, this module binds the layers as modules and calls
them through their attributes, so a suite executes only the layers it
calls.  The package registers this module lazily too, so the command
line loads it only for ``verify``.  It must not import ``fplrs.cli``:
under ``python -m fplrs.cli`` that module runs as ``__main__``, and an
import of it by name would execute it a second time.
"""

from __future__ import annotations

import random
from typing import Iterator, NamedTuple

from . import fplcore, groundstate, gyration, identities, lattice, linkpat, sampling


class CheckLine(NamedTuple):
    suite: str
    check: str
    status: bool
    detail: str = ""


def _suite_rs(n_max: int) -> Iterator[CheckLine]:
    for n in range(1, n_max + 1):
        r = groundstate.verify_rs(n)
        yield CheckLine(
            "rs", f"(H-2n) kills the count vector, n={n}", r.rs_is_zero, r.first_violation
        )
        yield CheckLine("rs", f"kernel equals counts, n={n}", r.kernel_matches_counts)
        yield CheckLine(
            "rs", f"component sum, n={n}", r.total == r.expected_total,
            f"{r.total} vs {r.expected_total}",
        )


def _suite_wieland(n_max: int) -> Iterator[CheckLine]:
    for n in range(1, n_max + 1):
        plus = fplcore.refined_counts(n, "+")
        minus = fplcore.refined_counts(n, "-")
        yield CheckLine("wieland", f"plus table equals minus table, n={n}", plus == minus)
        yield CheckLine(
            "wieland",
            f"table invariant under rotation, n={n}",
            linkpat.apply_rotation(plus, 1) == plus,
        )
    # R and R^-1 agree on the patterns of sizes 1 and 2, and first differ at 3
    fits = gyration.step_rotations(gyration.orbit_partition(2) + gyration.orbit_partition(3))
    yield CheckLine(
        "wieland", f"gyration rotates patterns by R^{gyration.ROTATION}", fits == {gyration.ROTATION}
    )


def _suite_orbits(n_max: int) -> Iterator[CheckLine]:
    for n in range(1, n_max + 1):
        orbits = gyration.orbit_partition(n)
        total = sum(o.period for o in orbits)
        yield CheckLine(
            "orbits",
            f"orbits partition the ensemble, n={n}",
            total == linkpat.asm_count_formula(n),
            f"{len(orbits)} orbits, {total} configs",
        )
        # every step rotating by the one power keeps each orbit in one class
        coherent = gyration.ROTATION in gyration.step_rotations(orbits)
        bad_sum = 0
        class_pm: dict[tuple[str, tuple[int, int]], list[int]] = {}
        for o in orbits:
            word, faces = gyration.orbit_faces(o)
            for alpha, (plus, minus) in faces.items():
                bad_sum += plus != minus
                pm = class_pm.setdefault((word, alpha), [0, 0])
                pm[0] += plus
                pm[1] += minus
        bad_class = sum(1 for pm in class_pm.values() if pm[0] != pm[1])
        yield CheckLine("orbits", f"orbit face sums vanish, n={n}", bad_sum == 0)
        yield CheckLine("orbits", f"class face sums vanish, n={n}", bad_class == 0)
        yield CheckLine("orbits", f"orbits stay in one rotation class, n={n}", coherent)
        if n == 4:
            balanced = all(
                pm[0] == pm[1]
                for (word, alpha), pm in class_pm.items()
                if alpha == (3, 2)
            )
            yield CheckLine("orbits", "per-class +1/-1 counts balance at face (3,2), n=4", balanced)


def _suite_identities(n_max: int) -> Iterator[CheckLine]:
    for r in identities.run_identity_suite(range(1, n_max + 1)):
        yield CheckLine(
            "identities",
            f"{r.identity} n={r.n}" + (f" j={r.j}" if r.j is not None else ""),
            r.status,
            r.witness,
        )


def _tl_operators():
    """tl_e, rotate, close_c and add_a, each memoised for one suite call:
    at n-max 7 with the default seed the relations make 137,550 calls of
    tl_e on 11,492 distinct (pattern, index) pairs, and a lasting cache
    would outlive the suite and hold every pair the Hamiltonian meets."""
    from functools import lru_cache

    return tuple(
        lru_cache(maxsize=None)(op) for op in (linkpat.tl_e, linkpat.rotate, linkpat.close_c, linkpat.add_a)
    )


def _check_tl_relations(n: int, samples, label: str, ops) -> Iterator[CheckLine]:
    tl_e, rotate, close_c, add_a = ops
    size = 2 * n
    wrap = lambda j: ((j - 1) % size) + 1
    ok_a = ok_b = ok_c = ok_d = True
    ok_ca = ok_ac = ok_comm = True
    # each check is an AND, so a repeated sample adds nothing: check every
    # distinct one once, and the relations that do not read j per (p, i)
    samples = dict.fromkeys(samples)
    for p, i in dict.fromkeys((p, i) for p, i, _ in samples):
        ei = tl_e(p, i)
        ok_a &= ei == rotate(tl_e(rotate(p, -1), wrap(i + 1)), 1)
        ok_b &= tl_e(ei, i) == ei
        ok_d &= tl_e(tl_e(ei, wrap(i + 1)), i) == ei
        ok_d &= tl_e(tl_e(ei, wrap(i - 1)), i) == ei
        if i <= size - 1:
            ok_ca &= close_c(add_a(p, i), i) == p
            ok_ac &= add_a(close_c(p, i), i) == ei
    for p, i, j in samples:
        ei = tl_e(p, i)
        if min((i - j) % size, (j - i) % size) > 1:
            ok_c &= tl_e(tl_e(p, j), i) == tl_e(ei, j)
        if j - i >= 2:
            if j <= size - 1 and i <= size - 3:
                ok_comm &= close_c(ei, j) == tl_e(close_c(p, j), i)
            if j <= size + 1:
                ok_comm &= add_a(ei, j) == tl_e(add_a(p, j), i)
    yield CheckLine("tl", f"conjugation by rotation shifts indices, {label}", ok_a)
    yield CheckLine("tl", f"generators are idempotent, {label}", ok_b)
    yield CheckLine("tl", f"distant generators commute, {label}", ok_c)
    yield CheckLine("tl", f"braid-like contraction, {label}", ok_d)
    yield CheckLine("tl", f"cap after add is the identity, {label}", ok_ca)
    yield CheckLine("tl", f"add after cap is the generator, {label}", ok_ac)
    yield CheckLine("tl", f"caps commute with distant generators, {label}", ok_comm)


def _nonconsecutive_sets(size: int):
    """All subsets of 1..size-1 with no two consecutive members."""
    out = [()]
    for j in range(1, size):
        out += [s + (j,) for s in out if not s or s[-1] < j - 1]
    return out


def _suite_tl(n_max: int, seed: int) -> Iterator[CheckLine]:
    ops = _tl_operators()
    tl_e, _, close_c, add_a = ops
    for n in range(1, min(n_max, 4) + 1):
        size = 2 * n
        samples = [
            (p, i, j)
            for p in linkpat.all_patterns(n)
            for i in range(1, size + 1)
            for j in range(1, size + 1)
        ]
        yield from _check_tl_relations(n, samples, f"exhaustive n={n}", ops)
        ok_prod = True
        for p in linkpat.all_patterns(n):
            for js in _nonconsecutive_sets(size):
                lhs = p
                for j in sorted(js, reverse=True):
                    lhs = close_c(lhs, j)
                for j in sorted(js):
                    lhs = add_a(lhs, j)
                rhs = p
                for j in js:
                    rhs = tl_e(rhs, j)
                ok_prod &= lhs == rhs
        yield CheckLine("tl", f"add/cap ladders reproduce generator products, exhaustive n={n}", ok_prod)
    if n_max >= 5:
        rng = random.Random(seed)
        for n in range(5, min(n_max, 7) + 1):
            pats = linkpat.all_patterns(n)
            size = 2 * n
            samples = [
                (rng.choice(pats), rng.randint(1, size), rng.randint(1, size))
                for _ in range(10_000)
            ]
            yield from _check_tl_relations(n, samples, f"10^4 samples n={n}", ops)


def _conservation_lines(t, g, parity: str, label: str) -> Iterator[CheckLine]:
    d = g.domain  # g is the caller's gluing of t; nothing is glued here
    ok_inv = ok_triplet = ok_bc = True
    count = 0
    # the termination bits of the complement, and of every configuration
    base = d.n_internal
    terminations = ((1 << d.perimeter) - 1) << base
    complement = sum(1 << (base + k) for k, c in enumerate(t.colours) if not c)
    for phi in fplcore.enumerate_configs(d, t):
        count += 1
        psi = gyration.apply_h(phi, g)
        ok_bc &= psi & terminations == complement
        ok_inv &= gyration.apply_h(psi, g) == phi
        ok_triplet &= gyration.pair_link_data(phi, g) == gyration.pair_link_data(psi, g)
    yield CheckLine(
        "gyration-general",
        f"pass is an involution onto the complement, {label}",
        # the walk and the sweep share one transition function, so this
        # size check covers only the sweep's merge of its runs;
        # tests/dfs_oracle.py is the independent check of both.  The
        # pass holds for a gluing of either parity, so the pairs tie g
        # to the parity that the label names.
        ok_inv and ok_bc and count == fplcore.count_configs(d, t)
        and g.pairs == lattice._pairing(d.perimeter, parity),
        f"{count} configs, swaps={g.swaps}",
    )
    yield CheckLine("gyration-general", f"glued link data conserved, {label}", ok_triplet)


def _suite_gyration_general(n_max: int, seed: int) -> Iterator[CheckLine]:
    for n in range(1, min(n_max, 4) + 1):
        d, t = lattice.build_square(n, "+")
        for parity in ("plus", "minus"):
            g = lattice.glue_and_gamma(d, t, parity)
            yield from _conservation_lines(t, g, parity, f"square n={n} {parity}")
    rng = random.Random(seed)
    for k in range(50):
        n_cells = rng.randint(6, 24)
        parity = "plus" if k % 2 == 0 else "minus"
        d, t, g = sampling.random_glueable(rng, n_cells, parity)
        label = f"random domain #{k} ({len(d.cells)} cells, {parity})"
        yield from _conservation_lines(t, g, parity, label)
    for n in range(3, min(n_max, 5) + 1):
        for j in range(2, (n + 1) // 2 + 1):
            d, t = identities.shat_c_rectangle(n, j)
            for parity in ("plus", "minus"):
                r = gyration.generalized_gyration_check(lattice.glue_and_gamma(d, t, parity))
                yield _capped_line(
                    r, f"the c-state rectangle n={n} j={j} {parity}",
                    f"J1={list(r.j_left)} J2={list(r.j_right)}",
                )
    for k in range(15):
        d, _, g = sampling.random_glueable(rng, rng.randint(6, 16), "plus")
        r = gyration.generalized_gyration_check(g)
        yield _capped_line(
            r, f"random domain #{k} ({len(d.cells)} cells)",
            f"J1={list(r.j_left)} J2={list(r.j_right)} swaps={list(g.swaps)}",
        )


def _capped_line(r, label: str, detail: str) -> CheckLine:
    """The line of one capped-table comparison; a failing one ends its
    detail with the first pattern whose two counts differ."""
    if not r.passed:
        detail += f"; {r.detail}"
    return CheckLine("gyration-general", f"capped tables agree on {label}", r.passed, detail)

