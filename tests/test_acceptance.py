"""Acceptance criteria, one test per criterion, every tolerance exact.

Each test prints a single PASS/FAIL line (run with ``pytest -s`` to see
them on a green run); the asserts carry the same condition.  Sizes and
sample counts are the contract: counting through size 7, stationarity
and symmetry through 6, orbit sums through 5, the identity suite
through 5, relation checks exhaustive through 4 plus ten thousand
random samples at 5..7, and gyration conservation on at least fifty
random domains of at most thirty cells, enumerated exhaustively.
"""

import os
import random

import pytest

from census_oracle import plaquette_indicator
from fplrs.fplcore import (
    count_configs,
    enumerate_configs,
    refined_counts,
)
from fplrs.groundstate import stationary_vector
from fplrs.gyration import (
    apply_h,
    generalized_gyration_check,
    orbit_partition,
    pair_link_data,
)
from fplrs.identities import (
    _GYR_FAMILIES,
    run_identity_suite,
    shat_c_rectangle,
)
from fplrs.lattice import build_square, glue_and_gamma
from fplrs.linkpat import (
    LinkPattern,
    add_a,
    all_patterns,
    apply_hamiltonian,
    apply_rotation,
    asm_count_formula,
    close_c,
    rotate,
    rotation_class_of,
    tl_e,
)
from fplrs.sampling import random_glueable
from trace_oracle import boundary, link_data

ASM = {n: asm_count_formula(n) for n in range(1, 8)}
_tables = {}


def table(n, sign="+"):
    if (n, sign) not in _tables:
        _tables[(n, sign)] = refined_counts(n, sign)
    return _tables[(n, sign)]


def report(k, name, ok, detail=""):
    line = f"ACCEPTANCE {k} ({name}): {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" [{detail}]"
    print(line)


def test_criterion_1_counting():
    jobs = min(2, os.cpu_count() or 1)
    counts = {}
    for n in range(1, 8):
        d, t = build_square(n, "+")
        counts[n] = count_configs(d, t, jobs=jobs if n >= 6 else 1)
    ok = counts == ASM
    report(1, "counting", ok, f"n=1..7 -> {list(counts.values())}")
    assert ok


def test_criterion_2_stationarity():
    ok = True
    for n in range(1, 7):
        vec = table(n)
        residual = apply_hamiltonian(vec) - 2 * n * vec
        if not residual.is_zero():
            ok = False
            break
        if stationary_vector(n) != vec:
            ok = False
            break
    report(2, "stationary identity", ok, "residual zero and kernel match, n=1..6")
    assert ok


def test_criterion_3_dihedral_symmetry():
    ok = True
    for n in range(1, 7):
        plus = table(n, "+")
        if plus != table(n, "-") or apply_rotation(plus, 1) != plus:
            ok = False
            break
    report(3, "dihedral symmetry", ok, "rotation and sign invariance, n=1..6")
    assert ok


def test_criterion_4_propp_identity():
    values = {
        n: table(n).coeff(LinkPattern.from_word("()" * n)) for n in range(2, 7)
    }
    ok = all(values[n] == ASM[n - 1] for n in values)
    report(4, "serial-arc counts", ok, str(values))
    assert ok


def test_criterion_5_orbit_sums():
    ok = True
    for n in range(1, 6):
        d, _ = build_square(n, "+")
        class_sums = {}
        class_pm = {}
        for o in orbit_partition(n):
            configs = o.hashes
            cls = rotation_class_of(link_data(d, configs[0]).black).word
            for alpha in d.faces:
                total = 0
                for phi in configs:
                    v = plaquette_indicator(d, phi, alpha)
                    total += v
                    key = (cls, alpha)
                    class_sums[key] = class_sums.get(key, 0) + v
                    if n == 4 and alpha == (3, 2):
                        pm = class_pm.setdefault(cls, [0, 0])
                        if v == 1:
                            pm[0] += 1
                        elif v == -1:
                            pm[1] += 1
                if total != 0:
                    ok = False
        if any(v != 0 for v in class_sums.values()):
            ok = False
        if n == 4:
            if len(class_pm) != 3 or any(pm[0] != pm[1] for pm in class_pm.values()):
                ok = False
    report(5, "orbit and class sums", ok, "all faces, n=1..5; class balance at n=4")
    assert ok


def test_criterion_6_identity_suite():
    results = list(run_identity_suite(range(1, 6)))
    failures = [r for r in results if not r.status]
    directions = {name: row[3] for name, row in _GYR_FAMILIES.items()}
    ok = not failures and set(directions.values()) == {-1, 1}
    report(
        6,
        "identity suite",
        ok,
        f"{len(results)} checks; pinned directions {dict(directions)}",
    )
    assert ok, failures[:5]


def _relation_block(p, i, j, size):
    wrap = lambda x: ((x - 1) % size) + 1
    ei = tl_e(p, i)
    if ei != rotate(tl_e(rotate(p, -1), wrap(i + 1)), 1):
        return False
    if tl_e(ei, i) != ei:
        return False
    if min((i - j) % size, (j - i) % size) > 1 and tl_e(tl_e(p, j), i) != tl_e(ei, j):
        return False
    if tl_e(tl_e(tl_e(p, i), wrap(i + 1)), i) != ei:
        return False
    if tl_e(tl_e(tl_e(p, i), wrap(i - 1)), i) != ei:
        return False
    if i < size:
        if close_c(add_a(p, i), i) != p:
            return False
        if add_a(close_c(p, i), i) != ei:
            return False
    if j - i >= 2:
        if j < size and i <= size - 3 and close_c(tl_e(p, i), j) != tl_e(close_c(p, j), i):
            return False
        if add_a(tl_e(p, i), j) != tl_e(add_a(p, j), i):
            return False
    return True


def test_criterion_7a_relation_suites():
    ok = True
    for n in range(1, 5):
        size = 2 * n
        for p in all_patterns(n):
            for i in range(1, size + 1):
                for j in range(1, size + 1):
                    ok &= _relation_block(p, i, j, size)
        # ladder products over every non-consecutive index set
        sets = [()]
        for j in range(1, size):
            sets += [s + (j,) for s in sets if not s or s[-1] < j - 1]
        for p in all_patterns(n):
            for js in sets:
                lhs = p
                for j in sorted(js, reverse=True):
                    lhs = close_c(lhs, j)
                for j in sorted(js):
                    lhs = add_a(lhs, j)
                rhs = p
                for j in js:
                    rhs = tl_e(rhs, j)
                ok &= lhs == rhs
    rng = random.Random(61520)
    samples = 0
    for _ in range(10_000):
        n = rng.randint(5, 7)
        size = 2 * n
        pats = all_patterns(n)
        p = pats[rng.randrange(len(pats))]
        i, j = rng.randint(1, size), rng.randint(1, size)
        ok &= _relation_block(p, i, j, size)
        samples += 1
    report(7, "relation suites", ok, f"exhaustive n<=4 plus {samples} samples n=5..7")
    assert ok


def test_criterion_7b_conservation_suites():
    ok = True
    for n in range(1, 5):
        d, t = build_square(n, "+")
        for parity in ("plus", "minus"):
            g = glue_and_gamma(d, t, parity)
            for phi in enumerate_configs(d, t):
                psi = apply_h(phi, g)
                ok &= boundary(d, psi) == t.complemented()
                ok &= apply_h(psi, g) == phi
                ok &= pair_link_data(phi, g) == pair_link_data(psi, g)
    rng = random.Random(41214)
    domains = 0
    configs_seen = 0
    while domains < 50:
        parity = "plus" if domains % 2 == 0 else "minus"
        d, t, g = random_glueable(rng, rng.randint(6, 24), parity)
        for phi in enumerate_configs(d, t):
            psi = apply_h(phi, g)
            ok &= boundary(d, psi) == t.complemented()
            ok &= apply_h(psi, g) == phi
            ok &= pair_link_data(phi, g) == pair_link_data(psi, g)
            configs_seen += 1
        domains += 1
    report(
        7,
        "conservation suites",
        ok,
        f"squares n<=4 both parities; {domains} random domains, {configs_seen} configs",
    )
    assert ok


def test_criterion_8_generalized_gyration():
    ok = True
    details = []
    for n in range(3, 6):
        for j in range(2, (n + 1) // 2 + 1):
            d, t = shat_c_rectangle(n, j)
            plus = generalized_gyration_check(glue_and_gamma(d, t, "plus"))
            minus = generalized_gyration_check(glue_and_gamma(d, t, "minus"))
            ok &= plus.passed and minus.passed
            # the two pairings cap at the neighbouring labels the
            # underlying argument names: j and j-1
            ok &= plus.j_left == (j,) and plus.j_right == ()
            ok &= minus.j_left == (j - 1,) and minus.j_right == ()
            details.append(f"n={n},j={j}")
    rng = random.Random(33550336)
    for _ in range(15):
        _, _, g = random_glueable(rng, rng.randint(6, 16), "plus")
        ok &= generalized_gyration_check(g).passed
    report(8, "generalized gyration", ok, "; ".join(details) + "; 15 random domains")
    assert ok
