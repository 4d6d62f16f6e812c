"""Link patterns and the diagram operators acting on them.

A link pattern on 2n points is a non-crossing perfect matching of 2n
points on a circle.  Internally the matching is stored 0-based, as a
tuple ``match`` with ``match[i]`` the partner of ``i``.  The canonical
text encoding is the balanced parenthesis word of length 2n carrying
'(' at the smaller endpoint of every arc; all serialized data uses this
word, while dictionaries in memory are keyed by the patterns themselves.

Patterns are interned: there is one :class:`LinkPattern` object per
matching, validated once when it is first built, and equality and
hashing are identity.  Identity hashes differ from one process to the
next, so nothing that reaches output may depend on the order of a set
of patterns; outputs order patterns by word.

Operator indices in the public API are 1-based, matching the usual
diagram conventions:

* ``rotate(p, k)`` shifts every endpoint down by k (cyclically), so one
  application moves the pattern one step counter-clockwise.
* ``tl_e(p, j)`` caps positions j, j+1 and re-joins their former
  partners, for 1 <= j <= 2n, not reduced mod 2n; j = 2n acts between
  2n and 1 (the affine generator).
* ``close_c(p, j)`` caps positions j, j+1 and drops them, landing in
  the space one size down; ``add_a(p, j)`` inserts a fresh adjacent arc
  at (j, j+1), one size up.  These two are deliberately not affine:
  close_c takes 1 <= j <= 2n-1 and add_a takes 1 <= j <= 2n+1.

The vector forms ``apply_e``, ``apply_c`` and ``apply_a`` check j
against the vector's size, so a zero vector, which has no pattern to
check it on, refuses a bad index too.

The loop weight is fixed at 1 (the cube-root-of-unity point), so a cap
landing on an existing arc detaches a circle of weight one and the
coefficient is unchanged.

Vectors over link-pattern space (:class:`LpVector`) carry integer
coefficients; no floating point anywhere.
"""

from __future__ import annotations

import math
from functools import lru_cache
from types import MappingProxyType
from typing import Callable, Mapping

from .errors import ArityMismatch, immutable

__all__ = [
    "LinkPattern",
    "LpVector",
    "all_patterns",
    "asm_count_formula",
    "rotate",
    "reflect",
    "tl_e",
    "close_c",
    "add_a",
    "rotation_class_of",
    "apply_rotation",
    "apply_e",
    "apply_c",
    "apply_a",
    "apply_sym",
    "first_difference",
    "lp_vector_to_json",
]


def _check_match(m: tuple[int, ...]) -> None:
    """Raise ValueError unless m is a non-crossing fixed-point-free
    involution of an even number of points."""
    size = len(m)
    if size % 2:
        raise ValueError("a link pattern needs an even number of points")
    for i, j in enumerate(m):
        if not 0 <= j < size or j == i or m[j] != i:
            raise ValueError("match is not a fixed-point-free involution")
    # Non-crossing <=> the induced parenthesis word is balanced with
    # matching pairs exactly the arcs.
    stack: list[int] = []
    for i, j in enumerate(m):
        if i < j:
            stack.append(j)
        elif stack.pop() != i:
            raise ValueError("matching has crossing arcs")


# Every LinkPattern ever built, by its match tuple.  It only grows, and
# holds at most the distinct matchings a process meets: all of LP(n)
# for the sizes it works at.
_interned: dict[tuple[int, ...], "LinkPattern"] = {}


class LinkPattern:
    """A non-crossing perfect matching of 2n cyclically ordered points.

    ``match[i]`` is the 0-based partner of point i.  The empty pattern
    (n = 0) is allowed; it is the unit for ``add_a``.

    Patterns are interned: ``LinkPattern(m)`` validates a matching the
    first time it is seen and afterwards returns that same object, so
    equality and hashing are identity.  Pickling and copying rebuild
    through the constructor and so give the interned object back.
    """

    __slots__ = ("match",)
    match: tuple[int, ...]
    __setattr__ = __delattr__ = immutable

    def __new__(cls, match: tuple[int, ...]) -> "LinkPattern":
        p = _interned.get(match)
        if p is None:
            _check_match(match)
            p = object.__new__(cls)
            object.__setattr__(p, "match", match)
            # setdefault: of two threads that build one matching, both
            # get the object that was stored first
            p = _interned.setdefault(match, p)
        return p

    def __reduce__(self):
        return (LinkPattern, (self.match,))

    @property
    def n(self) -> int:
        return len(self.match) // 2

    @property
    def word(self) -> str:
        return "".join("(" if i < j else ")" for i, j in enumerate(self.match))

    @classmethod
    def from_word(cls, word: str) -> "LinkPattern":
        match = [-1] * len(word)
        stack: list[int] = []
        for i, ch in enumerate(word):
            if ch == "(":
                stack.append(i)
            elif ch == ")":
                if not stack:
                    raise ValueError(f"unbalanced word {word!r}")
                j = stack.pop()
                match[i], match[j] = j, i
            else:
                raise ValueError(f"bad character {ch!r} in word {word!r}")
        if stack:
            raise ValueError(f"unbalanced word {word!r}")
        return cls(tuple(match))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"LinkPattern({self.word!r})"


def asm_count_formula(n: int) -> int:
    """1, 2, 7, 42, 429, ... via the running-ratio form of the product."""
    if n < 1:
        raise ValueError("n must be positive")
    a = 1
    for k in range(1, n):
        a, rem = divmod(a * math.comb(3 * k + 1, k), math.comb(2 * k, k))
        if rem:
            raise AssertionError("running product left the integers")
    return a


@lru_cache(maxsize=None)
def all_patterns(n: int) -> tuple[LinkPattern, ...]:
    """All of LP(n), sorted lexicographically by parenthesis word.

    '(' < ')' in ASCII, so lexicographic order on words starts at the
    fully nested pattern and ends at the serial-arcs one; the recursion
    tries '(' before ')' at every position, so it emits the words in
    that order.
    """
    words: list[str] = []

    def grow(prefix: list[str], open_count: int, closed: int) -> None:
        if len(prefix) == 2 * n:
            words.append("".join(prefix))
            return
        if open_count < n:
            prefix.append("(")
            grow(prefix, open_count + 1, closed)
            prefix.pop()
        if open_count - closed > 0:
            prefix.append(")")
            grow(prefix, open_count, closed + 1)
            prefix.pop()

    grow([], 0, 0)
    return tuple(LinkPattern.from_word(w) for w in words)


def rotate(p: LinkPattern, k: int = 1) -> LinkPattern:
    """R^k: send every arc (i, j) to (i-k, j-k), indices mod 2n."""
    size = len(p.match)
    if size == 0:
        return p
    k %= size
    m = p.match
    return LinkPattern(tuple((m[(i + k) % size] - k) % size for i in range(size)))


def reflect(p: LinkPattern) -> LinkPattern:
    """The mirror image i -> 2n-1-i (0-based).  It maps e_j to e_{2n-j},
    fixes e_2n and inverts R, so it commutes with H."""
    last = len(p.match) - 1
    return LinkPattern(tuple(last - j for j in reversed(p.match)))


def tl_e(p: LinkPattern, j: int) -> LinkPattern:
    """The Temperley-Lieb generator e_j, 1 <= j <= 2n; e_2n joins 2n
    to 1 (the affine generator).  j is not reduced mod 2n.

    If (j, j+1) is already an arc the pattern is fixed; otherwise j is
    joined to j+1 and their former partners to each other.
    """
    size = len(p.match)
    if not 1 <= j <= size:
        raise ArityMismatch(f"e index {j} out of range for 2n={size}")
    a = j - 1
    b = j % size
    m = list(p.match)
    if m[a] == b:
        return p
    pa, pb = m[a], m[b]
    m[a], m[b] = b, a
    m[pa], m[pb] = pb, pa
    return LinkPattern(tuple(m))


def close_c(p: LinkPattern, j: int) -> LinkPattern:
    """Cap positions j, j+1 (1 <= j <= 2n-1) and relabel down to LP(n-1).

    If j and j+1 are partners the cap detaches a closed circle, which
    carries weight one here and is simply dropped.
    """
    size = len(p.match)
    if not 1 <= j <= size - 1:
        raise ArityMismatch(f"close_c index {j} out of range for 2n={size}")
    a, b = j - 1, j
    m = list(p.match)
    pa, pb = m[a], m[b]
    if pa != b:
        # join the former partners of j and j+1
        m[pa], m[pb] = pb, pa
    # drop positions a and b; no remaining point is partnered with
    # either, and the points after them move down by two
    del m[a : b + 1]
    return LinkPattern(tuple(q if q < a else q - 2 for q in m))


def add_a(p: LinkPattern, j: int) -> LinkPattern:
    """Insert a new adjacent arc at positions (j, j+1), 1 <= j <= 2n+1."""
    size = len(p.match)
    if not 1 <= j <= size + 1:
        raise ArityMismatch(f"add_a index {j} out of range for 2n={size}")
    # the points from j on move up by two, past the new arc
    shift = tuple(q + 2 if q >= j - 1 else q for q in p.match)
    return LinkPattern(shift[: j - 1] + (j, j - 1) + shift[j - 1 :])


@lru_cache(maxsize=None)
def rotation_class_of(p: LinkPattern) -> LinkPattern:
    """The word-least of p's 2n rotations, the representative of its
    rotation class.  Patterns are interned, so the cache holds each
    pattern it meets once, at most LP(n) at each size."""
    return min((rotate(p, k) for k in range(2 * p.n)), key=lambda q: q.word, default=p)


# ---------------------------------------------------------------------------
# Integer vectors over link-pattern space


def _exact(x) -> int:
    """An integer coefficient: ints stay ints, int subclasses (bool)
    become plain ints, and anything else is refused."""
    if type(x) is int:
        return x
    if isinstance(x, int):
        return int(x)
    raise TypeError(f"coefficients must be integers, got {type(x)!r}")


class LpVector:
    """A sparse integer vector indexed by link patterns of one size.

    Coefficients are ints.  Zero coefficients are dropped at
    construction, so two vectors are equal when their sizes and entries
    are; the vector and its entries are read-only, since cached vectors
    are shared by every caller, and it is not hashable.
    """

    __slots__ = ("n", "entries")
    n: int
    entries: Mapping[LinkPattern, int]
    __setattr__ = __delattr__ = immutable

    def __init__(self, n: int, entries: Mapping[LinkPattern, int]) -> None:
        if n < 0:
            raise ArityMismatch(f"vector size {n} is negative")
        clean: dict[LinkPattern, int] = {}
        for p, coeff in entries.items():
            if p.n != n:
                raise ArityMismatch(f"pattern on 2n={2 * p.n} points in a size-{n} vector")
            value = _exact(coeff)
            if value:
                clean[p] = value
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "entries", MappingProxyType(clean))

    def __reduce__(self):
        return (LpVector, (self.n, dict(self.entries)))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"LpVector(n={self.n!r}, entries={self.entries!r})"

    def __add__(self, other: "LpVector") -> "LpVector":
        if self.n != other.n:
            raise ArityMismatch("vector sizes differ")
        out = dict(self.entries)
        for p, coeff in other.entries.items():
            out[p] = out.get(p, 0) + coeff
        return LpVector(self.n, out)

    def __sub__(self, other: "LpVector") -> "LpVector":
        return self + (-1) * other

    def __rmul__(self, scalar) -> "LpVector":
        s = _exact(scalar)
        return LpVector(self.n, {p: s * c for p, c in self.entries.items()})

    def __eq__(self, other) -> bool:
        if not isinstance(other, LpVector):
            return NotImplemented
        return self.n == other.n and self.entries == other.entries

    def is_zero(self) -> bool:
        return not self.entries

    def coeff(self, p: LinkPattern) -> int:
        return self.entries.get(p, 0)

    def total(self) -> int:
        return sum(self.entries.values(), 0)

    def map_patterns(self, f: Callable[[LinkPattern], LinkPattern], n_out: int) -> "LpVector":
        out: dict[LinkPattern, int] = {}
        for p, coeff in self.entries.items():
            q = f(p)
            out[q] = out.get(q, 0) + coeff
        return LpVector(n_out, out)

    @classmethod
    def zero(cls, n: int) -> "LpVector":
        return cls(n, {})


def first_difference(lhs: LpVector, rhs: LpVector) -> str:
    """A witness that two unequal vectors differ: the word-least pattern
    whose coefficients disagree, or "sizes differ" when none does."""
    for p in sorted(set(lhs.entries) | set(rhs.entries), key=lambda p: p.word):
        if lhs.coeff(p) != rhs.coeff(p):
            return f"{p.word}: {lhs.coeff(p)} != {rhs.coeff(p)}"
    return "sizes differ"


def apply_rotation(v: LpVector, k: int = 1) -> LpVector:
    return v.map_patterns(lambda p: rotate(p, k), v.n)


def apply_e(v: LpVector, j: int) -> LpVector:
    if not 1 <= j <= 2 * v.n:
        raise ArityMismatch(f"e index {j} out of range for n={v.n}")
    return v.map_patterns(lambda p: tl_e(p, j), v.n)


def apply_c(v: LpVector, j: int) -> LpVector:
    if not 1 <= j <= 2 * v.n - 1:
        raise ArityMismatch(f"c index {j} out of range for n={v.n}")
    return v.map_patterns(lambda p: close_c(p, j), v.n - 1)


def apply_a(v: LpVector, j: int) -> LpVector:
    if not 1 <= j <= 2 * v.n + 1:
        raise ArityMismatch(f"a index {j} out of range for n={v.n}")
    return v.map_patterns(lambda p: add_a(p, j), v.n + 1)


def apply_sym(v: LpVector) -> LpVector:
    """Sym = sum of all 2n rotation powers; absorbs R on either side."""
    out = LpVector.zero(v.n)
    for k in range(2 * v.n):
        out = out + apply_rotation(v, k)
    return out


def lp_vector_to_json(v: LpVector) -> dict:
    entries = {w: str(c) for w, c in sorted((p.word, c) for p, c in v.entries.items())}
    return {"n": v.n, "entries": entries}
