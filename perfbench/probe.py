"""One benchmark operation, run in a fresh interpreter.

    python3 perfbench/probe.py count --n 7 --jobs 2
    python3 perfbench/probe.py certificate --n 8
    python3 perfbench/probe.py prefix-leaves --n 7 --prefixes FILE
    python3 perfbench/probe.py --spans FILE cli enumerate --n 6
    python3 perfbench/probe.py --spans FILE --pre identities.s_vector=6 cli verify identities --n-max 6

``count`` and ``certificate`` are the library calls the CLI has no
command for; they print their result on stdout.  ``cli`` runs
``fplrs.cli.main`` on the remaining arguments.  ``prefix-leaves``
counts the leaves under each decision prefix listed in FILE (a JSON
list written by a traced ``count`` run); it is bookkeeping, not a
timed operation.

With ``--spans FILE`` the public functions of every layer module are
wrapped before the operation runs, and the calling-context tree of the
calls is written to FILE as JSON when the operation ends.  Repeated
calls of one function under the same parent share one span, which
carries the number of calls, the summed duration and the first start
and last end.  The wrapping happens from outside: the package's code
is not changed, only the module attributes that name its functions.
``--pre LAYER.FUNCTION=N`` makes a public call before the operation,
so that work the operation would do lazily (the identity census) is
timed as its own span.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import json
import sys
import time
from pathlib import Path

LAYERS = ("lattice", "fplcore", "linkpat", "gyration", "groundstate", "identities", "cli")

class Span:
    """All calls of one function under one parent span."""

    __slots__ = ("id", "name", "parent", "start", "end", "total", "calls", "items")

    def __init__(self, sid: int, name: str, parent: int | None):
        self.id = sid
        self.name = name
        self.parent = parent
        self.start = None
        self.end = None
        self.total = 0.0
        self.calls = 0
        self.items = 0

    def add(self, t0: float, t1: float) -> None:
        if self.start is None:
            self.start = t0
        self.end = t1
        self.total += t1 - t0

    def to_json(self) -> dict:
        return {k: getattr(self, k) for k in self.__slots__}


class Tracer:
    """Calling-context tree of wrapped calls, kept in memory."""

    def __init__(self):
        self.spans: list[Span] = []
        self._index: dict[tuple[int | None, str], Span] = {}
        self._stack: list[Span] = []
        self.counters: dict[str, list] = {}

    def span(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        key = (parent, name)
        span = self._index.get(key)
        if span is None:
            span = self._index[key] = Span(len(self.spans), name, parent)
            self.spans.append(span)
        return span

    def timed(self, name: str, fn, *args, **kwargs):
        span = self.span(name)
        span.calls += 1
        self._stack.append(span)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span.add(t0, time.perf_counter())
            self._stack.pop()

    def drive(self, span: Span, inner):
        """Re-yield a generator, booking the time spent inside it on span."""
        while True:
            self._stack.append(span)
            t0 = time.perf_counter()
            try:
                item = next(inner)
            except StopIteration:
                return
            finally:
                span.add(t0, time.perf_counter())
                self._stack.pop()
            span.items += 1
            yield item

    def record(self, name: str, value) -> None:
        self.counters.setdefault(name, []).append(value)

    def wrap(self, name: str, fn):
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                span = self.span(name)
                span.calls += 1
                return self.drive(span, fn(*args, **kwargs))

            return gen_wrapper
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = self.timed(name, fn, *args, **kwargs)
            if count is not None:
                count(self, result)
            return result

        return wrapper


def _count_split(tracer: Tracer, result) -> None:
    done, prefixes = result
    tracer.record("fplcore.split_prefixes", len(prefixes))
    tracer.record("fplcore.split_done", len(done))
    tracer.record("fplcore.prefix_list", [list(map(list, p)) for p in prefixes])


# What a wrapped call's result says about the work done, by span name.
COUNTERS = {
    "fplcore.count_configs": lambda tr, r: tr.record("fplcore.leaves", r),
    "fplcore.split_prefixes": _count_split,
    "groundstate.build_h_matrix": lambda tr, r: tr.record("groundstate.matrix_size", len(r.basis)),
    "gyration.orbit_partition": lambda tr, r: tr.record("gyration.orbits", len(r)),
    "cli.Cache.get": lambda tr, r: tr.record("cli.cache_hits" if r is not None else "cli.cache_misses", 1),
}


def _public_functions(mod):
    names = getattr(mod, "__all__", None) or [n for n in vars(mod) if not n.startswith("_")]
    for attr in names:
        obj = getattr(mod, attr)
        if callable(obj) and not inspect.isclass(obj) and getattr(obj, "__module__", None) == mod.__name__:
            yield attr, obj


def install(tracer: Tracer) -> None:
    """Replace every public layer function, wherever the package names it."""
    modules = [m for name, m in sys.modules.items() if name == "fplrs" or name.startswith("fplrs.")]
    for layer in LAYERS:
        mod = sys.modules[f"fplrs.{layer}"]
        for attr, fn in _public_functions(mod):
            wrapped = tracer.wrap(f"{layer}.{attr}", fn)
            for owner in modules:
                for key, value in list(vars(owner).items()):
                    if value is fn:
                        setattr(owner, key, wrapped)
    cache = sys.modules["fplrs.cli"].Cache
    for method in ("get", "put"):
        setattr(cache, method, tracer.wrap(f"cli.Cache.{method}", getattr(cache, method)))


def _square(n: int):
    from fplrs.lattice import build_square

    return build_square(n, "+")


def run_count(args) -> int:
    from fplrs.fplcore import count_configs

    d, t = _square(args.n)
    print(count_configs(d, t, jobs=args.jobs))
    return 0


def run_certificate(args) -> int:
    from fplrs.groundstate import kernel_dimension_certificate

    print(kernel_dimension_certificate(args.n))
    return 0


def run_prefix_leaves(args) -> int:
    from fplrs.fplcore import enumerate_configs

    d, t = _square(args.n)
    prefixes = json.loads(Path(args.prefixes).read_text())
    leaves = [sum(1 for _ in enumerate_configs(d, t, [tuple(x) for x in p])) for p in prefixes]
    print(json.dumps(leaves))
    return 0


def run_cli(args) -> int:
    from fplrs import cli

    return cli.main(args.argv)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="probe.py")
    parser.add_argument("--spans", help="trace the operation into this JSON file")
    parser.add_argument("--pre", action="append", default=[],
                        help="LAYER.FUNCTION=N: public call made first, traced")
    sub = parser.add_subparsers(dest="op", required=True)
    p = sub.add_parser("count")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=run_count)
    p = sub.add_parser("certificate")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=run_certificate)
    p = sub.add_parser("prefix-leaves")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--prefixes", required=True)
    p.set_defaults(func=run_prefix_leaves)
    p = sub.add_parser("cli")
    p.add_argument("argv", nargs=argparse.REMAINDER)
    p.set_defaults(func=run_cli)
    args = parser.parse_args(argv)

    if not args.spans:
        return args.func(args)
    tracer = Tracer()
    # The import pulls in every layer; it is booked on cli, whose import does it.
    tracer.timed("cli.import", __import__, "fplrs.cli")
    install(tracer)
    try:
        for pre in args.pre:
            name, _, size = pre.partition("=")
            layer, _, attr = name.partition(".")
            getattr(sys.modules[f"fplrs.{layer}"], attr)(int(size))
        return args.func(args)
    finally:
        Path(args.spans).write_text(json.dumps({
            "spans": [s.to_json() for s in tracer.spans],
            "counters": tracer.counters,
            "wrapper_cost": wrapper_cost(),
        }))


def wrapper_cost(batch: int = 5000) -> float:
    """Seconds a wrapper adds to one call: the least over a few batches
    of a wrapped empty function against the bare one."""
    def noop():
        pass

    wrapped = Tracer().wrap("calibrate", noop)
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        for _ in range(batch):
            wrapped()
        t1 = time.perf_counter()
        for _ in range(batch):
            noop()
        t2 = time.perf_counter()
        best = min(best, ((t1 - t0) - (t2 - t1)) / batch)
    return max(best, 0.0)


if __name__ == "__main__":
    sys.exit(main())
