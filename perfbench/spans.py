"""In-memory span tracing of zpwalk's layers, installed from outside.

The package itself is not instrumented.  `Tracer.install` replaces each
traced public function with a wrapper in every zpwalk module that
imported it (``selftest.orbit_bfs`` and ``synthesis.orbit_bfs`` as well
as ``dynamics.orbit_bfs``), so calls made inside the package are seen
too.  A wrapper records one span ``(name, start, end, parent)``; a few
functions only bump counters, because they are called millions of times.

A span's self time is its duration minus the time its direct children
cover.  Spans are kept in memory and written out by `Tracer.dump`.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time

#: layers are the package's modules
LAYERS = (
    "zp_algebra",
    "hypergraph",
    "dynamics",
    "decision",
    "synthesis",
    "generate",
    "selftest",
    "cli",
)

#: (layer, function) pairs that get a span
SPANNED = (
    ("zp_algebra", "gaussian_solve"),
    ("zp_algebra", "system_norm"),
    ("hypergraph", "is_good"),
    ("hypergraph", "parse_hypergraph"),
    ("dynamics", "has_predecessor"),
    ("dynamics", "orbit_bfs"),
    ("dynamics", "oracle_recurrent"),
    ("dynamics", "replay_schedule"),
    ("decision", "build_system"),
    ("decision", "decide_reachability"),
    ("decision", "decide_recurrence"),
    ("decision", "classify_state"),
    ("decision", "necessity_filter"),
    ("synthesis", "synthesize_schedule"),
    ("generate", "gen_good_hypergraph"),
    ("selftest", "run_selftest"),
    ("cli", "main"),
)

#: (layer, function) pairs that are only counted
COUNTED = (("dynamics", "apply_move"),)

#: generators whose yields are counted
YIELD_COUNTED = (("zp_algebra", "enumerate_solutions"),)


class Tracer:
    """Spans and counters for one traced run; not thread-safe."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # one row per span: [name id, start ns, end ns, parent index, child ns]
        self.spans: list[list[int]] = []
        self.counters: dict[str, int] = {}
        self._stack: list[int] = []
        self._paused = 0
        # set by install() from the traced package
        self.errors = None
        self.default_max_states = None

    # -- recording ---------------------------------------------------------

    def count(self, key: str, amount: int = 1) -> None:
        if not self._paused:
            self.counters[key] = self.counters.get(key, 0) + amount

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside (the benchmark's own checks) are not traced."""
        self._paused += 1
        try:
            yield
        finally:
            self._paused -= 1

    @contextlib.contextmanager
    def span(self, name: str):
        if self._paused:
            yield
            return
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        row = [name_id, time.perf_counter_ns(), 0, parent, 0]
        self.spans.append(row)
        self._stack.append(index)
        try:
            yield
        finally:
            row[2] = time.perf_counter_ns()
            self._stack.pop()
            if parent >= 0:
                self.spans[parent][4] += row[2] - row[1]

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Wrap the traced functions at every zpwalk import site."""
        modules = {name: mod for name, mod in list(sys.modules.items())
                   if name == "zpwalk" or name.startswith("zpwalk.")}
        self.errors = modules["zpwalk.errors"]
        self.default_max_states = modules["zpwalk.dynamics"].DEFAULT_MAX_STATES
        originals = {}
        for layer, fn in SPANNED + COUNTED + YIELD_COUNTED:
            originals[getattr(modules[f"zpwalk.{layer}"], fn)] = (layer, fn)
        for mod_name, mod in modules.items():
            site = mod_name.rsplit(".", 1)[-1]
            for attr, value in list(vars(mod).items()):
                key = originals.get(value) if callable(value) else None
                if key is not None:
                    setattr(mod, attr, self._wrap(value, key, site))

    def _wrap(self, fn, key: tuple[str, str], site: str):
        layer, name = key
        full = f"{layer}.{name}"
        if key in COUNTED:
            calls = f"{full}.calls"

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                # inlined count(): this runs millions of times per sweep
                if not self._paused:
                    self.counters[calls] = self.counters.get(calls, 0) + 1
                return fn(*args, **kwargs)

            return counted
        if key in YIELD_COUNTED:
            yielded = f"{full}.yielded"

            @functools.wraps(fn)
            def counting_generator(*args, **kwargs):
                for item in fn(*args, **kwargs):
                    self.count(yielded)
                    yield item

            return counting_generator
        extra = _EXTRAS.get(key)

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            with self.span(full):
                if extra is None:
                    return fn(*args, **kwargs)
                return extra(self, site, fn, args, kwargs)

        return spanned

    # -- results -------------------------------------------------------------

    def aggregate(self) -> dict[str, dict[str, dict[str, float]]]:
        """Per root span name, then per span name: calls, total ms, self ms.

        The root is the outermost span around a span, so the benchmark's
        phase spans (set-up, one job) separate the work of each phase.
        """
        out: dict[str, dict[str, dict[str, float]]] = {}
        roots: list[int] = []
        for index, (name_id, start, end, parent, child) in enumerate(self.spans):
            root = index if parent < 0 else roots[parent]
            roots.append(root)
            per_root = out.setdefault(self.names[self.spans[root][0]], {})
            entry = per_root.setdefault(self.names[name_id],
                                        {"calls": 0, "ms": 0.0, "self_ms": 0.0})
            entry["calls"] += 1
            entry["ms"] += (end - start) / 1e6
            entry["self_ms"] += (end - start - child) / 1e6
        return out

    def dump(self, path: str) -> None:
        """Write every span as one JSON line: name, start/end ns, parent index."""
        with open(path, "w", encoding="utf-8") as fh:
            for name_id, start, end, parent, _child in self.spans:
                fh.write(json.dumps([self.names[name_id], start, end, parent]) + "\n")
            fh.write(json.dumps({"counters": self.counters}) + "\n")


def _gaussian_solve(tracer, site, fn, args, kwargs):
    system = args[0] if args else kwargs["system"]
    tracer.count("zp_algebra.gaussian_solve.cells", len(system.rows) * system.ncols)
    return fn(*args, **kwargs)


def _orbit_bfs(tracer, site, fn, args, kwargs):
    try:
        orbit = fn(*args, **kwargs)
    except tracer.errors.StateSpaceTooLarge:
        # the search expanded its whole budget before refusing
        budget = kwargs.get("max_states", args[3] if len(args) > 3 else None)
        _count_states(tracer, site, budget or tracer.default_max_states)
        raise
    _count_states(tracer, site, len(orbit))
    return orbit


def _count_states(tracer, site, states: int) -> None:
    tracer.count("dynamics.orbit_bfs.states", states)
    if site == "synthesis":
        tracer.count("synthesis.orbit_bfs.calls")
        tracer.count("synthesis.orbit_bfs.states", states)


def _synthesize_schedule(tracer, site, fn, args, kwargs):
    try:
        schedule = fn(*args, **kwargs)
    except tracer.errors.SynthesisIncomplete:
        tracer.count("synthesis.incomplete")
        raise
    tracer.count("synthesis.schedule_moves", len(schedule))
    return schedule


_EXTRAS = {
    ("zp_algebra", "gaussian_solve"): _gaussian_solve,
    ("dynamics", "orbit_bfs"): _orbit_bfs,
    ("synthesis", "synthesize_schedule"): _synthesize_schedule,
}


def paused(tracer: Tracer | None):
    """Context in which calls are not traced; a no-op without a tracer."""
    return tracer.paused() if tracer is not None else contextlib.nullcontext()
