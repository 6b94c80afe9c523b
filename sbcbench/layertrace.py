"""Outside-in layer tracer.

The program has no spans of its own in this benchmark: the tracer wraps
the public functions of each layer from outside, at every module that
imported them by name (``from ..kernels.active import k_core_active_mask``
binds the function into ``core.mbc_star``, ``core.pf``,
``dichromatic.mdc`` and others, so a wrapper at the defining module alone
would miss those calls).  Class methods are wrapped on their class.

A span is a :class:`Frame`.  The open frame lives in a context variable,
so frames opened on an asyncio task or, through :func:`copy_executor_context`,
on an executor thread nest under the frame that caused them.  A frame's
self time is its duration minus the union of its children's intervals.
Totals are kept in memory per (layer, request class) and read once at
the end of a run.
"""

from __future__ import annotations

import asyncio
import contextvars
import functools
import importlib
import inspect
import sys
import threading
import weakref
from time import perf_counter

_CURRENT = contextvars.ContextVar("sbcbench_frame", default=None)

#: (module, attribute path, layer).  A missing module or attribute is
#: skipped and listed in :attr:`LayerTracer.unresolved`, so a later change
#: that deletes one of several functions of a layer needs no edit here; a
#: run in which none of a layer's targets resolve is refused.
FUNCTIONS = [
    ("repro.core.reductions", "vertex_reduction", "reductions.vertex"),
    ("repro.core.reductions", "edge_reduction", "reductions.vertex"),
    ("repro.core.reductions", "edge_reduction_fast", "reductions.vertex"),
    ("repro.core.reductions", "polar_core_numbers", "reductions.polar"),
    ("repro.core.reductions", "polarization_order", "reductions.polar"),
    ("repro.core.reductions", "polarization_upper_bound",
     "reductions.polar"),
    ("repro.core.reductions", "polar_core_vertices", "reductions.polar"),
    ("repro.core.heuristic", "mbc_heuristic", "heuristic"),
    ("repro.kernels.active", "k_core_active_mask", "kernels.core"),
    ("repro.kernels.active", "degeneracy_ordering_mask",
     "kernels.ordering"),
    ("repro.kernels.active", "coloring_upper_bound_active_mask",
     "kernels.color"),
    ("repro.kernels.active", "bicore_active_mask", "kernels.bicore"),
    ("repro.dichromatic.cores", "k_core_active", "kernels.core"),
    ("repro.dichromatic.cores", "bicore_active", "kernels.bicore"),
    ("repro.dichromatic.cores", "coloring_upper_bound_active",
     "kernels.color"),
    ("repro.unsigned.cores", "k_core_subset", "kernels.core"),
    ("repro.unsigned.ordering", "degeneracy_ordering", "kernels.ordering"),
    ("repro.unsigned.coloring", "coloring_upper_bound", "kernels.color"),
    ("repro.dichromatic.build", "build_dichromatic_network",
     "dichromatic.build"),
    ("repro.dichromatic.build", "build_dichromatic_network_bits",
     "dichromatic.build"),
    ("repro.dichromatic.build", "dichromatic_network_from_masks",
     "dichromatic.build"),
    ("repro.dichromatic.mdc", "solve_mdc", "dichromatic.mdc"),
    ("repro.dichromatic.dcc", "dichromatic_clique_witness",
     "dichromatic.dcc"),
    ("repro.dichromatic.dcc", "dichromatic_clique_check",
     "dichromatic.dcc"),
    ("repro.core.mbc_star", "mbc_star", "core"),
    ("repro.core.pf", "pf_star", "core"),
    ("repro.core.pf", "pf_enumeration", "core"),
    ("repro.core.pf", "pf_binary_search", "core"),
    ("repro.serve.protocol", "parse_json_body", "serve.parse"),
    ("repro.serve.protocol", "parse_solve_request", "serve.parse"),
    ("repro.serve.protocol", "parse_edits_request", "serve.parse"),
    ("repro.serve.protocol", "parse_register_request", "serve.parse"),
    ("repro.serve.protocol", "graph_from_inline", "serve.parse"),
]

METHODS = [
    ("repro.signed.graph", "SignedGraph.pos_adjacency_bits",
     "signed.masks"),
    ("repro.signed.graph", "SignedGraph.neg_adjacency_bits",
     "signed.masks"),
    ("repro.signed.graph", "SignedGraph.fingerprint", "signed.fingerprint"),
    ("repro.signed.graph", "SignedGraph.subgraph", "signed.subgraph"),
    ("repro.dynamic.solver", "DynamicSolver.add_edge", "dynamic.edit"),
    ("repro.dynamic.solver", "DynamicSolver.remove_edge", "dynamic.edit"),
    ("repro.dynamic.solver", "DynamicSolver.flip_sign", "dynamic.edit"),
    ("repro.dynamic.solver", "DynamicSolver.solve", "dynamic.solve"),
    ("repro.dynamic.solver", "DynamicSolver.beta", "dynamic.beta"),
    ("repro.serve.service", "SolverService.resolve_graph", "serve.resolve"),
    ("repro.serve.service", "SolverService.execute", "serve.execute"),
    ("repro.serve.service", "SolverService.apply_script", "serve.edits"),
    ("repro.serve.service", "SolverService.cache_key", "serve.cache"),
    ("repro.serve.cache", "ResultCache.get", "serve.cache"),
    ("repro.serve.cache", "ResultCache.put", "serve.cache"),
    ("repro.serve.app", "ServeApp._dispatch", "serve.request"),
]

#: Lazily cached getters: only the call that builds the cache is a span,
#: which keeps the per-ego cache hits out of the trace.  A renamed cache
#: attribute reads as "not cached" and every call is timed instead.
CACHE_ATTRS = {
    "SignedGraph.pos_adjacency_bits": "_pos_bits",
    "SignedGraph.neg_adjacency_bits": "_neg_bits",
    "SignedGraph.fingerprint": "_fingerprint",
}

#: Root spans: the benchmark's operation and the server's request.
ROOT_LAYERS = ("op", "serve.request")


class Frame:
    """One open span."""

    __slots__ = ("layer", "parent", "cls", "covered", "lo", "hi",
                 "mdc", "builds", "heuristic")

    def __init__(self, layer, parent, cls):
        self.layer = layer
        self.parent = parent
        self.cls = cls
        self.covered = 0.0
        self.lo = 0.0
        self.hi = 0.0
        self.mdc = 0
        self.builds = 0
        self.heuristic = None

    def add_child(self, start, end):
        """Merge a closed child interval into the covered union."""
        if start >= self.hi:
            self.covered += self.hi - self.lo
            self.lo, self.hi = start, end
        else:
            self.lo = min(self.lo, start)
            self.hi = max(self.hi, end)

    def child_time(self):
        return self.covered + self.hi - self.lo

    def nearest(self, layer):
        frame = self
        while frame is not None and frame.layer != layer:
            frame = frame.parent
        return frame


def classify_request(path, body):
    """The load generator's request class, read from the request."""
    if path.endswith("/edits") or b'"graph:' in body:
        return "resident"
    if b'"dataset:' in body:
        return "hit"
    return "cold"


class LayerTracer:
    """Installs the wrappers and accumulates per-layer totals."""

    def __init__(self):
        self.lock = threading.Lock()
        #: (layer, class) -> [calls, total seconds, self seconds]
        self.totals = {}
        self.counts = {}
        self._patches = []
        self._pending = {}
        self._planned = False
        self._stats_cls = None
        #: Targets that did not resolve, as ``module:attribute``.
        self.unresolved = []

    # -- accounting -----------------------------------------------------

    def count(self, name, n=1):
        with self.lock:
            self.counts[name] = self.counts.get(name, 0) + n

    def _close(self, frame, start, end):
        duration = end - start
        own = duration - frame.child_time()
        key = (frame.layer, frame.cls)
        with self.lock:
            record = self.totals.get(key)
            if record is None:
                record = self.totals[key] = [0, 0.0, 0.0]
            record[0] += 1
            record[1] += duration
            record[2] += own if own > 0.0 else 0.0
        parent = frame.parent
        if parent is not None:
            parent.add_child(start, end)

    def calls(self, layer, cls=None):
        return sum(r[0] for (name, c), r in self.totals.items()
                   if name == layer and (cls is None or c == cls))

    def total_s(self, layer, cls=None, own=True):
        index = 2 if own else 1
        return sum(r[index] for (name, c), r in self.totals.items()
                   if name == layer and (cls is None or c == cls))

    def missing_layers(self):
        """Layers none of whose targets resolved: they would read 0."""
        targets = FUNCTIONS + METHODS
        lost = set(self.unresolved)
        layers = {layer for _, _, layer in targets}
        return sorted(layer for layer in layers
                      if all(f"{m}:{a}" in lost
                             for m, a, l in targets if l == layer))

    def coverage(self):
        """Share of root-span time that layer spans account for."""
        total = sum(self.total_s(name, own=False) for name in ROOT_LAYERS)
        own = sum(self.total_s(name) for name in ROOT_LAYERS)
        return 1.0 - own / total if total > 0 else 0.0

    # -- spans ----------------------------------------------------------

    def op(self, cls=None):
        """Context manager for one end-to-end operation (the root)."""
        return _OpSpan(self, cls)

    def _wrap(self, fn, layer, qualname):
        tracer = self
        hook = _HOOKS.get(qualname, _HOOKS.get(layer))
        cache_attr = CACHE_ATTRS.get(qualname)
        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                parent = _CURRENT.get()
                cls = parent.cls if parent is not None else None
                if layer == "serve.request":
                    cls = classify_request(args[2], args[3])
                frame = Frame(layer, parent, cls)
                token = _CURRENT.set(frame)
                start = perf_counter()
                try:
                    return await fn(*args, **kwargs)
                finally:
                    end = perf_counter()
                    _CURRENT.reset(token)
                    tracer._close(frame, start, end)
            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            # The span opens before and closes after the wrapper's own
            # bookkeeping, so tracing cost lands on the traced call, not
            # on its caller's self time.
            start = perf_counter()
            parent = _CURRENT.get()
            if parent is not None and parent.layer == layer:
                return fn(*args, **kwargs)
            if cache_attr is not None and \
                    getattr(args[0], cache_attr, None) is not None:
                return fn(*args, **kwargs)
            frame = Frame(layer, parent,
                          parent.cls if parent is not None else None)
            token = _CURRENT.set(frame)
            state = None
            if hook is not None:
                args, kwargs, state = hook.before(tracer, frame, fn,
                                                  args, kwargs)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                _CURRENT.reset(token)
                tracer._close(frame, start, perf_counter())
                raise
            _CURRENT.reset(token)
            if hook is not None:
                hook.after(tracer, frame, args, kwargs, state, result)
            tracer._close(frame, start, perf_counter())
            return result
        return wrapper

    # -- install / uninstall --------------------------------------------

    def _plan(self):
        """Resolve every target and every module binding of it once."""
        if self._planned:
            return
        self._planned = True
        try:
            self._stats_cls = importlib.import_module(
                "repro.core.stats").SearchStats
        except (ImportError, AttributeError):
            self._stats_cls = None
        modules = [m for name, m in list(sys.modules.items())
                   if name.startswith("repro") and m is not None]
        for module_name, attr, layer in FUNCTIONS:
            original = _resolve(module_name, attr)
            if original is None:
                self.unresolved.append(f"{module_name}:{attr}")
                continue
            wrapper = self._wrap(original, layer, attr)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append(
                            (module, name, original, wrapper))
        for module_name, attr, layer in METHODS:
            cls_name, _, method = attr.partition(".")
            owner = _resolve(module_name, cls_name)
            if owner is None or method not in vars(owner):
                self.unresolved.append(f"{module_name}:{attr}")
                continue
            original = vars(owner)[method]
            if isinstance(original, staticmethod):
                wrapper = staticmethod(
                    self._wrap(original.__func__, layer, attr))
            else:
                wrapper = self._wrap(original, layer, attr)
            self._patches.append((owner, method, original, wrapper))

    def install(self):
        """Swap every wrapper in (imports the program's modules first)."""
        for module_name in {m for m, _, _ in FUNCTIONS + METHODS}:
            try:
                importlib.import_module(module_name)
            except ImportError:
                continue
        self._plan()
        for owner, name, _original, wrapper in self._patches:
            setattr(owner, name, wrapper)

    def uninstall(self):
        for owner, name, original, _wrapper in self._patches:
            setattr(owner, name, original)

    # -- network usefulness ---------------------------------------------

    def note_built(self, network):
        if network is not None:
            with self.lock:
                self._pending[id(network)] = weakref.ref(network)

    def note_used(self, network):
        with self.lock:
            ref = self._pending.pop(id(network), None)
        if ref is not None and ref() is network:
            self.count("build.useful")


class _OpSpan:
    def __init__(self, tracer, cls):
        self.tracer = tracer
        self.frame = Frame("op", _CURRENT.get(), cls)

    def __enter__(self):
        self.token = _CURRENT.set(self.frame)
        self.start = perf_counter()
        return self.frame

    def __exit__(self, *exc):
        end = perf_counter()
        _CURRENT.reset(self.token)
        self.tracer._close(self.frame, self.start, end)
        self.tracer._pending.clear()
        return False


def _resolve(module_name, attr):
    try:
        obj = importlib.import_module(module_name)
    except ImportError:
        return None
    for part in attr.split("."):
        obj = getattr(obj, part, None)
        if obj is None:
            return None
    return obj


# -- layer hooks ---------------------------------------------------------


class _Hook:
    def before(self, tracer, frame, fn, args, kwargs):
        return args, kwargs, None

    def after(self, tracer, frame, args, kwargs, state, result):
        pass


class _SearchHook(_Hook):
    """MDC / DCC: node counts through an injected ``SearchStats``,
    outcome counts, and which built networks reached a search."""

    def __init__(self, prefix):
        self.prefix = prefix

    def before(self, tracer, frame, fn, args, kwargs):
        stats = None
        position = _stats_position(fn)
        if position is not None and tracer._stats_cls is not None:
            if len(args) > position:
                stats = args[position]
            else:
                stats = kwargs.get("stats")
                if stats is None:
                    stats = tracer._stats_cls()
                    kwargs = dict(kwargs, stats=stats)
        before = stats.nodes if stats is not None else 0
        dynamic = frame.nearest("dynamic.solve")
        if dynamic is not None and self.prefix == "mdc":
            dynamic.mdc += 1
        tracer.note_used(args[0])
        return args, kwargs, (stats, before)

    def after(self, tracer, frame, args, kwargs, state, result):
        stats, before = state
        if stats is not None:
            tracer.count(self.prefix + ".nodes", stats.nodes - before)
        if result is not None and result is not False:
            tracer.count(self.prefix + ".found")


class _BuildHook(_Hook):
    def before(self, tracer, frame, fn, args, kwargs):
        dynamic = frame.nearest("dynamic.solve")
        if dynamic is not None:
            dynamic.builds += 1
        return args, kwargs, None

    def after(self, tracer, frame, args, kwargs, state, result):
        tracer.note_built(result)


class _HeuristicHook(_Hook):
    def after(self, tracer, frame, args, kwargs, state, result):
        core = frame.nearest("core")
        if core is not None and core.heuristic is None:
            core.heuristic = getattr(result, "size", None)


class _CoreHook(_Hook):
    """Which MBC* answers the heuristic had already reached."""

    def after(self, tracer, frame, args, kwargs, state, result):
        size = getattr(result, "size", None)
        if size is None or isinstance(result, tuple):
            return
        tracer.count("heuristic.mbc_ops")
        if frame.heuristic == size:
            tracer.count("heuristic.optimal")


class _EditHook(_Hook):
    def after(self, tracer, frame, args, kwargs, state, result):
        tracer.count("dynamic.edits")
        tracer.count("dynamic.dirty", args[0].dirty_count)


class _SolveHook(_Hook):
    def after(self, tracer, frame, args, kwargs, state, result):
        tracer.count("dynamic.solves")
        tracer.count("dynamic.solve_mdc", frame.mdc)
        if frame.builds == 0:
            tracer.count("dynamic.skipped")


class _CacheGetHook(_Hook):
    def after(self, tracer, frame, args, kwargs, state, result):
        tracer.count("cache.gets")
        if result is not None:
            tracer.count("cache.hits")


@functools.lru_cache(maxsize=None)
def _stats_position(fn):
    try:
        params = list(inspect.signature(fn).parameters)
    except (TypeError, ValueError):
        return None
    return params.index("stats") if "stats" in params else None


_HOOKS = {
    "dichromatic.mdc": _SearchHook("mdc"),
    "dichromatic.dcc": _SearchHook("dcc"),
    "dichromatic.build": _BuildHook(),
    "heuristic": _HeuristicHook(),
    "core": _CoreHook(),
    "dynamic.edit": _EditHook(),
    "dynamic.solve": _SolveHook(),
    "ResultCache.get": _CacheGetHook(),
}


def copy_executor_context():
    """Make ``loop.run_in_executor`` carry the caller's context, as
    ``asyncio.to_thread`` does, so pool-thread spans find their
    request."""
    base = asyncio.base_events.BaseEventLoop
    original = base.run_in_executor

    def run_in_executor(self, executor, func, *args):
        context = contextvars.copy_context()
        return original(self, executor, context.run, func, *args)

    base.run_in_executor = run_in_executor
