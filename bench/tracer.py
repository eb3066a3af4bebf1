"""Outside-in per-layer host-time tracer for one benchmark child.

The simulator's layers are its modules.  :class:`LayerTracer` wraps
each layer's public entry points (the :data:`LAYERS` table) at class
or module level *before* the machine boots, so every instance the run
creates -- and every bound method cached in an attribute or a local --
goes through a wrapper.  Each wrapper times its call with
``perf_counter_ns`` and keeps a stack of open spans, which yields per
layer:

- self time: the span's duration minus the time its child spans cover;
- call count;
- parent -> child layer edges (how often each layer calls each other).

Every call is synchronous on one thread, so a span never waits on
another and there is no wait time to record.  ``Workload.run``'s
wrapper also interposes on its ``request_hook``, so the cumulative
per-layer totals are marked at every request boundary; a span's time
lands in the request in which the span ends.  Nothing under ``src/``
is modified and :meth:`LayerTracer.uninstall` restores every original.
"""

import functools
import importlib
import time

#: (layer, module, owner classes or None for module functions, names).
#: A name missing from its owner raises at install, so a renamed entry
#: point fails the traced run instead of silently reading zero.
LAYERS = (
    ("workloads", "repro.workloads.base", ("Workload",), ("run",)),
    ("machine", "repro.machine.machine", ("Machine",),
     ("load", "store", "run_ops")),
    ("mmu", "repro.mmu.mmu", ("Mmu",), ("translate", "translate_fast")),
    ("cache", "repro.cache.cache", ("Cache",),
     ("load", "store", "fast_read", "fast_write", "load_span",
      "store_span", "flush_line", "flush_all", "contains",
      "invalidate_line")),
    ("ecc.controller", "repro.ecc.controller", ("MemoryController",),
     ("read_line", "write_line", "scrub_line")),
    ("ecc.codec", "repro.ecc.codec",
     ("SecDedCodec", "SecDaecCodec", "ChipkillCodec"),
     ("encode", "encode_words", "decode")),
    ("ecc.dram", "repro.ecc.dram", ("PhysicalMemory",),
     ("read_raw", "write_raw", "read_group", "write_group",
      "write_group_data_only", "read_groups", "write_groups",
      "write_groups_data_only", "read_check")),
    ("kernel", "repro.kernel.kernel", ("Kernel",),
     ("watch_memory", "disable_watch_memory", "handle_protection_fault",
      "handle_uncorrectable_fault", "mmap", "munmap", "mprotect")),
    ("kernel", "repro.kernel.watchregistry", ("WatchRegistry",),
     ("overlaps_range",)),
    ("heap", "repro.heap.allocator", ("Allocator",),
     ("malloc", "free", "realloc", "lookup")),
    ("core", "repro.core.safemem", ("SafeMem",),
     ("malloc", "free", "realloc", "on_exit")),
    ("common.events", "repro.common.events", ("EventLog",), ("emit",)),
    ("obs.sampler", "repro.obs.sampler", ("SamplingProfiler",),
     ("sample_now",)),
    ("obs.trend", "repro.obs.trend", ("TrendEngine",), ("observe",)),
    ("obs.alerts", "repro.obs.alerts", ("AlertEngine",), ("evaluate",)),
    ("obs.history", "repro.obs.history", ("HistoryStore",), ("observe",)),
    ("obs.checkpoint", "repro.obs.checkpoint", None,
     ("capture_checkpoint", "compare_checkpoints", "load_checkpoint",
      "resume_checkpoint")),
)

#: layer names in table order, each once.
LAYER_NAMES = tuple(dict.fromkeys(layer for layer, *_ in LAYERS))


class LayerTracer:
    """Per-layer self time, calls and edges of one traced run."""

    def __init__(self):
        count = len(LAYER_NAMES)
        self.self_ns = [0] * count
        self.calls = [0] * count
        #: edges[parent][child] call counts; row ``count`` is the root.
        self.edges = [[0] * count for _ in range(count + 1)]
        #: (request index, cumulative self_ns, cumulative calls) at the
        #: end of every request.
        self.request_marks = []
        self._stack = []
        self._originals = []

    # -- wrapping --------------------------------------------------------
    def install(self):
        if self._originals:
            raise RuntimeError("layer tracer is already installed")
        for layer, module_name, owner_names, names in LAYERS:
            module = importlib.import_module(module_name)
            owners = ([getattr(module, owner) for owner in owner_names]
                      if owner_names is not None else [module])
            index = LAYER_NAMES.index(layer)
            for owner in owners:
                for name in names:
                    original = vars(owner)[name]
                    function = original
                    if layer == "workloads":
                        function = self._marking_requests(function)
                    self._originals.append((owner, name, original))
                    setattr(owner, name, self._span(function, index))
        return self

    def uninstall(self):
        while self._originals:
            owner, name, original = self._originals.pop()
            setattr(owner, name, original)

    def _span(self, function, index):
        stack = self._stack
        self_ns = self.self_ns
        calls = self.calls
        root = self.edges[len(LAYER_NAMES)]
        edges = self.edges
        clock = time.perf_counter_ns

        @functools.wraps(function)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [0, index]
            stack.append(frame)
            start = clock()
            try:
                return function(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                self_ns[index] += elapsed - frame[0]
                calls[index] += 1
                if parent is None:
                    root[index] += 1
                else:
                    parent[0] += elapsed
                    edges[parent[1]][index] += 1

        return traced

    def _marking_requests(self, run):
        """``Workload.run`` with a request hook that marks boundaries
        and then calls the caller's hook (observation only)."""
        marks = self.request_marks

        def run_marking(workload, program, buggy=False, request_hook=None):
            def hook(index, truth):
                marks.append((index, self.self_ns[:], self.calls[:]))
                if request_hook is not None:
                    request_hook(index, truth)

            return run(workload, program, buggy=buggy, request_hook=hook)

        return run_marking

    # -- results -------------------------------------------------------------
    def summary(self):
        """Per-layer totals, shares of traced self time, and edges."""
        total = sum(self.self_ns) or 1
        layers = {
            name: {
                "self_s": ns / 1e9,
                "calls": calls,
                "ns_per_call": ns / calls if calls else 0.0,
                "share": ns / total,
            }
            for name, ns, calls in zip(LAYER_NAMES, self.self_ns,
                                       self.calls)
        }
        parents = LAYER_NAMES + ("root",)
        edges = {
            f"{parents[parent]}->{LAYER_NAMES[child]}": count
            for parent, row in enumerate(self.edges)
            for child, count in enumerate(row) if count
        }
        return {"layers": layers, "edges": edges,
                "traced_self_s": sum(self.self_ns) / 1e9}

    def per_request(self):
        """Self ns and calls of each layer in each request."""
        count = len(LAYER_NAMES)
        previous_ns, previous_calls = [0] * count, [0] * count
        rows = []
        for index, self_ns, calls in self.request_marks:
            rows.append({
                "request": index,
                "self_ns": [now - before for now, before
                            in zip(self_ns, previous_ns)],
                "calls": [now - before for now, before
                          in zip(calls, previous_calls)],
            })
            previous_ns, previous_calls = self_ns, calls
        return {"layers": list(LAYER_NAMES), "requests": rows}
