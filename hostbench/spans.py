"""Span tracing for the benchmark's traced run.

The wrappers are installed from this file onto a freshly imported copy of
the ``nvmsim`` modules; no library source changes.  Each wrapped call is a
span with a layer.  A span's self time is its duration minus the time its
child spans cover, so the self times of all layers plus the benchmark's own
root self time add up to the root span exactly.

Fine-grained spans (hundreds per simulated store) are folded into per-layer
self time and per-function call counts as they close; the coarse spans
(simulation runs, crash points, trace generation) are kept in memory with
their parent and written out when the benchmark ends.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import time
from collections import defaultdict

# (module, attribute, layer): the library entry points one layer calls in
# another, plus the hot functions inside a layer that the per-layer call
# counts are taken from.
TARGETS = (
    ("engine", "Simulator.__init__", "engine"),
    ("engine", "Simulator.stats_dict", "engine"),
    # run_until_idle is the event loop that calls every engine handler;
    # its self time is the engine's own bookkeeping
    ("timing", "run_until_idle", "engine"),
    ("timing", "EventQueue.push", "timing"),
    ("timing", "EventQueue.pop", "timing"),
    ("bmt", "BmtState.compute_node", "bmt"),
    ("bmt", "BmtState.commit_node", "bmt"),
    ("bmt", "BmtState.node_value", "bmt"),
    ("bmt", "rebuild_from_counters", "bmt"),
    ("crypto", "encrypt", "crypto"),
    ("crypto", "decrypt", "crypto"),
    ("crypto", "mac_tag", "crypto"),
    ("crypto", "verify_mac", "crypto"),
    ("crypto", "hash_node", "crypto"),
    ("crypto", "payload_block", "crypto"),
    ("caches", "MetadataCache.access", "caches"),
    ("caches", "MetadataCache.flush_volatile", "caches"),
    ("model_core", "SplitCounter.bump", "model_core"),
    ("model_core", "SplitCounter.to_block_bytes", "model_core"),
    ("model_core", "GoldenMemory.apply_store", "model_core"),
    ("crash", "crash", "crash"),
    ("crash", "recover", "crash"),
    ("crash", "check_prefix_consistency", "crash"),
    ("trace", "generate", "trace"),
)

# spans kept individually; every other span is folded as it closes
KEPT = frozenset({
    "Simulator.__init__",
    "run_until_idle",
    "rebuild_from_counters",
    "crash",
    "recover",
    "check_prefix_consistency",
    "generate",
})


class Tracer:
    """Span recorder.  Records only while ``enabled`` and inside ``root``."""

    def __init__(self) -> None:
        self.enabled = False
        self._stack: list = []  # frames: [child seconds, id of nearest kept span]
        self._installed: list = []  # (owner, attribute, original)
        self.spans: list = []  # (id, parent id, name, layer, start, end, self seconds)
        self.self_s: dict = defaultdict(float)
        self.calls: dict = defaultdict(int)
        self.push_kinds: dict = defaultdict(int)

    def reset_totals(self) -> None:
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.push_kinds = defaultdict(int)

    # -- installation -----------------------------------------------------

    def install(self, modules: dict) -> None:
        """Wrap every target on ``modules`` (short name -> module object).

        A function is replaced in every given module that holds it under
        that name, so ``from .crypto import encrypt`` in ``engine`` and the
        package's re-exports are traced too.
        """
        for module_name, attribute, layer in TARGETS:
            home = modules[module_name]
            if "." in attribute:
                cls_name, meth = attribute.split(".")
                owner = getattr(home, cls_name)
                original = inspect.getattr_static(owner, meth)
                self._patch(owner, meth, original, self._wrap(attribute, layer, original))
                continue
            original = getattr(home, attribute)
            wrapper = self._wrap(attribute, layer, original)
            for module in modules.values():
                if getattr(module, attribute, None) is original:
                    self._patch(module, attribute, original, wrapper)

    def uninstall(self) -> None:
        while self._installed:
            owner, attribute, original = self._installed.pop()
            setattr(owner, attribute, original)

    def _patch(self, owner, attribute, original, wrapper) -> None:
        self._installed.append((owner, attribute, original))
        setattr(owner, attribute, wrapper)

    def _wrap(self, name: str, layer: str, fn):
        tracer = self
        clock = time.perf_counter
        kept = name in KEPT
        counts_kinds = name == "EventQueue.push"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            if not tracer.enabled or not stack:
                return fn(*args, **kwargs)
            parent = stack[-1]
            frame = [0.0, parent[1]]
            if kept:
                span_id = len(tracer.spans)
                tracer.spans.append(None)
                frame[1] = span_id
            if counts_kinds:
                tracer.push_kinds[args[2]] += 1
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                own = duration - frame[0]
                tracer.self_s[layer] += own
                tracer.calls[name] += 1
                parent[0] += duration
                if kept:
                    tracer.spans[span_id] = (span_id, parent[1], name, layer, start, end, own)

        return traced

    # -- root spans -------------------------------------------------------

    def root(self, name: str) -> "_Root":
        return _Root(self, name)

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside run untraced; their time counts as the caller's."""
        was, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = was

    def write(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("id", "parent", "name", "layer", "start", "end", "self_s")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


class _Root:
    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.name = name
        self.duration = 0.0

    def __enter__(self) -> "_Root":
        tracer = self.tracer
        self.span_id = len(tracer.spans)
        tracer.spans.append(None)
        self.frame = [0.0, self.span_id]
        tracer._stack.append(self.frame)
        tracer.enabled = True
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        tracer = self.tracer
        end = time.perf_counter()
        tracer.enabled = False
        tracer._stack.pop()
        self.duration = end - self.start
        own = self.duration - self.frame[0]
        tracer.self_s["bench"] += own
        tracer.spans[self.span_id] = (self.span_id, None, self.name, "bench", self.start, end, own)
