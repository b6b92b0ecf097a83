"""Outside-in span tracer for the edgemal package.

The tracer replaces the public module-level functions of the package modules
with timing wrappers, in every namespace that bound them (``simulation``
imports ``validate_placement`` and ``cut_bytes`` by name, for example), and
restores the originals on ``uninstall``. Nothing inside the program changes.

Each span records its name, start, end, parent span, the id of the CLI
command it ran under (``run_id``) and its thread. Parents are tracked per
thread; a span that opens on a thread with no open span (the ``simulate``
fan-out runs on worker threads) takes the innermost open span of the client
thread as its parent, which is the command that submitted the work. Spans
stay in memory and are exported when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import threading
import time


def _trained_samples(fn, args, kwargs, result) -> int:
    bound = inspect.signature(fn).bind(*args, **kwargs).arguments
    return len(bound["images"]) * bound["epochs"]


# Public names whose spans carry a tag, computed from (function, args, kwargs,
# result): the layer a layer_forward call applied, the samples a train_model
# call trained, and the events a simulation produced.
TAGS = {
    "cnn.layer_forward": lambda fn, args, kwargs, result: args[0],
    "cnn.train_model": _trained_samples,
    "simulation.simulate_inference": lambda fn, args, kwargs, result: len(result.events),
    "simulation.simulate_on_device": lambda fn, args, kwargs, result: len(result.events),
}


def span_name(module_name: str, func_name: str) -> str:
    """``edgemal.cli.cmd_gen_corpus`` -> ``cli.gen_corpus``."""
    short = module_name.rsplit(".", 1)[-1]
    if short == "cli" and func_name.startswith("cmd_"):
        func_name = func_name[4:]
    return f"{short}.{func_name}"


class Span:
    __slots__ = ("name", "start", "end", "parent", "run_id", "thread", "tag")

    def __init__(self, name, start, parent, run_id, thread):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.run_id = run_id
        self.thread = thread
        self.tag = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans from wrapped module functions."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.run_id = 0
        self._local = threading.local()
        self._client_stack: list[Span] | None = None
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn):
        tag = TAGS.get(name)
        tracer = self
        spans = self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                client = tracer._client_stack
                parent = client[-1] if client else None
            span = Span(name, time.perf_counter(), parent, tracer.run_id,
                        threading.get_ident())
            spans.append(span)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if tag is not None:
                span.tag = tag(fn, args, kwargs, result)
            return result

        return wrapper

    def install(self, modules) -> None:
        """Wrap every public function defined in ``modules``.

        ``modules`` are the package's module objects; each wrapped name is
        patched in all of them wherever the original object is bound.
        """
        if self._patches:
            raise RuntimeError("tracer already installed")
        self._client_stack = self._stack()
        wrapped = {}
        for module in modules:
            for attr, value in vars(module).items():
                if (inspect.isfunction(value) and not attr.startswith("_")
                        and value.__module__ == module.__name__):
                    wrapped[id(value)] = self._wrap(
                        span_name(module.__name__, attr), value)
        for module in modules:
            for attr, value in list(vars(module).items()):
                replacement = wrapped.get(id(value))
                if replacement is not None:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, replacement)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()
        self._client_stack = None

    # --- analysis ------------------------------------------------------------

    def self_seconds(self, names) -> dict[str, float]:
        """Total self time per span name: each span's duration minus the part
        of its interval covered by its child spans."""
        names = set(names)
        children: dict[int, list[tuple[float, float]]] = {}
        for span in self.spans:
            parent = span.parent
            if parent is not None and parent.name in names:
                children.setdefault(id(parent), []).append((span.start, span.end))
        totals = dict.fromkeys(names, 0.0)
        for span in self.spans:
            if span.name not in names:
                continue
            covered = 0.0
            reach = span.start
            for lo, hi in sorted(children.get(id(span), ())):
                lo = max(lo, reach)
                hi = min(hi, span.end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            totals[span.name] += span.duration - covered
        return totals

    def chrome_events(self):
        """Chrome Trace Event Format: one complete ("X") event per span and
        one track per thread, readable by Perfetto and chrome://tracing."""
        if not self.spans:
            return
        origin = self.spans[0].start
        tids: dict[int, int] = {}
        ids = {id(span): i for i, span in enumerate(self.spans)}
        for i, span in enumerate(self.spans):
            tid = tids.setdefault(span.thread, len(tids))
            args = {"id": i, "run_id": span.run_id}
            if span.parent is not None:
                args["parent"] = ids.get(id(span.parent))
            yield {
                "name": span.name,
                "cat": span.name.split(".", 1)[0],
                "ph": "X",
                "ts": (span.start - origin) * 1e6,
                "dur": span.duration * 1e6,
                "pid": 1,
                "tid": tid,
                "args": args,
            }
        for tid in tids.values():
            yield {"name": "thread_name", "ph": "M", "pid": 1, "tid": tid,
                   "args": {"name": "client" if tid == 0 else f"worker-{tid}"}}

    def write_chrome_trace(self, path) -> None:
        """Stream the events to ``path``, one per line."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write('{"displayTimeUnit": "ms", "traceEvents": [\n')
            for n, event in enumerate(self.chrome_events()):
                fh.write((",\n" if n else "") + json.dumps(event))
            fh.write("\n]}\n")
