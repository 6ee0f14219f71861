"""Spans around calls into potnum's public functions, recorded from outside.

``Tracer.install`` rebinds every public function of the traced modules,
in every potnum namespace that holds it, to a wrapper that times the call.
Spans are folded as they close into per-name totals, so a pass with
hundreds of thousands of calls keeps a few kilobytes: calls, total and
self time (total minus the time of the spans it caused), results that
were not None (items, for a generator) and the calls per causing span.
"""

import inspect
import time

perf = time.perf_counter_ns

LAYERS = ("oracle", "sequences", "graphs", "probe", "potential", "stability", "generators", "cli")


class Tracer:
    def __init__(self):
        self.stats = {}
        self.callers = {}
        self.stack = []
        self.undo = []

    def _account(self, stats, frame, t0):
        dt = perf() - t0
        self.stack.pop()
        if self.stack:
            self.stack[-1][0] += dt
        stats[1] += dt
        stats[2] += dt - frame[0]

    def wrap(self, name, fn):
        stats = self.stats.setdefault(name, [0, 0, 0, 0])
        stack, callers = self.stack, self.callers

        def enter():
            key = (stack[-1][1] if stack else "-", name)
            callers[key] = callers.get(key, 0) + 1
            frame = [0, name]
            stack.append(frame)
            return frame

        if inspect.isgeneratorfunction(fn):
            def wrapper(*args, **kwargs):
                stats[0] += 1
                it = fn(*args, **kwargs)
                while True:
                    frame = enter()
                    t0 = perf()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        self._account(stats, frame, t0)
                    stats[3] += 1
                    yield item
        else:
            def wrapper(*args, **kwargs):
                stats[0] += 1
                frame = enter()
                t0 = perf()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self._account(stats, frame, t0)
                if result is not None:
                    stats[3] += 1
                return result

        wrapper.__wrapped__ = fn
        if hasattr(fn, "cache_clear"):
            wrapper.cache_clear = fn.cache_clear
        return wrapper

    def install(self, modules):
        """Wrap the public functions of potnum's layers in ``modules``
        (a name-to-module mapping such as sys.modules)."""
        potnum_mods = [m for name, m in modules.items() if name == "potnum" or name.startswith("potnum.")]
        for layer in LAYERS:
            mod = modules.get(f"potnum.{layer}")
            if mod is None:
                continue
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or inspect.isclass(fn) or not callable(fn):
                    continue
                if getattr(fn, "__module__", None) != mod.__name__:
                    continue
                wrapper = self.wrap(f"{layer}.{attr}", fn)
                for holder in potnum_mods:
                    if vars(holder).get(attr) is fn:
                        setattr(holder, attr, wrapper)
                        self.undo.append((holder, attr, fn))

    def uninstall(self):
        for holder, attr, fn in reversed(self.undo):
            setattr(holder, attr, fn)
        self.undo.clear()

    def summary(self):
        out = {}
        for name, (calls, total, self_ns, nonnull) in self.stats.items():
            if calls:
                out[name] = {"calls": calls, "total_ms": total / 1e6, "self_ms": self_ns / 1e6,
                             "nonnull": nonnull, "callers": {}}
        for (parent, name), calls in self.callers.items():
            if name in out:
                out[name]["callers"][parent] = calls
        return out
