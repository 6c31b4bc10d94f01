"""Traced launcher: run one curvlab CLI command with the package's layer
entry points wrapped in spans, then write per-layer totals as JSON.

    python perfbench/launch.py TRACE_OUT <curvlab arguments...>

It behaves like `python -m curvlab.cli <arguments>` (same exit code, same
output bytes); nothing in the package is changed on disk.  Functions are
patched wherever they are bound: the package modules import each other's
functions by name (cli binds monotone_solve, csv_text, ...; ode binds
scipy's solve_ivp), so every module attribute and every module-level dict
entry that refers to a wrapped function is replaced.

Spans carry their thread id, because `sweep` runs certificates on a thread
pool.  Times of a layer are inclusive and summed over threads.  Self time is
computed per thread: cli.self is the time inside a cmd_* span that no other
span of the same thread covers, so a cmd_* waiting on pool threads counts
that wait as its own.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time

class Tracer:
    """Spans and counters of one process."""

    def __init__(self):
        self.spans = []          # (layer, thread id, start, end)
        self.counts = {}
        self.layers = set()      # every span layer, reported even when unused
        self._lock = threading.Lock()
        self._active = threading.local()

    def count(self, key, value=1):
        with self._lock:
            self.counts[key] = self.counts.get(key, 0) + value

    def declare(self, *keys):
        """Counters that are reported as 0 when nothing adds to them."""
        for key in keys:
            self.counts.setdefault(key, 0)

    def wrap(self, layer, fn, on_result=None, span=True, calls=None, outermost=False):
        """fn counted in `calls` (default "<layer>.calls") and, with span,
        timed in `layer`.  With outermost, a call made while the same thread
        is already inside `layer` is neither counted nor timed again."""
        calls = calls or layer + ".calls"
        self.declare(calls)
        if span:
            self.layers.add(layer)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if outermost:
                active = self._active.__dict__.setdefault("layers", set())
                if layer in active:
                    return fn(*args, **kwargs)
                active.add(layer)
            try:
                self.count(calls)
                if not span:
                    return fn(*args, **kwargs)
                start = time.perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self.spans.append((layer, threading.get_ident(), start,
                                       time.perf_counter()))
            finally:
                if outermost:
                    active.discard(layer)
            if on_result is not None:
                on_result(result)
            return result
        return wrapper

    def text_size(self, header_lines):
        def count(text):
            self.count("serialize.rows", text.count("\n") - header_lines)
            self.count("serialize.bytes", len(text.encode("utf-8")))
        return count

    def summary(self):
        times = dict.fromkeys(self.layers, 0.0)
        for layer, _, a, b in self.spans:
            times[layer] = times.get(layer, 0.0) + (b - a)
        cli_self = 0.0
        for layer, tid, a, b in self.spans:
            if layer == "cli":
                inner = [(x, y) for name, other, x, y in self.spans
                         if other == tid and name != "cli"]
                cli_self += (b - a) - _covered(inner, a, b)
        times["cli.self"] = cli_self
        return {"counts": dict(self.counts), "times": times}


def _patch_bindings(original, wrapper):
    """Replace `original` by `wrapper` in every curvlab module namespace and
    in every module-level dict that holds it (e.g. cli._DISPATCH)."""
    for name, module in list(sys.modules.items()):
        if not (name == "curvlab" or name.startswith("curvlab.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)
            elif isinstance(value, dict):
                for key, item in list(value.items()):
                    if item is original:
                        value[key] = wrapper


def install(tracer):
    import curvlab.cli as cli
    from curvlab import completeness, expr, ode, oracle, polar, serialize, warp

    def patch(layer, owner, attr, **kw):
        original = getattr(owner, attr)
        wrapper = tracer.wrap(layer, original, **kw)
        if isinstance(owner, type):
            setattr(owner, attr, wrapper)
        else:
            _patch_bindings(original, wrapper)

    for attr in [a for a in vars(cli) if a.startswith("cmd_")]:
        patch("cli", cli, attr)
    patch("serialize.format", serialize, "csv_text", on_result=tracer.text_size(1))
    patch("serialize.format", serialize, "jsonl_text", on_result=tracer.text_size(0))
    patch("serialize.write", serialize, "atomic_write_text")
    patch("polar.slice", polar, "polar_scalar_curvature")
    patch("polar.sample", polar.PolarWarpField, "_sample")
    patch("ode.monotone", ode, "monotone_solve",
          on_result=lambda sol: tracer.count("ode.monotone.iterations", sol.iterations))
    patch("ode.solve_ivp", ode, "solve_ivp",
          on_result=lambda sol: tracer.count("ode.solve_ivp.nfev", int(sol.nfev)))
    for attr in ("oscillation_certificate", "comparison_certificate",
                 "barrier_certificate_33"):
        patch("ode.certificate", ode, attr)
    patch("completeness.ray_length", completeness, "ray_length")
    patch("oracle.fd", oracle, "fd_scalar_curvature", calls="oracle.points")
    patch("oracle.metric_eval", oracle.MetricGrid, "components", span=False,
          calls="oracle.metric_evals")
    # field evaluation: the profile classes, the torus warp at one point, and
    # the tree of a t-only profile, which assemble_metric evaluates directly
    # for every metric component
    for cls in (warp.Field, warp.WarpProfile):
        for attr in ("eval", "d1", "d2"):
            patch("warp.field_eval", cls, attr, outermost=True)
    patch("warp.field_eval", polar.PolarWarpField, "eval_point", outermost=True)
    assemble = oracle.assemble_metric

    def traced_assemble(f, *args, **kwargs):
        if isinstance(f, warp.Field) and not isinstance(f.ast, _TracedTree):
            f.ast = _TracedTree(f.ast, tracer.wrap("warp.field_eval", f.ast.eval,
                                                   outermost=True))
        return assemble(f, *args, **kwargs)

    _patch_bindings(assemble, traced_assemble)
    patch("warp.curvature", warp, "warped_scalar_curvature")
    patch("expr.parse", expr, "parse")
    tracer.declare("serialize.rows", "serialize.bytes", "ode.monotone.iterations",
                   "ode.solve_ivp.nfev")
    return cli


class _TracedTree:
    """An expression tree whose root eval goes through a wrapper; every
    other attribute is the tree's own."""

    def __init__(self, node, eval_fn):
        self._node = node
        self.eval = eval_fn

    def __getattr__(self, name):
        return getattr(self._node, name)


def _covered(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of intervals."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def main(argv):
    trace_out, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    cli = install(tracer)
    rc = cli.main(cli_args)
    with open(trace_out, "w") as fh:
        json.dump(tracer.summary(), fh, sort_keys=True)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
