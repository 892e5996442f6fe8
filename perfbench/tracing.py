"""Spans around the calls into each rdlab layer, recorded from outside the program.

`install` wraps every public function of the traced layers and rebinds the
wrapper in every `rdlab` module namespace that imported the function by
name (`cli`, `covlab` and `positionops` import from `fields` that way), so
calls between modules are traced too. The n-D transforms of `scipy.fft` and
`numpy.fft` form the `fft` layer. Spans are kept in memory as
(name, start, end, parent, work) and written out when the run ends.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict

LAYERS = ("grids", "fields", "positionops", "covlab", "report")
FFT_MODULES = ("scipy.fft", "numpy.fft")
FFT_FUNCTIONS = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn", "rfft", "irfft", "rfftn", "irfftn")


def _nodes(field) -> int:
    n = field.grid.n
    return n * n * n


# Work recorded on a span from the call's arguments and result.
WORK = {
    "fields.evolve": lambda args, kwargs, result: _nodes(args[0]),
    "covlab.slice_prediction": lambda args, kwargs, result: int(result.size),
    "grids.energies": lambda args, kwargs, result: [args[0].n, args[0].pmax, float(args[1])],
}


def _fft_points(args, kwargs, result) -> int:
    # points a transform reads, from the input array's size
    return int(getattr(args[0], "size", 0))


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1, work]
        self._stack: list[int] = []

    def span(self, name: str, fn, work=None):
        """`fn` wrapped so that each call records one span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            entry = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, None]
            self._stack.append(len(self.spans))
            self.spans.append(entry)
            entry[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                entry[2] = time.perf_counter()
                self._stack.pop()
            if work is not None:
                entry[4] = work(args, kwargs, result)
            return result

        return traced


def install(tracer: Tracer) -> None:
    """Wrap each traced layer's public functions wherever rdlab binds them."""
    import rdlab.cli  # noqa: F401  (loads every module the CLI reaches)
    from rdlab.grids import Grid

    wrapped: dict[int, object] = {}
    for layer in LAYERS:
        module = importlib.import_module(f"rdlab.{layer}")
        for attr, fn in vars(module).items():
            if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                continue
            name = f"{layer}.{attr}"
            wrapped[id(fn)] = tracer.span(name, fn, WORK.get(name))
    for module_name in FFT_MODULES:
        module = importlib.import_module(module_name)
        for attr in FFT_FUNCTIONS:
            fn = getattr(module, attr)
            wrapped[id(fn)] = tracer.span(f"fft.{module_name}.{attr}", fn, _fft_points)
            setattr(module, attr, wrapped[id(fn)])
    Grid.energies = tracer.span("grids.energies", Grid.energies, WORK["grids.energies"])

    for module_name, module in list(sys.modules.items()):
        if module_name == "rdlab" or module_name.startswith("rdlab."):
            for attr, value in list(vars(module).items()):
                replacement = wrapped.get(id(value))
                if replacement is not None:
                    setattr(module, attr, replacement)


def summarize(spans: list[list], wall_s: float) -> dict:
    """Per-function and per-layer counts and self times from recorded spans.

    A span's self time is its duration minus the time its child spans cover.
    Spans are strictly nested (one Python thread), so the coverage is the
    sum of the direct children's durations.
    """
    covered = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start

    def layer_of(name: str) -> str:
        return name.split(".", 1)[0]

    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    fft_points = kept = evolved = 0
    slice_total = 0.0
    energies_keys: set[tuple] = set()
    for i, (name, start, end, parent, work) in enumerate(spans):
        layer = layer_of(name)
        parent_name = spans[parent][0] if parent >= 0 else ""
        own = end - start - covered[i]
        if layer == "fft":
            self_s["fft"] += own
            # a transform called from inside another counts once, as part of its caller
            if layer_of(parent_name) != "fft":
                calls["fft"] += 1
                fft_points += work or 0
            continue
        for key in (name, layer):
            calls[key] += 1
            self_s[key] += own
        if work is None:  # the call raised before its work was recorded
            continue
        if name == "grids.energies":
            energies_keys.add(tuple(work))
        elif name == "covlab.slice_prediction":
            kept += work
            slice_total += end - start
        elif name == "fields.evolve" and parent_name == "covlab.slice_prediction":
            evolved += work

    out: dict[str, float] = {}
    for name in calls:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = self_s[name]
    out["fft.points"] = fft_points
    n_energies = calls["grids.energies"]
    out["grids.energies.repeat_frac"] = (n_energies - len(energies_keys)) / n_energies if n_energies else 0.0
    out["covlab.plane_yield"] = kept / evolved if evolved else 0.0
    out["covlab.slice_prediction.wall_share"] = slice_total / wall_s
    out["trace.spans"] = len(spans)
    return out
