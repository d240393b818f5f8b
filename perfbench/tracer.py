"""Per-layer tracing of riskshrink from outside the package.

While installed, every public function of a ``riskshrink`` module is
replaced, wherever a ``riskshrink.*`` namespace binds it, by a wrapper that
records a span.  A function's layer is the module that defines it (its
``__module__``), not the namespace it is called through, so a name that
``cli`` or ``pipeline`` imports directly is still charged to its own layer
and a rename needs no change here.  Self time is a span's duration minus the
duration of the wrapped spans it called, so the self times of all layers sum
to the duration of the outermost spans.  ``uninstall`` puts every original
back.

Counts are taken where the work happens, from a call's arguments and
result; ``COUNT_RULES`` lists them.  A rename there shows up as a zero count,
which the benchmark's tests catch.
"""

import functools
import inspect
import sys
import time
from collections import Counter, defaultdict

import numpy as np

PACKAGE = "riskshrink"

# Layers reported by name; every module's time still counts in the total.
LAYERS = ("cli", "pipeline", "tracking", "shrinkage", "stdct", "audio", "metrics", "risklab")

# Private modules charged to the public layer they serve.
_LAYER_OF_MODULE = {"_gains": "shrinkage", "_gains_py": "shrinkage"}


def layer_of(module_name: str) -> str:
    sub = module_name.split(".", 1)[1] if "." in module_name else module_name
    return _LAYER_OF_MODULE.get(sub, sub)


def _array_bytes(obj) -> int:
    """Bytes of the arrays in a result: ndarrays, buffers holding
    ``samples`` and tuples of either."""
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, tuple):
        return sum(_array_bytes(o) for o in obj)
    samples = getattr(obj, "samples", None)
    return samples.nbytes if isinstance(samples, np.ndarray) else 0


def _grid_points(args) -> int:
    return int(round(1.0 / args["grid_step"])) + 1


def _segments(args) -> int:
    return np.size(args["clean"]) // args["seg_len"]


# (layer, substring of the function name, counter, entry only, rule).  A rule
# maps the call's bound arguments and its result to an amount.  It runs on
# every call of a matching function, or with "entry only" just on calls from
# another layer: a gain evaluated through ``gain_array`` -> ``gain_into`` is
# one call of the layer, not two.
COUNT_RULES = (
    ("stdct", "frame_grid", "frames", False, lambda a, r: r.num_frames),
    ("shrinkage", "gain", "bins", True, lambda a, r: np.size(r)),
    ("risklab", "sample", "samples", False, lambda a, r: np.size(r)),
    ("risklab", "oracle", "oracle_grid_points", False, lambda a, r: _grid_points(a)),
    ("metrics", "segmental", "segments", False, lambda a, r: _segments(a)),
)


class Tracer:
    """Span recorder for one or more traced calls; state accumulates across
    install/uninstall cycles until the object is dropped."""

    def __init__(self):
        self.self_s = defaultdict(float)  # (layer, function) -> seconds
        self.entries = Counter()  # layer -> calls entering it from another layer
        self.counts = Counter()  # "layer.counter" -> amount
        self._stack = []  # [layer, seconds spent in wrapped children]
        self._wrappers = {}
        self._saved = []

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for name, obj in list(vars(mod).items()):
                if not (
                    inspect.isfunction(obj)
                    and not obj.__name__.startswith("_")
                    and obj.__module__.startswith(PACKAGE + ".")
                ):
                    continue
                wrapper = self._wrappers.get(obj)
                if wrapper is None:
                    wrapper = self._wrappers[obj] = self._wrap(obj)
                self._saved.append((mod, name, obj))
                setattr(mod, name, wrapper)

    def uninstall(self) -> None:
        for mod, name, obj in reversed(self._saved):
            setattr(mod, name, obj)
        self._saved.clear()

    def _wrap(self, fn):
        layer = layer_of(fn.__module__)
        key = (layer, fn.__name__)
        rules = [(f"{layer}.{c}", entry_only, rule)
                 for lay, sub, c, entry_only, rule in COUNT_RULES
                 if lay == layer and sub in fn.__name__]
        signature = inspect.signature(fn)
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            outer = stack[-1] if stack else None
            span = [layer, 0.0]
            stack.append(span)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                stack.pop()
                self.self_s[key] += elapsed - span[1]
                if outer is not None:
                    outer[1] += elapsed
            entry = outer is None or outer[0] != layer
            if entry:
                self.entries[layer] += 1
                self.counts[f"{layer}.bytes_computed"] += _array_bytes(result)
            for name, entry_only, rule in rules:
                if entry or not entry_only:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    self.counts[name] += rule(bound.arguments, result)
            return result

        return traced

    def layer_self_s(self) -> dict:
        out = defaultdict(float)
        for (layer, _), s in self.self_s.items():
            out[layer] += s
        return dict(out)

    def function_self_s(self, layer: str, *substrings: str) -> float:
        """Self time of the layer's functions whose names contain any of
        ``substrings``."""
        return sum(
            s for (lay, fn), s in self.self_s.items()
            if lay == layer and any(sub in fn for sub in substrings)
        )

    def totals(self) -> dict:
        """Sums over every traced call, keyed by per-layer metric name."""
        layer = self.layer_self_s()
        fn = self.function_self_s
        synthesis = fn("stdct", "inverse", "overlap")
        out = {f"{name}.self_s": layer.get(name, 0.0) for name in LAYERS}
        out.update(
            {
                "tracking.calls": self.entries["tracking"],
                "shrinkage.calls": self.entries["shrinkage"],
                "stdct.analysis_s": layer.get("stdct", 0.0) - synthesis,
                "stdct.synthesis_s": synthesis,
                "audio.read_s": fn("audio", "read"),
                "audio.write_s": fn("audio", "write"),
                "audio.mix_s": fn("audio", "mix"),
                "risklab.sampler_s": fn("risklab", "sample"),
                "risklab.stein_s": fn("risklab", "stein"),
                "risklab.oracle_s": fn("risklab", "oracle"),
                "risklab.unbiased_s": fn("risklab", "unbias", "true_risk"),
                "all_layers_s": sum(layer.values()),
            }
        )
        for name in ("stdct.frames", "stdct.bytes_computed", "shrinkage.bins",
                     "audio.bytes_computed", "metrics.segments", "risklab.samples",
                     "risklab.oracle_grid_points"):
            out[name] = self.counts[name]
        return out
