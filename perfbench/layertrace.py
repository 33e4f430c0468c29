"""Layer tracing from outside the library.

`Tracer.install()` replaces each traced function with a wrapper on every
module binding that callers resolve (the defining module, the modules that
imported the name, and the class for methods), so a call made from inside
the library passes through the wrapper and nested calls nest as spans.
`uninstall()` restores the originals.

Each span adds its duration to its function's totals and to its parent's
child time; self time is duration minus child time.  Durations go into a
log-scale histogram per function for the median.  Raw spans (function,
parent span, op tag, start, end) are kept in memory up to RAW_SPAN_CAP and
written out by the caller when the run ends.
"""

from __future__ import annotations

import math
import time
from collections import Counter, defaultdict

import dyadiff
from dyadiff import cli, dyadic, gaussian, laplacian, spectral, verify

# Layer name -> (owner, attribute) pairs.  The owner is a module or a class.
LAYERS = {
    "dyadic": [(dyadic, n) for n in (
        "dyadic_distance", "smallest_common_interval", "interval_containing", "haar_eval")],
    "spectral.series": [(spectral, n) for n in ("log_psi_sq", "psi", "psi_infinity", "c_t_s")],
    "spectral.distance": [(spectral, n) for n in (
        "distance_closed", "distance_spectral", "kernel_K")],
    "spectral.ball": [(spectral, n) for n in ("ball", "ball_radius_transfer")],
    "gaussian": [(gaussian, n) for n in ("rho", "rho_sq_quadrature", "rho_inverse")],
    "laplacian.synthesis": [(laplacian.HaarExpansion, "to_piecewise")],
    "laplacian.operator": [(laplacian, n) for n in ("apply_laplacian", "haar_eigenvalue")],
    "laplacian.evolve": [(laplacian, "evolve_spectral"), (laplacian, "evolve_pointwise"),
                         (laplacian.HaarExpansion, "evaluate"), (laplacian, "haar_coefficient")],
    "laplacian.io": [(laplacian, n) for n in ("parse_expansion", "format_expansion")],
    "verify": [(verify, n) for n in (
        "dyadic_suite", "spectral_suite", "laplacian_suite", "euclidean_suite")],
    "cli": [(cli, "main")],
}

_MODULES = (dyadiff, dyadic, spectral, laplacian, gaussian, verify, cli)
# Histogram buckets per natural-log unit: medians are good to about 1.6 %.
_BUCKETS = 64
RAW_SPAN_CAP = 50_000


def metric_prefix(owner, attr: str) -> str:
    """`laplacian.to_piecewise`: the defining module's short name and the attribute."""
    module = owner.__module__ if isinstance(owner, type) else owner.__name__
    return f"{module.rsplit('.', 1)[-1]}.{attr}"


# Function name -> layer, used to attribute exceptions seen in tracebacks.
FUNCTION_LAYERS = {attr: layer for layer, targets in LAYERS.items() for _, attr in targets}


class Tracer:
    """Collects spans from the wrapped functions.

    Totals are keyed by (function id, op tag, parent function id); the
    workload sets `tag` before each op, so totals can be split by input
    property (level spread, subcommand) and by caller.
    """

    def __init__(self):
        self.names: list[str] = []
        self.layer_of: list[str] = []
        self.calls = Counter()
        self.busy = defaultdict(float)
        self.self_s = defaultdict(float)
        self.hist: list[Counter] = []
        self.failed = Counter()         # (fid, exception type) -> count
        self.tag = None
        self.raw: list[tuple] = []
        self._stack: list[list] = []
        self._patched: list[tuple] = []

    def add(self, name: str, layer: str, fn):
        """Register `fn` under `name` and return its tracing wrapper."""
        fid = len(self.names)
        self.names.append(name)
        self.layer_of.append(layer)
        self.hist.append(Counter())
        stack, raw, hist = self._stack, self.raw, self.hist[fid]
        calls, busy, self_s, failed = self.calls, self.busy, self.self_s, self.failed
        clock, log = time.perf_counter, math.log

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            # the raw slot is taken on entry, so a parent's index precedes
            # its children's
            index = len(raw) if len(raw) < RAW_SPAN_CAP else -1
            if index >= 0:
                raw.append(None)
            frame = [0.0, index, fid]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                failed[fid, type(exc).__name__] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                key = (fid, self.tag, parent[2] if parent else -1)
                calls[key] += 1
                busy[key] += dur
                self_s[key] += dur - frame[0]
                hist[int(log(dur + 1e-9) * _BUCKETS)] += 1
                if parent is not None:
                    parent[0] += dur
                if index >= 0:
                    raw[index] = (fid, parent[1] if parent else -1, self.tag, start, end)

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every function in LAYERS on every binding that resolves to it."""
        for layer, targets in LAYERS.items():
            for owner, attr in targets:
                original = owner.__dict__[attr]
                wrapper = self.add(metric_prefix(owner, attr), layer, original)
                for target in [owner] if isinstance(owner, type) else _MODULES:
                    if target.__dict__.get(attr) is original:
                        setattr(target, attr, wrapper)
                        self._patched.append((target, attr, original))
                # run_verify looks suites up in this table
                for name, fn in verify._SUITE_FUNCTIONS.items():
                    if fn is original:
                        verify._SUITE_FUNCTIONS[name] = wrapper
                        self._patched.append((verify._SUITE_FUNCTIONS, name, original))

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._patched):
            if isinstance(target, dict):
                target[attr] = original
            else:
                setattr(target, attr, original)
        self._patched.clear()

    # -- reading totals --------------------------------------------------
    def fid(self, name: str) -> int:
        return self.names.index(name)

    def total(self, table, name: str, tags=None, parent: str | None = None) -> float:
        """Sum of `table` (calls, busy or self_s) for one function, optionally
        restricted to op tags and to one caller."""
        fid = self.fid(name)
        pid = None if parent is None else self.fid(parent)
        return sum(
            v for (f, tag, p), v in table.items()
            if f == fid and (tags is None or tag in tags) and (pid is None or p == pid)
        )

    def ms_per_call(self, name: str, tags=None, parent: str | None = None) -> float:
        calls = self.total(self.calls, name, tags, parent)
        return 1e3 * self.total(self.busy, name, tags, parent) / calls if calls else 0.0

    def per_call(self, parent: str, child: str) -> float:
        """Calls of `child` made directly by `parent`, per call of `parent`."""
        calls = self.total(self.calls, parent)
        return self.total(self.calls, child, parent=parent) / calls if calls else 0.0

    def p50_us(self, fid: int) -> float:
        hist = self.hist[fid]
        half, seen = sum(hist.values()) / 2.0, 0
        for bucket in sorted(hist):
            seen += hist[bucket]
            if seen >= half:
                return 1e6 * math.exp((bucket + 0.5) / _BUCKETS)
        return 0.0

    def table(self) -> dict:
        """Per function: calls, busy_s, self_s, us_p50 and failed; per layer:
        calls and self_s."""
        out = {}
        for fid, name in enumerate(self.names):
            out[f"{name}.calls"] = self.total(self.calls, name)
            out[f"{name}.busy_s"] = self.total(self.busy, name)
            out[f"{name}.self_s"] = self.total(self.self_s, name)
            out[f"{name}.us_p50"] = self.p50_us(fid)
            out[f"{name}.failed"] = sum(n for (f, _), n in self.failed.items() if f == fid)
            layer = self.layer_of[fid]
            out[f"layer.{layer}.calls"] = out.get(f"layer.{layer}.calls", 0) + out[f"{name}.calls"]
            out[f"layer.{layer}.self_s"] = out.get(f"layer.{layer}.self_s", 0.0) + out[f"{name}.self_s"]
        return out

    def failures(self) -> dict:
        return {f"{self.names[f]}.{exc}": n for (f, exc), n in sorted(self.failed.items())}

    def spans(self) -> list:
        return [[self.names[f], parent, tag, start, end] for f, parent, tag, start, end in self.raw]
