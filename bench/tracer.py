"""Spans around the calls into each localk3 module, recorded from outside.

Tracer.install replaces every public function of the package's modules,
plus MultiSeries.mul and LaurentPoly.__mul__, with a timing wrapper in
every namespace that holds it: the defining module, each module that
imported it, the package itself, and default arguments.  A span's self
time is its duration minus the time of the spans it caused.  The time
spent in the tracer's own result scans is taken out of every enclosing
span, so it shows only in trace.overhead_frac.

layer_metrics turns the raw counters of one pass into the per-layer
metrics, and expectation_errors checks which layers a workload must and
must not reach.
"""

from __future__ import annotations

import importlib
import sys
import types
from time import perf_counter

PACKAGE = "localk3"
LAYERS = ("lattice", "series", "invariants", "modular", "ptseries", "cli")
METHODS = {("series", "MultiSeries", "mul"): "series.mul",
           ("series", "LaurentPoly", "__mul__"): "series.laurent_mul"}
CLI_SUBCOMMANDS = ("hilb", "jinv", "pt", "xbar-verify", "ky-verify", "bps", "isometry")

# (metric, unit), in the order BENCHMARK.json lists them
PER_LAYER = (
    [("series.mul.calls", "count"), ("series.mul.self_s", "s"),
     ("series.mul.terms_in", "count"), ("series.mul.terms_out", "count"),
     ("series.exp.calls", "count"), ("series.exp.s", "s"),
     ("series.pow_binomial.calls", "count"), ("series.pow_binomial.s", "s"),
     ("series.log.calls", "count"), ("series.log.s", "s"),
     ("series.qz_mul.calls", "count"), ("series.qz_mul.s", "s"),
     ("series.qz_invert.calls", "count"), ("series.qz_invert.s", "s"),
     ("series.laurent_mul.calls", "count"), ("series.max_coeff_bits", "bits"),
     ("modular.delta.s", "s"), ("modular.inv_delta.calls", "count"),
     ("modular.inv_delta.self_s", "s"), ("modular.inv_delta.terms_out", "count"),
     ("invariants.hilb_table.calls", "count"), ("invariants.hilb_table.s", "s"),
     ("invariants.conjectural_J.calls", "count"), ("invariants.conjectural_J.s", "s"),
     ("invariants.hilb_euler.calls", "count")]
    + [(f"ptseries.{fn}.{stat}", "s")
       for fn in ("pt_main", "pt_borcherds", "pt_xbar", "gv_extract",
                  "bps_extract", "ky_identity_check")
       for stat in ("s", "self_s")]
    + [("ptseries.window_useful_frac", "frac"),
       ("lattice.apply_isometry.calls", "count"), ("lattice.apply_isometry.s", "s"),
       ("lattice.enumerate_effective.calls", "count")]
    + [(f"cli.{sub}.{stat}", unit) for sub in CLI_SUBCOMMANDS
       for stat, unit in (("s", "s"), ("bytes_out", "count"), ("rss_mb", "MB"))]
    + [("cli.self_s", "s"), ("trace.overhead_frac", "frac")]
)

# span -> (workloads that must reach it, workloads that must not)
EXPECTED = {
    "series.mul": ({"pairs", "cli"}, {"wall"}),
    "series.exp": ({"pairs", "cli"}, {"wall"}),
    "series.pow_binomial": ({"pairs"}, {"wall", "cli"}),
    "series.log": ({"cli"}, {"pairs", "wall"}),
    "series.qz_mul": ({"wall", "cli"}, {"pairs"}),
    "series.qz_invert": ({"wall", "cli"}, {"pairs"}),
    "series.laurent_mul": ({"wall", "cli"}, {"pairs"}),
    "modular.delta": ({"wall", "cli"}, {"pairs"}),
    "modular.inv_delta": ({"wall", "cli"}, {"pairs"}),
    "invariants.hilb_table": ({"cli"}, set()),
    "invariants.conjectural_J": ({"pairs", "cli"}, {"wall"}),
    "invariants.hilb_euler": ({"pairs", "cli"}, set()),
    "ptseries.pt_main": ({"pairs", "cli"}, {"wall"}),
    "ptseries.pt_borcherds": ({"pairs"}, {"wall", "cli"}),
    "ptseries.pt_xbar": ({"pairs", "cli"}, {"wall"}),
    "ptseries.gv_extract": ({"cli"}, {"pairs", "wall"}),
    "ptseries.bps_extract": ({"wall", "cli"}, {"pairs"}),
    "ptseries.ky_identity_check": ({"wall", "cli"}, {"pairs"}),
    "lattice.apply_isometry": ({"cli"}, {"pairs", "wall"}),
    "lattice.enumerate_effective": ({"pairs", "cli"}, {"wall"}),
    "cli.main": ({"cli"}, {"pairs", "wall"}),
}


def _series_scan(series) -> tuple[int, int]:
    """(number of terms, largest numerator or denominator in bits)."""
    n = bits = 0
    for _cls, _k, v in series.terms():
        n += 1
        bits = max(bits, v.numerator.bit_length(), v.denominator.bit_length())
    return n, bits


def _qz_scan(series) -> tuple[int, int]:
    n = bits = 0
    for _m, poly in series.rows():
        for _e, v in poly.items():
            n += 1
            bits = max(bits, v.numerator.bit_length(), v.denominator.bit_length())
    return n, bits


def _values_bits(values) -> int:
    return max((max(v.numerator.bit_length(), v.denominator.bit_length())
                for v in values), default=0)


class Tracer:
    def __init__(self):
        self.spans: dict[str, list] = {}  # name -> [calls, s, self_s]
        self.counts: dict[str, int] = {}
        self.max_bits = 0
        self.unwrapped: list[str] = []
        self._stack: list[list] = []  # [name, child_s, scan_s]
        self._active: dict[str, int] = {}
        self._originals: dict[int, object] = {}

    def reset(self) -> None:
        for stat in self.spans.values():
            stat[:] = [0, 0.0, 0.0]
        self.counts.clear()
        self.max_bits = 0

    def _add(self, key: str, n: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def _scan(self, name: str, args: tuple, result, parent: str | None) -> None:
        """Count terms and coefficient sizes of a traced call's result."""
        if name in ("series.mul", "series.exp", "series.log", "ptseries.pt_main",
                    "ptseries.pt_borcherds", "ptseries.pt_xbar"):
            n, bits = _series_scan(result)
            if name == "series.mul":
                self._add("series.mul.terms_in",
                          _series_scan(args[0])[0] + _series_scan(args[1])[0])
                self._add("series.mul.terms_out", n)
            elif name == "series.exp" and parent in ("ptseries.pt_main", "ptseries.pt_xbar"):
                self._add("window.padded", n)
            elif name in ("ptseries.pt_main", "ptseries.pt_xbar"):
                self._add("window.reported", n)
        elif name in ("series.qz_invert", "modular.delta", "modular.inv_delta"):
            n, bits = _qz_scan(result)
            if name == "modular.inv_delta":
                self._add("modular.inv_delta.terms_out", n)
        elif name == "invariants.hilb_table":
            bits = _values_bits(result.values)
        elif name in ("ptseries.bps_extract", "ptseries.gv_extract"):
            bits = _values_bits(result.entries.values())
        else:
            return
        self.max_bits = max(self.max_bits, bits)

    def wrap(self, name: str, fn):
        spans, stack, active = self.spans, self._stack, self._active
        spans[name] = [0, 0.0, 0.0]
        scan = self._scan

        def traced(*args, **kwargs):
            frame = [name, 0.0, 0.0]
            stack.append(frame)
            outer = not active.get(name)
            active[name] = active.get(name, 0) + 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                active[name] -= 1
                stack.pop()
            t1 = perf_counter()
            scan(name, args, result, stack[-1][0] if stack else None)
            scan_s = perf_counter() - t1
            stat = spans[name]
            stat[0] += 1
            if outer:
                stat[1] += dt - frame[2]
            stat[2] += dt - frame[1]
            if stack:
                stack[-1][1] += dt + scan_s
                stack[-1][2] += frame[2] + scan_s
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = fn.__doc__
        return traced

    def _targets(self, modules: dict) -> dict:
        """id(original) -> (span name, original, wrapper)."""
        targets = {}
        for short in LAYERS:
            mod = modules[short]
            for attr, obj in vars(mod).items():
                if (isinstance(obj, types.FunctionType) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    targets[id(obj)] = (f"{short}.{attr}", obj)
        for (short, cls_name, attr), name in METHODS.items():
            fn = vars(getattr(modules[short], cls_name))[attr]
            targets[id(fn)] = (name, fn)
        return {key: (name, fn, self.wrap(name, fn)) for key, (name, fn) in targets.items()}

    @classmethod
    def install(cls) -> Tracer:
        """Import and wrap the localk3 package; record anything left unwrapped."""
        tracer = cls()
        modules = {short: importlib.import_module(f"{PACKAGE}.{short}") for short in LAYERS}
        targets = tracer._targets(modules)
        tracer._originals = {key: fn for key, (_n, fn, _w) in targets.items()}
        namespaces = [sys.modules[PACKAGE], *modules.values()]
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                if id(obj) in targets:
                    setattr(ns, attr, targets[id(obj)][2])
                elif isinstance(obj, type) and obj.__module__.startswith(PACKAGE):
                    for cattr, cobj in list(vars(obj).items()):
                        if id(cobj) in targets:
                            setattr(obj, cattr, targets[id(cobj)][2])
        for _name, fn, _wrapper in targets.values():
            if fn.__defaults__:
                fn.__defaults__ = tuple(targets[id(d)][2] if id(d) in targets else d
                                        for d in fn.__defaults__)
        tracer.unwrapped = tracer.completeness_errors(namespaces)
        return tracer

    def completeness_errors(self, namespaces: list) -> list[str]:
        """Every place that still holds an unwrapped public callable."""
        left = []
        originals = self._originals

        def check(where: str, obj) -> None:
            if id(obj) in originals and obj is originals[id(obj)]:
                left.append(where)

        for ns in namespaces:
            for attr, obj in vars(ns).items():
                check(f"{ns.__name__}.{attr}", obj)
                if isinstance(obj, type) and obj.__module__.startswith(PACKAGE):
                    for cattr, cobj in vars(obj).items():
                        check(f"{ns.__name__}.{attr}.{cattr}", cobj)
                # dispatch tables keep references the wrappers cannot replace
                items = obj.values() if isinstance(obj, dict) else (
                    obj if isinstance(obj, (list, tuple)) else ())
                for item in items:
                    check(f"{ns.__name__}.{attr} entry", item)
        for fn in originals.values():
            for d in fn.__defaults__ or ():
                check(f"{fn.__module__}.{fn.__name__} default", d)
        return sorted(set(left))

    def raw(self) -> dict:
        return {"spans": self.spans, "counts": self.counts,
                "max_bits": self.max_bits, "unwrapped": self.unwrapped}


def merge_raw(raws: list[dict]) -> dict:
    """Sum the raw counters of several processes of one pass."""
    out = {"spans": {}, "counts": {}, "max_bits": 0, "unwrapped": []}
    for raw in raws:
        for name, stat in raw["spans"].items():
            acc = out["spans"].setdefault(name, [0, 0.0, 0.0])
            for i, v in enumerate(stat):
                acc[i] += v
        for key, v in raw["counts"].items():
            out["counts"][key] = out["counts"].get(key, 0) + v
        out["max_bits"] = max(out["max_bits"], raw["max_bits"])
        out["unwrapped"] = sorted(set(out["unwrapped"]) | set(raw["unwrapped"]))
    return out


def layer_metrics(raw: dict) -> dict[str, float]:
    """Per-layer metric values of one traced pass, except trace.overhead_frac."""
    spans, counts = raw["spans"], raw["counts"]
    padded = counts.get("window.padded", 0)
    derived = {
        "series.max_coeff_bits": raw["max_bits"],
        "ptseries.window_useful_frac":
            counts.get("window.reported", 0) / padded if padded else 0.0,
        "cli.self_s": sum(stat[2] for name, stat in spans.items()
                          if name in ("cli.main", "cli.run")),
    }
    out = {}
    for metric, _unit in PER_LAYER:
        if metric == "trace.overhead_frac":
            continue
        span, stat = metric.rsplit(".", 1)
        if metric in derived:
            out[metric] = derived[metric]
        elif metric in counts or stat not in ("calls", "s", "self_s"):
            out[metric] = counts.get(metric, 0)
        else:
            out[metric] = spans.get(span, [0, 0.0, 0.0])[("calls", "s", "self_s").index(stat)]
    return out


def expectation_errors(workload: str, raw: dict) -> list[str]:
    errors = []
    for span, (reached, bypassed) in EXPECTED.items():
        calls = raw["spans"].get(span, [0])[0]
        if workload in reached and not calls:
            errors.append(f"{span} was never called on {workload}")
        if workload in bypassed and calls:
            errors.append(f"{span} was called {calls} times on {workload}, which bypasses it")
    return errors
