"""Per-layer spans for a traced benchmark run.

The tracer wraps every public function of the `sjm` modules, and the public
methods of their classes, in a timing wrapper.  The modules import each
other's names directly (`from .linalg import partial_trace`), so a wrapper
is installed in every namespace that holds the function, i.e. where the
name is looked up at call time.  Spans nest: each records its inclusive time
and its self time, the inclusive time minus the time covered by its child
spans.  Only aggregates per span name are kept, in memory.

`uninstall()` puts every original object back, so a run can alternate
traced and untraced cycles in one process.
"""
from __future__ import annotations

import enum
import functools
import inspect
import json
import time
import types
from collections import defaultdict

MODULES = ("linalg", "bases", "analysis", "circuit", "network", "multiqubit", "cli")
PARSE_SPANS = ("cli.build_parser", "cli.parse_args", "cli.config_from_args")


class _Span:
    __slots__ = ("calls", "incl", "self")

    def __init__(self) -> None:
        self.calls = 0
        self.incl = 0.0
        self.self = 0.0


class Tracer:
    def __init__(self) -> None:
        self.spans: dict[str, _Span] = defaultdict(_Span)
        self.counters: dict[str, float] = defaultdict(float)
        self.ops = 0
        self.op_seconds = 0.0
        self.output_bytes = 0
        self._children: list[float] = []  # child time of each open span
        self._patches: list[tuple[object, str, object]] = []
        self._hooks = {
            "cli.build_parser": self._after_build_parser,
            "multiqubit.multi_sjm_basis": self._after_multi_basis,
            "multiqubit.gram_residual": self._after_gram,
        }

    # -- spans -------------------------------------------------------------

    def wrap(self, name: str, fn):
        hook = self._hooks.get(name)
        span = self.spans[name]
        children = self._children
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            children.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = children.pop()
                span.calls += 1
                span.incl += elapsed
                span.self += elapsed - child
                if children:
                    children[-1] += elapsed
            if hook is not None:
                hook(args, result)
            return result

        return traced

    def record_op(self, seconds: float, output_bytes: int) -> None:
        self.ops += 1
        self.op_seconds += seconds
        self.output_bytes += output_bytes

    # -- counters measured where the work happens --------------------------

    def _after_build_parser(self, args, parser) -> None:
        parser.parse_args = self.wrap("cli.parse_args", parser.parse_args)

    def _after_multi_basis(self, args, basis) -> None:
        # Computed from array sizes, not measured: bytes the dense states hold.
        states = getattr(basis, "states", ())
        self.counters["dense_bytes"] += sum(getattr(s, "nbytes", 0) for s in states)

    def _after_gram(self, args, check) -> None:
        count = len(args[0].states)
        all_pairs = count * (count - 1) // 2
        if getattr(check, "exhaustive", False):
            checked = all_pairs
        else:
            checked = getattr(check, "pairs_sampled", 0)
        self.counters["gram_pairs_checked"] += checked
        self.counters["gram_pairs_total"] += all_pairs

    # -- installation ------------------------------------------------------

    def install(self, package) -> None:
        """Wrap `package`'s public functions and methods where they are looked up."""
        modules = [getattr(package, m) for m in MODULES]
        wrappers: dict[int, object] = {}

        def wrapper_for(fn):
            if id(fn) not in wrappers:
                short = fn.__module__.rsplit(".", 1)[-1]
                wrappers[id(fn)] = self.wrap(f"{short}.{fn.__qualname__}", fn)
            return wrappers[id(fn)]

        for module in modules:
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or not getattr(obj, "__module__", "").startswith(package.__name__ + "."):
                    continue
                if inspect.isfunction(obj):
                    self._patch(module, name, wrapper_for(obj))
                elif inspect.isclass(obj) and obj.__module__ == module.__name__ and not issubclass(obj, enum.Enum):
                    for attr, member in list(vars(obj).items()):
                        if inspect.isfunction(member) and (not attr.startswith("_") or attr == "__post_init__"):
                            self._patch(obj, attr, wrapper_for(member))
        cli = package.cli
        proxy = types.ModuleType("json")
        proxy.__dict__.update(vars(json))
        proxy.dumps = self.wrap("cli.json_dumps", json.dumps)
        self._patch(cli, "json", proxy)

    def _patch(self, owner, name: str, value) -> None:
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    # -- per-layer metrics -------------------------------------------------

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-op averages over the traced ops: name -> (value, unit)."""
        ops = max(self.ops, 1)
        spans = self.spans

        def ms(total: float) -> float:
            return 1000.0 * total / ops

        def calls(name):
            return (spans[name].calls / ops, "count") if name in spans else (0.0, "count")

        def self_ms(name):
            return (ms(spans[name].self), "ms") if name in spans else (0.0, "ms")

        def incl_ms(name):
            return (ms(spans[name].incl), "ms") if name in spans else (0.0, "ms")

        out: dict[str, tuple[float, str]] = {
            "cli.parse_ms": (ms(sum(spans[s].incl for s in PARSE_SPANS if s in spans)), "ms"),
            "cli.self_ms": self_ms("cli.main"),
            "cli.json_dumps_ms": self_ms("cli.json_dumps"),
            "cli.output_bytes": (self.output_bytes / ops, "bytes"),
        }
        for layer in (m for m in MODULES if m != "cli"):
            total = sum(s.self for name, s in spans.items() if name.startswith(layer + "."))
            out[f"{layer}.self_ms"] = (ms(total), "ms")
        for name in ("bases.sjm_basis", "analysis.concurrence", "network.joint_distribution",
                     "multiqubit.multi_reduction_vector", "linalg.partial_trace"):
            out[f"{name}.calls"] = calls(name)
        for name in ("bases.sjm_basis", "analysis.concurrence", "analysis.reduction_vector",
                     "circuit.build_sjm_circuit", "circuit.verify_discrimination",
                     "network.joint_distribution", "multiqubit.multi_sjm_basis",
                     "multiqubit.gram_residual", "multiqubit.multi_reduction_vector",
                     "linalg.partial_trace"):
            out[f"{name}.ms"] = self_ms(name)
            out[f"{name}.incl_ms"] = incl_ms(name)
        out["network.triangle_state.calls"] = calls("network.triangle_state")
        out["linalg.tensor.calls"] = calls("linalg.tensor")
        out["multiqubit.dense_mb"] = (self.counters["dense_bytes"] / ops / 1e6, "MB-computed")
        out["multiqubit.gram_pairs_checked"] = (self.counters["gram_pairs_checked"] / ops, "count")
        total_pairs = self.counters["gram_pairs_total"]
        out["multiqubit.gram_coverage"] = (
            self.counters["gram_pairs_checked"] / total_pairs if total_pairs else 0.0,
            "ratio",
        )
        accounted = sum(s.self for s in spans.values())
        out["trace.op_ms"] = (ms(self.op_seconds), "ms")
        out["trace.accounted_ratio"] = (accounted / self.op_seconds if self.op_seconds else 0.0, "ratio")
        return out
