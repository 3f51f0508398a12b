"""Spans and counters at the module boundaries of ``causal_fields``.

The tracer wraps public functions of each module from outside (it edits no
library code) and restores them on ``uninstall``.  Each wrapped call is
either a *span* (name, start, end, parent span, op id, kept in memory and
written out at the end of a run) or, for boundaries hit hundreds of
thousands of times per op, an *aggregate* (a call count and a total time,
no per-call record).  Aggregates are leaves: wrapped functions they call
run unrecorded and their time is charged to the aggregate's layer.

Self time of a span is its duration minus the time of its child spans and
aggregates; summed per layer it gives the self-time table.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

LAYERS = ("order", "slices", "process", "field_theory", "cca", "cli")

# (layer, owner, attribute, group).  ``owner`` is a module name or
# "module:Class" for a method.  The group names the per-layer metric the
# boundary feeds; ``None`` only places the span so that self time lands in
# the right layer.
SPANS = [
    ("cli", "causal_fields.cli", "main", "cli"),
    ("order", "causal_fields.order", "order_from_json", "closure"),
    ("order", "causal_fields.order", "build_explicit", "closure"),
    ("order", "causal_fields.order", "materialize", "closure"),
    ("order", "causal_fields.order", "future", "query"),
    ("order", "causal_fields.order", "past", "query"),
    ("order", "causal_fields.order", "future_domain", "query"),
    ("order", "causal_fields.order", "past_domain", "query"),
    ("order", "causal_fields.order", "diamond", "query"),
    ("slices", "causal_fields.slices", "validate_slice_category", "validate"),
    ("slices", "causal_fields.slices", "validate_foliation", "validate"),
    ("slices", "causal_fields.slices", "is_cauchy", "validate"),
    ("slices", "causal_fields.slices", "foliation_category", "validate"),
    ("slices", "causal_fields.slices", "all_slices_category", "validate"),
    ("process", "causal_fields.process", "deviation", "deviation"),
    ("process", "causal_fields.process", "compile_kernel", "compile"),
    ("process", "causal_fields.process", "apply", "apply"),
    ("field_theory", "causal_fields.field_theory", "check_functoriality", "check"),
    ("field_theory", "causal_fields.field_theory", "check_monoidality", "check"),
    ("field_theory", "causal_fields.field_theory", "check_environment", "check"),
    ("field_theory", "causal_fields.field_theory", "check_reversal", "check"),
    ("field_theory", "causal_fields.field_theory:FieldTheory", "mor", "mor"),
    ("cca", "causal_fields.cca", "one_step_kernel", "kernel_build"),
    ("cca", "causal_fields.cca", "reverse_one_step_kernel", "kernel_build"),
    ("cca", "causal_fields.cca", "restriction_kernel", "kernel_build"),
    ("cca", "causal_fields.cca", "ring_step_morphism", "kernel_build"),
    ("cca", "causal_fields.cca", "window_morphisms", "sampler"),
    ("cca", "causal_fields.cca", "window_slices", "sampler"),
    ("cca", "causal_fields.cca", "sample_separated_quads", "sampler"),
    ("cca", "causal_fields.cca", "sample_zigzag_chain_pairs", "sampler"),
    ("cca", "causal_fields.cca", "sample_words", "sampler"),
    ("cca", "causal_fields.cca", "ring_site_marginals", "marginals"),
    ("cca", "causal_fields.cca", "site_probabilities", "marginals"),
    ("cca", "causal_fields.cca", "run_single_particle", "single_particle"),
    ("cca", "causal_fields.cca", "build_cca", None),
    ("cca", "causal_fields.cca", "build_reversal", None),
    ("cca", "causal_fields.cca", "cca_config_from_json", None),
    ("cca", "causal_fields.cca", "check_invariance", None),
    ("cca", "causal_fields.cca", "check_symmetry_action", None),
]

# Hot boundaries: ~830k region_between calls per ``check category`` and
# ~18k hom calls per sampler call.  Generator functions are aggregates too,
# timed per resumption.
AGGREGATES = [
    ("order", "causal_fields.order", "region_between", "region"),
    ("cca", "causal_fields.cca:LatticeSliceCategory", "hom", "hom"),
    ("process", "causal_fields.process", "compose", "compose"),
    ("order", "causal_fields.order", "causal_paths", "query"),
    ("slices", "causal_fields.slices", "enumerate_slices", "enumerate"),
    ("slices", "causal_fields.slices", "maximal_slices", "enumerate"),
]


def _resolve(owner: str):
    mod_name, _, cls_name = owner.partition(":")
    obj = sys.modules[mod_name]
    return getattr(obj, cls_name) if cls_name else obj


class Tracer:
    """Records spans and aggregates while installed."""

    def __init__(self):
        self.spans: list[list] = []  # [name, layer, start, end, parent, op]
        self.op = None
        self.calls: dict[str, int] = {}
        self.agg_time: dict[str, float] = {}
        self.group_calls: dict[str, int] = {}  # outermost calls only
        self.group_time: dict[str, float] = {}  # outermost calls only
        self.group_self: dict[str, float] = {}
        self.layer_self = dict.fromkeys(LAYERS, 0.0)
        self.errors = dict.fromkeys(LAYERS, 0)
        self.counters: dict[str, float] = {}
        self._stack: list[list] = []  # [span index, child time]
        self._depth: dict[str, int] = {}
        self._suppress = 0
        self._patches: list[tuple] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        for layer, owner, attr, group in SPANS:
            self._patch(owner, attr, self._span_wrapper(layer, attr, group))
        for layer, owner, attr, group in AGGREGATES:
            self._patch(owner, attr, self._aggregate_wrapper(layer, attr, group))

    def uninstall(self) -> None:
        for target, attr, orig in reversed(self._patches):
            setattr(target, attr, orig)
        self._patches.clear()

    def _patch(self, owner: str, attr: str, make) -> None:
        target = _resolve(owner)
        orig = getattr(target, attr)
        wrapper = functools.wraps(orig)(make(orig))
        if ":" in owner:
            self._patches.append((target, attr, orig))
            setattr(target, attr, wrapper)
            return
        # ``from .x import f`` copies the name: rebind it in every module.
        for name, mod in list(sys.modules.items()):
            if name == "causal_fields" or name.startswith("causal_fields."):
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._patches.append((mod, key, orig))
                        setattr(mod, key, wrapper)

    # -- recording ----------------------------------------------------------

    def _count(self, key: str, n: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def _note_error(self, layer: str, exc: BaseException) -> None:
        seen = getattr(exc, "_perfbench_layers", None)
        if seen is None:
            seen = set()
            try:
                exc._perfbench_layers = seen
            except AttributeError:
                pass
        if layer not in seen:
            seen.add(layer)
            self.errors[layer] += 1

    def _on_call(self, group: str | None, args) -> None:
        """Shape-derived counters, read before the call."""
        if group == "deviation":
            f = args[0]
            entries = f.dom.dim * f.cod.dim
            self._count("deviation_choi_entries", entries * entries if f.backend == "quantum" else entries)
        elif group == "compile":
            if args[0]._cache.get("kernel") is not None:
                self._count("compile_hits")
        elif group == "mor":
            theory, sigma, gamma = args[0], args[1], args[2]
            if (frozenset(sigma), frozenset(gamma)) in theory._mors:
                self._count("mor_hits")
        elif group == "apply":
            self._count("apply_bytes", args[1].data.nbytes)

    def _on_return(self, group: str | None, result) -> None:
        if group == "apply":
            self._count("apply_bytes", result.data.nbytes)

    def _span_wrapper(self, layer: str, attr: str, group: str | None):
        tracer = self

        def make(orig):
            key = f"{layer}.{attr}"

            def wrapper(*args, **kwargs):
                if tracer._suppress:
                    return orig(*args, **kwargs)
                tracer.calls[key] = tracer.calls.get(key, 0) + 1
                tracer._on_call(group, args)
                parent = tracer._stack[-1][0] if tracer._stack else -1
                index = len(tracer.spans)
                span = [key, layer, 0.0, 0.0, parent, tracer.op]
                tracer.spans.append(span)
                frame = [index, 0.0]
                tracer._stack.append(frame)
                if group:
                    depth = tracer._depth.get(group, 0)
                    if not depth:
                        tracer.group_calls[group] = tracer.group_calls.get(group, 0) + 1
                    tracer._depth[group] = depth + 1
                span[2] = time.perf_counter()
                try:
                    result = orig(*args, **kwargs)
                except BaseException as exc:
                    tracer._note_error(layer, exc)
                    raise
                finally:
                    span[3] = end = time.perf_counter()
                    tracer._stack.pop()
                    dur = end - span[2]
                    own = dur - frame[1]
                    tracer.layer_self[layer] += own
                    if tracer._stack:
                        tracer._stack[-1][1] += dur
                    if group:
                        tracer._depth[group] -= 1
                        tracer.group_self[group] = tracer.group_self.get(group, 0.0) + own
                        if not tracer._depth[group]:
                            tracer.group_time[group] = tracer.group_time.get(group, 0.0) + dur
                tracer._on_return(group, result)
                return result

            return wrapper

        return make

    def _charge(self, layer: str, key: str, group: str, dur: float, call: bool) -> None:
        if call:
            self.calls[key] = self.calls.get(key, 0) + 1
            self.group_calls[group] = self.group_calls.get(group, 0) + 1
        self.agg_time[key] = self.agg_time.get(key, 0.0) + dur
        self.layer_self[layer] += dur
        self.group_time[group] = self.group_time.get(group, 0.0) + dur
        if self._stack:
            self._stack[-1][1] += dur

    def _aggregate_wrapper(self, layer: str, attr: str, group: str):
        tracer = self

        def make(orig):
            key = f"{layer}.{attr}"
            if inspect.isgeneratorfunction(orig):
                return self._generator_wrapper(layer, key, group, orig)

            def wrapper(*args, **kwargs):
                if tracer._suppress:
                    return orig(*args, **kwargs)
                tracer._suppress += 1
                start = time.perf_counter()
                try:
                    return orig(*args, **kwargs)
                except BaseException as exc:
                    tracer._note_error(layer, exc)
                    raise
                finally:
                    dur = time.perf_counter() - start
                    tracer._suppress -= 1
                    tracer._charge(layer, key, group, dur, True)

            return wrapper

        return make

    def _generator_wrapper(self, layer: str, key: str, group: str, orig):
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer._suppress:
                yield from orig(*args, **kwargs)
                return
            it = orig(*args, **kwargs)
            first = True
            while True:
                tracer._suppress += 1
                start = time.perf_counter()
                try:
                    item = next(it)
                except StopIteration:
                    return
                except BaseException as exc:
                    tracer._note_error(layer, exc)
                    raise
                finally:
                    dur = time.perf_counter() - start
                    tracer._suppress -= 1
                    tracer._charge(layer, key, group, dur, first)
                    first = False
                tracer._count(f"{group}_items")
                yield item

        return wrapper

    # -- results ------------------------------------------------------------

    def metrics(self, rounds: int, output_bytes: float) -> dict:
        """Per-layer metrics, per round of the op list."""
        gt, gs, c = self.group_time, self.group_self, self.counters

        calls = self.calls.get

        def ratio(hits, total):
            return hits / total if total else 0.0

        dev_calls = calls("process.deviation", 0)
        comp_calls = calls("process.compile_kernel", 0)
        mor_calls = calls("field_theory.mor", 0)
        raw = {
            "process.deviation_s": (gt.get("deviation", 0.0), "s"),
            "process.deviation_calls": (dev_calls, "count"),
            "process.deviation_choi_entries": (c.get("deviation_choi_entries", 0), "count"),
            "process.compile_s": (gt.get("compile", 0.0), "s"),
            "process.compile_calls": (comp_calls, "count"),
            "process.compile_hit_ratio": (ratio(c.get("compile_hits", 0), comp_calls), "ratio"),
            "process.apply_s": (gt.get("apply", 0.0), "s"),
            "process.apply_calls": (calls("process.apply", 0), "count"),
            "process.apply_bytes": (c.get("apply_bytes", 0), "B"),
            "process.compose_s": (gt.get("compose", 0.0), "s"),
            "process.compose_calls": (calls("process.compose", 0), "count"),
            "cca.kernel_build_s": (gt.get("kernel_build", 0.0), "s"),
            "cca.kernel_builds": (self.group_calls.get("kernel_build", 0), "count"),
            "cca.sampler_s": (gt.get("sampler", 0.0), "s"),
            "cca.hom_calls": (calls("cca.hom", 0), "count"),
            "cca.marginals_s": (gt.get("marginals", 0.0), "s"),
            "cca.single_particle_s": (gt.get("single_particle", 0.0), "s"),
            "cli.output_bytes": (output_bytes, "B"),
            "field_theory.check_self_s": (gs.get("check", 0.0), "s"),
            "field_theory.mor_calls": (mor_calls, "count"),
            "field_theory.mor_hit_ratio": (ratio(c.get("mor_hits", 0), mor_calls), "ratio"),
            "order.closure_s": (gt.get("closure", 0.0), "s"),
            "order.query_s": (gt.get("query", 0.0), "s"),
            "order.query_calls": (self.group_calls.get("query", 0), "count"),
            "order.region_s": (gt.get("region", 0.0), "s"),
            "order.region_calls": (calls("order.region_between", 0), "count"),
            "slices.enumerate_s": (gt.get("enumerate", 0.0), "s"),
            "slices.enumerated": (c.get("enumerate_items", 0), "count"),
            "slices.validate_self_s": (gs.get("validate", 0.0), "s"),
        }
        for layer in LAYERS:
            raw[f"{layer}.self_s"] = (self.layer_self[layer], "s")
            raw[f"{layer}.errors"] = (self.errors[layer], "count")
        out = {}
        for name, (value, unit) in raw.items():
            # ratios are already per call; everything else is per round
            if unit != "ratio":
                value = value / rounds
            out[name] = {"value": value, "unit": unit}
        return out

    def dump(self) -> dict:
        """The span file: spans, aggregates and the per-layer self-time table."""
        return {
            "span_fields": ["name", "layer", "start_s", "end_s", "parent", "op"],
            "spans": self.spans,
            "aggregates": {
                k: {"calls": self.calls.get(k, 0), "total_s": v} for k, v in sorted(self.agg_time.items())
            },
            "self_time_s": dict(self.layer_self),
            "errors": dict(self.errors),
        }
