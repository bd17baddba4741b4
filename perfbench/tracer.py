"""Outside-in tracer for the per-layer metrics.

The program is not edited: the tracer replaces the module and class
attributes that callers look up at call time with timing wrappers, and puts
the originals back when the traced run ends. A function that one module
imports from another is looked up in the importing module, so it is patched
there (``abrplan.planner.exist_violation`` is the simulator as the planner
sees it).

Each wrapped call records a span (name, start, end, parent span) tagged
with the op it belongs to. Spans stay in memory in flat arrays and are
written once, when the run ends; self times, counts and ratios are derived
from them afterwards. A span's layer is the first dotted part of its name.
"""

from __future__ import annotations

import importlib
from array import array
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

import numpy as np

LAYERS = ("cli", "traces", "planner", "sim", "model")
BENCH = "bench"  # the benchmark's own code around the op
OP_SPAN = "bench.op"

# (owner, attribute, span name): ``owner`` is a module, or ``module:Class``.
TARGETS = (
    ("abrplan.cli", "main", "cli.main"),
    ("abrplan.cli", "load_trace", "traces.load_trace"),
    ("abrplan.cli", "enumerate_candidates", "planner.enumerate_candidates"),
    ("abrplan.cli", "select_candidate", "planner.select_candidate"),
    ("abrplan.cli", "compute_cost", "model.compute_cost"),
    ("abrplan.planner", "enumerate_candidates", "planner.enumerate_candidates"),
    ("abrplan.planner", "fit_ascending_levels", "planner.fit_ascending_levels"),
    ("abrplan.planner", "select_candidate", "planner.select_candidate"),
    ("abrplan.planner", "exhaustive_best_plan", "planner.exhaustive_best_plan"),
    ("abrplan.planner", "exist_violation", "sim.exist_violation"),
    ("abrplan.planner", "evaluate", "sim.evaluate"),
    ("abrplan.planner", "compute_utilization", "model.compute_utilization"),
    ("abrplan.planner", "compute_quality", "model.compute_quality"),
    ("abrplan.planner", "compute_cost", "model.compute_cost"),
    ("abrplan.sim", "transmit_video", "sim.transmit_video"),
    ("abrplan.sim", "make_threshold_schedule", "model.make_threshold_schedule"),
    ("abrplan.sim", "compute_utilization", "model.compute_utilization"),
    ("abrplan.sim", "compute_quality", "model.compute_quality"),
    ("abrplan.sim", "compute_cost", "model.compute_cost"),
    ("abrplan.model:QualityPlan", "validate", "model.QualityPlan.validate"),
    ("abrplan.model:QualityPlan", "__post_init__", "model.QualityPlan.init"),
    ("abrplan.model:CapacityTrace", "__post_init__", "model.CapacityTrace.init"),
)


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs.get(name)


# Counters read off a call's arguments or result, keyed by span name.
def _count_slots(counters, args, kwargs, result):
    counters["sim.slots_simulated"] += getattr(_arg(args, kwargs, 0, "trace"), "n_slots", 0)


def _count_thresholds(counters, args, kwargs, result):
    counters["planner.thresholds_examined"] += result[1]


def _count_oracle(counters, args, kwargs, result):
    if result is not None:
        counters["planner.oracle_nodes"] += result.nodes_visited
        counters["planner.oracle_selected"] += 1


RESULT_HOOKS = {
    "sim.transmit_video": _count_slots,
    "planner.enumerate_candidates": _count_thresholds,
    "planner.exhaustive_best_plan": _count_oracle,
}

# Exceptions counted by class name, so that no program module is imported
# here.
ERROR_COUNTERS = {("planner.exhaustive_best_plan", "OracleBudgetError"): "planner.oracle_refused"}


def _resolve_owner(owner: str):
    module_name, _, class_name = owner.partition(":")
    try:
        module = importlib.import_module(module_name)
    except ImportError:
        return None
    return getattr(module, class_name, None) if class_name else module


class Tracer:
    """Span recorder; create one per traced run, ``install`` it, wrap each
    op in ``op()``, then ``uninstall`` and read ``layer_metrics``."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("q")
        self.parent = array("q")
        self.op_id = array("q")
        self._stack = [-1]
        self._op = -1
        self.active = False
        self.counters: Counter = Counter()
        self.installed: set[str] = set()  # span names with at least one patch
        self.absent: list[str] = []  # targets the program no longer has
        self._undo: list = []

    def _id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, fn, span_name: str):
        nid = self._id(span_name)
        on_result = RESULT_HOOKS.get(span_name)
        tracer, end, stack, counters = self, self.end, self._stack, self.counters
        # bound appends: this wrapper runs thousands of times per op
        add_start, add_end = self.start.append, self.end.append
        add_name, add_parent, add_op = self.name.append, self.parent.append, self.op_id.append

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = len(end)
            add_end(0.0)
            add_name(nid)
            add_parent(stack[-1])
            add_op(tracer._op)
            stack.append(idx)
            add_start(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                counter = ERROR_COUNTERS.get((span_name, type(exc).__name__))
                if counter:
                    counters[counter] += 1
                raise
            finally:
                end[idx] = perf_counter()
                stack.pop()
            if on_result is not None:
                on_result(counters, args, kwargs, result)
            return result

        return traced

    def install(self, targets=TARGETS) -> None:
        self._id(OP_SPAN)
        self.absent = []
        for owner_name, attr, span_name in targets:
            owner = _resolve_owner(owner_name)
            if owner is None or not hasattr(owner, attr):
                self.absent.append(f"{owner_name}.{attr}")
                continue
            own = attr in vars(owner)
            original = vars(owner)[attr] if own else getattr(owner, attr)
            setattr(owner, attr, self._wrap(original, span_name))
            self._undo.append((owner, attr, original, own))
            self.installed.add(span_name)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original, own = self._undo.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    @contextmanager
    def op(self):
        """Span one op; program calls are recorded only inside it."""
        self._op += 1
        idx = len(self.end)
        self.end.append(0.0)
        self.name.append(self._name_ids[OP_SPAN])
        self.parent.append(-1)
        self.op_id.append(self._op)
        self._stack.append(idx)
        self.active = True
        self.start.append(perf_counter())
        try:
            yield
        finally:
            self.end[idx] = perf_counter()
            self.active = False
            self._stack.pop()

    def save(self, path: Path) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            name=np.frombuffer(self.name, dtype=np.int64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            op=np.frombuffer(self.op_id, dtype=np.int64),
        )

    def layer_metrics(self) -> tuple[dict, list[str]]:
        """Per-op layer metrics as ``{name: (value, unit)}``, plus the names
        of metrics left out because a span they need was never patched."""
        n_ops = self._op + 1
        name = np.frombuffer(self.name, dtype=np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64)
        n_names = len(self.names)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.shape[0])
        self_time = dur - child
        layer_names = (BENCH,) + LAYERS
        layer_of_name = np.array([layer_names.index(n.split(".")[0]) for n in self.names])
        layer_of_span = layer_of_name[name]
        parent_name = np.where(has_parent, name[np.maximum(parent, 0)], -1)
        parent_layer = np.where(has_parent, layer_of_name[np.maximum(parent_name, 0)], -1)
        calls = np.bincount(name, minlength=n_names)
        incl = np.bincount(name, weights=dur, minlength=n_names)
        planner = layer_names.index("planner")

        metrics: dict = {}
        absent: list[str] = []

        def have(*spans):
            return all(s == OP_SPAN or s in self.installed for s in spans)

        def nid(span):
            return self._name_ids.get(span, -1)

        def n_calls(span):
            return int(calls[nid(span)]) if nid(span) >= 0 else 0

        def seconds(span):
            return float(incl[nid(span)]) if nid(span) >= 0 else 0.0

        def put(metric, needs, value, unit):
            if have(*needs):
                metrics[metric] = (float(value), unit)
            else:
                absent.append(metric)

        def per_op(x):
            return x / n_ops

        def ratio(num, den):
            return num / den if den else 0.0

        for i, layer in enumerate(layer_names):
            put(f"{layer}.self_s", (), per_op(float(self_time[layer_of_span == i].sum())), "s/op")
        put("bench.op_s", (), per_op(seconds(OP_SPAN)), "s/op")

        for span in (
            "traces.load_trace",
            "planner.enumerate_candidates",
            "planner.fit_ascending_levels",
            "planner.select_candidate",
            "planner.exhaustive_best_plan",
            "model.QualityPlan.validate",
            "model.make_threshold_schedule",
            "model.compute_utilization",
        ):
            put(f"{span}.s", (span,), per_op(seconds(span)), "s/op")
        for span in (
            "traces.load_trace",
            "sim.exist_violation",
            "sim.transmit_video",
            "sim.evaluate",
            "model.QualityPlan.validate",
            "model.make_threshold_schedule",
        ):
            put(f"{span}.calls", (span,), per_op(n_calls(span)), "count/op")

        ev, fit, evaluate = nid("sim.exist_violation"), nid("planner.fit_ascending_levels"), nid("sim.evaluate")
        probes = int(np.count_nonzero((name == ev) & (parent_layer == planner)))
        fit_probes = int(np.count_nonzero((name == ev) & (parent_name == fit)))
        evaluations = int(np.count_nonzero((name == evaluate) & (parent_layer == planner)))
        selected = n_calls("planner.select_candidate") + self.counters["planner.oracle_selected"]
        c = self.counters
        put("planner.thresholds_examined", ("planner.enumerate_candidates",), per_op(c["planner.thresholds_examined"]), "count/op")
        put("planner.probes", ("sim.exist_violation",), per_op(probes), "count/op")
        put("planner.probes_per_threshold", ("sim.exist_violation", "planner.fit_ascending_levels"), ratio(fit_probes, n_calls("planner.fit_ascending_levels")), "count")
        put("planner.full_evaluations", ("sim.evaluate",), per_op(evaluations), "count/op")
        put("planner.selected_per_evaluated", ("sim.evaluate", "planner.select_candidate", "planner.exhaustive_best_plan"), ratio(selected, evaluations), "ratio")
        put("planner.oracle_nodes", ("planner.exhaustive_best_plan",), per_op(c["planner.oracle_nodes"]), "count/op")
        put("planner.oracle_refused", ("planner.exhaustive_best_plan",), per_op(c["planner.oracle_refused"]), "count/op")
        put("sim.exist_violation.us_per_call", ("sim.exist_violation",), 1e6 * ratio(seconds("sim.exist_violation"), n_calls("sim.exist_violation")), "us")
        put("sim.evaluate.us_per_call", ("sim.evaluate",), 1e6 * ratio(seconds("sim.evaluate"), n_calls("sim.evaluate")), "us")
        put("sim.slots_simulated", ("sim.transmit_video",), per_op(c["sim.slots_simulated"]), "count/op")
        put("sim.us_per_slot", ("sim.transmit_video",), 1e6 * ratio(seconds("sim.transmit_video"), c["sim.slots_simulated"]), "us")
        return metrics, absent
