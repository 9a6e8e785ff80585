"""Timing wrappers around snnflow's public functions, for the traced run.

``Tracer.install`` replaces each traced function in every module
namespace that binds it (modules import each other's functions by name,
so ``dse.execute``, ``mapping.execute`` and ``sdfg.execute`` are three
bindings of one function) and ``HardwareGraph.routed_latencies`` on its
class.  Calls that a module makes to its own functions go through its
namespace too, so ``check_deadlock``'s call to ``repetition_vector`` is
seen.  Each call records a span ``[name, layer, site, start, end,
parent, round, phase]``: ``layer`` is the module that defines the
function, ``site`` the namespace the caller reached it through, and
``round`` counts ``init_partition`` calls, which open every round.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict

from snnflow import dse, lif, mapping, partition, sdfg, snn_graph
import snnflow

LAYERS = ("snn_graph", "lif", "partition", "sdfg", "mapping", "dse")
MODULES = {"snnflow": snnflow, "snn_graph": snn_graph, "lif": lif,
           "partition": partition, "sdfg": sdfg, "mapping": mapping,
           "dse": dse}

TRACED = {
    "snn_graph": ("load_snn_graph", "load_hardware_graph"),
    "lif": ("load_spike_trains", "estimate_rates"),
    "partition": ("init_partition", "kl_refine", "communication_cost",
                  "build_clustered_graph"),
    "sdfg": ("lift_to_sdfg", "repetition_vector", "check_deadlock",
             "execute", "self_timed_throughput"),
    "mapping": ("search_mapping", "decode_position", "evaluate_mapping",
                "validate_mapping", "build_schedules"),
    "dse": ("run_design_flow", "sweep_buffers", "pareto_filter"),
}

NAME, LAYER, SITE, START, END, PARENT, ROUND, PHASE = range(8)


class Tracer:
    """Spans and counters of one traced run, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.round = -1
        self.phase = "setup"
        self.counts: dict[str, float] = defaultdict(float)
        self._saved: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------

    def install(self) -> None:
        for layer, names in TRACED.items():
            home = MODULES[layer]
            for name in names:
                fn = getattr(home, name)
                for site, mod in MODULES.items():
                    if getattr(mod, name, None) is fn:
                        self._patch(mod, name, self._wrap(fn, name, layer, site))
        cls = snn_graph.HardwareGraph
        self._patch(cls, "routed_latencies",
                    self._wrap(cls.routed_latencies, "routed_latencies",
                               "snn_graph", "snn_graph"))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._saved):
            setattr(owner, name, original)
        self._saved.clear()

    def _patch(self, owner, name: str, wrapper) -> None:
        self._saved.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrapper)

    def _wrap(self, fn, name: str, layer: str, site: str):
        tracer = self
        hook = getattr(self, f"_after_{name}", None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name == "init_partition":
                tracer.round += 1
            if name == "kl_refine" and kwargs.get("trace") is None \
                    and len(args) < 4:
                kwargs["trace"] = []
            span = [name, layer, site, 0.0, 0.0,
                    tracer.stack[-1] if tracer.stack else -1,
                    tracer.round, tracer.phase]
            tracer.stack.append(len(tracer.spans))
            tracer.spans.append(span)
            ok = False
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                span[END] = time.perf_counter()
                tracer.stack.pop()
                tracer.counts[f"{name}.calls"] += 1
                tracer.counts[f"{name}.ok"] += ok
            if hook is not None:
                hook(args, kwargs, result)
            return result
        return wrapper

    # -- work counters ------------------------------------------------

    def _after_estimate_rates(self, args, kwargs, result) -> None:
        params = kwargs.get("params") or lif.LifParams()
        frames = kwargs["frames"]
        frame_length = next(tr.frame_length for fr in frames
                            for tr in fr.values())
        steps = max(1, int(round(frame_length / params.dt)))
        self.counts["neuron_steps"] += len(result.neurons) * steps * len(frames)

    def _after_kl_refine(self, args, kwargs, result) -> None:
        trace = kwargs["trace"] if "trace" in kwargs else args[3]
        self.counts["refine_sweeps"] += len(trace)
        self.counts["swaps_accepted"] += sum(len(r["accepted"]) for r in trace)

    def _after_communication_cost(self, args, kwargs, result) -> None:
        self.counts["cut_spikes"] += result

    def _after_build_clustered_graph(self, args, kwargs, result) -> None:
        self.counts["clusters"] += len(result.clusters)

    def _after_check_deadlock(self, args, kwargs, result) -> None:
        self.counts["live_rounds"] += result is None

    def _after_execute(self, args, kwargs, result) -> None:
        self.counts["firings"] += len(result.firing_log)

    def _after_sweep_buffers(self, args, kwargs, result) -> None:
        self.counts["sweep_steps"] += len(result)

    def _after_run_design_flow(self, args, kwargs, result) -> None:
        self.counts["rounds_ok"] += sum(r.error is None for r in result.rounds)

    # -- reports ------------------------------------------------------

    def write(self, path: str) -> None:
        """Write every span as one JSON array per line."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(["name", "layer", "site", "start", "end",
                                 "parent", "round", "phase"]) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    def metrics(self, ops: int, traced_s: float, untraced_s: float
                ) -> dict[str, float]:
        """Per-operation layer metrics over ``ops`` traced operations.

        ``traced_s`` and ``untraced_s`` are the summed wall times of the
        same operations run with and without the wrappers.
        """
        run = [s for s in self.spans if s[PHASE] == "run"]
        setup = [s for s in self.spans if s[PHASE] == "setup"]
        child_time = defaultdict(float)
        for s in run:
            if s[PARENT] >= 0:
                child_time[s[PARENT]] += s[END] - s[START]
        self_time = defaultdict(float)
        for i, s in enumerate(self.spans):
            if s[PHASE] == "run":
                self_time[s[LAYER]] += s[END] - s[START] - child_time[i]

        def total(spans, name, site=None) -> float:
            return sum(s[END] - s[START] for s in spans
                       if s[NAME] == name and site in (None, s[SITE]))

        def calls(name) -> float:
            return sum(1 for s in run if s[NAME] == name)

        c = self.counts
        decoded = c["decode_position.ok"]
        evals = c["evaluate_mapping.calls"]
        per_op = {
            "snn_graph.load_s": total(setup, "load_snn_graph")
            + total(setup, "load_hardware_graph"),
            "snn_graph.routes_calls": calls("routed_latencies"),
            "snn_graph.routes_s": total(run, "routed_latencies"),
            "lif.load_s": total(setup, "load_spike_trains"),
            "lif.rates_s": total(run, "estimate_rates"),
            "lif.neuron_steps": c["neuron_steps"],
            "partition.init_s": total(run, "init_partition"),
            "partition.refine_s": total(run, "kl_refine"),
            "partition.refine_sweeps": c["refine_sweeps"],
            "partition.swaps_accepted": c["swaps_accepted"],
            "partition.cut_spikes": c["cut_spikes"],
            "partition.clusters": c["clusters"],
            "partition.cluster_s": total(run, "build_clustered_graph"),
            "sdfg.lift_s": total(run, "lift_to_sdfg"),
            "sdfg.liveness_s": total(run, "check_deadlock"),
            "sdfg.live_rounds": c["live_rounds"],
            "sdfg.repvec_calls": calls("repetition_vector"),
            "sdfg.repvec_s": total(run, "repetition_vector"),
            "sdfg.exec_calls": calls("execute"),
            "sdfg.exec_s": total(run, "execute"),
            "sdfg.firings": c["firings"],
            "mapping.search_calls": calls("search_mapping"),
            "mapping.search_s": total(run, "search_mapping"),
            "mapping.fitness_calls": calls("decode_position"),
            "mapping.decode_s": total(run, "decode_position"),
            "mapping.evals": evals,
            "mapping.rejected": (c["decode_position.calls"] - decoded)
            + (evals - c["evaluate_mapping.ok"]),
            "mapping.validate_s": total(run, "validate_mapping"),
            "mapping.schedule_s": total(run, "build_schedules"),
            "mapping.rate_s": total(run, "self_timed_throughput", "mapping"),
            "dse.sweep_steps": c["sweep_steps"],
            "dse.sweep_s": total(run, "sweep_buffers"),
            "dse.blockcount_s": total(run, "execute", "dse"),
            "dse.pareto_s": total(run, "pareto_filter"),
            "dse.rounds_ok": c["rounds_ok"],
        }
        for layer in LAYERS:
            per_op[f"{layer}.self_s"] = self_time[layer]
        out = {k: v / ops for k, v in per_op.items()}
        out["mapping.cache_hit_ratio"] = 1 - evals / decoded if decoded else 0.0
        out["mapping.useful_ratio"] = (c["evaluate_mapping.ok"] / evals
                                       if evals else 0.0)
        for layer in LAYERS:
            out[f"{layer}.share"] = self_time[layer] / untraced_s
        out["trace.coverage"] = sum(self_time[l] for l in LAYERS) / traced_s
        out["trace.overhead_s"] = (traced_s - untraced_s) / ops
        out["trace.overhead_frac"] = (traced_s - untraced_s) / untraced_s
        out["trace.spans"] = len(run) / ops
        return out
