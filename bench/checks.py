"""Output checks run on every operation of the benchmark.

Each check returns a list of messages, empty when the output is correct.
The oracles here are the benchmark's own: an O(n^2) dominance scan, a
cut recomputed from the synapse list and a topological sort.  The
library is used only to rebuild the graph a result refers to and to
re-rate it.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction

from snnflow import dse, errors, mapping, sdfg


def exec_time_scale(cfg: dse.DesignFlowConfig):
    """The factor by which the time-wheel share stretches firings."""
    scale = Fraction(1) / Fraction(str(cfg.time_wheel_share))
    return int(scale) if scale.denominator == 1 else scale


def _dominated(p, points) -> bool:
    return any(q.throughput >= p.throughput and q.total_buffer <= p.total_buffer
               and (q.throughput > p.throughput
                    or q.total_buffer < p.total_buffer)
               for q in points)


def check_explore(hw, cfg: dse.DesignFlowConfig, result) -> list[str]:
    """The front is the non-dominated set of all points, and each of its
    points is a valid mapping whose schedules re-rate to its throughput
    on the allocated graph; no point beats the pipeline rate bound."""
    errs: list[str] = []
    points = result.points
    front = [(p.throughput, p.total_buffer) for p in result.front.points]
    expected = {(p.throughput, p.total_buffer) for p in points
                if not _dominated(p, points)}
    if len(set(front)) != len(front) or set(front) != expected:
        errs.append(f"front {sorted(front)} is not the non-dominated set "
                    f"{sorted(expected)}")

    scale = exec_time_scale(cfg)
    base_exec = max(c.exec_time for c in hw.cores)
    graphs = {r.round_index: sdfg.lift_to_sdfg(r.clustered, base_exec)
              for r in result.rounds if r.error is None}
    for p in points:
        bound = dse.pipeline_rate_bound(graphs[p.round_index], hw, scale)
        if p.throughput > bound:
            errs.append(f"point {p.round_index}/{p.step_index}: throughput "
                        f"{p.throughput} exceeds the rate bound {bound}")
    for p in result.front.points:
        where = f"front point {p.round_index}/{p.step_index}"
        sol = p.solution
        bounded = sdfg.set_buffer_allocation(graphs[p.round_index],
                                             p.allocation_dict())
        try:
            mapping.validate_mapping(bounded, hw, sol.mapping)
        except errors.InfeasibleMappingError as exc:
            errs.append(f"{where}: invalid mapping: {exc}")
            continue
        rerated = sdfg.self_timed_throughput(
            bounded, schedules=sol.schedules, platform=hw,
            mapping=sol.mapping, exec_time_scale=scale,
            state_budget=cfg.state_budget)
        if rerated.throughput != p.throughput \
                or sol.throughput.throughput != p.throughput:
            errs.append(f"{where}: re-rated throughput {rerated.throughput} "
                        f"!= reported {p.throughput}")
    return errs


def _acyclic(actors: list[str], edges: list[tuple[str, str]]) -> bool:
    indeg = {a: 0 for a in actors}
    succ = defaultdict(list)
    for u, v in edges:
        succ[u].append(v)
        indeg[v] += 1
    ready = [a for a in actors if indeg[a] == 0]
    seen = 0
    while ready:
        u = ready.pop()
        seen += 1
        for v in succ[u]:
            indeg[v] -= 1
            if indeg[v] == 0:
                ready.append(v)
    return seen == len(actors)


def check_front(g, rounds) -> list[str]:
    """Each refined partition is valid, its cut matches the synapse list,
    and the liveness verdict matches the cluster graph's acyclicity.

    The lift puts zero tokens on every inter-cluster channel, so a round
    is live exactly when those channels form no directed cycle.
    """
    errs: list[str] = []
    for r, rd in enumerate(rounds):
        try:
            rd.partition.validate(g)
        except errors.GraphValidationError as exc:
            errs.append(f"round {r}: invalid partition: {exc}")
        a = rd.partition.assignment
        cut = sum(s.spikes for s in g.synapses
                  if s.src in a and a[s.src] != a[s.dst])
        if cut != rd.cut:
            errs.append(f"round {r}: cut {rd.cut} != recomputed {cut}")
        channels = [c for c in rd.graph.channels if c.src != c.dst]
        if any(c.tokens for c in channels):
            errs.append(f"round {r}: a lifted channel carries initial tokens")
        acyclic = _acyclic(rd.graph.actor_ids(),
                           [(c.src, c.dst) for c in channels])
        if acyclic != rd.live:
            errs.append(f"round {r}: check_deadlock says live={rd.live}, "
                        f"the cluster graph is {'a' if acyclic else ''}cyclic")
    return errs
