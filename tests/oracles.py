"""Independent reference implementations used to check the library.

Everything here deliberately takes a different route from the code under
test: diameter by Floyd-Warshall instead of per-node BFS, throughput by
exhaustive cycle enumeration or by a second simulator built on explicit
credit channels with the opposite tie-breaking, Pareto fronts by the direct
O(n^2) dominance scan, swap descent by re-summing the synapses each
candidate swap touches instead of keeping gain tables, swarm decode by
one ``argmax`` per cluster row over freshly built core tables, the
swarm search by evaluating every distinct assignment it decodes, an
assignment's rating by a second, scheduled simulation instead of the
result of the list-scheduling run, its placement and capacities by core
name from the routed latencies instead of by core index through the
platform's tables, LIF rates by stepping one neuron at
a time through ``step_neuron``, a scalar forward-Euler step kept here
with the closed-form inter-spike interval it is checked against.
"""

from __future__ import annotations

import bisect
import math
from collections import defaultdict
from dataclasses import replace
from fractions import Fraction

import networkx as nx
import numpy as np

from snnflow.errors import ConfigError, DeadlockError, InfeasibleMappingError
from snnflow.lif import LifParams, SpikeTrain, _round_rate
from snnflow.mapping import (DEFAULT_TIME_WHEEL_SHARE, MappingSolution,
                             StaticOrderSchedule, SwarmConfig, _list_run,
                             _schedules_from_log, _share_to_scale,
                             decode_position, evaluate_mapping, init_swarm,
                             pso_step)
from snnflow.partition import Partition, communication_cost
from snnflow.sdfg import (DEFAULT_STATE_BUDGET, Sdfg, _Simulation,
                          _static_orders)
from snnflow.snn_graph import HardwareGraph, SnnGraph, Synapse


# ------------------------------------------------------------ graph stats

def floyd_warshall_stats(node_ids, edges):
    """(max_in, avg_in, max_out, avg_out, diameter) over unit-length edges."""
    n = len(node_ids)
    if n == 0:
        return 0, 0.0, 0, 0.0, 0
    idx = {v: i for i, v in enumerate(node_ids)}
    inf = float("inf")
    dist = [[inf] * n for _ in range(n)]
    for i in range(n):
        dist[i][i] = 0
    in_deg = [0] * n
    out_deg = [0] * n
    for src, dst in edges:
        dist[idx[src]][idx[dst]] = 1
        out_deg[idx[src]] += 1
        in_deg[idx[dst]] += 1
    for k in range(n):
        for i in range(n):
            dik = dist[i][k]
            if dik == inf:
                continue
            row_k = dist[k]
            row_i = dist[i]
            for j in range(n):
                alt = dik + row_k[j]
                if alt < row_i[j]:
                    row_i[j] = alt
    diameter = max((dist[i][j] for i in range(n) for j in range(n)
                    if dist[i][j] != inf), default=0)
    return (max(in_deg), len(edges) / n, max(out_deg), len(edges) / n,
            int(diameter))


# ----------------------------------------------------- max cycle mean

class OracleDeadlock(Exception):
    """The oracle found a token-free cycle (or a stalled execution)."""


def _expanded_edges(g: Sdfg):
    """Forward edges plus credit edges for bounded capacities.

    Parallel edges between the same actor pair keep the smallest token
    count, which is the binding one for cycle ratios.
    """
    best: dict[tuple[str, str], int] = {}
    for c in g.channels:
        key = (c.src, c.dst)
        if key not in best or c.tokens < best[key]:
            best[key] = c.tokens
        if c.capacity is not None:
            credit = c.capacity - c.tokens
            rkey = (c.dst, c.src)
            if rkey not in best or credit < best[rkey]:
                best[rkey] = credit
    return best


def mcm_period(g: Sdfg) -> Fraction:
    """Single-rate period: max over simple cycles of time/tokens.

    Requires every volume to be 1 and every actor to lie on a cycle.
    Raises :class:`OracleDeadlock` when some cycle carries no tokens.
    """
    assert all(c.volume == 1 for c in g.channels)
    exec_of = {a.id: Fraction(a.exec_time) for a in g.actors}
    edges = _expanded_edges(g)
    dg = nx.DiGraph()
    dg.add_nodes_from(exec_of)
    for (u, v), tokens in edges.items():
        dg.add_edge(u, v, tokens=tokens)
    on_cycle = set()
    best = None
    for cycle in nx.simple_cycles(dg):
        on_cycle.update(cycle)
        time = sum(exec_of[u] for u in cycle)
        tokens = sum(edges[(cycle[i], cycle[(i + 1) % len(cycle)])]
                     for i in range(len(cycle)))
        if tokens == 0:
            raise OracleDeadlock(f"cycle {cycle} has no tokens")
        ratio = Fraction(time, tokens)
        if best is None or ratio > best:
            best = ratio
    assert on_cycle == set(exec_of), "every actor must lie on a cycle"
    return best


# ------------------------------------------- reference event simulator

def reference_throughput(doc: dict, max_states: int = 200_000) -> Fraction:
    """Period of an sdfg/1 document from an independent simulator with
    explicit credit channels.

    Differences from the implementation under test: the document's
    spike counts are moved as they stand, ``prod`` spikes per firing,
    instead of being read as whole tokens; bounded buffers are expanded
    into literal credit entries, the event list is a sorted list rather
    than a heap, and ready actors fire in descending id order (the
    library uses ascending), which checks that the result does not
    depend on tie-breaking.
    """
    channels = doc["channels"]
    assert all(c["prod"] == c["cons"] for c in channels), \
        "reference simulator needs a single-rate graph"
    ids = sorted((a["id"] for a in doc["actors"]), reverse=True)
    exec_of = {a["id"]: Fraction(a["exec_time"]) for a in doc["actors"]}

    # entries: (consumer-side requirements, producer-side outputs)
    entries = []          # token counts, mutated during the run
    needs: dict[str, list[tuple[int, int]]] = {a: [] for a in ids}
    gives: dict[str, list[tuple[int, int]]] = {a: [] for a in ids}
    for c in channels:
        fwd = len(entries)
        entries.append(c["tokens"])
        needs[c["dst"]].append((fwd, c["cons"]))
        gives[c["src"]].append((fwd, c["prod"]))
        if c["capacity"] is not None:
            rev = len(entries)
            entries.append(c["capacity"] - c["tokens"])
            needs[c["src"]].append((rev, c["prod"]))
            gives[c["dst"]].append((rev, c["cons"]))

    def fireable(a: str) -> bool:
        return all(entries[i] >= amount for i, amount in needs[a])

    active: list[tuple[Fraction, str]] = []   # sorted by end time
    done = {a: 0 for a in ids}
    now = Fraction(0)
    seen: dict[tuple, tuple[Fraction, int]] = {}

    def iterations() -> int:
        # single-rate: an iteration fires every actor once
        return min(done.values())

    while True:
        while active and active[0][0] == now:
            _, actor = active.pop(0)
            done[actor] += 1
            for i, amount in gives[actor]:
                entries[i] += amount
        while True:
            started = False
            for a in ids:
                while fireable(a):
                    for i, amount in needs[a]:
                        entries[i] -= amount
                    end = now + exec_of[a]
                    bisect.insort(active, (end, a))
                    started = True
                    if end == now:
                        done[a] += 1
                        active.remove((end, a))
                        for i, amount in gives[a]:
                            entries[i] += amount
            if not started:
                break
        key = (tuple(entries),
               tuple(sorted((t - now, a) for t, a in active)))
        if key in seen:
            t0, it0 = seen[key]
            span = iterations() - it0
            if span <= 0:
                raise OracleDeadlock("some actors starve while others cycle")
            return Fraction(now - t0, span)
        seen[key] = (now, iterations())
        if len(seen) > max_states:
            raise RuntimeError("reference simulator exceeded its state budget")
        if not active:
            raise OracleDeadlock("reference simulator stalled")
        now = active[0][0]


# ------------------------------------------------------ pareto oracle

def dominance_front(points):
    """O(n^2) Pareto filter over (throughput up, buffer down) tuples.

    ``points`` is a sequence of objects with ``throughput`` and
    ``total_buffer``; exact ties on both axes keep the earliest.
    """
    kept = []
    for i, p in enumerate(points):
        dominated = False
        for j, r in enumerate(points):
            if i == j:
                continue
            beats = (r.throughput >= p.throughput
                     and r.total_buffer <= p.total_buffer
                     and (r.throughput > p.throughput
                          or r.total_buffer < p.total_buffer))
            duplicate = (r.throughput == p.throughput
                         and r.total_buffer == p.total_buffer and j < i)
            if beats or duplicate:
                dominated = True
                break
        if not dominated:
            kept.append(p)
    return sorted(kept, key=lambda p: (p.total_buffer, -p.throughput))


# -------------------------------------------- partitioning oracles

def copy_partition(p):
    from snnflow.partition import Partition
    return Partition(dict(p.assignment), p.cluster_count, p.crossbar_dim)


def improving_swap(g, p):
    """An (i, j) swap that is valid, leaves no synapse touching ``i`` or
    ``j`` running from a higher cluster index to a lower one, and strictly
    reduces cut cost, or None."""
    from snnflow.partition import Partition, communication_cost
    from snnflow.errors import GraphValidationError
    base = communication_cost(g, p)
    neurons = sorted(p.assignment)
    for i, ni in enumerate(neurons):
        for nj in neurons[i + 1:]:
            if p.assignment[ni] == p.assignment[nj]:
                continue
            assignment = dict(p.assignment)
            assignment[ni], assignment[nj] = assignment[nj], assignment[ni]
            candidate = Partition(assignment, p.cluster_count, p.crossbar_dim)
            try:
                candidate.validate(g)
            except GraphValidationError:
                continue
            if any(s.src in assignment and assignment[s.src] > assignment[s.dst]
                   for s in g.synapses if {s.src, s.dst} & {ni, nj}):
                continue
            if communication_cost(g, candidate) < base:
                return ni, nj
    return None


def exhaustive_min_cost(g, crossbar_dim: int, max_clusters: int):
    """Best cut cost over all valid assignments of a tiny graph."""
    from itertools import product
    from snnflow.partition import Partition, communication_cost
    from snnflow.errors import GraphValidationError
    neurons = sorted(n.id for n in g.neurons)
    best = None
    for combo in product(range(max_clusters), repeat=len(neurons)):
        assignment = dict(zip(neurons, combo))
        p = Partition(assignment, max_clusters, crossbar_dim)
        try:
            p.validate(g)
        except GraphValidationError:
            continue
        cost = communication_cost(g, p)
        if best is None or cost < best:
            best = cost
    return best


# The pair-scan definition of swap descent that ``kl_refine`` implements
# with gain tables: every swap's cost change is re-summed over the
# synapses it touches, and every improving swap is applied, checked
# against the fan-in limit and the cluster order, and rolled back if it
# breaks either.

def _cluster_fanin_counts(g: SnnGraph, p: Partition) -> dict[int, dict[str, int]]:
    """Per cluster: synapse-count per distinct pre-synaptic source."""
    fanin: dict[int, dict[str, int]] = {c: defaultdict(int)
                                        for c in range(p.cluster_count)}
    for s in g.synapses:
        fanin[p.assignment[s.dst]][s.src] += 1
    return fanin


class _SwapState:
    """Mutable partition state with O(degree) swap application/rollback."""

    def __init__(self, g: SnnGraph, p: Partition):
        self.assignment = dict(p.assignment)
        self.crossbar_dim = p.crossbar_dim
        self.cluster_count = p.cluster_count
        self.fanin = _cluster_fanin_counts(g, p)
        self.cost = communication_cost(g, p)
        self.in_edges: dict[str, list[Synapse]] = defaultdict(list)
        self.out_edges: dict[str, list[Synapse]] = defaultdict(list)
        self.fanin_edges: dict[str, list[str]] = defaultdict(list)
        for s in g.synapses:
            if s.dst in self.assignment:
                self.in_edges[s.dst].append(s)
                self.fanin_edges[s.dst].append(s.src)
            if s.src in self.assignment:
                self.out_edges[s.src].append(s)

    def swap_cost_delta(self, ni: str, nj: str) -> float:
        a = self.assignment
        moved = {ni: a[nj], nj: a[ni]}
        delta = 0.0
        seen: set[tuple[str, str]] = set()
        for s in self.in_edges[ni] + self.out_edges[ni] \
                + self.in_edges[nj] + self.out_edges[nj]:
            key = (s.src, s.dst)
            if key in seen or s.src not in a:
                continue
            seen.add(key)
            before = a[s.src] != a[s.dst]
            after = moved.get(s.src, a[s.src]) != moved.get(s.dst, a[s.dst])
            delta += s.spikes * (int(after) - int(before))
        return delta

    def apply_swap(self, ni: str, nj: str) -> None:
        ci, cj = self.assignment[ni], self.assignment[nj]
        for src in self.fanin_edges[ni]:
            self._retarget(src, ci, cj)
        for src in self.fanin_edges[nj]:
            self._retarget(src, cj, ci)
        self.assignment[ni], self.assignment[nj] = cj, ci

    def _retarget(self, src: str, from_c: int, to_c: int) -> None:
        self.fanin[from_c][src] -= 1
        if self.fanin[from_c][src] == 0:
            del self.fanin[from_c][src]
        self.fanin[to_c][src] += 1

    def swap_valid(self, ni: str, nj: str) -> bool:
        # called with the swap applied: both clusters within the fan-in
        # limit, and no synapse touching either neuron runs backward
        a = self.assignment
        ci, cj = a[ni], a[nj]
        ok = (len(self.fanin[ci]) <= self.crossbar_dim
              and len(self.fanin[cj]) <= self.crossbar_dim)
        for s in self.in_edges[ni] + self.out_edges[ni] \
                + self.in_edges[nj] + self.out_edges[nj]:
            if s.src in a and a[s.src] > a[s.dst]:
                ok = False
        return ok

    def to_partition(self) -> Partition:
        return Partition(dict(self.assignment), self.cluster_count,
                         self.crossbar_dim)


def reference_kl_refine(g: SnnGraph, p: Partition, delta_min: float = 0.0,
                        trace: list | None = None) -> Partition:
    """Pairwise swap descent on the inter-cluster spike count.

    Scans all neuron pairs in a deterministic order; a swap is kept only
    when both touched clusters stay within the crossbar limits, no
    synapse touching the two neurons runs from a higher cluster index to
    a lower one, and the cost strictly decreases.  Sweeps repeat until the total improvement
    of a sweep is at most ``delta_min``.  ``trace``, when given, collects
    one record per sweep with its accepted swap deltas and end cost.
    """
    p.validate(g)
    state = _SwapState(g, p)
    neurons = sorted(p.assignment)
    sweep = 0
    while True:
        sweep_delta = 0.0
        accepted: list[tuple[str, str, float]] = []
        for ii in range(len(neurons)):
            ni = neurons[ii]
            for nj in neurons[ii + 1:]:
                if state.assignment[ni] == state.assignment[nj]:
                    continue
                delta = state.swap_cost_delta(ni, nj)
                if delta >= 0:
                    continue
                state.apply_swap(ni, nj)
                if state.swap_valid(ni, nj):
                    state.cost += delta
                    sweep_delta += -delta
                    accepted.append((ni, nj, -delta))
                else:
                    state.apply_swap(ni, nj)  # swap is its own inverse
        sweep += 1
        if trace is not None:
            trace.append({"sweep": sweep, "delta": sweep_delta,
                          "cost": state.cost,
                          "accepted": accepted})
        if sweep_delta <= delta_min:
            break
    return state.to_partition()


# ------------------------------------------------ mapping oracles

def reference_decode_position(theta: np.ndarray, g: Sdfg,
                              hw: HardwareGraph) -> dict[str, str]:
    """Map a real-valued position to a feasible cluster-to-core assignment.

    Each cluster goes to the core with its largest position component
    (ties to the lowest core id); clusters are then moved off overloaded
    cores, lowest component first, to the feasible core with the next
    highest component.  Raises :class:`InfeasibleMappingError` when the
    demand cannot be repaired.
    """
    clusters = g.actor_ids()
    cores = sorted(hw.core_ids())
    cl_index = {cl: i for i, cl in enumerate(clusters)}
    core_index = {c: j for j, c in enumerate(cores)}
    weights = {a.id: a.weight for a in g.actors}
    caps = {c.id: c.crossbar_dim for c in hw.cores}
    grid = np.asarray(theta, dtype=float).reshape(len(clusters), len(cores))

    assign = {clusters[i]: cores[int(np.argmax(grid[i]))]
              for i in range(len(clusters))}
    load: dict[str, int] = defaultdict(int)
    for cl, core in assign.items():
        load[core] += weights[cl]

    def overloaded() -> str | None:
        for core in cores:
            if load[core] > caps[core]:
                return core
        return None

    while (core := overloaded()) is not None:
        residents = sorted((cl for cl in clusters if assign[cl] == core),
                           key=lambda cl: (grid[cl_index[cl],
                                                core_index[core]], cl))
        moved = False
        for cl in residents:
            row = grid[cl_index[cl]]
            for j in np.argsort(-row, kind="stable"):
                candidate = cores[int(j)]
                if candidate == core:
                    continue
                if load[candidate] + weights[cl] <= caps[candidate]:
                    assign[cl] = candidate
                    load[core] -= weights[cl]
                    load[candidate] += weights[cl]
                    moved = True
                    break
            if moved:
                break
        if not moved:
            raise InfeasibleMappingError(
                f"cannot repair overload on core {core!r}: total demand "
                f"exceeds platform capacity")
    return assign


def reference_search_mapping(g: Sdfg, hw: HardwareGraph,
                             cfg: SwarmConfig | None = None,
                             time_wheel_share: float = DEFAULT_TIME_WHEEL_SHARE,
                             state_budget: int = DEFAULT_STATE_BUDGET,
                             rng: np.random.Generator | int | None = None
                             ) -> MappingSolution:
    """Swarm search that scores every distinct decoded assignment.

    The same swarm as :func:`snnflow.mapping.search_mapping`, with no
    lower-bound test: every assignment not seen before is validated,
    scheduled and rated, whatever the particle's best period.
    """
    cfg = cfg or SwarmConfig()
    rng = np.random.default_rng(rng)
    dims = len(g.actors) * len(hw.cores)
    swarm = init_swarm(cfg, dims, rng)
    cache: dict[tuple, tuple[float, MappingSolution | None]] = {}
    # the reference's own best, independent of the swarm's
    best: MappingSolution | None = None

    def score(theta: np.ndarray) -> float:
        nonlocal best
        try:
            mapping = decode_position(theta, g, hw)
        except InfeasibleMappingError:
            return math.inf
        key = tuple(sorted(mapping.items()))
        if key not in cache:
            try:
                sol = evaluate_mapping(g, hw, mapping, time_wheel_share,
                                       state_budget)
                cache[key] = (sol.throughput.period, sol)
            except (InfeasibleMappingError, DeadlockError):
                cache[key] = (math.inf, None)
        period, sol = cache[key]
        if sol is not None:
            if best is None or period < best.throughput.period:
                best = sol
        return period

    def fitness(positions: np.ndarray, limits: np.ndarray) -> list[float]:
        return [score(theta) for theta in positions]

    for _ in range(cfg.iterations):
        pso_step(swarm, fitness)
    if best is None:
        raise InfeasibleMappingError(
            "no feasible cluster-to-core assignment found by the search")
    return best


def _exact(x):
    # a time as an int, or a Fraction read from a float's decimal repr
    f = Fraction(str(x)) if isinstance(x, float) else Fraction(x)
    return int(f) if f.denominator == 1 else f


def reference_placement(g: Sdfg, hw: HardwareGraph, mapping: dict[str, str],
                        scale=1) -> tuple[list, list, list]:
    """``(exec_times, core_of, latency)`` of a mapping, placed by core
    name from ``hw.routed_latencies()``, where the library places by
    core index through the platform's tables.  Raises
    :class:`InfeasibleMappingError` with the library's messages, in its
    order: an unmapped actor or an undeclared core in actor order, then
    a missing route in channel order.
    """
    cores = {c.id: c for c in hw.cores}
    core_of = []
    for a in g.actors:
        if a.id not in mapping:
            raise InfeasibleMappingError(f"actor {a.id!r} is unmapped")
        if mapping[a.id] not in cores:
            raise InfeasibleMappingError(
                f"actor {a.id!r} mapped to undeclared core {mapping[a.id]!r}")
        core_of.append(mapping[a.id])
    host = dict(zip(g.actor_ids(), core_of))
    routed = hw.routed_latencies()
    latency = []
    for i, c in enumerate(g.channels):
        src, dst = host[c.src], host[c.dst]
        if src != dst and (src, dst) not in routed:
            raise InfeasibleMappingError(
                f"no route from core {src!r} to core {dst!r} required by "
                f"channel {i}")
        latency.append(0 if src == dst else _exact(routed[(src, dst)]))
    times = [_exact(_exact(cores[core].exec_time) * _exact(scale))
             for core in core_of]
    return times, core_of, latency


def reference_capacities(g: Sdfg, hw: HardwareGraph, core_of: list) -> None:
    """Every capacity of a placement's host cores, summed per core name:
    raises :class:`InfeasibleMappingError` with the library's messages
    for an overloaded crossbar, in the order the cores first host an
    actor, then for each core's connection and bandwidth caps, in
    declaration order."""
    cores = {c.id: c for c in hw.cores}
    load: dict[str, int] = {}
    for a, core in zip(g.actors, core_of):
        load[core] = load.get(core, 0) + a.weight
    for core, used in load.items():
        if used > cores[core].crossbar_dim:
            raise InfeasibleMappingError(
                f"core {core!r} hosts {used} neurons (crossbar limit "
                f"{cores[core].crossbar_dim})")
    in_peers: dict[str, set[str]] = defaultdict(set)
    out_peers: dict[str, set[str]] = defaultdict(set)
    in_spikes: dict[str, int] = defaultdict(int)
    out_spikes: dict[str, int] = defaultdict(int)
    host = dict(zip(g.actor_ids(), core_of))
    for c in g.channels:
        src, dst = host[c.src], host[c.dst]
        if src != dst:
            in_peers[dst].add(src)
            out_peers[src].add(dst)
            in_spikes[dst] += c.volume
            out_spikes[src] += c.volume
    for cid, core in cores.items():
        if core.in_connections is not None \
                and len(in_peers[cid]) > core.in_connections:
            raise InfeasibleMappingError(
                f"core {cid!r} has {len(in_peers[cid])} incoming connections "
                f"(limit {core.in_connections})")
        if core.out_connections is not None \
                and len(out_peers[cid]) > core.out_connections:
            raise InfeasibleMappingError(
                f"core {cid!r} has {len(out_peers[cid])} outgoing connections "
                f"(limit {core.out_connections})")
        if core.in_bandwidth is not None and in_spikes[cid] > core.in_bandwidth:
            raise InfeasibleMappingError(
                f"core {cid!r} receives {in_spikes[cid]} spikes per iteration "
                f"(limit {core.in_bandwidth})")
        if core.out_bandwidth is not None \
                and out_spikes[cid] > core.out_bandwidth:
            raise InfeasibleMappingError(
                f"core {cid!r} sends {out_spikes[cid]} spikes per iteration "
                f"(limit {core.out_bandwidth})")


def reference_evaluate_mapping(g: Sdfg, hw: HardwareGraph,
                               mapping: dict[str, str],
                               time_wheel_share: float = DEFAULT_TIME_WHEEL_SHARE,
                               state_budget: int = DEFAULT_STATE_BUDGET
                               ) -> MappingSolution:
    """Validate, schedule and rate one assignment with two simulations.

    The list-scheduling run builds the static orders, then a second,
    self-timed run under those orders gives the throughput and the
    block counts, where :func:`snnflow.mapping.evaluate_mapping` reads
    them off the first run.  Both runs place core ``k`` on the ``k``-th
    host core name in sorted order, where the library renames a
    placement's cores by first occurrence and then back.
    """
    times, hosts, latency = reference_placement(
        g, hw, mapping, _share_to_scale(time_wheel_share))
    reference_capacities(g, hw, hosts)
    names = sorted(set(hosts))
    core_of = [names.index(core) for core in hosts]
    listed = _schedules_from_log(
        _list_run(g, (times, core_of, latency), state_budget))
    schedules = {names[k]: StaticOrderSchedule(
                     names[k], s.transient, s.cycle, s.iterations_per_cycle)
                 for k, s in listed.items()}
    res = _Simulation(g, times, core_of, latency,
                      orders=_static_orders(g, schedules, core_of, names),
                      state_budget=state_budget).run()
    return MappingSolution(dict(mapping), schedules, res.to_throughput(),
                           res.block_counts)


# ------------------------------------------------ rate oracle

def step_neuron(v: float, params: LifParams,
                synaptic_current: float) -> tuple[float, bool]:
    """One forward-Euler step of the membrane equation.

    Returns the new membrane voltage and whether the neuron fired.  A
    firing neuron resets to the resting potential, so the returned
    voltage never exceeds the threshold.
    """
    leak = -(v - params.v_rest) / params.tau_m
    v_new = v + params.dt * (leak + (synaptic_current + params.i_inj) / params.c_m)
    if v >= params.v_th or v_new >= params.v_th:
        return params.v_rest, True
    return v_new, False


def synaptic_current(incoming: list[tuple[int, float]], dt: float) -> float:
    """Total input current from spikes landing in the current step.

    ``incoming`` pairs each source's spike count in ``[t, t+dt)`` with its
    synaptic weight; every spike contributes ``weight / dt`` as a current
    impulse spread over the step.  The products are added left to right.
    """
    total = 0.0
    for count, weight in incoming:
        total += count * weight
    return total / dt


def constant_current_isi(params: LifParams, current: float) -> float:
    """Closed-form inter-spike interval under a constant input current.

    Solves the RC charging equation from rest to threshold; returns
    ``inf`` when the drive cannot reach the threshold.
    """
    drive = current * params.r_m
    gap = params.v_th - params.v_rest
    if drive <= gap:
        return math.inf
    return -params.tau_m * math.log(1.0 - gap / drive)


def reference_estimate_rates(g: SnnGraph,
                             params: LifParams | None = None,
                             frames: list[dict[str, SpikeTrain]] | None = None
                             ) -> SnnGraph:
    """LIF rate estimate, one neuron and one synapse at a time.

    Every neuron steps through :func:`step_neuron` with the current that
    :func:`synaptic_current` sums over its firing sources, in
    ``g.synapses`` order.  A missing train is found only when its frame
    is reached.
    """
    g.validate()
    base = params or LifParams()
    if not frames:
        raise ConfigError("at least one frame of input spike trains is required")

    input_ids = set(g.input_ids())
    per_neuron = {n.id: base.with_overrides(n.params_dict()) for n in g.neurons}
    dts = {p.dt for p in per_neuron.values()} or {base.dt}
    if len(dts) != 1:
        raise ConfigError("all neurons must share one integration step dt")
    dt = dts.pop()

    frame_lengths = {tr.frame_length for fr in frames for tr in fr.values()}
    if not frame_lengths:
        raise ConfigError("no input spike train gives the frame length")
    if len(frame_lengths) > 1:
        raise ConfigError("all spike trains must share one frame length")
    frame_length = frame_lengths.pop()
    n_steps = max(1, int(round(frame_length / dt)))

    in_weights: dict[str, list[tuple[str, float]]] = defaultdict(list)
    for s in g.synapses:
        in_weights[s.dst].append((s.src, s.weight))

    neuron_ids = g.neuron_ids()
    fired_totals = {nid: 0 for nid in neuron_ids}
    input_totals = {iid: 0 for iid in input_ids}

    for fi, frame in enumerate(frames):
        missing = input_ids - set(frame)
        if missing:
            raise ConfigError(
                f"frame {fi}: no spike train for input(s) {sorted(missing)}")
        # bin input spikes by integration step
        input_bins: dict[str, dict[int, int]] = {}
        for iid in input_ids:
            train = frame[iid]
            bins: dict[int, int] = defaultdict(int)
            for t in train.times:
                bins[int(t / dt)] += 1
            input_bins[iid] = bins
            input_totals[iid] += len(train.times)

        v = {nid: per_neuron[nid].v_rest for nid in neuron_ids}
        fired_prev = {nid: 0 for nid in neuron_ids}
        for step in range(n_steps):
            fired_now = {}
            for nid in neuron_ids:
                pulses = []
                for src, w in in_weights[nid]:
                    if src in input_ids:
                        count = input_bins[src].get(step, 0)
                    else:
                        count = fired_prev[src]
                    if count:
                        pulses.append((count, w))
                i_s = synaptic_current(pulses, dt) if pulses else 0.0
                v[nid], fired = step_neuron(v[nid], per_neuron[nid], i_s)
                fired_now[nid] = 1 if fired else 0
                if fired:
                    fired_totals[nid] += 1
            fired_prev = fired_now

    n_frames = len(frames)
    mean_rate = {nid: fired_totals[nid] / n_frames for nid in neuron_ids}
    mean_rate.update({iid: input_totals[iid] / n_frames for iid in input_ids})

    new_synapses = tuple(
        replace(s, spikes=float(_round_rate(mean_rate[s.src])))
        for s in g.synapses)
    new_inputs = tuple(
        replace(i, spikes=float(_round_rate(mean_rate[i.id])))
        for i in g.inputs)
    return replace(g, synapses=new_synapses, inputs=new_inputs)
