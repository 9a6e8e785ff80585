"""Independent reference implementations used to check the library.

Everything here deliberately takes a different route from the code under
test: diameter by Floyd-Warshall instead of per-node BFS, throughput by
exhaustive cycle enumeration or by a second simulator built on explicit
credit channels with the opposite tie-breaking, repetition vectors by
Gaussian elimination over exact rationals, Pareto fronts by the direct
O(n^2) dominance scan, swap descent by re-summing the synapses each
candidate swap touches instead of keeping gain tables.
"""

from __future__ import annotations

import bisect
from fractions import Fraction

from collections import defaultdict

import networkx as nx

from snnflow.partition import (Partition, _cluster_fanin_counts,
                               communication_cost)
from snnflow.sdfg import Sdfg
from snnflow.snn_graph import SnnGraph, Synapse


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

    Requires all port rates to be 1 and every actor to lie on a cycle.
    Raises :class:`OracleDeadlock` when some cycle carries no tokens.
    """
    assert all(c.prod == 1 and c.cons == 1 for c in g.channels)
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

def reference_throughput(g: Sdfg, max_states: int = 200_000) -> Fraction:
    """Period from an independent simulator with explicit credit channels.

    Differences from the implementation under test: bounded buffers are
    expanded into literal credit entries, the event list is a sorted
    list rather than a heap, and ready actors fire in descending id
    order (the library uses ascending), which checks that the result
    does not depend on tie-breaking.
    """
    q = gaussian_repetition(g)
    assert q is not None, "reference simulator needs a consistent graph"
    ids = sorted((a.id for a in g.actors), reverse=True)
    exec_of = {a.id: Fraction(a.exec_time) for a in g.actors}

    # entries: (consumer-side requirements, producer-side outputs)
    entries = []          # token counts, mutated during the run
    needs: dict[str, list[tuple[int, int]]] = {a: [] for a in ids}
    gives: dict[str, list[tuple[int, int]]] = {a: [] for a in ids}
    for c in g.channels:
        fwd = len(entries)
        entries.append(c.tokens)
        needs[c.dst].append((fwd, c.cons))
        gives[c.src].append((fwd, c.prod))
        if c.capacity is not None:
            rev = len(entries)
            entries.append(c.capacity - c.tokens)
            needs[c.src].append((rev, c.prod))
            gives[c.dst].append((rev, c.cons))

    def fireable(a: str) -> bool:
        return all(entries[i] >= amount for i, amount in needs[a])

    active: list[tuple[Fraction, str]] = []   # sorted by end time
    done = {a: 0 for a in ids}
    now = Fraction(0)
    seen: dict[tuple, tuple[Fraction, int]] = {}

    def iterations() -> int:
        return min(done[a] // q[a] for a in ids)

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


# -------------------------------------------- balance-equation solver

def gaussian_repetition(g: Sdfg) -> dict[str, int] | None:
    """Repetition vector by rational Gaussian elimination, or None.

    Solves the balance matrix per weakly connected component; a
    component whose nullspace is trivial makes the graph inconsistent.
    """
    ids = sorted(a.id for a in g.actors)
    neighbors: dict[str, set[str]] = {a: set() for a in ids}
    for c in g.channels:
        neighbors[c.src].add(c.dst)
        neighbors[c.dst].add(c.src)

    unvisited = set(ids)
    result: dict[str, int] = {}
    while unvisited:
        root = min(unvisited)
        comp = [root]
        unvisited.remove(root)
        stack = [root]
        while stack:
            u = stack.pop()
            for v in neighbors[u]:
                if v in unvisited:
                    unvisited.remove(v)
                    comp.append(v)
                    stack.append(v)
        comp.sort()
        col = {a: j for j, a in enumerate(comp)}
        rows = []
        for c in g.channels:
            if c.src not in col and c.dst not in col:
                continue
            row = [Fraction(0)] * len(comp)
            row[col[c.src]] += c.prod
            row[col[c.dst]] -= c.cons
            rows.append(row)
        basis = _nullspace(rows, len(comp))
        if len(basis) != 1:
            return None
        vec = basis[0]
        if any(x <= 0 for x in vec) and any(x > 0 for x in vec):
            return None
        if vec[0] < 0:
            vec = [-x for x in vec]
        from math import gcd, lcm
        scale = lcm(*(x.denominator for x in vec))
        ints = [int(x * scale) for x in vec]
        g_all = gcd(*ints)
        for a, n in zip(comp, ints):
            result[a] = n // g_all
    return result


def _nullspace(rows: list[list[Fraction]], ncols: int) -> list[list[Fraction]]:
    m = [row[:] for row in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            vec[pc] = -m[i][fc]
        basis.append(vec)
    return basis


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
    return Partition(dict(p.assignment), p.cluster_count, p.crossbar_dim,
                     p.count_input_fanin)


def improving_swap(g, p):
    """An (i, j) swap that is valid and strictly reduces cut cost, or None."""
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
            candidate = Partition(assignment, p.cluster_count,
                                  p.crossbar_dim, p.count_input_fanin)
            try:
                candidate.validate(g)
            except GraphValidationError:
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
# against the fan-in limit and rolled back if it breaks it.

class _SwapState:
    """Mutable partition state with O(degree) swap application/rollback."""

    def __init__(self, g: SnnGraph, p: Partition):
        self.assignment = dict(p.assignment)
        self.crossbar_dim = p.crossbar_dim
        self.count_input_fanin = p.count_input_fanin
        self.cluster_count = p.cluster_count
        self.fanin = _cluster_fanin_counts(g, p)
        self.cost = communication_cost(g, p)
        input_ids = set(g.input_ids())
        self.in_edges: dict[str, list[Synapse]] = defaultdict(list)
        self.out_edges: dict[str, list[Synapse]] = defaultdict(list)
        self.fanin_edges: dict[str, list[str]] = defaultdict(list)
        for s in g.synapses:
            if s.dst in self.assignment:
                self.in_edges[s.dst].append(s)
                if not (s.src in input_ids and not self.count_input_fanin):
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
        ci, cj = self.assignment[ni], self.assignment[nj]
        ok = (len(self.fanin[ci]) <= self.crossbar_dim
              and len(self.fanin[cj]) <= self.crossbar_dim)
        return ok

    def to_partition(self) -> Partition:
        return Partition(dict(self.assignment), self.cluster_count,
                         self.crossbar_dim, self.count_input_fanin)


def reference_kl_refine(g: SnnGraph, p: Partition, delta_min: float = 0.0,
                        trace: list | None = None) -> Partition:
    """Pairwise swap descent on the inter-cluster spike count.

    Scans all neuron pairs in a deterministic order; a swap is kept only
    when both touched clusters stay within the crossbar limits and the
    cost strictly decreases.  Sweeps repeat until the total improvement
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
