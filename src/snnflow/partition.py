"""Iterative crossbar-sized partitioning of spiking-network graphs.

A partition assigns every neuron to exactly one cluster subject to two
crossbar constraints: a cluster may hold at most ``crossbar_dim`` neurons
and may draw from at most ``crossbar_dim`` distinct pre-synaptic sources
(input sources count by default).  Starting from a seeded random
assignment, pairwise swap descent reduces the number of spikes crossing
cluster boundaries until a full sweep finds no strictly improving swap.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass

import numpy as np
import yaml

from .errors import (GraphFormatError, GraphValidationError,
                     InfeasiblePartitionError)
from .snn_graph import SnnGraph, Synapse

CLUSTERED_FORMAT = "clustered-snn/1"


@dataclass(frozen=True)
class Partition:
    """Neuron-to-cluster assignment targeting one crossbar dimension."""

    assignment: dict[str, int]
    cluster_count: int
    crossbar_dim: int
    count_input_fanin: bool = True

    def clusters(self) -> list[list[str]]:
        out: list[list[str]] = [[] for _ in range(self.cluster_count)]
        for nid in sorted(self.assignment):
            out[self.assignment[nid]].append(nid)
        return out

    def validate(self, g: SnnGraph) -> None:
        neuron_ids = set(g.neuron_ids())
        if set(self.assignment) != neuron_ids:
            raise GraphValidationError(
                "partition must assign every neuron exactly once")
        for nid, c in self.assignment.items():
            if not 0 <= c < self.cluster_count:
                raise GraphValidationError(
                    f"neuron {nid!r} assigned to undeclared cluster {c}")
        members = self.clusters()
        for c, neurons in enumerate(members):
            if len(neurons) > self.crossbar_dim:
                raise GraphValidationError(
                    f"cluster {c} holds {len(neurons)} neurons "
                    f"(limit {self.crossbar_dim})")
        fanin = _cluster_fanin_counts(g, self)
        for c, sources in fanin.items():
            if len(sources) > self.crossbar_dim:
                raise GraphValidationError(
                    f"cluster {c} draws from {len(sources)} distinct sources "
                    f"(limit {self.crossbar_dim})")


def _cluster_fanin_counts(g: SnnGraph, p: Partition) -> dict[int, dict[str, int]]:
    """Per cluster: synapse-count per distinct pre-synaptic source."""
    input_ids = set(g.input_ids())
    fanin: dict[int, dict[str, int]] = {c: defaultdict(int)
                                        for c in range(p.cluster_count)}
    for s in g.synapses:
        if s.src in input_ids and not p.count_input_fanin:
            continue
        fanin[p.assignment[s.dst]][s.src] += 1
    return fanin


def init_partition(g: SnnGraph, crossbar_dim: int,
                   rng: np.random.Generator | int | None = None,
                   count_input_fanin: bool = True) -> Partition:
    """Random initial partition repaired to satisfy both crossbar limits.

    Raises :class:`InfeasiblePartitionError` when a single neuron already
    has more distinct pre-synaptic sources than the crossbar admits.
    """
    if crossbar_dim < 1:
        raise InfeasiblePartitionError("crossbar dimension must be >= 1")
    g.validate()
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)

    input_ids = set(g.input_ids())
    neuron_fanin: dict[str, set[str]] = defaultdict(set)
    for s in g.synapses:
        if s.src in input_ids and not count_input_fanin:
            continue
        neuron_fanin[s.dst].add(s.src)
    for nid, sources in neuron_fanin.items():
        if len(sources) > crossbar_dim:
            raise InfeasiblePartitionError(
                f"neuron {nid!r} has {len(sources)} distinct pre-synaptic "
                f"sources; no {crossbar_dim}x{crossbar_dim} crossbar can host it")

    neurons = sorted(g.neuron_ids())
    if not neurons:
        return Partition({}, 1, crossbar_dim, count_input_fanin)
    order = list(neurons)
    rng.shuffle(order)
    k = max(1, math.ceil(len(neurons) / crossbar_dim))
    assignment = {nid: i % k for i, nid in enumerate(order)}
    p = Partition(assignment, k, crossbar_dim, count_input_fanin)

    # repair fan-in overflows by relocating neurons, growing clusters as needed
    fanin = _cluster_fanin_counts(g, p)
    sizes = [0] * k
    for c in assignment.values():
        sizes[c] += 1
    changed = True
    while changed:
        changed = False
        for c in range(len(sizes)):
            while len(fanin[c]) > crossbar_dim:
                victim = _pick_relocation_victim(c, assignment, neuron_fanin, fanin)
                dest = _find_destination(victim, c, sizes, fanin, neuron_fanin,
                                         crossbar_dim)
                if dest is None:
                    dest = len(sizes)
                    sizes.append(0)
                    fanin[dest] = defaultdict(int)
                _move(victim, c, dest, assignment, sizes, fanin, neuron_fanin)
                changed = True
    p = Partition(assignment, len(sizes), crossbar_dim, count_input_fanin)
    p.validate(g)
    return p


def _pick_relocation_victim(cluster: int, assignment, neuron_fanin, fanin):
    best, best_gain = None, -1
    for nid in sorted(assignment):
        if assignment[nid] != cluster:
            continue
        gain = sum(1 for src in neuron_fanin[nid]
                   if fanin[cluster].get(src, 0) == 1)
        if gain > best_gain:
            best, best_gain = nid, gain
    return best


def _find_destination(nid, src_cluster, sizes, fanin, neuron_fanin, limit):
    for c in range(len(sizes)):
        if c == src_cluster or sizes[c] >= limit:
            continue
        extra = sum(1 for s in neuron_fanin[nid] if fanin[c].get(s, 0) == 0)
        if len(fanin[c]) + extra <= limit:
            return c
    return None


def _move(nid, src_c, dst_c, assignment, sizes, fanin, neuron_fanin):
    assignment[nid] = dst_c
    sizes[src_c] -= 1
    sizes[dst_c] += 1
    for s in neuron_fanin[nid]:
        fanin[src_c][s] -= 1
        if fanin[src_c][s] == 0:
            del fanin[src_c][s]
        fanin[dst_c][s] += 1


def communication_cost(g: SnnGraph, p: Partition) -> float:
    """Total spikes per frame crossing cluster boundaries.

    Only synapses with both endpoints inside clusters contribute; feeds
    from input sources reach their cluster regardless of the partition
    and add a constant the descent cannot change.
    """
    a = p.assignment
    return sum(s.spikes for s in g.synapses
               if s.src in a and s.dst in a and a[s.src] != a[s.dst])


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


def kl_refine(g: SnnGraph, p: Partition, delta_min: float = 0.0,
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


@dataclass(frozen=True)
class Cluster:
    """One crossbar-sized node of the clustered graph.

    Carries the absorbed subgraph: internal synapses (both endpoints in
    the cluster) and feeds from input sources into it.
    """

    id: str
    neurons: tuple[str, ...]
    synapses: tuple[Synapse, ...] = ()
    input_feeds: tuple[Synapse, ...] = ()

    def absorbed_spikes(self) -> float:
        return (sum(s.spikes for s in self.synapses)
                + sum(s.spikes for s in self.input_feeds))


@dataclass(frozen=True)
class ClusterEdge:
    src: str
    dst: str
    tokens: int


@dataclass(frozen=True)
class ClusteredSnnGraph:
    """Cluster-level view of a partitioned spiking network."""

    clusters: tuple[Cluster, ...]
    edges: tuple[ClusterEdge, ...] = ()

    def cluster_ids(self) -> list[str]:
        return [c.id for c in self.clusters]

    def cluster(self, cid: str) -> Cluster:
        for c in self.clusters:
            if c.id == cid:
                return c
        raise KeyError(cid)

    def total_spikes(self) -> float:
        """Cut tokens plus everything absorbed inside clusters."""
        return (sum(e.tokens for e in self.edges)
                + sum(c.absorbed_spikes() for c in self.clusters))


def build_clustered_graph(g: SnnGraph, p: Partition) -> ClusteredSnnGraph:
    """Collapse each non-empty cluster into a node; sum spikes on cut edges."""
    p.validate(g)
    a = p.assignment
    occupied = sorted({c for c in a.values()})
    renumber = {old: new for new, old in enumerate(occupied)}
    ids = [f"c{idx}" for idx in range(len(occupied))]

    members: dict[int, list[str]] = defaultdict(list)
    for nid in sorted(a):
        members[renumber[a[nid]]].append(nid)

    internal: dict[int, list[Synapse]] = defaultdict(list)
    feeds: dict[int, list[Synapse]] = defaultdict(list)
    cut: dict[tuple[int, int], float] = defaultdict(float)
    for s in g.synapses:
        cd = renumber[a[s.dst]]
        if s.src not in a:
            feeds[cd].append(s)
            continue
        cs = renumber[a[s.src]]
        if cs == cd:
            internal[cd].append(s)
        else:
            cut[(cs, cd)] += s.spikes

    clusters = tuple(
        Cluster(ids[c], tuple(members[c]), tuple(internal[c]), tuple(feeds[c]))
        for c in range(len(occupied)))
    edges = tuple(
        ClusterEdge(ids[cs], ids[cd], max(0, int(math.floor(t + 0.5))))
        for (cs, cd), t in sorted(cut.items()))
    return ClusteredSnnGraph(clusters, edges)


def iterate_partitions(g: SnnGraph, crossbar_dim: int, eta: int,
                       delta_min: float = 0.0,
                       seed: int | None = None,
                       count_input_fanin: bool = True) -> list[ClusteredSnnGraph]:
    """Run ``eta`` independent partition rounds (random init + descent).

    Round ``r`` draws its initial partition from the first of two
    streams spawned by ``SeedSequence(seed).spawn(eta)[r]``, as
    :func:`snnflow.dse.run_design_flow` does, so a seed gives the same
    clusterings here, in the design flow and in the CLI.
    """
    if eta < 1:
        raise ValueError("eta must be >= 1")
    children = np.random.SeedSequence(seed).spawn(eta)
    out = []
    for r in range(eta):
        rng = np.random.default_rng(children[r].spawn(2)[0])
        p = init_partition(g, crossbar_dim, rng, count_input_fanin)
        p = kl_refine(g, p, delta_min)
        out.append(build_clustered_graph(g, p))
    return out


def clustered_graph_to_dict(cg: ClusteredSnnGraph) -> dict:
    def syn(s: Synapse) -> dict:
        return {"src": s.src, "dst": s.dst, "weight": s.weight,
                "spikes": s.spikes}
    return {
        "format": CLUSTERED_FORMAT,
        "clusters": [{"id": c.id,
                      "neurons": list(c.neurons),
                      "synapses": [syn(s) for s in c.synapses],
                      "input_feeds": [syn(s) for s in c.input_feeds]}
                     for c in cg.clusters],
        "edges": [{"src": e.src, "dst": e.dst, "tokens": e.tokens}
                  for e in cg.edges],
    }


def clustered_graph_from_dict(doc: dict, ctx: str = "<clustered>") -> ClusteredSnnGraph:
    if doc.get("format") != CLUSTERED_FORMAT:
        raise GraphFormatError(
            f"{ctx}: format is {doc.get('format')!r}, expected {CLUSTERED_FORMAT!r}")

    def syn(e: dict) -> Synapse:
        return Synapse(str(e["src"]), str(e["dst"]),
                       float(e.get("weight", 1.0)), float(e.get("spikes", 0.0)))

    clusters = tuple(
        Cluster(str(e["id"]), tuple(str(n) for n in e.get("neurons") or ()),
                tuple(syn(s) for s in e.get("synapses") or ()),
                tuple(syn(s) for s in e.get("input_feeds") or ()))
        for e in doc.get("clusters") or [])
    ids = {c.id for c in clusters}
    edges = []
    for e in doc.get("edges") or []:
        edge = ClusterEdge(str(e["src"]), str(e["dst"]), int(e["tokens"]))
        if edge.src not in ids or edge.dst not in ids:
            raise GraphValidationError(
                f"{ctx}: edge ({edge.src!r}, {edge.dst!r}) references an "
                f"undeclared cluster")
        if edge.tokens < 0:
            raise GraphValidationError(f"{ctx}: negative edge tokens")
        edges.append(edge)
    return ClusteredSnnGraph(clusters, tuple(edges))


def save_clustered_graph(cg: ClusteredSnnGraph, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(clustered_graph_to_dict(cg), fh, sort_keys=False)


def load_clustered_graph(path: str) -> ClusteredSnnGraph:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = yaml.safe_load(fh)
        except yaml.YAMLError as exc:
            raise GraphFormatError(f"{path}: not valid YAML: {exc}") from exc
    if not isinstance(doc, dict):
        raise GraphFormatError(f"{path}: expected a mapping at top level")
    return clustered_graph_from_dict(doc, ctx=path)
