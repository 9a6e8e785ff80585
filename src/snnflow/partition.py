"""Iterative crossbar-sized partitioning of spiking-network graphs.

A partition assigns every neuron to exactly one cluster subject to two
crossbar constraints: a cluster may hold at most ``crossbar_dim`` neurons
and may draw from at most ``crossbar_dim`` distinct pre-synaptic sources
(input sources count by default).  Starting from a seeded random
assignment, pairwise swap descent reduces the number of spikes crossing
cluster boundaries until a full sweep finds no strictly improving swap.

The descent keeps Kernighan-Lin gain tables: per neuron, the spikes it
exchanges with each cluster, so a swap's cost change is an O(1) formula
rather than a re-sum over the synapses it touches; and per cluster, the
synapse count of each pre-synaptic source, so the fan-in limit is
checked by counting the sources a swap would leave and add, without
applying it.  With integer spike counts the partitions are bit-identical
to the plain pair-scan definition (see :func:`kl_refine`).
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from .errors import (GraphFormatError, GraphValidationError,
                     InfeasiblePartitionError)
from .snn_graph import SnnGraph, Synapse, _dump_yaml, _load_yaml

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
                victim = _pick_relocation_victim(c, neurons, assignment,
                                                 neuron_fanin, fanin)
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


def _pick_relocation_victim(cluster: int, neurons, assignment, neuron_fanin,
                            fanin):
    # ``neurons`` is every neuron id in sorted order, so ties go to the
    # smallest id
    best, best_gain = None, -1
    for nid in neurons:
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


def kl_refine(g: SnnGraph, p: Partition, delta_min: float = 0.0,
              trace: list | None = None) -> Partition:
    """Pairwise swap descent on the inter-cluster spike count.

    Scans all neuron pairs ``i < j`` in sorted-id order and keeps the
    first swap found that strictly lowers the cost while both touched
    clusters stay within the crossbar limits.  Sweeps repeat until the
    total improvement of a sweep is at most ``delta_min``, which must be
    a number >= 0 (a negative or NaN threshold could never be met).
    ``trace``, when given, collects one record per sweep: ``sweep``,
    ``delta`` (the sweep's improvement), ``cost`` (the cut after it) and
    ``accepted``, the ``(ni, nj, gain)`` of each kept swap.

    Neurons are numbered in sorted-id order and three tables are kept:

    * ``conn[i][c]``, the spikes on neuron-to-neuron synapses between
      neuron ``i`` and cluster ``c`` in both directions (self-loops left
      out);
    * ``w[i][j]``, the spikes between neurons ``i`` and ``j`` in both
      directions;
    * per cluster, the number of synapses each pre-synaptic source
      sends into it, and the number of distinct sources.

    The cost change of swapping ``i`` in cluster ``A`` with ``j`` in
    ``B`` is then ``conn[i][A] - conn[i][B] + conn[j][B] - conn[j][A] +
    2 w[i][j]``, the negated Kernighan-Lin gain, in O(1).  The fan-in check
    counts the distinct sources ``A`` and ``B`` would have after the
    swap in O(in-degree), without applying it; only an accepted swap
    updates the fan-in counts and the ``conn`` rows of the two neurons'
    neighbours, in O(degree).

    The result and the trace are bit-identical to evaluating every swap
    by re-summing the spikes of the touched synapses whenever spike
    counts are integers, as :func:`snnflow.lif.estimate_rates` produces.
    For arbitrary non-integral counts the gain is summed in another
    order and may differ from that definition in the last bit.
    """
    if not delta_min >= 0:
        raise ValueError(f"delta_min must be >= 0, got {delta_min!r}")
    p.validate(g)
    neurons = sorted(p.assignment)
    index = {nid: i for i, nid in enumerate(neurons)}
    n = len(neurons)
    for src in g.input_ids():  # inputs are numbered after the neurons
        index.setdefault(src, len(index))
    a = [p.assignment[nid] for nid in neurons]

    w: list[dict[int, float]] = [{} for _ in range(n)]
    sources: list[set[int]] = [set() for _ in range(n)]
    for s in g.synapses:
        i, j = index[s.src], index[s.dst]
        if i < n and i != j:
            w[i][j] = w[i].get(j, 0.0) + s.spikes
            w[j][i] = w[j].get(i, 0.0) + s.spikes
        if i < n or p.count_input_fanin:
            sources[j].add(i)
    conn = [[0.0] * p.cluster_count for _ in range(n)]
    for i in range(n):
        for j, spikes in w[i].items():
            conn[i][a[j]] += spikes
    fan = [[0] * len(index) for _ in range(p.cluster_count)]
    for j in range(n):
        for src in sources[j]:
            fan[a[j]][src] += 1
    distinct = [len(f) - f.count(0) for f in fan]

    def fits(c: int, lose: set[int], gain: set[int]) -> bool:
        # distinct sources of cluster c once a neuron fed by `lose`
        # leaves it and one fed by `gain` joins it
        f = fan[c]
        count = distinct[c]
        for src in gain:
            count += f[src] == 0
        for src in lose:
            count -= f[src] == 1 and src not in gain
        return count <= p.crossbar_dim

    def move(x: int, old: int, new: int) -> None:
        a[x] = new
        for y, spikes in w[x].items():
            conn[y][old] -= spikes
            conn[y][new] += spikes
        f_old, f_new = fan[old], fan[new]
        for src in sources[x]:
            f_old[src] -= 1
            if f_old[src] == 0:
                distinct[old] -= 1
            f_new[src] += 1
            if f_new[src] == 1:
                distinct[new] += 1

    cost = communication_cost(g, p)
    sweep = 0
    while True:
        sweep_delta = 0.0
        accepted: list[tuple[str, str, float]] = []
        for i in range(n):
            conn_i, w_i = conn[i], w[i]
            for j in range(i + 1, n):
                ca, cb = a[i], a[j]
                if ca == cb:
                    continue
                conn_j = conn[j]
                delta = (conn_i[ca] - conn_i[cb] + conn_j[cb] - conn_j[ca]
                         + 2 * w_i.get(j, 0.0))
                if delta >= 0 or not (fits(ca, sources[i], sources[j])
                                      and fits(cb, sources[j], sources[i])):
                    continue
                move(i, ca, cb)
                move(j, cb, ca)
                cost += delta
                sweep_delta += -delta
                accepted.append((neurons[i], neurons[j], -delta))
        sweep += 1
        if trace is not None:
            trace.append({"sweep": sweep, "delta": sweep_delta,
                          "cost": cost, "accepted": accepted})
        if sweep_delta <= delta_min:
            break
    return Partition({nid: a[index[nid]] for nid in p.assignment},
                     p.cluster_count, p.crossbar_dim, p.count_input_fanin)


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


def round_seeds(seed: int | None, eta: int
                ) -> list[tuple[np.random.SeedSequence, np.random.SeedSequence]]:
    """The ``(partition seed, mapping seed)`` pair of each of ``eta`` rounds.

    Round ``r`` takes the two streams spawned by
    ``SeedSequence(seed).spawn(eta)[r]``, so a seed gives the same
    clusterings in :func:`iterate_partitions`, in
    :func:`snnflow.dse.run_design_flow` and in the CLI, and a round's
    streams do not depend on ``eta`` or on which process runs it.
    """
    if eta < 1:
        raise ValueError("eta must be >= 1")
    return [tuple(child.spawn(2))
            for child in np.random.SeedSequence(seed).spawn(eta)]


def partition_round(g: SnnGraph, crossbar_dim: int,
                    seed: np.random.SeedSequence, delta_min: float = 0.0,
                    count_input_fanin: bool = True,
                    trace: list | None = None) -> tuple[Partition, float]:
    """One partition round: random init from ``seed``, then swap descent.

    Returns the refined partition and the cut of the initial one.
    ``trace`` collects the per-sweep records of :func:`kl_refine`.
    """
    p = init_partition(g, crossbar_dim, np.random.default_rng(seed),
                       count_input_fanin)
    initial = communication_cost(g, p)
    return kl_refine(g, p, delta_min, trace=trace), initial


def iterate_partitions(g: SnnGraph, crossbar_dim: int, eta: int,
                       delta_min: float = 0.0,
                       seed: int | None = None,
                       count_input_fanin: bool = True) -> list[ClusteredSnnGraph]:
    """Run ``eta`` independent partition rounds seeded by :func:`round_seeds`."""
    out = []
    for kl_seed, _ in round_seeds(seed, eta):
        p, _ = partition_round(g, crossbar_dim, kl_seed, delta_min,
                               count_input_fanin)
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
    _dump_yaml(clustered_graph_to_dict(cg), path)


def load_clustered_graph(path: str) -> ClusteredSnnGraph:
    return clustered_graph_from_dict(_load_yaml(path, CLUSTERED_FORMAT),
                                     ctx=path)
