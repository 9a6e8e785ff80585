"""Iterative crossbar-sized partitioning of spiking-network graphs.

A partition assigns every neuron to exactly one cluster subject to two
crossbar constraints: a cluster may hold at most ``crossbar_dim`` neurons
and may draw from at most ``crossbar_dim`` distinct pre-synaptic sources.
Input sources count among them, as each source takes a crossbar row.
The start cuts a seeded random topological order of the neurons into
contiguous clusters, so every synapse of an acyclic network runs from a
cluster to itself or to a later one and the cluster graph has no cycle
(the level-constrained, acyclic partitioning of Herrmann et al., SIAM J.
Sci. Comput. 2019, and Moreira et al., SEA 2017).  Pairwise swap descent
then reduces the number of spikes crossing cluster boundaries, taking
only swaps that keep every synapse running forward, until a full sweep
finds no strictly improving swap.

The descent keeps Kernighan-Lin gain tables: per neuron, the spikes it
exchanges with each cluster, so a swap's cost change is an O(1) formula
rather than a re-sum over the synapses it touches; and per cluster, the
synapse count of each pre-synaptic source, so the fan-in limit is
checked by counting the sources a swap would leave and add, without
applying it.  It visits only the pairs that could pass: a neuron may
move only within its order band, between its predecessors' highest
cluster and its successors' lowest, and a swap can lower the cut only
if one neuron has a neighbour in the other's cluster, so each sweep
costs O(N x crossbar x degree) rather than O(N^2).  Those pairs are
visited in the order of a scan over all pairs, and the others would all
be rejected, so with integer spike counts the partitions are
bit-identical to the plain pair-scan definition (see :func:`kl_refine`).
The network-only tables (neuron numbering, neighbours, sources and the
spikes between neighbours) come from the graph's adjacency view, built
and validated once per graph; each round builds only the gain, fan-in
and band tables, which depend on the partition.
"""

from __future__ import annotations

import heapq
import math
from collections import defaultdict
from dataclasses import asdict, dataclass

import numpy as np

from .errors import GraphValidationError, InfeasiblePartitionError
from .snn_graph import (SnnGraph, Synapse, _dump_yaml, _entries, _field,
                        _integer, _list_of, _load_yaml, _synapses)

CLUSTERED_FORMAT = "clustered-snn/1"


@dataclass(frozen=True)
class Partition:
    """Neuron-to-cluster assignment targeting one crossbar dimension."""

    assignment: dict[str, int]
    cluster_count: int
    crossbar_dim: int

    def clusters(self) -> list[list[str]]:
        out: list[list[str]] = [[] for _ in range(self.cluster_count)]
        for nid in sorted(self.assignment):
            out[self.assignment[nid]].append(nid)
        return out

    def validate(self, g: SnnGraph) -> None:
        neuron_ids, index, *_, sources = g._adjacency
        if set(self.assignment) != set(neuron_ids):
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
        for c, neurons in enumerate(members):
            fanin = set().union(*(sources[index[nid]] for nid in neurons))
            if len(fanin) > self.crossbar_dim:
                raise GraphValidationError(
                    f"cluster {c} draws from {len(fanin)} distinct sources "
                    f"(limit {self.crossbar_dim})")


def init_partition(g: SnnGraph, crossbar_dim: int,
                   rng: np.random.Generator | int | None = None) -> Partition:
    """Contiguous clusters along a seeded random topological order.

    The order is Kahn's algorithm over the neuron-to-neuron synapses
    (self-loops left out), with ties among ready neurons broken by a
    random priority drawn from ``rng``.  Walking it, a neuron joins the
    current cluster unless that cluster is full or the neuron's sources
    would push its distinct fan-in past ``crossbar_dim``; then a new
    cluster opens.  Clusters are numbered in walk order, so on an acyclic
    network every synapse runs from a cluster to itself or to a later
    one, and the cluster graph is acyclic.  On a cyclic network, when no
    neuron is ready the smallest unplaced id is taken next, so the walk
    always ends; the synapses that close a cycle may then run backward.

    Raises :class:`InfeasiblePartitionError` when a single neuron already
    has more distinct pre-synaptic sources than the crossbar admits.
    """
    if crossbar_dim < 1:
        raise InfeasiblePartitionError("crossbar dimension must be >= 1")
    neurons, _, succ, pred, _, sources = g._adjacency
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)

    n = len(neurons)
    indeg = [len(before) for before in pred]
    for j, srcs in enumerate(sources):
        if len(srcs) > crossbar_dim:
            raise InfeasiblePartitionError(
                f"neuron {neurons[j]!r} has {len(srcs)} distinct pre-synaptic "
                f"sources; no {crossbar_dim}x{crossbar_dim} crossbar can host it")
    if not neurons:
        return Partition({}, 1, crossbar_dim)

    priority = rng.permutation(n).tolist()
    ready = [(priority[i], i) for i in range(n) if indeg[i] == 0]
    heapq.heapify(ready)
    placed = [False] * n
    assignment: dict[str, int] = {}
    cluster, size, fanin = 0, 0, set()
    smallest = 0  # every id below it is placed
    for _ in range(n):
        if ready:
            i = heapq.heappop(ready)[1]
        else:  # a cycle: no neuron is ready, so take the smallest unplaced
            while placed[smallest]:
                smallest += 1
            i = smallest
        placed[i] = True
        for j in succ[i]:
            indeg[j] -= 1
            if indeg[j] == 0 and not placed[j]:
                heapq.heappush(ready, (priority[j], j))
        if size == crossbar_dim or len(fanin.union(sources[i])) > crossbar_dim:
            cluster, size, fanin = cluster + 1, 0, set()
        assignment[neurons[i]] = cluster
        size += 1
        fanin.update(sources[i])
    return Partition(assignment, cluster + 1, crossbar_dim)


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

    Visits neuron pairs ``i < j`` in sorted-id order, ``i`` ascending and
    then ``j`` ascending, and takes each swap that strictly lowers the
    cost while both touched clusters stay within the crossbar limits and
    the cluster order holds; after a taken swap the visit goes on with
    the next ``j`` and ``i`` in its new cluster.  The order rule: a swap
    is rejected if, after it, any neuron-to-neuron synapse incident to
    ``i`` or ``j`` runs from a higher cluster index to a lower one.  From
    a start whose synapses all run forward, as :func:`init_partition`
    builds on an acyclic network, the cluster graph therefore stays
    acyclic.  The rule is an O(degree) check, made only for swaps that
    lower the cost.  Sweeps repeat until the total improvement of a sweep
    is at most ``delta_min``, which must be a number >= 0 (a negative or
    NaN threshold could never be met).  ``trace``, when given, collects
    one record per sweep: ``sweep``, ``delta`` (the sweep's improvement),
    ``cost`` (the cut after it) and ``accepted``, the ``(ni, nj, gain)``
    of each kept swap.

    Neurons are numbered in sorted-id order.  The graph's adjacency view
    gives their neighbours, sources and ``w[i][j]``, the spikes between
    neurons ``i`` and ``j`` in both directions; each call builds:

    * ``conn[i][c]``, the spikes on neuron-to-neuron synapses between
      neuron ``i`` and cluster ``c`` in both directions (self-loops left
      out);
    * per cluster, the number of synapses each pre-synaptic source
      sends into it, and the number of distinct sources;
    * per neuron ``x``, its band ``lo[x]..hi[x]``: ``lo[x]`` is the
      highest cluster among its predecessors (-1 if it has none) and
      ``hi[x]`` the lowest among its successors (the cluster count if
      none); per cluster, its members and the neurons whose band starts
      or ends there.

    The cost change of swapping ``i`` in cluster ``A`` with ``j`` in
    ``B`` is then ``conn[i][A] - conn[i][B] + conn[j][B] - conn[j][A] +
    2 w[i][j]``, the negated Kernighan-Lin gain, in O(1).  The fan-in check
    counts the distinct sources ``A`` and ``B`` would have after the
    swap in O(in-degree), without applying it; only an accepted swap
    updates the fan-in counts, the ``conn`` rows of the two neurons'
    neighbours and the bands of their predecessors and successors, in
    O(degree^2).

    Only pairs that could pass are visited (the boundary refinement of
    Fiduccia and Mattheyses, DAC 1982, inside the level band of Herrmann
    et al., SIAM J. Sci. Comput. 2019).  The order rule can hold only if
    ``B`` lies in ``i``'s band and ``A`` in ``j``'s, including when ``j``
    is ``i``'s own predecessor or successor, since ``j`` then sits at an
    end of the band.  Spike counts are >= 0, so the cost can fall only if
    ``i`` has a neighbour in ``B`` or ``j`` one in ``A``, and inside
    ``x``'s band the only clusters holding a neighbour of ``x`` are
    ``lo[x]`` and ``hi[x]``.  So ``i``'s partners are the members of
    clusters ``lo[i]`` and ``hi[i]`` and the neurons whose band starts or
    ends at ``A``, each kept only if both bands admit the swap: O(crossbar
    x degree) candidates per neuron and sweep instead of all N.  With
    exact gains the pairs left out are ones a scan over all pairs would
    reject, and the visit order is that scan's, so the same swaps are
    taken.

    With integer spike counts, as :func:`snnflow.lif.estimate_rates`
    produces, or dyadic ones, the tables hold exact sums, so the result
    and the trace are bit-identical to scanning every pair and
    re-summing the spikes of the touched synapses.  With other
    non-integral counts the gain is summed in another order and may
    differ from that definition in the last bit, and ``conn`` may keep a
    rounding residue where a neuron no longer exchanges spikes with a
    cluster; a scan over all pairs could then take a swap whose exact
    gain is <= 0 on the strength of that residue, which this visit
    skips.
    """
    if not delta_min >= 0:
        raise ValueError(f"delta_min must be >= 0, got {delta_min!r}")
    p.validate(g)
    neurons, index, succ, pred, w, sources = g._adjacency
    n = len(neurons)
    a = [p.assignment[nid] for nid in neurons]
    k = p.cluster_count
    conn = [[0.0] * k for _ in range(n)]
    for i in range(n):
        for j, spikes in w[i].items():
            conn[i][a[j]] += spikes
    fan = [[0] * len(index) for _ in range(k)]
    for j in range(n):
        for src in sources[j]:
            fan[a[j]][src] += 1
    distinct = [len(f) - f.count(0) for f in fan]
    # the bands, and per cluster its members and the neurons whose band
    # starts or ends there.  Each table has an extra last slot, which -1
    # also indexes: the band ends -1 and k land there, where no neuron is
    # a member, and partners() looks up lo_at and hi_at only at clusters.
    cluster_of = a.__getitem__
    lo = [max(map(cluster_of, pred[x]), default=-1) for x in range(n)]
    hi = [min(map(cluster_of, succ[x]), default=k) for x in range(n)]
    members: list[set[int]] = [set() for _ in range(k + 1)]
    lo_at: list[set[int]] = [set() for _ in range(k + 1)]
    hi_at: list[set[int]] = [set() for _ in range(k + 1)]
    for x in range(n):
        members[a[x]].add(x)
        lo_at[lo[x]].add(x)
        hi_at[hi[x]].add(x)

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

    def ordered(x: int, c: int, y: int) -> bool:
        # every synapse of neuron x runs forward once x sits in cluster c
        # and its swap partner y in x's old cluster
        old = a[x]
        for z in pred[x]:
            if (old if z == y else a[z]) > c:
                return False
        for z in succ[x]:
            if (old if z == y else a[z]) < c:
                return False
        return True

    def partners(i: int, after: int) -> list[int]:
        # the j > after, ascending, that pass the band and neighbourhood
        # tests with i (see the docstring)
        ca, lo_i, hi_i = a[i], lo[i], hi[i]
        pool = members[lo_i] | members[hi_i] | lo_at[ca] | hi_at[ca]
        return sorted([j for j in pool
                       if j > after and a[j] != ca and lo_i <= a[j] <= hi_i
                       and lo[j] <= ca <= hi[j]])

    def move(x: int, old: int, new: int) -> None:
        a[x] = new
        members[old].remove(x)
        members[new].add(x)
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

    # the running cut feeds only the trace
    cost = communication_cost(g, p) if trace is not None else 0.0
    sweep = 0
    while True:
        sweep_delta = 0.0
        accepted: list[tuple[str, str, float]] = []
        for i in range(n):
            conn_i, w_i = conn[i], w[i]
            j = i
            while True:  # one pass over i's partners per accepted swap
                for j in partners(i, j):
                    ca, cb = a[i], a[j]
                    conn_j = conn[j]
                    delta = (conn_i[ca] - conn_i[cb] + conn_j[cb] - conn_j[ca]
                             + 2 * w_i.get(j, 0.0))
                    if delta >= 0 or not (
                            ordered(i, cb, j) and ordered(j, ca, i)
                            and fits(ca, sources[i], sources[j])
                            and fits(cb, sources[j], sources[i])):
                        continue
                    move(i, ca, cb)
                    move(j, cb, ca)
                    for x in {*succ[i], *succ[j]}:
                        lo_at[lo[x]].remove(x)
                        lo[x] = max(map(cluster_of, pred[x]))
                        lo_at[lo[x]].add(x)
                    for x in {*pred[i], *pred[j]}:
                        hi_at[hi[x]].remove(x)
                        hi[x] = min(map(cluster_of, succ[x]))
                        hi_at[hi[x]].add(x)
                    cost += delta
                    sweep_delta += -delta
                    accepted.append((neurons[i], neurons[j], -delta))
                    break
                else:
                    break
        sweep += 1
        if trace is not None:
            trace.append({"sweep": sweep, "delta": sweep_delta,
                          "cost": cost, "accepted": accepted})
        if sweep_delta <= delta_min:
            break
    return Partition({nid: a[index[nid]] for nid in p.assignment},
                     p.cluster_count, p.crossbar_dim)


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
    ``SeedSequence(seed).spawn(eta)[r]``.  :func:`snnflow.dse.run_design_flow`
    and the CLI's ``partition`` command both pass round ``r``'s partition
    seed to :func:`partition_round`, so a seed gives them the same
    clusterings, and a round's streams do not depend on ``eta`` or on
    which process runs it.
    """
    if eta < 1:
        raise ValueError("eta must be >= 1")
    return [tuple(child.spawn(2))
            for child in np.random.SeedSequence(seed).spawn(eta)]


def partition_round(g: SnnGraph, crossbar_dim: int,
                    seed: np.random.SeedSequence, delta_min: float = 0.0,
                    trace: list | None = None) -> Partition:
    """One partition round: topological start from ``seed``, then swap descent.

    Returns the refined partition.  ``trace``, when given, collects a
    sweep-0 record of the start (``delta`` 0.0, ``cost`` its cut, no
    swaps accepted), then the per-sweep records of :func:`kl_refine`.
    """
    p = init_partition(g, crossbar_dim, np.random.default_rng(seed))
    if trace is not None:
        trace.append({"sweep": 0, "delta": 0.0,
                      "cost": communication_cost(g, p), "accepted": []})
    return kl_refine(g, p, delta_min, trace=trace)


def clustered_graph_to_dict(cg: ClusteredSnnGraph) -> dict:
    return {
        "format": CLUSTERED_FORMAT,
        "clusters": [{"id": c.id,
                      "neurons": list(c.neurons),
                      "synapses": list(map(asdict, c.synapses)),
                      "input_feeds": list(map(asdict, c.input_feeds))}
                     for c in cg.clusters],
        "edges": list(map(asdict, cg.edges)),
    }


def clustered_graph_from_dict(doc: dict, ctx: str = "<clustered>") -> ClusteredSnnGraph:
    clusters = tuple(
        Cluster(_field(e, "id", where, str),
                _field(e, "neurons", where, _list_of(str), ()),
                _synapses(e, "synapses", where),
                _synapses(e, "input_feeds", where))
        for where, e in _entries(doc, "clusters", ctx))
    ids = {c.id for c in clusters}
    edges = []
    for where, e in _entries(doc, "edges", ctx):
        edge = ClusterEdge(_field(e, "src", where, str),
                           _field(e, "dst", where, str),
                           _field(e, "tokens", where, _integer))
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
