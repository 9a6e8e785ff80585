"""Shared fixtures: the reference network, platforms and random generators."""

from __future__ import annotations

import numpy as np
import pytest

from snnflow.partition import (Cluster, ClusterEdge, ClusteredSnnGraph,
                               Partition, build_clustered_graph,
                               partition_round, round_seeds)
from snnflow.sdfg import (Actor, Channel, Sdfg, lift_to_sdfg,
                          minimum_buffer_allocation, sdfg_from_dict,
                          set_buffer_allocation)
from snnflow.snn_graph import (Core, HardwareGraph, InputSource, Link, Neuron,
                               SnnGraph, Synapse)


def layered_demo_snn() -> SnnGraph:
    """Eight neurons fed by five inputs, three layers deep.

    Token counts are chosen so that N3 emits 6 spikes after receiving 2
    from N2 and 11 from input B, and every neuron's outgoing synapses
    carry its own firing count.
    """
    neurons = tuple(Neuron.make(f"N{i}") for i in range(1, 9))
    inputs = (InputSource("A", 5), InputSource("B", 11), InputSource("C", 4),
              InputSource("D", 3), InputSource("E", 2))
    synapses = (
        Synapse("A", "N1", 1.0, 5), Synapse("B", "N3", 1.0, 11),
        Synapse("C", "N2", 1.0, 4), Synapse("D", "N5", 1.0, 3),
        Synapse("E", "N6", 1.0, 2),
        Synapse("N2", "N3", 1.0, 2), Synapse("N1", "N4", 1.0, 7),
        Synapse("N3", "N4", 1.0, 6), Synapse("N3", "N7", 1.0, 6),
        Synapse("N4", "N8", 1.0, 9), Synapse("N5", "N7", 1.0, 3),
        Synapse("N6", "N8", 1.0, 4), Synapse("N7", "N8", 1.0, 5),
    )
    g = SnnGraph(neurons, inputs, synapses)
    g.validate()
    return g


def demo_partition() -> Partition:
    """A hand-picked three-way clustering of the demo network."""
    assignment = {"N1": 0, "N2": 0, "N3": 0,
                  "N4": 1, "N5": 1, "N7": 1,
                  "N6": 2, "N8": 2}
    return Partition(assignment, 3, crossbar_dim=8)


def demo_clustered() -> ClusteredSnnGraph:
    """The clustered view of :func:`demo_partition`, written out by hand."""
    return ClusteredSnnGraph(
        clusters=(
            Cluster("c0", ("N1", "N2", "N3"),
                    (Synapse("N2", "N3", 1.0, 2),),
                    (Synapse("A", "N1", 1.0, 5), Synapse("B", "N3", 1.0, 11),
                     Synapse("C", "N2", 1.0, 4))),
            Cluster("c1", ("N4", "N5", "N7"),
                    (Synapse("N5", "N7", 1.0, 3),),
                    (Synapse("D", "N5", 1.0, 3),)),
            Cluster("c2", ("N6", "N8"),
                    (Synapse("N6", "N8", 1.0, 4),),
                    (Synapse("E", "N6", 1.0, 2),)),
        ),
        edges=(ClusterEdge("c0", "c1", 19), ClusterEdge("c1", "c2", 14)))


def lift_bounded(cg: ClusteredSnnGraph, core_exec_time=1,
                 buffer: int = 64) -> Sdfg:
    """The lifted graph with every inter-cluster channel sized to
    ``buffer``, through the checked :func:`set_buffer_allocation`."""
    g = lift_to_sdfg(cg, core_exec_time=core_exec_time)
    return set_buffer_allocation(
        g, dict.fromkeys(minimum_buffer_allocation(g), buffer))


@pytest.fixture
def demo_snn() -> SnnGraph:
    return layered_demo_snn()


def partition_rounds(g: SnnGraph, crossbar_dim: int, eta: int,
                     delta_min: float = 0.0,
                     seed: int | None = None) -> list[ClusteredSnnGraph]:
    """The clustered graph of each of ``eta`` partition rounds, built from
    the round seeds the way the design flow and the CLI build them."""
    return [build_clustered_graph(
                g, partition_round(g, crossbar_dim, kl_seed, delta_min))
            for kl_seed, _ in round_seeds(seed, eta)]


def two_core_platform(dim: int = 8) -> HardwareGraph:
    return HardwareGraph(
        (Core("t0", dim, 1), Core("t1", dim, 1)),
        (Link("t0", "t1", 1), Link("t1", "t0", 1)))


def all_to_all_platform(n: int, dim: int = 8, exec_time=1,
                        latency=1) -> HardwareGraph:
    cores = tuple(Core(f"t{i}", dim, exec_time) for i in range(n))
    links = tuple(Link(f"t{i}", f"t{j}", latency)
                  for i in range(n) for j in range(n) if i != j)
    return HardwareGraph(cores, links)


@pytest.fixture
def hw2() -> HardwareGraph:
    return two_core_platform()


@pytest.fixture
def hw3() -> HardwareGraph:
    return all_to_all_platform(3)


# ------------------------------------------------- random generators

def random_hsdf(seed: int, max_actors: int = 6) -> Sdfg:
    """Single-rate graph: self-loop per actor plus bounded random edges.

    Every inter-actor channel is bounded, so its credit edge closes a
    cycle and occupancy stays finite; token placement still allows dead
    graphs (zero-token cycles) now and then.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, max_actors + 1))
    actors = tuple(Actor(f"a{i}", int(rng.integers(1, 6))) for i in range(n))
    channels = [Channel(a.id, a.id, tokens=1) for a in actors]
    n_extra = int(rng.integers(1, 2 * n))
    for _ in range(n_extra):
        i, j = rng.integers(0, n, size=2)
        if i == j:
            continue
        tokens = int(rng.integers(0, 3))
        capacity = tokens + int(rng.integers(1, 4))
        channels.append(Channel(f"a{i}", f"a{j}",
                                tokens=tokens, capacity=capacity))
    return Sdfg(actors, tuple(channels))


def random_chain(seed: int, max_actors: int = 5) -> dict:
    """The sdfg/1 document of a single-rate graph shaped like a lifted
    one: a bounded forward chain with skip edges and an optional bounded
    feedback edge.  Each channel moves its own spike count r in 1..3 per
    firing and has a capacity of at least r spikes.  Skip and feedback
    edges may carry initial spikes, short of one firing or leaving less
    than one firing of space now and then, so some graphs deadlock, on
    tokens or on space.  Initial spikes and capacities need not be whole
    firings: the reader drops what no firing moves, and tests comparing
    :func:`chain_graph` with an oracle reading this document check it."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, max_actors + 1))
    actors = [{"id": f"a{i}", "exec_time": int(rng.integers(1, 5))}
              for i in range(n)]
    channels = [{"src": a["id"], "prod": 1, "dst": a["id"], "cons": 1,
                 "tokens": 1, "capacity": None} for a in actors]

    def bounded(i, j, delayed):
        r = int(rng.integers(1, 4))
        tokens = int(rng.integers(0, 2 * r + 1)) if delayed else 0
        cap = max(r, tokens + int(rng.integers(0, 2 * r)))
        channels.append({"src": f"a{i}", "prod": r, "dst": f"a{j}",
                         "cons": r, "tokens": tokens, "capacity": cap})

    for i in range(n - 1):
        for j in range(i + 1, n):
            if j == i + 1 or rng.random() < 0.3:
                bounded(i, j, delayed=j > i + 1 and rng.random() < 0.5)
    if n > 2 and rng.random() < 0.5:
        bounded(n - 1, 0, delayed=True)
    return {"format": "sdfg/1", "actors": actors, "channels": channels}


def chain_graph(seed: int, max_actors: int = 5) -> Sdfg:
    """The graph that the sdfg/1 reader makes of :func:`random_chain`."""
    return sdfg_from_dict(random_chain(seed, max_actors))


def random_snn(seed: int, n_neurons: int = 12, n_inputs: int = 2,
               edge_prob: float = 0.3, max_spikes: int = 20) -> SnnGraph:
    """Random feed-forward-ish spiking network with integer spike counts."""
    rng = np.random.default_rng(seed)
    neurons = tuple(Neuron.make(f"n{i:02d}") for i in range(n_neurons))
    inputs = tuple(InputSource(f"in{i}", int(rng.integers(1, max_spikes)))
                   for i in range(n_inputs))
    synapses = []
    for i in range(n_neurons):
        for j in range(n_neurons):
            if i != j and rng.random() < edge_prob and i < j:
                synapses.append(Synapse(f"n{i:02d}", f"n{j:02d}", 1.0,
                                        int(rng.integers(0, max_spikes))))
    for k, inp in enumerate(inputs):
        target = int(rng.integers(0, max(1, n_neurons // 2)))
        synapses.append(Synapse(inp.id, f"n{target:02d}", 1.0, inp.spikes))
    g = SnnGraph(neurons, inputs, tuple(synapses))
    g.validate()
    return g


def feasible_dim(g: SnnGraph, floor: int = 2) -> int:
    """Smallest crossbar dimension that can host every single neuron."""
    fanin: dict[str, set[str]] = {}
    for s in g.synapses:
        fanin.setdefault(s.dst, set()).add(s.src)
    worst = max((len(v) for v in fanin.values()), default=1)
    return max(floor, worst)


def layered_snn(seed: int, layers: list[int], fanout: int = 4,
                max_spikes: int = 12) -> SnnGraph:
    """Layered network whose synapses all point to the next layer."""
    rng = np.random.default_rng(seed)
    names: list[list[str]] = []
    k = 0
    for size in layers:
        names.append([f"n{k + i:03d}" for i in range(size)])
        k += size
    neurons = tuple(Neuron.make(nid) for layer in names for nid in layer)
    inputs = tuple(InputSource(f"in{i}", int(rng.integers(2, max_spikes)))
                   for i in range(len(names[0])))
    synapses = []
    for inp, nid in zip(inputs, names[0]):
        synapses.append(Synapse(inp.id, nid, 1.0, inp.spikes))
    for l in range(len(names) - 1):
        rate = {nid: int(rng.integers(1, max_spikes)) for nid in names[l]}
        for nid in names[l]:
            k_out = min(fanout, len(names[l + 1]))
            targets = rng.choice(len(names[l + 1]), size=k_out, replace=False)
            for t in sorted(targets):
                synapses.append(Synapse(nid, names[l + 1][t], 1.0, rate[nid]))
    g = SnnGraph(neurons, inputs, tuple(synapses))
    g.validate()
    return g
