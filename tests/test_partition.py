"""Partitioning: topological init, swap descent, clustered-graph construction."""

from dataclasses import replace

import pytest

from conftest import (demo_clustered, demo_partition, feasible_dim,
                      layered_snn, partition_rounds, random_snn)
from oracles import (copy_partition, exhaustive_min_cost, improving_swap,
                     reference_kl_refine)

from snnflow.errors import GraphValidationError, InfeasiblePartitionError
from snnflow.partition import (Partition, build_clustered_graph,
                               clustered_graph_from_dict,
                               clustered_graph_to_dict, communication_cost,
                               init_partition, kl_refine,
                               load_clustered_graph, save_clustered_graph)
from snnflow.snn_graph import InputSource, Neuron, SnnGraph, Synapse


def chain(n: int, spikes: int = 1) -> SnnGraph:
    neurons = tuple(Neuron.make(f"n{i}") for i in range(n))
    syn = tuple(Synapse(f"n{i}", f"n{i+1}", 1.0, spikes) for i in range(n - 1))
    return SnnGraph(neurons, (), syn)


def test_init_single_cluster_when_everything_fits():
    g = chain(4)
    p = init_partition(g, 4, 0)
    assert p.cluster_count >= 1
    assert len([c for c in p.clusters() if c]) == 1
    p.validate(g)


def test_init_respects_size_bound():
    g = chain(8)
    for seed in range(5):
        p = init_partition(g, 4, seed)
        for members in p.clusters():
            assert len(members) <= 4
        p.validate(g)


def test_init_infeasible_fanin():
    # one neuron with five distinct sources cannot fit a 4x4 crossbar
    neurons = tuple(Neuron.make(f"n{i}") for i in range(6))
    syn = tuple(Synapse(f"n{i}", "n5", 1.0, 1) for i in range(5))
    g = SnnGraph(neurons, (), syn)
    with pytest.raises(InfeasiblePartitionError, match="n5"):
        init_partition(g, 4, 0)


def test_init_counts_inputs_against_fanin_by_default():
    # three input sources take three crossbar rows, one more than fit
    neurons = (Neuron.make("n0"),)
    inputs = tuple(InputSource(f"i{k}", 1) for k in range(3))
    syn = tuple(Synapse(f"i{k}", "n0", 1.0, 1) for k in range(3))
    g = SnnGraph(neurons, inputs, syn)
    with pytest.raises(InfeasiblePartitionError, match="n0"):
        init_partition(g, 2, 0)
    init_partition(g, 3, 0).validate(g)


def test_init_deterministic_per_seed():
    g = random_snn(3, n_neurons=14)
    assert init_partition(g, 5, 123) == init_partition(g, 5, 123)


def backward_synapses(g: SnnGraph, p: Partition) -> list[Synapse]:
    a = p.assignment
    return [s for s in g.synapses if s.src in a and a[s.src] > a[s.dst]]


def test_init_runs_every_synapse_forward_on_acyclic_nets():
    for g, dim, seed in _refine_cases():
        p = init_partition(g, dim, seed)
        p.validate(g)
        assert backward_synapses(g, p) == []


def test_init_terminates_on_a_cyclic_net():
    # a ring of ten neurons plus a chord: Kahn's algorithm finds no ready
    # neuron at all, so the walk must pick its own way in
    neurons = tuple(Neuron.make(f"n{i}") for i in range(10))
    syn = tuple(Synapse(f"n{i}", f"n{(i + 1) % 10}", 1.0, 2)
                for i in range(10)) + (Synapse("n3", "n7", 1.0, 5),)
    g = SnnGraph(neurons, (), syn)
    for seed in range(5):
        p = init_partition(g, 4, seed)
        p.validate(g)
        assert p.cluster_count >= 3
        assert backward_synapses(g, p)  # a cycle cannot run all forward
        assert init_partition(g, 4, seed) == p
        kl_refine(g, p).validate(g)


def test_cost_zero_when_single_cluster():
    g = chain(4, spikes=9)
    p = Partition({f"n{i}": 0 for i in range(4)}, 1, crossbar_dim=4)
    assert communication_cost(g, p) == 0


def test_cost_counts_single_cut_edge():
    g = SnnGraph((Neuron.make("a"), Neuron.make("b")), (),
                 (Synapse("a", "b", 1.0, 7),))
    p = Partition({"a": 0, "b": 1}, 2, crossbar_dim=2)
    assert communication_cost(g, p) == 7


def test_cost_on_demo_clustering_matches_hand_sum(demo_snn):
    # cut synapses: N1->N4 (7), N3->N4 (6), N3->N7 (6), N4->N8 (9), N7->N8 (5)
    assert communication_cost(demo_snn, demo_partition()) == 33


def test_input_feeds_do_not_contribute_to_cost(demo_snn):
    p = demo_partition()
    base = communication_cost(demo_snn, p)
    stripped = SnnGraph(demo_snn.neurons, (),
                        tuple(s for s in demo_snn.synapses
                              if s.src not in {"A", "B", "C", "D", "E"}))
    assert communication_cost(stripped, p) == base


def test_kl_never_worsens_and_reaches_local_optimum():
    for seed in range(8):
        g = random_snn(seed, n_neurons=10, edge_prob=0.4)
        dim = feasible_dim(g, floor=5)
        p0 = init_partition(g, dim, seed)
        before = communication_cost(g, p0)
        trace = []
        p1 = kl_refine(g, p0, trace=trace)
        after = communication_cost(g, p1)
        assert after <= before
        costs = [before] + [rec["cost"] for rec in trace]
        assert all(b <= a for a, b in zip(costs, costs[1:]))
        for rec in trace:
            assert all(delta > 0 for _, _, delta in rec["accepted"])
        assert improving_swap(g, p1) is None


def test_kl_keeps_exhaustive_optimum_unchanged():
    # 6 neurons, already at the global optimum found by enumeration
    g = SnnGraph(
        tuple(Neuron.make(f"n{i}") for i in range(6)), (),
        (Synapse("n0", "n1", 1.0, 9), Synapse("n1", "n2", 1.0, 8),
         Synapse("n3", "n4", 1.0, 9), Synapse("n4", "n5", 1.0, 8),
         Synapse("n2", "n3", 1.0, 1)))
    best = exhaustive_min_cost(g, crossbar_dim=3, max_clusters=2)
    p = Partition({"n0": 0, "n1": 0, "n2": 0, "n3": 1, "n4": 1, "n5": 1},
                  2, crossbar_dim=3)
    assert communication_cost(g, p) == best
    refined = kl_refine(g, copy_partition(p))
    assert refined.assignment == p.assignment


def test_kl_removes_whole_cut_on_barbell():
    # two tight pairs split the wrong way; one swap clears the cut
    g = SnnGraph(
        tuple(Neuron.make(x) for x in ("a", "b", "c", "d")), (),
        (Synapse("a", "b", 1.0, 10), Synapse("c", "d", 1.0, 10)))
    p = Partition({"a": 0, "b": 1, "c": 0, "d": 1}, 2, crossbar_dim=2)
    refined = kl_refine(g, p)
    assert communication_cost(g, refined) == 0


def test_kl_cost_never_increases_many_seeds():
    g = random_snn(42, n_neurons=10, edge_prob=0.5)
    dim = feasible_dim(g, floor=5)
    for seed in range(20):
        p0 = init_partition(g, dim, seed)
        before = communication_cost(g, p0)
        after = communication_cost(g, kl_refine(g, p0))
        assert after <= before


def _refine_cases():
    # (graph, crossbar dim, init seed) covering random and layered nets
    for seed in range(24):
        g = random_snn(seed, n_neurons=10 + seed % 9, edge_prob=0.35)
        yield g, feasible_dim(g, floor=4), seed
    for layers in ([4, 4, 4], [8, 8, 8]):
        for seed in range(4):
            g = layered_snn(seed, layers)
            yield g, feasible_dim(g, floor=4), seed


def test_kl_never_creates_a_backward_synapse_from_an_ordered_start():
    accepted = 0
    for g, dim, seed in _refine_cases():
        p = init_partition(g, dim, seed)
        trace = []
        refined = kl_refine(g, p, trace=trace)
        assert backward_synapses(g, refined) == []
        accepted += sum(len(rec["accepted"]) for rec in trace)
    assert accepted > 0


def _assert_matches_reference(g, p, delta_min):
    got_trace, want_trace = [], []
    got = kl_refine(g, p, delta_min, trace=got_trace)
    want = reference_kl_refine(g, p, delta_min, trace=want_trace)
    assert got == want
    assert got_trace == want_trace
    return got, got_trace


# The reference-match cases keep the ids they had when they also ran
# with input sources left out of the fan-in, hence the "-True" ending.
_COUNTED = ["0.0-True", "6.0-True"]


@pytest.mark.parametrize("delta_min", [0.0, 6.0], ids=_COUNTED)
def test_kl_matches_pair_scan_reference(delta_min):
    accepted = 0
    for g, dim, seed in _refine_cases():
        p = init_partition(g, dim, seed)
        _, trace = _assert_matches_reference(g, p, delta_min)
        accepted += sum(len(rec["accepted"]) for rec in trace)
    assert accepted > 0


def test_kl_matches_reference_on_dyadic_spike_counts():
    # quarters and halves add exactly in any order, so the gain table
    # and the reference's per-synapse sums must agree bit for bit
    fractions = (0.25, 2.5, 0.5, 1.75, 3.25)
    for seed in range(10):
        g = random_snn(seed, n_neurons=14, edge_prob=0.4)
        g = replace(g, synapses=tuple(
            replace(s, spikes=s.spikes + fractions[k % len(fractions)])
            for k, s in enumerate(g.synapses)))
        p = init_partition(g, feasible_dim(g, floor=4), seed)
        got, trace = _assert_matches_reference(g, p, 0.0)
        assert trace[-1]["cost"] == communication_cost(g, got)


@pytest.mark.parametrize("delta_min", [-1.0, float("nan")])
def test_kl_rejects_negative_or_nan_delta_min(demo_snn, delta_min):
    with pytest.raises(ValueError, match="delta_min"):
        kl_refine(demo_snn, demo_partition(), delta_min=delta_min)


def test_kl_last_trace_cost_is_the_cut_of_the_result():
    for g, dim, seed in _refine_cases():
        trace = []
        refined = kl_refine(g, init_partition(g, dim, seed), trace=trace)
        assert trace[-1]["cost"] == communication_cost(g, refined)


def test_kl_delta_min_stops_after_first_small_sweep():
    stopped_early = 0
    for g, dim, seed in _refine_cases():
        p = init_partition(g, dim, seed)
        full = []
        kl_refine(g, p, 0.0, trace=full)
        if len(full) < 3:
            continue
        delta_min = full[1]["delta"]
        trace = []
        refined = kl_refine(g, p, delta_min, trace=trace)
        stop = next(k for k, rec in enumerate(full)
                    if rec["delta"] <= delta_min)
        assert trace == full[:stop + 1]
        assert communication_cost(g, refined) == trace[-1]["cost"]
        stopped_early += stop + 1 < len(full)
    assert stopped_early > 0


def test_kl_without_input_fanin_takes_swaps_inputs_would_block():
    # a -> b carries the only cut; moving b next to a would give that
    # cluster the sources {ia, a, ib}, three rows of a 2x2 crossbar, so
    # the inputs block the one swap that would remove the cut
    g = SnnGraph(
        tuple(Neuron.make(x) for x in ("a", "b", "c", "d")),
        (InputSource("ia", 1), InputSource("ib", 1)),
        (Synapse("ia", "a", 1.0, 1), Synapse("ib", "b", 1.0, 1),
         Synapse("a", "b", 1.0, 10)))
    assignment = {"a": 0, "c": 0, "b": 1, "d": 1}
    counted = Partition(assignment, 2, crossbar_dim=2)
    refined, _ = _assert_matches_reference(g, counted, 0.0)
    assert refined.assignment == assignment
    assert communication_cost(g, refined) == 10
    with pytest.raises(GraphValidationError, match="distinct sources"):
        Partition({"a": 0, "b": 0, "c": 1, "d": 1}, 2,
                  crossbar_dim=2).validate(g)


def _accepted(trace) -> list[tuple[str, str, float]]:
    return [swap for rec in trace for swap in rec["accepted"]]


# Larger nets, where each neuron's partners are a small share of all
# neurons.  Every delta_min runs on each size and crossbar.
_AT_SIZE = [(width, dim, delta_min) for width in (24, 48)
            for dim in ("16", "feasible") for delta_min in (0.0, 6.0)]


@pytest.mark.parametrize("width,dim,delta_min", _AT_SIZE,
                         ids=[f"{w}-{d}-{m}-True" for w, d, m in _AT_SIZE])
def test_kl_matches_reference_on_layered_nets_at_size(width, dim, delta_min):
    g = layered_snn(width, [width] * 4)
    crossbar = 16 if dim == "16" else feasible_dim(g)
    p = init_partition(g, crossbar, width)
    _, trace = _assert_matches_reference(g, p, delta_min)
    assert _accepted(trace)


@pytest.mark.parametrize("delta_min", [0.0, 6.0], ids=_COUNTED)
def test_kl_matches_reference_on_random_nets_up_to_40_neurons(delta_min):
    accepted = 0
    for seed in range(6):
        g = random_snn(100 + seed, n_neurons=30 + 2 * seed, edge_prob=0.15)
        p = init_partition(g, feasible_dim(g, floor=4), seed)
        _, trace = _assert_matches_reference(g, p, delta_min)
        accepted += len(_accepted(trace))
    assert accepted > 0


def _dyadic(g: SnnGraph) -> SnnGraph:
    fractions = (0.25, 2.5, 0.5, 1.75, 3.25, 0.125)
    return replace(g, synapses=tuple(
        replace(s, spikes=s.spikes + fractions[k % len(fractions)])
        for k, s in enumerate(g.synapses)))


@pytest.mark.parametrize("delta_min", [0.0, 6.0])
def test_kl_matches_reference_on_dyadic_counts_at_48_neurons(delta_min):
    accepted = 0
    for seed, g in enumerate((layered_snn(3, [12] * 4),
                              random_snn(7, n_neurons=48, edge_prob=0.08),
                              random_snn(8, n_neurons=56, edge_prob=0.06))):
        g = _dyadic(g)
        p = init_partition(g, feasible_dim(g, floor=6), seed)
        got, trace = _assert_matches_reference(g, p, delta_min)
        assert trace[-1]["cost"] == communication_cost(g, got)
        accepted += len(_accepted(trace))
    assert accepted > 0


# Each partner source on its own: in the first graph only i has a
# neighbour in j's cluster, in the second only j has one in i's.
def test_kl_takes_a_swap_that_gains_only_through_i():
    # a -> u (10 spikes) is the cut; b has no synapse at all
    g = SnnGraph(tuple(Neuron.make(x) for x in ("a", "b", "u")), (),
                 (Synapse("a", "u", 1.0, 10),))
    p = Partition({"a": 0, "b": 1, "u": 1}, 2, crossbar_dim=2)
    refined, trace = _assert_matches_reference(g, p, 0.0)
    assert _accepted(trace) == [("a", "b", 10.0)]
    assert communication_cost(g, refined) == 0


def test_kl_takes_a_swap_that_gains_only_through_j():
    # v -> b (7 spikes) is the cut; a has no synapse at all
    g = SnnGraph(tuple(Neuron.make(x) for x in ("a", "b", "v")), (),
                 (Synapse("v", "b", 1.0, 7),))
    p = Partition({"a": 0, "v": 0, "b": 1}, 2, crossbar_dim=2)
    refined, trace = _assert_matches_reference(g, p, 0.0)
    assert _accepted(trace) == [("a", "b", 7.0)]
    assert communication_cost(g, refined) == 0


@pytest.mark.parametrize("a_to_b", [True, False])
def test_kl_swaps_partners_that_are_each_others_neighbours(a_to_b):
    # a and b share a synapse that runs backward; the swap turns it
    # forward and pulls c's 5 spikes inside.  b sits at an end of a's
    # band and a at an end of b's, as predecessor and successor.
    if a_to_b:  # b is a's successor
        syn = (Synapse("a", "b", 1.0, 1), Synapse("a", "c", 1.0, 5))
        assignment = {"a": 1, "b": 0, "c": 0}
    else:  # b is a's predecessor
        syn = (Synapse("b", "a", 1.0, 1), Synapse("c", "a", 1.0, 5))
        assignment = {"a": 0, "b": 1, "c": 1}
    g = SnnGraph(tuple(Neuron.make(x) for x in ("a", "b", "c")), (), syn)
    p = Partition(assignment, 2, crossbar_dim=2)
    refined, trace = _assert_matches_reference(g, p, 0.0)
    assert _accepted(trace)[0] == ("a", "b", 5.0)
    assert backward_synapses(g, refined) == []


def inverted_bands(g: SnnGraph, p: Partition) -> int:
    """Neurons with a predecessor in a higher cluster than a successor."""
    a = p.assignment
    lo: dict[str, int] = {}
    hi: dict[str, int] = {}
    for s in g.synapses:
        if s.src in a and s.src != s.dst:
            lo[s.dst] = max(lo.get(s.dst, -1), a[s.src])
            hi[s.src] = min(hi.get(s.src, p.cluster_count), a[s.dst])
    return sum(lo.get(x, -1) > hi.get(x, p.cluster_count) for x in a)


def _round_robin_starts():
    for seed, layers in enumerate(([8, 8, 8], [6, 6, 6, 6], [12, 12, 12])):
        g = layered_snn(seed, layers)
        neurons = sorted(n.id for n in g.neurons)
        # two neurons a cluster, so twice the largest fan-in fits
        k = len(neurons) // 2
        p = Partition({x: i % k for i, x in enumerate(neurons)}, k,
                      crossbar_dim=2 * feasible_dim(g))
        yield g, p


def _cyclic_starts():
    # random_snn only draws synapses i -> j with i < j; add some back
    for seed in range(6):
        g = random_snn(seed, n_neurons=16 + seed, edge_prob=0.25)
        ids = [n.id for n in g.neurons]
        back = tuple(Synapse(ids[-1 - k], ids[k], 1.0, 3 + k)
                     for k in range(0, len(ids) // 2, 2))
        g = replace(g, synapses=g.synapses + back)
        yield g, init_partition(g, feasible_dim(g, floor=4), seed)


@pytest.mark.parametrize("starts", [_round_robin_starts, _cyclic_starts])
@pytest.mark.parametrize("delta_min", [0.0, 6.0])
def test_kl_matches_reference_from_starts_that_run_backward(starts,
                                                            delta_min):
    inverted = accepted = 0
    for g, p in starts():
        p.validate(g)
        assert backward_synapses(g, p)
        inverted += inverted_bands(g, p)
        _, trace = _assert_matches_reference(g, p, delta_min)
        accepted += len(_accepted(trace))
    assert inverted > 0
    assert accepted > 0


def test_build_single_cluster(demo_snn):
    p = Partition({n.id: 0 for n in demo_snn.neurons}, 1, crossbar_dim=16)
    cg = build_clustered_graph(demo_snn, p)
    assert len(cg.clusters) == 1
    assert cg.edges == ()


def test_build_demo_clustering_matches_hand_construction(demo_snn):
    cg = build_clustered_graph(demo_snn, demo_partition())
    expected = demo_clustered()
    assert [c.id for c in cg.clusters] == [c.id for c in expected.clusters]
    for got, want in zip(cg.clusters, expected.clusters):
        assert got.neurons == want.neurons
        assert set(got.synapses) == set(want.synapses)
        assert set(got.input_feeds) == set(want.input_feeds)
    assert set(cg.edges) == set(expected.edges)


def test_build_preserves_spike_mass():
    for seed in range(10):
        g = random_snn(seed, n_neurons=12, edge_prob=0.35)
        p = init_partition(g, feasible_dim(g, floor=5), seed + 100)
        cg = build_clustered_graph(g, p)
        # cut tokens plus everything absorbed inside clusters
        total = (sum(e.tokens for e in cg.edges)
                 + sum(s.spikes for c in cg.clusters
                       for s in c.synapses + c.input_feeds))
        assert total == pytest.approx(sum(s.spikes for s in g.synapses))


def test_build_edge_tokens_match_cut_enumeration():
    for seed in range(6):
        g = random_snn(seed + 50, n_neurons=11, edge_prob=0.4)
        p = kl_refine(g, init_partition(g, feasible_dim(g, floor=6), seed))
        cg = build_clustered_graph(g, p)
        ids = [c.id for c in cg.clusters]
        member_of = {nid: ids[k]
                     for k, c in enumerate(cg.clusters) for nid in c.neurons}
        expect = {}
        for s in g.synapses:
            if s.src not in member_of:
                continue
            a, b = member_of[s.src], member_of[s.dst]
            if a != b:
                expect[(a, b)] = expect.get((a, b), 0) + s.spikes
        got = {(e.src, e.dst): e.tokens for e in cg.edges}
        assert got == {k: round(v) for k, v in expect.items()}


def test_empty_clusters_dropped(demo_snn):
    assignment = dict(demo_partition().assignment)
    p = Partition(assignment, 5, crossbar_dim=8)  # clusters 3 and 4 empty
    cg = build_clustered_graph(demo_snn, p)
    assert len(cg.clusters) == 3


def test_partition_rounds_counts_and_determinism(demo_snn):
    outs = partition_rounds(demo_snn, 4, eta=1, seed=5)
    assert len(outs) == 1
    a = partition_rounds(demo_snn, 4, eta=5, seed=9)
    b = partition_rounds(demo_snn, 4, eta=5, seed=9)
    assert a == b
    assert len(a) == 5


def test_partition_rounds_explore_distinct_cuts():
    g = random_snn(7, n_neurons=20, edge_prob=0.25)
    outs = partition_rounds(g, 6, eta=10, seed=0)
    cuts = {sum(e.tokens for e in cg.edges) for cg in outs}
    assert len(cuts) >= 2


def test_clustered_graph_file_roundtrip(tmp_path):
    cg = demo_clustered()
    path = tmp_path / "clusters.yaml"
    save_clustered_graph(cg, path)
    assert load_clustered_graph(str(path)) == cg
    assert clustered_graph_from_dict(clustered_graph_to_dict(cg)) == cg


def test_partition_validation_rejects_bad_assignments(demo_snn):
    with pytest.raises(GraphValidationError):
        Partition({"N1": 0}, 1, crossbar_dim=8).validate(demo_snn)
    too_big = Partition({n.id: 0 for n in demo_snn.neurons}, 1, crossbar_dim=4)
    with pytest.raises(GraphValidationError, match="neurons"):
        too_big.validate(demo_snn)


def test_partition_checks_reject_an_invalid_network():
    # the checks read the network's adjacency view, which validates it
    g = replace(chain(2), synapses=chain(2).synapses * 2)
    p = Partition({"n0": 0, "n1": 1}, 2, crossbar_dim=4)
    for check in (p.validate, lambda g: kl_refine(g, p)):
        with pytest.raises(GraphValidationError, match="duplicate synapse"):
            check(g)
