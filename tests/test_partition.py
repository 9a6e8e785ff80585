"""Partitioning: random init, swap descent, clustered-graph construction."""

from dataclasses import replace

import pytest

from conftest import (demo_clustered, demo_partition, feasible_dim,
                      layered_snn, random_snn)
from oracles import (copy_partition, exhaustive_min_cost, improving_swap,
                     reference_kl_refine)

from snnflow.errors import GraphValidationError, InfeasiblePartitionError
from snnflow.partition import (Partition, build_clustered_graph,
                               clustered_graph_from_dict,
                               clustered_graph_to_dict, communication_cost,
                               init_partition, iterate_partitions, kl_refine,
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
    neurons = (Neuron.make("n0"),)
    inputs = tuple(InputSource(f"i{k}", 1) for k in range(3))
    syn = tuple(Synapse(f"i{k}", "n0", 1.0, 1) for k in range(3))
    g = SnnGraph(neurons, inputs, syn)
    with pytest.raises(InfeasiblePartitionError):
        init_partition(g, 2, 0)
    p = init_partition(g, 2, 0, count_input_fanin=False)
    p.validate(g)


def test_init_deterministic_per_seed():
    g = random_snn(3, n_neurons=14)
    assert init_partition(g, 5, 123) == init_partition(g, 5, 123)


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


def _assert_matches_reference(g, p, delta_min):
    got_trace, want_trace = [], []
    got = kl_refine(g, p, delta_min, trace=got_trace)
    want = reference_kl_refine(g, p, delta_min, trace=want_trace)
    assert got == want
    assert got_trace == want_trace
    return got, got_trace


@pytest.mark.parametrize("count_input_fanin", [True, False])
@pytest.mark.parametrize("delta_min", [0.0, 6.0])
def test_kl_matches_pair_scan_reference(delta_min, count_input_fanin):
    accepted = 0
    for g, dim, seed in _refine_cases():
        p = init_partition(g, dim, seed, count_input_fanin)
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
    # cluster sources {ia, a, ib}: three with inputs counted, one without
    g = SnnGraph(
        tuple(Neuron.make(x) for x in ("a", "b", "c", "d")),
        (InputSource("ia", 1), InputSource("ib", 1)),
        (Synapse("ia", "a", 1.0, 1), Synapse("ib", "b", 1.0, 1),
         Synapse("a", "b", 1.0, 10)))
    assignment = {"a": 0, "c": 0, "b": 1, "d": 1}
    counted = Partition(assignment, 2, crossbar_dim=2)
    free = Partition(assignment, 2, crossbar_dim=2, count_input_fanin=False)
    assert kl_refine(g, counted).assignment == assignment
    refined, _ = _assert_matches_reference(g, free, 0.0)
    refined.validate(g)
    assert communication_cost(g, refined) == 0
    with pytest.raises(GraphValidationError, match="distinct sources"):
        replace(refined, count_input_fanin=True).validate(g)


def test_build_single_cluster(demo_snn):
    p = Partition({n.id: 0 for n in demo_snn.neurons}, 1, crossbar_dim=16)
    cg = build_clustered_graph(demo_snn, p)
    assert len(cg.clusters) == 1
    assert cg.edges == ()


def test_build_demo_clustering_matches_hand_construction(demo_snn):
    cg = build_clustered_graph(demo_snn, demo_partition())
    expected = demo_clustered()
    assert cg.cluster_ids() == expected.cluster_ids()
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
        assert cg.total_spikes() == pytest.approx(
            sum(s.spikes for s in g.synapses))


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


def test_iterate_partitions_counts_and_determinism(demo_snn):
    outs = iterate_partitions(demo_snn, 4, eta=1, seed=5)
    assert len(outs) == 1
    a = iterate_partitions(demo_snn, 4, eta=5, seed=9)
    b = iterate_partitions(demo_snn, 4, eta=5, seed=9)
    assert a == b
    assert len(a) == 5


def test_iterate_partitions_explores_distinct_cuts():
    g = random_snn(7, n_neurons=20, edge_prob=0.25)
    outs = iterate_partitions(g, 6, eta=10, seed=0)
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
