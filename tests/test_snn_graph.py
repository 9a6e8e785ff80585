"""Graph model: loading, validation, round-trips and statistics."""

import pickle

import pytest

from conftest import layered_demo_snn, random_snn
from oracles import floyd_warshall_stats

from snnflow.cli import RunConfig
from snnflow.errors import ConfigError, GraphFormatError, GraphValidationError
from snnflow.lif import load_spike_trains
from snnflow.partition import load_clustered_graph
from snnflow.sdfg import load_sdfg, sdfg_from_dict
from snnflow.snn_graph import (Core, HardwareGraph, InputSource, Link, Neuron,
                               SnnGraph, Synapse, compute_graph_stats,
                               hardware_graph_to_dict, hardware_graph_from_dict,
                               load_hardware_graph, load_snn_graph,
                               save_hardware_graph, save_snn_graph,
                               snn_graph_from_dict, snn_graph_to_dict)


def test_load_demo_network(tmp_path, demo_snn):
    path = tmp_path / "net.yaml"
    save_snn_graph(demo_snn, path)
    loaded = load_snn_graph(str(path))
    assert len(loaded.neurons) == 8
    assert len(loaded.inputs) == 5
    assert loaded == demo_snn


def test_empty_graph_is_valid():
    g = SnnGraph((), (), ())
    g.validate()
    st = compute_graph_stats(g)
    assert (st.max_in_degree, st.max_out_degree, st.diameter) == (0, 0, 0)
    assert st.avg_in_degree == 0.0


def test_undeclared_endpoint_rejected():
    g = SnnGraph((Neuron.make("N1"),), (),
                 (Synapse("N1", "N9", 1.0, 1.0),))
    with pytest.raises(GraphValidationError, match="N9"):
        g.validate()


def test_input_cannot_be_destination():
    g = SnnGraph((Neuron.make("N1"),), (InputSource("A", 1.0),),
                 (Synapse("N1", "A", 1.0, 1.0),))
    with pytest.raises(GraphValidationError):
        g.validate()


def test_duplicate_synapse_rejected():
    g = SnnGraph((Neuron.make("N1"), Neuron.make("N2")), (),
                 (Synapse("N1", "N2", 1.0, 1.0), Synapse("N1", "N2", 2.0, 0.0)))
    with pytest.raises(GraphValidationError, match="duplicate"):
        g.validate()


def test_negative_spikes_rejected():
    g = SnnGraph((Neuron.make("N1"), Neuron.make("N2")), (),
                 (Synapse("N1", "N2", 1.0, -1.0),))
    with pytest.raises(GraphValidationError, match="negative"):
        g.validate()


def test_nan_spikes_rejected():
    nan = float("nan")
    for g in (SnnGraph((Neuron.make("N1"), Neuron.make("N2")), (),
                       (Synapse("N1", "N2", 1.0, nan),)),
              SnnGraph((Neuron.make("N1"),), (InputSource("I", nan),),
                       (Synapse("I", "N1", 1.0, 1.0),))):
        with pytest.raises(GraphValidationError, match="NaN"):
            g.validate()


def test_format_version_enforced(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text("format: something-else/9\nneurons: []\n")
    with pytest.raises(GraphFormatError, match="format"):
        load_snn_graph(str(path))


def test_parse_error_carries_context(tmp_path):
    path = tmp_path / "broken.yaml"
    path.write_text("format: snn-graph/1\nneurons: [{id: N1]\n")
    with pytest.raises(GraphFormatError, match="broken.yaml"):
        load_snn_graph(str(path))


BAD_DOCUMENTS = {
    "invalid_yaml": b"format: x\nitems: [1, 2\n",
    "not_utf8": b'format: snn-graph/1\nneurons: ["a\xffb"]\n',
    "top_level_list": b"- format\n- 1\n",
    "wrong_format": b"format: wrong/1\n",
}


@pytest.mark.parametrize("bad", sorted(BAD_DOCUMENTS))
@pytest.mark.parametrize("loader", [
    load_snn_graph, load_hardware_graph, load_spike_trains, load_sdfg,
    load_clustered_graph, RunConfig.load],
    ids=lambda f: f.__qualname__)
def test_every_loader_rejects_malformed_documents(tmp_path, loader, bad):
    path = tmp_path / "bad.yaml"
    path.write_bytes(BAD_DOCUMENTS[bad])
    with pytest.raises(GraphFormatError, match="bad.yaml"):
        loader(str(path))


def test_unknown_config_key_is_a_config_error(tmp_path):
    path = tmp_path / "run.yaml"
    path.write_text("format: run-config/1\nbogus: 1\n")
    with pytest.raises(ConfigError, match="bogus"):
        RunConfig.load(str(path))


def test_missing_required_field(tmp_path):
    path = tmp_path / "nofield.yaml"
    path.write_text("format: snn-graph/1\nsynapses:\n  - {src: a}\n")
    with pytest.raises(GraphFormatError, match="dst"):
        load_snn_graph(str(path))


def test_loaders_keep_integral_times_ints():
    # times are checked, not converted: a float would change saved files
    # and the steady-state hashes
    hw = hardware_graph_from_dict({
        "format": "hardware-graph/1",
        "cores": [{"id": "t0", "crossbar_dim": 4, "exec_time": 2},
                  {"id": "t1", "crossbar_dim": 4, "exec_time": 0.5}],
        "links": [{"src": "t0", "dst": "t1", "latency": 3}]})
    assert [type(c.exec_time) for c in hw.cores] == [int, float]
    assert type(hw.links[0].latency) is int
    g = sdfg_from_dict({"format": "sdfg/1",
                        "actors": [{"id": "a", "exec_time": 3}]})
    assert type(g.actors[0].exec_time) is int


def test_integer_fields_take_integral_floats_as_ints():
    # YAML writes 4.0 for a count a tool computed as a float; a value
    # with no fraction loads as the int, anything fractional is refused
    hw = hardware_graph_from_dict({
        "format": "hardware-graph/1",
        "cores": [{"id": "t0", "crossbar_dim": 4.0}]})
    assert type(hw.cores[0].crossbar_dim) is int
    g = sdfg_from_dict({"format": "sdfg/1",
                        "actors": [{"id": "a", "weight": 2.0}, {"id": "b"}],
                        "channels": [{"src": "a", "prod": 2.0, "dst": "b",
                                      "cons": 2, "tokens": 0.0,
                                      "capacity": 4.0}]})
    assert g.actors[0].weight == 2 and type(g.actors[0].weight) is int
    c = g.channels[0]
    assert [type(v) for v in (c.volume, c.tokens, c.capacity)] == [int] * 3
    for bad in (True, "4", 2.5, float("nan"), float("inf")):
        with pytest.raises(GraphFormatError, match="crossbar_dim"):
            hardware_graph_from_dict({
                "format": "hardware-graph/1",
                "cores": [{"id": "t0", "crossbar_dim": bad}]})


def test_roundtrip_random_graphs():
    for seed in range(10):
        g = random_snn(seed)
        assert snn_graph_from_dict(snn_graph_to_dict(g)) == g


def test_hardware_roundtrip(tmp_path):
    hw = HardwareGraph(
        (Core("t0", 256, 2, in_connections=4, out_connections=4,
              in_bandwidth=100, out_bandwidth=120),
         Core("t1", 128, 1)),
        (Link("t0", "t1", 3), Link("t1", "t0", 2)))
    path = tmp_path / "hw.yaml"
    save_hardware_graph(hw, path)
    assert load_hardware_graph(str(path)) == hw


def test_hardware_all_to_all_link_count(tmp_path):
    cores = [{"id": f"t{i}", "crossbar_dim": 256} for i in range(4)]
    links = [{"src": f"t{i}", "dst": f"t{j}", "latency": 1}
             for i in range(4) for j in range(4) if i != j]
    hw = hardware_graph_from_dict(
        {"format": "hardware-graph/1", "cores": cores, "links": links})
    assert len(hw.cores) == 4
    assert len(hw.links) == 12


def test_single_core_no_links():
    hw = hardware_graph_from_dict(
        {"format": "hardware-graph/1",
         "cores": [{"id": "t0", "crossbar_dim": 16}]})
    hw.validate()
    assert hw.routed_latencies() == {("t0", "t0"): 0}


def test_negative_latency_rejected():
    with pytest.raises(GraphValidationError, match="latency"):
        hardware_graph_from_dict(
            {"format": "hardware-graph/1",
             "cores": [{"id": "t0", "crossbar_dim": 8},
                       {"id": "t1", "crossbar_dim": 8}],
             "links": [{"src": "t0", "dst": "t1", "latency": -1}]})


def test_routed_latency_multi_hop():
    hw = HardwareGraph(
        (Core("t0", 8), Core("t1", 8), Core("t2", 8)),
        (Link("t0", "t1", 2), Link("t1", "t2", 3), Link("t0", "t2", 10)))
    routed = hw.routed_latencies()
    assert routed[("t0", "t2")] == 5  # via t1, cheaper than the direct link
    assert ("t2", "t0") not in routed


def test_routed_latencies_are_read_only():
    hw = HardwareGraph((Core("t0", 8), Core("t1", 8)), (Link("t0", "t1", 2),))
    with pytest.raises(TypeError):
        hw.routed_latencies()[("t1", "t0")] = 1
    assert ("t1", "t0") not in hw.routed_latencies()


def test_platform_with_cached_routes_survives_pickle():
    hw = HardwareGraph(
        (Core("t0", 8), Core("t1", 8), Core("t2", 8)),
        (Link("t0", "t1", 2), Link("t1", "t2", 3), Link("t0", "t2", 10)))
    routed = dict(hw.routed_latencies())
    for _ in range(2):
        copy = pickle.loads(pickle.dumps(hw))
        assert copy == hw and hash(copy) == hash(hw)
        assert dict(copy.routed_latencies()) == routed
        hw = copy


def test_stats_chain():
    g = SnnGraph(tuple(Neuron.make(x) for x in "ABC"), (),
                 (Synapse("A", "B", 1, 1), Synapse("B", "C", 1, 1)))
    st = compute_graph_stats(g)
    assert st.max_in_degree == 1
    assert st.max_out_degree == 1
    assert st.diameter == 2


def test_stats_star():
    neurons = tuple(Neuron.make(x) for x in ("hub", "s1", "s2", "s3", "s4"))
    syn = tuple(Synapse("hub", f"s{i}", 1, 1) for i in range(1, 5))
    st = compute_graph_stats(SnnGraph(neurons, (), syn))
    assert st.max_out_degree == 4
    assert st.diameter == 1


def test_stats_demo_network_against_oracle(demo_snn):
    st = compute_graph_stats(demo_snn)
    ora = floyd_warshall_stats(demo_snn.node_ids(),
                               [(s.src, s.dst) for s in demo_snn.synapses])
    assert (st.max_in_degree, st.avg_in_degree, st.max_out_degree,
            st.avg_out_degree, st.diameter) == ora


def test_stats_match_oracle_on_random_graphs():
    for seed in range(40):
        g = random_snn(seed, n_neurons=min(10, 3 + seed % 8), n_inputs=2)
        st = compute_graph_stats(g)
        ora = floyd_warshall_stats(g.node_ids(),
                                   [(s.src, s.dst) for s in g.synapses])
        assert (st.max_in_degree, st.avg_in_degree, st.max_out_degree,
                st.avg_out_degree, st.diameter) == ora


def test_stats_invariants(demo_snn):
    st = compute_graph_stats(demo_snn)
    assert st.avg_in_degree <= st.max_in_degree
    assert st.avg_out_degree <= st.max_out_degree
    assert st.diameter >= 0
