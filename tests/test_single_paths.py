"""Guards against duplicated pipelines growing back into the package.

Each job below has one implementation; a second copy elsewhere in
``src/snnflow`` fails here rather than drifting apart from the first.
"""

import ast
import copy
from dataclasses import fields
from pathlib import Path

from conftest import (all_to_all_platform, demo_clustered, layered_demo_snn,
                      layered_snn)

import snnflow
from snnflow import mapping, sdfg
from snnflow.cli import RunConfig
from snnflow.dse import DesignFlowConfig
from snnflow.partition import (Partition, init_partition, iterate_partitions,
                               kl_refine)
from snnflow.snn_graph import SnnGraph

PACKAGE = Path(snnflow.__file__).parent


def calls_by_function():
    """``(module, enclosing top-level function, call text)`` of every call."""
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for top in tree.body:
            owner = getattr(top, "name", "<module>")
            for node in ast.walk(top):
                if isinstance(node, ast.Call):
                    yield path.name, owner, ast.unparse(node.func)


def callers_of(*names):
    return sorted({(module, owner)
                   for module, owner, func in calls_by_function()
                   if func.split(".")[-1] in names})


def test_one_yaml_reader_and_one_file_writer():
    assert callers_of("safe_load") == [("snn_graph.py", "_load_yaml")]
    # cmd_map prints its record, so it formats the YAML itself
    assert callers_of("safe_dump") == [("cli.py", "cmd_map"),
                                       ("snn_graph.py", "_dump_yaml")]


def test_one_partition_round_pipeline():
    assert callers_of("init_partition", "kl_refine") == \
        [("partition.py", "partition_round")]
    assert callers_of("spawn") == [("dse.py", "_run_round"),
                                   ("partition.py", "round_seeds")]


def test_one_placement():
    # resolve_platform alone places a mapping on a platform; every other
    # pass reads the cached per-graph tables, and only cmd_analyze, which
    # prints the vector, asks for a fresh repetition vector
    assert callers_of("routed_latencies") == [("sdfg.py", "resolve_platform")]
    assert callers_of("repetition_vector") == [("cli.py", "cmd_analyze")]


def test_one_membrane_integrator():
    # estimate_rates steps all neurons as arrays; the scalar helpers stay
    # public, and tests/oracles.py steps its reference through them, but
    # nothing in the package falls back to them
    assert callers_of("step_neuron", "synaptic_current") == []


def test_one_capacity_repair():
    # decode_position and the swarm's batch decode share one repair
    assert callers_of("argsort") == [("mapping.py", "_repair")]


def test_two_ways_into_the_simulator():
    # a self-timed run (analysis) and the list-scheduling run that
    # builds static orders and is replayed for their rating
    assert callers_of("_Simulation") == [("mapping.py", "_list_run"),
                                         ("sdfg.py", "execute")]


def test_one_table_of_rated_designs():
    # the search bounds and rates through the table it is given, and the
    # reuse sweep rates its one kept mapping; a second cache of ratings
    # would have to call these from somewhere else
    assert callers_of("evaluate_mapping", "_period_lower_bound") == \
        [("dse.py", "_run_round"), ("mapping.py", "search_mapping")]


def test_run_config_and_flow_config_hold_the_same_settings():
    # the config file's flow settings are the library's, one for one
    inputs = {"snn", "hardware", "trains", "output_dir"}
    assert ({f.name for f in fields(RunConfig)} - inputs
            == {f.name for f in fields(DesignFlowConfig)})


def test_a_partition_holds_no_switches():
    assert [f.name for f in fields(Partition)] == \
        ["assignment", "cluster_count", "crossbar_dim"]


def test_evaluate_mapping_places_once(monkeypatch):
    place, calls = sdfg.resolve_platform, []

    def counting(*args, **kwargs):
        calls.append(args)
        return place(*args, **kwargs)

    for module in (sdfg, mapping):  # every binding of the function
        monkeypatch.setattr(module, "resolve_platform", counting)
    g = sdfg.lift_to_sdfg(demo_clustered(), core_exec_time=1,
                          default_buffer=64)
    mapping.evaluate_mapping(g, all_to_all_platform(2),
                             {"c0": "t0", "c1": "t1", "c2": "t1"})
    assert len(calls) == 1


def test_evaluate_mapping_runs_one_simulation(monkeypatch):
    # the rating is replayed from the list-scheduling run's states; a
    # second, scheduled run would show here as a second call
    run, calls = sdfg._Simulation.run, []

    def counting(self):
        calls.append(self)
        return run(self)

    monkeypatch.setattr(sdfg._Simulation, "run", counting)
    g = sdfg.lift_to_sdfg(demo_clustered(), core_exec_time=1,
                          default_buffer=64)
    hw = all_to_all_platform(2)
    for assignment in ({"c0": "t0", "c1": "t1", "c2": "t1"},
                       {"c0": "t0", "c1": "t0", "c2": "t0"}):
        calls.clear()
        mapping.evaluate_mapping(g, hw, assignment)
        assert len(calls) == 1


def graph_readers(module, attribute):
    """Top-level functions and classes of ``module`` that read
    ``g.<attribute>``, ``g`` being the package's name for a graph."""
    tree = ast.parse((PACKAGE / module).read_text(encoding="utf-8"))
    return sorted({top.name for top in tree.body for node in ast.walk(top)
                   if isinstance(node, ast.Attribute)
                   and node.attr == attribute
                   and isinstance(node.value, ast.Name)
                   and node.value.id == "g"})


def test_one_adjacency_walk_per_network():
    # the start, the partition check and the descent read the graph's
    # adjacency view; only the cut and the clustered graph, which need
    # the synapses themselves, walk them
    assert graph_readers("partition.py", "synapses") == \
        ["build_clustered_graph", "communication_cost"]


def test_partition_rounds_validate_the_network_once(monkeypatch):
    g, validate, calls = layered_demo_snn(), SnnGraph.validate, []

    def counting(self):
        calls.append(self)
        return validate(self)

    monkeypatch.setattr(SnnGraph, "validate", counting)
    iterate_partitions(g, 8, 3, seed=0)
    assert len(calls) == 1


def test_refine_leaves_the_adjacency_view_unchanged():
    g = layered_snn(0, [6, 6, 6])
    view = g._adjacency
    before = copy.deepcopy(view)
    for seed in (0, 1):
        kl_refine(g, init_partition(g, 8, seed))
    assert g._adjacency is view
    assert view == before
