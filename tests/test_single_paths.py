"""Guards against duplicated pipelines growing back into the package.

Each job below has one implementation; a second copy elsewhere in
``src/snnflow`` fails here rather than drifting apart from the first.
"""

import ast
import copy
import importlib
import inspect
from dataclasses import fields
from pathlib import Path

import pytest

from conftest import (all_to_all_platform, demo_clustered, layered_demo_snn,
                      layered_snn, lift_bounded, partition_rounds)
from oracles import reference_placement

import snnflow
from snnflow import dse, mapping, sdfg
from snnflow.cli import RunConfig
from snnflow.dse import DesignFlowConfig, SweepConfig
from snnflow.partition import (Cluster, ClusteredSnnGraph, Partition,
                               init_partition, kl_refine)
from snnflow.snn_graph import SnnGraph

PACKAGE = Path(snnflow.__file__).parent
BENCH = Path(__file__).resolve().parent.parent / "bench"


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
    # libyaml parses and formats every file; cmd_map, which prints its
    # record, formats it through the same _yaml_text as _dump_yaml
    yaml_calls = sorted((func, module, owner)
                        for module, owner, func in calls_by_function()
                        if func.startswith("yaml."))
    assert yaml_calls == [("yaml.dump", "snn_graph.py", "_yaml_text"),
                          ("yaml.load", "snn_graph.py", "_load_yaml")]
    assert callers_of("safe_load", "safe_dump") == []
    assert callers_of("_yaml_text") == [("cli.py", "cmd_map"),
                                        ("snn_graph.py", "_dump_yaml")]


def test_one_partition_round_pipeline():
    assert callers_of("init_partition", "kl_refine") == \
        [("partition.py", "partition_round")]
    assert callers_of("spawn") == [("dse.py", "_run_round"),
                                   ("partition.py", "round_seeds")]


def test_one_placement():
    # the platform's tables alone read its routes, and one pass places
    # the actors on core indexes through them: _place for the search, the
    # evaluation and the validation, and the same two steps in execute
    # and build_schedules, which check no capacity.  No pass maps core
    # indexes back to names for a run.  Every other pass reads the cached
    # per-graph tables, and no pass asks for a repetition vector: every
    # actor fires once per iteration
    assert callers_by_method("routed_latencies") == [
        ("snn_graph.py", "HardwareGraph._tables")]
    assert callers_of("_placed") == [("mapping.py", "_place"),
                                     ("mapping.py", "build_schedules"),
                                     ("sdfg.py", "execute")]
    assert callers_of("_host_positions") == [
        ("mapping.py", "_evaluate_in"), ("mapping.py", "build_schedules"),
        ("mapping.py", "validate_mapping"), ("sdfg.py", "execute")]
    assert callers_of("repetition_vector") == []


def test_one_membrane_integrator():
    # estimate_rates steps all neurons as arrays; the scalar step that
    # tests/oracles.py steps its reference through is no package code
    assert callers_of("step_neuron", "synaptic_current") == []


def test_one_capacity_repair():
    # decode_position and the swarm's batch decode share one repair,
    # which ranks a row's cores on Python lists, with no numpy sort
    assert callers_of("_repair") == [("mapping.py", "_decode_swarm"),
                                     ("mapping.py", "decode_position")]
    assert callers_of("argsort") == []


def test_one_builder_of_allocated_graphs():
    # the sweep builds each allocation's bounded graph once, in the
    # graphs that a run's rounds of one clustering share
    assert [owner for module, owner in callers_of("set_buffer_allocation")
            if module == "dse.py"] == ["_sweep"]


def test_two_ways_into_the_simulator():
    # a self-timed run (analysis) and the list-scheduling run that
    # builds static orders and is also the rating of the run under them;
    # both place the actors on core indexes, and only execute turns
    # static orders, which name cores, into orders by core index
    assert callers_of("_Simulation") == [("mapping.py", "_list_run"),
                                         ("sdfg.py", "execute")]
    assert callers_of("_static_orders") == [("sdfg.py", "execute")]
    assert callers_of("_placement_class") == [
        ("mapping.py", "_place"), ("mapping.py", "build_schedules")]


def nodes_by_method():
    """``(module, function or Class.method, node)`` of every AST node
    in a top-level function or a method of a top-level class."""
    for path in sorted(PACKAGE.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            scopes = ([(f"{top.name}.{m.name}", m) for m in top.body
                       if isinstance(m, ast.FunctionDef)]
                      if isinstance(top, ast.ClassDef)
                      else [(getattr(top, "name", "<module>"), top)])
            for owner, scope in scopes:
                for node in ast.walk(scope):
                    yield path.name, owner, node


def callers_by_method(*names):
    """``(module, function or Class.method)`` of every call to ``names``."""
    return sorted({(module, owner) for module, owner, node in nodes_by_method()
                   if isinstance(node, ast.Call)
                   and ast.unparse(node.func).split(".")[-1] in names})


def readers_by_method(*attributes):
    """``(module, function or Class.method)`` of every ``x.<attribute>``
    read."""
    return sorted({(module, owner) for module, owner, node in nodes_by_method()
                   if isinstance(node, ast.Attribute)
                   and isinstance(node.ctx, ast.Load)
                   and node.attr in attributes})


def test_one_deadlock_reason():
    # one blocked test explains every stall: check_deadlock's report and
    # a timed run's stall and stuck reports
    assert callers_by_method("_blocked_on") == [
        ("sdfg.py", "_Simulation._recurrence"), ("sdfg.py", "_Simulation.run"),
        ("sdfg.py", "check_deadlock")]
    assert [f.name for f in fields(sdfg.DeadlockReport)] == \
        ["starving", "cycle"]
    assert not hasattr(sdfg._Simulation, "_deadlock_state")
    assert "blocked_reason" not in {
        node.name for path in PACKAGE.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.FunctionDef)}


def test_only_the_spike_edges_read_a_channel_volume():
    # a firing moves one token on each channel, so no analysis or search
    # reads a port rate or a volume; spikes per token convert capacities,
    # states and files at the edges a user or a record sees, and sum
    # against the bandwidth caps
    assert [f.name for f in fields(sdfg.Channel)] == \
        ["src", "dst", "tokens", "capacity", "volume"]
    assert readers_by_method("prod", "cons") == []
    assert readers_by_method("volume") == [
        ("dse.py", "_sweep"), ("mapping.py", "_check_capacities"),
        ("sdfg.py", "Sdfg.validate"), ("sdfg.py", "_blocked_on"),
        ("sdfg.py", "_in_spikes"), ("sdfg.py", "minimum_buffer_allocation"),
        ("sdfg.py", "sdfg_to_dict"), ("sdfg.py", "set_buffer_allocation")]


def test_one_table_of_rated_designs():
    # the search bounds and rates through the table it is given, and the
    # reuse sweep rates its one kept mapping through the same table; a
    # second cache of ratings would have to call these from somewhere else.
    # build_schedules, which the flow does not call, rates one mapping
    # with no table, and every rating is a class's list run
    assert callers_of("_period_lower_bound") == [("mapping.py", "_place")]
    assert callers_of("_place") == [("mapping.py", "_evaluate_in"),
                                    ("mapping.py", "search_mapping"),
                                    ("mapping.py", "validate_mapping")]
    assert callers_of("_rate_class") == [("mapping.py", "_evaluate_in"),
                                         ("mapping.py", "build_schedules"),
                                         ("mapping.py", "search_mapping")]
    assert callers_of("_list_run") == [("mapping.py", "_rate_class")]
    # the flow rates designs only through the round's table
    raters = {"evaluate_mapping", "_evaluate_in", "_rate_class", "_list_run",
              "build_schedules", "search_mapping", "execute",
              "self_timed_throughput", "_Simulation"}
    calls = [node for node in ast.walk(ast.parse(
                 (PACKAGE / "dse.py").read_text(encoding="utf-8")))
             if isinstance(node, ast.Call)
             and ast.unparse(node.func).split(".")[-1] in raters]
    assert sorted(ast.unparse(node.func) for node in calls) == \
        ["_evaluate_in", "search_mapping"]
    assert all("table" in {*(ast.unparse(a) for a in node.args),
                           *(k.arg for k in node.keywords)}
               for node in calls)


def test_the_search_table_holds_a_float_per_bound_and_a_solution_per_rating():
    # the swarm compares periods as floats, so a bound needs no exact
    # value beside its float; a rating is its placement class's solution
    # and the steady state it renames; the floor is computed once
    g, hw, table = lift_bounded(demo_clustered()), all_to_all_platform(2), {}
    mapping.search_mapping(g, hw, mapping.SwarmConfig(particles=4,
                                                      iterations=3),
                           rng=0, table=table)
    [(placed, ratings, floor)] = table.values()
    assert placed and ratings and type(floor) is float
    assert all(type(bound) is float and (cls is None or type(cls) is tuple)
               for bound, cls in placed.values())
    assert set(ratings) <= {cls for _, cls in placed.values()}
    assert all(rating is None or
               (isinstance(rating[0], mapping.MappingSolution)
                and type(rating[1]) is tuple)
               for rating in ratings.values())


def test_one_period_floor():
    # the search stops at the floor and the sweep's rate bound is one over
    # it; a second reader would have to keep its proof in step
    assert callers_of("_search_floor") == [("dse.py", "pipeline_rate_bound"),
                                           ("mapping.py", "search_mapping")]


def test_the_package_keeps_no_cache_of_its_own():
    # a platform's and a graph's tables are cached on them, and a run's
    # clusterings and ratings in its table, so they go when their owner
    # goes; the package's own state is its constants, the CLI's flag
    # table and the cache of share readings
    state = sorted((path.name, ast.unparse(node.targets[0]))
                   for path in sorted(PACKAGE.glob("*.py"))
                   for node in ast.parse(path.read_text(encoding="utf-8")).body
                   if isinstance(node, ast.Assign)
                   and not isinstance(node.value, ast.Constant)
                   and not ast.unparse(node.value).startswith(
                       ("logging.getLogger", "10 **", "object()")))
    assert state == [("cli.py", "CONFIG_FLAGS")]
    cached = sorted((path.name, top.name)
                    for path in sorted(PACKAGE.glob("*.py"))
                    for top in ast.parse(path.read_text(encoding="utf-8")).body
                    if isinstance(top, ast.FunctionDef) and any(
                        "cache" in ast.unparse(d) for d in top.decorator_list))
    assert cached == [("mapping.py", "_share_to_scale")]


def test_run_config_and_flow_config_hold_the_same_settings():
    # the config file's flow settings are the library's, one for one
    inputs = {"snn", "hardware", "trains", "output_dir"}
    assert ({f.name for f in fields(RunConfig)} - inputs
            == {f.name for f in fields(DesignFlowConfig)})


def test_a_partition_holds_no_switches():
    assert [f.name for f in fields(Partition)] == \
        ["assignment", "cluster_count", "crossbar_dim"]


def test_evaluate_mapping_places_once(monkeypatch):
    # one placement by core index
    calls = {"_place": [], "_placed": [], "_host_positions": []}

    def counting(name, place):
        def wrapped(*args, **kwargs):
            calls[name].append(args)
            return place(*args, **kwargs)
        return wrapped

    for name in calls:
        place = getattr(mapping, name, None) or getattr(sdfg, name)
        for module in (sdfg, mapping):  # every binding of the function
            if getattr(module, name, None) is place:
                monkeypatch.setattr(module, name, counting(name, place))
    g = lift_bounded(demo_clustered())
    mapping.evaluate_mapping(g, all_to_all_platform(2),
                             {"c0": "t0", "c1": "t1", "c2": "t1"})
    assert {name: len(c) for name, c in calls.items()} == \
        {"_place": 1, "_placed": 1, "_host_positions": 1}


def test_evaluate_mapping_runs_one_simulation(monkeypatch):
    # the rating is the list-scheduling run's own result; a second,
    # scheduled run would show here as a second call
    run, calls = sdfg._Simulation.run, []

    def counting(self):
        calls.append(self)
        return run(self)

    monkeypatch.setattr(sdfg._Simulation, "run", counting)
    g = lift_bounded(demo_clustered())
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
    partition_rounds(g, 8, 3, seed=0)
    assert len(calls) == 1


def test_refine_leaves_the_adjacency_view_unchanged():
    g = layered_snn(0, [6, 6, 6])
    view = g._adjacency
    before = copy.deepcopy(view)
    for seed in (0, 1):
        kl_refine(g, init_partition(g, 8, seed))
    assert g._adjacency is view
    assert view == before


# names whose only callers were tests; each job keeps its one entry
DELETED = {"partition": ("iterate_partitions",),
           "dse": ("dominates", "MAX_UNIFORM_LEVEL"),
           "lif": ("step_neuron", "synaptic_current", "constant_current_isi"),
           "sdfg": ("buffer_quantum", "_solve_balance", "resolve_platform")}


@pytest.mark.parametrize("module,names", sorted(DELETED.items()))
def test_deleted_names_stay_gone(module, names):
    for namespace in (snnflow, importlib.import_module(f"snnflow.{module}")):
        assert [n for n in names if hasattr(namespace, n)] == []


def test_the_top_level_exports_no_tracer_only_names():
    # the search decodes, schedules and rates through mapping's private
    # passes, and no pass asks for a repetition vector; these names stay
    # in their modules, where the benchmark's tracer reads them
    homes = {"repetition_vector": sdfg, "decode_position": mapping,
             "build_schedules": mapping}
    assert [n for n in homes if hasattr(snnflow, n)] == []
    assert all(callable(getattr(home, n)) for n, home in homes.items())


def test_deleted_members_and_settings_stay_gone():
    # a graph is single-rate: no balance solver, no consistency error
    assert not hasattr(sdfg.Sdfg, "_repetition")
    for namespace in (snnflow, importlib.import_module("snnflow.errors")):
        assert not hasattr(namespace, "InconsistentGraphError")
    assert not hasattr(Cluster, "absorbed_spikes")
    assert not {"cluster_ids", "total_spikes"} & set(dir(ClusteredSnnGraph))
    assert [f.name for f in fields(SweepConfig)] == ["plateau", "mode"]
    assert "list_mode" not in inspect.signature(sdfg.execute).parameters
    # the swarm's constants are mapping.PHI1, PHI2 and V_MAX, and the
    # lift's channels are sized by set_buffer_allocation alone
    assert [f.name for f in fields(mapping.SwarmConfig)] == \
        ["particles", "iterations"]
    assert list(inspect.signature(sdfg.lift_to_sdfg).parameters) == \
        ["cg", "core_exec_time"]
    assert "gbest_solution" not in {f.name for f in fields(mapping.Swarm)}
    # _load_yaml tests every file's format; the *_from_dict readers take
    # its checked document and do not test it again
    assert format_readers() == [("snn_graph.py", "_load_yaml")]
    # a list run's own result is its rating: nothing walks its recorded
    # states again, and none are kept; a wait names only what it needs.
    # The run knows its cores as indexes: no names, no set of them, and
    # its per-core state in lists
    g = lift_bounded(demo_clustered())
    sim = sdfg._Simulation(g, *mapping._placement_class(reference_placement(
        g, all_to_all_platform(2), {"c0": "t0", "c1": "t1", "c2": "t1"})),
        list_mode=True)
    sim.run()
    assert not {"replay", "states", "recurring", "cores"} & set(dir(sim))
    assert type(sim.busy) is list and type(sim.queues) is list
    assert sdfg.Wait._fields == ("actor", "channel", "kind", "peer", "needs")


def format_readers():
    """``(module, top-level function)`` of every ``x["format"]`` and
    ``x.get("format")`` read in the package."""
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Subscript):
                    key = node.slice
                elif isinstance(node, ast.Call) and node.args \
                        and ast.unparse(node.func).endswith(".get"):
                    key = node.args[0]
                else:
                    continue
                if isinstance(key, ast.Constant) and key.value == "format":
                    found.add((path.name, top.name))
    return sorted(found)


def bench_tree(name):
    return ast.parse((BENCH / name).read_text(encoding="utf-8"))


def bench_module_names(tree):
    """Local name -> snnflow module of each ``from snnflow import ...``
    and ``import snnflow`` in a bench file."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "snnflow":
            for alias in node.names:
                names[alias.asname or alias.name] = f"snnflow.{alias.name}"
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "snnflow":
                    names[alias.asname or "snnflow"] = "snnflow"
    return names


def channel_reads(tree):
    """Attributes read off the items of a loop or comprehension over a
    name or attribute called ``channels``, a graph's channel list."""
    found = set()
    for node in ast.walk(tree):
        loops = (node.generators if isinstance(
                     node, (ast.ListComp, ast.SetComp, ast.GeneratorExp,
                            ast.DictComp))
                 else [node] if isinstance(node, ast.For) else [])
        for loop in loops:
            if ast.unparse(loop.iter).split(".")[-1] == "channels" \
                    and isinstance(loop.target, ast.Name):
                found |= {n.attr for n in ast.walk(node)
                          if isinstance(n, ast.Attribute)
                          and isinstance(n.value, ast.Name)
                          and n.value.id == loop.target.id}
    return found


def test_every_name_the_bench_traces_exists():
    # bench/spans.py patches these by name, and its smoke test never
    # installs the tracer, so a deleted one would fail only under --trace
    tree = bench_tree("spans.py")
    traced = next(ast.literal_eval(node.value) for node in tree.body
                  if isinstance(node, ast.Assign)
                  and [t.id for t in node.targets] == ["TRACED"])
    missing = [f"{layer}.{name}" for layer, names in traced.items()
               for name in names
               if not hasattr(importlib.import_module(f"snnflow.{layer}"),
                              name)]
    assert missing == []
    assert callable(getattr(snnflow.HardwareGraph, "routed_latencies", None))


@pytest.mark.parametrize("name", ["spans.py", "checks.py", "workloads.py"])
def test_every_package_attribute_the_bench_reads_exists(name):
    # module.attribute reads, the arguments of module.attribute(...)
    # calls bound to the attribute's signature, positional and keyword
    # alike, and the Channel fields read off a graph's channels; the
    # bench also calls allocation_dict on a design point
    tree = bench_tree(name)
    modules = bench_module_names(tree)
    assert modules
    missing = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) \
                and isinstance(node.value, ast.Name) \
                and node.value.id in modules:
            owner = importlib.import_module(modules[node.value.id])
            if not hasattr(owner, node.attr):
                missing.append(ast.unparse(node))
        elif isinstance(node, ast.Call) \
                and isinstance(node.func, ast.Attribute) \
                and isinstance(node.func.value, ast.Name) \
                and node.func.value.id in modules:
            owner = importlib.import_module(modules[node.func.value.id])
            target = getattr(owner, node.func.attr, None)
            if target is None:
                continue  # reported as an attribute above
            if any(isinstance(arg, ast.Starred) for arg in node.args):
                missing.append(f"{ast.unparse(node)}: *args cannot be bound")
                continue
            try:  # a **kwargs binds under the key None, which fails too
                inspect.signature(target).bind(
                    *node.args, **{kw.arg: kw.value for kw in node.keywords})
            except TypeError as exc:
                missing.append(f"{ast.unparse(node)}: {exc}")
    reads = channel_reads(tree)
    missing += [f"Channel.{attr}" for attr in sorted(
        reads - {f.name for f in fields(sdfg.Channel)})]
    assert missing == []
    assert callable(dse.DesignPoint.allocation_dict)
    if name == "checks.py":  # the liveness check reads each lifted channel
        assert reads == {"src", "dst", "tokens"}
