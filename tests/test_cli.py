"""Command-line interface: subcommands, exit codes, reproducible outputs."""

import csv
import time

import pytest
import yaml

from conftest import (layered_demo_snn, layered_snn, partition_rounds,
                      two_core_platform)
from oracles import dominance_front

from snnflow.cli import main
from snnflow.dse import DesignFlowConfig, run_design_flow
from snnflow.mapping import SwarmConfig
from snnflow.partition import load_clustered_graph, save_clustered_graph
from snnflow.snn_graph import load_snn_graph, save_hardware_graph, save_snn_graph


@pytest.fixture
def files(tmp_path):
    snn = tmp_path / "net.yaml"
    hw = tmp_path / "hw.yaml"
    save_snn_graph(layered_demo_snn(), snn)
    save_hardware_graph(two_core_platform(), hw)
    return {"snn": str(snn), "hw": str(hw), "dir": tmp_path}


def exit_code(argv) -> int:
    """main's exit code, also when argparse exits on the command line."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


# a value for each run-setting flag; explore reads them all, and the
# other commands read these and refuse the rest
FLAG_VALUES = {"--config": "run.yaml", "--snn": "net.yaml",
               "--hardware": "hw.yaml", "--trains": "trains.yaml",
               "--crossbar-dim": "4", "--eta": "2", "--delta-min": "0.5",
               "--seed": "3", "--time-wheel-share": "0.5",
               "--state-budget": "100", "--jobs": "2", "-o": "out"}
READS = {"partition": {"--config", "--snn", "--trains", "--crossbar-dim",
                       "--eta", "--delta-min", "--seed", "-o"},
         "map": {"--config", "--hardware", "--seed", "--time-wheel-share",
                 "--state-budget", "-o"}}


def command_argv(files, tmp_path, command) -> list[str]:
    """``command`` on the demo inputs, passing only flags it reads; its
    output goes to ``tmp_path / "out"``."""
    out = str(tmp_path / "out")
    if command == "map":
        clustered = tmp_path / "clustered.yaml"
        save_clustered_graph(partition_rounds(load_snn_graph(files["snn"]),
                                              4, 1, seed=11)[0], clustered)
        return ["map", str(clustered), "--hardware", files["hw"],
                "--output", out]
    argv = [command, "--snn", files["snn"], "--crossbar-dim", "4", "-o", out]
    return argv + (["--hardware", files["hw"]] if command == "explore" else [])


def test_stats_prints_table(files, capsys):
    assert main(["stats", files["snn"]]) == 0
    out = capsys.readouterr().out
    assert "diameter        4" in out
    assert "max_in_degree   3" in out


def test_stats_empty_graph(tmp_path, capsys):
    path = tmp_path / "empty.yaml"
    path.write_text("format: snn-graph/1\nneurons: []\nsynapses: []\n")
    assert main(["stats", str(path)]) == 0
    assert "diameter        0" in capsys.readouterr().out


def test_missing_file_exits_2(capsys):
    assert main(["stats", "no-such-file.yaml"]) == 2
    assert "error" in capsys.readouterr().err


def test_bad_format_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.yaml"
    path.write_text("format: wrong/1\n")
    assert main(["stats", str(path)]) == 2


def test_rates_roundtrip(files, tmp_path, capsys):
    trains = tmp_path / "trains.yaml"
    frames = {"frames": [{iid: [0.0005 + 0.0015 * k for k in range(4)]
                          for iid in ("A", "B", "C", "D", "E")}],
              "frame_length": 0.01, "format": "spike-trains/1"}
    trains.write_text(yaml.safe_dump(frames))
    out = tmp_path / "rated.yaml"
    assert main(["rates", "--snn", files["snn"], "--trains", str(trains),
                 "-o", str(out)]) == 0
    rated = load_snn_graph(str(out))
    assert len(rated.synapses) == 13


@pytest.mark.parametrize("params,message", [
    ("{tau: 0.1}", "unknown LIF parameter 'tau'"),
    ("{dt: 0}", "dt must be positive")], ids=["unknown_key", "bad_value"])
def test_rates_with_a_bad_neuron_parameter_exits_2_naming_it(
        tmp_path, capsys, params, message):
    net = tmp_path / "net.yaml"
    net.write_text("format: snn-graph/1\n"
                   f"neurons: [{{id: a, params: {params}}}]\n"
                   "inputs: [{id: x}]\n"
                   "synapses: [{src: x, dst: a}]\n")
    trains = tmp_path / "trains.yaml"
    trains.write_text("format: spike-trains/1\nframe_length: 0.01\n"
                      "frames: [{x: [0.001]}]\n")
    out = tmp_path / "rated.yaml"
    assert main(["rates", "--snn", str(net), "--trains", str(trains),
                 "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"neuron 'a': {message}" in err
    assert not out.exists()


@pytest.mark.parametrize("dt,message", [("0", "dt must be positive"),
                                        ("nan", "dt must be finite"),
                                        ("inf", "dt must be finite")])
def test_rates_with_a_bad_dt_exits_2(files, tmp_path, capsys, dt, message):
    trains = tmp_path / "trains.yaml"
    trains.write_text("format: spike-trains/1\nframe_length: 0.01\n"
                      "frames: [{A: [0.001]}]\n")
    out = tmp_path / "rated.yaml"
    assert main(["rates", "--snn", files["snn"], "--trains", str(trains),
                 "--dt", dt, "-o", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_partition_outputs_and_cost_log(files, tmp_path, capsys):
    out = tmp_path / "parts"
    code = main(["partition", "--snn", files["snn"], "--crossbar-dim", "4",
                 "--eta", "2", "--seed", "11", "-o", str(out)])
    assert code == 0
    for r in range(2):
        cg = load_clustered_graph(str(out / f"round_{r}.yaml"))
        assert cg.clusters
    with open(out / "cost_log.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    by_round = {}
    for row in rows:
        by_round.setdefault(row["round"], []).append(float(row["cost"]))
    for costs in by_round.values():
        assert costs == sorted(costs, reverse=True)


def test_partition_deterministic(files, tmp_path):
    out1, out2 = tmp_path / "p1", tmp_path / "p2"
    for out in (out1, out2):
        assert main(["partition", "--snn", files["snn"], "--crossbar-dim", "4",
                     "--eta", "2", "--seed", "7", "-o", str(out)]) == 0
    for name in ("round_0.yaml", "round_1.yaml", "cost_log.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_partition_infeasible_exits_1(files, tmp_path, capsys):
    code = main(["partition", "--snn", files["snn"], "--crossbar-dim", "2",
                 "--eta", "1", "--seed", "0", "-o", str(tmp_path / "x")])
    assert code == 1
    assert "analysis failed" in capsys.readouterr().err


def test_analyze_ok_and_failures(tmp_path, capsys):
    good = tmp_path / "good.yaml"
    good.write_text(yaml.safe_dump({
        "format": "sdfg/1",
        "actors": [{"id": "a", "exec_time": 2}, {"id": "b", "exec_time": 3}],
        "channels": [
            {"src": "a", "prod": 1, "dst": "b", "cons": 1, "tokens": 0},
            {"src": "b", "prod": 1, "dst": "a", "cons": 1, "tokens": 1}]}))
    assert main(["analyze", str(good)]) == 0
    out = capsys.readouterr().out
    assert "throughput  0.2" in out
    assert "deadlock: no" in out
    assert "repetition vector" not in out

    dead = tmp_path / "dead.yaml"
    dead.write_text(yaml.safe_dump({
        "format": "sdfg/1",
        "actors": [{"id": "a", "exec_time": 1}, {"id": "b", "exec_time": 1}],
        "channels": [
            {"src": "a", "prod": 1, "dst": "b", "cons": 1, "tokens": 0},
            {"src": "b", "prod": 1, "dst": "a", "cons": 1, "tokens": 0}]}))
    assert main(["analyze", str(dead)]) == 1
    out = capsys.readouterr().out
    assert "deadlock: yes" in out
    assert ("  starving cycle: 'a' needs 1 tokens on channel 1 from 'b', "
            "'b' needs 1 tokens on channel 0 from 'a'\n" in out)

    inconsistent = tmp_path / "inc.yaml"
    inconsistent.write_text(yaml.safe_dump({
        "format": "sdfg/1",
        "actors": [{"id": "a", "exec_time": 1}, {"id": "b", "exec_time": 1}],
        "channels": [
            {"src": "a", "prod": 1, "dst": "b", "cons": 2, "tokens": 0},
            {"src": "b", "prod": 1, "dst": "a", "cons": 2, "tokens": 4}]}))
    assert main(["analyze", str(inconsistent)]) == 2
    assert "channel 0 ('a' -> 'b'): produces 1 but consumes 2" in \
        capsys.readouterr().err


def test_analyze_refuses_a_zero_execution_time_at_once(tmp_path, capsys):
    # a firing that takes no time never advances the clock, so a run
    # would spin to the state budget
    path = tmp_path / "zero.yaml"
    path.write_text(SDFG_WITH_EXEC_TIME.format(0))
    start = time.perf_counter()
    assert main(["analyze", str(path)]) == 2
    assert time.perf_counter() - start < 0.5
    assert "actor 'a': exec_time must be > 0" in capsys.readouterr().err


def test_map_produces_record(files, tmp_path, capsys):
    parts = tmp_path / "parts"
    main(["partition", "--snn", files["snn"], "--crossbar-dim", "4",
          "--eta", "1", "--seed", "11", "-o", str(parts)])
    record_path = tmp_path / "mapping.yaml"
    code = main(["map", str(parts / "round_0.yaml"),
                 "--hardware", files["hw"], "--seed", "1",
                 "--output", str(record_path)])
    assert code == 0
    record = yaml.safe_load(record_path.read_text())
    assert set(record) == {"mapping", "throughput", "schedules"}
    assert record["throughput"]["throughput"] > 0


def map_round_0(files, tmp_path, *flags):
    parts = tmp_path / "parts"
    main(["partition", "--snn", files["snn"], "--crossbar-dim", "4",
          "--eta", "1", "--seed", "11", "-o", str(parts)])
    return main(["map", str(parts / "round_0.yaml"), "--hardware",
                 files["hw"], "--seed", "1", *flags])


@pytest.mark.parametrize("buffer,channel", [
    ("1", "channel 0 ('c0' -> 'c1'): capacity 1 below single-firing minimum 5"),
    ("6", "channel 1 ('c0' -> 'c2'): capacity 6 below single-firing minimum 7")])
def test_map_buffer_below_a_channel_minimum_exits_1_naming_it(
        files, tmp_path, capsys, buffer, channel):
    assert map_round_0(files, tmp_path, "--buffer", buffer) == 1
    assert capsys.readouterr().err == f"analysis failed: {channel}\n"


@pytest.mark.parametrize("buffer", ["0", "-1", "-3"])
def test_map_non_positive_buffer_exits_2_naming_it(files, tmp_path, capsys,
                                                    buffer):
    # no channel holds a firing in a buffer below 1, whatever its minimum
    out = tmp_path / "mapping.yaml"
    assert map_round_0(files, tmp_path, "--buffer", buffer,
                       "--output", str(out)) == 2
    assert capsys.readouterr().err == (
        f"error: --buffer must be an integer >= 1, got {buffer}\n")
    assert not out.exists()


@pytest.mark.parametrize("command,flag", [
    (command, flag) for command, reads in READS.items()
    for flag in FLAG_VALUES if flag not in reads])
def test_a_flag_the_command_does_not_read_exits_2_writing_nothing(
        files, tmp_path, capsys, command, flag):
    argv = command_argv(files, tmp_path, command) + [flag, FLAG_VALUES[flag]]
    assert exit_code(argv) == 2
    assert f"unrecognized arguments: {flag} {FLAG_VALUES[flag]}" in \
        capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", sorted(READS))
def test_a_config_key_the_command_does_not_read_is_accepted(
        files, tmp_path, capsys, command):
    # one config file serves every command
    cfg = tmp_path / "run.yaml"
    cfg.write_text(yaml.safe_dump({
        "format": "run-config/1", "snn": files["snn"],
        "hardware": files["hw"], "crossbar_dim": 4, "eta": 1,
        "delta_min": 0.5, "seed": 3, "time_wheel_share": 0.5,
        "state_budget": 10 ** 5, "jobs": 1, "swarm": {"particles": 4},
        "sweep": {"plateau": 2}}))
    argv = command_argv(files, tmp_path, command) + ["--config", str(cfg)]
    assert main(argv) == 0
    assert (tmp_path / "out").exists()


def test_map_with_a_uniform_buffer_writes_the_same_record(files, tmp_path):
    # --buffer 12 sizes all six inter-cluster channels to the whole
    # tokens that 12 spikes hold
    out = tmp_path / "mapping.yaml"
    assert map_round_0(files, tmp_path, "--buffer", "12",
                       "--output", str(out)) == 0
    record = yaml.safe_load(out.read_text())
    assert record["mapping"] == {"c0": "t1", "c1": "t1", "c2": "t1",
                                 "c3": "t0"}
    assert record["throughput"] == {
        "period": 6.0, "throughput": 1 / 6, "transient_length": 0,
        "steady_state_hash": "a173e71bb31c"}
    assert record["schedules"]["t1"]["cycle"] == ["c2", "c0", "c1"]


@pytest.mark.parametrize("flag", ["-o", "--output-dir"])
def test_map_refuses_the_output_dir_flag(files, tmp_path, capsys, flag):
    # map writes one file, named by --output; -o is explore's and
    # partition's output directory, which map would silently ignore
    out = tmp_path / "out"
    assert map_round_0(files, tmp_path, flag, str(out)) == 2
    assert capsys.readouterr().err == (
        "error: map writes one record, to the file named by --output; it "
        "takes no -o/--output-dir\n")
    assert not out.exists()


def test_map_of_a_deadlocked_clustering_names_the_cycle(files, tmp_path,
                                                       capsys):
    ring = tmp_path / "ring.yaml"
    ring.write_text("format: clustered-snn/1\n"
                    "clusters: [{id: c0, neurons: [a]}, {id: c1, neurons: [b]}]\n"
                    "edges: [{src: c0, dst: c1, tokens: 2}, "
                    "{src: c1, dst: c0, tokens: 2}]\n")
    assert main(["map", str(ring), "--hardware", files["hw"]]) == 1
    assert capsys.readouterr().err == (
        "analysis failed: clustered graph deadlocks before mapping: starving "
        "cycle: 'c0' needs 2 tokens on channel 1 from 'c1', 'c1' "
        "needs 2 tokens on channel 0 from 'c0'\n")


def test_map_prints_the_record_it_writes_to_output(files, tmp_path, capsys):
    out = tmp_path / "mapping.yaml"
    assert map_round_0(files, tmp_path, "--output", str(out)) == 0
    capsys.readouterr()
    assert main(["map", str(tmp_path / "parts" / "round_0.yaml"),
                 "--hardware", files["hw"], "--seed", "1"]) == 0
    printed = capsys.readouterr().out
    assert printed == out.read_text(encoding="utf-8")
    assert set(yaml.safe_load(printed)) == {"mapping", "throughput",
                                            "schedules"}


def explore_args(files, out, eta="3", seed="11", jobs="1"):
    return ["explore", "--snn", files["snn"], "--hardware", files["hw"],
            "--crossbar-dim", "4", "--eta", eta, "--seed", seed,
            "--jobs", jobs, "-o", str(out)]


def test_explore_reproducible_and_parallel_identical(files, tmp_path, capsys):
    outs = [tmp_path / f"run{i}" for i in range(3)]
    assert main(explore_args(files, outs[0])) == 0
    assert main(explore_args(files, outs[1])) == 0
    assert main(explore_args(files, outs[2], jobs="4")) == 0
    ref = (outs[0] / "pareto.csv").read_bytes()
    assert (outs[1] / "pareto.csv").read_bytes() == ref
    assert (outs[2] / "pareto.csv").read_bytes() == ref
    ref_series = (outs[0] / "series.csv").read_bytes()
    assert (outs[1] / "series.csv").read_bytes() == ref_series
    assert (outs[2] / "series.csv").read_bytes() == ref_series


def net_and_trains(tmp_path):
    """A 12-neuron net, its spike trains, and the net as ``rates`` rates
    it: three paths."""
    net, trains, rated = (tmp_path / n for n in ("net.yaml", "trains.yaml",
                                                 "rated.yaml"))
    save_snn_graph(layered_snn(0, [4, 4, 4]), net)
    trains.write_text(yaml.safe_dump(
        {"format": "spike-trains/1", "frame_length": 0.01,
         "frames": [{f"in{i}": [0.0005 + 0.0015 * k for k in range(4 + i)]
                     for i in range(4)}]}))
    assert main(["rates", "--snn", str(net), "--trains", str(trains),
                 "-o", str(rated)]) == 0
    assert [s.spikes for s in load_snn_graph(str(rated)).synapses] != \
        [s.spikes for s in load_snn_graph(str(net)).synapses]
    return str(net), str(trains), str(rated)


def outputs(root):
    """Path under ``root`` -> bytes, of every file a run wrote there."""
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def test_partition_with_trains_equals_rates_then_partition(tmp_path,
                                                           capsys):
    # partition --trains rates the net in-process, through explore's loader
    net, trains, rated = net_and_trains(tmp_path)
    flow = ["--crossbar-dim", "4", "--eta", "2", "--seed", "11"]
    for run, argv in (("one", ["--snn", net, "--trains", trains]),
                      ("two", ["--snn", rated]), ("plain", ["--snn", net])):
        assert main(["partition", *argv, *flow,
                     "-o", str(tmp_path / run)]) == 0
    one = outputs(tmp_path / "one")
    assert {"round_0.yaml", "round_1.yaml", "cost_log.csv"} == one.keys()
    assert one == outputs(tmp_path / "two")
    # the spike counts move the cut costs, so the trains were read
    assert one["cost_log.csv"] != outputs(tmp_path / "plain")["cost_log.csv"]


def test_explore_with_trains_equals_rates_then_explore(tmp_path, capsys):
    # explore --trains rates the net in-process before the flow; every
    # output matches the two-step run's but the manifest, whose paths
    # differ
    net, trains, rated = net_and_trains(tmp_path)
    hw = tmp_path / "hw.yaml"
    save_hardware_graph(two_core_platform(), hw)
    flow = ["--hardware", str(hw), "--crossbar-dim", "4", "--eta", "2",
            "--seed", "11", "--jobs", "1"]
    assert main(["explore", "--snn", net, "--trains", trains,
                 *flow, "-o", str(tmp_path / "one")]) == 0
    assert main(["explore", "--snn", rated, *flow,
                 "-o", str(tmp_path / "two")]) == 0

    one, two = outputs(tmp_path / "one"), outputs(tmp_path / "two")
    assert one.keys() == two.keys()
    assert {"pareto.csv", "series.csv", "round_0.yaml",
            "points/point_0_0.yaml"} <= one.keys()
    assert [k for k in one if one[k] != two[k]] == ["manifest.yaml"]
    configs = [yaml.safe_load(run["manifest.yaml"])["config"]
               for run in (one, two)]
    assert configs[0] == {**configs[1], "snn": net, "trains": trains,
                          "output_dir": str(tmp_path / "one")}


def test_explore_without_a_network_exits_2_naming_the_setting(files,
                                                              tmp_path,
                                                              capsys):
    assert main(["explore", "--hardware", files["hw"],
                 "-o", str(tmp_path / "out")]) == 2
    assert "missing required setting 'snn'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


class _Row:
    def __init__(self, throughput, total_buffer):
        self.throughput = throughput
        self.total_buffer = total_buffer


def test_explore_front_passes_dominance_recheck(files, tmp_path, capsys):
    out = tmp_path / "run"
    assert main(explore_args(files, out, eta="4")) == 0
    with open(out / "series.csv", newline="") as fh:
        all_rows = [_Row(float(r["throughput"]), int(r["total_buffer"]))
                    for r in csv.DictReader(fh)]
    with open(out / "pareto.csv", newline="") as fh:
        front_rows = [(float(r["throughput"]), int(r["total_buffer"]))
                      for r in csv.DictReader(fh)]
    oracle = [(p.throughput, p.total_buffer) for p in dominance_front(all_rows)]
    assert front_rows == oracle
    assert front_rows == sorted(front_rows)


def test_explore_emitted_files_roundtrip(files, tmp_path, capsys):
    out = tmp_path / "run"
    assert main(explore_args(files, out)) == 0
    manifest = yaml.safe_load((out / "manifest.yaml").read_text())
    assert manifest["config"]["eta"] == 3
    with open(out / "pareto.csv", newline="") as fh:
        for row in csv.DictReader(fh):
            point = yaml.safe_load((out / row["solution"]).read_text())
            assert point["throughput"] == float(row["throughput"])
            assert point["total_buffer"] == int(row["total_buffer"])
            assert point["solution"]["mapping"]
    # clustered dumps round-trip through their loader
    for rr in range(3):
        path = out / f"round_{rr}.yaml"
        if path.exists():
            load_clustered_graph(str(path))


def test_explore_eta_trend_point_count(files, tmp_path, capsys):
    small = tmp_path / "small"
    large = tmp_path / "large"
    assert main(explore_args(files, small, eta="1")) == 0
    assert main(explore_args(files, large, eta="5")) == 0
    with open(small / "pareto.csv", newline="") as fh:
        n_small = len(list(csv.DictReader(fh)))
    with open(large / "pareto.csv", newline="") as fh:
        n_large = len(list(csv.DictReader(fh)))
    assert n_large >= n_small


def test_output_dir_env_default(files, tmp_path, monkeypatch, capsys):
    target = tmp_path / "from-env"
    monkeypatch.setenv("SNNFLOW_OUTPUT_DIR", str(target))
    assert main(["partition", "--snn", files["snn"], "--crossbar-dim", "4",
                 "--eta", "1", "--seed", "11"]) == 0
    assert (target / "round_0.yaml").exists()


def test_config_file_with_flag_overrides(files, tmp_path, capsys):
    cfg = tmp_path / "run.yaml"
    cfg.write_text(yaml.safe_dump({
        "format": "run-config/1",
        "snn": files["snn"], "hardware": files["hw"],
        "crossbar_dim": 4, "eta": 1, "seed": 11,
        "swarm": {"particles": 6, "iterations": 6},
        "sweep": {"plateau": 2}}))
    out = tmp_path / "cfgrun"
    assert main(["explore", "--config", str(cfg), "--eta", "2",
                 "--jobs", "1", "-o", str(out)]) == 0
    manifest = yaml.safe_load((out / "manifest.yaml").read_text())
    assert manifest["config"]["eta"] == 2  # flag wins over file


@pytest.mark.parametrize("name,value", [
    ("snn", 987), ("hardware", ["a"]), ("trains", 654), ("output_dir", 5)])
def test_non_path_config_setting_exits_2_naming_it(files, tmp_path, capsys,
                                                   name, value):
    # left to the flow, an integer path opens that file descriptor, and
    # other values end in a traceback
    doc = {"format": "run-config/1", "snn": files["snn"],
           "hardware": files["hw"], "crossbar_dim": 4, name: value}
    cfg = tmp_path / "run.yaml"
    cfg.write_text(yaml.safe_dump(doc))
    flags = [] if name == "output_dir" else ["-o", str(tmp_path / "out")]
    assert main(["explore", "--config", str(cfg), *flags]) == 2
    assert f"{name} must be a path" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_unknown_config_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.yaml"
    cfg.write_text("format: run-config/1\nbogus: 1\n")
    assert main(["explore", "--config", str(cfg)]) == 2


@pytest.mark.parametrize("command", ["map", "explore"])
def test_swarm_seed_config_exits_2(files, tmp_path, capsys, command):
    # the swarm draws from --seed (or the config's top-level seed); a
    # seed under swarm: would be silently ignored, so it is refused
    cfg = tmp_path / "run.yaml"
    cfg.write_text(yaml.safe_dump({
        "format": "run-config/1",
        "snn": files["snn"], "hardware": files["hw"],
        "crossbar_dim": 4, "eta": 1, "swarm": {"seed": 2}}))
    if command == "map":
        parts = tmp_path / "parts"
        assert main(["partition", "--snn", files["snn"], "--crossbar-dim",
                     "4", "--eta", "1", "--seed", "11", "-o",
                     str(parts)]) == 0
        argv = ["map", str(parts / "round_0.yaml"), "--config", str(cfg)]
    else:
        argv = ["explore", "--config", str(cfg), "--jobs", "1",
                "-o", str(tmp_path / "out")]
    capsys.readouterr()
    assert main(argv) == 2
    assert "bad swarm settings" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["partition", "explore"])
@pytest.mark.parametrize("value", ["-1", "nan"])
def test_bad_delta_min_flag_exits_2(files, tmp_path, capsys, command, value):
    # a negative or NaN threshold would never stop the swap descent
    code = main(command_argv(files, tmp_path, command) + ["--delta-min", value])
    assert code == 2
    assert "delta_min" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["partition", "explore"])
@pytest.mark.parametrize("value", [-0.5, float("nan"), "big"])
def test_bad_delta_min_config_exits_2(files, tmp_path, capsys, command, value):
    cfg = tmp_path / "run.yaml"
    cfg.write_text(yaml.safe_dump({
        "format": "run-config/1", "snn": files["snn"],
        "hardware": files["hw"], "crossbar_dim": 4, "delta_min": value}))
    assert main([command, "--config", str(cfg),
                 "-o", str(tmp_path / "out")]) == 2
    assert "delta_min" in capsys.readouterr().err


@pytest.mark.parametrize("swarm", [{"v_max": -0.5}, {"v_max": float("nan")},
                                   {"phi1": float("nan")},
                                   {"phi2": float("inf")},
                                   {"particles": 2.5}, {"particles": True},
                                   {"particles": "3"}, {"iterations": 2.5}])
def test_bad_swarm_config_exits_2(files, tmp_path, capsys, swarm):
    cfg = tmp_path / "run.yaml"
    cfg.write_text(yaml.safe_dump({
        "format": "run-config/1", "snn": files["snn"],
        "hardware": files["hw"], "crossbar_dim": 4, "swarm": swarm}))
    assert main(["explore", "--config", str(cfg),
                 "-o", str(tmp_path / "out")]) == 2
    assert "bad swarm settings" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["partition", "explore"])
@pytest.mark.parametrize("flag,value", [("--eta", "-2"), ("--eta", "0"),
                                        ("--crossbar-dim", "0")])
def test_bad_round_count_or_crossbar_flag_exits_2(files, tmp_path, capsys,
                                                  command, flag, value):
    code = main(command_argv(files, tmp_path, command) + [flag, value])
    assert code == 2
    assert flag.lstrip("-").replace("-", "_") in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["partition", "map", "explore"])
@pytest.mark.parametrize("flag,value", [
    ("--time-wheel-share", "0"), ("--time-wheel-share", "1.5"),
    ("--time-wheel-share", "nan"), ("--seed", "-1"),
    ("--state-budget", "-3"), ("--state-budget", "0"), ("--jobs", "-1")])
def test_bad_flow_setting_flag_exits_2(files, tmp_path, capsys, command,
                                       flag, value):
    # checked before any work: left to the flow, these end in a
    # traceback or, for the budget, in exit 3.  A command that does not
    # read the setting refuses its flag
    code = exit_code(command_argv(files, tmp_path, command) + [flag, value])
    assert code == 2
    err = capsys.readouterr().err
    if flag in READS.get(command, FLAG_VALUES):
        assert flag.lstrip("-").replace("-", "_") in err
    else:
        assert f"unrecognized arguments: {flag} {value}" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("sweep", [{"plateau": "3"}, {"plateau": 0}])
def test_bad_sweep_config_exits_2(files, tmp_path, capsys, sweep):
    cfg = tmp_path / "run.yaml"
    cfg.write_text(yaml.safe_dump({
        "format": "run-config/1", "snn": files["snn"],
        "hardware": files["hw"], "crossbar_dim": 4, "sweep": sweep}))
    assert main(["explore", "--config", str(cfg),
                 "-o", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "bad sweep settings" in err and "plateau" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["partition", "explore"])
@pytest.mark.parametrize("name,value", [("eta", 0), ("eta", "3"),
                                        ("crossbar_dim", -1),
                                        ("crossbar_dim", 2.5)])
def test_bad_round_count_or_crossbar_config_exits_2(files, tmp_path, capsys,
                                                    command, name, value):
    cfg = tmp_path / "run.yaml"
    doc = {"format": "run-config/1", "snn": files["snn"],
           "hardware": files["hw"], "crossbar_dim": 4, name: value}
    cfg.write_text(yaml.safe_dump(doc))
    assert main([command, "--config", str(cfg),
                 "-o", str(tmp_path / "out")]) == 2
    assert name in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["stats", "rates", "analyze", "map",
                                     "explore"])
@pytest.mark.parametrize("content", [b"items: [1, 2\n", b"- 1\n- 2\n",
                                     b"format: wrong/1\n",
                                     b'neurons: ["a\xffb"]\n'],
                         ids=["invalid_yaml", "top_level_list",
                              "wrong_format", "not_utf8"])
def test_malformed_input_file_exits_2(files, tmp_path, capsys, command,
                                      content):
    bad = tmp_path / "bad.yaml"
    bad.write_bytes(content)
    argv = {
        "stats": ["stats", str(bad)],
        "rates": ["rates", "--snn", files["snn"], "--trains", str(bad),
                  "-o", str(tmp_path / "rated.yaml")],
        "analyze": ["analyze", str(bad)],
        "map": ["map", str(bad), "--hardware", files["hw"]],
        "explore": ["explore", "--config", str(bad)],
    }[command]
    assert main(argv) == 2
    assert "bad.yaml" in capsys.readouterr().err


HW_WITH_LATENCY = ("format: hardware-graph/1\n"
                   "cores: [{{id: t0, crossbar_dim: 8}}, "
                   "{{id: t1, crossbar_dim: 8}}]\n"
                   "links: [{{src: t0, dst: t1, latency: {}}}]\n")
SDFG_WITH_EXEC_TIME = ("format: sdfg/1\nactors: [{{id: a, exec_time: {}}}]\n"
                       "channels: [{{src: a, prod: 1, dst: a, cons: 1, "
                       "tokens: 1}}]\n")
SNN_WITH_SPIKES = ("format: snn-graph/1\nneurons: [a, b]\n"
                   "inputs: [{{id: i, spikes: {1}}}]\n"
                   "synapses: [{{src: i, dst: a}}, "
                   "{{src: a, dst: b, spikes: {0}}}]\n")


@pytest.mark.parametrize("value", ["-3", "0"])
def test_analyze_refuses_a_state_budget_below_one(tmp_path, capsys, value):
    # left to the run, a budget of -3 ends in exit 3 on a live graph
    path = tmp_path / "one.yaml"
    path.write_text(SDFG_WITH_EXEC_TIME.format(1))
    assert main(["analyze", str(path), "--state-budget", value]) == 2
    assert "state_budget" in capsys.readouterr().err


@pytest.mark.parametrize("command,content,field", [
    ("analyze", "format: sdfg/1\nactors: [{id: a}]\n"
                "channels: [{src: a, dst: a, cons: 1}]\n", "'prod'"),
    ("map", "format: clustered-snn/1\nclusters: [{id: c0}, {id: c1}]\n"
            "edges: [{src: c0, dst: c1}]\n", "'tokens'"),
    ("stats", "format: snn-graph/1\nneurons: [a, b]\n"
              "synapses: [{src: a, dst: b, weight: heavy}]\n", "'weight'"),
    ("explore", "format: hardware-graph/1\n"
                "cores: [{id: t0, crossbar_dim: four}]\n", "'crossbar_dim'"),
    ("rates", "format: spike-trains/1\nframe_length: 0.01\n"
              "frames: [{stim: [0.001, soon]}]\n", "'stim'"),
    ("stats", "format: snn-graph/1\nneurons: [a]\nsynapses: [a]\n",
     "synapses[0]"),
    ("explore", HW_WITH_LATENCY.format(".nan"), "'latency'"),
    ("explore", HW_WITH_LATENCY.format(".inf"), "'latency'"),
    ("analyze", SDFG_WITH_EXEC_TIME.format(".nan"), "'exec_time'"),
    ("analyze", SDFG_WITH_EXEC_TIME.format("-.inf"), "'exec_time'"),
    ("stats", SNN_WITH_SPIKES.format("'3'", 0), "'spikes'"),
    ("stats", SNN_WITH_SPIKES.format(".nan", 0), "'spikes'"),
    ("stats", SNN_WITH_SPIKES.format(1, ".nan"), "'spikes'"),
    ("stats", SNN_WITH_SPIKES.format(1, "'3'"), "'spikes'"),
], ids=["channel_without_prod", "edge_without_tokens", "word_weight",
        "word_crossbar_dim", "word_spike_time", "entry_not_a_mapping",
        "nan_latency", "inf_latency", "nan_exec_time", "minus_inf_exec_time",
        "string_synapse_spikes", "nan_synapse_spikes", "nan_input_spikes",
        "string_input_spikes"])
def test_malformed_field_exits_2_naming_it(files, tmp_path, capsys, command,
                                           content, field):
    bad = tmp_path / "bad.yaml"
    bad.write_text(content)
    argv = {
        "stats": ["stats", str(bad)],
        "rates": ["rates", "--snn", files["snn"], "--trains", str(bad),
                  "-o", str(tmp_path / "rated.yaml")],
        "analyze": ["analyze", str(bad)],
        "map": ["map", str(bad), "--hardware", files["hw"]],
        "explore": ["explore", "--snn", files["snn"], "--hardware", str(bad),
                    "-o", str(tmp_path / "out")],
    }[command]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "bad.yaml" in err
    assert field in err


@pytest.mark.parametrize("command,content,field", [
    ("explore", "format: hardware-graph/1\n"
                "cores: [{id: t0, crossbar_dim: 2.5}]\n", "'crossbar_dim'"),
    ("analyze", "format: sdfg/1\nactors: [{id: a}, {id: b}]\n"
                "channels: [{src: a, prod: 1, dst: b, cons: 1, "
                "capacity: 2.5}]\n", "'capacity'"),
    ("map", "format: clustered-snn/1\nclusters: [{id: c0}, {id: c1}]\n"
            "edges: [{src: c0, dst: c1, tokens: 0.5}]\n", "'tokens'"),
], ids=["hardware_crossbar_dim", "sdfg_capacity", "clustered_edge_tokens"])
def test_fractional_integer_field_exits_2_naming_it(files, tmp_path, capsys,
                                                    command, content, field):
    # an integer field refuses a fraction rather than truncating it
    bad = tmp_path / "bad.yaml"
    bad.write_text(content)
    argv = {
        "analyze": ["analyze", str(bad)],
        "map": ["map", str(bad), "--hardware", files["hw"]],
        "explore": ["explore", "--snn", files["snn"], "--hardware", str(bad),
                    "-o", str(tmp_path / "out")],
    }[command]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "bad.yaml" in err and field in err and "not an integer" in err


def test_removed_input_fanin_switch_is_an_unknown_config_key(files, tmp_path,
                                                             capsys):
    # input sources always count against a crossbar's rows
    cfg = tmp_path / "run.yaml"
    cfg.write_text(yaml.safe_dump({
        "format": "run-config/1", "snn": files["snn"], "crossbar_dim": 4,
        "count_input_fanin": False}))
    assert main(["partition", "--config", str(cfg),
                 "-o", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "unknown config keys" in err and "count_input_fanin" in err


def test_explore_budget_exceeded_exits_3_with_partial_outputs(
        files, tmp_path, capsys):
    out = tmp_path / "run"
    assert main(explore_args(files, out) + ["--state-budget", "2"]) == 3
    assert "budget exceeded" in capsys.readouterr().err
    # round 0 already runs out, so the partial front holds no points
    with open(out / "pareto.csv", newline="") as fh:
        assert list(csv.reader(fh)) == [
            ["throughput", "total_buffer", "round", "step", "solution"]]
    assert (out / "manifest.yaml").exists()
    assert (out / "round_0.yaml").exists()
    assert not (out / "round_1.yaml").exists()


def test_partition_explore_and_library_share_round_seeds(files, tmp_path,
                                                         capsys):
    parts, run = tmp_path / "parts", tmp_path / "run"
    assert main(["partition", "--snn", files["snn"], "--crossbar-dim", "4",
                 "--eta", "3", "--seed", "11", "-o", str(parts)]) == 0
    assert main(explore_args(files, run, eta="3", seed="11")) == 0
    g = load_snn_graph(files["snn"])
    library = partition_rounds(g, 4, 3, seed=11)
    for r, cg in enumerate(library):
        save_clustered_graph(cg, tmp_path / f"lib_{r}.yaml")
        want = (tmp_path / f"lib_{r}.yaml").read_bytes()
        assert (parts / f"round_{r}.yaml").read_bytes() == want
        assert (run / f"round_{r}.yaml").read_bytes() == want

    cfg = DesignFlowConfig(crossbar_dim=4, eta=3, seed=11, jobs=1,
                           swarm=SwarmConfig(particles=2, iterations=1))
    flow = run_design_flow(g, two_core_platform(), cfg)
    assert [rr.clustered for rr in flow.rounds] == library
    with open(parts / "cost_log.csv", newline="") as fh:
        last_cost = {int(row["round"]): float(row["cost"])
                     for row in csv.DictReader(fh)}
    assert last_cost == {rr.round_index: rr.cut_cost for rr in flow.rounds}
