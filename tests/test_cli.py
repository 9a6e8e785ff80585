"""Command-line interface: subcommands, exit codes, reproducible outputs."""

import csv

import pytest
import yaml

from conftest import layered_demo_snn, two_core_platform
from oracles import dominance_front

from snnflow.cli import main
from snnflow.partition import load_clustered_graph
from snnflow.snn_graph import load_snn_graph, save_hardware_graph, save_snn_graph


@pytest.fixture
def files(tmp_path):
    snn = tmp_path / "net.yaml"
    hw = tmp_path / "hw.yaml"
    save_snn_graph(layered_demo_snn(), snn)
    save_hardware_graph(two_core_platform(), hw)
    return {"snn": str(snn), "hw": str(hw), "dir": tmp_path}


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

    dead = tmp_path / "dead.yaml"
    dead.write_text(yaml.safe_dump({
        "format": "sdfg/1",
        "actors": [{"id": "a", "exec_time": 1}, {"id": "b", "exec_time": 1}],
        "channels": [
            {"src": "a", "prod": 1, "dst": "b", "cons": 1, "tokens": 0},
            {"src": "b", "prod": 1, "dst": "a", "cons": 1, "tokens": 0}]}))
    assert main(["analyze", str(dead)]) == 1
    assert "deadlock: yes" in capsys.readouterr().out

    inconsistent = tmp_path / "inc.yaml"
    inconsistent.write_text(yaml.safe_dump({
        "format": "sdfg/1",
        "actors": [{"id": "a", "exec_time": 1}, {"id": "b", "exec_time": 1}],
        "channels": [
            {"src": "a", "prod": 1, "dst": "b", "cons": 2, "tokens": 0},
            {"src": "b", "prod": 1, "dst": "a", "cons": 2, "tokens": 4}]}))
    assert main(["analyze", str(inconsistent)]) == 1
    assert "analysis failed" in capsys.readouterr().err


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


def test_unknown_config_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.yaml"
    cfg.write_text("format: run-config/1\nbogus: 1\n")
    assert main(["explore", "--config", str(cfg)]) == 2


@pytest.mark.parametrize("command", ["partition", "explore"])
@pytest.mark.parametrize("value", ["-1", "nan"])
def test_bad_delta_min_flag_exits_2(files, tmp_path, capsys, command, value):
    # a negative or NaN threshold would never stop the swap descent
    code = main([command, "--snn", files["snn"], "--hardware", files["hw"],
                 "--crossbar-dim", "4", "--delta-min", value,
                 "-o", str(tmp_path / "out")])
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
