"""The YAML codec against PyYAML's pure-Python classes.

snnflow reads and writes every file through libyaml (``_load_yaml`` and
``_yaml_text``).  The pure-Python ``yaml.safe_load`` and
``yaml.safe_dump(doc, sort_keys=False)`` are the oracle: every document
the package writes must load to the value ``safe_load`` gives and be
written with the bytes ``safe_dump`` writes.
"""

import numpy as np
import pytest
import yaml

from conftest import (all_to_all_platform, demo_clustered, layered_demo_snn,
                      layered_snn, lift_bounded, random_snn,
                      two_core_platform)

from snnflow.cli import main
from snnflow.lif import TRAINS_FORMAT, SpikeTrain, save_spike_trains
from snnflow.partition import (CLUSTERED_FORMAT, clustered_graph_to_dict,
                               save_clustered_graph)
from snnflow.sdfg import SDFG_FORMAT, save_sdfg, sdfg_to_dict
from snnflow.snn_graph import (HW_FORMAT, SNN_FORMAT, _dump_yaml, _load_yaml,
                               _yaml_text, hardware_graph_to_dict,
                               save_hardware_graph, save_snn_graph,
                               snn_graph_to_dict)


def assert_oracle_agrees(path, fmt):
    """``path`` loads through ``_load_yaml`` as ``safe_load`` loads it,
    and holds the bytes ``safe_dump`` writes for that value."""
    expected = yaml.safe_load(path.read_bytes())
    assert _load_yaml(str(path), fmt) == expected
    oracle_text = yaml.safe_dump(expected, sort_keys=False)
    assert _yaml_text(expected) == oracle_text
    assert path.read_bytes() == oracle_text.encode("utf-8")


GRAPHS = {
    **{f"layered{seed}": (lambda s=seed: layered_snn(s, [6, 5, 7], fanout=3))
       for seed in range(3)},
    **{f"random{seed}": (lambda s=seed: random_snn(s, n_neurons=10))
       for seed in range(3)},
    "demo": layered_demo_snn,
}


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_snn_graphs(tmp_path, name):
    g = GRAPHS[name]()
    path = tmp_path / "net.yaml"
    save_snn_graph(g, path)
    assert path.read_text(encoding="utf-8") == \
        yaml.safe_dump(snn_graph_to_dict(g), sort_keys=False)
    assert_oracle_agrees(path, SNN_FORMAT)


@pytest.mark.parametrize("hw", [two_core_platform(),
                                all_to_all_platform(3, exec_time=0.5)],
                         ids=["two_core", "all_to_all"])
def test_platforms(tmp_path, hw):
    path = tmp_path / "hw.yaml"
    save_hardware_graph(hw, path)
    assert path.read_text(encoding="utf-8") == \
        yaml.safe_dump(hardware_graph_to_dict(hw), sort_keys=False)
    assert_oracle_agrees(path, HW_FORMAT)


def test_spike_trains(tmp_path):
    # uniform draws: full-precision floats, whose text must round-trip
    rng = np.random.default_rng(7)
    frames = [{f"in{i}": SpikeTrain(
                   tuple(np.sort(rng.uniform(0, 0.05, k)).tolist()), 0.05)
               for i, k in enumerate(rng.integers(0, 9, size=4))}
              for _ in range(3)]
    path = tmp_path / "trains.yaml"
    save_spike_trains(frames, path)
    assert_oracle_agrees(path, TRAINS_FORMAT)


def test_sdfg_and_clustered_graph(tmp_path):
    cg = demo_clustered()
    cg_path = tmp_path / "clustered.yaml"
    save_clustered_graph(cg, cg_path)
    assert cg_path.read_text(encoding="utf-8") == \
        yaml.safe_dump(clustered_graph_to_dict(cg), sort_keys=False)
    assert_oracle_agrees(cg_path, CLUSTERED_FORMAT)

    g = lift_bounded(cg)
    sdfg_path = tmp_path / "sdfg.yaml"
    save_sdfg(g, sdfg_path)
    assert sdfg_path.read_text(encoding="utf-8") == \
        yaml.safe_dump(sdfg_to_dict(g), sort_keys=False)
    assert_oracle_agrees(sdfg_path, SDFG_FORMAT)


def test_explore_outputs_and_map_record(tmp_path, capsys):
    snn, hw, out = (tmp_path / "net.yaml", tmp_path / "hw.yaml",
                    tmp_path / "run")
    save_snn_graph(layered_demo_snn(), snn)
    save_hardware_graph(two_core_platform(), hw)
    assert main(["explore", "--snn", str(snn), "--hardware", str(hw),
                 "--crossbar-dim", "4", "--eta", "2", "--seed", "3",
                 "-o", str(out)]) == 0
    record = tmp_path / "map.yaml"
    assert main(["map", str(out / "round_0.yaml"), "--hardware", str(hw),
                 "--output", str(record)]) == 0
    assert_oracle_agrees(out / "manifest.yaml", "run-manifest/1")
    assert_oracle_agrees(out / "round_0.yaml", CLUSTERED_FORMAT)
    points = sorted((out / "points").glob("*.yaml"))
    assert points
    # point and map records carry no format key, which _load_yaml reads
    # as None
    for path in points + [record]:
        assert_oracle_agrees(path, None)


TRICKY = {
    "format": "codec-test/1",
    "lines": "first\nsecond\n",
    "no_final_newline": "a\nb",
    "non_ascii": "naïve µs — 日本語 😀",
    "yes": "yes",
    "YES": True,
    "empty": "",
    "null": None,
    "null_text": "null",
    "tiny": 1e-20,
    "tiny_text": "1e-20",
    "inf": float("inf"),
    "minus_inf": float("-inf"),
    "inf_text": ".inf",
    "colon": "key: value",
    "leading_space": " x",
    "long": "word " * 30,
    "nested": [[], {}, [1, 2.5, False, None, {"k": "v"}]],
}


def test_tricky_values(tmp_path):
    path = tmp_path / "tricky.yaml"
    _dump_yaml(TRICKY, path)
    assert path.read_text(encoding="utf-8") == \
        yaml.safe_dump(TRICKY, sort_keys=False)
    assert _load_yaml(str(path), "codec-test/1") == TRICKY
    assert_oracle_agrees(path, "codec-test/1")
