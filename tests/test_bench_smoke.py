"""Smoke test of the benchmark harness in ``bench/``.

One single-round operation of each explore workload and of the front
workload (on one frame of spike trains), built, run, checked and
fingerprinted the way ``bench/run.py`` does it, so that the harness
keeps working as the library changes.
"""

import dataclasses
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import workloads  # noqa: E402  (needs bench/ on the path)


# Fingerprints of the smoke runs (seed 1).  They pin the fronts and
# partitions byte for byte: a change that moves any of them changes the
# library's results, and must say so as a behaviour change.
@pytest.mark.parametrize("name, smaller, fingerprint", [
    ("explore-mesh16", {"rounds": 1}, "be2d8bbe1a6e70c4"),
    ("front-l96", {"rounds": 1, "frames": 1}, "56d5d110cb3fde18"),
    ("explore-a2a4", {"rounds": 1}, "077bb1975d358ef6"),
], ids=["explore-mesh16", "front-l96", "explore-a2a4"])
def test_one_round_passes_checks_and_repeats(tmp_path, name, smaller,
                                             fingerprint):
    wl = dataclasses.replace(workloads.WORKLOADS[name], **smaller)
    paths, flow_seed = wl.write_inputs(1, 0, str(tmp_path))
    inputs = workloads.load_inputs(paths)
    first = wl.run(inputs, flow_seed)
    assert wl.check(inputs, flow_seed, first) == []
    again = wl.run(workloads.load_inputs(paths), flow_seed)
    assert wl.fingerprint(again) == wl.fingerprint(first) == fingerprint


# Held-out fingerprints (seed 1009) of the explore workloads: a second
# instance, so that a speed-up tuned against seed 1 alone cannot move
# the other fronts unnoticed.
@pytest.mark.parametrize("name, fingerprint", [
    ("explore-a2a4", "517a4c09d3cd9c26"),
    ("explore-mesh16", "f5ecdacba2ce0d4c"),
], ids=["explore-a2a4", "explore-mesh16"])
def test_held_out_seed_fingerprint(tmp_path, name, fingerprint):
    wl = dataclasses.replace(workloads.WORKLOADS[name], rounds=1)
    paths, flow_seed = wl.write_inputs(1009, 0, str(tmp_path))
    inputs = workloads.load_inputs(paths)
    result = wl.run(inputs, flow_seed)
    assert wl.check(inputs, flow_seed, result) == []
    assert wl.fingerprint(result) == fingerprint


# Seed-1 instances 1 and 2 of the explore workloads at one round: with
# instance 0 above, a change that claims to keep the search's results
# is checked on three instances of each workload.
@pytest.mark.parametrize("name, index, fingerprint", [
    ("explore-a2a4", 1, "9c2a6c00bb86539a"),
    ("explore-a2a4", 2, "1dfa5e0136b7a9bd"),
    ("explore-mesh16", 1, "a74211d605786a0a"),
    ("explore-mesh16", 2, "06316b35253af94f"),
], ids=["explore-a2a4-1", "explore-a2a4-2", "explore-mesh16-1",
        "explore-mesh16-2"])
def test_more_seed_one_instances_fingerprint(tmp_path, name, index,
                                             fingerprint):
    wl = dataclasses.replace(workloads.WORKLOADS[name], rounds=1)
    paths, flow_seed = wl.write_inputs(1, index, str(tmp_path))
    inputs = workloads.load_inputs(paths)
    result = wl.run(inputs, flow_seed)
    assert wl.check(inputs, flow_seed, result) == []
    assert wl.fingerprint(result) == fingerprint
