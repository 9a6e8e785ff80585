"""Integrate-and-fire stepping, synaptic currents and rate estimation."""

import math
from collections import Counter

import numpy as np
import pytest

from conftest import layered_snn, random_snn
from oracles import (constant_current_isi, reference_estimate_rates,
                     step_neuron, synaptic_current)
from snnflow.errors import ConfigError
from snnflow.lif import (LifParams, SpikeTrain, estimate_rates,
                         load_spike_trains, save_spike_trains)
from snnflow.snn_graph import InputSource, Neuron, SnnGraph, Synapse

PARAMS = LifParams()  # tau_m = 10 ms, threshold 15 mV above rest


def test_equilibrium_is_stable():
    v, fired = step_neuron(PARAMS.v_rest, PARAMS, 0.0)
    assert v == PARAMS.v_rest
    assert not fired


def test_threshold_always_fires_and_resets():
    for current in (0.0, 5e-9, -5e-9):
        v, fired = step_neuron(PARAMS.v_th, PARAMS, current)
        assert fired
        assert v == PARAMS.v_rest


def test_voltage_never_exceeds_threshold():
    v = PARAMS.v_rest
    for _ in range(5000):
        v, _ = step_neuron(v, PARAMS, 4e-9)
        assert v <= PARAMS.v_th


def test_decay_toward_rest_is_monotone():
    v = PARAMS.v_rest + 0.9 * (PARAMS.v_th - PARAMS.v_rest)
    previous = v
    for _ in range(1000):
        v, fired = step_neuron(v, PARAMS, 0.0)
        assert not fired
        assert PARAMS.v_rest <= v <= previous
        previous = v


def test_synaptic_current_cases():
    dt = PARAMS.dt
    assert synaptic_current([], dt) == 0.0
    assert synaptic_current([(1, 2e-9)], dt) == pytest.approx(2e-9 / dt)
    assert synaptic_current([(1, 1e-9), (1, 3e-9)], dt) == \
        pytest.approx(4e-9 / dt)


@pytest.mark.parametrize("r_m,i_scale", [(1e7, 2.0), (1e7, 4.0), (2e7, 1.2),
                                         (5e6, 3.0), (1e7, 1.05)])
def test_constant_current_isi_matches_closed_form(r_m, i_scale):
    params = LifParams(r_m=r_m, dt=5e-5)
    current = i_scale * (params.v_th - params.v_rest) / params.r_m
    expected = constant_current_isi(params, current)
    assert math.isfinite(expected)

    v = params.v_rest
    spikes = []
    steps = int(0.5 / params.dt)
    for k in range(steps):
        v, fired = step_neuron(v, params, current)
        if fired:
            spikes.append(k * params.dt)
    assert len(spikes) >= 3
    gaps = [b - a for a, b in zip(spikes, spikes[1:])]
    for gap in gaps:
        assert abs(gap - expected) <= 2 * params.dt


def test_subthreshold_current_never_fires():
    params = LifParams()
    current = 0.9 * (params.v_th - params.v_rest) / params.r_m
    assert constant_current_isi(params, current) == math.inf
    v = params.v_rest
    for _ in range(int(0.2 / params.dt)):
        v, fired = step_neuron(v, params, current)
        assert not fired


def _driven_pair() -> SnnGraph:
    # one input driving a neuron that feeds two targets
    return SnnGraph(
        (Neuron.make("src"), Neuron.make("t1"), Neuron.make("t2")),
        (InputSource("stim"),),
        (Synapse("stim", "src", 5e-9, 0), Synapse("src", "t1", 1e-9, 0),
         Synapse("src", "t2", 1e-9, 0)))


def test_zero_input_gives_zero_rates():
    g = _driven_pair()
    frames = [{"stim": SpikeTrain((), 0.01)}]
    out = estimate_rates(g, PARAMS, frames)
    assert all(s.spikes == 0 for s in out.synapses)


def test_fanout_synapses_share_the_source_count():
    g = _driven_pair()
    # six strong pulses, each far enough apart to trigger one spike
    times = tuple(0.001 + 0.0015 * k for k in range(6))
    frames = [{"stim": SpikeTrain(times, 0.01)}]
    out = estimate_rates(g, PARAMS, frames)
    by_pair = {(s.src, s.dst): s.spikes for s in out.synapses}
    assert by_pair[("stim", "src")] == 6
    assert by_pair[("src", "t1")] == by_pair[("src", "t2")]
    assert by_pair[("src", "t1")] == 6


def test_chain_counts_match_independent_trace():
    params = LifParams()
    w = 4e-9
    g = SnnGraph(
        (Neuron.make("a"), Neuron.make("b"), Neuron.make("c")),
        (InputSource("stim"),),
        (Synapse("stim", "a", w, 0), Synapse("a", "b", w, 0),
         Synapse("b", "c", w, 0)))
    times = tuple(0.0005 + 0.002 * k for k in range(5))
    frame_length = 0.012
    frames = [{"stim": SpikeTrain(times, frame_length)}]
    out = estimate_rates(g, params, frames)

    # independent plain-python trace of the same discretization
    dt = params.dt
    n_steps = round(frame_length / dt)
    stim_bins = [0] * n_steps
    for t in times:
        stim_bins[int(t / dt)] += 1
    v = {"a": params.v_rest, "b": params.v_rest, "c": params.v_rest}
    fired = {"a": 0, "b": 0, "c": 0}
    counts = {"a": 0, "b": 0, "c": 0}
    tau = params.tau_m
    for k in range(n_steps):
        drive = {"a": stim_bins[k] * w / dt,
                 "b": fired["a"] * w / dt,
                 "c": fired["b"] * w / dt}
        new_fired = {}
        for nid in ("a", "b", "c"):
            vv = v[nid] + dt * (-(v[nid] - params.v_rest) / tau
                                + drive[nid] / params.c_m)
            if v[nid] >= params.v_th or vv >= params.v_th:
                new_fired[nid] = 1
                counts[nid] += 1
                v[nid] = params.v_rest
            else:
                new_fired[nid] = 0
                v[nid] = vv
        fired = new_fired

    by_pair = {(s.src, s.dst): s.spikes for s in out.synapses}
    assert by_pair[("a", "b")] == counts["a"]
    assert by_pair[("b", "c")] == counts["b"]
    assert counts["a"] > 0


def test_estimate_rates_deterministic():
    g = _driven_pair()
    times = tuple(0.001 * k + 0.0004 for k in range(8))
    frames = [{"stim": SpikeTrain(times, 0.01)}]
    a = estimate_rates(g, PARAMS, frames)
    b = estimate_rates(g, PARAMS, frames)
    assert a == b


def test_halving_dt_is_stable():
    g = _driven_pair()
    times = tuple(0.0004 + 0.0011 * k for k in range(9))
    frames = [{"stim": SpikeTrain(times, 0.01)}]
    coarse = estimate_rates(g, LifParams(dt=1e-4), frames)
    fine = estimate_rates(g, LifParams(dt=5e-5), frames)
    for s_res, s_ref in zip(coarse.synapses, fine.synapses):
        if s_ref.spikes == 0:
            assert s_res.spikes == 0
        else:
            assert abs(s_res.spikes - s_ref.spikes) / s_ref.spikes <= 0.10


def test_missing_train_is_a_config_error():
    g = _driven_pair()
    with pytest.raises(ConfigError, match="stim"):
        estimate_rates(g, PARAMS, [{}])


def test_missing_train_in_a_later_frame_names_that_frame():
    g = _driven_pair()
    frames = [{"stim": SpikeTrain((0.001,), 0.01)}, {}]
    with pytest.raises(ConfigError,
                       match=r"frame 1: no spike train for input\(s\) \['stim'\]"):
        estimate_rates(g, PARAMS, frames)


def test_rates_without_a_spike_train_are_refused():
    # no train gives the frame length; a one-step frame would rate a
    # neuron that fires every other step at one spike per frame
    g = SnnGraph((Neuron.make("a", {"i_inj": 1e-6}), Neuron.make("b")), (),
                 (Synapse("a", "b", 0.0),))
    for rates in (estimate_rates, reference_estimate_rates):
        with pytest.raises(ConfigError, match="no input spike train gives "
                                              "the frame length"):
            rates(g, PARAMS, [{}, {}])


def test_train_for_an_id_that_is_no_input_is_refused():
    # neither a neuron's id nor a typo'd key may set the frame length
    # and then be ignored
    g = _driven_pair()
    frames = [{"stim": SpikeTrain((0.001,), 0.01)},
              {"stim": SpikeTrain((), 0.01), "typo": SpikeTrain((), 0.5),
               "t1": SpikeTrain((), 0.5)}]
    with pytest.raises(ConfigError,
                       match=r"frame 1: spike trains for \['t1', 'typo'\], "
                             r"which are not inputs"):
        estimate_rates(g, PARAMS, frames)


def test_spikes_past_the_last_step_count_only_for_the_input():
    # 0.01004 / 1e-4 rounds to 100 steps, but the spikes at 0.01 and
    # 0.01002 fall in step 100: the input's rate counts them, yet they
    # never drive its neuron
    g = _driven_pair()
    frames = [{"stim": SpikeTrain((0.001, 0.01, 0.01002), 0.01004)}]
    out = estimate_rates(g, PARAMS, frames)
    by_pair = {(s.src, s.dst): s.spikes for s in out.synapses}
    assert out.inputs[0].spikes == 3
    assert by_pair[("stim", "src")] == 3
    assert by_pair[("src", "t1")] == by_pair[("src", "t2")] == 1
    assert out == reference_estimate_rates(g, PARAMS, frames)


def _rate_case(seed: int):
    """A random net, parameter overrides and spike trains for one seed.

    Every case has a tonic neuron with no in-synapses, a neuron that
    never fires and whose out-synapses carry inf, -inf and nan weights,
    negative weights, and a shuffled synapse order.  Seeds cycle through
    a random net, a layered net with fan-in up to 12 and a net driven
    only by injected current, whose one input has no synapse and empty
    trains, which give the frame length; the frame length sometimes
    leaves a tail past the last step.
    """
    rng = np.random.default_rng(seed)
    kind = seed % 3
    if kind == 0:
        base = random_snn(seed, n_neurons=int(rng.integers(10, 28)),
                          n_inputs=int(rng.integers(1, 4)), edge_prob=0.5)
    elif kind == 1:
        base = layered_snn(seed, [4, 12, 6], fanout=int(rng.integers(6, 13)))
    else:
        base = random_snn(seed, n_neurons=int(rng.integers(6, 20)),
                          n_inputs=0, edge_prob=0.4)
        base = SnnGraph(base.neurons, (InputSource("idle"),), base.synapses)
    ranges = {"v_rest": (-70e-3, -60e-3), "v_th": (-58e-3, -45e-3),
              "r_m": (5e6, 2e7), "c_m": (0.5e-9, 2e-9),
              "i_inj": (-0.5e-9, 2.5e-9)}
    neurons = []
    for n in base.neurons:
        overrides = {k: float(rng.uniform(lo, hi))
                     for k, (lo, hi) in ranges.items() if rng.random() < 0.4}
        neurons.append(Neuron.make(n.id, overrides))
    ids = [n.id for n in neurons]
    targets = [str(t) for t in rng.choice(ids, size=3, replace=False)]
    neurons = [Neuron.make(n.id, {**n.params_dict(), "i_inj": 1e-6})
               if n.id in targets else n for n in neurons]
    neurons += [Neuron.make("tonic", {"i_inj": 2e-9}), Neuron.make("quiet")]

    synapses = [Synapse(s.src, s.dst, float(rng.normal(6e-12, 8e-12)))
                for s in base.synapses]
    synapses += [Synapse("tonic", t, float(rng.normal(6e-12, 8e-12)))
                 for t in rng.choice(ids, size=4, replace=False)]
    synapses += [Synapse("quiet", t, w)
                 for t, w in zip(targets, (math.inf, -math.inf, math.nan))]
    order = rng.permutation(len(synapses))
    g = SnnGraph(tuple(neurons), base.inputs,
                 tuple(synapses[i] for i in order))

    frame_length = 0.01004 if rng.random() < 0.5 else 0.02
    frames = []
    for _ in range(int(rng.integers(1, 4))):
        frame = {}
        for iid in g.input_ids():
            if kind == 2:
                frame[iid] = SpikeTrain((), frame_length)
                continue
            times = set(np.round(rng.uniform(0.0, frame_length,
                                             size=rng.poisson(25)), 5))
            if frame_length == 0.01004:
                times.add(0.01001)
            frame[iid] = SpikeTrain(
                tuple(sorted(float(t) for t in times if t < frame_length)),
                frame_length)
        frames.append(frame)
    return g, frames, targets


@pytest.mark.parametrize("seed", range(24))
def test_vectorised_rates_equal_the_reference(seed):
    g, frames, targets = _rate_case(seed)
    ref = reference_estimate_rates(g, PARAMS, frames)
    assert estimate_rates(g, PARAMS, frames) == ref
    # the non-finite weights sit on a silent source, and their targets fire
    rate = {s.src: s.spikes for s in ref.synapses}
    assert rate["quiet"] == 0
    assert all(rate.get(t, 1) > 0 for t in targets)


def _wide_fan_in_case():
    """A net whose neuron ``wide`` hears all 16 inputs and 56 neurons,
    where no other neuron hears more than a few sources, driven by four
    frames; the silent ``quiet`` sends inf to ``wide`` and -inf and nan
    to two others, ``wide`` feeds ``sink``, and the synapse order is
    shuffled."""
    rng = np.random.default_rng(11)
    base = layered_snn(11, [16, 40], fanout=6)
    neurons = base.neurons + tuple(Neuron.make(nid)
                                   for nid in ("wide", "quiet", "sink"))
    sources = base.input_ids() + base.neuron_ids()
    synapses = [Synapse(s.src, s.dst, float(rng.normal(6e-12, 8e-12)))
                for s in base.synapses]
    synapses += [Synapse(src, "wide", float(rng.normal(0.0, 3e-12)))
                 for src in sources]
    synapses += [Synapse("quiet", dst, w) for dst, w in
                 (("wide", math.inf), ("n016", -math.inf), ("n017", math.nan))]
    synapses.append(Synapse("wide", "sink", 0.0))
    order = rng.permutation(len(synapses))
    g = SnnGraph(neurons, base.inputs, tuple(synapses[i] for i in order))
    frame_length = 0.01004
    frames = []
    for _ in range(4):
        frame = {}
        for iid in g.input_ids():
            times = np.round(rng.uniform(0.0, frame_length, size=30), 5)
            frame[iid] = SpikeTrain(
                tuple(sorted({float(t) for t in times if t < frame_length})),
                frame_length)
        frames.append(frame)
    return g, frames


def test_wide_fan_in_rates_equal_the_reference():
    # _rate_case's columns are all of similar width; here one neuron's is
    # over ten times wider than any other
    g, frames = _wide_fan_in_case()
    fan_in = Counter(s.dst for s in g.synapses)
    assert fan_in["wide"] >= 64 and len(frames) >= 4
    assert fan_in["wide"] > 10 * max(c for d, c in fan_in.items()
                                      if d != "wide")
    ref = reference_estimate_rates(g, PARAMS, frames)
    assert estimate_rates(g, PARAMS, frames) == ref
    rate = {s.src: s.spikes for s in ref.synapses}
    rate.update({i.id: i.spikes for i in ref.inputs})
    heard = {s.src for s in g.synapses if s.dst == "wide"}
    assert rate["quiet"] == 0 and rate["wide"] > 0
    assert any(rate[i] > 0 for i in heard & set(g.input_ids()))
    assert any(rate[n] > 0 for n in heard & set(g.neuron_ids()))


def test_frames_are_simulated_independently():
    # each frame starts at rest with no spikes in flight: reversing the
    # frames, or passing one frame k times instead of once, changes nothing
    g, frames = _wide_fan_in_case()
    rated = estimate_rates(g, PARAMS, frames)
    assert estimate_rates(g, PARAMS, frames[::-1]) == rated
    for frame in frames:
        assert (estimate_rates(g, PARAMS, [frame] * 3)
                == estimate_rates(g, PARAMS, [frame]))


def test_rates_add_synapse_terms_left_to_right():
    # twelve inputs fire together into one neuron; added left to right,
    # 1.0 absorbs every 2**-53 term and the sum stays 1.0, whereas any
    # other order (pairwise, reversed) exceeds 1.0 and reaches v_th
    params = LifParams(dt=2.0 ** -13)  # dt divides and multiplies exactly
    inputs = tuple(InputSource(f"in{k:02d}") for k in range(12))
    weights = [1.0] + [2.0 ** -53] * 11
    edge = Neuron.make("edge", {"v_rest": 0.0, "r_m": 1.0, "c_m": 1.0,
                                "v_th": math.nextafter(1.0, 2.0)})
    g = SnnGraph((edge, Neuron.make("sink")), inputs,
                 tuple(Synapse(i.id, "edge", w) for i, w in zip(inputs, weights))
                 + (Synapse("edge", "sink", 0.0),))
    frames = [{i.id: SpikeTrain((0.0,), 4 * params.dt) for i in inputs}]
    out = estimate_rates(g, params, frames)
    assert out == reference_estimate_rates(g, params, frames)
    assert out.synapses[-1].spikes == 0


def test_membrane_update_rounds_as_step_neuron():
    # each neuron's threshold is set to the highest voltage step_neuron
    # reaches in two steps (or to the next float above it), so any other
    # rounding of the membrane update flips one neuron of the pair; rest
    # near 0 V and tau_m near dt keep every term of the update in play
    rng = np.random.default_rng(5)
    neurons, inputs, synapses, frame = [], [], [], {}
    for k in range(200):
        overrides = {"v_rest": float(rng.uniform(-1e-3, 1e-3)),
                     "r_m": float(rng.uniform(5e4, 2e5)),
                     "c_m": float(rng.uniform(0.5e-9, 2e-9)),
                     "i_inj": float(rng.uniform(1e-10, 2e-8))}
        count = 1 + k % 2
        w = float(rng.uniform(1e-13, 2e-12))
        p = PARAMS.with_overrides({**overrides, "v_th": 1.0})
        v1, _ = step_neuron(p.v_rest, p,
                            synaptic_current([(count, w)], PARAMS.dt))
        v2, _ = step_neuron(v1, p, 0.0)
        knife = max(v1, v2)
        assert knife > p.v_rest
        for name, v_th in ((f"fire{k}", knife),
                           (f"calm{k}", math.nextafter(knife, math.inf))):
            neurons.append(Neuron.make(name, {**overrides, "v_th": v_th}))
            inputs.append(InputSource(f"in_{name}"))
            synapses += [Synapse(f"in_{name}", name, w),
                         Synapse(name, "sink", 0.0)]
            frame[f"in_{name}"] = SpikeTrain((0.0, 5e-5)[:count],
                                             2 * PARAMS.dt)
    neurons.append(Neuron.make("sink"))
    g = SnnGraph(tuple(neurons), tuple(inputs), tuple(synapses))
    out = estimate_rates(g, PARAMS, [frame])
    assert out == reference_estimate_rates(g, PARAMS, [frame])
    rate = {s.src: s.spikes for s in out.synapses}
    assert all(rate[f"fire{k}"] == 1 and rate[f"calm{k}"] == 0
               for k in range(200))


def test_bad_params_rejected():
    with pytest.raises(ConfigError):
        LifParams(c_m=-1.0)
    with pytest.raises(ConfigError):
        LifParams(v_th=-70e-3)  # below rest
    with pytest.raises(ConfigError):
        SpikeTrain((0.2,), 0.1)
    with pytest.raises(ConfigError):
        SpikeTrain((0.005, 0.005), 0.1)


@pytest.mark.parametrize("name", ["c_m", "r_m", "v_rest", "v_th", "i_inj",
                                  "dt"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_params_rejected(name, value):
    # NaN fails every comparison, and an infinite dt or threshold passes
    # the order checks, so each would run a meaningless simulation
    with pytest.raises(ConfigError, match=f"{name} must be finite"):
        LifParams(**{name: value})


def test_spike_train_files_roundtrip(tmp_path):
    frames = [{"A": SpikeTrain((0.001, 0.004), 0.01),
               "B": SpikeTrain((), 0.01)},
              {"A": SpikeTrain((0.002,), 0.01),
               "B": SpikeTrain((0.003, 0.006, 0.009), 0.01)}]
    path = tmp_path / "trains.yaml"
    save_spike_trains(frames, path)
    assert load_spike_trains(str(path)) == frames
