"""Discrete-time leaky integrate-and-fire simulation for spike-rate estimation.

The simulator exists to put token counts on synapses: it integrates each
neuron's membrane with forward Euler, counts output spikes per frame, and
writes the rounded per-frame averages back onto the graph.  Inter-spike
timing is deliberately discarded downstream, so the integrator favours
simplicity over waveform fidelity.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, replace

from .errors import ConfigError, GraphFormatError
from .snn_graph import SnnGraph, _dump_yaml, _load_yaml

TRAINS_FORMAT = "spike-trains/1"


@dataclass(frozen=True)
class LifParams:
    """Membrane parameters of a current-based integrate-and-fire neuron.

    The membrane time constant is ``r_m * c_m``.  ``dt`` is the forward
    Euler step used by the frame simulation.
    """

    c_m: float = 1e-9           # farads
    r_m: float = 1e7            # ohms
    v_rest: float = -65e-3      # volts
    v_th: float = -50e-3        # volts
    i_inj: float = 0.0          # amperes
    dt: float = 1e-4            # seconds

    def __post_init__(self):
        if self.c_m <= 0 or self.r_m <= 0:
            raise ConfigError("c_m and r_m must be positive")
        if self.v_th <= self.v_rest:
            raise ConfigError("v_th must exceed v_rest")
        if self.dt <= 0:
            raise ConfigError("dt must be positive")

    @property
    def tau_m(self) -> float:
        return self.c_m * self.r_m

    def with_overrides(self, overrides: dict[str, float]) -> "LifParams":
        return replace(self, **overrides) if overrides else self


@dataclass(frozen=True)
class SpikeTrain:
    """Spike instants of one source within a frame, strictly increasing."""

    times: tuple[float, ...]
    frame_length: float

    def __post_init__(self):
        if self.frame_length <= 0:
            raise ConfigError("frame_length must be positive")
        prev = -1.0
        for t in self.times:
            if not 0.0 <= t < self.frame_length:
                raise ConfigError(
                    f"spike time {t} outside [0, {self.frame_length})")
            if t <= prev:
                raise ConfigError("spike times must be strictly increasing")
            prev = t


def step_neuron(v: float, params: LifParams,
                synaptic_current: float) -> tuple[float, bool]:
    """One forward-Euler step of the membrane equation.

    Returns the new membrane voltage and whether the neuron fired.  A
    firing neuron resets to the resting potential, so the returned
    voltage never exceeds the threshold.
    """
    leak = -(v - params.v_rest) / params.tau_m
    v_new = v + params.dt * (leak + (synaptic_current + params.i_inj) / params.c_m)
    if v >= params.v_th or v_new >= params.v_th:
        return params.v_rest, True
    return v_new, False


def synaptic_current(incoming: list[tuple[int, float]], dt: float) -> float:
    """Total input current from spikes landing in the current step.

    ``incoming`` pairs each source's spike count in ``[t, t+dt)`` with its
    synaptic weight; every spike contributes ``weight / dt`` as a current
    impulse spread over the step.
    """
    return sum(count * weight for count, weight in incoming) / dt


def _round_rate(x: float) -> int:
    # half-up, clamped at zero: port rates must be non-negative integers
    return max(0, int(math.floor(x + 0.5)))


def estimate_rates(g: SnnGraph,
                   params: LifParams | None = None,
                   frames: list[dict[str, SpikeTrain]] | None = None) -> SnnGraph:
    """Simulate representative frames and annotate synapse spike counts.

    Every outgoing synapse of a neuron receives that neuron's mean output
    spike count across frames (rounded to the nearest integer); synapses
    from an input source receive the mean length of its trains.  The
    input sources' own ``spikes`` fields are refreshed to match.

    Raises :class:`ConfigError` if any input lacks a train in some frame.
    """
    g.validate()
    base = params or LifParams()
    if not frames:
        raise ConfigError("at least one frame of input spike trains is required")

    input_ids = set(g.input_ids())
    per_neuron = {n.id: base.with_overrides(n.params_dict()) for n in g.neurons}
    dts = {p.dt for p in per_neuron.values()} or {base.dt}
    if len(dts) != 1:
        raise ConfigError("all neurons must share one integration step dt")
    dt = dts.pop()

    frame_lengths = {tr.frame_length for fr in frames for tr in fr.values()}
    if len(frame_lengths) > 1:
        raise ConfigError("all spike trains must share one frame length")
    frame_length = frame_lengths.pop() if frame_lengths else base.dt
    n_steps = max(1, int(round(frame_length / dt)))

    in_weights: dict[str, list[tuple[str, float]]] = defaultdict(list)
    for s in g.synapses:
        in_weights[s.dst].append((s.src, s.weight))

    neuron_ids = g.neuron_ids()
    fired_totals = {nid: 0 for nid in neuron_ids}
    input_totals = {iid: 0 for iid in input_ids}

    for fi, frame in enumerate(frames):
        missing = input_ids - set(frame)
        if missing:
            raise ConfigError(
                f"frame {fi}: no spike train for input(s) {sorted(missing)}")
        # bin input spikes by integration step
        input_bins: dict[str, dict[int, int]] = {}
        for iid in input_ids:
            train = frame[iid]
            bins: dict[int, int] = defaultdict(int)
            for t in train.times:
                bins[int(t / dt)] += 1
            input_bins[iid] = bins
            input_totals[iid] += len(train.times)

        v = {nid: per_neuron[nid].v_rest for nid in neuron_ids}
        fired_prev = {nid: 0 for nid in neuron_ids}
        for step in range(n_steps):
            fired_now = {}
            for nid in neuron_ids:
                pulses = []
                for src, w in in_weights[nid]:
                    if src in input_ids:
                        count = input_bins[src].get(step, 0)
                    else:
                        count = fired_prev[src]
                    if count:
                        pulses.append((count, w))
                i_s = synaptic_current(pulses, dt) if pulses else 0.0
                v[nid], fired = step_neuron(v[nid], per_neuron[nid], i_s)
                fired_now[nid] = 1 if fired else 0
                if fired:
                    fired_totals[nid] += 1
            fired_prev = fired_now

    n_frames = len(frames)
    mean_rate = {nid: fired_totals[nid] / n_frames for nid in neuron_ids}
    mean_rate.update({iid: input_totals[iid] / n_frames for iid in input_ids})

    new_synapses = tuple(
        replace(s, spikes=float(_round_rate(mean_rate[s.src])))
        for s in g.synapses)
    new_inputs = tuple(
        replace(i, spikes=float(_round_rate(mean_rate[i.id])))
        for i in g.inputs)
    return replace(g, synapses=new_synapses, inputs=new_inputs)


def constant_current_isi(params: LifParams, current: float) -> float:
    """Closed-form inter-spike interval under a constant input current.

    Solves the RC charging equation from rest to threshold; returns
    ``inf`` when the drive cannot reach the threshold.
    """
    drive = current * params.r_m
    gap = params.v_th - params.v_rest
    if drive <= gap:
        return math.inf
    return -params.tau_m * math.log(1.0 - gap / drive)


def load_spike_trains(path: str) -> list[dict[str, SpikeTrain]]:
    """Read a spike-train file: one train per input per frame."""
    doc = _load_yaml(path, TRAINS_FORMAT)
    frame_length = doc.get("frame_length")
    if not isinstance(frame_length, (int, float)) or frame_length <= 0:
        raise GraphFormatError(f"{path}: frame_length must be positive")
    frames = []
    for fi, frame in enumerate(doc.get("frames") or []):
        if not isinstance(frame, dict):
            raise GraphFormatError(f"{path}: frame {fi} must be a mapping")
        frames.append({
            str(iid): SpikeTrain(tuple(float(t) for t in times or ()),
                                 float(frame_length))
            for iid, times in frame.items()})
    return frames


def save_spike_trains(frames: list[dict[str, SpikeTrain]], path: str) -> None:
    frame_length = next(
        (tr.frame_length for fr in frames for tr in fr.values()), 1.0)
    doc = {
        "format": TRAINS_FORMAT,
        "frame_length": frame_length,
        "frames": [{iid: list(tr.times) for iid, tr in sorted(fr.items())}
                   for fr in frames],
    }
    _dump_yaml(doc, path)
