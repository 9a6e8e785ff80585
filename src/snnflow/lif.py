"""Discrete-time leaky integrate-and-fire simulation for spike-rate estimation.

The simulator exists to put token counts on synapses: it integrates each
neuron's membrane with forward Euler, counts output spikes per frame, and
writes the rounded per-frame averages back onto the graph.  Inter-spike
timing is deliberately discarded downstream, so the integrator favours
simplicity over waveform fidelity.

:func:`estimate_rates` advances all neurons together, one array step per
time step (clock-driven simulation, as surveyed by Brette et al., J.
Comput. Neurosci. 2007).  Neurons take slots ``0..N-1`` of a spike-count
vector, inputs the next ``I`` slots, and one last slot is always zero.
Neuron ``j``'s in-synapses form column ``j`` of a ``(K, N)`` source-slot
array and a ``(K, N)`` weight array, in ``g.synapses`` order, padded with
the zero slot and weight ``0.0``.  Each step gathers the counts into a
``(K, N)`` array, multiplies by the weights and adds the rows one at a
time, then applies the forward-Euler membrane update elementwise.

The result equals, bit for bit, the scalar reference in
``tests/oracles.py``, which steps one neuron at a time and sums each
neuron's synaptic current left to right over its firing sources.  The
rows are added from a ``+0.0`` start in synapse order, which is that
left-to-right order; a silent source adds a zero, which changes no sum.
The membrane update performs the same float operations in the same
order, and numpy's float64 arithmetic rounds as Python's does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

import numpy as np

from .errors import ConfigError, GraphFormatError
from .snn_graph import (SnnGraph, _dump_yaml, _entries, _field, _float,
                        _list_of, _load_yaml)

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
        for f in fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise ConfigError(f"{f.name} must be finite, got "
                                  f"{getattr(self, f.name)!r}")
        if self.c_m <= 0 or self.r_m <= 0:
            raise ConfigError("c_m and r_m must be positive")
        if self.v_th <= self.v_rest:
            raise ConfigError("v_th must exceed v_rest")
        if self.dt <= 0:
            raise ConfigError("dt must be positive")

    @property
    def tau_m(self) -> float:
        return self.c_m * self.r_m

    def with_overrides(self, overrides: dict[str, float],
                       owner: str = "overrides") -> "LifParams":
        """A copy with ``overrides`` applied.  A key that names no
        parameter, or a value the parameters refuse, raises
        :class:`ConfigError` naming ``owner``."""
        if not overrides:
            return self
        known = [f.name for f in fields(self)]
        unknown = sorted(set(overrides) - set(known))
        if unknown:
            raise ConfigError(f"{owner}: unknown LIF parameter {unknown[0]!r} "
                              f"(known: {', '.join(known)})")
        try:
            return replace(self, **overrides)
        except ConfigError as exc:
            raise ConfigError(f"{owner}: {exc}") from None


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

    An input spike at time ``t`` lands in step ``int(t / dt)``.  When
    ``frame_length / dt`` rounds down, the last spikes of a train can land
    at or after step ``n_steps``: they count towards the input's own rate
    but never reach a neuron.

    The frame length is the trains' common one; a network without
    inputs has none, and :class:`ConfigError` refuses it.

    Raises :class:`ConfigError` if any input lacks a train in some frame
    or a frame holds a train for an id that is not an input; every frame
    is checked before any is simulated.  A neuron whose ``params`` name
    a key that :class:`LifParams` lacks raises it too, naming the neuron
    and the key.
    """
    g.validate()
    base = params or LifParams()
    if not frames:
        raise ConfigError("at least one frame of input spike trains is required")

    per_neuron = [base.with_overrides(n.params_dict(), f"neuron {n.id!r}")
                  for n in g.neurons]
    dts = {p.dt for p in per_neuron} or {base.dt}
    if len(dts) != 1:
        raise ConfigError("all neurons must share one integration step dt")
    dt = dts.pop()

    neuron_ids = g.neuron_ids()
    input_ids = g.input_ids()
    for fi, frame in enumerate(frames):
        missing = set(input_ids) - set(frame)
        if missing:
            raise ConfigError(
                f"frame {fi}: no spike train for input(s) {sorted(missing)}")
        stray = set(frame) - set(input_ids)
        if stray:
            raise ConfigError(
                f"frame {fi}: spike trains for {sorted(stray)}, which are "
                f"not inputs")

    frame_lengths = {tr.frame_length for fr in frames for tr in fr.values()}
    if not frame_lengths:
        raise ConfigError("no input spike train gives the frame length")
    if len(frame_lengths) > 1:
        raise ConfigError("all spike trains must share one frame length")
    frame_length = frame_lengths.pop()
    n_steps = max(1, int(round(frame_length / dt)))

    n, n_in = len(neuron_ids), len(input_ids)
    slot = {nid: i for i, nid in enumerate(neuron_ids + input_ids)}
    v_rest = np.array([p.v_rest for p in per_neuron])
    v_th = np.array([p.v_th for p in per_neuron])
    tau_m = np.array([p.tau_m for p in per_neuron])
    c_m = np.array([p.c_m for p in per_neuron])
    i_inj = np.array([p.i_inj for p in per_neuron])

    # column j lists neuron j's in-synapses in g.synapses order; short
    # columns are padded with the always-zero slot n + n_in and weight 0.0
    incoming: list[list[tuple[int, float]]] = [[] for _ in range(n)]
    for s in g.synapses:
        incoming[slot[s.dst]].append((slot[s.src], s.weight))
    fan_in = max(map(len, incoming), default=0)
    src = np.full((fan_in, n), n + n_in, dtype=np.intp)
    weight = np.zeros((fan_in, n))
    for j, column in enumerate(incoming):
        for k, (i, w) in enumerate(column):
            src[k, j] = i
            weight[k, j] = w

    # 0 * inf is nan, so non-finite weights multiply only where a source
    # fired; with finite weights a silent source's term is a zero, which
    # leaves the running sum unchanged
    silent_is_zero = bool(np.isfinite(weight).all())

    # neurons' spikes of the previous step, inputs' of this one, then 0
    counts = np.zeros(n + n_in + 1)
    fired_totals = np.zeros(n, dtype=np.int64)
    input_totals = [0] * n_in
    for frame in frames:
        drive = np.zeros((n_steps, n_in))
        for j, iid in enumerate(input_ids):
            times = frame[iid].times
            input_totals[j] += len(times)
            for t in times:
                b = int(t / dt)
                if b < n_steps:
                    drive[b, j] += 1

        v = v_rest
        counts[:n] = 0.0
        # inf and nan propagate silently, as in Python float arithmetic
        with np.errstate(over="ignore", invalid="ignore"):
            for step in range(n_steps):
                counts[n:n + n_in] = drive[step]
                terms = counts[src]
                if silent_is_zero:
                    np.multiply(terms, weight, out=terms)
                else:
                    np.multiply(terms, weight, out=terms, where=terms != 0)
                i_s = np.add.reduce(terms, axis=0, initial=0.0) / dt
                leak = -(v - v_rest) / tau_m
                v_new = v + dt * (leak + (i_s + i_inj) / c_m)
                fired = (v >= v_th) | (v_new >= v_th)
                v = np.where(fired, v_rest, v_new)
                counts[:n] = fired
                fired_totals += fired

    n_frames = len(frames)
    mean_rate = {nid: total / n_frames
                 for nid, total in zip(neuron_ids, fired_totals.tolist())}
    mean_rate.update({iid: total / n_frames
                      for iid, total in zip(input_ids, input_totals)})

    new_synapses = tuple(
        replace(s, spikes=float(_round_rate(mean_rate[s.src])))
        for s in g.synapses)
    new_inputs = tuple(
        replace(i, spikes=float(_round_rate(mean_rate[i.id])))
        for i in g.inputs)
    return replace(g, synapses=new_synapses, inputs=new_inputs)


def load_spike_trains(path: str) -> list[dict[str, SpikeTrain]]:
    """Read a spike-train file: one train per input per frame."""
    doc = _load_yaml(path, TRAINS_FORMAT)
    frame_length = _field(doc, "frame_length", path, _float)
    if not frame_length > 0:
        raise GraphFormatError(f"{path}: frame_length must be positive")
    times = _list_of(_float)
    return [{str(iid): SpikeTrain(_field(frame, iid, where, times),
                                  frame_length)
             for iid in frame}
            for where, frame in _entries(doc, "frames", path)]


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
