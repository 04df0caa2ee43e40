"""Flow observations -> normalized SOM input tuples.

Destination-site mode yields (protocol, port, flow_number); source-site mode
adds (packets_per_flow, transmission_contiguity).  Every component is clamped
into [0,1].
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .traffic import FlowRecord


class FeatureMode(str, Enum):
    DESTINATION_SITE = "destination"
    SOURCE_SITE = "source"


MODE_DIM = {FeatureMode.DESTINATION_SITE: 3, FeatureMode.SOURCE_SITE: 5}


# the protocol component: one distinct code in [0,1] per protocol, and
# OTHER_PROTOCOL_CODE for any protocol not listed
PROTOCOL_CODES = {"TCP": 0.0, "UDP": 0.5, "ICMP": 1.0}
OTHER_PROTOCOL_CODE = 0.25
PORT_MAX = 65535


@dataclass
class NormalizationSpec:
    flow_count_cap: int = 1000        # per-source flows per window
    packets_per_flow_cap: int = 1000
    activity_quantum: float = 1.0     # seconds of activity credited per packet

    def __post_init__(self):
        if self.flow_count_cap <= 0 or self.packets_per_flow_cap <= 0:
            raise ValueError("normalization caps must be positive")
        if self.activity_quantum <= 0:
            raise ValueError("activity_quantum must be positive")


@dataclass
class WindowStats:
    window_start: float
    window_length: float
    flows_per_source: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.window_length <= 0:
            raise ValueError("window_length must be positive")

    @property
    def window_end(self) -> float:
        return self.window_start + self.window_length


def window_stats(flows: list[FlowRecord], window_start: float,
                 window_length: float) -> WindowStats:
    """Per-source aggregates over one observation window."""
    per_src: dict[int, int] = {}
    for f in flows:
        per_src[f.src_addr] = per_src.get(f.src_addr, 0) + 1
    return WindowStats(window_start, window_length, per_src)


def contiguity(flow: FlowRecord, window: WindowStats,
               quantum: float = 1.0) -> float:
    """Fraction of the window covered by the union of per-packet activity
    intervals, each packet active for `quantum` seconds."""
    ts = flow.packet_timestamps
    if not ts:
        return 0.0
    lo, hi = window.window_start, window.window_end
    # timestamps are sorted: only packets with t + quantum > lo and t < hi
    # can overlap the window
    first = bisect_right(ts, lo, key=lambda t: t + quantum)
    last = bisect_left(ts, hi, first)
    covered = 0.0
    cur_start = cur_end = None
    for t in ts[first:last]:
        e = t + quantum
        a = lo if lo > t else t
        b = hi if hi < e else e
        if b <= a:
            continue
        if cur_end is None:
            cur_start, cur_end = a, b
        elif a <= cur_end:
            if b > cur_end:
                cur_end = b
        else:
            covered += cur_end - cur_start
            cur_start, cur_end = a, b
    if cur_end is not None:
        covered += cur_end - cur_start
    share = covered / window.window_length
    return 1.0 if share > 1.0 else share


def _clamp01(x: float) -> float:
    return 0.0 if x < 0.0 else 1.0 if x > 1.0 else x


def extract_one(flow: FlowRecord, mode: FeatureMode, spec: NormalizationSpec,
                window: WindowStats) -> np.ndarray:
    proto = PROTOCOL_CODES.get(flow.protocol, OTHER_PROTOCOL_CODE)
    port = _clamp01(flow.dst_port / PORT_MAX)
    flow_number = _clamp01(window.flows_per_source.get(flow.src_addr, 0) / spec.flow_count_cap)
    if mode == FeatureMode.DESTINATION_SITE:
        return np.array([proto, port, flow_number])
    ppf = _clamp01(flow.packet_count / spec.packets_per_flow_cap)
    cont = contiguity(flow, window, spec.activity_quantum)
    return np.array([proto, port, flow_number, ppf, cont])


def extract(flows: list[FlowRecord], mode: FeatureMode, spec: NormalizationSpec,
            window: WindowStats) -> np.ndarray:
    """One feature vector per flow, shape (len(flows), dim)."""
    dim = MODE_DIM[mode]
    if not flows:
        return np.empty((0, dim))
    return np.stack([extract_one(f, mode, spec, window) for f in flows])
