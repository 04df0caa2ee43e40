"""Flow observations -> normalized SOM input tuples.

Destination-site mode yields (protocol, port, flow_number); source-site mode
adds (packets_per_flow, transmission_contiguity).  Every component is clamped
into [0,1].

`extract` featurizes many flows, of one window or of many, in one vectorized
pass.  `extract_one` and `contiguity` featurize one flow with scalar code:
they are the per-flow reference that `extract` reproduces bit for bit.
"""
from __future__ import annotations

import math
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from enum import Enum
from itertools import accumulate

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
        if not 0 < self.activity_quantum < math.inf:
            raise ValueError("activity_quantum must be positive and finite")


@dataclass
class WindowStats:
    window_start: float
    window_length: float
    flows_per_source: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.window_length > 0:
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


# `extract` featurizes at most CHUNK_FLOWS flows at a time, and joins the
# packets of about CHUNK_PACKETS at a time, which bounds its temporaries:
# 2048 flows at a time raised long-flood's peak RSS by about 0.4 MiB
CHUNK_FLOWS = 512
CHUNK_PACKETS = 1 << 14


def extract(flows: list[FlowRecord], mode: FeatureMode, spec: NormalizationSpec,
            window: WindowStats | list[WindowStats]) -> np.ndarray:
    """One feature vector per flow, shape (len(flows), dim), row i for
    flows[i] read in its window: `window` is one WindowStats for every flow,
    or one per flow, flows[i] in window[i].  Row i is
    `extract_one(flows[i], mode, spec, window[i])` bit for bit, for packet
    timestamps that are sorted and not NaN."""
    dim = MODE_DIM[mode]
    single = isinstance(window, WindowStats)
    if not single and len(window) != len(flows):
        raise ValueError(f"{len(flows)} flows but {len(window)} windows")
    out = np.empty((len(flows), dim))
    for i in range(0, len(flows), CHUNK_FLOWS):
        chunk = flows[i:i + CHUNK_FLOWS]
        _fill(out[i:i + len(chunk)], chunk,
              [window] * len(chunk) if single else window[i:i + len(chunk)], mode, spec)
    return out


def _fill(out: np.ndarray, flows: list[FlowRecord], windows: list[WindowStats],
          mode: FeatureMode, spec: NormalizationSpec) -> None:
    """The rows of `extract` for the flows, each in its window, into out."""
    out[:, 0] = [PROTOCOL_CODES.get(f.protocol, OTHER_PROTOCOL_CODE) for f in flows]
    # the ratios are divided as Python divides them, exactly so for integers
    # beyond 2**53
    out[:, 1] = [f.dst_port / PORT_MAX for f in flows]
    cap = spec.flow_count_cap
    out[:, 2] = [w.flows_per_source.get(f.src_addr, 0) / cap
                 for f, w in zip(flows, windows)]
    if mode != FeatureMode.DESTINATION_SITE:
        cap = spec.packets_per_flow_cap
        out[:, 3] = [f.packet_count / cap for f in flows]
        out[:, 4] = _contiguities(flows, windows, spec.activity_quantum)
    ratios = out[:, 1:4]            # `_clamp01`, which keeps NaN and -0.0
    np.copyto(ratios, 0.0, where=ratios < 0.0)
    np.copyto(ratios, 1.0, where=ratios > 1.0)


def _contiguities(flows: list[FlowRecord], windows: list[WindowStats],
                  quantum: float) -> np.ndarray:
    """`contiguity(flows[i], windows[i], quantum)` for each i, bit for bit.

    Each flow's packets before its window ends are joined, about
    CHUNK_PACKETS at a time, into one array, where every packet is clamped
    into its window as `contiguity` clamps it.  Since a flow's clamped ends
    never decrease, a run of overlapping packets ends where the next packet
    starts after the previous one's end, and each flow's run lengths are
    summed in order."""
    lo = np.array([w.window_start for w in windows], dtype=np.float64)
    length = np.array([w.window_length for w in windows], dtype=np.float64)
    hi = lo + length
    stamps = [f.packet_timestamps for f in flows]
    if any(type(ts) is not array or ts.typecode != "d" for ts in stamps):
        stamps = [array("d", ts) for ts in stamps]
    # the packets before each window's end: all of them when the last is
    stamps = [ts if not ts or ts[-1] < end else ts[:bisect_left(ts, end)]
              for ts, end in zip(stamps, hi.tolist())]
    bounds = [0, *accumulate(map(len, stamps))]
    covered = np.zeros(len(flows))
    i = 0
    while i < len(flows):
        j = max(i + 1, bisect_right(bounds, bounds[i] + CHUNK_PACKETS) - 1)
        _add_runs(covered[i:j], np.frombuffer(b"".join(stamps[i:j])),
                  np.diff(bounds[i:j + 1]), lo[i:j], hi[i:j], quantum)
        i = j
    share = covered / length
    return np.where(share > 1.0, 1.0, share)


def _add_runs(covered: np.ndarray, t: np.ndarray, counts: np.ndarray,
              lo: np.ndarray, hi: np.ndarray, quantum: float) -> None:
    """Add to covered[j] the length of each run of flow j's packets, the
    counts[j] timestamps of flow j lying in t after those of flow j - 1."""
    owner = np.repeat(np.arange(len(counts)), counts)
    lo, hi = lo[owner], hi[owner]
    e = t + quantum
    a = np.where(lo > t, lo, t)
    b = np.where(hi < e, hi, e)
    # b > a implies e > lo and t < hi
    keep = b > a
    a, b, owner = a[keep], b[keep], owner[keep]
    if not len(a):
        return
    start = np.empty(len(a), dtype=bool)
    start[0] = True
    np.logical_or(owner[1:] != owner[:-1], a[1:] > b[:-1], out=start[1:])
    starts = np.flatnonzero(start)
    ends = np.append(starts[1:], len(a)) - 1
    # adds in index order: ((0.0 + run 0) + run 1) + ..., as `contiguity` does
    np.add.at(covered, owner[starts], b[ends] - a[starts])
