"""Synthetic flow generation for benign IoT categories and DDoS adversaries,
plus the flow-record CSV ingestion path."""
from __future__ import annotations

import csv
import operator
from array import array
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError

TCP = "TCP"
UDP = "UDP"
ICMP = "ICMP"
OTHER = "OTHER"
PROTOCOLS = (TCP, UDP, ICMP, OTHER)

LABEL_BENIGN = "benign"
LABEL_MALICIOUS = "malicious"

SENSOR = "sensor"
MONITOR = "monitor"
ALARM = "alarm"

VOLUMETRIC = "volumetric"
APP_LAYER = "app_layer"

# every address is IPv4: an integer in 0..ADDR_MAX
ADDR_MAX = 0xFFFFFFFF

# response-bytes : request-bytes ranges of the abused reflector services
AMPLIFICATION = {
    "dns": (28.0, 54.0),
    "ntp": (556.9, 556.9),
    "ssdp": (30.8, 30.8),
}
SERVICE_PORT = {"dns": 53, "ntp": 123, "ssdp": 1900}
# every volumetric request is this many bytes, sent to this reflector
REQUEST_BYTES = 100.0
AMPLIFIER_ADDR = 0x08080808

APP_LAYER_MODES = ("session_flood", "request_flood", "asymmetric")

# `FlowRecord.validate` checks the order of at most this many timestamps in a
# Python loop, and of more in one numpy comparison: on a 2-core AMD EPYC the
# loop takes 0.2 us for 2 timestamps and 1.0-1.5 us for 32-64, numpy 1.3 us
# for any count
SORT_CHECK_LOOP_MAX = 48

# The most flows one cell (run and pretraining) or one `gen` call may
# generate, and one flow CSV may hold; the largest benchmark cell counts about
# 43,000.  Beyond it a run takes hours or exhausts memory, and once 1/rate is
# below the spacing of floats near t, a generator's `t += 1/rate` never ends.
MAX_FLOWS = 10_000_000

# the most packets one flow CSV may claim in all: `load_flow_csv` builds 8 B
# of timestamps per packet, 400 MB at the cap
CSV_PACKETS_MAX = 50_000_000

CSV_HEADER = ["flow_id", "src_addr", "dst_addr", "protocol", "dst_port",
              "packet_count", "byte_count", "start_time", "end_time", "label"]


@dataclass
class FlowRecord:
    flow_id: str
    src_addr: int
    dst_addr: int
    protocol: str
    dst_port: int
    packet_count: int
    byte_count: float
    start_time: float
    end_time: float
    # packed float64 buffer, 8 B per packet: monitor flows hold ~500 each
    packet_timestamps: array = field(default_factory=lambda: array("d"))
    truth_label: str = LABEL_BENIGN  # ground truth; evaluation only, never shown to classifiers

    def validate(self) -> None:
        if self.protocol not in PROTOCOLS:
            raise ValueError(f"flow {self.flow_id}: unknown protocol {self.protocol!r}")
        if not (0 <= self.dst_port <= 65535):
            raise ValueError(f"flow {self.flow_id}: port {self.dst_port} out of range")
        if self.packet_count < 0 or self.byte_count < 0:
            raise ValueError(f"flow {self.flow_id}: negative packet/byte count")
        if self.start_time > self.end_time:
            raise ValueError(f"flow {self.flow_id}: start_time after end_time")
        if self.packet_count != len(self.packet_timestamps):
            raise ValueError(f"flow {self.flow_id}: packet_count != timestamp count")
        if self.truth_label not in (LABEL_BENIGN, LABEL_MALICIOUS):
            raise ValueError(f"flow {self.flow_id}: bad label {self.truth_label!r}")
        ts = self.packet_timestamps
        if len(ts) > SORT_CHECK_LOOP_MAX:
            a = np.asarray(ts, dtype=np.float64)
            unsorted = bool((a[1:] < a[:-1]).any())
        else:
            unsorted = any(map(operator.lt, ts[1:], ts))
        if unsorted:       # a NaN compares false either way, so it passes
            raise ValueError(f"flow {self.flow_id}: timestamps not sorted")
        if ts and (ts[0] < self.start_time - 1e-9 or ts[-1] > self.end_time + 1e-9):
            raise ValueError(f"flow {self.flow_id}: timestamps outside [start,end]")


@dataclass
class BenignProfile:
    """Qualitative IoT traffic categories, parameterized.

    sensor:  fixed-period flows, few packets each.
    monitor: few long-lived flows, many packets each (camera-like).
    alarm:   Poisson event arrivals, moderate flows and packets; an event can
             fire a burst of flows from one device.
    """
    category: str
    device_count: int = 1
    protocol: str = UDP
    dst_port: int = 5683
    period: float = 10.0              # sensor: seconds between flows per device
    flows_per_minute: float = 1.0     # monitor
    event_rate: float = 0.05          # alarm: Poisson events/s
    burst_flows: int = 1              # alarm: flows emitted per event
    packets_per_flow: float = 5.0
    bytes_per_packet: float = 100.0
    flow_duration: float = 1.0

    def __post_init__(self):
        if self.category not in (SENSOR, MONITOR, ALARM):
            raise ValueError(f"unknown benign category {self.category!r}")
        for name in ("device_count", "period", "flows_per_minute", "event_rate",
                     "burst_flows", "packets_per_flow", "bytes_per_packet", "flow_duration"):
            if getattr(self, name) <= 0:
                raise ValueError(f"benign profile {self.category}: {name} must be positive")

    def flow_rate(self) -> float:
        """Mean flows per second over all devices."""
        if self.category == SENSOR:
            return self.device_count / self.period
        if self.category == MONITOR:
            return self.device_count * self.flows_per_minute / 60.0
        return self.event_rate * self.burst_flows


def default_benign_profile(category: str) -> BenignProfile:
    if category == SENSOR:
        return BenignProfile(SENSOR, protocol=UDP, dst_port=5683,
                             period=10.0, packets_per_flow=5.0, flow_duration=1.0)
    if category == MONITOR:
        return BenignProfile(MONITOR, protocol=TCP, dst_port=554,
                             flows_per_minute=1.0, packets_per_flow=500.0,
                             flow_duration=30.0)
    if category == ALARM:
        return BenignProfile(ALARM, protocol=TCP, dst_port=4059,
                             event_rate=0.05, packets_per_flow=50.0,
                             flow_duration=2.0)
    raise ValueError(f"unknown benign category {category!r}")


@dataclass
class AttackProfile:
    scenario: str                     # volumetric | app_layer
    sub_mode: str                     # dns/ntp/ssdp or session_flood/request_flood/asymmetric
    target_addr: int
    bot_count: int = 10
    spoofing: bool = True
    # volumetric knobs
    requests_per_bot_per_s: float = 10.0
    # application-layer knobs
    protocol: str = TCP
    dst_port: int = 80
    base_session_rate: float = 1.0    # flows/s per bot at multiplier 1.0
    multiplier: float = 10.0
    base_packets_per_flow: int = 2
    bytes_per_packet: float = 60.0
    session_duration: float = 0.5
    burst_size: int = 1               # sessions opened per arrival event
    burst_interval: float = 0.1

    def __post_init__(self):
        if self.bot_count < 1:
            raise ValueError("bot_count must be >= 1")
        if self.scenario == VOLUMETRIC:
            if self.sub_mode not in AMPLIFICATION:
                raise ValueError(f"unknown volumetric sub_mode {self.sub_mode!r}")
        elif self.scenario == APP_LAYER:
            if self.sub_mode not in APP_LAYER_MODES:
                raise ValueError(f"unknown app-layer sub_mode {self.sub_mode!r}")
        else:
            raise ValueError(f"unknown attack scenario {self.scenario!r}")

    def session_rate(self) -> float:
        """Application-layer sessions per second per bot."""
        return self.base_session_rate * (self.multiplier if self.sub_mode == "session_flood" else 1.0)

    def flow_rate(self) -> float:
        """Mean flows per second over all bots; a volumetric request and its
        response are two."""
        if self.scenario == VOLUMETRIC:
            return 2.0 * self.bot_count * self.requests_per_bot_per_s
        return self.bot_count * self.session_rate()


def _to_build(starts: list[float],
              windows: tuple[float, int] | None) -> range | list[int]:
    """The generation indices, in order, of the drawn flows that a generator
    builds, flow k starting at starts[k]: every flow, or with
    windows=(L, count) those in the leading windows that hold the first
    `count` flows in window order.  Flow k lies in window int(starts[k] // L),
    as `harness.flows_to_samples` groups flows, so these are the windows that
    `flows_to_samples(..., count=count)` reads, each whole and in order."""
    if windows is None:
        return range(len(starts))
    length, count = windows
    index = [int(s // length) for s in starts]
    sizes = Counter(index)
    held, last = 0, -float("inf")
    for w in sorted(sizes):
        if held >= count:
            break
        held, last = held + sizes[w], w
    return [k for k, w in enumerate(index) if w <= last]


def gen_benign(profile: BenignProfile, duration: float, seed: int,
               src_base: int = 0x0A000000, dst_addr: int = 0xC0A80001,
               t0: float = 0.0, *,
               windows: tuple[float, int] | None = None) -> list[FlowRecord]:
    """Benign flows for one category over [t0, t0+duration); deterministic per
    seed.  Every flow is drawn; `windows` selects the ones built (see
    `_to_build`)."""
    if duration <= 0:
        raise ValueError("duration must be positive")
    rng = np.random.default_rng([seed, 0x0BE19])
    draws = []          # (source, start, unsorted packet offsets) per flow

    def draw(src, start, pkts):
        dur = max(min(profile.flow_duration, t0 + duration - start), 1e-6)
        draws.append((src, start, rng.uniform(0.0, dur, size=max(1, int(pkts)))))

    if profile.category == SENSOR:
        for d in range(profile.device_count):
            n = int(np.floor(duration / profile.period + 1e-9))
            for k in range(n):
                start = t0 + k * profile.period
                draw(src_base + d, start, rng.poisson(profile.packets_per_flow - 1) + 1)
    elif profile.category == MONITOR:
        gap = 60.0 / profile.flows_per_minute
        for d in range(profile.device_count):
            n = int(np.floor(duration / gap + 1e-9)) or 1
            for k in range(n):
                start = t0 + k * gap
                if start >= t0 + duration:
                    break
                draw(src_base + d, start, rng.normal(profile.packets_per_flow,
                                                     profile.packets_per_flow / 10.0))
    else:  # ALARM
        t = t0 + float(rng.exponential(1.0 / profile.event_rate))
        while t < t0 + duration:
            src = src_base + int(rng.integers(profile.device_count))
            for b in range(profile.burst_flows):
                start = t + b * 0.1
                if start >= t0 + duration:
                    break
                draw(src, start, rng.poisson(profile.packets_per_flow - 1) + 1)
            t += float(rng.exponential(1.0 / profile.event_rate))

    # drop the draws of the flows not built first, then each draw as its flow
    # is built, so that the built flows reuse the draws' memory: holes left
    # among them fragmented the heap and raised seed-sweep's peak RSS ~1 MiB
    todo = [(k, draws[k]) for k in _to_build([start for _, start, _ in draws], windows)]
    draws.clear()
    flows: list[FlowRecord] = []
    for i, (k, (src, start, offsets)) in enumerate(todo):
        todo[i] = None
        offsets.sort()
        offsets += start
        ts = array("d", offsets.tobytes())
        pkts = len(ts)
        flows.append(FlowRecord(
            flow_id=f"{profile.category}-{k}",
            src_addr=src, dst_addr=dst_addr, protocol=profile.protocol,
            dst_port=profile.dst_port, packet_count=pkts,
            byte_count=pkts * profile.bytes_per_packet,
            start_time=start, end_time=ts[-1],
            packet_timestamps=ts, truth_label=LABEL_BENIGN))
    for f in flows:
        f.validate()
    return flows


def gen_attack(profile: AttackProfile, duration: float, seed: int,
               src_base: int = 0xC6000000, t0: float = 0.0, *,
               windows: tuple[float, int] | None = None) -> list[FlowRecord]:
    """Malicious flows for one adversary over [t0, t0+duration); deterministic
    per seed.  Every flow is drawn; `windows` selects the ones built (see
    `_to_build`)."""
    if duration <= 0:
        raise ValueError("duration must be positive")
    rng = np.random.default_rng([seed, 0xA77AC])
    if profile.scenario == VOLUMETRIC:
        flows = _gen_volumetric(profile, duration, rng, src_base, t0, windows)
    else:
        flows = _gen_app_layer(profile, duration, rng, src_base, t0, windows)
    for f in flows:
        f.validate()
    return flows


def _gen_volumetric(p: AttackProfile, duration: float, rng, src_base: int,
                    t0: float, windows) -> list[FlowRecord]:
    lo, hi = AMPLIFICATION[p.sub_mode]
    port = SERVICE_PORT[p.sub_mode]
    # every bot's requests with their amplification draws, then in time order
    pairs = []
    for b in range(p.bot_count):
        bot = src_base + b
        phase = float(rng.uniform(0.0, 1.0 / p.requests_per_bot_per_s))
        t = t0 + phase
        while t < t0 + duration:
            factor = lo if lo == hi else float(rng.uniform(lo, hi))
            pairs.append((t, bot, factor))
            t += 1.0 / p.requests_per_bot_per_s
    pairs.sort()
    # request k is flow 2k, its response flow 2k + 1
    flows: list[FlowRecord] = []
    for n in _to_build([s for t, _, _ in pairs for s in (t, t + 0.001)], windows):
        k, response = divmod(n, 2)
        t, bot, factor = pairs[k]
        if not response:
            flows.append(FlowRecord(
                flow_id=f"req-{k}", src_addr=bot, dst_addr=AMPLIFIER_ADDR,
                protocol=UDP, dst_port=port, packet_count=1, byte_count=REQUEST_BYTES,
                start_time=t, end_time=t, packet_timestamps=array("d", (t,)),
                truth_label=LABEL_MALICIOUS))
            continue
        pairs[k] = None
        rsp_dst = p.target_addr if p.spoofing else bot
        rsp_pkts = max(1, int(factor))
        rsp_start = t + 0.001
        ts = array("d", [rsp_start + 0.0001 * i for i in range(rsp_pkts)])
        flows.append(FlowRecord(
            flow_id=f"rsp-{k}", src_addr=AMPLIFIER_ADDR, dst_addr=rsp_dst,
            protocol=UDP, dst_port=port, packet_count=rsp_pkts,
            byte_count=REQUEST_BYTES * factor,
            start_time=rsp_start, end_time=ts[-1], packet_timestamps=ts,
            truth_label=LABEL_MALICIOUS))
    return flows


def _gen_app_layer(p: AttackProfile, duration: float, rng, src_base: int,
                   t0: float, windows) -> list[FlowRecord]:
    rate = p.session_rate()
    pkts = max(1, int(round(p.base_packets_per_flow *
                            (p.multiplier if p.sub_mode == "request_flood" else 1.0))))
    byte_w = p.bytes_per_packet * (p.multiplier if p.sub_mode == "asymmetric" else 1.0)
    bots, starts = [], []               # per session
    offsets = [np.empty((0, pkts))]     # unsorted packet offsets, a row per session

    def draw(bot, run):
        # one draw for a run of sessions with no other draw between them:
        # the same stream as one draw of pkts per session
        offsets.append(rng.uniform(0.0, p.session_duration, size=(len(run), pkts)))
        bots.extend([bot] * len(run))
        starts.extend(run)

    for b in range(p.bot_count):
        bot = src_base + b
        if p.burst_size > 1:
            # bursty arrivals: Poisson burst events, a clump of sessions each
            burst_rate = rate / p.burst_size
            t = t0 + float(rng.exponential(1.0 / burst_rate))
            while t < t0 + duration:
                run = [t + k * p.burst_interval for k in range(p.burst_size)]
                draw(bot, [s for s in run if s < t0 + duration])
                t += float(rng.exponential(1.0 / burst_rate))
        else:
            phase = float(rng.uniform(0.0, 1.0 / rate))
            t = t0 + phase
            run = []
            while t < t0 + duration:
                run.append(t)
                t += 1.0 / rate
            draw(bot, run)

    built = _to_build(starts, windows)
    ts = np.concatenate(offsets)[built]
    offsets.clear()
    ts.sort(axis=1)
    ts += np.array(starts)[built][:, None]
    flat = array("d", ts.tobytes())
    flows: list[FlowRecord] = []
    for j, k in enumerate(built):
        row = flat[j * pkts:(j + 1) * pkts]
        flows.append(FlowRecord(
            flow_id=f"atk-{bots[k]:x}-{k}", src_addr=bots[k],
            dst_addr=p.target_addr, protocol=p.protocol, dst_port=p.dst_port,
            packet_count=pkts, byte_count=pkts * byte_w, start_time=starts[k],
            end_time=row[-1], packet_timestamps=row, truth_label=LABEL_MALICIOUS))
    return flows


# -- CSV ingestion ---------------------------------------------------------

def load_flow_csv(path) -> list[FlowRecord]:
    """Parse the documented flow-record schema; packet timestamps are
    synthesized uniformly over [start_time, end_time].  Rows are read as they
    stream, so the file's rows are never held beside its flows."""
    try:
        with open(path, newline="") as f:
            return _parse_flow_rows(path, csv.reader(f))
    except (OSError, UnicodeDecodeError, csv.Error) as e:
        raise DataError(f"{path}: cannot read flow CSV: {e}") from e


def _parse_flow_rows(path, rows) -> list[FlowRecord]:
    header = next(rows, None)
    if header is None:
        raise DataError(f"{path}: empty file, expected header {','.join(CSV_HEADER)}")
    if [h.strip() for h in header] != CSV_HEADER:
        missing = set(CSV_HEADER) - {h.strip() for h in header}
        if missing:
            raise DataError(f"{path}: missing column(s) {sorted(missing)}")
        raise DataError(f"{path}: header {header} does not match schema {CSV_HEADER}")
    flows = []
    packets = 0
    for lineno, row in enumerate(rows, start=2):
        if not row:
            continue
        if len(flows) >= MAX_FLOWS:
            raise DataError(f"{path}:{lineno}: the file holds more than "
                            f"MAX_FLOWS = {MAX_FLOWS} flows")
        if len(row) != len(CSV_HEADER):
            raise DataError(f"{path}:{lineno}: expected {len(CSV_HEADER)} fields, got {len(row)}")
        try:
            pkts = int(row[5])
            packets += pkts
            if packets > CSV_PACKETS_MAX:
                raise DataError(f"{path}:{lineno}: the file claims more than "
                                f"CSV_PACKETS_MAX = {CSV_PACKETS_MAX} packets")
            start, end = float(row[7]), float(row[8])
            ts = array("d", np.linspace(start, end, pkts).tobytes())
            rec = FlowRecord(
                flow_id=row[0], src_addr=int(row[1]), dst_addr=int(row[2]),
                protocol=row[3].strip().upper(), dst_port=int(row[4]),
                packet_count=pkts, byte_count=float(row[6]),
                start_time=start, end_time=end, packet_timestamps=ts,
                truth_label=row[9].strip().lower())
            rec.validate()
        except (ValueError, OverflowError) as e:
            raise DataError(f"{path}:{lineno}: {e}") from e
        flows.append(rec)
    return flows


def write_flow_csv(path, flows: list[FlowRecord]) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(CSV_HEADER)
        for r in flows:
            w.writerow([r.flow_id, r.src_addr, r.dst_addr, r.protocol, r.dst_port,
                        r.packet_count, repr(r.byte_count), repr(r.start_time),
                        repr(r.end_time), r.truth_label])
