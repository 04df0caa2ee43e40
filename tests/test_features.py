"""Feature extraction tests: protocol encoding, normalization, contiguity."""
from array import array
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mecshield import features
from mecshield.features import (FeatureMode, MODE_DIM, NormalizationSpec,
                                WindowStats, contiguity, extract, extract_one,
                                window_stats)
from mecshield.traffic import FlowRecord


def flow(flow_id="f", src=1, dst=2, protocol="TCP", port=80, pkts=1,
         byte_count=100.0, start=0.0, end=None, ts=None):
    if ts is None:
        ts = [start + 0.1 * i for i in range(pkts)]
    if end is None:
        end = ts[-1] if ts else start
    return FlowRecord(flow_id, src, dst, protocol, port, pkts, byte_count,
                      start, end, packet_timestamps=array("d", ts))


def test_mode_dims():
    assert MODE_DIM[FeatureMode.DESTINATION_SITE] == 3
    assert MODE_DIM[FeatureMode.SOURCE_SITE] == 5


def test_protocol_encoding():
    ws = WindowStats(0.0, 5.0)
    codes = {p: extract_one(flow(protocol=p), FeatureMode.DESTINATION_SITE,
                            NormalizationSpec(), ws)[0]
             for p in ("TCP", "UDP", "ICMP", "OTHER")}
    assert codes == {"TCP": 0.0, "UDP": 0.5, "ICMP": 1.0, "OTHER": 0.25}


def test_spec_validation():
    for kw in ({"flow_count_cap": 0}, {"packets_per_flow_cap": 0},
               {"activity_quantum": 0.0}, {"activity_quantum": float("nan")},
               {"activity_quantum": float("inf")}):
        with pytest.raises(ValueError):
            NormalizationSpec(**kw)


def test_window_stats_counts_per_source():
    flows = [flow("a", src=1), flow("b", src=1), flow("c", src=2)]
    ws = window_stats(flows, 0.0, 5.0)
    assert ws.flows_per_source == {1: 2, 2: 1}
    assert ws.window_end == 5.0
    for length in (0.0, float("nan")):
        with pytest.raises(ValueError):
            WindowStats(0.0, length)


def test_contiguity_empty_flow():
    ws = WindowStats(0.0, 10.0)
    f = flow(pkts=0, ts=[], start=0.0, end=0.0)
    assert contiguity(f, ws) == 0.0


def test_contiguity_full_coverage():
    ws = WindowStats(0.0, 10.0)
    f = flow(pkts=10, ts=[float(i) for i in range(10)], start=0.0, end=9.0)
    assert contiguity(f, ws, quantum=1.0) == pytest.approx(1.0)


def test_contiguity_disjoint_intervals():
    # 5 packets, 1s quantum, non-overlapping in a 10s window -> 0.5
    ws = WindowStats(0.0, 10.0)
    f = flow(pkts=5, ts=[0.0, 2.0, 4.0, 6.0, 8.0], start=0.0, end=8.0)
    assert contiguity(f, ws, quantum=1.0) == pytest.approx(0.5)


def test_contiguity_overlap_union():
    # two packets 0.4s apart, 1s quantum: union covers 1.4s of a 10s window
    ws = WindowStats(0.0, 10.0)
    f = flow(pkts=2, ts=[1.0, 1.4], start=1.0, end=1.4)
    assert contiguity(f, ws, quantum=1.0) == pytest.approx(0.14)


def test_contiguity_clips_to_window():
    ws = WindowStats(5.0, 5.0)
    f = flow(pkts=1, ts=[9.8], start=9.8, end=9.8)
    # only 0.2s of the quantum falls inside the window
    assert contiguity(f, ws, quantum=1.0) == pytest.approx(0.04)


def test_contiguity_oracle_interval_union():
    # brute-force grid oracle: sample the window densely and count covered points
    rng = np.random.default_rng(42)
    for _ in range(50):
        n = int(rng.integers(1, 12))
        ts = sorted(float(t) for t in rng.uniform(0.0, 5.0, size=n))
        f = flow(pkts=n, ts=ts, start=ts[0], end=ts[-1])
        ws = WindowStats(0.0, 5.0)
        got = contiguity(f, ws, quantum=0.5)
        grid = np.linspace(0.0, 5.0, 100001)
        covered = np.zeros_like(grid, dtype=bool)
        for t in ts:
            covered |= (grid >= t) & (grid < t + 0.5)
        assert got == pytest.approx(covered.mean(), abs=2e-3)


def _contiguity_per_packet(ts, window, quantum):
    """Reference: the per-packet loop that clips every packet with max/min."""
    if not ts:
        return 0.0
    lo, hi = window.window_start, window.window_end
    covered = 0.0
    cur_start = cur_end = None
    for t in ts:
        a, b = max(t, lo), min(t + quantum, hi)
        if b <= a:
            continue
        if cur_end is None:
            cur_start, cur_end = a, b
        elif a <= cur_end:
            cur_end = max(cur_end, b)
        else:
            covered += cur_end - cur_start
            cur_start, cur_end = a, b
    if cur_end is not None:
        covered += cur_end - cur_start
    return min(1.0, covered / window.window_length)


@st.composite
def windows_and_timestamps(draw):
    lo = draw(st.floats(-50.0, 50.0))
    length = draw(st.floats(0.01, 10.0))
    window = WindowStats(lo, length)
    hi = window.window_end
    quantum = draw(st.one_of(st.floats(1e-3, length),          # smaller than the window
                             st.floats(length, 4.0 * length)))  # larger than the window
    # before lo, at lo (and where t + quantum reaches lo), inside, at hi, after hi
    t = st.one_of(st.just(lo), st.just(hi), st.just(lo - quantum),
                  st.floats(lo - 2.0 * quantum - 1.0, hi + 1.0))
    ts = sorted(draw(st.lists(t, max_size=40)))
    return ts, window, quantum


@settings(deadline=None, max_examples=300)
@given(windows_and_timestamps())
def test_contiguity_matches_per_packet_loop(case):
    ts, window, quantum = case
    expected = _contiguity_per_packet(ts, window, quantum)
    # the packed buffer flows carry, and a plain list of the same floats
    for packed in (array("d", ts), ts):
        f = flow(pkts=len(ts), start=ts[0] if ts else 0.0)
        f.packet_timestamps = packed
        assert contiguity(f, window, quantum) == expected


def test_extract_destination_tuple():
    spec = NormalizationSpec(flow_count_cap=10)
    f = flow(protocol="TCP", port=80, src=1)
    ws = window_stats([f] * 10, 0.0, 5.0)
    v = extract_one(f, FeatureMode.DESTINATION_SITE, spec, ws)
    assert v.shape == (3,)
    assert v[0] == 0.0
    assert v[1] == pytest.approx(80 / 65535)
    assert v[2] == 1.0  # at the cap


def test_extract_source_tuple_components():
    spec = NormalizationSpec(flow_count_cap=100, packets_per_flow_cap=50,
                             activity_quantum=1.0)
    f = flow(protocol="UDP", port=53, src=9, pkts=5,
             ts=[0.0, 1.0, 2.0, 3.0, 4.0], start=0.0, end=4.0)
    ws = window_stats([f], 0.0, 5.0)
    v = extract_one(f, FeatureMode.SOURCE_SITE, spec, ws)
    assert v.shape == (5,)
    assert v[0] == 0.5
    assert v[2] == pytest.approx(1 / 100)
    assert v[3] == pytest.approx(5 / 50)
    assert v[4] == pytest.approx(1.0)


def test_extract_clamps_adversarial_inputs():
    spec = NormalizationSpec(flow_count_cap=2, packets_per_flow_cap=2)
    big = flow(protocol="WEIRD", port=65535, pkts=5000,
               ts=[0.001 * i for i in range(5000)], start=0.0, end=5.0)
    ws = WindowStats(0.0, 5.0, flows_per_source={big.src_addr: 10 ** 9})
    for mode in FeatureMode:
        v = extract_one(big, mode, spec, ws)
        assert (v >= 0.0).all() and (v <= 1.0).all()


def test_extract_pure_and_batched():
    spec = NormalizationSpec()
    flows = [flow(f"f{i}", src=i % 3, port=1000 + i, pkts=i + 1,
                  ts=[0.5 * k for k in range(i + 1)], start=0.0)
             for i in range(8)]
    ws = window_stats(flows, 0.0, 5.0)
    a = extract(flows, FeatureMode.SOURCE_SITE, spec, ws)
    b = extract(flows, FeatureMode.SOURCE_SITE, spec, ws)
    assert a.shape == (8, 5)
    assert (a == b).all()
    for i, f in enumerate(flows):
        assert (a[i] == extract_one(f, FeatureMode.SOURCE_SITE, spec, ws)).all()


def test_extract_empty_flow_list():
    ws = WindowStats(0.0, 5.0)
    out = extract([], FeatureMode.DESTINATION_SITE, NormalizationSpec(), ws)
    assert out.shape == (0, 3)


def test_packet_count_monotone_in_ppf_only():
    spec = NormalizationSpec(packets_per_flow_cap=100)
    ws = WindowStats(0.0, 5.0, flows_per_source={1: 4})
    base = flow(pkts=3, ts=[0.0, 0.0, 0.0], start=0.0, end=0.0)
    more = flow(pkts=6, ts=[0.0] * 6, start=0.0, end=0.0)
    va = extract_one(base, FeatureMode.SOURCE_SITE, spec, ws)
    vb = extract_one(more, FeatureMode.SOURCE_SITE, spec, ws)
    assert vb[3] > va[3]
    assert (va[[0, 1, 2]] == vb[[0, 1, 2]]).all()


@st.composite
def flows_and_windows(draw):
    """Flows of several windows, each flow with its window: adversarial
    headers, timestamps around the window's bounds, ties, touching packets
    and gaps wider than the quantum."""
    length = draw(st.sampled_from([0.7, 5.0]) | st.floats(0.01, 10.0))
    # a quantum far below the window fits many runs of packets into it
    quantum = draw(st.sampled_from([1.0, length]) | st.floats(1e-3, length)
                   | st.floats(length, 3.0 * length)
                   | st.floats(0.005, 0.1).map(lambda x: x * length))
    big = st.integers(2**53 - 2, 2**64)         # beyond the floats' integers
    flows, windows = [], []
    for _ in range(draw(st.integers(0, 4))):
        w = draw(st.integers(0, 60))
        lo = draw(st.sampled_from([w * length, round((w + 1) * length, 9) - length])
                  | st.floats(-50.0, 50.0))
        hi = lo + length
        batch = []
        for _ in range(draw(st.integers(0, 6))):
            # packets at the window's bounds, and a walk of ties, packets that
            # touch (t + quantum), overlaps and gaps from a start that may lie
            # before the window
            ts = draw(st.lists(st.sampled_from([lo - quantum, lo, hi]), max_size=3))
            t = draw(st.sampled_from([lo - quantum, lo - 2.5 * quantum, lo])
                     | st.floats(lo - 2.0 * quantum - 1.0, hi + 1.0))
            for _ in range(draw(st.integers(0, 30))):
                step = draw(st.sampled_from(["tie", "touch", "touches", "overlap", "gap"]))
                ts.append(t)
                if step == "touches":           # a run of packets that touch
                    for _ in range(draw(st.integers(1, 12))):
                        t = t + quantum
                        ts.append(t)
                if step.startswith("touch"):
                    t = t + quantum
                elif step == "overlap":
                    t += draw(st.floats(0.0, quantum))
                elif step == "gap":
                    t += quantum * draw(st.floats(1.0, 3.0))
            ts.sort()
            f = FlowRecord(
                f"f{len(batch)}", draw(st.integers(1, 4)), 2,
                draw(st.sampled_from(["TCP", "UDP", "ICMP", "OTHER", "WEIRD"])),
                draw(st.integers(0, 65535) | st.just(65535) | st.integers(65536, 2**20)),
                draw(st.just(len(ts)) | st.integers(0, 5000) | big), 0.0,
                ts[0] if ts else lo, ts[-1] if ts else lo,
                packet_timestamps=ts if draw(st.booleans()) else array("d", ts))
            batch.append(f)
        counts = window_stats(batch, lo, length).flows_per_source
        counts = {src: draw(st.just(n) | st.just(10**9) | big) for src, n in counts.items()}
        flows += batch
        windows += [WindowStats(lo, length, counts)] * len(batch)
    caps = st.sampled_from([1, 2, 50, 100, 1000]) | st.integers(1, 2**60)
    spec = NormalizationSpec(draw(caps), draw(caps), quantum)
    return flows, windows, spec


# three runs of one packet, then one of packets that touch (each at the one
# before plus the quantum): a run break at `>=`, or a pairwise sum of the run
# lengths, misses `contiguity`'s bits here by one unit in the last place
_RUNS = array("d", [0.795, 2.148, 2.871, 3.679, 4.379, 5.079, 5.779])


@settings(deadline=None, max_examples=400)
@example(([FlowRecord("runs", 1, 2, "TCP", 80, len(_RUNS), 0.0, _RUNS[0], _RUNS[-1],
                      packet_timestamps=_RUNS)],
          [WindowStats(0.0, 6.3, {1: 1})], NormalizationSpec(activity_quantum=0.7)),
         FeatureMode.SOURCE_SITE, features.CHUNK_FLOWS, features.CHUNK_PACKETS)
@given(flows_and_windows(), st.sampled_from(list(FeatureMode)),
       st.integers(1, 5) | st.just(features.CHUNK_FLOWS),
       st.integers(1, 40) | st.just(features.CHUNK_PACKETS))
def test_extract_matches_extract_one_bit_for_bit(case, mode, chunk_flows, chunk_packets):
    flows, windows, spec = case
    want = np.array([extract_one(f, mode, spec, w) for f, w in zip(flows, windows)])
    want = want.reshape(len(flows), MODE_DIM[mode])
    # small chunks: a call spans several chunks of flows and of packets
    with mock.patch.object(features, "CHUNK_FLOWS", chunk_flows), \
            mock.patch.object(features, "CHUNK_PACKETS", chunk_packets):
        got = extract(flows, mode, spec, windows)
        # one WindowStats means every flow is in that window
        if flows and all(w is windows[0] for w in windows):
            single = extract(flows, mode, spec, windows[0])
            assert (single.view(np.uint64) == want.view(np.uint64)).all()
    assert got.shape == want.shape
    # bitwise: -0.0 and 0.0 differ, and NaN equals itself
    assert (got.view(np.uint64) == want.view(np.uint64)).all()
    assert extract([], mode, spec, []).shape == (0, MODE_DIM[mode])


def test_extract_needs_one_window_per_flow():
    with pytest.raises(ValueError, match="windows"):
        extract([flow()], FeatureMode.SOURCE_SITE, NormalizationSpec(), [])
