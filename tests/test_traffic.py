"""Traffic generator and CSV ingestion tests."""
import dataclasses
import hashlib
import tracemalloc
from array import array
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mecshield.errors import DataError
from mecshield.traffic import (ALARM, AMPLIFICATION, APP_LAYER_MODES, AttackProfile,
                               BenignProfile, CSV_HEADER, FlowRecord,
                               LABEL_BENIGN, LABEL_MALICIOUS, MONITOR, SENSOR,
                               SORT_CHECK_LOOP_MAX, default_benign_profile, gen_attack, gen_benign,
                               load_flow_csv, write_flow_csv)


def test_flow_record_validation():
    ok = FlowRecord("f", 1, 2, "TCP", 80, 2, 100.0, 0.0, 1.0,
                    packet_timestamps=array("d", [0.0, 1.0]))
    ok.validate()
    FlowRecord("f", 1, 2, "TCP", 80, 0, 0.0, 0.0, 0.0).validate()
    bad = [
        dict(protocol="FOO"),
        dict(dst_port=70000),
        dict(packet_count=-1, packet_timestamps=array("d")),
        dict(start_time=2.0),
        dict(packet_timestamps=array("d", [0.5])),            # count mismatch
        dict(packet_timestamps=array("d", [1.0, 0.0])),       # unsorted
        dict(packet_timestamps=array("d", [-0.5, 1.0])),      # before start_time
        dict(packet_timestamps=array("d", [0.0, 1.5])),       # after end_time
        dict(truth_label="unknown"),
    ]
    for kw in bad:
        base = dict(flow_id="f", src_addr=1, dst_addr=2, protocol="TCP",
                    dst_port=80, packet_count=2, byte_count=100.0,
                    start_time=0.0, end_time=1.0,
                    packet_timestamps=array("d", [0.0, 1.0]), truth_label=LABEL_BENIGN)
        base.update(kw)
        with pytest.raises(ValueError):
            FlowRecord(**base).validate()


_stamp = st.one_of(st.sampled_from([0.0, -0.0, 1.0, 2.0, float("nan")]),
                   st.floats(allow_nan=True, allow_infinity=True))


@settings(deadline=None, max_examples=300)
@given(st.one_of(st.integers(0, SORT_CHECK_LOOP_MAX),
                 st.integers(SORT_CHECK_LOOP_MAX + 1, 2 * SORT_CHECK_LOOP_MAX)),
       st.data(), st.booleans(), st.booleans())
def test_sort_check_agrees_with_pairwise_loop(n, data, presort, packed):
    # both sides of the loop/numpy size cut: equal neighbours pass, a NaN
    # compares false with everything and passes, any strict descent fails
    ts = data.draw(st.lists(_stamp, min_size=n, max_size=n))
    if presort:
        ts.sort()
    unsorted = any(ts[i + 1] < ts[i] for i in range(len(ts) - 1))
    f = FlowRecord("f", 1, 2, "TCP", 80, n, 0.0, -float("inf"), float("inf"),
                   packet_timestamps=array("d", ts) if packed else ts)
    if unsorted:
        with pytest.raises(ValueError, match="not sorted"):
            f.validate()
    else:
        f.validate()


def test_benign_profile_validation():
    with pytest.raises(ValueError):
        BenignProfile("weird")
    with pytest.raises(ValueError):
        BenignProfile(SENSOR, period=0.0)


def test_sensor_periodic_flow_count():
    p = BenignProfile(SENSOR, device_count=1, period=10.0)
    flows = gen_benign(p, 60.0, seed=1)
    assert len(flows) == 6
    starts = sorted(f.start_time for f in flows)
    assert starts == [0.0, 10.0, 20.0, 30.0, 40.0, 50.0]
    assert all(f.truth_label == LABEL_BENIGN for f in flows)


def test_monitor_defaults_shape():
    p = default_benign_profile(MONITOR)
    flows = gen_benign(p, 60.0, seed=2)
    assert len(flows) <= 3
    assert np.mean([f.packet_count for f in flows]) >= 100


def test_alarm_bursts_share_source():
    p = BenignProfile(ALARM, device_count=4, event_rate=0.2, burst_flows=5,
                      packets_per_flow=3.0, flow_duration=1.0)
    flows = gen_benign(p, 120.0, seed=3)
    assert flows
    # flows are emitted in per-event clumps, each from a single device
    for i in range(0, len(flows) - 5, 5):
        chunk = flows[i:i + 5]
        assert len({f.src_addr for f in chunk}) == 1
        starts = [f.start_time for f in chunk]
        assert max(starts) - min(starts) == pytest.approx(0.4)


def test_benign_determinism_and_validity():
    for cat in (SENSOR, MONITOR, ALARM):
        p = default_benign_profile(cat)
        a = gen_benign(p, 60.0, seed=9)
        b = gen_benign(p, 60.0, seed=9)
        assert [f.__dict__ for f in a] == [f.__dict__ for f in b]
        for f in a:
            f.validate()


def test_gen_benign_rejects_bad_duration():
    with pytest.raises(ValueError):
        gen_benign(default_benign_profile(SENSOR), 0.0, seed=0)


def test_attack_profile_validation():
    with pytest.raises(ValueError):
        AttackProfile("volumetric", "smtp", target_addr=1)
    with pytest.raises(ValueError):
        AttackProfile("app_layer", "weird", target_addr=1)
    with pytest.raises(ValueError):
        AttackProfile("teardrop", "dns", target_addr=1)
    with pytest.raises(ValueError):
        AttackProfile("volumetric", "dns", target_addr=1, bot_count=0)


def test_ntp_amplification_exact():
    p = AttackProfile("volumetric", "ntp", target_addr=0xDEAD, bot_count=3,
                      requests_per_bot_per_s=2.0)
    flows = gen_attack(p, 30.0, seed=4)
    reqs = {f.flow_id[4:]: f for f in flows if f.flow_id.startswith("req-")}
    rsps = {f.flow_id[4:]: f for f in flows if f.flow_id.startswith("rsp-")}
    assert reqs and set(reqs) == set(rsps)
    for k, req in reqs.items():
        assert rsps[k].byte_count / req.byte_count == 556.9
        assert rsps[k].dst_addr == 0xDEAD         # reflection hits the target
        assert rsps[k].dst_port == 123
    # request of exactly 100 bytes -> response of exactly 55690
    assert reqs["0"].byte_count == 100.0
    assert rsps["0"].byte_count == 55690.0


def test_dns_amplification_in_range():
    p = AttackProfile("volumetric", "dns", target_addr=1, bot_count=5,
                      requests_per_bot_per_s=4.0)
    flows = gen_attack(p, 60.0, seed=5)
    lo, hi = AMPLIFICATION["dns"]
    ratios = []
    reqs = {f.flow_id[4:]: f for f in flows if f.flow_id.startswith("req-")}
    for f in flows:
        if f.flow_id.startswith("rsp-"):
            ratios.append(f.byte_count / reqs[f.flow_id[4:]].byte_count)
            assert f.dst_port == 53
    assert ratios
    assert all(lo <= r <= hi for r in ratios)
    assert max(ratios) - min(ratios) > 1.0        # factors actually vary


def test_volumetric_no_spoofing_returns_to_bot():
    p = AttackProfile("volumetric", "ssdp", target_addr=7, bot_count=2,
                      spoofing=False, requests_per_bot_per_s=1.0)
    flows = gen_attack(p, 10.0, seed=6)
    for f in flows:
        if f.flow_id.startswith("rsp-"):
            assert f.dst_addr != 7
        assert f.dst_port == 1900


def test_session_flood_rate_multiplier():
    base = AttackProfile("app_layer", "session_flood", target_addr=1,
                         bot_count=1, base_session_rate=1.0, multiplier=1.0)
    boosted = AttackProfile("app_layer", "session_flood", target_addr=1,
                            bot_count=1, base_session_rate=1.0, multiplier=10.0)
    n1 = len(gen_attack(base, 60.0, seed=8))
    n10 = len(gen_attack(boosted, 60.0, seed=8))
    assert n10 == pytest.approx(10 * n1, rel=0.05)


def test_request_flood_multiplies_packets():
    p = AttackProfile("app_layer", "request_flood", target_addr=1, bot_count=1,
                      base_packets_per_flow=2, multiplier=10.0)
    flows = gen_attack(p, 10.0, seed=9)
    assert all(f.packet_count == 20 for f in flows)


def test_asymmetric_multiplies_bytes():
    plain = AttackProfile("app_layer", "session_flood", target_addr=1,
                          bot_count=1, multiplier=1.0, bytes_per_packet=60.0)
    heavy = AttackProfile("app_layer", "asymmetric", target_addr=1,
                          bot_count=1, multiplier=8.0, bytes_per_packet=60.0)
    f_plain = gen_attack(plain, 10.0, seed=10)
    f_heavy = gen_attack(heavy, 10.0, seed=10)
    assert f_heavy[0].byte_count == pytest.approx(8.0 * f_plain[0].byte_count)


def test_bursty_arrivals_clump_sessions():
    p = AttackProfile("app_layer", "session_flood", target_addr=1, bot_count=1,
                      base_session_rate=2.0, multiplier=1.0, burst_size=6,
                      burst_interval=0.1, session_duration=0.5)
    flows = gen_attack(p, 120.0, seed=11)
    assert flows
    assert len(flows) % 6 == 0 or flows[-1].start_time > 119.0
    starts = sorted(f.start_time for f in flows)
    gaps = np.diff(starts)
    assert (gaps <= 0.100001).sum() >= len(gaps) * 0.5   # mostly intra-burst


def _app_layer_one_draw_per_session(p, duration, seed, src_base, t0):
    """Reference application-layer generator that draws each session's
    packet times on their own: (flow id, source, start, end, packet times,
    packet count, bytes) per flow."""
    rng = np.random.default_rng([seed, 0xA77AC])
    rate = p.session_rate()
    pkts = max(1, int(round(p.base_packets_per_flow *
                            (p.multiplier if p.sub_mode == "request_flood" else 1.0))))
    byte_w = p.bytes_per_packet * (p.multiplier if p.sub_mode == "asymmetric" else 1.0)
    out = []

    def emit(bot, start):
        ts = (start + np.sort(rng.uniform(0.0, p.session_duration, size=pkts))).tolist()
        out.append([f"atk-{bot:x}-{len(out)}", bot, start, ts[-1], ts, pkts, pkts * byte_w])

    for bot in range(src_base, src_base + p.bot_count):
        if p.burst_size > 1:
            burst_rate = rate / p.burst_size
            t = t0 + float(rng.exponential(1.0 / burst_rate))
            while t < t0 + duration:
                for k in range(p.burst_size):
                    if t + k * p.burst_interval < t0 + duration:
                        emit(bot, t + k * p.burst_interval)
                t += float(rng.exponential(1.0 / burst_rate))
        else:
            t = t0 + float(rng.uniform(0.0, 1.0 / rate))
            while t < t0 + duration:
                emit(bot, t)
                t += 1.0 / rate
    return out


@settings(deadline=None, max_examples=80)
@given(st.sampled_from(APP_LAYER_MODES), st.integers(1, 4), st.integers(1, 5),
       st.one_of(st.just(0.0), st.floats(0.1, 500.0)),
       st.floats(0.2, 5.0), st.floats(1.0, 6.0), st.integers(1, 4),
       st.floats(0.01, 2.0), st.floats(0.01, 0.5), st.floats(0.5, 20.0),
       st.integers(0, 2**32 - 1))
def test_app_layer_flows_equal_one_draw_per_session(
        mode, bots, burst_size, t0, session_rate, multiplier,
        packets, session_duration, burst_interval, duration, seed):
    # a run of sessions shares one packet draw; the stream must be the one
    # that one draw per session gives
    p = AttackProfile("app_layer", mode, target_addr=7, bot_count=bots,
                      base_session_rate=session_rate,
                      multiplier=multiplier, base_packets_per_flow=packets,
                      session_duration=session_duration, burst_size=burst_size,
                      burst_interval=burst_interval)
    flows = gen_attack(p, duration, seed=seed, src_base=0xC6000010, t0=t0)
    assert [[f.flow_id, f.src_addr, f.start_time, f.end_time, list(f.packet_timestamps),
             f.packet_count, f.byte_count] for f in flows] == \
        _app_layer_one_draw_per_session(p, duration, seed, 0xC6000010, t0)


# sha256 of repr([list(ts) for each flow]) as the generators gave them when
# timestamps were Python float lists: repr round-trips every float exactly
LIST_PATH_TIMESTAMPS = {
    "sensor": "008396a5bc8f5a28b9d747f040105734aa28318b68b18b868eb443f55125d51f",
    "monitor": "dd7c8e8fe001dadb40703817baab356e361c62fec6b4b74deffb70dc153348f8",
    "alarm": "877a1724483d6f08bf8d32f1c3f8cb3c4aa222a36551cbc1dfa2afc2d408d519",
    "volumetric": "55f45df3bfdbb478199ac1da887567d1750e9e9390e13d4a09ee71653b635858",
    "app_layer": "343977df932b7a5f500561dc2affe90d1cd36bc8300c15321ae9526e9b3d87c4",
    "csv": "2b98580e56e27b9051dcb18ab3bf359fecbb3062379a72f2fb1f4d7813800d2a",
}


@pytest.mark.parametrize("source", sorted(LIST_PATH_TIMESTAMPS))
def test_timestamps_are_packed_and_equal_the_list_path(source):
    make = {
        "sensor": lambda: gen_benign(default_benign_profile(SENSOR), 120.0, seed=9),
        "monitor": lambda: gen_benign(default_benign_profile(MONITOR), 120.0, seed=9),
        "alarm": lambda: gen_benign(default_benign_profile(ALARM), 120.0, seed=9),
        "volumetric": lambda: gen_attack(AttackProfile("volumetric", "dns", target_addr=3,
                                                       bot_count=2), 10.0, seed=5),
        "app_layer": lambda: gen_attack(AttackProfile("app_layer", "session_flood",
                                                      target_addr=1, bot_count=3), 30.0, seed=12),
        "csv": lambda: load_flow_csv(Path(__file__).parent / "data" / "caida_mix.csv"),
    }
    flows = make[source]()
    assert flows
    for f in flows:
        ts = f.packet_timestamps
        assert type(ts) is array and ts.typecode == "d"
        assert type(f.end_time) is float
    got = repr([list(f.packet_timestamps) for f in flows])
    assert hashlib.sha256(got.encode()).hexdigest() == LIST_PATH_TIMESTAMPS[source]


def _app(mode, **kw):
    return AttackProfile("app_layer", mode, target_addr=0xD0000001, bot_count=4,
                         base_session_rate=0.3, **kw)


def _vol(mode, spoofing):
    return AttackProfile("volumetric", mode, target_addr=0xD0000001, bot_count=3,
                         spoofing=spoofing, requests_per_bot_per_s=2.5)


# one call per generator family and branch: (generator, profile, duration,
# seed, keyword arguments)
FAMILY_CASES = {
    "sensor": (gen_benign, BenignProfile(SENSOR, device_count=3, period=7.0,
                                         packets_per_flow=5.0, flow_duration=1.5),
               60.5, 1, dict(src_base=0x0A000010, t0=3.0)),
    "monitor": (gen_benign, BenignProfile(MONITOR, device_count=2, flows_per_minute=6.0,
                                          packets_per_flow=200.0, flow_duration=30.0),
                95.0, 2, dict(dst_addr=0xC0A80002)),
    "monitor-short": (gen_benign, default_benign_profile(MONITOR), 20.0, 2, {}),
    "alarm": (gen_benign, BenignProfile(ALARM, device_count=5, event_rate=0.2,
                                        burst_flows=12, packets_per_flow=2.0,
                                        flow_duration=2.0), 120.0, 3, {}),
    "session_flood": (gen_attack, _app("session_flood", multiplier=10.0), 40.0, 4,
                      dict(t0=5.0)),
    "session_flood-burst": (gen_attack, _app("session_flood", multiplier=10.0,
                                             burst_size=4, burst_interval=0.2),
                            40.0, 5, dict(src_base=0xC6000100)),
    "request_flood": (gen_attack, _app("request_flood", multiplier=10.0), 30.0, 6, {}),
    "asymmetric": (gen_attack, _app("asymmetric", multiplier=8.0), 30.0, 7, {}),
    "dns": (gen_attack, _vol("dns", True), 12.0, 8, dict(t0=2.0)),
    "dns-unspoofed": (gen_attack, _vol("dns", False), 12.0, 8, {}),
    "ntp": (gen_attack, _vol("ntp", True), 12.0, 9, {}),
    "ntp-unspoofed": (gen_attack, _vol("ntp", False), 12.0, 9, {}),
}

# sha256 of the repr of every field of every flow, in field order, as the
# generators gave them before flow generation was split into drawing and
# building: repr round-trips each float and tells an int from a float
FAMILY_FLOWS = {
    "alarm": "d5f289eee1602dc0c24f3dfc8a70e5562f72a74b318245dd9f4efe078d92515c",
    "asymmetric": "cd135e6edb2443205e8a833286a37909124cece0281698b4f9b4b62e151a5bbd",
    "dns": "6af8af021d43572d9ce34a343cd997cfc7b3178501d38cf411dee1817f1b7c6f",
    "dns-unspoofed": "8d00e547d43a6a834a25b86854b0ca76282414fa7ef0e6ce066b2e2b35f2562c",
    "monitor": "0f18ffd2be43677c3bbf1ab675216dba8e6f3ff61e9b60f38fdfc437c8663c84",
    "monitor-short": "ad3035c92e1134f86726a78c5155010d6965760a8facbd8c414aec95ac7f3b0e",
    "ntp": "61b618b8214ca13fdce684071fe5662727203094a803ed07dbc6967a9dc31941",
    "ntp-unspoofed": "e13dc35a5b33eecebfd1db0406023cdf189b668a23e161daafa9417d1ab97c90",
    "request_flood": "9c2a222eef6edc81b2be9fb7a07c8a8e5aaf545c75c29db4374401b94a872472",
    "sensor": "537b44b1ccdb0882409a374c84253ffe9e2478ce0ff5a2fe9d25694c3765cbc6",
    "session_flood": "94c9d8622986ed40e6a603006c3f706be04f61265640b7de639990d28efd526f",
    "session_flood-burst": "1e911825822ed8c4b02155e65296954fe5c63a869990c4ae8885277ac0f12468",
}


def _flows_digest(flows) -> str:
    names = [f.name for f in dataclasses.fields(FlowRecord)]
    got = repr([[getattr(f, n) for n in names] for f in flows])
    return hashlib.sha256(got.encode()).hexdigest()


@pytest.mark.parametrize("case", sorted(FAMILY_CASES))
def test_every_field_of_each_family_is_pinned(case):
    gen, profile, duration, seed, kw = FAMILY_CASES[case]
    flows = gen(profile, duration, seed, **kw)
    assert flows
    assert _flows_digest(flows) == FAMILY_FLOWS[case]


def test_attack_labels_and_determinism():
    p = AttackProfile("app_layer", "session_flood", target_addr=1, bot_count=3)
    a = gen_attack(p, 30.0, seed=12)
    b = gen_attack(p, 30.0, seed=12)
    assert [f.__dict__ for f in a] == [f.__dict__ for f in b]
    assert all(f.truth_label == LABEL_MALICIOUS for f in a)
    ids = [f.flow_id for f in a]
    assert len(ids) == len(set(ids))


def test_mixing_generators_preserves_labels():
    benign = gen_benign(default_benign_profile(SENSOR), 30.0, seed=1)
    attack = gen_attack(AttackProfile("app_layer", "session_flood",
                                      target_addr=1), 30.0, seed=1)
    labels = {f.truth_label for f in benign} | {f.truth_label for f in attack}
    assert labels == {LABEL_BENIGN, LABEL_MALICIOUS}
    assert all(f.truth_label == LABEL_BENIGN for f in benign)
    assert all(f.truth_label == LABEL_MALICIOUS for f in attack)


def test_csv_round_trip(tmp_path):
    flows = gen_benign(default_benign_profile(SENSOR), 30.0, seed=5)
    flows += gen_attack(AttackProfile("volumetric", "dns", target_addr=3,
                                      bot_count=2), 30.0, seed=5)
    path = tmp_path / "flows.csv"
    write_flow_csv(path, flows)
    loaded = load_flow_csv(path)
    assert len(loaded) == len(flows)
    for orig, back in zip(flows, loaded):
        assert back.flow_id == orig.flow_id
        assert back.src_addr == orig.src_addr
        assert back.protocol == orig.protocol
        assert back.byte_count == orig.byte_count      # repr round-trip
        assert back.start_time == orig.start_time
        assert back.truth_label == orig.truth_label


def test_csv_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text(",".join(CSV_HEADER) + "\n")
    assert load_flow_csv(path) == []


def test_csv_error_paths(tmp_path):
    empty = tmp_path / "zero.csv"
    empty.write_text("")
    with pytest.raises(DataError):
        load_flow_csv(empty)

    missing = tmp_path / "missing.csv"
    missing.write_text("flow_id,src_addr\n")
    with pytest.raises(DataError, match="missing column"):
        load_flow_csv(missing)

    bad_row = tmp_path / "badrow.csv"
    bad_row.write_text(",".join(CSV_HEADER) + "\n" +
                       "f,1,2,TCP,80,notanint,100,0,1,benign\n")
    with pytest.raises(DataError, match=":2:"):
        load_flow_csv(bad_row)


def test_csv_packet_total_is_capped(tmp_path, monkeypatch):
    monkeypatch.setattr("mecshield.traffic.CSV_PACKETS_MAX", 10)
    path = tmp_path / "heavy.csv"
    rows = ["f0,1,2,TCP,80,6,600,0,1,benign", "f1,1,2,TCP,80,4,400,1,2,benign"]
    path.write_text("\n".join([",".join(CSV_HEADER), *rows]) + "\n")
    assert sum(f.packet_count for f in load_flow_csv(path)) == 10
    path.write_text("\n".join([",".join(CSV_HEADER), *rows,
                               "f2,1,2,TCP,80,1,100,2,3,benign"]) + "\n")
    with pytest.raises(DataError, match=r"heavy\.csv:4: .*CSV_PACKETS_MAX = 10\b"):
        load_flow_csv(path)


def test_csv_row_count_is_capped(tmp_path, monkeypatch):
    monkeypatch.setattr("mecshield.traffic.MAX_FLOWS", 2)
    path = tmp_path / "many.csv"
    rows = ["f0,1,2,TCP,80,1,60,0,0,benign", "", "f1,1,2,TCP,80,1,60,1,1,benign"]
    path.write_text("\n".join([",".join(CSV_HEADER), *rows]) + "\n")
    assert [f.flow_id for f in load_flow_csv(path)] == ["f0", "f1"]
    path.write_text("\n".join([",".join(CSV_HEADER), *rows,
                               "f2,1,2,TCP,80,1,60,2,2,benign"]) + "\n")
    with pytest.raises(DataError, match=r"many\.csv:5: .*MAX_FLOWS = 2\b"):
        load_flow_csv(path)


def test_csv_rows_stream(tmp_path):
    # one row at a time: the peak is about the flows returned, where holding
    # every row as strings first took about twice that
    path = tmp_path / "short.csv"
    n = 20_000
    path.write_text(",".join(CSV_HEADER) + "\n" + "".join(
        f"f{i},1,2,TCP,80,1,60,{i},{i},benign\n" for i in range(n)))
    tracemalloc.start()
    try:
        flows = load_flow_csv(path)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(flows) == n
    assert peak < 1.2 * held
