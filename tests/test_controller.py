"""Controller tests: report aggregation, threshold detection rules, policy
generation and dispatch dedup."""
import numpy as np
import pytest

from mecshield.agent import DestinationStats, TrafficReport
from mecshield.controller import (AttackAssessment, Controller,
                                  DetectionThresholds, METHOD_APP_LAYER,
                                  METHOD_SMURF_FRAGGLE, METHOD_SYN_FLOOD,
                                  METHOD_VOLUMETRIC, MITIGATE_BLOCK,
                                  MITIGATE_DROP, Policy, ROLE_DESTINATION,
                                  ROLE_SOURCE)

TOPOLOGY = {
    "a": [(0x0A000000, 0x0A00FFFF)],
    "b": [(0x0A010000, 0x0A01FFFF)],
    "c": [(0x0A020000, 0x0A02FFFF)],
}
VICTIM = 0x0A020042


def report(agent="a", start=0.0, dests=None, win=5.0):
    per_dst = {dst: DestinationStats(flows=flows, bytes=bytes_, packets=packets,
                                     protocol_counts={proto: flows},
                                     source_ranges=[(0x0A000001, 0x0A000005)])
               for dst, (flows, bytes_, packets, proto) in (dests or {}).items()}
    return TrafficReport(agent_id=agent, window_start=start, window_length=win,
                         per_destination=per_dst)


def test_collect_sums_across_agents():
    c = Controller(TOPOLOGY)
    r1 = report("a", dests={VICTIM: (10, 1000.0, 30, "TCP")})
    r2 = report("b", dests={VICTIM: (5, 500.0, 15, "TCP")})
    view = c.collect([r1, r2])
    v = view.per_destination[VICTIM]
    assert v.flows == 15
    assert v.bytes == 1500.0
    assert v.packets == 45
    assert v.protocol_counts == {"TCP": 15}
    assert v.source_ranges == [(0x0A000001, 0x0A000005)] * 2
    assert c.work_units == 2


def test_collect_dedups_duplicate_windows():
    c = Controller(TOPOLOGY)
    r = report("a", start=10.0, dests={VICTIM: (3, 100.0, 6, "TCP")})
    view = c.collect([r, r])
    assert view.per_destination[VICTIM].flows == 3
    assert c.warnings and "duplicate" in c.warnings[0]


def test_collect_empty():
    c = Controller(TOPOLOGY)
    view = c.collect([])
    assert view.per_destination == {}


def test_analyze_clean_view_not_detected():
    c = Controller(TOPOLOGY)
    view = c.collect([report("a", dests={VICTIM: (10, 2000.0, 50, "TCP")})])
    a = c.analyze(view)
    assert not a.detected


def test_analyze_volumetric_rule():
    th = DetectionThresholds(vol_rate_floor=1e6)
    c = Controller(TOPOLOGY, thresholds=th)
    view = c.collect([report("a", dests={VICTIM: (10, 1e8, 50, "UDP")})])
    a = c.analyze(view)
    assert a.detected and a.method == METHOD_VOLUMETRIC
    assert a.victim_addrs == [VICTIM]
    assert a.suspected_source_ranges


def test_analyze_volumetric_baseline_multiplier():
    th = DetectionThresholds(vol_rate_multiplier=10.0, vol_rate_floor=1e12)
    c = Controller(TOPOLOGY, thresholds=th)
    # two clean windows establish a 200 B/s baseline
    for w in range(2):
        view = c.collect([report("a", start=5.0 * w,
                                 dests={VICTIM: (10, 1000.0, 50, "TCP")})])
        assert not c.analyze(view).detected
    view = c.collect([report("a", start=10.0,
                             dests={VICTIM: (10, 15000.0, 50, "TCP")})])
    a = c.analyze(view)
    assert a.detected and a.method == METHOD_VOLUMETRIC


def test_analyze_syn_flood_rule():
    th = DetectionThresholds(syn_flows_per_window=500)
    c = Controller(TOPOLOGY, thresholds=th)
    view = c.collect([report("a", dests={VICTIM: (10000, 1e4, 10000, "TCP")})])
    a = c.analyze(view)
    assert a.detected and a.method == METHOD_SYN_FLOOD


def test_analyze_smurf_rule_and_priority():
    c = Controller(TOPOLOGY)
    # few flows, enormous packets per flow, ICMP-dominated
    view = c.collect([report("a", dests={VICTIM: (4, 1e9, 40000, "ICMP")})])
    a = c.analyze(view)
    # byte rate also trips volumetric, but smurf has higher priority
    assert a.detected and a.method == METHOD_SMURF_FRAGGLE


def test_analyze_app_layer_rule():
    th = DetectionThresholds(app_rate_multiplier=10.0, vol_rate_floor=1e12,
                             syn_flows_per_window=1e9)
    c = Controller(TOPOLOGY, thresholds=th)
    for w in range(3):
        view = c.collect([report("a", start=5.0 * w,
                                 dests={VICTIM: (10, 1000.0, 100, "TCP")})])
        assert not c.analyze(view).detected
    view = c.collect([report("a", start=15.0,
                             dests={VICTIM: (500, 5000.0, 5000, "TCP")})])
    a = c.analyze(view)
    assert a.detected and a.method == METHOD_APP_LAYER


def test_analyze_monotone_under_added_volume():
    th = DetectionThresholds(vol_rate_floor=1e6)
    c1 = Controller(TOPOLOGY, thresholds=th)
    c2 = Controller(TOPOLOGY, thresholds=th)
    base = {VICTIM: (10, 1e7, 50, "UDP")}
    doubled = {VICTIM: (20, 2e7, 100, "UDP")}
    a1 = c1.analyze(c1.collect([report("a", dests=base)]))
    a2 = c2.analyze(c2.collect([report("a", dests=doubled)]))
    assert a1.detected and a2.detected


def test_flagged_windows_do_not_feed_baseline():
    th = DetectionThresholds(vol_rate_floor=1e6)
    c = Controller(TOPOLOGY, thresholds=th)
    for w in range(5):
        view = c.collect([report("a", start=5.0 * w,
                                 dests={VICTIM: (10, 1e8, 50, "UDP")})])
        assert c.analyze(view).detected    # attack volume never becomes normal


def test_make_policies_topology_roles():
    c = Controller(TOPOLOGY)
    a = AttackAssessment(detected=True, method=METHOD_SYN_FLOOD,
                         victim_addrs=[VICTIM],
                         suspected_source_ranges=[(0x0A000001, 0x0A000005),
                                                  (0x0A010001, 0x0A010002)])
    policies = c.make_policies(a, now=10.0)
    roles = {(p.agent_id, p.role) for p in policies}
    assert roles == {("c", ROLE_DESTINATION), ("a", ROLE_SOURCE),
                     ("b", ROLE_SOURCE)}
    for p in policies:
        assert p.mitigation == MITIGATE_DROP
        assert p.expires_at > p.issued_at


def test_make_policies_requires_detected():
    c = Controller(TOPOLOGY)
    with pytest.raises(ValueError):
        c.make_policies(AttackAssessment(detected=False), now=0.0)


def test_smurf_policies_block():
    c = Controller(TOPOLOGY)
    a = AttackAssessment(detected=True, method=METHOD_SMURF_FRAGGLE,
                         victim_addrs=[VICTIM],
                         suspected_source_ranges=[(0x0A000001, 0x0A000002)])
    assert all(p.mitigation == MITIGATE_BLOCK for p in c.make_policies(a, 0.0))


def test_partial_coverage_warning():
    c = Controller(TOPOLOGY)
    a = AttackAssessment(detected=True, method=METHOD_VOLUMETRIC,
                         victim_addrs=[VICTIM],
                         suspected_source_ranges=[(0xDEAD0000, 0xDEADFFFF)])
    policies = c.make_policies(a, 0.0)
    assert all(p.role == ROLE_DESTINATION for p in policies)
    assert any("partial coverage" in w for w in c.warnings)


def test_dispatch_dedups_repeat_assessments():
    c = Controller(TOPOLOGY, policy_ttl=100.0)
    a = AttackAssessment(detected=True, method=METHOD_SYN_FLOOD,
                         victim_addrs=[VICTIM],
                         suspected_source_ranges=[(0x0A000001, 0x0A000005)])
    first = c.dispatch(a, now=0.0)
    assert len(first) == 2
    assert c.dispatch(a, now=10.0) == []          # still covered
    again = c.dispatch(a, now=150.0)              # after expiry
    assert len(again) == 2
    assert len([e for e in c.log if e["kind"] == "policy"]) == 4


def test_policy_validation():
    with pytest.raises(ValueError):
        Policy("p", [1], METHOD_SYN_FLOOD, ROLE_SOURCE, MITIGATE_DROP,
               issued_at=10.0, expires_at=10.0, agent_id="a")


def test_collect_fuzzed_totals_match():
    rng = np.random.default_rng(7)
    for _ in range(30):
        c = Controller(TOPOLOGY)
        reports, want_flows, want_bytes = [], 0, 0.0
        for i, agent in enumerate(["a", "b", "c"]):
            dests = {}
            for dst in rng.choice([1, 2, 3], size=rng.integers(1, 4),
                                  replace=False):
                flows = int(rng.integers(1, 50))
                byts = float(rng.uniform(10, 1e4))
                dests[int(dst)] = (flows, byts, flows * 2, "TCP")
                want_flows += flows
                want_bytes += byts
            reports.append(report(agent, dests=dests))
        view = c.collect(reports)
        assert sum(v.flows for v in view.per_destination.values()) == want_flows
        assert sum(v.bytes for v in view.per_destination.values()) == pytest.approx(want_bytes)
