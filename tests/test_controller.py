"""Controller tests: report aggregation, the SYN-shape detection rule, policy
generation and dispatch dedup, and what a run names for each attack sub-mode."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mecshield.agent import DestinationStats, TrafficReport
from mecshield.config import parse_config, reference_config_dict
from mecshield.controller import (AttackAssessment, Controller,
                                  DetectionThresholds, METHOD_SYN_FLOOD, Policy,
                                  ROLE_DESTINATION, ROLE_SOURCE,
                                  SYN_PACKETS_PER_FLOW_MAX)
from mecshield.harness import run
from mecshield.traffic import APP_LAYER_MODES

TOPOLOGY = {
    "a": (0x0A000000, 0x0A00FFFF),
    "b": (0x0A010000, 0x0A01FFFF),
    "c": (0x0A020000, 0x0A02FFFF),
}
VICTIM = 0x0A020042


def report(agent="a", dests=None):
    per_dst = {dst: DestinationStats(flows=flows, packets=packets)
               for dst, (flows, packets) in (dests or {}).items()}
    return TrafficReport(agent_id=agent, per_destination=per_dst)


def test_collect_sums_across_agents():
    c = Controller(TOPOLOGY)
    r1 = report("a", dests={VICTIM: (10, 30)})
    r2 = report("b", dests={VICTIM: (5, 15)})
    view = c.collect([r1, r2])
    v = view.per_destination[VICTIM]
    assert v.flows == 15
    assert v.packets == 45
    assert view.reporters == {VICTIM: {"a", "b"}}
    assert c.work_units == 2


def test_collect_empty():
    c = Controller(TOPOLOGY)
    view = c.collect([])
    assert view.per_destination == {}


def test_analyze_clean_view_not_detected():
    c = Controller(TOPOLOGY)
    view = c.collect([report("a", dests={VICTIM: (10, 50)})])
    a = c.analyze(view)
    assert not a.detected


def test_analyze_syn_flood_rule():
    th = DetectionThresholds(syn_flows_per_window=500)
    c = Controller(TOPOLOGY, thresholds=th)
    view = c.collect([report("a", dests={VICTIM: (10000, 10000)})])
    a = c.analyze(view)
    assert a.detected and a.method == METHOD_SYN_FLOOD
    assert a.victim_addrs == [VICTIM] and a.source_agents == ["a"]
    # both bounds: more than syn_flows_per_window flows, at most
    # SYN_PACKETS_PER_FLOW_MAX packets per flow on average
    for flows, packets, flagged in [(501, 1503, True), (500, 1500, False),
                                    (501, 1504, False)]:
        c = Controller(TOPOLOGY, thresholds=th)
        assert c.analyze(c.collect([report("a", dests={VICTIM: (flows, packets)})])
                         ).detected == flagged


def test_make_policies_topology_roles():
    c = Controller(TOPOLOGY)
    a = AttackAssessment(detected=True, method=METHOD_SYN_FLOOD,
                         victim_addrs=[VICTIM], source_agents=["a", "b"])
    policies = c.make_policies(a, now=10.0)
    roles = {(p.agent_id, p.role) for p in policies}
    assert roles == {("c", ROLE_DESTINATION), ("a", ROLE_SOURCE),
                     ("b", ROLE_SOURCE)}
    for p in policies:
        assert p.expires_at > p.issued_at


def test_make_policies_requires_detected():
    c = Controller(TOPOLOGY)
    with pytest.raises(ValueError):
        c.make_policies(AttackAssessment(detected=False), now=0.0)


def test_dispatch_dedups_repeat_assessments():
    c = Controller(TOPOLOGY, policy_ttl=100.0)
    a = AttackAssessment(detected=True, method=METHOD_SYN_FLOOD,
                         victim_addrs=[VICTIM], source_agents=["a"])
    first = c.dispatch(a, now=0.0)
    assert len(first) == 2
    assert c.dispatch(a, now=10.0) == []          # still covered
    again = c.dispatch(a, now=150.0)              # after expiry
    assert len(again) == 2
    assert len([e for e in c.log if e["kind"] == "policy"]) == 4
    assert {e["mitigation"] for e in c.log} == {"drop"}     # every policy drops


def test_policy_validation():
    with pytest.raises(ValueError):
        Policy("p", [1], METHOD_SYN_FLOOD, ROLE_SOURCE,
               issued_at=10.0, expires_at=10.0, agent_id="a")


def test_collect_fuzzed_totals_match():
    rng = np.random.default_rng(7)
    for _ in range(30):
        c = Controller(TOPOLOGY)
        reports, want_flows, want_packets = [], 0, 0
        for i, agent in enumerate(["a", "b", "c"]):
            dests = {}
            for dst in rng.choice([1, 2, 3], size=rng.integers(1, 4),
                                  replace=False):
                flows = int(rng.integers(1, 50))
                dests[int(dst)] = (flows, flows * 2)
                want_flows += flows
                want_packets += flows * 2
            reports.append(report(agent, dests=dests))
        view = c.collect(reports)
        assert sum(v.flows for v in view.per_destination.values()) == want_flows
        assert sum(v.packets for v in view.per_destination.values()) == want_packets


# destinations: one host in each agent's range, and two outside every range
DESTS = [0x0A000007, 0x0A010007, VICTIM, 0xD0000001, 0x08080808]
# one window's reports: agent -> dst -> (flows, packets), at least one packet a flow
window_reports = st.dictionaries(
    st.sampled_from(sorted(TOPOLOGY)),
    st.dictionaries(st.sampled_from(DESTS),
                    st.integers(1, 400).flatmap(
                        lambda n: st.tuples(st.just(n), st.one_of(
                            st.sampled_from([n, 3 * n, 3 * n + 1]),
                            st.integers(n, 6 * n)))),
                    min_size=1),
    min_size=1)


def _assess(reps: dict):
    c = Controller(TOPOLOGY, thresholds=DetectionThresholds(syn_flows_per_window=500))
    return c, c.analyze(c.collect([report(agent, dests=d) for agent, d in sorted(reps.items())]))


@settings(max_examples=200, deadline=None)
@given(window_reports)
def test_analyze_flags_exactly_the_syn_shape(reps):
    _, a = _assess(reps)
    th = DetectionThresholds(syn_flows_per_window=500)
    want = []
    for dst in DESTS:
        flows = sum(d[dst][0] for d in reps.values() if dst in d)
        packets = sum(d[dst][1] for d in reps.values() if dst in d)
        if flows > th.syn_flows_per_window and packets <= SYN_PACKETS_PER_FLOW_MAX * flows:
            want.append(dst)
    assert a.detected == bool(want)
    assert a.victim_addrs == sorted(want)
    assert a.method == (METHOD_SYN_FLOOD if want else "unknown")


@settings(max_examples=200, deadline=None)
@given(window_reports, st.sampled_from(sorted(TOPOLOGY)), st.sampled_from(DESTS),
       st.integers(1, 600).flatmap(lambda n: st.tuples(st.just(n), st.integers(n, 3 * n))))
def test_added_short_flows_never_unflag(reps, agent, dst, extra):
    """Flows of at most SYN_PACKETS_PER_FLOW_MAX packets, added anywhere,
    keep every flagged destination flagged."""
    _, before = _assess(reps)
    more = {k: dict(v) for k, v in reps.items()}
    flows, packets = more.setdefault(agent, {}).get(dst, (0, 0))
    more[agent][dst] = (flows + extra[0], packets + extra[1])
    _, after = _assess(more)
    assert set(before.victim_addrs) <= set(after.victim_addrs)


@settings(max_examples=200, deadline=None)
@given(window_reports)
def test_policies_go_to_victim_owners_and_reporting_agents(reps):
    c, a = _assess(reps)
    if not a.detected:
        return
    policies = c.make_policies(a, now=10.0)
    owners = {agent for agent, (lo, hi) in TOPOLOGY.items() for v in a.victim_addrs
              if lo <= v <= hi}
    reporters = {agent for agent, d in reps.items()
                 if any(v in d for v in a.victim_addrs)}
    assert {p.agent_id for p in policies if p.role == ROLE_DESTINATION} == owners
    assert sorted(p.agent_id for p in policies if p.role == ROLE_SOURCE) == sorted(reporters)
    assert all(p.target_addrs == a.victim_addrs for p in policies)
    assert len({p.policy_id for p in policies}) == len(policies)


# sub-mode -> (method named, victim) on sensor-net with 20 bots from 25 s, at
# levels 50 and 300: every shape of few packets per flow reads as syn_flood,
# an amplification names the reflector its requests reach, and request_flood
# (20 packets per flow) is never named at all
NAMED = {("dns", True): (METHOD_SYN_FLOOD, 0x08080808),
         ("ntp", True): (METHOD_SYN_FLOOD, 0x08080808),
         ("ssdp", True): (METHOD_SYN_FLOOD, 0x08080808),
         ("dns", False): (METHOD_SYN_FLOOD, 0x08080808),
         ("session_flood", True): (METHOD_SYN_FLOOD, 0xD0000001),
         ("request_flood", True): None,
         ("asymmetric", True): (METHOD_SYN_FLOOD, 0xD0000001)}


@pytest.mark.parametrize("sub_mode,spoofing", sorted(NAMED))
def test_detection_names_each_sub_mode(sub_mode, spoofing):
    attack = {"agent": "sensor-net", "start_time": 25.0, "target_addr": 0xD0000001,
              "bot_count": 20, "sub_mode": sub_mode, "spoofing": spoofing}
    if sub_mode in APP_LAYER_MODES:
        attack["scenario"] = "app_layer"
    else:
        attack.update(scenario="volumetric", requests_per_bot_per_s=2)
    doc = reference_config_dict(seed=0)
    doc["scenario"]["attacks"] = [attack]
    doc["scenario"]["pretrain_samples"] = 600
    rc = parse_config(doc)
    cache: dict = {}
    for level in (50, 300):
        _, events = run(rc.scenario_for("mecshield", level), cache=cache)
        named = {(e["method"], v) for e in events if e["kind"] == "attack_detected"
                 for v in e["victims"]}
        want = NAMED[sub_mode, spoofing]
        assert named == ({want} if want else set()), level
