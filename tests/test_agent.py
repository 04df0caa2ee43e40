"""Agent state-machine tests: filtering verdicts, protection transitions,
policy handling, reports, and a fuzzed interleaving safety check."""
from array import array

import numpy as np
import pytest

from mecshield.agent import (Agent, AgentConfig, DROP, FORWARD, NORMAL,
                             PROTECTION, R_POLICY_DROP, R_SOM_MALICIOUS)
from mecshield.controller import Policy, ROLE_DESTINATION, ROLE_SOURCE
from mecshield.features import NormalizationSpec, extract, window_stats
from mecshield.som import BENIGN, MALICIOUS, SomHyperParams, SomMap
from mecshield.traffic import FlowRecord


def labeled_map(dim=5):
    """Tiny hand-labeled map aligned with the test flows below: benign traffic
    is TCP on low ports, malicious is ICMP on high ports."""
    w = np.array([[0.0, 0.0, 0.0, 0.0, 0.2][:dim],
                  [1.0, 1.0, 0.0, 0.0, 0.2][:dim]])
    m = SomMap(2, 1, dim, w)
    m.labels[:] = [BENIGN, MALICIOUS]
    m.benign_wins[:] = [10, 0]
    m.malicious_wins[:] = [0, 10]
    m.hit_counts[:] = [10, 10]
    return m


def benign_flow(i, t, src=100, dst=2):
    return FlowRecord(f"b{i}", src, dst, "TCP", 80, 1, 60.0, t, t,
                      packet_timestamps=array("d", [t]))


def malicious_flow(i, t, src=200, pkts=5, dst=2):
    ts = array("d", [t + 0.01 * k for k in range(pkts)])
    return FlowRecord(f"m{i}", src, dst, "ICMP", 65000, pkts, 6000.0, t, ts[-1],
                      packet_timestamps=ts, truth_label="malicious")


def fresh_agent(**kw):
    cfg = AgentConfig(window_length=5.0, quiet_period=30.0,
                      local_trigger_count=5,
                      hyperparams=SomHyperParams(initial_learning_rate=0.01,
                                                 initial_radius=0.5))
    return Agent("a1", labeled_map(), cfg, **kw)


def ingest(a, flows, now):
    """`a.ingest` given the vectors a run gives it: the flows extracted over
    the window that closes at `now`."""
    L = a.config.window_length
    vectors = extract(flows, a.config.feature_mode, NormalizationSpec(),
                      window_stats(flows, now - L, L))
    return a.ingest(flows, vectors, now)


def make_policy(pid="pol-1", role=ROLE_SOURCE, agent="a1", issued=0.0,
                ttl=300.0):
    return Policy(policy_id=pid, target_addrs=[2], attack_method="syn_flood",
                  role=role, issued_at=issued,
                  expires_at=issued + ttl, agent_id=agent)


def test_normal_mode_forwards_everything():
    a = fresh_agent()
    flows = [benign_flow(i, 0.5 + 0.1 * i) for i in range(4)]
    verdicts, work = ingest(a, flows, 5.0)
    assert [v.decision for v in verdicts] == [FORWARD] * 4
    assert a.mode == NORMAL
    assert work == 4                       # training only, no classification
    assert a.flows_forwarded == 4


def test_ingest_takes_one_vector_per_flow():
    a = fresh_agent()
    flows = [benign_flow(0, 1.0), benign_flow(1, 1.5)]
    with pytest.raises(ValueError, match="2 flows but 1 vectors"):
        a.ingest(flows, np.zeros((1, 5)), 5.0)


def test_training_continues_in_normal_mode():
    a = fresh_agent()
    before = a.som.epoch
    ingest(a, [benign_flow(0, 1.0)], 5.0)
    assert a.som.epoch == before + 1


def test_local_trigger_arms_protection():
    a = fresh_agent()
    flows = [malicious_flow(i, 1.0 + 0.1 * i, src=200 + i) for i in range(5)]
    ingest(a, flows, 5.0)
    assert a.mode == PROTECTION
    assert a.last_malicious_seen == 5.0
    assert any(e["kind"] == "mode" and e["mode"] == PROTECTION for e in a.log)


def test_below_trigger_stays_normal():
    a = fresh_agent()
    flows = [malicious_flow(i, 1.0, src=200 + i) for i in range(4)]
    verdicts, _ = ingest(a, flows, 5.0)
    assert a.mode == NORMAL
    assert all(v.decision == FORWARD for v in verdicts)


def test_protection_drops_malicious_forwards_benign():
    a = fresh_agent()
    a._enter_protection(5.0, "test")
    flows = [benign_flow(0, 5.5), malicious_flow(1, 5.5)]
    verdicts, work = ingest(a, flows, 10.0)
    by_id = {v.flow_id: v for v in verdicts}
    assert by_id["b0"].decision == FORWARD
    assert by_id["m1"].decision == DROP
    assert by_id["m1"].reason == R_SOM_MALICIOUS
    assert work == 4                       # 2 classified + 2 trained


def test_policy_drops_heavy_flows_and_blocks_no_source():
    a = fresh_agent()
    a.apply_policy(make_policy(), 10.0)
    heavy = malicious_flow(0, 10.5, src=300, pkts=1200)
    verdicts, _ = ingest(a, [heavy], 15.0)
    assert (verdicts[0].decision, verdicts[0].reason) == (DROP, R_POLICY_DROP)
    # the source's next flow is classified on its own
    verdicts, _ = ingest(a, [benign_flow(1, 15.5, src=300)], 20.0)
    assert verdicts[0].decision == FORWARD and verdicts[0].classified


def test_policy_addressing_rejected():
    a = fresh_agent()
    with pytest.raises(ValueError, match="addressed"):
        a.apply_policy(make_policy(agent="other"), 1.0)


def test_destination_policy_drops_attack_flows():
    # a policy of either role arms protection with the agent's own trained map
    a = fresh_agent()
    a.apply_policy(make_policy(role=ROLE_DESTINATION), 1.0)
    assert a.mode == PROTECTION
    verdicts, work = ingest(a, [benign_flow(0, 5.5), malicious_flow(1, 5.5)], 10.0)
    by_id = {v.flow_id: v for v in verdicts}
    assert by_id["b0"].decision == FORWARD
    assert (by_id["m1"].decision, by_id["m1"].reason) == (DROP, R_POLICY_DROP)
    assert all(v.classified for v in verdicts)
    assert work == 4                       # 2 classified + 2 trained
    assert a.flows_dropped == 1


def test_quiet_period_deactivates():
    a = fresh_agent()
    a.last_malicious_seen = 0.0
    a._enter_protection(0.0, "test")
    a.tick(29.0)
    assert a.mode == PROTECTION
    a.tick(31.0)
    assert a.mode == NORMAL
    assert any(e["kind"] == "mode" and e["why"] == "quiet_period" for e in a.log)


def test_active_policy_overrides_quiet_period():
    a = fresh_agent()
    a.last_malicious_seen = 0.0
    a.apply_policy(make_policy(ttl=1000.0), 0.0)
    a.tick(500.0)
    assert a.mode == PROTECTION            # policy still unexpired
    a.tick(1001.0)
    assert a.mode == NORMAL
    assert a.active_policy is None


def test_filter_always_on_never_deactivates():
    a = Agent("a1", labeled_map(), AgentConfig(), filter_always_on=True)
    assert a.mode == PROTECTION
    a.tick(10000.0)
    assert a.mode == PROTECTION


def test_report_conservation():
    a = fresh_agent()
    flows = [benign_flow(i, 1.0, src=100 + i % 3, dst=2 + i % 2) for i in range(7)]
    flows += [malicious_flow(i, 2.0, src=200 + i) for i in range(3)]
    ingest(a, flows, 5.0)
    rep = a.make_report(flows)
    assert rep.agent_id == "a1"
    dests = rep.per_destination.values()
    assert sum(d.flows for d in dests) == 10
    assert sum(d.packets for d in dests) == sum(f.packet_count for f in flows)
    assert {dst: d.flows for dst, d in rep.per_destination.items()} == {2: 7, 3: 3}


def test_empty_window_report():
    a = fresh_agent()
    ingest(a, [], 5.0)
    rep = a.make_report([])
    assert rep.per_destination == {}


def test_observe_records_without_filtering():
    a = fresh_agent()
    epoch = a.som.epoch
    a.observe([benign_flow(0, 1.0), malicious_flow(1, 1.0)])
    assert a.som.epoch == epoch            # no training
    assert a.flows_processed == 2
    assert a.flows_forwarded == 0
    assert a.log == []


def agent_invariant_holds(a, now):
    """mode == Protection iff malicious seen within quiet_period or an
    unexpired policy is active; checked at tick boundaries."""
    policy_active = a.active_policy is not None and a.active_policy.expires_at > now
    recent = (a.last_malicious_seen is not None and
              now - a.last_malicious_seen <= a.config.quiet_period)
    if a.mode == PROTECTION:
        return recent or policy_active
    return not policy_active


def test_fuzzed_interleavings_small():
    # a short version of the acceptance-gate fuzz; see test_acceptance.py
    rng = np.random.default_rng(123)
    for trial in range(40):
        a = fresh_agent()
        now = 0.0
        counters = (0, 0, 0, 0)
        for step in range(25):
            op = rng.integers(4)
            if op == 0:
                k = int(rng.integers(0, 8))
                flows = [malicious_flow(f"{trial}-{step}-{i}", now + 0.1,
                                        src=200 + int(rng.integers(5)))
                         if rng.random() < 0.4 else
                         benign_flow(f"{trial}-{step}-{i}", now + 0.1,
                                     src=100 + int(rng.integers(5)))
                         for i in range(k)]
                mode_before = a.mode
                verdicts, _ = ingest(a, flows, now + 5.0)
                now += 5.0
                enforced = [v for v in verdicts if v.decision != FORWARD]
                if enforced:
                    assert a.mode == PROTECTION
                if mode_before == NORMAL and a.mode == NORMAL:
                    assert not enforced
            elif op == 1:
                now += float(rng.uniform(0.0, 20.0))
                a.tick(now)
                assert agent_invariant_holds(a, now)
            elif op == 2 and rng.random() < 0.3:
                a.apply_policy(make_policy(pid=f"p{trial}-{step}", issued=now,
                                           ttl=float(rng.uniform(5, 60))), now)
                assert a.mode == PROTECTION
            new = (a.flows_processed, a.flows_forwarded + a.flows_dropped,
                   a.work_units, a.som.epoch)
            assert all(n >= o for n, o in zip(new, counters))
            counters = new
        assert a.flows_processed == a.flows_forwarded + a.flows_dropped
