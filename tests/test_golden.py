"""Golden event-log digests: the reference matrix at seed 0 must reproduce the
per-cell digests pinned in perfbench/golden.json ("ref-matrix").  A change
that alters any simulated outcome, or only the order of logged events, fails
here; a change that moves digests on purpose re-pins both places.

The off-default timing cells pin the message schedule where delays reach
past a window: zero delays, analyses that end after the next window closes,
centralized verdicts that return after the run ends, policies that arrive
after the last window, and policies that arrive exactly as a window closes
(applied before the agents step).

Three more scenarios pin paths the reference never takes: a volumetric DNS
flood, a victim inside monitor-net, which then gets a destination policy,
and monitor-net's cameras on UDP, whose few heavy flows toward one sink
must not read as an attack."""
import pytest

from mecshield.config import SCHEMES, parse_config, reference_config, reference_config_dict
from mecshield.harness import event_log_digest, run, run_matrix

GOLDEN_REF_MATRIX = {
    ("centralized", 100.0): "64e62d1e7411e9f31b891bf62e111386b3184df1caa06a00078e19741f0e8e1f",
    ("centralized", 300.0): "c13a1d47803f6241bcd7f5e22af22c8c89689c0f91c4e79d381e3f7fbb4086b1",
    ("distributed", 100.0): "861fdd61ae85fccc1000273956a0ef5c095a9907d9dcb8bbea8c1137b7891a74",
    ("distributed", 300.0): "51a4b84084243085edb336b990bb385c05e2f1e04d5e6c9acfee568a2dd3a384",
    ("mecshield", 100.0): "5b22b8607026b38f31aa24597fcf66d46ef18f115236e05988144cef0777a077",
    ("mecshield", 300.0): "9eb0c4983a1bfda0e49c6682e2b66bf5d4b6f40edf5c78bcb57f3f4511e06e81",
}


def test_reference_matrix_digests_are_pinned():
    doc = reference_config_dict(seed=0)
    doc["attack_levels"] = [100, 300]
    doc["scenario"]["pretrain_samples"] = 2000
    rc = parse_config(doc)
    rows, _ = run_matrix(rc.scenario, rc.schemes, rc.attack_levels)
    got = {(r["scheme"], r["attack_level"]): r["event_digest"] for r in rows}
    assert got == GOLDEN_REF_MATRIX


# (link_delay, analysis_delay, policy_ttl) -> scheme -> digest; seed 0,
# level 300, 600 pretraining samples
GOLDEN_TIMING = {
    (0.0, 0.0, 300.0): {
        "centralized": "a49e9fa306ff3a1181d64b9004d6f338b80dd14ebcb119959b2b8408ab33449d",
        "distributed": "5f635a46ca46dcafe0e7869f1417a71abf220a1e9dc8b6fa0ff9b75a2fe6dca0",
        "mecshield": "7571883216a399275618a59df15993c8a8ad762b19cd8897a59cd1396793a403",
    },
    (1.7, 6.3, 7.0): {
        "centralized": "8e81d04dc45ae086f55ce91cdd24b34e25e1647f92d3f979f25013de46414258",
        "distributed": "d341c6a068b44326b6eef4f20abe3995eaecb96504c73d40cafb113f17880e94",
        "mecshield": "16e6d325a1451afb3a83261738491e93296b9f9991eced3da4ed5f633f23900a",
    },
    (2.5, 0.0, 300.0): {
        "centralized": "e742cf16f6f645c800a787f0fd351beca14fb441ea62bf6a1faabadd68084ced",
        "distributed": "00cddeed194f75642cc2441841802eac16c00f268fa147d04ae50c59797a5502",
        "mecshield": "a7530d44bd699cf3aef98272a4bf2c11e5544e346d5d7d1b9df1572e23e834c2",
    },
    (5.0, 5.0, 2.0): {
        "centralized": "6b1cffae218fcba1d368e833660ff1418600819b06c8209e3a502e5942abcf9c",
        "distributed": "d5cd22dcd518b8c565a8ab01088e675d09bd4844fad45267d91bc568a65323d2",
        "mecshield": "69828c806140ec4e359c6fe9c3eb59024b4cd62f756a106dc5439547d3d76bc7",
    },
}
# mecshield policies applied after the last window, per timing setting
LATE_POLICIES = {(0.0, 0.0, 300.0): 0, (1.7, 6.3, 7.0): 1, (2.5, 0.0, 300.0): 0,
                 (5.0, 5.0, 2.0): 3}


@pytest.mark.parametrize("timing", sorted(GOLDEN_TIMING))
def test_off_default_timing_digests_are_pinned(timing):
    cache: dict = {}
    got = {}
    for scheme in SCHEMES:
        cfg = reference_config().scenario_for(scheme, 300, seed=0)
        cfg.pretrain_samples = 600
        cfg.link_delay, cfg.analysis_delay, cfg.policy_ttl = timing
        _, events = run(cfg, cache=cache)
        got[scheme] = event_log_digest(events)
        if scheme == "mecshield":
            late = [e for e in events
                    if e["kind"] == "policy_applied" and e["t"] > cfg.duration]
            assert len(late) == LATE_POLICIES[timing]
    assert got == GOLDEN_TIMING[timing]


def _volumetric_doc() -> dict:
    doc = reference_config_dict(seed=0)
    doc["scenario"]["attacks"] = [
        {"scenario": "volumetric", "sub_mode": "dns", "agent": "sensor-net",
         "start_time": 25.0, "target_addr": 0xD0000001, "bot_count": 20,
         "requests_per_bot_per_s": 2}]
    return doc


def _inside_victim_doc() -> dict:
    doc = reference_config_dict(seed=0)
    for atk in doc["scenario"]["attacks"]:
        atk["target_addr"] = 0x0A010005     # a host in monitor-net
    return doc


def _udp_monitor_doc() -> dict:
    doc = reference_config_dict(seed=0)
    profile = doc["scenario"]["agents"][1]["profile"]     # monitor-net
    profile["protocol"], profile["packets_per_flow"] = "UDP", 600.0
    return doc


SCENARIOS = {"volumetric": _volumetric_doc, "inside-victim": _inside_victim_doc,
             "udp-monitor": _udp_monitor_doc}

# scenario -> scheme -> digest; seed 0, level 300, 600 pretraining samples
GOLDEN_SCENARIOS = {
    "volumetric": {
        "centralized": "10fc0db8fdc47ba4e8a4fcb11e3ae10aaeb788663e36aa1f782fcd934dee53d5",
        "distributed": "419aff6ab89751a59f7bdd8bf3e04f8b1d3d5cde11ef5a010e2357c31e3c2eab",
        "mecshield": "745acf8298c0117913aea7c8f3ba48253d6d227a780390a89770b94e798022b0",
    },
    "inside-victim": {
        "centralized": "a909f5359e841245e4c21c8bd66a4dba0bc1cef89ff3839fb77b660ed039a3ba",
        "distributed": "4ff004ba8dd70710ecd54a8e2093451cfe8e29273bc91244ea87df4463cef59b",
        "mecshield": "012158764114beb144548b3ca4aac3dca62c4a9a3ac90245b0591a27936333b8",
    },
    "udp-monitor": {
        "centralized": "1e8565920eedd1e01d2c86b69e423693f4787ca8351f1b8e5413f10e13e30037",
        "distributed": "d3e8f314002d2cff4d5368e20568b52fec7edddbf68429b450a6f62a84e6d1d7",
        "mecshield": "9e9895f84e8942498435dded1a141c0c2e26f250cfe8dcb6708cf0ffa7cb72cf",
    },
}


@pytest.mark.parametrize("name", sorted(GOLDEN_SCENARIOS))
def test_scenario_digests_are_pinned(name):
    rc = parse_config(SCENARIOS[name]())
    cache: dict = {}
    got = {}
    for scheme in SCHEMES:
        cfg = rc.scenario_for(scheme, 300, seed=0)
        cfg.pretrain_samples = 600
        _, events = run(cfg, cache=cache)
        got[scheme] = event_log_digest(events)
        if name == "inside-victim" and scheme == "mecshield":
            # the destination policy arms monitor-net's own trained map, so
            # the agent classifies its window's flows from then on
            applied = [e["t"] for e in events if e["kind"] == "policy_applied"
                       and e["agent"] == "monitor-net"]
            assert applied == [30.07]
            assert any(e["kind"] == "policy" and e["agent"] == "monitor-net"
                       and e["role"] == "destination" for e in events)
            classified = [e["t"] for e in events if e["kind"] == "classify"
                          and e["agent"] == "monitor-net"]
            assert len(classified) == 9
            assert min(classified) > 30.07
        if name == "udp-monitor":
            # the cameras' flows name no attack and draw no policy; only the
            # sensor-side flood is detected, and every classified flow is
            # forwarded as benign or dropped as malicious, by the map or
            # under a policy
            assert {e["method"] for e in events
                    if e["kind"] == "attack_detected"} == {"syn_flood"}
            assert not any(e["kind"] == "policy" and e["agent"] == "monitor-net"
                           for e in events)
            decided = {(e["decision"], e["reason"]) for e in events
                       if e["kind"] == "classify"}
            assert decided and decided <= {("forward", "benign"), ("drop", "som_malicious"),
                                           ("drop", "policy_drop")}
    assert got == GOLDEN_SCENARIOS[name]
