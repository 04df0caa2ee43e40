"""Golden event-log digests: the reference matrix at seed 0 must reproduce the
per-cell digests pinned in perfbench/golden.json ("ref-matrix").  A change
that alters any simulated outcome, or only the order of logged events, fails
here; a change that moves digests on purpose re-pins both places.

The off-default timing cells pin the message schedule where delays reach
past a window: zero delays, analyses that end after the next window closes,
centralized verdicts that return after the run ends, policies that arrive
after the last window, and policies that arrive exactly as a window closes
(applied before the agents step)."""
import pytest

from mecshield.config import parse_config, reference_config, reference_config_dict
from mecshield.harness import SCHEMES, event_log_digest, run, run_matrix

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
