"""Golden event-log digests: the reference matrix at seed 0 must reproduce the
per-cell digests pinned in perfbench/golden.json ("ref-matrix").  A change
that alters any simulated outcome, or only the order of logged events, fails
here; a change that moves digests on purpose re-pins both places."""
from mecshield.config import parse_config, reference_config_dict
from mecshield.harness import run_matrix

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
