"""Simulation harness tests: determinism, paired traffic, conservation,
metrics recomputation, the run matrix and its pretraining cache."""
import copy
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from mecshield import harness
from mecshield.config import SCHEMES, reference_config
from mecshield.controller import Controller
from mecshield.errors import ConfigError
from mecshield.harness import (build_training_set, compute_metrics, derive_seed,
                               event_log_digest, flows_to_samples, generate_traffic,
                               metrics_row,
                               METRIC_COLUMNS, run, run_matrix)
from mecshield.traffic import LABEL_MALICIOUS



def small_cfg(scheme="mecshield", seed=3, level=100.0):
    """Reference scenario shrunk for unit-test speed."""
    rc = reference_config()
    cfg = rc.scenario_for(scheme, level, seed=seed)
    cfg.pretrain_samples = 800
    cfg.duration = 40.0
    return cfg


def tiny_cfg(scheme="mecshield", seed=3, level=100.0):
    """Smaller still: a cell in about a quarter of a second."""
    cfg = small_cfg(scheme, seed, level)
    cfg.pretrain_samples = 300
    cfg.duration = 30.0
    return cfg


def test_derive_seed_stable_and_distinct():
    a = derive_seed(7, "x", 1)
    assert a == derive_seed(7, "x", 1)
    assert a != derive_seed(7, "x", 2)
    assert a != derive_seed(8, "x", 1)


def test_scenario_validation_errors():
    cfg = small_cfg()
    bad = copy.deepcopy(cfg)
    bad.scheme = "quantum"
    with pytest.raises(ConfigError, match="scheme"):
        bad.validate()
    bad = copy.deepcopy(cfg)
    bad.agents[1].addr_lo = bad.agents[0].addr_lo
    bad.agents[1].addr_hi = bad.agents[0].addr_hi
    with pytest.raises(ConfigError, match="overlap"):
        bad.validate()
    bad = copy.deepcopy(cfg)
    bad.attacks[0].agent_id = "nonexistent"
    with pytest.raises(ConfigError, match="unknown agent"):
        bad.validate()
    bad = copy.deepcopy(cfg)
    bad.attacks[0].start_time = bad.duration + 1
    with pytest.raises(ConfigError, match="start_time"):
        bad.validate()
    bad = copy.deepcopy(cfg)
    bad.duration = 4.5 * bad.window_length      # a partial last window
    with pytest.raises(ConfigError, match="whole number of windows"):
        bad.validate()
    nan, inf = float("nan"), float("inf")
    for name, value in [("policy_ttl", 0.0), ("base_level", 0.0),
                        ("attack_level", 0.0), ("attack_level", -50.0),
                        ("pretrain_samples", 0), ("som_width", 0),
                        ("som_height", 0), ("policy_ttl", nan),
                        ("duration", nan), ("duration", inf),
                        ("window_length", nan), ("window_length", inf),
                        ("link_delay", nan), ("link_delay", inf),
                        ("analysis_delay", nan), ("analysis_delay", inf),
                        ("base_level", nan), ("base_level", inf),
                        ("attack_level", nan), ("attack_level", inf)]:
        bad = copy.deepcopy(cfg)
        setattr(bad, name, value)
        with pytest.raises(ConfigError, match=name):
            bad.validate()


def test_traffic_is_scheme_independent():
    flows = {}
    for scheme in SCHEMES:
        cfg = small_cfg(scheme=scheme)
        flows[scheme] = generate_traffic(cfg)
    base = flows["mecshield"]
    for scheme in SCHEMES[1:]:
        other = flows[scheme]
        assert set(other) == set(base)
        for agent_id in base:
            assert [f.__dict__ for f in other[agent_id]] == \
                   [f.__dict__ for f in base[agent_id]]


def test_traffic_level_scales_attack_only():
    lo = generate_traffic(small_cfg(level=50.0))
    hi = generate_traffic(small_cfg(level=200.0))
    def count(fl, label):
        return sum(1 for flows in fl.values() for f in flows
                   if (f.truth_label == LABEL_MALICIOUS) == (label == "mal"))
    assert count(hi, "ben") == count(lo, "ben")
    # the scaled flood grows with level; the fixed-rate component does not
    assert count(hi, "mal") > 2 * count(lo, "mal")


def test_training_set_fraction_and_determinism():
    cfg = small_cfg()
    a = cfg.agents[0]
    v1, l1 = build_training_set(cfg, a)
    v2, l2 = build_training_set(cfg, a)
    assert len(v1) == cfg.pretrain_samples
    assert l1 == l2
    assert all((x == y).all() for x, y in zip(v1, v2))
    mal = sum(1 for x in l1 if x == "malicious")
    assert mal == int(cfg.pretrain_samples * cfg.pretrain_malicious_fraction)


def test_flows_to_samples_count_keeps_the_first_samples():
    cfg = tiny_cfg(level=300.0)
    flows = max(generate_traffic(cfg).values(), key=len)
    args = (cfg.feature_mode, cfg.norm_spec, cfg.window_length)
    vecs, labs = flows_to_samples(flows, *args)
    assert {"benign", "malicious"} <= set(labs)
    first_window = sum(1 for f in flows if f.start_time < cfg.window_length)
    for n in (0, 1, first_window, first_window + 1, len(vecs) - 1, len(vecs), len(vecs) + 7):
        got_v, got_l = flows_to_samples(flows, *args, count=n)
        assert got_l == labs[:n]
        assert [v.tobytes() for v in got_v] == [v.tobytes() for v in vecs[:n]]


def test_run_deterministic_event_log():
    m1, e1 = run(small_cfg())
    m2, e2 = run(small_cfg())
    assert event_log_digest(e1) == event_log_digest(e2)
    assert m1 == m2


def test_run_flow_conservation():
    for scheme in SCHEMES:
        m, events = run(small_cfg(scheme=scheme))
        assert m.flows_presented == (m.flows_forwarded + m.flows_dropped
                                     + m.flows_blocked)
        assert m.flows_presented > 0


def test_metrics_recompute_from_log_alone():
    m, events = run(small_cfg())
    # a fresh recomputation over the serialized log matches exactly
    assert compute_metrics(events) == m
    assert m.tp + m.fn > 0
    assert 0.0 <= m.detection_rate <= 1.0
    assert 0.0 <= m.accuracy <= 1.0
    assert m.reaction_time is None or m.reaction_time >= 0.0


def test_metrics_missing_truth_raises():
    _, events = run(small_cfg())
    broken = [dict(e) for e in events]
    for e in broken:
        if e["kind"] == "classify":
            e["truth"] = None
    with pytest.raises(ValueError, match="truth"):
        compute_metrics(broken)


def test_confusion_matrix_oracle():
    _, events = run(small_cfg())
    tp = fp = tn = fn = 0
    for e in events:
        if e["kind"] != "classify":
            continue
        mal = e["decision"] in ("drop", "block")
        if e["truth"] == "malicious":
            tp, fn = tp + mal, fn + (not mal)
        else:
            fp, tn = fp + mal, tn + (not mal)
    m = compute_metrics(events)
    assert (m.tp, m.fp, m.tn, m.fn) == (tp, fp, tn, fn)
    if tp + fn:
        assert m.detection_rate == pytest.approx(tp / (tp + fn))
    assert m.accuracy == pytest.approx((tp + tn) / (tp + fp + tn + fn))


@pytest.mark.parametrize("link_delay, analysis_delay",
                         [(0.0, 0.0), (0.0, 0.05), (0.01, 0.0)])
def test_every_analysis_sees_every_report(monkeypatch, link_delay, analysis_delay):
    cfg = tiny_cfg(level=300.0)
    cfg.link_delay, cfg.analysis_delay = link_delay, analysis_delay
    reporters = []
    collect = Controller.collect

    def recording(self, reports):
        reporters.append([r.agent_id for r in reports])
        return collect(self, reports)

    monkeypatch.setattr(Controller, "collect", recording)
    run(cfg)
    n_windows = round(cfg.duration / cfg.window_length)
    assert reporters == [sorted(a.agent_id for a in cfg.agents)] * n_windows


def test_centralized_roundtrip_delay():
    cfg = small_cfg(scheme="centralized")
    _, events = run(cfg)
    closes = {}
    for e in events:
        if e["kind"] == "classify":
            win_close = (int(e["t"] - cfg.link_delay * 2
                             - cfg.analysis_delay - 1e-9)
                         // int(cfg.window_length) + 1) * cfg.window_length
            # verdicts come back one full round trip after the window closes
            assert e["t"] == pytest.approx(
                win_close + 2 * cfg.link_delay + cfg.analysis_delay)


def test_filter_counts_by_scheme():
    always_on = {}
    for scheme in SCHEMES:
        m, _ = run(small_cfg(scheme=scheme))
        always_on[scheme] = m.active_filters_by_window
    n_agents = 3
    assert all(v == n_agents for v in always_on["distributed"].values())
    assert all(v == n_agents for v in always_on["centralized"].values())
    # mecshield leaves filters off before the attack starts
    pre_attack = [v for w, v in always_on["mecshield"].items() if w < 4]
    assert all(v == 0 for v in pre_attack)


def test_centralized_controller_work_covers_classification():
    m, events = run(small_cfg(scheme="centralized"))
    classified = sum(1 for e in events if e["kind"] == "classify")
    summary = next(e for e in events if e["kind"] == "controller_summary")
    assert summary["work_units"] >= classified


def test_run_matrix_shape_and_determinism():
    cfg = small_cfg()
    rows, logs = run_matrix(cfg, ["mecshield", "distributed"], [50.0, 100.0])
    assert len(rows) == 4
    assert set(logs) == {("mecshield", 50.0), ("mecshield", 100.0),
                         ("distributed", 50.0), ("distributed", 100.0)}
    for row in rows:
        assert list(row) == METRIC_COLUMNS
    rows2, _ = run_matrix(cfg, ["mecshield", "distributed"], [50.0, 100.0])
    assert rows == rows2
    with pytest.raises(ConfigError):
        run_matrix(cfg, [], [50.0])


def test_metrics_row_columns():
    m, events = run(small_cfg())
    row = metrics_row(m, event_log_digest(events))
    assert list(row) == METRIC_COLUMNS
    assert row["scheme"] == "mecshield"
    assert len(row["event_digest"]) == 64


@settings(deadline=None, max_examples=6)
@given(st.sampled_from(SCHEMES), st.integers(0, 10**6),
       st.sampled_from([50.0, 100.0, 300.0]))
def test_run_invariants_hold(scheme, seed, level):
    _, events = run(tiny_cfg(scheme, seed, level))
    summaries = [e for e in events if e["kind"] == "agent_summary"]
    assert len(summaries) == 3
    for e in summaries:
        assert e["processed"] == e["forwarded"] + e["dropped"] + e["blocked"]
    m = compute_metrics(events)
    assert m.tp + m.fp + m.tn + m.fn == sum(1 for e in events if e["kind"] == "classify")


def test_run_matrix_pretrains_once_and_matches_separate_runs(monkeypatch):
    cfg = tiny_cfg()
    levels = [50.0, 100.0]
    calls = []
    build = harness.build_training_set

    def counting(c, agent):
        calls.append((agent.agent_id, c.attack_level))
        return build(c, agent)

    monkeypatch.setattr(harness, "build_training_set", counting)
    rows, _ = run_matrix(cfg, list(SCHEMES), levels)
    assert sorted(calls) == sorted((a.agent_id, lv) for a in cfg.agents for lv in levels)
    got = {(r["scheme"], r["attack_level"]): r["event_digest"] for r in rows}
    separate = {(s, lv): event_log_digest(run(cfg.for_cell(s, lv))[1])
                for s in SCHEMES for lv in levels}
    assert got == separate
    # cells that share one cache keep getting untouched maps
    cache = {}
    for scheme in SCHEMES:
        for _ in range(2):
            _, events = run(cfg.for_cell(scheme, 100.0), cache=cache)
            assert event_log_digest(events) == separate[(scheme, 100.0)]


def test_digest_equal_across_interpreters():
    code = ("from mecshield.config import reference_config; "
            "from mecshield.harness import run, event_log_digest; "
            "cfg = reference_config().scenario_for('mecshield', 100.0, seed=5); "
            "cfg.pretrain_samples = 300; cfg.duration = 30.0; "
            "print(event_log_digest(run(cfg)[1]))")
    src = str(Path(__file__).resolve().parents[1] / "src")
    digests = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        digests.append(out.stdout.strip())
    assert len(digests[0]) == 64
    assert digests[0] == digests[1]
