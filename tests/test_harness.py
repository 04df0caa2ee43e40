"""Simulation harness tests: determinism, paired traffic, conservation,
metrics recomputation, the run matrix and its pretraining cache."""
import copy
import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
import zlib
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mecshield import harness, som
from mecshield.config import SCHEMES, parse_config, reference_config, reference_config_dict
from mecshield.controller import Controller
from mecshield.errors import ConfigError
from mecshield.features import FeatureMode, NormalizationSpec, extract_one, window_stats
from mecshield.harness import (MAP_SEED, build_training_set, compute_metrics, confusion,
                               derive_seed, event_log_digest, flows_to_samples,
                               generate_traffic, metrics_row, present_traffic,
                               METRIC_COLUMNS, run, run_matrix)
from mecshield.som import BENIGN, MALICIOUS
from mecshield.traffic import (ALARM, LABEL_MALICIOUS, MONITOR, SENSOR, AttackProfile,
                               BenignProfile, gen_attack, gen_benign)



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
    for name, value in [("policy_ttl", 0.0),
                        ("attack_level", 0.0), ("attack_level", -50.0),
                        ("pretrain_samples", 0), ("som_width", 0),
                        ("som_height", 0), ("policy_ttl", nan),
                        ("duration", nan), ("duration", inf),
                        ("window_length", nan), ("window_length", inf),
                        ("link_delay", nan), ("link_delay", inf),
                        ("analysis_delay", nan), ("analysis_delay", inf),
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


def test_levels_of_one_seed_share_benign_samples(monkeypatch):
    cfg = tiny_cfg()
    a = cfg.agents[0]
    levels = (50.0, 300.0)
    fresh = [build_training_set(cfg.for_cell("mecshield", lv), a) for lv in levels]
    cache = {}
    shared = [build_training_set(cfg.for_cell("mecshield", lv), a, cache=cache)
              for lv in levels]
    for (v1, l1), (v2, l2) in zip(fresh, shared):
        assert l1 == l2
        assert all((x == y).all() for x, y in zip(v1, v2))
    # the cached benign samples took none of the attack samples appended
    _, labs = cache[(cfg.seed, a.agent_id)]
    n_mal = int(cfg.pretrain_samples * cfg.pretrain_malicious_fraction)
    assert labs == ["benign"] * (cfg.pretrain_samples - n_mal)

    def no_benign(*args, **kwargs):
        raise AssertionError("benign flows generated again")

    monkeypatch.setattr(harness, "gen_benign", no_benign)
    vecs, _ = build_training_set(cfg.for_cell("mecshield", 100.0), a, cache=cache)
    assert len(vecs) == cfg.pretrain_samples


def test_monitor_training_set_memory_peak():
    # monitor-net's ~500-packet flows set the pretraining memory peak: with
    # timestamps packed 8 B per packet it is about 9 MiB here, against 29 MiB
    # when each was a Python float in a list
    cfg = reference_config().scenario_for("mecshield", 300.0, seed=0)
    cfg.pretrain_samples = 2000
    agent = next(a for a in cfg.agents if a.agent_id == "monitor-net")
    tracemalloc.start()
    try:
        build_training_set(cfg, agent)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 15 * 2**20


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


# generator, profile and keyword arguments of each drawn family
_FAMILIES = {
    "sensor": (gen_benign, BenignProfile(SENSOR, device_count=4, period=3.0,
                                         flow_duration=2.0), {}),
    "monitor": (gen_benign, BenignProfile(MONITOR, device_count=2, flows_per_minute=6.0,
                                          packets_per_flow=60.0, flow_duration=30.0), {}),
    "alarm": (gen_benign, BenignProfile(ALARM, device_count=5, event_rate=0.3,
                                        burst_flows=6, packets_per_flow=2.0,
                                        flow_duration=2.0), {}),
    "session_flood": (gen_attack, AttackProfile("app_layer", "session_flood", target_addr=9,
                                                bot_count=3, base_session_rate=0.4), {}),
    "burst": (gen_attack, AttackProfile("app_layer", "session_flood", target_addr=9,
                                        bot_count=2, base_session_rate=0.5, burst_size=5,
                                        burst_interval=0.3), {}),
    "request_flood": (gen_attack, AttackProfile("app_layer", "request_flood", target_addr=9,
                                                bot_count=2), {}),
    "asymmetric": (gen_attack, AttackProfile("app_layer", "asymmetric", target_addr=9,
                                             bot_count=2, base_session_rate=2.0), {}),
    "dns": (gen_attack, AttackProfile("volumetric", "dns", target_addr=9, bot_count=2,
                                      requests_per_bot_per_s=3.0), {}),
    "ntp": (gen_attack, AttackProfile("volumetric", "ntp", target_addr=9, bot_count=2,
                                      spoofing=False, requests_per_bot_per_s=2.0), {}),
}


def _windows(flows, window_length):
    """Flow ids by window, in window order."""
    out = {}
    for f in flows:
        out.setdefault(int(f.start_time // window_length), []).append(f.flow_id)
    return dict(sorted(out.items()))


@settings(deadline=None, max_examples=120)
@given(st.sampled_from(sorted(_FAMILIES)), st.floats(0.5, 60.0),
       st.one_of(st.just(0.7), st.floats(0.2, 12.0)),
       st.one_of(st.integers(0, 40), st.integers(0, 2000)),
       st.one_of(st.just(0.0), st.floats(0.0, 100.0)),
       st.sampled_from(list(FeatureMode)), st.integers(0, 2**32 - 1))
def test_windowed_build_gives_the_same_training_set(family, duration, window_length,
                                                   count, t0, mode, seed):
    gen, profile, kw = _FAMILIES[family]
    full = gen(profile, duration, seed, t0=t0, **kw)
    part = gen(profile, duration, seed, t0=t0, windows=(window_length, count), **kw)
    spec = NormalizationSpec()
    want_v, want_l = flows_to_samples(full, mode, spec, window_length, count=count)
    got_v, got_l = flows_to_samples(part, mode, spec, window_length, count=count)
    assert got_l == want_l
    assert [v.tobytes() for v in got_v] == [v.tobytes() for v in want_v]
    by_id = {f.flow_id: f for f in full}
    assert all(f.__dict__ == by_id[f.flow_id].__dict__ for f in part)
    # the leading windows, whole, and no more than hold `count` flows
    want, got = _windows(full, window_length), _windows(part, window_length)
    assert list(got.items()) == list(want.items())[:len(got)]
    sizes = [len(ids) for ids in got.values()]
    assert not sizes or sum(sizes[:-1]) < count
    assert sum(sizes) >= count or got == want


def test_run_deterministic_event_log():
    m1, e1 = run(small_cfg())
    m2, e2 = run(small_cfg())
    assert event_log_digest(e1) == event_log_digest(e2)
    assert m1 == m2


def test_run_flow_conservation():
    for scheme in SCHEMES:
        m, events = run(small_cfg(scheme=scheme))
        assert m.flows_presented == m.flows_forwarded + m.flows_dropped
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


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.booleans(), st.booleans()), max_size=40))
def test_confusion_matches_a_four_way_count(pairs):
    want = {k: 0 for k in ("tp", "fp", "tn", "fn")}
    for truth, called in pairs:
        want[("t" if truth == called else "f") + ("p" if called else "n")] += 1
    tp, fp, tn, fn, dr, acc = confusion(iter(pairs))
    assert (tp, fp, tn, fn) == (want["tp"], want["fp"], want["tn"], want["fn"])
    positives = sum(truth for truth, _ in pairs)
    assert (dr is None) == (positives == 0)
    assert (acc is None) == (not pairs)
    if positives:
        assert dr == tp / positives
    if pairs:
        assert acc == (tp + tn) / len(pairs)


def test_cells_at_two_seeds_start_from_one_codebook(monkeypatch):
    """Map seeding ignores the run's seed: every map of every cell starts
    from the codebook of MAP_SEED, which is crc32("som")."""
    assert MAP_SEED == zlib.crc32(b"som")
    starts = []
    init_map = harness.init_map

    def recording(*args, **kw):
        m = init_map(*args, **kw)
        starts.append(m.weights.copy())
        return m

    monkeypatch.setattr(harness, "init_map", recording)
    for seed in (3, 4):
        run(tiny_cfg(seed=seed))
    cfg = tiny_cfg()
    first = init_map(cfg.som_width, cfg.som_height, starts[0].shape[1],
                     seed=MAP_SEED).weights
    assert len(starts) == 2 * len(cfg.agents)
    for w in starts:
        assert (w == first).all()


@pytest.mark.parametrize("link_delay, analysis_delay",
                         [(0.0, 0.0), (0.0, 0.05), (0.01, 0.0)])
def test_every_analysis_sees_every_report(monkeypatch, link_delay, analysis_delay):
    cfg = tiny_cfg(level=300.0)
    cfg.link_delay, cfg.analysis_delay = link_delay, analysis_delay
    reporters = []
    collect = Controller.collect

    def recording(self, reports):
        reporters.append([(r.agent_id,
                           sum(d.flows for d in r.per_destination.values()),
                           sum(d.packets for d in r.per_destination.values()))
                          for r in reports])
        return collect(self, reports)

    monkeypatch.setattr(Controller, "collect", recording)
    run(cfg)
    # each report carries exactly the flows its agent was presented that window
    windows = present_traffic(cfg).windows
    n_windows = round(cfg.duration / cfg.window_length)
    assert reporters == [[(agent_id, len(windows[agent_id][w].flows),
                           sum(f.packet_count for f in windows[agent_id][w].flows))
                          for agent_id in sorted(windows)]
                         for w in range(n_windows)]


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


def test_event_log_digest_hashes_json_dumps_lines():
    _, events = run(tiny_cfg(level=300.0))
    h = hashlib.sha256()
    for e in events:
        h.update((json.dumps(e, sort_keys=True) + "\n").encode())
    assert event_log_digest(events) == h.hexdigest()


# any text: non-ASCII, quotes, backslashes, control characters, lone surrogates
_ANY_TEXT = st.text(st.characters(codec=None, exclude_categories=()))
_ANY_T = st.floats(allow_nan=False, allow_infinity=False) | st.integers() | \
    st.integers(-2**62, 2**62).map(float)


def _classify_event(agent, flow_id, t, predicted, decision="drop",
                    reason="som_malicious", truth="malicious"):
    return {"kind": "classify", "t": t, "agent": agent, "flow_id": flow_id,
            "decision": decision, "reason": reason, "predicted": predicted,
            "truth": truth}


@settings(max_examples=300)
@given(_ANY_TEXT, _ANY_TEXT, _ANY_T, st.none() | _ANY_TEXT, _ANY_TEXT)
def test_line_of_a_classify_event_is_its_json_dumps(agent, flow_id, t, predicted, reason):
    e = _classify_event(agent, flow_id, t, predicted, reason=reason)
    # the template, not the encoder, builds it
    with mock.patch.object(harness, "_canonical", side_effect=AssertionError):
        line = harness._line(e)
    assert line == json.dumps(e, sort_keys=True)


@pytest.mark.parametrize("change", [
    {"extra": 1}, {"t": True}, {"t": np.float64(20.5)},
    {"t": float("inf")}, {"t": float("nan")}, {"agent": 7}, {"predicted": 1.5},
    {"kind": "mode", "mode": "normal", "why": "quiet_period"},
])
def test_line_falls_back_to_the_encoder(change):
    e = {**_classify_event("sensor-net", "f-1", 20.0, "benign"), **change}
    assert harness._line(e) == json.dumps(e, sort_keys=True)
    e.pop("truth")
    assert harness._line(e) == json.dumps(e, sort_keys=True)


def test_lines_of_a_run_with_a_quoted_non_ascii_agent_id():
    doc = reference_config_dict(seed=3)
    old, new = "sensor-net", 'sénsor "net"\\'
    for a in doc["scenario"]["agents"]:
        a["id"] = new if a["id"] == old else a["id"]
    for atk in doc["scenario"]["attacks"]:
        atk["agent"] = new if atk["agent"] == old else atk["agent"]
    doc["scenario"].update(duration=30.0, pretrain_samples=300)
    cache = {}
    _, events = run(parse_config(doc).scenario_for("mecshield", 300.0), cache=cache)
    lines = cache[harness._LINES]
    assert lines == [json.dumps(e, sort_keys=True) for e in events]
    assert sum(e["kind"] == "classify" and e["agent"] == new for e in events) > 0
    assert {e["kind"] for e in events} >= {"run_info", "classify", "filters",
                                           "agent_summary", "controller_summary"}


def test_run_matrix_drops_each_level_after_its_last_scheme(monkeypatch):
    # every level's traffic is presented, and every cell's maps pretrained
    # and trained online, before the first cell, and a level is dropped
    # after its last scheme's cell
    cfg = tiny_cfg()
    levels = [50.0, 100.0]
    seen = []
    real_run = harness.run

    def recording(c, cache=None):
        seen.append(((c.scheme, c.attack_level),
                     {k: (set(v), set(v["online"])) for k, v in cache.items()
                      if isinstance(k[1], float)}))
        return real_run(c, cache=cache)

    monkeypatch.setattr(harness, "run", recording)
    rows, _ = run_matrix(cfg, ["mecshield", "centralized"], levels)
    s = cfg.seed
    level = ({"training", "local", "central", "traffic", "online"},
             {"mecshield", "centralized"})
    assert seen == [(("mecshield", 50.0), {(s, 50.0): level, (s, 100.0): level}),
                    (("mecshield", 100.0), {(s, 50.0): level, (s, 100.0): level}),
                    (("centralized", 50.0), {(s, 50.0): level, (s, 100.0): level}),
                    (("centralized", 100.0), {(s, 100.0): level})]
    monkeypatch.setattr(harness, "run", real_run)
    assert rows == run_matrix(cfg, ["mecshield", "centralized"], levels)[0]


def test_pretraining_pass_gives_each_map_train_map_alone(monkeypatch):
    # the reference at 300 samples: a run matrix pretrains every level's
    # local and central maps in one lockstep pass before its first cell, a
    # run without a cache trains its own cell's maps in one pass, and each
    # map equals `train_map` on the same samples
    cfg = tiny_cfg()
    levels = [100.0, 300.0]
    passes, entries = [], []
    real_pass, real_pretrain = harness.train_maps, harness.pretrain

    def counting(c, sample_sets):
        passes.append(len(sample_sets))
        return real_pass(c, sample_sets)

    def recording(cells, cache):
        entries.extend(cells)
        return real_pretrain(cells, cache)

    monkeypatch.setattr(harness, "train_maps", counting)
    monkeypatch.setattr(harness, "pretrain", recording)
    run_matrix(cfg, list(SCHEMES), levels)
    # 3 agents' local maps and 1 central map per level; every cell's own
    # pretrain call then finds its maps in the cache
    assert passes == [2 * 4]
    matrix_entries = {id(e): (c, e) for c, e in entries}
    assert len(matrix_entries) == len(levels)
    for scheme in SCHEMES:
        entries.clear()
        passes.clear()
        run(cfg.for_cell(scheme, 300.0))
        assert passes == [1 if scheme == "centralized" else 3]
        (c, entry), = entries
        assert ("central" in entry) == (scheme == "centralized")
        assert ("local" in entry) == (scheme != "centralized")
        matrix_entries[id(entry)] = c, entry
    checked = 0
    for c, entry in matrix_entries.values():
        training = entry["training"]
        if "local" in entry:
            for m, samples in zip(entry["local"], training, strict=True):
                assert m.to_dict() == harness.train_map(c, *samples).to_dict()
                checked += 1
        if "central" in entry:
            pooled = harness.pooled_samples(c, training)
            assert entry["central"].to_dict() == harness.train_map(c, *pooled).to_dict()
            checked += 1
    assert checked == 2 * 4 + 3 + 3 + 1


def test_run_matrix_trains_every_filter_online_in_one_pass(monkeypatch):
    # a two-level run matrix trains every cell's filters online in one
    # `som.train_maps` call before its first cell (after the pretraining
    # call), and each cell gets, for each agent and window, the labels a run
    # without a cache computes for it alone
    cfg = tiny_cfg()
    levels = [100.0, 300.0]
    calls, entries = [], []
    real_train, real_pass = som.train_maps, harness.online_pass

    def counting(maps, batches, hp, labels=None, **kw):
        calls.append((len(maps), kw.get("self_labeled", False)))
        return real_train(maps, batches, hp, labels, **kw)

    def recording(cells, cache):
        entries.extend(cells)
        return real_pass(cells, cache)

    monkeypatch.setattr(som, "train_maps", counting)
    monkeypatch.setattr(harness, "online_pass", recording)
    run_matrix(cfg, list(SCHEMES), levels)
    # per level: 3 local maps and 1 central map pretrained; 3 agent maps
    # each for mecshield and distributed and 1 controller map online
    assert calls == [(2 * 4, False), (2 * 7, True)]
    matrix = {(c.scheme, c.attack_level): e["online"][c.scheme] for c, e in entries}
    assert len(matrix) == len(SCHEMES) * len(levels)
    for (scheme, level), labels in matrix.items():
        entries.clear()
        calls.clear()
        run(cfg.for_cell(scheme, level))
        maps = 1 if scheme == "centralized" else 3
        assert calls == [(maps, False), (maps, True)]
        (c, entry), = entries
        assert entry["online"] == {scheme: labels}
        windows = entry["traffic"].windows
        assert {a: [len(x) for x in by_window] for a, by_window in labels.items()} == \
            {a: [len(win.flows) for win in wins] for a, wins in windows.items()}
        assert {lab for by_window in labels.values() for x in by_window for lab in x} \
            <= {BENIGN, MALICIOUS}


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
    calls, traffic_calls = [], []
    build, generate = harness.build_training_set, harness.generate_traffic

    def counting(c, agent, **kw):
        calls.append((agent.agent_id, c.attack_level))
        return build(c, agent, **kw)

    def counting_traffic(c):
        traffic_calls.append((c.seed, c.attack_level))
        return generate(c)

    monkeypatch.setattr(harness, "build_training_set", counting)
    monkeypatch.setattr(harness, "generate_traffic", counting_traffic)
    rows, _ = run_matrix(cfg, list(SCHEMES), levels)
    assert sorted(calls) == sorted((a.agent_id, lv) for a in cfg.agents for lv in levels)
    assert sorted(traffic_calls) == [(cfg.seed, lv) for lv in levels]
    got = {(r["scheme"], r["attack_level"]): r["event_digest"] for r in rows}
    separate = {(s, lv): event_log_digest(run(cfg.for_cell(s, lv))[1])
                for s in SCHEMES for lv in levels}
    assert got == separate
    # cells that share one cache keep getting untouched maps and traffic,
    # and the cells of two seeds interleaved through it each get their own
    other = cfg.seed + 1
    separate.update({(s, other): event_log_digest(run(cfg.for_cell(s, 100.0, seed=other))[1])
                     for s in SCHEMES})
    cache = {}
    for scheme in SCHEMES:
        for _ in range(2):
            _, events = run(cfg.for_cell(scheme, 100.0), cache=cache)
            assert event_log_digest(events) == separate[(scheme, 100.0)]
            _, events = run(cfg.for_cell(scheme, 100.0, seed=other), cache=cache)
            assert event_log_digest(events) == separate[(scheme, other)]


def test_presented_vectors_are_each_agents_window_exactly():
    # at L = 0.7 the window an agent closes at round((w+1)*L, 9) does not
    # start at w*L in floats, and contiguity reads the start
    cfg = tiny_cfg(level=300.0)
    cfg.window_length = 0.7
    cfg.duration = 0.7 * 43
    L = cfg.window_length
    traffic = harness.present_traffic(cfg)
    flows_by_agent = generate_traffic(cfg)
    assert set(traffic.windows) == set(flows_by_agent)
    rows = moved = 0
    for agent_id, windows in traffic.windows.items():
        assert len(windows) == 43
        assert [f for win in windows for f in win.flows] == flows_by_agent[agent_id]
        for w, win in enumerate(windows):
            start = round((w + 1) * L, 9) - L
            assert win.vectors.shape == (len(win.flows), 5)
            with pytest.raises(ValueError, match="read-only"):
                win.vectors[...] = 0.0
            stats = window_stats(win.flows, start, L)
            naive = window_stats(win.flows, w * L, L)
            for flow, row in zip(win.flows, win.vectors):
                want = extract_one(flow, cfg.feature_mode, cfg.norm_spec, stats)
                assert row.tobytes() == want.tobytes()
                rows += 1
                moved += row.tobytes() != extract_one(
                    flow, cfg.feature_mode, cfg.norm_spec, naive).tobytes()
    assert moved > 0 and rows > moved
    assert traffic.total_traffic_bytes == sum(
        f.byte_count for flows in flows_by_agent.values() for f in flows)
    assert traffic.first_malicious_arrival == {
        a: min(f.start_time for f in flows if f.truth_label == LABEL_MALICIOUS)
        for a, flows in sorted(flows_by_agent.items())
        if any(f.truth_label == LABEL_MALICIOUS for f in flows)}


def _samples_by_flow(flows, mode, spec, window_length, count=None):
    """`flows_to_samples` flow by flow: each window's statistics over all its
    flows from `window_stats`, each vector from `extract_one`."""
    buckets = {}
    for f in flows:
        buckets.setdefault(int(f.start_time // window_length), []).append(f)
    vectors, labels = [], []
    for w in sorted(buckets):
        stats = window_stats(buckets[w], w * window_length, window_length)
        for f in buckets[w]:
            if count is not None and len(vectors) == count:
                return vectors, labels
            vectors.append(extract_one(f, mode, spec, stats))
            labels.append(MALICIOUS if f.truth_label == LABEL_MALICIOUS else BENIGN)
    return vectors, labels


@settings(deadline=None, max_examples=60)
@given(st.lists(st.sampled_from(sorted(_FAMILIES)), min_size=1, max_size=2),
       st.floats(0.5, 60.0), st.one_of(st.just(0.7), st.floats(0.2, 12.0)),
       st.none() | st.integers(0, 40) | st.integers(0, 2000),
       st.sampled_from(list(FeatureMode)), st.integers(0, 2**32 - 1))
def test_flows_to_samples_matches_a_per_window_loop(families, duration, window_length,
                                                    count, mode, seed):
    flows = []
    for family in families:
        gen, profile, kw = _FAMILIES[family]
        flows += gen(profile, duration, seed, **kw)
    # small caps and quantum, so that no component sits at its clamp
    spec = NormalizationSpec(flow_count_cap=40, packets_per_flow_cap=60,
                             activity_quantum=0.3)
    want_v, want_l = _samples_by_flow(flows, mode, spec, window_length, count)
    got_v, got_l = flows_to_samples(flows, mode, spec, window_length, count=count)
    assert got_l == want_l
    assert [v.tobytes() for v in got_v] == [v.tobytes() for v in want_v]


def test_presented_destination_vectors_are_each_agents_window_exactly():
    cfg = tiny_cfg(level=300.0)
    cfg.feature_mode = FeatureMode.DESTINATION_SITE
    L = cfg.window_length
    for windows in present_traffic(cfg).windows.values():
        for w, win in enumerate(windows):
            stats = window_stats(win.flows, round((w + 1) * L, 9) - L, L)
            assert win.vectors.shape == (len(win.flows), 3)
            assert [row.tobytes() for row in win.vectors] == [
                extract_one(f, cfg.feature_mode, cfg.norm_spec, stats).tobytes()
                for f in win.flows]


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
