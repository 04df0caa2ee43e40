"""Acceptance gate: one test per release criterion, each printing a single
pass/fail line.  The scheme-comparison criteria share one 10-seed sweep of the
built-in reference scenario (session fixture below, its seeds spread over two
worker processes), so this module takes longest; run it with
`pytest tests/test_acceptance.py -v -s`.
"""
from array import array
from concurrent.futures import ProcessPoolExecutor
import hashlib
import math
import multiprocessing
import os
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from mecshield.agent import AgentConfig, FORWARD, NORMAL, PROTECTION
from mecshield.cli import main
from mecshield.config import reference_config
from mecshield.harness import run
from mecshield.som import (BENIGN, MALICIOUS, SomHyperParams, SomMap,
                           init_map)
from mecshield.traffic import (AMPLIFICATION, AttackProfile, FlowRecord,
                               gen_attack, load_flow_csv)
from test_agent import MapAgent, ingest

DATA = Path(__file__).parent / "data"
LEVELS = [50.0, 100.0, 200.0, 300.0]
SEEDS = list(range(10))


def report(num, desc, ok):
    print(f"\ncriterion {num:2d} [{'PASS' if ok else 'FAIL'}] {desc}")
    assert ok, f"criterion {num} failed: {desc}"


def _seed_cells(seed):
    """One seed's cells of the sweep, which share one cache.  A worker process
    does not inherit pytest's warning filters, so it sets the one the tests
    run under."""
    cells = {}
    cache = {}
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for scheme, levels in [("mecshield", LEVELS), ("centralized", LEVELS),
                               ("distributed", [100.0])]:
            for level in levels:
                cfg = reference_config().scenario_for(scheme, level, seed=seed)
                metrics, _ = run(cfg, cache=cache)
                cells[(scheme, level, seed)] = metrics
    return cells


@pytest.fixture(scope="session")
def sweep():
    """Reference-scenario metrics for the scheme-comparison criteria:
    mecshield and centralized across all levels, distributed at level 100,
    all over 10 paired seeds.  The cells of one seed share pretraining and
    traffic; the seeds run in worker processes, one per core (at most two)."""
    cells = {}
    with ProcessPoolExecutor(max_workers=min(2, os.cpu_count() or 1),
                             mp_context=multiprocessing.get_context("spawn")) as pool:
        for seed_cells in pool.map(_seed_cells, SEEDS):
            cells.update(seed_cells)
    base = reference_config().scenario
    meta = {"link_delay": base.link_delay,
            "window_length": base.window_length,
            "attack_start": min(a.start_time for a in base.attacks)}
    return cells, meta


def test_criterion_1_winner_oracle():
    rng = np.random.default_rng(1001)
    t0 = time.perf_counter()
    checked = 0
    for _ in range(250):
        for w, h in [(2, 2), (20, 20)]:
            for dim in (3, 5):
                if checked >= 1000:
                    break
                m = init_map(w, h, dim, seed=int(rng.integers(1 << 30)))
                v = rng.uniform(0.0, 1.0, size=dim)
                best, best_d = 0, float("inf")
                for j in range(m.neuron_count):
                    d = math.sqrt(float(((m.weights[j] - v) ** 2).sum()))
                    if d < best_d:
                        best, best_d = j, d
                assert m.find_winner(v) == best
                checked += 1
    elapsed = time.perf_counter() - t0
    report(1, f"find_winner == exhaustive argmin on {checked} pairs "
              f"({elapsed:.2f}s)", checked == 1000 and elapsed < 5.0)


def test_criterion_2_geometric_convergence():
    # effectively constant alpha = 0.5 and zero radius
    hp = SomHyperParams(initial_learning_rate=0.5, initial_radius=1e-9,
                        lr_decay_constant=1e15, radius_decay_constant=1e15)
    m = init_map(1, 1, 5, seed=7)
    target = np.array([1.0, 0.0, 1.0, 0.0, 1.0])
    d_prev = float(np.linalg.norm(m.weights[0] - target))
    assert d_prev > 0
    worst = 0.0
    for _ in range(20):
        m.train_step(target, hp)
        d = float(np.linalg.norm(m.weights[0] - target))
        worst = max(worst, abs(d - 0.5 * d_prev) / (0.5 * d_prev))
        d_prev = d
    report(2, f"winner distance halves for 20 steps (max rel err {worst:.2e})",
           worst < 1e-9)


def test_criterion_3_cmd_run_determinism(tmp_path):
    digests = []
    for name in ("run1", "run2"):
        out = tmp_path / name
        assert main(["run", "--out", str(out)]) == 0
        digests.append({
            "metrics": hashlib.sha256((out / "metrics.csv").read_bytes()).hexdigest(),
            "events": hashlib.sha256((out / "events.jsonl").read_bytes()).hexdigest(),
        })
    ok = digests[0] == digests[1]
    report(3, "two cmd_run executions of the reference config are "
              "byte-identical", ok)


def test_criterion_4_latency_ordering(sweep):
    cells, meta = sweep
    gap_floor = 2 * meta["link_delay"]
    bad = []
    for level in LEVELS:
        for seed in SEEDS:
            rm = cells[("mecshield", level, seed)].reaction_time
            rc = cells[("centralized", level, seed)].reaction_time
            if rm is None or rc is None or not (rc - rm >= gap_floor):
                bad.append((level, seed, rm, rc))
    report(4, f"centralized reaction exceeds mecshield by >= 2*link_delay in "
              f"{40 - len(bad)}/40 cells", not bad)


def test_criterion_5_detection_quality_ordering(sweep):
    cells, _ = sweep
    means = {}
    for scheme in ("mecshield", "distributed", "centralized"):
        ms = [cells[(scheme, 100.0, s)] for s in SEEDS]
        means[scheme] = (sum(m.detection_rate for m in ms) / len(ms),
                         sum(m.accuracy for m in ms) / len(ms))
    (m_dr, m_acc) = means["mecshield"]
    (d_dr, d_acc) = means["distributed"]
    (c_dr, c_acc) = means["centralized"]
    ok = (m_dr >= d_dr >= c_dr and m_acc >= d_acc >= c_acc
          and (m_dr - c_dr) >= 0.03)
    report(5, f"DR {m_dr:.3f} >= {d_dr:.3f} >= {c_dr:.3f}, "
              f"ACC {m_acc:.3f} >= {d_acc:.3f} >= {c_acc:.3f}, "
              f"localization margin {(m_dr - c_dr) * 100:.1f}pp", ok)


def test_criterion_6_controller_load_separation(sweep):
    cells, meta = sweep
    win = meta["window_length"]
    bad = 0
    checked = 0
    for level in LEVELS:
        for seed in SEEDS:
            wm = cells[("mecshield", level, seed)].controller_work_by_window
            wc = cells[("centralized", level, seed)].controller_work_by_window
            for w in wm:
                if (w + 1) * win <= meta["attack_start"]:
                    continue
                checked += 1
                if not wc.get(w, 0) >= 2 * wm[w]:
                    bad += 1
    report(6, f"centralized controller work >= 2x mecshield in "
              f"{checked - bad}/{checked} attack windows", checked and not bad)


def test_criterion_7_filter_economy(sweep):
    cells, _ = sweep
    ratios = []
    for seed in SEEDS:
        mec = cells[("mecshield", 100.0, seed)].active_filter_integral
        dist = cells[("distributed", 100.0, seed)].active_filter_integral
        assert mec < dist
        ratios.append(mec / dist)
    worst = max(ratios)
    report(7, f"filter-time integral ratio mecshield/distributed <= 2/3 "
              f"(worst {worst:.3f})", worst <= 2 / 3)


def test_criterion_8_amplification_fidelity():
    ntp = AttackProfile("volumetric", "ntp", target_addr=1, bot_count=20,
                        requests_per_bot_per_s=10.0)
    flows = gen_attack(ntp, 60.0, seed=88)
    reqs = {f.flow_id[4:]: f for f in flows if f.flow_id.startswith("req-")}
    ntp_exact = all(f.byte_count / reqs[f.flow_id[4:]].byte_count == 556.9
                    for f in flows if f.flow_id.startswith("rsp-"))

    dns = AttackProfile("volumetric", "dns", target_addr=1, bot_count=50,
                        requests_per_bot_per_s=4.0)
    flows = gen_attack(dns, 60.0, seed=89)
    reqs = {f.flow_id[4:]: f for f in flows if f.flow_id.startswith("req-")}
    lo, hi = AMPLIFICATION["dns"]
    ratios = [f.byte_count / reqs[f.flow_id[4:]].byte_count
              for f in flows if f.flow_id.startswith("rsp-")]
    dns_ok = len(ratios) >= 10000 and all(lo <= r <= hi for r in ratios)
    report(8, f"NTP ratio exactly 556.9; {len(ratios)} DNS ratios in [28,54]",
           ntp_exact and dns_ok)


def test_criterion_9_dataset_ingestion():
    flows = load_flow_csv(DATA / "caida_mix.csv")
    ben = [f for f in flows if f.truth_label == "benign"]
    mal = [f for f in flows if f.truth_label == "malicious"]
    tcp_normal = 100.0 * sum(f.protocol == "TCP" for f in ben) / len(ben)
    icmp_attack = 100.0 * sum(f.protocol == "ICMP" for f in mal) / len(mal)
    ok = abs(tcp_normal - 88.45) <= 1.0 and abs(icmp_attack - 91.25) <= 1.0
    report(9, f"CAIDA mix after load: normal TCP {tcp_normal:.2f}%, "
              f"attack ICMP {icmp_attack:.2f}%", ok)


def _fuzz_agent(seed):
    w = np.array([[0.0, 0.0, 0.0, 0.0, 0.2], [1.0, 1.0, 0.0, 0.0, 0.2]])
    m = SomMap(2, 1, 5, w)
    m.labels[:] = [BENIGN, MALICIOUS]
    m.benign_wins[:] = [10, 0]
    m.malicious_wins[:] = [0, 10]
    m.hit_counts[:] = [10, 10]
    cfg = AgentConfig(window_length=5.0, quiet_period=30.0,
                      local_trigger_count=5)
    return MapAgent(f"fz{seed}", m, cfg,
                    hp=SomHyperParams(initial_learning_rate=0.01, initial_radius=0.5))


def test_criterion_10_state_machine_safety():
    from mecshield.controller import (Policy, ROLE_SOURCE)
    rng = np.random.default_rng(4242)
    events = 0
    violations = 0

    def invariant(a, now):
        policy = (a.active_policy is not None
                  and a.active_policy.expires_at > now)
        recent = (a.last_malicious_seen is not None
                  and now - a.last_malicious_seen <= a.config.quiet_period)
        return (recent or policy) if a.mode == PROTECTION else not policy

    trial = 0
    while events < 10000:
        trial += 1
        a = _fuzz_agent(trial)
        now = 0.0
        for step in range(20):
            op = int(rng.integers(3))
            if op == 0:
                flows = []
                for i in range(int(rng.integers(0, 8))):
                    t = now + 0.1
                    if rng.random() < 0.4:
                        flows.append(FlowRecord(
                            f"m{trial}-{step}-{i}", 200 + int(rng.integers(5)),
                            2, "ICMP", 65000, 3, 600.0, t, t + 0.02,
                            packet_timestamps=array("d", [t, t + 0.01, t + 0.02]),
                            truth_label="malicious"))
                    else:
                        flows.append(FlowRecord(
                            f"b{trial}-{step}-{i}", 100 + int(rng.integers(5)),
                            2, "TCP", 80, 1, 60.0, t, t,
                            packet_timestamps=array("d", [t])))
                mode_before = a.mode
                verdicts, _ = ingest(a, flows, now + 5.0)
                now += 5.0
                enforced = [v for v in verdicts if v.decision != FORWARD]
                if enforced and a.mode != PROTECTION:
                    violations += 1
                if mode_before == NORMAL and a.mode == NORMAL and enforced:
                    violations += 1
            elif op == 1:
                now += float(rng.uniform(0.0, 20.0))
                a.tick(now)
                if not invariant(a, now):
                    violations += 1
            else:
                if rng.random() < 0.3:
                    ttl = float(rng.uniform(5.0, 60.0))
                    a.apply_policy(Policy(
                        policy_id=f"p{trial}-{step}", target_addrs=[2],
                        attack_method="syn_flood", role=ROLE_SOURCE,
                        issued_at=now,
                        expires_at=now + ttl, agent_id=a.agent_id),
                        now)
                    if a.mode != PROTECTION:
                        violations += 1
            events += 1
    report(10, f"{events} fuzzed agent events, {violations} safety/invariant "
               f"violations", violations == 0)


def test_criterion_11_separable_clusters():
    rng = np.random.default_rng(1111)

    def cluster(center, n):
        pts = center + rng.uniform(-0.04, 0.04, size=(n, 5))
        return np.clip(pts, 0.0, 1.0)

    ben_c = np.full(5, 0.15)
    mal_c = np.full(5, 0.85)
    assert np.linalg.norm(mal_c - ben_c) >= 0.8
    train = np.vstack([cluster(ben_c, 2000), cluster(mal_c, 2000)])
    labels = [BENIGN] * 2000 + [MALICIOUS] * 2000
    order = rng.permutation(4000)
    m = init_map(20, 20, 5, seed=3)
    m.train(train[order], [labels[i] for i in order], SomHyperParams())
    m.label_neurons()

    hold = np.vstack([cluster(ben_c, 500), cluster(mal_c, 500)])
    want = [BENIGN] * 500 + [MALICIOUS] * 500
    got = m.classify_batch(hold)
    tp = sum(1 for w, g in zip(want, got) if w == MALICIOUS and g == MALICIOUS)
    tn = sum(1 for w, g in zip(want, got) if w == BENIGN and g == BENIGN)
    dr = tp / 500
    acc = (tp + tn) / 1000
    report(11, f"separable clusters on a 20x20 map: DR={dr:.3f} ACC={acc:.3f}",
           dr == 1.0 and acc == 1.0)
