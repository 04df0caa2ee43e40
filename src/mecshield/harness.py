"""Deterministic simulation wiring agents, controller, traffic generation
and link delays, for three filtering schemes:

  mecshield    local SOM per agent, protection armed on demand, controller
               dispatches policies only to implicated agents
  distributed  locally trained maps merged at the controller and redistributed;
               every agent keeps its filter on
  centralized  all traffic forwarded to one SOM at the controller; verdicts
               return after the round trip

`run` steps one loop over the windows.  The pass of window w, which closes
at t = round((w+1)*L, 9), applies the policies that arrived by t (at t too)
in dispatch order, steps every agent in sorted order, logs the `filters`
event at the unrounded (w+1)*L, then collects and analyzes the reports.  The
analysis ends at a = round(round(t + link, 9) + analysis, 9) and each policy
arrives at round(a + link, 9).  A centralized batch reaches the controller's
map at b = round(t + link, 9) and its verdicts return at
round(b + analysis + link, 9).  Delays may exceed a window: an analysis
changes only the controller and a policy acts only once it arrives, so each
window's analysis runs in its own pass, and policies still in flight after
the last window are applied at their arrival times.
"""
from __future__ import annotations

import hashlib
import json
import math
import zlib
from dataclasses import dataclass

import numpy as np

from .agent import Agent, BLOCK, DROP, FORWARD, PROTECTION
from .config import (SCHEME_CENTRALIZED, SCHEME_DISTRIBUTED, SCHEME_MECSHIELD,
                     AgentSpec, ScenarioConfig, host_addrs, pretrain_duration)
from .controller import Controller
from .errors import ConfigError
from .features import FeatureMode, MODE_DIM, NormalizationSpec, extract, window_stats
from .som import BENIGN, MALICIOUS, SomMap, init_map, merge_maps
from .traffic import FlowRecord, LABEL_MALICIOUS, gen_attack, gen_benign


def derive_seed(root: int, *tags) -> list[int]:
    """Stable child seed material for independent random streams."""
    out = [int(root) & 0xFFFFFFFF]
    for t in tags:
        out.append(zlib.crc32(str(t).encode()) & 0xFFFFFFFF)
    return out


@dataclass
class RunMetrics:
    scheme: str
    attack_level: float
    seed: int
    reaction_time: float | None
    detection_rate: float | None
    accuracy: float | None
    tp: int
    fp: int
    tn: int
    fn: int
    controller_work_by_window: dict      # window index -> work units
    controller_work_attack_mean: float | None
    active_filters_by_window: dict
    active_filter_integral: float
    flows_presented: int
    flows_forwarded: int
    flows_dropped: int
    flows_blocked: int
    total_traffic_bytes: float


# -- traffic layout --------------------------------------------------------

def generate_traffic(cfg: ScenarioConfig) -> dict[str, list[FlowRecord]]:
    """All run-phase flows, grouped by observing agent (matched on source
    address range, since agents monitor outgoing traffic).  Scheme-independent
    given (seed, level): paired runs see identical traffic."""
    by_agent: dict[str, list[FlowRecord]] = {a.agent_id: [] for a in cfg.agents}
    for i, a in enumerate(cfg.agents):
        flows = gen_benign(a.benign_profile(), cfg.duration,
                           seed=derive_seed(cfg.seed, "benign", a.agent_id),
                           src_base=a.addr_lo, dst_addr=0xC0A80000 + i)
        by_agent[a.agent_id].extend(flows)
    agent_by_id = {a.agent_id: a for a in cfg.agents}
    for k, atk in enumerate(cfg.leveled_attacks()):
        host = agent_by_id[atk.agent_id]
        dur = cfg.duration - atk.start_time
        flows = gen_attack(atk.profile, dur,
                           seed=derive_seed(cfg.seed, "attack", k, cfg.attack_level),
                           src_base=host_addrs(host.addr_lo, atk.profile.bot_count,
                                               atk.src_offset, k).start,
                           t0=atk.start_time)
        for f in flows:
            for a in cfg.agents:
                if a.addr_lo <= f.src_addr <= a.addr_hi:
                    by_agent[a.agent_id].append(f)
                    break
            # flows from outside every range (e.g. reflector responses) are
            # not observed by any source-site agent
    for flows in by_agent.values():
        flows.sort(key=lambda f: (f.start_time, f.flow_id))
    return by_agent


def _window_buckets(flows: list[FlowRecord],
                    window_length: float) -> dict[int, list[FlowRecord]]:
    """The flows grouped by the index of the window they start in."""
    buckets: dict[int, list[FlowRecord]] = {}
    for f in flows:
        buckets.setdefault(int(f.start_time // window_length), []).append(f)
    return buckets


def flows_to_samples(flows: list[FlowRecord], mode: FeatureMode,
                     spec: NormalizationSpec, window_length: float,
                     count: int | None = None):
    """Window the flows and extract one labeled vector per flow, in window
    order; with a `count`, only the first `count` of them.  Windows are
    extracted independently, so extraction stops after the window that
    reaches `count`."""
    vectors, labels = [], []
    for w, batch in sorted(_window_buckets(flows, window_length).items()):
        if count is not None and len(vectors) >= count:
            break
        stats = window_stats(batch, w * window_length, window_length)
        vecs = extract(batch, mode, spec, stats)
        for v, f in zip(vecs, batch):
            vectors.append(v)
            labels.append(MALICIOUS if f.truth_label == LABEL_MALICIOUS else BENIGN)
    return vectors[:count], labels[:count]


def build_training_set(cfg: ScenarioConfig, agent: AgentSpec):
    """Pretraining samples for one agent: its own benign category mixed with
    the scenario's attack shapes, shuffled deterministically."""
    n_mal = int(cfg.pretrain_samples * cfg.pretrain_malicious_fraction)
    n_ben = cfg.pretrain_samples - n_mal
    profile = agent.benign_profile()

    def take(n, dur, gen, what):
        """The first n samples of gen(dur) flows, doubling dur until enough."""
        for _ in range(6):
            vecs, labs = flows_to_samples(gen(dur), cfg.feature_mode, cfg.norm_spec,
                                          cfg.window_length, count=n)
            if len(vecs) == n:
                return vecs, labs
            dur *= 2.0
        raise ConfigError(f"could not generate {n} {what} pretraining samples "
                          f"for {agent.agent_id}")

    vectors, labels = take(
        n_ben, pretrain_duration(n_ben, profile.flow_rate(), malicious=False),
        lambda dur: gen_benign(profile, dur,
                               seed=derive_seed(cfg.seed, "pretrain-b", agent.agent_id),
                               src_base=agent.addr_lo),
        "benign")
    attacks = cfg.leveled_attacks()
    if attacks and n_mal:
        share = [n_mal // len(attacks)] * len(attacks)
        share[0] += n_mal - sum(share)
        for k, atk in enumerate(attacks):
            vecs, labs = take(
                share[k],
                pretrain_duration(share[k], atk.profile.flow_rate(), malicious=True),
                lambda dur: gen_attack(atk.profile, dur,
                                       seed=derive_seed(cfg.seed, "pretrain-m", agent.agent_id, k),
                                       src_base=host_addrs(agent.addr_lo, atk.profile.bot_count,
                                                           atk.src_offset, k).start),
                "attack")
            vectors.extend(vecs)
            labels.extend(labs)
    rng = np.random.default_rng(derive_seed(cfg.seed, "shuffle", agent.agent_id))
    order = rng.permutation(len(vectors))
    return [vectors[i] for i in order], [labels[i] for i in order]


def train_map(cfg: ScenarioConfig, vectors, labels) -> SomMap:
    """A labeled map trained on the samples, as every run and `mecshield
    train` train it."""
    # every map starts from one shared initial codebook (the controller hands
    # out the untrained map), so per-neuron merging stays meaningful
    m = init_map(cfg.som_width, cfg.som_height, MODE_DIM[cfg.feature_mode],
                 seed=derive_seed(cfg.seed, "som")[-1])
    m.train(vectors, labels, cfg.hyperparams)
    m.label_neurons()
    return m


def _filters(cfg: ScenarioConfig, cache: dict | None):
    """The cell's filters: (controller map or None, one map per agent).

    mecshield and distributed train one local map per agent (distributed then
    merges them); centralized pools every agent's samples into one map at the
    controller, and its agents, which only observe, get none.  Pretraining
    reads only the seed and the level of what `for_cell` varies, so it is
    kept in `cache` under that key.  Every cell gets copies, because agents
    and the controller keep training their maps online."""
    entry = {} if cache is None else cache.setdefault((cfg.seed, cfg.attack_level), {})
    if "training" not in entry:
        entry["training"] = [build_training_set(cfg, a) for a in cfg.agents]
    training = entry["training"]
    if cfg.scheme == SCHEME_CENTRALIZED:
        if "central" not in entry:
            vecs = [v for t in training for v in t[0]]
            labs = [l for t in training for l in t[1]]
            order = np.random.default_rng(derive_seed(cfg.seed, "pool")).permutation(len(vecs))
            entry["central"] = train_map(cfg, [vecs[i] for i in order],
                                         [labs[i] for i in order])
        return entry["central"].copy(), [None] * len(cfg.agents)
    if "local" not in entry:
        entry["local"] = [train_map(cfg, *t) for t in training]
    if cfg.scheme == SCHEME_DISTRIBUTED:
        merged = merge_maps(entry["local"])
        return None, [merged.copy() for _ in entry["local"]]
    return None, [m.copy() for m in entry["local"]]


# -- the event loop --------------------------------------------------------

# the `cache` entry in which `run` leaves the last cell's canonical lines
_LINES = "lines"


def run(cfg: ScenarioConfig,
        cache: dict | None = None) -> tuple[RunMetrics, list[dict]]:
    """Simulate one (scheme, level, seed) cell; returns metrics and the full
    event log.  Identical configs produce identical logs.

    `cache` keeps pretraining across cells that differ only in scheme, level
    and seed (the copies `ScenarioConfig.for_cell` makes of one config); it
    never changes the log.  The log is sorted on each event's canonical line,
    `json.dumps(e, sort_keys=True)`, built here once per event; with a
    `cache`, run also leaves the cell's lines, in log order, in
    `cache[_LINES]` for `run_matrix` to hash and write."""
    cfg.validate()
    events: list[dict] = []
    flows_by_agent = generate_traffic(cfg)
    total_bytes = sum(f.byte_count for flows in flows_by_agent.values() for f in flows)
    n_windows = int(round(cfg.duration / cfg.window_length))
    events.append({
        "kind": "run_info", "t": 0.0, "scheme": cfg.scheme,
        "attack_level": cfg.attack_level, "seed": cfg.seed,
        "window_length": cfg.window_length, "duration": cfg.duration,
        "link_delay": cfg.link_delay, "analysis_delay": cfg.analysis_delay,
        "n_agents": len(cfg.agents), "n_windows": n_windows,
        "attack_start": min((a.start_time for a in cfg.attacks), default=None),
        "total_traffic_bytes": total_bytes,
    })
    for agent_id in sorted(flows_by_agent):
        mal = [f.start_time for f in flows_by_agent[agent_id]
               if f.truth_label == LABEL_MALICIOUS]
        if mal:
            events.append({"kind": "first_malicious_arrival", "t": min(mal),
                           "agent": agent_id})

    central_map, maps = _filters(cfg, cache)
    # only mecshield arms filters on demand; the others count as always on
    agents = {a.agent_id: Agent(a.agent_id, m, cfg, log=events,
                                filter_always_on=(cfg.scheme != SCHEME_MECSHIELD))
              for a, m in zip(cfg.agents, maps)}

    topology = {a.agent_id: [(a.addr_lo, a.addr_hi)] for a in cfg.agents}
    controller = Controller(topology, thresholds=cfg.detection,
                            policy_ttl=cfg.policy_ttl, log=events)

    window_flows = {agent_id: _window_buckets(flows, cfg.window_length)
                    for agent_id, flows in flows_by_agent.items()}
    agent_order = sorted(agents)
    ctrl_work_by_window: dict[int, int] = {w: 0 for w in range(n_windows)}
    agent_work_by_window: dict[int, int] = {w: 0 for w in range(n_windows)}

    def ctrl_window(t: float) -> int:
        return min(n_windows - 1, int((t - 1e-9) // cfg.window_length))

    def log_verdicts(agent_id, flows, verdicts):
        for f, v in zip(flows, verdicts):
            if v.classified or v.decision != FORWARD:
                events.append({
                    "kind": "classify", "t": v.decided_at, "agent": agent_id,
                    "flow_id": v.flow_id, "decision": v.decision,
                    "reason": v.reason, "predicted": v.predicted,
                    "truth": f.truth_label})

    link, analysis = cfg.link_delay, cfg.analysis_delay
    in_flight: list = []    # (arrival, policy), sorted: analyses end in window order

    def deliver(until: float) -> None:
        while in_flight and in_flight[0][0] <= until:
            at, policy = in_flight.pop(0)
            agents[policy.agent_id].apply_policy(policy, at)

    for w in range(n_windows):
        t = round((w + 1) * cfg.window_length, 9)
        deliver(t)
        reports = []
        for agent_id in agent_order:
            agent = agents[agent_id]
            agent.tick(t)
            flows = window_flows[agent_id].get(w, [])
            if central_map is None:
                verdicts, work = agent.ingest(flows, t)
                agent_work_by_window[w] += work
                log_verdicts(agent_id, flows, verdicts)
            else:
                stats = agent.observe(flows, t)
                if flows:
                    b = round(t + link, 9)
                    vecs = extract(flows, cfg.feature_mode, cfg.norm_spec, stats)
                    labels = central_map.classify_batch(vecs)
                    for v, lab in zip(vecs, labels):
                        central_map.train_step(v, cfg.hyperparams, label=lab)
                    # one unit per flow classified, one per flow trained
                    controller.work_units += 2 * len(flows)
                    ctrl_work_by_window[ctrl_window(b)] += 2 * len(flows)
                    log_verdicts(agent_id, flows, agent.enforce(
                        flows, labels, round(b + analysis + link, 9)))
            reports.append(agent.make_report())
        events.append({"kind": "filters", "t": (w + 1) * cfg.window_length,
                       "window": w,
                       "active": sum(1 for a in agents.values() if a.mode == PROTECTION)})
        analyzed = round(round(t + link, 9) + analysis, 9)
        before = controller.work_units
        assessment = controller.analyze(controller.collect(reports))
        ctrl_work_by_window[ctrl_window(analyzed)] += controller.work_units - before
        if assessment.detected:
            events.append({"kind": "attack_detected", "t": analyzed,
                           "method": assessment.method,
                           "victims": sorted(assessment.victim_addrs)})
            if cfg.scheme == SCHEME_MECSHIELD:
                in_flight.extend((round(analyzed + link, 9), p)
                                 for p in controller.dispatch(assessment, analyzed))
    deliver(math.inf)

    for agent_id in agent_order:
        a = agents[agent_id]
        events.append({"kind": "agent_summary", "t": cfg.duration, "agent": agent_id,
                       "processed": a.flows_processed, "forwarded": a.flows_forwarded,
                       "dropped": a.flows_dropped, "blocked": a.flows_blocked,
                       "work_units": a.work_units})
    events.append({"kind": "controller_summary", "t": cfg.duration,
                   "work_units": controller.work_units,
                   "work_by_window": {str(k): v for k, v in sorted(ctrl_work_by_window.items())},
                   "agent_work_by_window": {str(k): v for k, v in sorted(agent_work_by_window.items())},
                   "warnings": list(controller.warnings)})
    # the index keeps equal keys in log order, as a stable sort would, so
    # the sort never compares two events
    keyed = sorted((e["t"], _EVENT_RANK.get(e["kind"], len(_EVENT_RANK)),
                    _canonical(e), i) for i, e in enumerate(events))
    events = [events[k[3]] for k in keyed]
    if cache is not None:
        cache[_LINES] = [k[2] for k in keyed]
    del keyed
    return compute_metrics(events), events


# json.dumps(e, sort_keys=True) without building an encoder per event
_canonical = json.JSONEncoder(sort_keys=True).encode

_EVENT_RANK = {kind: i for i, kind in enumerate(
    ["run_info", "first_malicious_arrival", "mode", "policy_applied", "policy",
     "attack_detected", "classify", "filters", "agent_summary", "controller_summary"])}


# -- metrics ---------------------------------------------------------------

def compute_metrics(events: list[dict]) -> RunMetrics:
    """Recompute all run metrics from the event log alone; bit-stable."""
    info = next(e for e in events if e["kind"] == "run_info")
    tp = fp = tn = fn = 0
    first_mal: dict[str, float] = {}
    first_enforced: dict[str, float] = {}
    missing_truth = False
    for e in events:
        if e["kind"] == "first_malicious_arrival":
            first_mal[e["agent"]] = e["t"]
        elif e["kind"] == "classify":
            truth = e.get("truth")
            if truth is None:
                missing_truth = True
                continue
            predicted_malicious = e["decision"] in (DROP, BLOCK)
            if truth == LABEL_MALICIOUS:
                if predicted_malicious:
                    tp += 1
                else:
                    fn += 1
            else:
                if predicted_malicious:
                    fp += 1
                else:
                    tn += 1
            if predicted_malicious and e["agent"] not in first_enforced:
                first_enforced[e["agent"]] = e["t"]
    if missing_truth:
        raise ValueError("event log is missing ground-truth labels")
    classified = tp + fp + tn + fn
    dr = tp / (tp + fn) if (tp + fn) else None
    acc = (tp + tn) / classified if classified else None
    reactions = [max(0.0, first_enforced[agent_id] - t0)
                 for agent_id, t0 in first_mal.items() if agent_id in first_enforced]
    reaction = sum(reactions) / len(reactions) if reactions else None

    summary = next(e for e in events if e["kind"] == "controller_summary")
    ctrl_work = {int(k): v for k, v in summary["work_by_window"].items()}
    filters = {e["window"]: e["active"] for e in events if e["kind"] == "filters"}
    win_len = info["window_length"]
    attack_start = info.get("attack_start")
    if attack_start is not None:
        attack_windows = [w for w in ctrl_work
                          if (w + 1) * win_len > attack_start]
        vals = [ctrl_work[w] for w in attack_windows]
        ctrl_attack_mean = sum(vals) / len(vals) if vals else None
    else:
        ctrl_attack_mean = None
    agg = {"processed": 0, "forwarded": 0, "dropped": 0, "blocked": 0}
    for e in events:
        if e["kind"] == "agent_summary":
            for k in agg:
                agg[k] += e[k]
    return RunMetrics(
        scheme=info["scheme"], attack_level=info["attack_level"], seed=info["seed"],
        reaction_time=reaction,
        detection_rate=dr, accuracy=acc, tp=tp, fp=fp, tn=tn, fn=fn,
        controller_work_by_window=ctrl_work,
        controller_work_attack_mean=ctrl_attack_mean,
        active_filters_by_window=filters,
        active_filter_integral=sum(filters.values()) * win_len,
        flows_presented=agg["processed"], flows_forwarded=agg["forwarded"],
        flows_dropped=agg["dropped"], flows_blocked=agg["blocked"],
        total_traffic_bytes=info["total_traffic_bytes"],
    )


def _lines_digest(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()


def event_log_digest(events: list[dict]) -> str:
    """SHA-256 of the log's events.jsonl lines.  It serializes every event
    itself, so it checks a log independently of the lines `run` built and
    `run_matrix` hashed."""
    return _lines_digest(json.dumps(e, sort_keys=True) for e in events)


METRIC_COLUMNS = ["scheme", "attack_level", "seed", "reaction_time",
                  "detection_rate", "accuracy", "tp", "fp", "tn", "fn",
                  "controller_work_attack_mean", "active_filter_integral",
                  "flows_presented", "flows_forwarded", "flows_dropped",
                  "flows_blocked", "total_traffic_bytes", "event_digest"]


def metrics_row(m: RunMetrics, digest: str) -> dict:
    row = {c: getattr(m, c) for c in METRIC_COLUMNS if c != "event_digest"}
    row["event_digest"] = digest
    return row


def run_matrix(base_cfg: ScenarioConfig, schemes: list[str],
               attack_levels: list[float], out=None):
    """Cross product of (scheme, level) runs; traffic seeds are shared within a
    level so every scheme faces identical flows, and pretraining is done once
    per level.

    Each cell's digest hashes the canonical lines `run` built for its sort.
    With an open text stream `out`, those lines are written to it as each
    cell finishes (scheme by level, one line per event: events.jsonl), and
    dropped before the next cell starts.

    Returns (rows, per-cell event logs keyed by (scheme, level)).
    """
    if not schemes or not attack_levels:
        raise ConfigError("run_matrix needs nonempty scheme and level lists")
    rows = []
    logs = {}
    cache: dict = {}
    for scheme in schemes:
        for level in attack_levels:
            metrics, events = run(base_cfg.for_cell(scheme, level), cache=cache)
            lines = cache.pop(_LINES)
            if out is not None:
                for line in lines:
                    out.write(line + "\n")
            rows.append(metrics_row(metrics, _lines_digest(lines)))
            logs[(scheme, float(level))] = events
            del lines
    return rows, logs
