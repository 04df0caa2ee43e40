"""Deterministic discrete-event simulation wiring agents, controller, traffic
generation and link delays, for three filtering schemes:

  mecshield    local SOM per agent, protection armed on demand, controller
               dispatches policies only to implicated agents
  distributed  locally trained maps merged at the controller and redistributed;
               every agent keeps its filter on
  centralized  all traffic forwarded to one SOM at the controller; verdicts
               return after the round trip
"""
from __future__ import annotations

import copy
import hashlib
import heapq
import json
import zlib
from dataclasses import dataclass, field, replace

import numpy as np

from .agent import Agent, AgentConfig, BLOCK, DROP, FORWARD, PROTECTION
from .controller import Controller, DetectionThresholds
from .errors import ConfigError
from .features import FeatureMode, MODE_DIM, NormalizationSpec, extract, window_stats
from .som import BENIGN, MALICIOUS, SomHyperParams, SomMap, init_map, merge_maps
from .traffic import (VOLUMETRIC, AttackProfile, BenignProfile,
                      FlowRecord, LABEL_MALICIOUS, default_benign_profile,
                      gen_attack, gen_benign)

SCHEME_MECSHIELD = "mecshield"
SCHEME_DISTRIBUTED = "distributed"
SCHEME_CENTRALIZED = "centralized"
SCHEMES = (SCHEME_MECSHIELD, SCHEME_DISTRIBUTED, SCHEME_CENTRALIZED)

# event ordering at equal timestamps: deliveries before the window that
# might consume their effects
_PRIO = {"policy": 0, "verdicts": 1, "analyze": 2, "batch": 3, "window": 4}


def derive_seed(root: int, *tags) -> list[int]:
    """Stable child seed material for independent random streams."""
    out = [int(root) & 0xFFFFFFFF]
    for t in tags:
        out.append(zlib.crc32(str(t).encode()) & 0xFFFFFFFF)
    return out


@dataclass
class AgentSpec:
    agent_id: str
    category: str
    addr_lo: int
    addr_hi: int
    profile: BenignProfile | None = None

    def benign_profile(self) -> BenignProfile:
        return self.profile if self.profile is not None else default_benign_profile(self.category)


@dataclass
class AttackSpec:
    profile: AttackProfile
    agent_id: str                 # agent whose network hosts the bots
    start_time: float = 0.0
    scale_with_level: bool = True # level multiplies the bot request/session rate
    src_offset: int = 1000        # bots live at agent.addr_lo + src_offset + i


@dataclass
class ScenarioConfig:
    agents: list[AgentSpec]
    attacks: list[AttackSpec] = field(default_factory=list)
    scheme: str = SCHEME_MECSHIELD
    attack_level: float = 50.0
    base_level: float = 50.0          # level at which profile rates are quoted
    level_rate_unit: float = 0.0      # offered bytes/s per level unit; 0 = no byte rescale
    duration: float = 60.0
    window_length: float = 5.0
    link_delay: float = 0.01
    analysis_delay: float = 0.05
    seed: int = 0
    pretrain_samples: int = 10000
    pretrain_malicious_fraction: float = 0.5
    som_width: int = 20
    som_height: int = 20
    hyperparams: SomHyperParams = field(default_factory=SomHyperParams)
    norm_spec: NormalizationSpec = field(default_factory=NormalizationSpec)
    feature_mode: FeatureMode = FeatureMode.SOURCE_SITE
    quiet_period: float = 30.0
    local_trigger_count: int = 5
    block_packets_min: int = 1000
    detection: DetectionThresholds = field(default_factory=DetectionThresholds)
    policy_ttl: float = 300.0

    def validate(self) -> None:
        if self.scheme not in SCHEMES:
            raise ConfigError(f"unknown scheme {self.scheme!r}, expected one of {SCHEMES}")
        if not self.agents:
            raise ConfigError("scenario needs at least one agent")
        if self.duration <= 0 or self.window_length <= 0:
            raise ConfigError("duration and window_length must be positive")
        windows = self.duration / self.window_length
        if abs(windows - round(windows)) > 1e-9:
            raise ConfigError(f"duration {self.duration} is not a whole number of "
                              f"windows of length {self.window_length}")
        if self.link_delay < 0 or self.analysis_delay < 0:
            raise ConfigError("delays must be nonnegative")
        for name in ("policy_ttl", "base_level", "attack_level"):
            if not getattr(self, name) > 0:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)!r}")
        for name in ("pretrain_samples", "som_width", "som_height"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be at least 1, got {getattr(self, name)!r}")
        if not (0.0 < self.pretrain_malicious_fraction < 1.0):
            raise ConfigError("pretrain_malicious_fraction must be in (0,1)")
        ids = [a.agent_id for a in self.agents]
        if len(set(ids)) != len(ids):
            raise ConfigError("duplicate agent ids")
        spans = sorted((a.addr_lo, a.addr_hi, a.agent_id) for a in self.agents)
        for (lo1, hi1, id1), (lo2, hi2, id2) in zip(spans, spans[1:]):
            if lo2 <= hi1:
                raise ConfigError(f"agent address ranges overlap: {id1} and {id2}")
        for a in self.agents:
            if a.addr_lo > a.addr_hi:
                raise ConfigError(f"agent {a.agent_id}: addr_lo > addr_hi")
        for atk in self.attacks:
            if atk.agent_id not in ids:
                raise ConfigError(f"attack references unknown agent {atk.agent_id!r}")
            if not (0.0 <= atk.start_time < self.duration):
                raise ConfigError("attack start_time must lie within the run")

    def agent_config(self) -> AgentConfig:
        return AgentConfig(
            window_length=self.window_length, quiet_period=self.quiet_period,
            local_trigger_count=self.local_trigger_count,
            block_packets_min=self.block_packets_min,
            feature_mode=self.feature_mode, norm_spec=self.norm_spec,
            hyperparams=self.hyperparams)

    def for_cell(self, scheme: str, level: float,
                 seed: int | None = None) -> "ScenarioConfig":
        """Independent copy set to one (scheme, level) cell, optionally reseeded."""
        cfg = copy.deepcopy(self)
        cfg.scheme = scheme
        cfg.attack_level = float(level)
        if seed is not None:
            cfg.seed = seed
        return cfg


@dataclass
class RunMetrics:
    scheme: str
    attack_level: float
    seed: int
    reaction_time: float | None
    reaction_by_agent: dict
    detection_rate: float | None
    accuracy: float | None
    tp: int
    fp: int
    tn: int
    fn: int
    controller_work_by_window: dict      # window index -> work units
    controller_work_attack_mean: float | None
    agent_work_by_window: dict
    active_filters_by_window: dict
    active_filter_integral: float
    flows_presented: int
    flows_forwarded: int
    flows_dropped: int
    flows_blocked: int
    total_traffic_bytes: float


# -- traffic layout --------------------------------------------------------

def _leveled_attacks(cfg: ScenarioConfig) -> list[AttackSpec]:
    factor = cfg.attack_level / cfg.base_level
    out = []
    for spec in cfg.attacks:
        p = copy.deepcopy(spec.profile)
        if spec.scale_with_level:
            if p.scenario == VOLUMETRIC:
                p.requests_per_bot_per_s *= factor
            else:
                p.base_session_rate *= factor
            if cfg.level_rate_unit > 0:
                p.offered_rate = cfg.level_rate_unit * cfg.attack_level
        out.append(replace(spec, profile=p))
    return out


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
    for k, atk in enumerate(_leveled_attacks(cfg)):
        host = agent_by_id[atk.agent_id]
        dur = cfg.duration - atk.start_time
        flows = gen_attack(atk.profile, dur,
                           seed=derive_seed(cfg.seed, "attack", k, cfg.attack_level),
                           src_base=host.addr_lo + atk.src_offset + k * 1000,
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


def flows_to_samples(flows: list[FlowRecord], mode: FeatureMode,
                     spec: NormalizationSpec, window_length: float):
    """Window the flows and extract one labeled vector per flow."""
    buckets: dict[int, list[FlowRecord]] = {}
    for f in flows:
        buckets.setdefault(int(f.start_time // window_length), []).append(f)
    vectors, labels = [], []
    for w in sorted(buckets):
        batch = buckets[w]
        stats = window_stats(batch, w * window_length, window_length)
        vecs = extract(batch, mode, spec, stats)
        for v, f in zip(vecs, batch):
            vectors.append(v)
            labels.append(MALICIOUS if f.truth_label == LABEL_MALICIOUS else BENIGN)
    return vectors, labels


def _benign_rate(p: BenignProfile) -> float:
    if p.category == "sensor":
        return p.device_count / p.period
    if p.category == "monitor":
        return p.device_count * p.flows_per_minute / 60.0
    return p.event_rate * p.burst_flows


def _attack_rate(p: AttackProfile) -> float:
    if p.scenario == VOLUMETRIC:
        return 2.0 * p.bot_count * p.requests_per_bot_per_s
    rate = p.base_session_rate * (p.multiplier if p.sub_mode == "session_flood" else 1.0)
    return p.bot_count * rate


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
                                          cfg.window_length)
            if len(vecs) >= n:
                return vecs[:n], labs[:n]
            dur *= 2.0
        raise ConfigError(f"could not generate {n} {what} pretraining samples "
                          f"for {agent.agent_id}")

    vectors, labels = take(
        n_ben, n_ben / _benign_rate(profile) * 1.3 + 60.0,
        lambda dur: gen_benign(profile, dur,
                               seed=derive_seed(cfg.seed, "pretrain-b", agent.agent_id),
                               src_base=agent.addr_lo),
        "benign")
    attacks = _leveled_attacks(cfg)
    if attacks and n_mal:
        share = [n_mal // len(attacks)] * len(attacks)
        share[0] += n_mal - sum(share)
        for k, atk in enumerate(attacks):
            vecs, labs = take(
                share[k], share[k] / _attack_rate(atk.profile) * 1.3 + 30.0,
                lambda dur: gen_attack(atk.profile, dur,
                                       seed=derive_seed(cfg.seed, "pretrain-m", agent.agent_id, k),
                                       src_base=agent.addr_lo + atk.src_offset + k * 1000),
                "attack")
            vectors.extend(vecs)
            labels.extend(labs)
    rng = np.random.default_rng(derive_seed(cfg.seed, "shuffle", agent.agent_id))
    order = rng.permutation(len(vectors))
    return [vectors[i] for i in order], [labels[i] for i in order]


def _train_map(cfg: ScenarioConfig, vectors, labels) -> SomMap:
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
    controller and leaves the agents a placeholder.  Pretraining reads only
    the seed and the level of what `for_cell` varies, so it is kept in
    `cache` under that key.  Every cell gets copies, because agents and the
    controller keep training their maps online."""
    entry = {} if cache is None else cache.setdefault((cfg.seed, cfg.attack_level), {})
    if "training" not in entry:
        entry["training"] = [build_training_set(cfg, a) for a in cfg.agents]
    training = entry["training"]
    if cfg.scheme == SCHEME_CENTRALIZED:
        if "central" not in entry:
            vecs = [v for t in training for v in t[0]]
            labs = [l for t in training for l in t[1]]
            order = np.random.default_rng(derive_seed(cfg.seed, "pool")).permutation(len(vecs))
            entry["central"] = _train_map(cfg, [vecs[i] for i in order],
                                          [labs[i] for i in order])
        maps = [init_map(cfg.som_width, cfg.som_height, MODE_DIM[cfg.feature_mode], 0)
                for _ in cfg.agents]
        return entry["central"].copy(), maps
    if "local" not in entry:
        entry["local"] = [_train_map(cfg, *t) for t in training]
    if cfg.scheme == SCHEME_DISTRIBUTED:
        merged = merge_maps(entry["local"])
        return None, [merged.copy() for _ in entry["local"]]
    return None, [m.copy() for m in entry["local"]]


# -- the event loop --------------------------------------------------------

def run(cfg: ScenarioConfig,
        cache: dict | None = None) -> tuple[RunMetrics, list[dict]]:
    """Simulate one (scheme, level, seed) cell; returns metrics and the full
    event log.  Identical configs produce identical logs.

    `cache` keeps pretraining across cells that differ only in scheme, level
    and seed (the copies `ScenarioConfig.for_cell` makes of one config); it
    never changes the log."""
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
    agent_cfg = cfg.agent_config()
    agents = {a.agent_id: Agent(a.agent_id, {cfg.feature_mode: m},
                                copy.deepcopy(agent_cfg), log=events,
                                filter_always_on=(cfg.scheme != SCHEME_MECSHIELD))
              for a, m in zip(cfg.agents, maps)}

    topology = {a.agent_id: [(a.addr_lo, a.addr_hi)] for a in cfg.agents}
    controller = Controller(topology, thresholds=cfg.detection,
                            policy_ttl=cfg.policy_ttl, log=events)

    # bucket flows into windows per agent
    window_flows: dict[str, dict[int, list[FlowRecord]]] = {}
    for agent_id, flows in flows_by_agent.items():
        buckets: dict[int, list[FlowRecord]] = {}
        for f in flows:
            w = int(f.start_time // cfg.window_length)
            if w < n_windows:
                buckets.setdefault(w, []).append(f)
        window_flows[agent_id] = buckets

    heap: list = []
    seq = 0

    def push(t, kind, payload):
        nonlocal seq
        heapq.heappush(heap, (round(t, 9), _PRIO[kind], seq, kind, payload))
        seq += 1

    agent_order = sorted(agents)
    for w in range(n_windows):
        push((w + 1) * cfg.window_length, "window", w)

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

    while heap:
        t, _prio, _seq, kind, payload = heapq.heappop(heap)
        if kind == "window":
            # every agent closes window w; the controller analyzes their reports together
            w = payload
            reports = []
            for agent_id in agent_order:
                agent = agents[agent_id]
                agent.tick(t)
                flows = window_flows[agent_id].get(w, [])
                if central_map is not None:
                    stats = agent.observe(flows, t)
                    vecs = extract(flows, cfg.feature_mode, cfg.norm_spec, stats)
                    if flows:
                        push(t + cfg.link_delay, "batch", (agent_id, flows, vecs))
                else:
                    verdicts, work = agent.ingest(flows, t)
                    agent_work_by_window[w] += work
                    log_verdicts(agent_id, flows, verdicts)
                reports.append(agent.make_report())
            events.append({"kind": "filters", "t": (w + 1) * cfg.window_length,
                           "window": w,
                           "active": sum(1 for a in agents.values() if a.mode == PROTECTION)})
            # the reports arrive at a rounded event time, like every message
            push(round(t + cfg.link_delay, 9) + cfg.analysis_delay, "analyze", reports)
        elif kind == "analyze":
            reports = payload
            before = controller.work_units
            view = controller.collect(reports)
            assessment = controller.analyze(view)
            ctrl_work_by_window[ctrl_window(t)] += controller.work_units - before
            if assessment.detected:
                events.append({"kind": "attack_detected", "t": t,
                               "method": assessment.method,
                               "victims": sorted(assessment.victim_addrs)})
                if cfg.scheme == SCHEME_MECSHIELD:
                    for p in controller.dispatch(assessment, t):
                        for agent_id in p.addressed_agents:
                            push(t + cfg.link_delay, "policy", (agent_id, p))
        elif kind == "policy":
            agent_id, policy = payload
            agents[agent_id].apply_policy(policy, t)
        elif kind == "batch":
            agent_id, flows, vecs = payload
            labels = central_map.classify_batch(vecs)
            for v, lab in zip(vecs, labels):
                central_map.train_step(v, cfg.hyperparams, label=lab)
            # one unit per flow classified, one per flow trained
            controller.work_units += 2 * len(flows)
            ctrl_work_by_window[ctrl_window(t)] += 2 * len(flows)
            push(t + cfg.analysis_delay + cfg.link_delay, "verdicts",
                 (agent_id, flows, labels))
        elif kind == "verdicts":
            agent_id, flows, labels = payload
            log_verdicts(agent_id, flows, agents[agent_id].enforce(flows, labels, t))

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
    events.sort(key=lambda e: (e["t"], _event_rank(e), json.dumps(e, sort_keys=True)))
    return compute_metrics(events), events


_EVENT_ORDER = ["run_info", "first_malicious_arrival", "mode", "policy_applied",
                "policy", "attack_detected", "classify", "filters",
                "agent_summary", "controller_summary"]


def _event_rank(e: dict) -> int:
    try:
        return _EVENT_ORDER.index(e["kind"])
    except ValueError:
        return len(_EVENT_ORDER)


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
    reaction_by_agent = {}
    for agent_id, t0 in first_mal.items():
        if agent_id in first_enforced:
            reaction_by_agent[agent_id] = max(0.0, first_enforced[agent_id] - t0)
    reaction = (sum(reaction_by_agent.values()) / len(reaction_by_agent)
                if reaction_by_agent else None)

    summary = next(e for e in events if e["kind"] == "controller_summary")
    ctrl_work = {int(k): v for k, v in summary["work_by_window"].items()}
    agent_work = {int(k): v for k, v in summary["agent_work_by_window"].items()}
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
        reaction_time=reaction, reaction_by_agent=reaction_by_agent,
        detection_rate=dr, accuracy=acc, tp=tp, fp=fp, tn=tn, fn=fn,
        controller_work_by_window=ctrl_work,
        controller_work_attack_mean=ctrl_attack_mean,
        agent_work_by_window=agent_work,
        active_filters_by_window=filters,
        active_filter_integral=sum(filters.values()) * win_len,
        flows_presented=agg["processed"], flows_forwarded=agg["forwarded"],
        flows_dropped=agg["dropped"], flows_blocked=agg["blocked"],
        total_traffic_bytes=info["total_traffic_bytes"],
    )


def event_log_digest(events: list[dict]) -> str:
    h = hashlib.sha256()
    for e in events:
        h.update(json.dumps(e, sort_keys=True).encode())
        h.update(b"\n")
    return h.hexdigest()


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
               attack_levels: list[float]):
    """Cross product of (scheme, level) runs; traffic seeds are shared within a
    level so every scheme faces identical flows, and pretraining is done once
    per level.

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
            rows.append(metrics_row(metrics, event_log_digest(events)))
            logs[(scheme, float(level))] = events
    return rows, logs
