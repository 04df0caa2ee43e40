"""Deterministic simulation wiring agents, controller, traffic generation
and link delays, for three filtering schemes:

  mecshield    local SOM per agent, protection armed on demand, controller
               dispatches policies only to implicated agents
  distributed  locally trained maps merged at the controller and redistributed;
               every agent keeps its filter on
  centralized  all traffic forwarded to one SOM at the controller; verdicts
               return after the round trip

Before its loop, `run` trains the cell's filters: it pretrains them
(`pretrain`), then trains them online on the whole run's traffic
(`online_pass`), which gives the label each filter puts on each flow.
Nothing in the loop feeds back into a map (labels are fixed online, and
policies and modes never touch one), so the loop only reads those labels.

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
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .agent import Agent, DROP, PROTECTION
from .config import (SCHEME_CENTRALIZED, SCHEME_DISTRIBUTED, SCHEME_MECSHIELD,
                     AgentSpec, ScenarioConfig, host_addrs, pretrain_duration)
from .controller import Controller
from .errors import ConfigError
from .features import FeatureMode, MODE_DIM, NormalizationSpec, extract, window_stats
from . import som
from .som import BENIGN, MALICIOUS, SomMap, init_map, merge_maps
from .traffic import FlowRecord, LABEL_MALICIOUS, gen_attack, gen_benign, window_indices


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
    for f, w in zip(flows, window_indices([f.start_time for f in flows], window_length)):
        buckets.setdefault(w, []).append(f)
    return buckets


def window_close(w: int, window_length: float) -> float:
    """The time at which every agent closes window w and `run` steps it."""
    return round((w + 1) * window_length, 9)


@dataclass(frozen=True)
class Window:
    """One agent's flows of one window, and their feature vectors as one
    read-only (len(flows), dim) matrix, row i for flows[i]."""
    flows: list[FlowRecord]
    vectors: np.ndarray


@dataclass(frozen=True)
class PresentedTraffic:
    """A cell's run-phase traffic as the agents see it.  It reads only the
    seed and the level of what `for_cell` varies, so the cells of one
    (seed, level) share one, read-only (see `run`)."""
    windows: dict[str, list[Window]]            # agent id -> its window w at [w]
    total_traffic_bytes: float
    first_malicious_arrival: dict[str, float]   # agent id -> earliest malicious start


# `present_traffic` featurizes an agent's windows in groups of at least this
# many flows (or the last windows), one matrix each: one matrix per agent
# raised long-flood's peak RSS by about 1 MiB
PRESENT_GROUP_FLOWS = 512


def present_traffic(cfg: ScenarioConfig) -> PresentedTraffic:
    """`generate_traffic`'s flows, windowed and featurized once for every
    scheme, one `extract` pass per group of an agent's windows: window w is
    extracted over [now - L, now), the window `Agent.ingest` reads at now =
    window_close(w, L), which need not start at w*L in floats."""
    flows_by_agent = generate_traffic(cfg)
    L = cfg.window_length
    n_windows = int(round(cfg.duration / L))
    windows = {}
    for agent_id, flows in flows_by_agent.items():
        buckets = _window_buckets(flows, L)
        windows[agent_id] = presented = []
        group, size = [], 0             # windows not yet featurized, their flows
        for w in range(n_windows):
            batch = buckets.get(w, [])
            group.append((batch, window_stats(batch, window_close(w, L) - L, L)))
            size += len(batch)
            if size < PRESENT_GROUP_FLOWS and w + 1 < n_windows:
                continue
            vectors = extract([f for b, _ in group for f in b], cfg.feature_mode,
                              cfg.norm_spec, [s for b, s in group for _ in b])
            vectors.flags.writeable = False
            row = 0
            for b, _ in group:
                presented.append(Window(b, vectors[row:row + len(b)]))
                row += len(b)
            group, size = [], 0
    first_mal = {}
    for agent_id in sorted(flows_by_agent):
        mal = [f.start_time for f in flows_by_agent[agent_id]
               if f.truth_label == LABEL_MALICIOUS]
        if mal:
            first_mal[agent_id] = min(mal)
    return PresentedTraffic(
        windows,
        sum(f.byte_count for flows in flows_by_agent.values() for f in flows),
        first_mal)


def flows_to_samples(flows: list[FlowRecord], mode: FeatureMode,
                     spec: NormalizationSpec, window_length: float,
                     count: int | None = None):
    """Window the flows and extract one labeled vector per flow, in window
    order, in one `extract` pass; with a `count`, only the first `count` of
    them.  A window's statistics cover all its flows and each vector reads
    one flow, so extraction stops at the `count`-th flow, inside the last
    window read."""
    taken, stats = [], []
    for w, batch in sorted(_window_buckets(flows, window_length).items()):
        if count is not None and len(taken) >= count:
            break
        s = window_stats(batch, w * window_length, window_length)
        if count is not None:
            batch = batch[:count - len(taken)]
        taken += batch
        stats += [s] * len(batch)
    labels = [MALICIOUS if f.truth_label == LABEL_MALICIOUS else BENIGN for f in taken]
    return list(extract(taken, mode, spec, stats)), labels


def build_training_set(cfg: ScenarioConfig, agent: AgentSpec, cache: dict | None = None):
    """Pretraining samples for one agent: its own benign category mixed with
    the scenario's attack shapes, shuffled deterministically.

    The benign samples read only the seed and the agent of what `for_cell`
    varies, so levels of one seed share them through `cache`, under
    (seed, agent_id)."""
    n_mal = int(cfg.pretrain_samples * cfg.pretrain_malicious_fraction)
    n_ben = cfg.pretrain_samples - n_mal
    profile = agent.benign_profile()

    def take(n, dur, gen, what):
        """The first n samples of gen(dur, windows) flows, doubling dur until
        enough; the generator draws every flow of dur but builds only those
        of the windows the samples come from."""
        for _ in range(6):
            flows = gen(dur, (cfg.window_length, n))
            vecs, labs = flows_to_samples(flows, cfg.feature_mode, cfg.norm_spec,
                                          cfg.window_length, count=n)
            if len(vecs) == n:
                return vecs, labs
            dur *= 2.0
        raise ConfigError(f"could not generate {n} {what} pretraining samples "
                          f"for {agent.agent_id}")

    cache = {} if cache is None else cache
    key = (cfg.seed, agent.agent_id)
    if key not in cache:
        cache[key] = take(
            n_ben, pretrain_duration(n_ben, profile.flow_rate(), malicious=False),
            lambda dur, windows: gen_benign(
                profile, dur, seed=derive_seed(cfg.seed, "pretrain-b", agent.agent_id),
                src_base=agent.addr_lo, windows=windows),
            "benign")
    # copies: the attack samples are appended to these lists
    vectors, labels = (list(x) for x in cache[key])
    attacks = cfg.leveled_attacks()
    if attacks and n_mal:
        share = [n_mal // len(attacks)] * len(attacks)
        share[0] += n_mal - sum(share)
        for k, atk in enumerate(attacks):
            vecs, labs = take(
                share[k],
                pretrain_duration(share[k], atk.profile.flow_rate(), malicious=True),
                lambda dur, windows: gen_attack(
                    atk.profile, dur,
                    seed=derive_seed(cfg.seed, "pretrain-m", agent.agent_id, k),
                    src_base=host_addrs(agent.addr_lo, atk.profile.bot_count,
                                        atk.src_offset, k).start,
                    windows=windows),
                "attack")
            vectors.extend(vecs)
            labels.extend(labs)
    rng = np.random.default_rng(derive_seed(cfg.seed, "shuffle", agent.agent_id))
    order = rng.permutation(len(vectors))
    return [vectors[i] for i in order], [labels[i] for i in order]


# every map starts from this one codebook seed, whatever the run's seed, so
# per-neuron merging stays meaningful; it is zlib.crc32(b"som")
MAP_SEED = 0x78906596


def train_maps(cfg: ScenarioConfig, sample_sets) -> list[SomMap]:
    """Labeled maps, one per (vectors, labels) set, trained in one lockstep
    pass (`som.train_maps`): every map starts from one codebook, at epoch
    0, on cfg's schedule."""
    maps = [init_map(cfg.som_width, cfg.som_height, MODE_DIM[cfg.feature_mode],
                     seed=MAP_SEED) for _ in sample_sets]
    som.train_maps(maps, [v for v, _ in sample_sets], cfg.hyperparams,
                   [labels for _, labels in sample_sets])
    for m in maps:
        m.label_neurons()
    return maps


def train_map(cfg: ScenarioConfig, vectors, labels) -> SomMap:
    """A labeled map trained on the samples, as every run and `mecshield
    train` train it."""
    return train_maps(cfg, [(vectors, labels)])[0]


def _level_key(cfg: ScenarioConfig) -> tuple:
    return cfg.seed, cfg.attack_level


def _shared(cfg: ScenarioConfig, cache: dict | None) -> dict:
    """The entry of `cache` that the cells of cfg's (seed, level) share, or a
    fresh dict without a cache."""
    return {} if cache is None else cache.setdefault(_level_key(cfg), {})


def pooled_samples(cfg: ScenarioConfig, training):
    """Every agent's pretraining samples, pooled and shuffled, for the
    centralized scheme's controller map."""
    vecs = [v for t in training for v in t[0]]
    labs = [l for t in training for l in t[1]]
    order = np.random.default_rng(derive_seed(cfg.seed, "pool")).permutation(len(vecs))
    return [vecs[i] for i in order], [labs[i] for i in order]


def pretrain(cells, cache: dict | None) -> None:
    """Train, in one lockstep pass, the maps that the cells, given as (cfg,
    its `_shared` entry) pairs of one base config, need and their entries
    lack: mecshield and distributed start from one local map per agent
    (distributed merges them), centralized from one map at the controller
    trained on every agent's samples.  Pretraining reads only the seed and
    the level of what `for_cell` varies, so it is kept in the entry.  The
    agents' benign samples, the same at every level, sit in `cache` too
    (see `build_training_set`)."""
    jobs = {}                   # (id of entry, maps key) -> (entry, sample sets)
    for cfg, entry in cells:
        key = "central" if cfg.scheme == SCHEME_CENTRALIZED else "local"
        if key in entry or (id(entry), key) in jobs:
            continue
        if "training" not in entry:
            entry["training"] = [build_training_set(cfg, a, cache=cache) for a in cfg.agents]
        training = entry["training"]
        jobs[id(entry), key] = entry, (
            [pooled_samples(cfg, training)] if key == "central" else training)
    if not jobs:
        return
    maps = iter(train_maps(cells[0][0], [s for _, sets in jobs.values() for s in sets]))
    for (_, key), (entry, sets) in jobs.items():
        trained = [next(maps) for _ in sets]
        entry[key] = trained[0] if key == "central" else trained


def _filters(cfg: ScenarioConfig, entry: dict):
    """The cell's filters from its entry's pretrained maps (see `pretrain`):
    (controller map or None, one map per agent).  Centralized agents, which
    only observe, get none.  Every cell gets copies, because agents and the
    controller keep training their maps online (see `online_pass`)."""
    if cfg.scheme == SCHEME_CENTRALIZED:
        return entry["central"].copy(), [None] * len(cfg.agents)
    if cfg.scheme == SCHEME_DISTRIBUTED:
        merged = merge_maps(entry["local"])
        return None, [merged.copy() for _ in entry["local"]]
    return None, [m.copy() for m in entry["local"]]


def online_pass(cells, cache: dict | None) -> None:
    """Train online, in one lockstep pass (`som.train_maps`), the filters of
    the cells, given as (cfg, its `_shared` entry) pairs of one base config,
    whose entries lack their labels, and keep in each entry, under "online"
    and the scheme, the label the filter gives each flow: agent id -> one
    label list per window (None for a map with no labels).

    Nothing in the event loop feeds back into online training (labels are
    fixed online, and policies and modes never touch a map), so each map's
    whole online path is known before its cell runs.  Each agent map learns
    from all its windows in order, each flow labeled by its winner
    (`Agent.ingest` reads the labels); the controller map classifies each
    (window, agent) batch in `run`'s order first and learns from it under
    those labels, its verdicts.  Pretrains the maps and presents the
    traffic that the entries lack."""
    todo = {}
    for cfg, entry in cells:
        if cfg.scheme not in entry.get("online", {}):
            todo.setdefault((id(entry), cfg.scheme), (cfg, entry))
    if not todo:
        return
    todo = list(todo.values())
    # pretraining first: its training sets' flows are gone before the
    # run-phase traffic is generated
    pretrain(todo, cache)
    for cfg, entry in todo:
        if "traffic" not in entry:
            entry["traffic"] = present_traffic(cfg)
    # (map, its (agent id, window index, window) batches in order, whether
    # it classifies each batch first, where its labels go)
    jobs, outs = [], []
    for cfg, entry in todo:
        windows = entry["traffic"].windows
        n_windows = int(round(cfg.duration / cfg.window_length))
        out = {agent_id: [None] * n_windows for agent_id in windows}
        outs.append((entry, cfg.scheme, out))
        central_map, maps = _filters(cfg, entry)
        if central_map is None:
            jobs += [(m, [(a.agent_id, w, win) for w, win in enumerate(windows[a.agent_id])],
                      False, out) for a, m in zip(cfg.agents, maps)]
        else:
            jobs.append((central_map, [(agent_id, w, windows[agent_id][w])
                                       for w in range(n_windows)
                                       for agent_id in sorted(windows)], True, out))
    winners = som.train_maps(
        [m for m, *_ in jobs],
        [np.concatenate([win.vectors for *_, win in batches]) for _, batches, _, _ in jobs],
        todo[0][0].hyperparams, self_labeled=True,
        segments=[[len(win.flows) for *_, win in batches] if central else None
                  for _, batches, central, _ in jobs])
    for (m, batches, _, out), wins in zip(jobs, winners):
        names = m.labels.tolist() if m.is_labeled else [None] * m.neuron_count
        row = 0
        for agent_id, w, win in batches:
            out[agent_id][w] = [names[j] for j in wins[row:row + len(win.flows)]]
            row += len(win.flows)
    for entry, scheme, out in outs:
        entry.setdefault("online", {})[scheme] = out


# -- the event loop --------------------------------------------------------

# the `cache` entry in which `run` leaves the last cell's canonical lines
_LINES = "lines"


def run(cfg: ScenarioConfig,
        cache: dict | None = None) -> tuple[RunMetrics, list[dict]]:
    """Simulate one (scheme, level, seed) cell; returns metrics and the full
    event log.  Identical configs produce identical logs.

    `cache` keeps the presented traffic, pretraining and each scheme's
    online labels (see `online_pass`) across cells that differ only in
    scheme, level and seed (the copies `ScenarioConfig.for_cell` makes of
    one config); it never changes the log.  The log is sorted on each
    event's canonical line, `json.dumps(e, sort_keys=True)`, built here once
    per event by `_line`; with a `cache`, run also leaves the cell's lines,
    in log order, in `cache[_LINES]` for `run_matrix` to hash and write."""
    cfg.validate()
    events: list[dict] = []
    entry = _shared(cfg, cache)
    online_pass([(cfg, entry)], cache)
    traffic, predicted = entry["traffic"], entry["online"][cfg.scheme]
    n_windows = int(round(cfg.duration / cfg.window_length))
    events.append({
        "kind": "run_info", "t": 0.0, "scheme": cfg.scheme,
        "attack_level": cfg.attack_level, "seed": cfg.seed,
        "window_length": cfg.window_length, "duration": cfg.duration,
        "link_delay": cfg.link_delay, "analysis_delay": cfg.analysis_delay,
        "n_agents": len(cfg.agents), "n_windows": n_windows,
        "attack_start": min((a.start_time for a in cfg.attacks), default=None),
        "total_traffic_bytes": traffic.total_traffic_bytes,
    })
    for agent_id, t in traffic.first_malicious_arrival.items():
        events.append({"kind": "first_malicious_arrival", "t": t, "agent": agent_id})

    # only mecshield arms filters on demand; the others count as always on
    agents = {a.agent_id: Agent(a.agent_id, cfg, log=events,
                                filter_always_on=(cfg.scheme != SCHEME_MECSHIELD))
              for a in cfg.agents}

    topology = {a.agent_id: (a.addr_lo, a.addr_hi) for a in cfg.agents}
    controller = Controller(topology, thresholds=cfg.detection,
                            policy_ttl=cfg.policy_ttl, log=events)

    agent_order = sorted(agents)
    ctrl_work_by_window: dict[int, int] = {w: 0 for w in range(n_windows)}
    agent_work_by_window: dict[int, int] = {w: 0 for w in range(n_windows)}

    def ctrl_window(t: float) -> int:
        return min(n_windows - 1, int((t - 1e-9) // cfg.window_length))

    def log_verdicts(agent_id, flows, verdicts):
        for f, v in zip(flows, verdicts):
            if v.classified:
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
        t = window_close(w, cfg.window_length)
        deliver(t)
        reports = []
        for agent_id in agent_order:
            agent = agents[agent_id]
            agent.tick(t)
            flows, labels = traffic.windows[agent_id][w].flows, predicted[agent_id][w]
            if cfg.scheme != SCHEME_CENTRALIZED:
                verdicts, work = agent.ingest(flows, labels, t)
                agent_work_by_window[w] += work
                log_verdicts(agent_id, flows, verdicts)
            else:
                agent.observe(flows)
                if flows:
                    b = round(t + link, 9)
                    # one unit per flow classified, one per flow trained
                    controller.work_units += 2 * len(flows)
                    ctrl_work_by_window[ctrl_window(b)] += 2 * len(flows)
                    log_verdicts(agent_id, flows, agent.enforce(
                        flows, labels, round(b + analysis + link, 9)))
            reports.append(agent.make_report(flows))
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
        # no verdict blocks; `blocked` stays because digests pin the log format
        events.append({"kind": "agent_summary", "t": cfg.duration, "agent": agent_id,
                       "processed": a.flows_processed, "forwarded": a.flows_forwarded,
                       "dropped": a.flows_dropped, "blocked": 0,
                       "work_units": a.work_units})
    events.append({"kind": "controller_summary", "t": cfg.duration,
                   "work_units": controller.work_units,
                   "work_by_window": {str(k): v for k, v in sorted(ctrl_work_by_window.items())},
                   "agent_work_by_window": {str(k): v for k, v in sorted(agent_work_by_window.items())},
                   # one report per agent and window leaves nothing to warn
                   # about; `warnings` stays because digests pin the log format
                   "warnings": []})
    # the index keeps equal keys in log order, as a stable sort would, so
    # the sort never compares two events
    keyed = sorted((e["t"], _EVENT_RANK.get(e["kind"], len(_EVENT_RANK)),
                    _line(e), i) for i, e in enumerate(events))
    events = [events[k[3]] for k in keyed]
    if cache is not None:
        cache[_LINES] = [k[2] for k in keyed]
    del keyed
    return compute_metrics(events), events


# json.dumps(e, sort_keys=True) without building an encoder per event
_canonical = json.JSONEncoder(sort_keys=True).encode

_CLASSIFY_KEYS = frozenset(["agent", "decision", "flow_id", "kind", "predicted",
                            "reason", "t", "truth"])
# json.dumps(e, sort_keys=True) of a classify event that has exactly those
# keys, text values (`predicted` may be None) and a finite float or int `t`
_CLASSIFY_LINE = ('{"agent": %s, "decision": %s, "flow_id": %s, "kind": "classify", '
                  '"predicted": %s, "reason": %s, "t": %r, "truth": %s}')
_quote = json.encoder.encode_basestring_ascii


def _line(e: dict) -> str:
    """e's canonical line, `_canonical(e)`.  A classify event, nearly every
    event of a run, fills `_CLASSIFY_LINE` in about a third of the encoder's
    time; any other event, or a classify event of other keys or value types,
    goes through the encoder."""
    if e["kind"] == "classify" and e.keys() == _CLASSIFY_KEYS:
        t, predicted = e["t"], e["predicted"]
        if type(t) is float and math.isfinite(t) or type(t) is int:
            try:
                return _CLASSIFY_LINE % (
                    _quote(e["agent"]), _quote(e["decision"]), _quote(e["flow_id"]),
                    "null" if predicted is None else _quote(predicted),
                    _quote(e["reason"]), t, _quote(e["truth"]))
            except TypeError:       # a value that is not text
                pass
    return _canonical(e)

_EVENT_RANK = {kind: i for i, kind in enumerate(
    ["run_info", "first_malicious_arrival", "mode", "policy_applied", "policy",
     "attack_detected", "classify", "filters", "agent_summary", "controller_summary"])}


# -- metrics ---------------------------------------------------------------

def confusion(pairs) -> tuple[int, int, int, int, float | None, float | None]:
    """(tp, fp, tn, fn, detection rate, accuracy) over (truly malicious,
    called malicious) pairs; a rate whose denominator is 0 is None."""
    counts = Counter(pairs)
    tp, fp = counts[True, True], counts[False, True]
    tn, fn = counts[False, False], counts[True, False]
    dr = tp / (tp + fn) if (tp + fn) else None
    acc = (tp + tn) / (tp + fp + tn + fn) if (tp + fp + tn + fn) else None
    return tp, fp, tn, fn, dr, acc


def compute_metrics(events: list[dict]) -> RunMetrics:
    """Recompute all run metrics from the event log alone; bit-stable."""
    info = next(e for e in events if e["kind"] == "run_info")
    pairs = []
    first_mal: dict[str, float] = {}
    first_enforced: dict[str, float] = {}
    for e in events:
        if e["kind"] == "first_malicious_arrival":
            first_mal[e["agent"]] = e["t"]
        elif e["kind"] == "classify":
            truth = e.get("truth")
            if truth is None:
                raise ValueError("event log is missing ground-truth labels")
            predicted_malicious = e["decision"] == DROP
            pairs.append((truth == LABEL_MALICIOUS, predicted_malicious))
            if predicted_malicious and e["agent"] not in first_enforced:
                first_enforced[e["agent"]] = e["t"]
    tp, fp, tn, fn, dr, acc = confusion(pairs)
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
    agg = {"processed": 0, "forwarded": 0, "dropped": 0}
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
        flows_dropped=agg["dropped"],
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
    return _lines_digest(_canonical(e) for e in events)


METRIC_COLUMNS = ["scheme", "attack_level", "seed", "reaction_time",
                  "detection_rate", "accuracy", "tp", "fp", "tn", "fn",
                  "controller_work_attack_mean", "active_filter_integral",
                  "flows_presented", "flows_forwarded", "flows_dropped",
                  "total_traffic_bytes", "event_digest"]


def metrics_row(m: RunMetrics, digest: str) -> dict:
    row = {c: getattr(m, c) for c in METRIC_COLUMNS if c != "event_digest"}
    row["event_digest"] = digest
    return row


def run_matrix(base_cfg: ScenarioConfig, schemes: list[str],
               attack_levels: list[float], out=None):
    """Cross product of (scheme, level) runs; every scheme faces identical
    flows, and the traffic, its features and the pretraining are built once
    per level.  Before the first cell, every cell is checked, every level's
    traffic is presented, and every cell's filters are pretrained and then
    trained online, each in one lockstep pass (`pretrain`, `online_pass`).

    Each cell's digest hashes the canonical lines `run` built for its sort.
    With an open text stream `out`, those lines are written to it as each
    cell finishes (scheme by level, one line per event: events.jsonl), and
    dropped before the next cell starts.  A level's traffic and maps are
    dropped after its last scheme's cell.

    Returns (rows, per-cell event logs keyed by (scheme, level)).
    """
    if not schemes or not attack_levels:
        raise ConfigError("run_matrix needs nonempty scheme and level lists")
    rows = []
    logs = {}
    cache: dict = {}
    cells = [base_cfg.for_cell(scheme, level) for scheme in schemes for level in attack_levels]
    for cell in cells:
        cell.validate()
    online_pass([(cell, _shared(cell, cache)) for cell in cells], cache)
    last_scheme = len(cells) - len(attack_levels)
    for n, cell in enumerate(cells):
        metrics, events = run(cell, cache=cache)
        lines = cache.pop(_LINES)
        if n >= last_scheme:
            cache.pop(_level_key(cell))
        if out is not None:
            for line in lines:
                out.write(line + "\n")
        rows.append(metrics_row(metrics, _lines_digest(lines)))
        logs[(cell.scheme, cell.attack_level)] = events
        del lines
    return rows, logs
