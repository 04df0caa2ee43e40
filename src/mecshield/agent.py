"""Edge agent: traffic monitoring, local SOM filtering with a protection-mode
state machine, policy application, and window reports for the controller."""
from __future__ import annotations

from dataclasses import dataclass, field

from .features import (FeatureMode, NormalizationSpec, WindowStats, extract_one,
                       window_stats)
from .som import MALICIOUS, SomHyperParams, SomMap
from .traffic import FlowRecord

NORMAL = "normal"
PROTECTION = "protection"

FORWARD = "forward"
DROP = "drop"
BLOCK = "block"

R_BENIGN = "benign"
R_SOM_MALICIOUS = "som_malicious"
R_POLICY_DROP = "policy_drop"
R_POLICY_BLOCK = "policy_block"


@dataclass
class Verdict:
    flow_id: str
    decision: str
    decided_at: float
    reason: str
    classified: bool = False
    predicted: str | None = None


@dataclass
class DestinationStats:
    """Traffic toward one destination: one agent's window, or the
    controller's sum over the window's reports."""
    flows: int = 0
    bytes: float = 0.0
    packets: int = 0
    source_ranges: list = field(default_factory=list)   # (lo, hi) per reporting agent


@dataclass
class TrafficReport:
    agent_id: str
    window_start: float
    window_length: float
    per_destination: dict                   # dst_addr -> DestinationStats


@dataclass
class AgentConfig:
    window_length: float = 5.0
    quiet_period: float = 30.0
    local_trigger_count: int = 5      # malicious winners in one window that arm protection locally
    block_packets_min: int = 1000     # heavy flows get their source blocked
    feature_mode: FeatureMode = FeatureMode.SOURCE_SITE
    norm_spec: NormalizationSpec = field(default_factory=NormalizationSpec)
    hyperparams: SomHyperParams = field(default_factory=SomHyperParams)


class Agent:
    """One sequential edge-agent state machine; no shared state across agents."""

    def __init__(self, agent_id: str, som: SomMap | None,
                 config: AgentConfig | None = None, log: list | None = None,
                 filter_always_on: bool = False):
        """`som` is the agent's one filter, trained in `ingest`; None for an
        agent that only observes (the centralized scheme's)."""
        self.agent_id = agent_id
        self.config = config or AgentConfig()
        self.som = som
        self.mode = PROTECTION if filter_always_on else NORMAL
        self.filter_always_on = filter_always_on
        self.active_policy = None
        self.last_malicious_seen: float | None = None
        self.blocked_sources: set[int] = set()
        self.flows_processed = 0
        self.flows_forwarded = 0
        self.flows_dropped = 0
        self.flows_blocked = 0
        self.work_units = 0
        self.log = log if log is not None else []
        self._window_flows: list[FlowRecord] = []
        self._window_stats: WindowStats | None = None

    def _log(self, t: float, kind: str, **fields) -> None:
        self.log.append({"t": t, "agent": self.agent_id, "kind": kind, **fields})

    def _enter_protection(self, now: float, why: str) -> None:
        if self.mode != PROTECTION:
            self.mode = PROTECTION
            self._log(now, "mode", mode=PROTECTION, why=why)

    def _policy_active(self, now: float) -> bool:
        return self.active_policy is not None and self.active_policy.expires_at > now

    def _intake(self, flows: list[FlowRecord], now: float) -> WindowStats:
        """Count one window's flows and keep them, with their statistics,
        for the report."""
        cfg = self.config
        stats = window_stats(flows, now - cfg.window_length, cfg.window_length)
        self._window_flows = list(flows)
        self._window_stats = stats
        self.flows_processed += len(flows)
        return stats

    # -- main ingest path --------------------------------------------------

    def ingest(self, flows: list[FlowRecord], now: float) -> tuple[list[Verdict], int]:
        """Process one window's flows.

        Normal mode forwards everything but still trains the SOM from the
        monitored traffic; protection mode classifies each flow and enforces
        drop/block.  Returns the verdicts and the work units spent
        (vectors classified + vectors trained).
        """
        cfg = self.config
        stats = self._intake(flows, now)
        verdicts: list[Verdict] = []
        work = 0
        malicious_in_window = 0
        som = self.som
        # training moves weights but never relabels, so these are fixed for the window
        labeled = som.is_labeled
        labels = som.labels.tolist()
        for flow in flows:
            if self.mode == PROTECTION and flow.src_addr in self.blocked_sources:
                verdicts.append(Verdict(flow.flow_id, BLOCK, now, R_POLICY_BLOCK))
                self.flows_blocked += 1
                continue
            vec = extract_one(flow, cfg.feature_mode, cfg.norm_spec, stats)
            # one winner search serves the verdict and the training step, which
            # is labeled by the map's own verdict
            win = som.find_winner(vec)
            predicted = labels[win] if labeled else None
            if self.mode == PROTECTION and labeled:
                work += 1
                if predicted == MALICIOUS:
                    self.last_malicious_seen = now
                verdicts.append(self._decide(flow, now, predicted))
            else:
                verdicts.append(Verdict(flow.flow_id, FORWARD, now, R_BENIGN))
                self.flows_forwarded += 1
            # continuous training in both modes
            som.train_step(vec, cfg.hyperparams, label=predicted, winner=win)
            work += 1
            if self.mode == NORMAL and predicted == MALICIOUS:
                malicious_in_window += 1
                if malicious_in_window >= cfg.local_trigger_count:
                    self.last_malicious_seen = now
                    self._enter_protection(now, "local_trigger")
        self.work_units += work
        return verdicts, work

    def _decide(self, flow: FlowRecord, now: float, predicted: str) -> Verdict:
        """The verdict on one classified flow: forward unless the map calls it
        malicious; then drop, or, under a policy, block the source of a heavy
        flow.  Counts the verdict."""
        decision, reason = FORWARD, R_BENIGN
        if predicted == MALICIOUS:
            decision, reason = DROP, R_SOM_MALICIOUS
            if self._policy_active(now):
                if flow.packet_count >= self.config.block_packets_min:
                    decision, reason = BLOCK, R_POLICY_BLOCK
                    self.blocked_sources.add(flow.src_addr)
                else:
                    decision, reason = DROP, R_POLICY_DROP
        if decision == FORWARD:
            self.flows_forwarded += 1
        elif decision == DROP:
            self.flows_dropped += 1
        else:
            self.flows_blocked += 1
        return Verdict(flow.flow_id, decision, now, reason,
                       classified=True, predicted=predicted)

    def enforce(self, flows: list[FlowRecord], labels: list[str],
                now: float) -> list[Verdict]:
        """Apply the labels a remote map returned for observed flows
        (centralized scheme)."""
        return [self._decide(flow, now, label) for flow, label in zip(flows, labels)]

    def observe(self, flows: list[FlowRecord], now: float) -> WindowStats:
        """Record a window for reporting without filtering or training
        (centralized scheme: the traffic is forwarded wholesale)."""
        return self._intake(flows, now)

    # -- reporting / control -----------------------------------------------

    def make_report(self) -> TrafficReport:
        """Per-destination statistics of the last ingested window."""
        stats = self._window_stats
        if stats is None:
            stats = WindowStats(0.0, self.config.window_length)
        per_dst: dict[int, DestinationStats] = {}
        srcs: dict[int, list[int]] = {}
        for f in self._window_flows:
            d = per_dst.setdefault(f.dst_addr, DestinationStats())
            d.flows += 1
            d.bytes += f.byte_count
            d.packets += f.packet_count
            srcs.setdefault(f.dst_addr, []).append(f.src_addr)
        for dst, d in per_dst.items():
            d.source_ranges.append((min(srcs[dst]), max(srcs[dst])))
        return TrafficReport(agent_id=self.agent_id, window_start=stats.window_start,
                             window_length=stats.window_length, per_destination=per_dst)

    def apply_policy(self, policy, now: float) -> None:
        """Install a controller directive: activate protection, filtering with
        the agent's own map whatever the policy's role."""
        if policy.agent_id != self.agent_id:
            raise ValueError(f"policy {policy.policy_id} is addressed to "
                             f"{policy.agent_id}, not agent {self.agent_id}")
        self.active_policy = policy
        self._enter_protection(now, "policy")
        # every policy drops; the field stays because digests pin the log format
        self._log(now, "policy_applied", policy_id=policy.policy_id, mitigation=DROP,
                  features=self.config.feature_mode.value)

    def tick(self, now: float) -> None:
        """Deactivate protection after a quiet period with no malicious vectors
        and no unexpired policy."""
        if self.filter_always_on:
            return
        if self.active_policy is not None and self.active_policy.expires_at <= now:
            self.active_policy = None
            self.blocked_sources.clear()
        if self.mode == PROTECTION and not self._policy_active(now):
            quiet = (self.last_malicious_seen is None or
                     now - self.last_malicious_seen > self.config.quiet_period)
            if quiet:
                self.mode = NORMAL
                self._log(now, "mode", mode=NORMAL, why="quiet_period")
