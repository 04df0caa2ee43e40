"""Edge agent: traffic monitoring, local SOM filtering with a protection-mode
state machine, policy application, and window reports for the controller."""
from __future__ import annotations

from dataclasses import dataclass

from .features import FeatureMode
from .som import MALICIOUS
from .traffic import FlowRecord

NORMAL = "normal"
PROTECTION = "protection"

FORWARD = "forward"
DROP = "drop"

R_BENIGN = "benign"
R_SOM_MALICIOUS = "som_malicious"
R_POLICY_DROP = "policy_drop"


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
    packets: int = 0


@dataclass
class TrafficReport:
    agent_id: str
    per_destination: dict                   # dst_addr -> DestinationStats


@dataclass
class AgentConfig:
    window_length: float = 5.0
    quiet_period: float = 30.0
    local_trigger_count: int = 5      # malicious winners in one window that arm protection locally
    feature_mode: FeatureMode = FeatureMode.SOURCE_SITE


class Agent:
    """One sequential edge-agent state machine; no shared state across agents.

    The agent's filter is a map that keeps training online on the traffic
    the agent monitors; the agent holds only its labels (see `ingest`)."""

    def __init__(self, agent_id: str, config: AgentConfig | None = None,
                 log: list | None = None, filter_always_on: bool = False):
        self.agent_id = agent_id
        self.config = config or AgentConfig()
        self.mode = PROTECTION if filter_always_on else NORMAL
        self.filter_always_on = filter_always_on
        self.active_policy = None
        self.last_malicious_seen: float | None = None
        self.flows_processed = 0
        self.flows_forwarded = 0
        self.flows_dropped = 0
        self.work_units = 0
        self.log = log if log is not None else []

    def _log(self, t: float, kind: str, **fields) -> None:
        self.log.append({"t": t, "agent": self.agent_id, "kind": kind, **fields})

    def _enter_protection(self, now: float, why: str) -> None:
        if self.mode != PROTECTION:
            self.mode = PROTECTION
            self._log(now, "mode", mode=PROTECTION, why=why)

    def _policy_active(self, now: float) -> bool:
        return self.active_policy is not None and self.active_policy.expires_at > now

    # -- main ingest path --------------------------------------------------

    def ingest(self, flows: list[FlowRecord], predicted: list,
               now: float) -> tuple[list[Verdict], int]:
        """Process the flows of the window that closes at `now`.  `predicted`
        holds their labels, item i for flows[i]: the label of the neuron that
        flow wins in the agent's map, or None if the map has no labels.  The
        map trains on every flow in both modes, each step labeled by the
        map's own verdict, whose winner also serves the verdict
        (`harness.online_pass` trains it and gives the labels).

        Normal mode forwards everything; protection mode classifies each flow
        and drops what the map calls malicious.  Returns the verdicts and the
        work units spent (flows trained + flows classified).
        """
        if len(predicted) != len(flows):
            raise ValueError(f"{len(flows)} flows but {len(predicted)} labels")
        cfg = self.config
        self.flows_processed += len(flows)
        verdicts: list[Verdict] = []
        malicious_in_window = 0
        work = len(flows)
        for flow, label in zip(flows, predicted):
            if self.mode == PROTECTION and label is not None:
                work += 1
                if label == MALICIOUS:
                    self.last_malicious_seen = now
                verdicts.append(self._decide(flow, now, label))
            else:
                verdicts.append(Verdict(flow.flow_id, FORWARD, now, R_BENIGN))
                self.flows_forwarded += 1
                if label == MALICIOUS:
                    malicious_in_window += 1
                    if malicious_in_window >= cfg.local_trigger_count:
                        self.last_malicious_seen = now
                        self._enter_protection(now, "local_trigger")
        self.work_units += work
        return verdicts, work

    def _decide(self, flow: FlowRecord, now: float, predicted: str) -> Verdict:
        """The verdict on one classified flow: forward unless the map calls it
        malicious, else drop.  Counts the verdict."""
        if predicted != MALICIOUS:
            decision, reason = FORWARD, R_BENIGN
            self.flows_forwarded += 1
        else:
            decision = DROP
            reason = R_POLICY_DROP if self._policy_active(now) else R_SOM_MALICIOUS
            self.flows_dropped += 1
        return Verdict(flow.flow_id, decision, now, reason,
                       classified=True, predicted=predicted)

    def enforce(self, flows: list[FlowRecord], labels: list[str],
                now: float) -> list[Verdict]:
        """Apply the labels a remote map returned for observed flows
        (centralized scheme)."""
        return [self._decide(flow, now, label) for flow, label in zip(flows, labels)]

    def observe(self, flows: list[FlowRecord]) -> None:
        """Count a window's flows without filtering or training them
        (centralized scheme: the traffic is forwarded wholesale)."""
        self.flows_processed += len(flows)

    # -- reporting / control -----------------------------------------------

    def make_report(self, flows: list[FlowRecord]) -> TrafficReport:
        """Per-destination statistics of one window's flows."""
        per_dst: dict[int, DestinationStats] = {}
        for f in flows:
            d = per_dst.setdefault(f.dst_addr, DestinationStats())
            d.flows += 1
            d.packets += f.packet_count
        return TrafficReport(agent_id=self.agent_id, per_destination=per_dst)

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
        if self.mode == PROTECTION and not self._policy_active(now):
            quiet = (self.last_malicious_seen is None or
                     now - self.last_malicious_seen > self.config.quiet_period)
            if quiet:
                self.mode = NORMAL
                self._log(now, "mode", mode=NORMAL, why="quiet_period")
