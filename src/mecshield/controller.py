"""Central controller: report aggregation, the SYN-shape detection rule, and
policy generation for source- and destination-site agents.

A window flags a destination when more than `syn_flows_per_window` flows
reach it and they average at most `SYN_PACKETS_PER_FLOW_MAX` packets each.
Destination policies go to the agents whose ranges hold the victims; source
policies go to the agents that reported flows toward a victim."""
from __future__ import annotations

from dataclasses import dataclass, field

from .agent import DROP, DestinationStats, TrafficReport

METHOD_SYN_FLOOD = "syn_flood"
METHOD_UNKNOWN = "unknown"

ROLE_SOURCE = "source"
ROLE_DESTINATION = "destination"

# a SYN flood's flows carry a handshake's few packets
SYN_PACKETS_PER_FLOW_MAX = 3.0


@dataclass
class Policy:
    policy_id: str
    target_addrs: list
    attack_method: str
    role: str                        # source | destination
    issued_at: float
    expires_at: float
    agent_id: str                    # the one agent the policy addresses

    def __post_init__(self):
        if self.expires_at <= self.issued_at:
            raise ValueError("policy must expire after it is issued")


@dataclass
class AttackAssessment:
    detected: bool
    method: str = METHOD_UNKNOWN
    victim_addrs: list = field(default_factory=list)
    source_agents: list = field(default_factory=list)   # agents that reported victim traffic
    evidence: dict = field(default_factory=dict)        # dst -> the rule's inputs and verdict


@dataclass
class AggregateView:
    per_destination: dict = field(default_factory=dict)   # dst_addr -> DestinationStats
    reporters: dict = field(default_factory=dict)         # dst_addr -> agents that reported it


@dataclass
class DetectionThresholds:
    syn_flows_per_window: float = 500.0


class Controller:
    """Sequential message processor: collect -> analyze -> make_policies."""

    def __init__(self, topology: dict[str, tuple[int, int]],
                 thresholds: DetectionThresholds | None = None,
                 policy_ttl: float = 300.0, log: list | None = None):
        self.topology = topology
        self.thresholds = thresholds or DetectionThresholds()
        self.policy_ttl = policy_ttl
        self.work_units = 0
        self.log = log if log is not None else []
        self._policy_seq = 0
        self._dispatched: dict[str, float] = {}   # agent -> expiry of its last policy

    # -- report collection -------------------------------------------------

    def collect(self, reports: list[TrafficReport]) -> AggregateView:
        """Sum one window's per-destination statistics, one report per agent,
        and note which agents reported each destination."""
        view = AggregateView()
        for r in reports:
            self.work_units += 1
            for dst, d in r.per_destination.items():
                v = view.per_destination.setdefault(dst, DestinationStats())
                v.flows += d.flows
                v.packets += d.packets
                view.reporters.setdefault(dst, set()).add(r.agent_id)
        return view

    # -- attack analysis ---------------------------------------------------

    def analyze(self, view: AggregateView) -> AttackAssessment:
        """Flag every destination of the SYN shape: many flows, few packets
        per flow."""
        th = self.thresholds
        victims: list[int] = []
        sources: set[str] = set()
        evidence: dict = {}
        for dst in sorted(view.per_destination):
            v = view.per_destination[dst]
            if v.flows == 0:
                continue
            ppf = v.packets / v.flows
            hit = v.flows > th.syn_flows_per_window and ppf <= SYN_PACKETS_PER_FLOW_MAX
            evidence[dst] = {"flow_count": v.flows, "packets_per_flow": ppf,
                             "rule": METHOD_SYN_FLOOD if hit else None}
            if hit:
                victims.append(dst)
                sources.update(view.reporters[dst])
        if not victims:
            return AttackAssessment(detected=False, evidence=evidence)
        return AttackAssessment(detected=True, method=METHOD_SYN_FLOOD,
                                victim_addrs=victims, source_agents=sorted(sources),
                                evidence=evidence)

    # -- policy generation -------------------------------------------------

    def _owners(self, addr: int) -> list[str]:
        return sorted(agent_id for agent_id, (lo, hi) in self.topology.items()
                      if lo <= addr <= hi)

    def make_policies(self, assessment: AttackAssessment, now: float) -> list[Policy]:
        """One destination policy per victim-side agent, one source policy per
        agent that reported traffic toward a victim."""
        if not assessment.detected:
            raise ValueError("make_policies requires a detected assessment")
        policies: list[Policy] = []

        def new_policy(role, agent_id, targets):
            self._policy_seq += 1
            return Policy(policy_id=f"pol-{self._policy_seq}", target_addrs=targets,
                          attack_method=assessment.method, role=role, issued_at=now,
                          expires_at=now + self.policy_ttl, agent_id=agent_id)

        dest_agents = {a for victim in assessment.victim_addrs for a in self._owners(victim)}
        for agent_id in sorted(dest_agents):
            policies.append(new_policy(ROLE_DESTINATION, agent_id,
                                       assessment.victim_addrs))
        for agent_id in assessment.source_agents:
            policies.append(new_policy(ROLE_SOURCE, agent_id,
                                       assessment.victim_addrs))
        return policies

    def dispatch(self, assessment: AttackAssessment, now: float) -> list[Policy]:
        """make_policies, minus agents that already hold an unexpired policy."""
        fresh = []
        for p in self.make_policies(assessment, now):
            if self._dispatched.get(p.agent_id, -1.0) > now:
                continue
            self._dispatched[p.agent_id] = p.expires_at
            fresh.append(p)
            # every policy drops; the field stays because digests pin the log format
            self.log.append({"t": now, "kind": "policy", "policy_id": p.policy_id,
                             "agent": p.agent_id, "role": p.role,
                             "method": p.attack_method, "mitigation": DROP})
        return fresh
