"""Central controller: report aggregation, threshold-rule attack analysis,
and policy generation for source- and destination-site agents."""
from __future__ import annotations

from dataclasses import dataclass, field

from .agent import DestinationStats, TrafficReport

METHOD_SMURF_FRAGGLE = "smurf_fraggle"
METHOD_SYN_FLOOD = "syn_flood"
METHOD_VOLUMETRIC = "volumetric_amplification"
METHOD_APP_LAYER = "app_layer_flood"
METHOD_UNKNOWN = "unknown"

ROLE_SOURCE = "source"
ROLE_DESTINATION = "destination"

MITIGATE_DROP = "drop"
MITIGATE_BLOCK = "block"

_METHOD_MITIGATION = {
    METHOD_SYN_FLOOD: MITIGATE_DROP,
    METHOD_SMURF_FRAGGLE: MITIGATE_BLOCK,
    METHOD_VOLUMETRIC: MITIGATE_DROP,
    METHOD_APP_LAYER: MITIGATE_DROP,
    METHOD_UNKNOWN: MITIGATE_DROP,
}


@dataclass
class Policy:
    policy_id: str
    target_addrs: list
    attack_method: str
    role: str                        # source | destination
    mitigation: str
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
    suspected_source_ranges: list = field(default_factory=list)   # (lo, hi) tuples
    evidence: dict = field(default_factory=dict)                  # dst -> per-rule scores


@dataclass
class AggregateView:
    window_length: float
    window_start: float
    per_destination: dict = field(default_factory=dict)   # dst_addr -> DestinationStats


@dataclass
class DetectionThresholds:
    vol_rate_multiplier: float = 10.0     # byte rate vs trailing benign baseline
    vol_rate_floor: float = 1e6           # bytes/s that trip the rule with no baseline yet
    syn_flows_per_window: float = 500.0
    syn_packets_per_flow_max: float = 3.0
    smurf_ppf_multiplier: float = 10.0
    smurf_ppf_floor: float = 500.0
    smurf_max_flows: int = 10
    app_rate_multiplier: float = 10.0
    baseline_horizon: float = 60.0        # seconds of clean history kept per destination


class Controller:
    """Sequential message processor: collect -> analyze -> make_policies."""

    def __init__(self, topology: dict[str, list[tuple[int, int]]],
                 thresholds: DetectionThresholds | None = None,
                 policy_ttl: float = 300.0, log: list | None = None):
        self.topology = topology
        self.thresholds = thresholds or DetectionThresholds()
        self.policy_ttl = policy_ttl
        self.work_units = 0
        self.warnings: list[str] = []
        self.log = log if log is not None else []
        self._seen: set[tuple[str, float]] = set()
        # clean-window history per destination: (window_start, byte_rate, flow_rate, ppf)
        self._history: dict[int, list[tuple[float, float, float, float]]] = {}
        self._policy_seq = 0
        self._dispatched: dict[tuple[str, str], float] = {}   # (agent, method) -> expiry

    # -- report collection -------------------------------------------------

    def collect(self, reports: list[TrafficReport]) -> AggregateView:
        """Aggregate per-destination statistics; duplicate (agent, window)
        reports are dropped with a warning."""
        fresh: list[TrafficReport] = []
        for r in reports:
            key = (r.agent_id, r.window_start)
            if key in self._seen:
                self.warnings.append(
                    f"duplicate report from {r.agent_id} for window {r.window_start}")
                continue
            self._seen.add(key)
            fresh.append(r)
            self.work_units += 1
        win_len = fresh[0].window_length if fresh else 0.0
        win_start = fresh[0].window_start if fresh else 0.0
        view = AggregateView(window_length=win_len, window_start=win_start)
        for r in fresh:
            for dst, d in sorted(r.per_destination.items()):
                v = view.per_destination.setdefault(dst, DestinationStats())
                v.flows += d.flows
                v.bytes += d.bytes
                v.packets += d.packets
                for proto, n in d.protocol_counts.items():
                    v.protocol_counts[proto] = v.protocol_counts.get(proto, 0) + n
                v.source_ranges.extend(d.source_ranges)
        return view

    # -- attack analysis ---------------------------------------------------

    def _baseline(self, dst: int, now: float) -> tuple[float, float, float] | None:
        """Mean (byte_rate, flow_rate, packets_per_flow) over trailing clean windows."""
        hist = [h for h in self._history.get(dst, ())
                if now - h[0] <= self.thresholds.baseline_horizon]
        self._history[dst] = hist
        if not hist:
            return None
        n = len(hist)
        return (sum(h[1] for h in hist) / n,
                sum(h[2] for h in hist) / n,
                sum(h[3] for h in hist) / n)

    def analyze(self, view: AggregateView) -> AttackAssessment:
        """Threshold rules over the per-destination aggregate.

        Rule priority: Smurf/fraggle shape, SYN-flood shape, volumetric byte
        rate, application-layer request rate.  Clean windows feed the trailing
        baseline; flagged windows never do, so added attack volume cannot
        un-detect an attack.
        """
        th = self.thresholds
        win = view.window_length or 1.0
        now = view.window_start + win
        victims: list[int] = []
        method = METHOD_UNKNOWN
        priority = {METHOD_SMURF_FRAGGLE: 0, METHOD_SYN_FLOOD: 1,
                    METHOD_VOLUMETRIC: 2, METHOD_APP_LAYER: 3}
        best = len(priority)
        sources: list[tuple[int, int]] = []
        evidence: dict = {}
        for dst in sorted(view.per_destination):
            v = view.per_destination[dst]
            if v.flows == 0:
                continue
            byte_rate = v.bytes / win
            flow_count = v.flows
            ppf = v.packets / v.flows
            base = self._baseline(dst, now)
            icmp_udp = (v.protocol_counts.get("ICMP", 0) +
                        v.protocol_counts.get("UDP", 0))
            scores = {
                "byte_rate": byte_rate,
                "flow_count": flow_count,
                "packets_per_flow": ppf,
                "baseline_byte_rate": base[0] if base else None,
            }
            hit = None
            ppf_thresh = max(th.smurf_ppf_floor,
                             th.smurf_ppf_multiplier * base[2]) if base else th.smurf_ppf_floor
            if (icmp_udp > v.flows / 2 and ppf > ppf_thresh
                    and flow_count <= th.smurf_max_flows):
                hit = METHOD_SMURF_FRAGGLE
            elif flow_count > th.syn_flows_per_window and ppf <= th.syn_packets_per_flow_max:
                hit = METHOD_SYN_FLOOD
            elif byte_rate > (th.vol_rate_multiplier * base[0] if base else th.vol_rate_floor):
                hit = METHOD_VOLUMETRIC
            elif base and flow_count / win > th.app_rate_multiplier * max(base[1], 1e-9):
                hit = METHOD_APP_LAYER
            scores["rule"] = hit
            evidence[dst] = scores
            if hit is None:
                self._history.setdefault(dst, []).append(
                    (view.window_start, byte_rate, flow_count / win, ppf))
            else:
                victims.append(dst)
                sources.extend(v.source_ranges)
                if priority[hit] < best:
                    best = priority[hit]
                    method = hit
        if not victims:
            return AttackAssessment(detected=False, evidence=evidence)
        return AttackAssessment(detected=True, method=method, victim_addrs=victims,
                                suspected_source_ranges=sorted(set(sources)),
                                evidence=evidence)

    # -- policy generation -------------------------------------------------

    def _owners(self, lo: int, hi: int) -> list[str]:
        out = []
        for agent_id, ranges in self.topology.items():
            if any(r_lo <= hi and lo <= r_hi for r_lo, r_hi in ranges):
                out.append(agent_id)
        return sorted(out)

    def make_policies(self, assessment: AttackAssessment, now: float) -> list[Policy]:
        """One destination policy per victim-side agent, one source policy per
        agent owning a suspected source range."""
        if not assessment.detected:
            raise ValueError("make_policies requires a detected assessment")
        mitigation = _METHOD_MITIGATION[assessment.method]
        policies: list[Policy] = []

        def new_policy(role, agent_id, targets):
            self._policy_seq += 1
            return Policy(policy_id=f"pol-{self._policy_seq}", target_addrs=targets,
                          attack_method=assessment.method, role=role,
                          mitigation=mitigation, issued_at=now,
                          expires_at=now + self.policy_ttl, agent_id=agent_id)

        dest_agents: set[str] = set()
        for victim in assessment.victim_addrs:
            dest_agents.update(self._owners(victim, victim))
        for agent_id in sorted(dest_agents):
            policies.append(new_policy(ROLE_DESTINATION, agent_id,
                                       assessment.victim_addrs))
        src_agents: set[str] = set()
        uncovered = []
        for lo, hi in assessment.suspected_source_ranges:
            owners = self._owners(lo, hi)
            if owners:
                src_agents.update(owners)
            else:
                uncovered.append((lo, hi))
        for agent_id in sorted(src_agents):
            policies.append(new_policy(ROLE_SOURCE, agent_id,
                                       assessment.victim_addrs))
        if uncovered:
            self.warnings.append(
                f"partial coverage: no agent owns suspected source ranges {uncovered}")
        return policies

    def dispatch(self, assessment: AttackAssessment, now: float) -> list[Policy]:
        """make_policies, minus agents that already hold an unexpired policy
        for the same attack method."""
        fresh = []
        for p in self.make_policies(assessment, now):
            key = (p.agent_id, p.attack_method)
            if self._dispatched.get(key, -1.0) > now:
                continue
            self._dispatched[key] = p.expires_at
            fresh.append(p)
            self.log.append({"t": now, "kind": "policy", "policy_id": p.policy_id,
                             "agent": p.agent_id, "role": p.role,
                             "method": p.attack_method, "mitigation": p.mitigation})
        return fresh
