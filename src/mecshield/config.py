"""Declarative run configuration: one YAML file drives scenario, SOM,
feature-normalization and detection settings."""
from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import yaml

from .controller import DetectionThresholds
from .errors import ConfigError
from .features import FeatureMode, NormalizationSpec
from .harness import SCHEMES, AgentSpec, AttackSpec, ScenarioConfig
from .som import SomHyperParams
from .traffic import AttackProfile, BenignProfile

CONFIG_VERSION = 1


@dataclass
class RunConfig:
    output_dir: str
    schemes: list[str]
    attack_levels: list[float]
    scenario: ScenarioConfig        # its seed is the run seed

    def scenario_for(self, scheme: str, level: float, seed: int | None = None) -> ScenarioConfig:
        return self.scenario.for_cell(scheme, level, seed)


def _build(cls, data: dict, where: str, **extra):
    """Construct a dataclass from a mapping, rejecting unknown keys."""
    allowed = {f.name for f in dataclasses.fields(cls)}
    unknown = set(data) - allowed
    if unknown:
        raise ConfigError(f"{where}: unknown field(s) {sorted(unknown)}")
    try:
        return cls(**{**data, **extra})
    except (TypeError, ValueError) as e:
        raise ConfigError(f"{where}: {e}") from e


def parse_config(doc: dict, path: str = "<config>") -> RunConfig:
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: top level must be a mapping")
    version = doc.get("version")
    if version != CONFIG_VERSION:
        raise ConfigError(f"{path}: field 'version' must be {CONFIG_VERSION}, got {version!r}")
    known_top = {"version", "seed", "output_dir", "schemes", "attack_levels",
                 "scenario", "som", "features", "detection"}
    unknown = set(doc) - known_top
    if unknown:
        raise ConfigError(f"{path}: unknown top-level field(s) {sorted(unknown)}")
    schemes = doc.get("schemes", list(SCHEMES))
    for s in schemes:
        if s not in SCHEMES:
            raise ConfigError(f"{path}: field 'schemes' has unknown scheme {s!r}; "
                              f"expected one of {SCHEMES}")
    try:
        levels = [float(x) for x in doc.get("attack_levels", [50, 100, 200, 300])]
    except (TypeError, ValueError) as e:
        raise ConfigError(f"{path}: field 'attack_levels' must list numbers: {e}") from e
    if not all(0 < x < math.inf for x in levels):
        raise ConfigError(f"{path}: field 'attack_levels' must be positive and finite, "
                          f"got {levels}")

    som = dict(doc.get("som", {}))
    width = som.pop("width", 20)
    height = som.pop("height", 20)
    hp = _build(SomHyperParams, som, f"{path}: som")

    feats = dict(doc.get("features", {}))
    feat_mode = feats.pop("mode", "source")
    try:
        mode = FeatureMode(feat_mode)
    except ValueError:
        raise ConfigError(f"{path}: features.mode must be 'source' or 'destination', got {feat_mode!r}")
    norm = _build(NormalizationSpec, feats, f"{path}: features")

    detection = _build(DetectionThresholds, dict(doc.get("detection", {})),
                       f"{path}: detection")

    sc = dict(doc.get("scenario", {}))
    agents_doc = sc.pop("agents", None)
    if not agents_doc:
        raise ConfigError(f"{path}: scenario.agents must list at least one agent")
    agents = []
    for i, a in enumerate(agents_doc):
        a = dict(a)
        where = f"{path}: scenario.agents[{i}]"
        try:
            agent_id = a.pop("id")
            category = a.pop("category")
            lo, hi = int(a.pop("addr_lo")), int(a.pop("addr_hi"))
        except KeyError as e:
            raise ConfigError(f"{where}: missing field {e}")
        prof_doc = a.pop("profile", None)
        if a:
            raise ConfigError(f"{where}: unknown field(s) {sorted(a)}")
        profile = None
        if prof_doc is not None:
            profile = _build(BenignProfile, dict(prof_doc), f"{where}.profile",
                             category=category)
        agents.append(AgentSpec(agent_id, category, lo, hi, profile))

    attacks = []
    for i, atk in enumerate(sc.pop("attacks", [])):
        atk = dict(atk)
        where = f"{path}: scenario.attacks[{i}]"
        try:
            agent_id = atk.pop("agent")
        except KeyError:
            raise ConfigError(f"{where}: missing field 'agent'")
        start = float(atk.pop("start_time", 0.0))
        scale = bool(atk.pop("scale_with_level", True))
        offset = int(atk.pop("src_offset", 1000))
        profile = _build(AttackProfile, atk, where)
        attacks.append(AttackSpec(profile, agent_id, start, scale, offset))

    scenario = _build(ScenarioConfig, sc, f"{path}: scenario",
                      agents=agents, attacks=attacks,
                      hyperparams=hp, norm_spec=norm, feature_mode=mode,
                      detection=detection, som_width=width, som_height=height,
                      seed=int(doc.get("seed", 0)))
    scenario.validate()
    return RunConfig(output_dir=str(doc.get("output_dir", "out")),
                     schemes=list(schemes), attack_levels=levels,
                     scenario=scenario)


def load_config(path) -> RunConfig:
    try:
        with open(path) as f:
            doc = yaml.safe_load(f)
    except OSError as e:
        raise ConfigError(f"{path}: {e}") from e
    except yaml.YAMLError as e:
        raise ConfigError(f"{path}: invalid YAML: {e}") from e
    return parse_config(doc, str(path))


# ScenarioConfig fields that config_to_dict writes somewhere other than the
# scalar entries of the "scenario" section
_ECHOED_ELSEWHERE = {"agents", "attacks", "seed", "som_width", "som_height",
                     "hyperparams", "norm_spec", "feature_mode", "detection"}


def config_to_dict(rc: RunConfig) -> dict:
    """Full echo of a RunConfig; parse_config on the result reproduces it."""
    sc = rc.scenario
    agents = []
    for a in sc.agents:
        entry = {"id": a.agent_id, "category": a.category,
                 "addr_lo": a.addr_lo, "addr_hi": a.addr_hi}
        if a.profile is not None:
            prof = dataclasses.asdict(a.profile)
            prof.pop("category")
            entry["profile"] = prof
        agents.append(entry)
    attacks = []
    for atk in sc.attacks:
        entry = dataclasses.asdict(atk.profile)
        entry.update({"agent": atk.agent_id, "start_time": atk.start_time,
                      "scale_with_level": atk.scale_with_level,
                      "src_offset": atk.src_offset})
        attacks.append(entry)
    scenario = {f.name: getattr(sc, f.name) for f in dataclasses.fields(sc)
                if f.name not in _ECHOED_ELSEWHERE}
    scenario.update(agents=agents, attacks=attacks)
    som = dataclasses.asdict(sc.hyperparams)
    som.update({"width": sc.som_width, "height": sc.som_height})
    features = dataclasses.asdict(sc.norm_spec)
    features["mode"] = sc.feature_mode.value
    return {
        "version": CONFIG_VERSION,
        "seed": sc.seed,
        "output_dir": rc.output_dir,
        "schemes": list(rc.schemes),
        "attack_levels": list(rc.attack_levels),
        "scenario": scenario,
        "som": som,
        "features": features,
        "detection": dataclasses.asdict(sc.detection),
    }


def reference_config(seed: int = 7) -> RunConfig:
    """The built-in three-category scenario used by the comparison runs.

    One IoT network per traffic category.  The adversary floods from bots in
    the sensor network and adds a smaller component shaped like alarm-network
    bursts, so a pooled classifier must trade it off against alarm traffic
    while the local sensor-side filter separates it cleanly.
    """
    return parse_config(reference_config_dict(seed))


def reference_config_dict(seed: int = 7) -> dict:
    return {
        "version": CONFIG_VERSION,
        "seed": seed,
        "output_dir": "out",
        "schemes": ["mecshield", "distributed", "centralized"],
        "attack_levels": [50, 100, 200, 300],
        "scenario": {
            "duration": 60.0,
            "window_length": 5.0,
            "link_delay": 0.01,
            "analysis_delay": 0.05,
            "pretrain_samples": 10000,
            "pretrain_malicious_fraction": 0.3,
            "quiet_period": 30.0,
            "local_trigger_count": 5,
            "agents": [
                {"id": "sensor-net", "category": "sensor",
                 "addr_lo": 0x0A000000, "addr_hi": 0x0A00FFFF,
                 "profile": {"device_count": 30, "period": 10.0,
                             "packets_per_flow": 5.0, "protocol": "UDP",
                             "dst_port": 5683, "flow_duration": 1.0}},
                {"id": "monitor-net", "category": "monitor",
                 "addr_lo": 0x0A010000, "addr_hi": 0x0A01FFFF,
                 "profile": {"device_count": 3, "flows_per_minute": 6.0,
                             "packets_per_flow": 500.0, "protocol": "TCP",
                             "dst_port": 554, "flow_duration": 30.0}},
                {"id": "alarm-net", "category": "alarm",
                 "addr_lo": 0x0A020000, "addr_hi": 0x0A02FFFF,
                 "profile": {"device_count": 5, "event_rate": 0.2,
                             "burst_flows": 12, "packets_per_flow": 2.0,
                             "protocol": "TCP", "dst_port": 80,
                             "bytes_per_packet": 60.0, "flow_duration": 2.0}},
            ],
            "attacks": [
                # main session flood from sensor-side bots; level scales its rate
                {"scenario": "app_layer", "sub_mode": "session_flood",
                 "agent": "sensor-net", "start_time": 25.0,
                 "target_addr": 0xD0000001, "bot_count": 20,
                 "base_session_rate": 0.1, "multiplier": 10.0,
                 "base_packets_per_flow": 2, "bytes_per_packet": 60.0,
                 "session_duration": 0.5},
                # alarm-burst mimicry component, fixed rate across levels
                {"scenario": "app_layer", "sub_mode": "session_flood",
                 "agent": "sensor-net", "start_time": 25.0,
                 "target_addr": 0xD0000001, "bot_count": 10,
                 "base_session_rate": 2.4, "multiplier": 1.0,
                 "base_packets_per_flow": 2, "bytes_per_packet": 60.0,
                 "session_duration": 1.4, "burst_size": 12,
                 "burst_interval": 0.1, "scale_with_level": False,
                 "src_offset": 3000},
            ],
        },
        "som": {"width": 20, "height": 20, "initial_learning_rate": 0.1,
                "initial_radius": 10.0, "lr_decay_constant": 6000.0,
                "radius_decay_constant": 3000.0, "rng_seed": 0},
        "features": {"mode": "source", "flow_count_cap": 50,
                     "packets_per_flow_cap": 100, "activity_quantum": 1.0},
        "detection": {"syn_flows_per_window": 80.0},
    }
