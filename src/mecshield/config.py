"""Declarative run configuration: its types, YAML schema, parsing, echo and
checks.  One YAML file drives scenario, SOM, feature and detection settings."""
from __future__ import annotations

import copy
import dataclasses
import functools
import math
import typing
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import ClassVar

import yaml

from .agent import AgentConfig
from .controller import DetectionThresholds
from .errors import ConfigError
from .features import FeatureMode, NormalizationSpec
from .som import SomHyperParams
from .traffic import (ADDR_MAX, MAX_FLOWS, VOLUMETRIC, AttackProfile, BenignProfile,
                      default_benign_profile)

CONFIG_VERSION = 1

SCHEME_MECSHIELD = "mecshield"
SCHEME_DISTRIBUTED = "distributed"
SCHEME_CENTRALIZED = "centralized"
SCHEMES = (SCHEME_MECSHIELD, SCHEME_DISTRIBUTED, SCHEME_CENTRALIZED)

# the attack level at which attack profile rates are quoted
BASE_LEVEL = 50.0


@dataclass
class AgentSpec:
    agent_id: str = field(metadata={"key": ("id",)})
    category: str
    addr_lo: int
    addr_hi: int
    # the profile's category is the agent's
    profile: BenignProfile | None = field(default=None, metadata={"given": ("category",)})

    def benign_profile(self) -> BenignProfile:
        return self.profile if self.profile is not None else default_benign_profile(self.category)


@dataclass
class AttackSpec:
    profile: AttackProfile = field(metadata={"key": ()})      # its keys sit beside the spec's
    agent_id: str = field(metadata={"key": ("agent",)})     # agent whose network hosts the bots
    start_time: float = 0.0
    scale_with_level: bool = True # level multiplies the bot request/session rate
    src_offset: int = 1000        # where host_addrs puts the bots in the agent's range


def host_addrs(addr_lo: int, count: int, src_offset: int = 0, k: int = 0) -> range:
    """The address plan of a network whose range starts at `addr_lo`: its
    `count` benign devices, device d at addr_lo + d, or the `count` bots of
    attack k placed at `src_offset`, bot b at addr_lo + src_offset + 1000*k + b."""
    first = addr_lo + src_offset + 1000 * k
    return range(first, first + count)


def pretrain_duration(samples: int, rate: float, malicious: bool) -> float:
    """Seconds of traffic `harness.build_training_set` first generates for
    `samples` pretraining flows at `rate` flows/s.  The generators draw
    every flow of it but build only the windows the samples are read from,
    so the padding beyond `samples` costs its draws alone."""
    return samples / rate * 1.3 + (30.0 if malicious else 60.0)


@dataclass(kw_only=True)
class ScenarioConfig(AgentConfig):
    """One cell's scenario; the AgentConfig fields are every agent's settings.
    Fields sit in the document's `scenario` section unless their key says otherwise."""
    DOC_SECTION: ClassVar[tuple[str, ...]] = ("scenario",)

    agents: list[AgentSpec]
    attacks: list[AttackSpec] = field(default_factory=list)
    # one cell's scheme and level, set by for_cell from `schemes` and `attack_levels`
    scheme: str = field(default=SCHEME_MECSHIELD, metadata={"key": None})
    attack_level: float = field(default=50.0, metadata={"key": None})
    duration: float = 60.0
    link_delay: float = 0.01
    analysis_delay: float = 0.05
    seed: int = field(default=0, metadata={"key": ("seed",)})
    pretrain_samples: int = 10000
    pretrain_malicious_fraction: float = 0.5
    som_width: int = field(default=20, metadata={"key": ("som", "width")})
    som_height: int = field(default=20, metadata={"key": ("som", "height")})
    hyperparams: SomHyperParams = field(default_factory=SomHyperParams,
                                        metadata={"key": ("som",)})
    norm_spec: NormalizationSpec = field(default_factory=NormalizationSpec,
                                         metadata={"key": ("features",)})
    feature_mode: FeatureMode = field(default=FeatureMode.SOURCE_SITE,
                                      metadata={"key": ("features", "mode")})
    detection: DetectionThresholds = field(default_factory=DetectionThresholds,
                                           metadata={"key": ("detection",)})
    policy_ttl: float = 300.0

    def validate(self) -> None:
        if self.scheme not in SCHEMES:
            raise ConfigError(f"schemes: unknown scheme {self.scheme!r}, "
                              f"expected one of {SCHEMES}")
        if not 0 < self.attack_level < math.inf:
            raise ConfigError(f"attack_levels: attack_level must be positive and finite, "
                              f"got {self.attack_level!r}")
        if not self.agents:
            raise ConfigError("scenario.agents must list at least one agent")
        for name in ("duration", "window_length"):
            if not 0 < getattr(self, name) < math.inf:
                raise ConfigError(f"{name} must be positive and finite, "
                                  f"got {getattr(self, name)!r}")
        for name in ("link_delay", "analysis_delay"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ConfigError(f"{name} must be nonnegative and finite, "
                                  f"got {getattr(self, name)!r}")
        if not self.policy_ttl > 0:
            raise ConfigError(f"policy_ttl must be positive, got {self.policy_ttl!r}")
        windows = self.duration / self.window_length
        if abs(windows - round(windows)) > 1e-9:
            raise ConfigError(f"duration {self.duration} is not a whole number of "
                              f"windows of length {self.window_length}")
        for name in ("pretrain_samples", "som_width", "som_height"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be at least 1, got {getattr(self, name)!r}")
        if not (0.0 < self.pretrain_malicious_fraction < 1.0):
            raise ConfigError("pretrain_malicious_fraction must be in (0,1)")
        ids = [a.agent_id for a in self.agents]
        if len(set(ids)) != len(ids):
            raise ConfigError("duplicate agent ids")
        addrs = [(f"scenario.agents[{i}].{name}", getattr(a, name))
                 for i, a in enumerate(self.agents) for name in ("addr_lo", "addr_hi")]
        addrs += [(f"scenario.attacks[{k}].target_addr", atk.profile.target_addr)
                  for k, atk in enumerate(self.attacks)]
        for where, addr in addrs:
            if not 0 <= addr <= ADDR_MAX:
                raise ConfigError(f"{where}: {addr} is not an IPv4 address "
                                  f"(0..{ADDR_MAX:#x})")
        spans = sorted((a.addr_lo, a.addr_hi, a.agent_id) for a in self.agents)
        for (lo1, hi1, id1), (lo2, hi2, id2) in zip(spans, spans[1:]):
            if lo2 <= hi1:
                raise ConfigError(f"agent address ranges overlap: {id1} and {id2}")
        # every device and bot sits in its agent's range: outside it another
        # agent, or none, would see its flows
        for i, a in enumerate(self.agents):
            if a.addr_lo > a.addr_hi:
                raise ConfigError(f"agent {a.agent_id}: addr_lo > addr_hi")
            devices = host_addrs(a.addr_lo, a.benign_profile().device_count)
            if devices[-1] > a.addr_hi:
                raise ConfigError(
                    f"scenario.agents[{i}].profile.device_count: {len(devices)} devices "
                    f"reach {devices[-1]}, past addr_hi {a.addr_hi} of agent {a.agent_id!r}")
        for k, atk in enumerate(self.attacks):
            if atk.agent_id not in ids:
                raise ConfigError(f"attack references unknown agent {atk.agent_id!r}")
            if not (0.0 <= atk.start_time < self.duration):
                raise ConfigError("attack start_time must lie within the run")
            host = self.agents[ids.index(atk.agent_id)]
            bots = host_addrs(host.addr_lo, atk.profile.bot_count, atk.src_offset, k)
            if not host.addr_lo <= bots[0] <= bots[-1] <= host.addr_hi:
                raise ConfigError(
                    f"scenario.attacks[{k}]: src_offset {atk.src_offset} puts its bots at "
                    f"{bots[0]}..{bots[-1]}, outside the range {host.addr_lo}..{host.addr_hi} "
                    f"of its agent {atk.agent_id!r}")
        # the flows in the run and every agent's first pretraining pass: each
        # leveled attack counted with all malicious samples for every agent,
        # each agent's benign traffic with its own benign samples
        n_mal = int(self.pretrain_samples * self.pretrain_malicious_fraction)
        attack_flows = 0.0
        for k, atk in enumerate(self.leveled_attacks()):
            rate = atk.profile.flow_rate()
            if not rate > 0:
                raise ConfigError(f"scenario.attacks[{k}]: flow rate {rate!r} is not positive")
            attack_flows += rate * (self.duration - atk.start_time + len(self.agents)
                                    * pretrain_duration(n_mal, rate, malicious=True))
        benign_flows = []
        for i, a in enumerate(self.agents):
            rate = a.benign_profile().flow_rate()
            if not rate > 0:
                raise ConfigError(f"scenario.agents[{i}].profile: benign flow rate {rate!r} "
                                  f"is not positive")
            benign_flows.append(rate * (self.duration + pretrain_duration(
                self.pretrain_samples - n_mal, rate, malicious=False)))
        flows = attack_flows + sum(benign_flows)
        if not flows <= MAX_FLOWS:
            i = max(range(len(benign_flows)), key=benign_flows.__getitem__)
            cause = ("attack_levels" if attack_flows >= benign_flows[i]
                     else f"scenario.agents[{i}].profile")
            raise ConfigError(
                f"{cause}: the cell would generate about {flows:.3g} flows, more than "
                f"MAX_FLOWS = {MAX_FLOWS}: {attack_flows:.3g} from its attacks at "
                f"attack_level {self.attack_level!r}, "
                f"{sum(benign_flows):.3g} from its agents' benign traffic")

    def for_cell(self, scheme: str, level: float,
                 seed: int | None = None) -> "ScenarioConfig":
        """Independent copy set to one (scheme, level) cell, optionally reseeded."""
        return replace(copy.deepcopy(self), scheme=scheme, attack_level=float(level),
                       seed=self.seed if seed is None else seed)

    def leveled_attacks(self) -> list[AttackSpec]:
        """The attacks at this cell's level: a scaled attack's bot rate is
        multiplied by attack_level / BASE_LEVEL."""
        factor = self.attack_level / BASE_LEVEL
        out = []
        for spec in self.attacks:
            p = copy.deepcopy(spec.profile)
            if spec.scale_with_level:
                if p.scenario == VOLUMETRIC:
                    p.requests_per_bot_per_s *= factor
                else:
                    p.base_session_rate *= factor
            out.append(replace(spec, profile=p))
        return out


@dataclass
class RunConfig:
    scenario: ScenarioConfig = field(metadata={"key": ()})   # its seed is the run seed
    output_dir: str = "out"
    schemes: list[str] = field(default_factory=lambda: list(SCHEMES))
    attack_levels: list[float] = field(default_factory=lambda: [50.0, 100.0, 200.0, 300.0])

    def scenario_for(self, scheme: str, level: float, seed: int | None = None) -> ScenarioConfig:
        return self.scenario.for_cell(scheme, level, seed)


# -- the document layout -----------------------------------------------------
# A field's `key` metadata is its key path from the mapping its class is read
# from (default: its name inside the class's DOC_SECTION; None: not in the
# document).  A dataclass field at path P reads the mapping at P less the keys
# its siblings hold there, so P = () reads the keys beside theirs.  Fields
# named in its `given` metadata come from its parent, not the document.

def _fields(cls) -> list:
    section = getattr(cls, "DOC_SECTION", ())
    return [(f, f.metadata.get("key", (*section, f.name))) for f in dataclasses.fields(cls)
            if f.metadata.get("key", ()) is not None]


@functools.cache
def _type_hints(cls) -> dict:
    """The declared field types of `cls`, evaluated once per class (only read)."""
    return typing.get_type_hints(cls)


def _build(cls, data, where: str, **given):
    """`cls` from the document mapping `data`.  Unknown keys, missing fields
    and values not of the declared type are rejected by their place."""
    kwargs = dict(given)
    _read(data, [(f, p) for f, p in _fields(cls) if f.name not in given],
          _type_hints(cls), where, kwargs)
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"{where or 'top level'}: {e}") from e


def _read(data, entries: list, hints: dict, where: str, kwargs: dict) -> None:
    if not isinstance(data, dict):
        raise ConfigError(f"{where or 'top level'}: must be a mapping, got {data!r}")
    rest, groups, beside = dict(data), {}, None
    for f, path in entries:
        if path:
            groups.setdefault(path[0], []).append((f, path[1:]))
        else:
            beside = f
    for key, group in groups.items():
        at = f"{where}.{key}" if where else key
        f, tail = group[0]
        if len(group) > 1 or tail:
            _read(rest.pop(key, {}), group, hints, at, kwargs)
        elif key in rest:
            kwargs[f.name] = _value(rest.pop(key), hints[f.name], at,
                                    **{g: kwargs[g] for g in f.metadata.get("given", ())})
        elif f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING:
            raise ConfigError(f"{where or 'top level'}: missing field {key!r}")
    if beside is not None:
        kwargs[beside.name] = _build(hints[beside.name], rest, where)
    elif rest:
        raise ConfigError(f"{where or 'top level'}: unknown field(s) {sorted(rest)}")


def _value(value, tp, where: str, **given):
    """`value` checked against the declared type `tp`.  An integer passes as
    a float and is read as one, so a float field is logged and echoed alike
    however it is written."""
    if type(None) in typing.get_args(tp):      # X | None
        if value is None:
            return None
        tp = typing.get_args(tp)[0]
    if dataclasses.is_dataclass(tp):
        return _build(tp, value, where, **given)
    if typing.get_origin(tp) is list:
        if isinstance(value, list):
            return [_value(v, typing.get_args(tp)[0], f"{where}[{i}]")
                    for i, v in enumerate(value)]
    elif issubclass(tp, Enum):
        choices = [m.value for m in tp]
        if value in choices:
            return tp(value)
        raise ConfigError(f"{where}: must be one of {choices}, got {value!r}")
    elif isinstance(value, (int, float) if tp is float else tp) and \
            (tp is bool or not isinstance(value, bool)):
        if tp is float:
            try:
                return float(value)
            except OverflowError:
                raise ConfigError(f"{where}: integer too large for a float") from None
        return value
    raise ConfigError(f"{where}: must be {tp.__name__}, got {value!r}")


def _dump(obj):
    """The document form of `obj`: what `_build` and `_value` read back."""
    if isinstance(obj, list):
        return [_dump(v) for v in obj]
    if not dataclasses.is_dataclass(obj):
        return obj.value if isinstance(obj, Enum) else copy.copy(obj)
    out: dict = {}
    for f, path in _fields(type(obj)):
        value = getattr(obj, f.name)
        if dataclasses.is_dataclass(value):
            value = {k: v for k, v in _dump(value).items() if k not in f.metadata.get("given", ())}
        elif value is not None:
            path, value = path[:-1], {path[-1]: _dump(value)}
        else:
            continue
        section = out
        for key in path:
            section = section.setdefault(key, {})
        section.update(value)
    return out


def parse_config(doc: dict, path: str = "<config>") -> RunConfig:
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: top level must be a mapping")
    doc = dict(doc)
    version = doc.pop("version", None)
    if type(version) is not int or version != CONFIG_VERSION:
        raise ConfigError(f"{path}: field 'version' must be {CONFIG_VERSION}, got {version!r}")
    try:
        rc = _build(RunConfig, doc, "")
        for name in ("schemes", "attack_levels"):
            values = getattr(rc, name)
            if not values or len(set(values)) < len(values):
                raise ConfigError(f"{name} must list distinct values, at least one, "
                                  f"got {values}")
        for scheme in rc.schemes:
            for level in rc.attack_levels:
                replace(rc.scenario, scheme=scheme, attack_level=level).validate()
    except ConfigError as e:
        raise ConfigError(f"{path}: {e}") from e
    return rc


def load_config(path) -> RunConfig:
    try:
        with open(path) as f:
            doc = yaml.safe_load(f)
    except OSError as e:
        raise ConfigError(f"{path}: {e}") from e
    except yaml.YAMLError as e:
        raise ConfigError(f"{path}: invalid YAML: {e}") from e
    return parse_config(doc, str(path))


def config_to_dict(rc: RunConfig) -> dict:
    """Full echo of a RunConfig; parse_config on the result reproduces it."""
    return {"version": CONFIG_VERSION, **_dump(rc)}


def reference_config(seed: int = 7) -> RunConfig:
    """The built-in scenario used by the comparison runs, at `seed`."""
    return parse_config(reference_config_dict(seed))


def reference_config_dict(seed: int = 7) -> dict:
    """The document of `reference.yaml`, shipped beside this module, with its
    seed set to `seed`: a new dict on every call, free for the caller to edit."""
    from importlib.resources import files
    doc = yaml.safe_load(files(__package__).joinpath("reference.yaml").read_text())
    doc["seed"] = seed
    return doc
