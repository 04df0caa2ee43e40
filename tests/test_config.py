"""Config parsing tests: YAML schema, validation errors, round-trip."""
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

from mecshield.config import (config_to_dict, load_config, parse_config,
                              reference_config, reference_config_dict)
from mecshield.errors import ConfigError
from mecshield.features import FeatureMode


def test_reference_config_parses_and_validates():
    rc = reference_config()
    assert len(rc.scenario.agents) == 3
    assert rc.schemes == ["mecshield", "distributed", "centralized"]
    assert rc.attack_levels == [50.0, 100.0, 200.0, 300.0]
    rc.scenario.validate()


def test_version_required():
    doc = reference_config_dict()
    doc["version"] = 2
    with pytest.raises(ConfigError, match="version"):
        parse_config(doc)
    del doc["version"]
    with pytest.raises(ConfigError, match="version"):
        parse_config(doc)


def test_unknown_fields_rejected_with_names():
    doc = reference_config_dict()
    doc["turbo"] = True
    with pytest.raises(ConfigError, match="turbo"):
        parse_config(doc)
    doc = reference_config_dict()
    doc["som"]["neuron_flavor"] = "spicy"
    with pytest.raises(ConfigError, match="neuron_flavor"):
        parse_config(doc)
    doc = reference_config_dict()
    doc["scenario"]["agents"][0]["frobnicate"] = 1
    with pytest.raises(ConfigError, match="frobnicate"):
        parse_config(doc)
    # removed fields that no mechanism read, and fields a cell sets elsewhere
    for name in ("drop_packets_max", "drop_flows_min", "seed", "som_width",
                 "som_height", "feature_mode", "hyperparams", "norm_spec",
                 "detection", "scheme", "attack_level"):
        doc = reference_config_dict()
        doc["scenario"][name] = 3
        with pytest.raises(ConfigError, match=name):
            parse_config(doc)
    # removed fields that no scenario set: constants now, at these values
    for where, value in [(("scenario", "base_level"), 50.0),
                         (("scenario", "block_packets_min"), 1000),
                         (("detection", "syn_packets_per_flow_max"), 3.0),
                         (("features", "port_max"), 65535),
                         (("features", "protocol_codes"),
                          {"TCP": 0.0, "UDP": 0.5, "ICMP": 1.0}),
                         (("features", "other_protocol_code"), 0.25),
                         (("scenario", "attacks", 0, "request_bytes"), 100.0),
                         (("scenario", "attacks", 0, "amplifier_addr"), 0x08080808),
                         (("scenario", "attacks", 0, "offered_rate"), 0.0)]:
        doc = reference_config_dict()
        target = doc
        for k in where[:-1]:
            target = target[k]
        target[where[-1]] = value
        at = "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in where[:-1])
        with pytest.raises(ConfigError,
                           match=re.escape(f"{at[1:]}: unknown field(s) [{where[-1]!r}]")):
            parse_config(doc)


def test_unknown_scheme_named_in_error():
    doc = reference_config_dict()
    doc["schemes"] = ["mecshield", "blockchain"]
    with pytest.raises(ConfigError, match="blockchain"):
        parse_config(doc)


def test_bad_feature_mode():
    doc = reference_config_dict()
    doc["features"]["mode"] = "psychic"
    with pytest.raises(ConfigError, match="mode"):
        parse_config(doc)


def test_agents_required():
    doc = reference_config_dict()
    doc["scenario"]["agents"] = []
    with pytest.raises(ConfigError, match="agents"):
        parse_config(doc)


def test_attack_missing_agent_field():
    doc = reference_config_dict()
    del doc["scenario"]["attacks"][0]["agent"]
    with pytest.raises(ConfigError, match="agent"):
        parse_config(doc)


def test_config_round_trip():
    rc = reference_config(seed=11)
    echoed = config_to_dict(rc)
    rc2 = parse_config(echoed)
    assert config_to_dict(rc2) == echoed
    assert rc2.scenario.seed == 11
    assert rc2.scenario.feature_mode == FeatureMode.SOURCE_SITE
    assert rc2.scenario.hyperparams == rc.scenario.hyperparams


def test_load_config_yaml(tmp_path):
    path = tmp_path / "run.yaml"
    path.write_text(yaml.safe_dump(reference_config_dict(seed=5)))
    rc = load_config(path)
    assert rc.scenario.seed == 5

    bad = tmp_path / "broken.yaml"
    bad.write_text("{unbalanced")
    with pytest.raises(ConfigError, match="YAML"):
        load_config(bad)
    with pytest.raises(ConfigError):
        load_config(tmp_path / "missing.yaml")


def test_reference_config_dict_is_new_on_every_call():
    a = reference_config_dict()
    a["scenario"]["agents"].clear()
    b = reference_config_dict()
    assert b is not a and len(b["scenario"]["agents"]) == 3
    assert b["seed"] == 7 and reference_config_dict(seed=3)["seed"] == 3


# sensor-net spans 0x10000 addresses; attack 0 has 20 bots, attack 1 has 10
# and starts 1000 * 1 further in.  (k, an offset that is rejected, the
# nearest offset that is accepted)
@pytest.mark.parametrize("k, bad, good", [
    (0, 0x10000, 0xFFFF - 19),          # past addr_hi
    (0, -1, 0),                         # below addr_lo
    (1, 0xFFFF - 9 - 1000 + 1, 0xFFFF - 9 - 1000),  # would fit but for 1000 * k
])
def test_attack_bots_must_sit_in_their_agents_range(k, bad, good):
    doc = reference_config_dict()
    doc["scenario"]["attacks"][k]["src_offset"] = bad
    with pytest.raises(ConfigError, match=rf"scenario\.attacks\[{k}\]: src_offset {bad}"):
        parse_config(doc)
    doc["scenario"]["attacks"][k]["src_offset"] = good
    parse_config(doc)


# every agent spans 0x10000 addresses; device d sits at addr_lo + d.
# (agent, a device count that is rejected, the largest that is accepted)
@pytest.mark.parametrize("i, bad, good", [(0, 0x10001, 0x10000), (1, 65600, 0x10000)])
def test_benign_devices_must_sit_in_their_agents_range(i, bad, good):
    doc = reference_config_dict()
    doc["scenario"]["agents"][i]["profile"]["device_count"] = bad
    with pytest.raises(ConfigError,
                       match=rf"scenario\.agents\[{i}\]\.profile\.device_count: {bad} devices"):
        parse_config(doc)
    doc["scenario"]["agents"][i]["profile"]["device_count"] = good
    parse_config(doc)


# (section, index, its fields set to a value outside IPv4, the key named,
# the same fields set to the nearest accepted values)
@pytest.mark.parametrize("section, i, bad, key, good", [
    ("attacks", 0, {"target_addr": -5}, "target_addr", {"target_addr": 0}),
    ("attacks", 1, {"target_addr": 2**40}, "target_addr", {"target_addr": 0xFFFFFFFF}),
    ("agents", 0, {"addr_lo": -70000, "addr_hi": -1}, "addr_lo",
     {"addr_lo": 0, "addr_hi": 0xFFFF}),
    ("agents", 2, {"addr_hi": 2**33}, "addr_hi", {"addr_hi": 0xFFFFFFFF}),
    ("agents", 2, {"addr_hi": 0x100000000}, "addr_hi", {"addr_hi": 0xFFFFFFFF}),
])
def test_addresses_must_be_ipv4(section, i, bad, key, good):
    doc = reference_config_dict()
    doc["scenario"][section][i].update(bad)
    with pytest.raises(ConfigError, match=re.escape(f"scenario.{section}[{i}].{key}: ")):
        parse_config(doc)
    doc["scenario"][section][i].update(good)
    parse_config(doc)


def test_flow_cap_rejects_huge_levels():
    # an unbounded level used to hang the generators: `t += 1/rate` stops
    # advancing once 1/rate is below the float spacing near t
    doc = reference_config_dict()
    doc["attack_levels"] = [100, 1e300]
    with pytest.raises(ConfigError, match="MAX_FLOWS") as e:
        parse_config(doc)
    assert "attack_levels" in str(e.value)


def test_integer_too_large_for_a_float_is_a_config_error():
    doc = reference_config_dict()
    doc["scenario"]["window_length"] = 10**400
    with pytest.raises(ConfigError, match=re.escape(
            "scenario.window_length: integer too large for a float")):
        parse_config(doc)
    doc = reference_config_dict()
    doc["attack_levels"] = [100, -10**400]
    with pytest.raises(ConfigError, match=re.escape("attack_levels[1]: integer too large")):
        parse_config(doc)


def test_integer_and_float_spellings_give_one_digest():
    # a float field written as an integer used to be kept as one, so the
    # log read "t": 20 where the float spelling reads "t": 20.0
    from mecshield.harness import event_log_digest, run
    digests = set()
    for spelling in (5, 5.0):
        doc = reference_config_dict(seed=1)
        doc["scenario"].update(window_length=spelling, duration=30,
                               pretrain_samples=600)
        rc = parse_config(doc)
        assert type(rc.scenario.window_length) is type(rc.scenario.duration) is float
        digests.add(event_log_digest(run(rc.scenario_for("mecshield", 300.0))[1]))
    assert len(digests) == 1


@pytest.mark.parametrize("agent, name, value, match", [
    (2, "event_rate", 1.0e300, "MAX_FLOWS"),        # used to hang gen_benign
    (0, "period", 1.0e-300, "MAX_FLOWS"),
    (1, "flows_per_minute", 1.0e-323, "not positive"),
])
def test_flow_cap_counts_benign_traffic(agent, name, value, match):
    doc = reference_config_dict()
    doc["scenario"]["agents"][agent]["profile"][name] = value
    with pytest.raises(ConfigError, match=match) as e:
        parse_config(doc)
    assert f"scenario.agents[{agent}].profile" in str(e.value)


def test_config_does_not_import_harness():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", "import sys, mecshield.config; "
                          "print(sorted(m for m in sys.modules if m.startswith('mecshield')))"],
                         env=env, capture_output=True, text=True, check=True)
    assert "mecshield.harness" not in out.stdout
    assert "mecshield.config" in out.stdout


def test_scenario_for_is_isolated():
    rc = reference_config()
    a = rc.scenario_for("mecshield", 100.0, seed=1)
    b = rc.scenario_for("centralized", 200.0, seed=2)
    a.agents[0].addr_lo = 999
    assert b.agents[0].addr_lo != 999
    assert (a.scheme, a.attack_level, a.seed) == ("mecshield", 100.0, 1)
    assert (b.scheme, b.attack_level, b.seed) == ("centralized", 200.0, 2)
