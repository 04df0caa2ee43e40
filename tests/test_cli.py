"""CLI tests: command wiring, outputs, exit codes, digest stability."""
import csv
import json

import pytest
import yaml

from mecshield.cli import main
from mecshield.config import parse_config, reference_config_dict
from mecshield.harness import METRIC_COLUMNS
from mecshield.som import SomMap


def tiny_config_doc(seed=3):
    doc = reference_config_dict(seed=seed)
    doc["schemes"] = ["mecshield"]
    doc["attack_levels"] = [100]
    doc["scenario"]["duration"] = 30.0
    doc["scenario"]["pretrain_samples"] = 600
    return doc


def write_tiny_config(tmp_path, seed=3):
    path = tmp_path / "run.yaml"
    path.write_text(yaml.safe_dump(tiny_config_doc(seed)))
    return path


def test_run_writes_outputs(tmp_path):
    cfg = write_tiny_config(tmp_path)
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    with open(out / "metrics.csv") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 1
    assert list(rows[0]) == METRIC_COLUMNS
    assert rows[0]["scheme"] == "mecshield"
    assert float(rows[0]["detection_rate"]) > 0

    with open(out / "events.jsonl") as f:
        events = [json.loads(line) for line in f]
    assert any(e["kind"] == "run_info" for e in events)

    summary = json.loads((out / "summary.json").read_text())
    assert "digests" in summary and "config" in summary
    # the echoed config re-parses to an equivalent run configuration
    rc = parse_config(summary["config"])
    assert rc.schemes == ["mecshield"]


def test_run_digest_stable_across_reruns(tmp_path):
    cfg = write_tiny_config(tmp_path)
    outs = []
    for name in ("o1", "o2"):
        out = tmp_path / name
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        outs.append(json.loads((out / "summary.json").read_text())["digests"])
    assert outs[0]["metrics_csv"] == outs[1]["metrics_csv"]
    assert outs[0]["events_jsonl"] == outs[1]["events_jsonl"]


def test_run_seed_override_changes_results(tmp_path):
    cfg = write_tiny_config(tmp_path)
    digests = []
    for seed in (1, 2):
        out = tmp_path / f"s{seed}"
        assert main(["run", "--config", str(cfg), "--seed", str(seed),
                     "--out", str(out)]) == 0
        digests.append(json.loads((out / "summary.json").read_text())
                       ["digests"]["events_jsonl"])
    assert digests[0] != digests[1]


def test_scheme_filter_must_be_configured(tmp_path):
    cfg = write_tiny_config(tmp_path)
    assert main(["run", "--config", str(cfg), "--scheme", "centralized",
                 "--out", str(tmp_path / "x")]) == 1


def test_config_error_exit_code(tmp_path):
    doc = tiny_config_doc()
    doc["schemes"] = ["napoleonic"]
    path = tmp_path / "bad.yaml"
    path.write_text(yaml.safe_dump(doc))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
    assert not (tmp_path / "o" / "metrics.csv").exists()
    doc = tiny_config_doc()
    doc["scenario"]["drop_packets_max"] = 3     # a removed field
    path.write_text(yaml.safe_dump(doc))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 1


def test_gen_train_eval_loop(tmp_path):
    benign_csv = tmp_path / "benign.csv"
    attack_csv = tmp_path / "attack.csv"
    assert main(["gen", "benign", str(benign_csv), "--category", "sensor",
                 "--duration", "120", "--seed", "1"]) == 0
    assert main(["gen", "attack", str(attack_csv), "--scenario", "app_layer",
                 "--bots", "10", "--duration", "60", "--seed", "1"]) == 0

    cfg = write_tiny_config(tmp_path)
    out = tmp_path / "trained"
    assert main(["train", "--config", str(cfg), "--out", str(out),
                 str(benign_csv), str(attack_csv)]) == 0
    m = SomMap.load(out / "som_map.json")
    assert m.is_labeled
    summary = json.loads((out / "training_summary.json").read_text())
    assert summary["epoch"] == summary["samples"]
    assert summary["neurons"] == 400

    assert main(["eval", "--config", str(cfg), "--out", str(tmp_path / "ev"),
                 str(out / "som_map.json"), str(attack_csv)]) == 0
    result = json.loads((tmp_path / "ev" / "eval.json").read_text())
    assert result["tp"] + result["fn"] == result["samples"]


def test_train_same_inputs_identical_map(tmp_path):
    data = tmp_path / "d.csv"
    assert main(["gen", "benign", str(data), "--category", "alarm",
                 "--duration", "300", "--seed", "9"]) == 0
    cfg = write_tiny_config(tmp_path)
    maps = []
    for name in ("t1", "t2"):
        out = tmp_path / name
        assert main(["train", "--config", str(cfg), "--out", str(out),
                     str(data)]) == 0
        maps.append((out / "som_map.json").read_bytes())
    assert maps[0] == maps[1]


def test_train_empty_dataset_is_data_error(tmp_path):
    from mecshield.traffic import CSV_HEADER
    empty = tmp_path / "empty.csv"
    empty.write_text(",".join(CSV_HEADER) + "\n")
    cfg = write_tiny_config(tmp_path)
    out = tmp_path / "never"
    assert main(["train", "--config", str(cfg), "--out", str(out),
                 str(empty)]) == 2
    assert not (out / "som_map.json").exists()


def test_malformed_dataset_is_data_error(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("this,is,not,the,schema\n")
    cfg = write_tiny_config(tmp_path)
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "o"),
                 str(bad)]) == 2


def test_eval_dimension_mismatch(tmp_path):
    from mecshield.som import init_map
    weird = tmp_path / "weird_map.json"
    init_map(2, 2, 4, seed=0).save(weird)
    data = tmp_path / "d.csv"
    assert main(["gen", "benign", str(data), "--category", "sensor",
                 "--duration", "60"]) == 0
    assert main(["eval", str(weird), str(data)]) == 2
