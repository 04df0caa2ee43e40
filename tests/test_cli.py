"""CLI tests: command wiring, outputs, exit codes, digest stability."""
import csv
import json

import pytest
import yaml

from mecshield.cli import main
from mecshield.config import parse_config, reference_config_dict
from mecshield.harness import METRIC_COLUMNS
from mecshield.som import BENIGN, MALICIOUS, SomHyperParams, SomMap, init_map


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


def test_config_error_exit_code(tmp_path, capsys):
    doc = tiny_config_doc()
    doc["schemes"] = ["napoleonic"]
    path = tmp_path / "bad.yaml"
    path.write_text(yaml.safe_dump(doc))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
    assert not (tmp_path / "o" / "metrics.csv").exists()
    # a removed field, then values out of range or not finite
    nan, inf = float("nan"), float("inf")
    for section, name, value in [("scenario", "drop_packets_max", 3),
                                 ("scenario", "policy_ttl", 0.0),
                                 ("scenario", "base_level", 0.0),
                                 ("scenario", "attack_level", -1.0),
                                 ("scenario", "pretrain_samples", 0),
                                 ("som", "width", 0), ("som", "height", 0),
                                 (None, "attack_levels", [100, 0]),
                                 (None, "attack_levels", [-300]),
                                 ("scenario", "duration", nan),
                                 ("scenario", "window_length", inf),
                                 ("scenario", "link_delay", nan),
                                 ("scenario", "analysis_delay", inf),
                                 ("scenario", "base_level", inf),
                                 ("scenario", "attack_level", nan),
                                 (None, "attack_levels", [inf]),
                                 (None, "attack_levels", [100, nan])]:
        doc = tiny_config_doc()
        (doc if section is None else doc[section])[name] = value
        path.write_text(yaml.safe_dump(doc))
        capsys.readouterr()
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
        assert name in capsys.readouterr().err


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


def _labeled_map_doc():
    m = init_map(2, 2, 5, seed=0)
    hp = SomHyperParams()
    for k in range(20):
        m.train_step([k % 2] * 5, hp, label=MALICIOUS if k % 2 else BENIGN)
    m.label_neurons()
    return m.to_dict()


def _bad_map(doc):
    doc["neurons"][0]["weights"][0] = 1.5
    return doc


def _missing_neurons(doc):
    del doc["neurons"]
    return doc


@pytest.mark.parametrize("command, broken, content", [
    pytest.param("eval", "map", None, id="eval-map-missing"),
    pytest.param("eval", "map", "not json at all", id="eval-map-not-json"),
    pytest.param("eval", "map", _missing_neurons, id="eval-map-no-neurons"),
    pytest.param("eval", "map", _bad_map, id="eval-map-weight-out-of-range"),
    pytest.param("eval", "map", lambda doc: {**doc, "neurons": doc["neurons"][:3]},
                 id="eval-map-neuron-count"),
    pytest.param("eval", "csv", None, id="eval-csv-missing"),
    pytest.param("eval", "csv", b"\xff\xfe\x00garbage", id="eval-csv-undecodable"),
    pytest.param("train", "csv", None, id="train-csv-missing"),
    pytest.param("train", "csv", b"\xff\xfe\x00garbage", id="train-csv-undecodable"),
])
def test_bad_map_or_flow_file_is_data_error(tmp_path, capsys, command, broken, content):
    map_path = tmp_path / "map.json"
    csv_path = tmp_path / "flows.csv"
    doc = _labeled_map_doc()
    map_path.write_text(json.dumps(doc))
    assert main(["gen", "benign", str(csv_path), "--duration", "30"]) == 0
    target = map_path if broken == "map" else csv_path
    if content is None:
        target.unlink()
    elif isinstance(content, bytes):
        target.write_bytes(content)
    elif isinstance(content, str):
        target.write_text(content)
    else:
        target.write_text(json.dumps(content(doc)))
    capsys.readouterr()
    if command == "eval":
        argv = ["eval", str(map_path), str(csv_path)]
    else:
        argv = ["train", "--config", str(write_tiny_config(tmp_path)),
                "--out", str(tmp_path / "o"), str(csv_path)]
    assert main(argv) == 2
    assert str(target) in capsys.readouterr().err


def test_eval_unlabeled_map_is_data_error(tmp_path):
    blank = tmp_path / "blank.json"
    init_map(2, 2, 5, seed=0).save(blank)
    data = tmp_path / "d.csv"
    assert main(["gen", "benign", str(data), "--duration", "30"]) == 0
    assert main(["eval", str(blank), str(data)]) == 2
