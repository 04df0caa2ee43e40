"""CLI tests: command wiring, outputs, exit codes, digest stability."""
import csv
import hashlib
import json

import pytest
import yaml

from mecshield import cli, harness
from mecshield.cli import main
from mecshield.config import parse_config, reference_config_dict
from mecshield.harness import METRIC_COLUMNS, event_log_digest, flows_to_samples
from mecshield.som import BENIGN, MALICIOUS, SomHyperParams, SomMap, init_map
from mecshield.traffic import load_flow_csv


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


def test_file_digest_reads_in_blocks(tmp_path):
    # events.jsonl is hashed a block at a time; a file of two and a half
    # blocks, with the last block partly filled, hashes as a whole read does
    path = tmp_path / "big.bin"
    path.write_bytes(bytes(range(256)) * (cli.HASH_BLOCK * 5 // 512) + b"tail")
    assert path.stat().st_size > 2 * cli.HASH_BLOCK
    assert cli._sha256(path) == hashlib.sha256(path.read_bytes()).hexdigest()


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


def _two_by_two_config(tmp_path):
    doc = tiny_config_doc()
    doc["schemes"] = ["distributed", "mecshield"]
    doc["attack_levels"] = [300, 100]
    path = tmp_path / "run.yaml"
    path.write_text(yaml.safe_dump(doc))
    return path


def test_events_file_is_each_cells_log_in_order(tmp_path, monkeypatch):
    captured = {}
    run_matrix = cli.run_matrix

    def capture(*args, **kwargs):
        captured["rows"], captured["logs"] = run_matrix(*args, **kwargs)
        return captured["rows"], captured["logs"]

    monkeypatch.setattr(cli, "run_matrix", capture)
    out = tmp_path / "out"
    assert main(["run", "--config", str(_two_by_two_config(tmp_path)),
                 "--out", str(out)]) == 0
    cells = [(s, lv) for s in ("distributed", "mecshield") for lv in (300.0, 100.0)]
    assert [(r["scheme"], r["attack_level"]) for r in captured["rows"]] == cells
    expected = "".join(json.dumps(e, sort_keys=True) + "\n"
                       for cell in cells for e in captured["logs"][cell])
    assert (out / "events.jsonl").read_text() == expected
    for row, cell in zip(captured["rows"], cells):
        assert row["event_digest"] == event_log_digest(captured["logs"][cell])


def test_failed_run_leaves_no_partial_or_stale_outputs(tmp_path, monkeypatch, capsys):
    config, out = _two_by_two_config(tmp_path), tmp_path / "out"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 0
    run = harness.run
    calls = []

    def fail_second_cell(*args, **kwargs):
        calls.append(1)
        if len(calls) == 2:
            raise RuntimeError("cell failed")
        return run(*args, **kwargs)

    monkeypatch.setattr(harness, "run", fail_second_cell)
    capsys.readouterr()
    # the rerun truncates the earlier events.jsonl, so the earlier
    # metrics.csv and summary.json must go too
    assert main(["run", "--config", str(config), "--out", str(out)]) == 3
    assert "cell failed" in capsys.readouterr().err
    assert len(calls) == 2
    assert list(out.iterdir()) == []


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
    # removed fields, values out of range or not finite, values of the wrong
    # type, and duplicate cells; the error names the last key of the path
    nan, inf = float("nan"), float("inf")
    for where, value in [(("scenario", "drop_packets_max"), 3),
                         (("som", "rng_seed"), 0),
                         (("detection", "smurf_ppf_multiplier"), 10.0),
                         (("detection", "smurf_ppf_floor"), 500.0),
                         (("detection", "smurf_max_flows"), 10),
                         (("detection", "vol_rate_multiplier"), 10.0),
                         (("detection", "vol_rate_floor"), 1e6),
                         (("detection", "app_rate_multiplier"), 10.0),
                         (("detection", "baseline_horizon"), 60.0),
                         (("scenario", "level_rate_unit"), 1000.0),
                         (("scenario", "base_level"), 50.0),
                         (("scenario", "policy_ttl"), 0.0),
                         (("scenario", "attack_level"), -1.0),
                         (("scenario", "pretrain_samples"), 0),
                         (("som", "width"), 0), (("som", "height"), 0),
                         (("attack_levels",), [100, 0]),
                         (("attack_levels",), [-300]),
                         (("scenario", "duration"), nan),
                         (("scenario", "window_length"), inf),
                         (("scenario", "link_delay"), nan),
                         (("scenario", "analysis_delay"), inf),
                         (("scenario", "attack_level"), nan),
                         (("attack_levels",), [inf]),
                         (("attack_levels",), [100, nan]),
                         (("scenario", "attacks", 0, "start_time"), "abc"),
                         (("scenario", "agents", 0, "addr_lo"), "x"),
                         (("seed",), "abc"),
                         (("som", "width"), "wide"),
                         (("scenario", "local_trigger_count"), "five"),
                         (("scenario", "pretrain_samples"), 2.5),
                         (("scenario", "quiet_period"), "long"),
                         (("detection", "syn_flows_per_window"), "many"),
                         (("scenario", "agents", 0), "sensor-net"),
                         (("scenario", "attacks", 1, "scale_with_level"), "no"),
                         (("scenario", "attacks", 1, "src_offset"), 1.7),
                         (("scenario", "agents", 0, "profile", "device_count"), 0x10001),
                         (("scenario", "attacks", 0, "target_addr"), -5),
                         (("scenario", "attacks", 1, "target_addr"), 2**40),
                         (("scenario", "agents", 2, "addr_hi"), 2**33),
                         (("schemes",), ["mecshield", "mecshield"]),
                         (("attack_levels",), [100, 100.0])]:
        doc = tiny_config_doc()
        target = doc
        for k in where[:-1]:
            target = target[k]
        target[where[-1]] = value
        path.write_text(yaml.safe_dump(doc))
        capsys.readouterr()
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert [k for k in where if isinstance(k, str)][-1] in err
        assert "Traceback" not in err


@pytest.mark.parametrize("argv, flag", [
    (["gen", "attack", "{out}", "--bots", "0"], "--bots"),
    (["gen", "attack", "{out}", "--sub-mode", "bogus"], "--sub-mode"),
    (["gen", "attack", "{out}", "--scenario", "volumetric"], "--sub-mode"),
    (["gen", "benign", "{out}", "--duration", "-1"], "--duration"),
    (["gen", "benign", "{out}", "--duration", "nan"], "--duration"),
    (["gen", "attack", "{out}", "--duration", "nan"], "--duration"),
    (["gen", "attack", "{out}", "--duration", "inf"], "--duration"),
    (["gen", "attack", "{out}", "--duration", "1e12"], "--duration"),
    (["gen", "benign", "{out}", "--duration", "1e300"], "--duration"),
    (["gen", "benign", "{out}", "--category", "bogus"], "--category"),
    (["run", "--seed", "abc"], "--seed"),
    (["run", "--scheme", "mecshield", "--scheme", "mecshield"], "--scheme"),
    # `--seed` is the run seed; training and evaluation read no seed
    (["train", "--seed", "1", "{out}"], "--seed"),
    (["eval", "--seed", "1", "{out}", "{out}"], "--seed"),
    (["gen", "benign", "{out}", "--seed", "-1"], "--seed"),
    (["gen", "attack", "{out}", "--scenario", "volumetric", "--sub-mode", "dns",
      "--target-addr", "-5"], "--target-addr"),
    (["gen", "attack", "{out}", "--target-addr", "4294967296"], "--target-addr"),
])
def test_bad_arguments_exit_1_naming_the_flag(tmp_path, capsys, argv, flag):
    out = tmp_path / "flows.csv"
    argv = [a.format(out=out) for a in argv]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert flag in err and "Traceback" not in err
    assert not out.exists()


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
    # the map `run` would train on the same samples
    sc = parse_config(tiny_config_doc()).scenario
    samples = flows_to_samples(load_flow_csv(benign_csv) + load_flow_csv(attack_csv),
                               sc.feature_mode, sc.norm_spec, sc.window_length)
    assert json.loads((out / "som_map.json").read_text()) == \
        harness.train_map(sc, *samples).to_dict()
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
