"""Self-tests of the benchmark: determinism across processes, the output
checker, the tracer's hooks and the host-speed scaling."""
import copy
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest
import yaml

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import calib  # noqa: E402
import checks  # noqa: E402
import tracer  # noqa: E402
from mecshield import cli, harness  # noqa: E402
from mecshield.config import parse_config, reference_config_dict  # noqa: E402
from mecshield.som import SomMap  # noqa: E402


def tiny_config(seed: int = 0) -> dict:
    doc = reference_config_dict(seed)
    doc["attack_levels"] = [300]
    doc["scenario"]["duration"] = 40.0
    doc["scenario"]["pretrain_samples"] = 300
    return doc


DIGESTS = """
import json, sys
sys.path.insert(0, sys.argv[1])
from mecshield.config import parse_config
from mecshield.harness import event_log_digest, run
rc = parse_config(json.loads(sys.argv[2]))
print(json.dumps([event_log_digest(run(rc.scenario_for(s, 300.0))[1])
                  for s in rc.schemes]))
"""


def test_tiny_config_digests_equal_across_processes():
    out = []
    for hash_seed in ("1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": hash_seed}
        r = subprocess.run([sys.executable, "-c", DIGESTS, str(ROOT / "src"),
                            json.dumps(tiny_config())],
                           capture_output=True, text=True, env=env, timeout=120,
                           check=True)
        out.append(json.loads(r.stdout))
    assert len(out[0]) == 3
    assert out[0] == out[1]


@pytest.fixture(scope="module")
def cell():
    cfg = parse_config(tiny_config()).scenario_for("distributed", 300.0)
    metrics, events = harness.run(cfg)
    return events, harness.metrics_row(metrics, harness.event_log_digest(events)), metrics


def test_clean_cell_passes(cell):
    events, row, metrics = cell
    assert checks.check_cell(events, row, metrics) == []


def test_flipped_classify_decision_is_flagged(cell):
    events, row, metrics = cell
    doctored = copy.deepcopy(events)
    e = next(e for e in doctored if e["kind"] == "classify" and e["decision"] == "forward")
    e["decision"] = "drop"
    problems = checks.check_cell(doctored, row, metrics)
    assert any("differs from the returned metrics" in p for p in problems)
    assert any(p.startswith("event_digest") for p in problems)


def test_summary_count_off_by_one_is_flagged(cell):
    events, row, metrics = cell
    doctored = copy.deepcopy(events)
    next(e for e in doctored if e["kind"] == "agent_summary")["forwarded"] += 1
    problems = checks.check_cell(doctored, row, metrics)
    assert any(p.startswith("flow conservation broken") for p in problems)


def test_dropped_classify_event_is_flagged(cell):
    events, row, _metrics = cell
    doctored = copy.deepcopy(events)
    doctored.remove(next(e for e in doctored if e["kind"] == "classify"))
    problems = checks.check_cell(doctored, row)
    assert any("classify events" in p for p in problems)


def test_run_outputs_checked_against_results(tmp_path):
    doc = tiny_config()
    doc["schemes"] = ["mecshield", "centralized"]
    config = tmp_path / "config.yaml"
    config.write_text(yaml.safe_dump(doc))
    rc = parse_config(doc)
    rows, logs = harness.run_matrix(rc.scenario, rc.schemes, rc.attack_levels)
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(config), "--out", str(out)]) == 0
    cells = [(f"{r['scheme']}/{r['attack_level']!r}", logs[(r["scheme"], r["attack_level"])], r)
             for r in rows]
    assert all(p == [] for p in checks.check_run_outputs(out, cells).values())

    lines = (out / "events.jsonl").read_text().splitlines(keepends=True)
    lines[-1] = lines[-1].replace('"t": ', '"t": 1', 1)
    (out / "events.jsonl").write_text("".join(lines))
    problems = checks.check_run_outputs(out, cells)
    assert any("events.jsonl lines differ" in p for p in problems[cells[-1][0]])
    assert all(any("digest of events.jsonl" in p for p in ps) for ps in problems.values())


def test_every_hook_resolves():
    tr = tracer.Tracer()
    tr.install()
    patched = {f"{getattr(o, '__name__', o)}.{a}" for o, a, _f in tr._patched}
    tr.uninstall()
    assert tr.missing == []
    # names bound at import time are wrapped where their callers look them up
    assert {"mecshield.agent.extract_one", "mecshield.cli.run_matrix",
            "mecshield.harness.gen_benign", "mecshield.cli.load_config",
            "SomMap.train_step"} <= patched


def test_traced_cell_gives_every_per_layer_metric(tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    tr = tracer.Tracer()
    tr.install()
    try:
        cfg = parse_config(tiny_config()).scenario_for("mecshield", 300.0)
        _metrics, events = harness.run(cfg)
    finally:
        tr.uninstall()
    assert harness.run.__name__ == "run" and not hasattr(harness.run, "__wrapped__")
    tr.save(tmp_path / "spans.npz")
    layers, missing = tracer.derive(tmp_path / "spans.npz")
    assert missing == []
    # cli.events_bytes and trace.overhead_s are measured by run.py itself
    wanted = {m["name"] for m in spec["per_layer"]} - {"cli.events_bytes", "trace.overhead_s"}
    assert wanted <= set(layers)
    assert layers["harness.cells"] == 1
    assert layers["harness.events"] == len(events)
    assert layers["harness.loop_self_s"] > 0.0
    assert layers["harness.build_training_set_calls"] == 3


def test_missing_hook_is_reported_not_zero(tmp_path, monkeypatch):
    monkeypatch.delattr(SomMap, "classify")
    tr = tracer.Tracer()
    tr.install()
    tr.uninstall()
    assert tr.missing == ["som.SomMap.classify"]
    tr.save(tmp_path / "spans.npz")
    layers, missing = tracer.derive(tmp_path / "spans.npz")
    assert missing == ["som.SomMap.classify"]
    assert "som.classify_s" not in layers and "som.classify_calls" not in layers
    assert "harness.loop_self_s" not in layers
    assert "som.classify_batch_s" in layers


def test_run_refuses_a_tree_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".perfbench"))
    r = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "ref-matrix",
                        "--seed", "0", "--seconds", "1", "--trace", "0"],
                       cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert r.returncode != 0
    assert r.stdout.strip() == ""


def test_sampler_times_kernels_while_started():
    sampler = calib.Sampler()
    sampler.start()
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < 5 * calib.INTERVAL_S:
        pass
    sampler.stop()
    elapsed = time.perf_counter() - t0
    assert len(sampler.times) >= 2
    assert sum(sampler.times) <= sampler.spent_s <= elapsed
    n = len(sampler.times)
    time.sleep(2 * calib.INTERVAL_S)
    assert len(sampler.times) == n


def test_host_times_scale_to_the_reference():
    assert calib.scale([2 * calib.REFERENCE_S] * 3) == pytest.approx(0.5)
    assert calib.scale([calib.REFERENCE_S, 3 * calib.REFERENCE_S]) == pytest.approx(0.5)
    assert calib.import_probe_s(ROOT) > 0.0
