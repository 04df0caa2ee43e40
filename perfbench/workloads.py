"""The benchmark's workloads.

Each workload turns a seed into a simulator config (the only input the
simulator sees) and runs its cells back to back in one process: a closed
loop with one client.

  ref-matrix  `mecshield run` on the reference scenario, all three schemes at
              two attack levels.  Schemes share training sets within a level
              and mecshield/distributed train identical local maps, so
              cross-cell reuse of pretraining shows here.
  seed-sweep  `harness.run` at level 300 over consecutive seeds, seed k with
              scheme SCHEMES[k % 3], as in the acceptance sweep.  No two cells
              share pretraining inputs, so a cross-cell cache must not help.
  long-flood  `mecshield run` with all three schemes, one high level, a long
              run and small pretraining: the event loop dominates.

Every workload pretrains on 2000 samples, not the reference 10000, so that
several cold repetitions fit in one run; fewer samples make the simulated
outcomes swing from seed to seed.
"""
from __future__ import annotations

import time

SCHEMES = ("mecshield", "distributed", "centralized")

PRETRAIN_SAMPLES = 2000

WORKLOADS = {
    "ref-matrix": {"cli": True, "levels": [100, 300]},
    "seed-sweep": {"cli": False, "levels": [300], "cells": 6},
    "long-flood": {"cli": True, "levels": [300], "duration": 200.0},
}


def sweep_seeds(name: str, seed: int) -> list[int]:
    """Consecutive simulator seeds of a seed-sweep run."""
    n = WORKLOADS[name]["cells"]
    return list(range(seed * n, seed * n + n))


def make_config(name: str, seed: int) -> dict:
    """The simulator config of one workload at one benchmark seed."""
    from mecshield.config import reference_config_dict
    spec = WORKLOADS[name]
    config_seed = seed if spec["cli"] else sweep_seeds(name, seed)[0]
    doc = reference_config_dict(seed=config_seed)
    doc["attack_levels"] = list(spec["levels"])
    doc["scenario"]["pretrain_samples"] = PRETRAIN_SAMPLES
    if "duration" in spec:
        doc["scenario"]["duration"] = spec["duration"]
    return doc


def cell_keys(name: str, seed: int) -> list[str]:
    spec = WORKLOADS[name]
    if spec["cli"]:
        return [f"{s}/{float(lv)!r}" for s in SCHEMES for lv in spec["levels"]]
    level = float(spec["levels"][0])
    return [f"{SCHEMES[s % 3]}/{level!r}/seed{s}" for s in sweep_seeds(name, seed)]


def _cell_record(key: str, row: dict, problems: list[str]) -> dict:
    return {"key": key, "digest": row["event_digest"], "problems": problems,
            **{c: row[c] for c in ("tp", "fp", "tn", "fn", "reaction_time",
                                   "controller_work_attack_mean",
                                   "active_filter_integral", "flows_presented")}}


def _failed(keys: list[str], why: str) -> list[dict]:
    return [{"key": k, "digest": None, "problems": [why]} for k in keys]


def run_cli(name: str, seed: int, rc, config_path: str, out_dir, pause) -> dict:
    """`mecshield run` in-process; returns wall time and checked cells."""
    from mecshield import cli
    from checks import check_cell, check_run_outputs
    captured = {}
    run_matrix = cli.run_matrix

    def capture(*args, **kwargs):
        captured["rows"], captured["logs"] = run_matrix(*args, **kwargs)
        return captured["rows"], captured["logs"]

    cli.run_matrix = capture
    try:
        t0 = time.perf_counter()
        code = cli.main(["run", "--config", str(config_path), "--out", str(out_dir)])
        wall = time.perf_counter() - t0
    finally:
        cli.run_matrix = run_matrix
    rss_kb = _peak_rss_kb()
    pause()
    keys = cell_keys(name, seed)
    if code != 0 or "rows" not in captured:
        return {"wall_s": wall, "peak_rss_kb": rss_kb, "events_bytes": 0,
                "cells": _failed(keys, f"mecshield run exited with {code}")}
    rows, logs = captured["rows"], captured["logs"]
    cells = []
    for key, row in zip(keys, rows):
        scheme, level = key.split("/")
        cells.append((key, logs[(scheme, float(level))], row))
    file_problems = check_run_outputs(out_dir, cells)
    records = [_cell_record(key, row, check_cell(events, row) + file_problems[key])
               for key, events, row in cells]
    if len(rows) != len(keys):
        records += _failed(keys[len(rows):], "cell missing from metrics")
    return {"wall_s": wall, "peak_rss_kb": rss_kb,
            "events_bytes": (out_dir / "events.jsonl").stat().st_size,
            "cells": records}


def run_sweep(name: str, seed: int, rc, pause, resume) -> dict:
    """`harness.run` per seed; nothing is written."""
    from mecshield import harness
    from checks import check_cell
    level = float(WORKLOADS[name]["levels"][0])
    wall = 0.0
    records = []
    for key, s in zip(cell_keys(name, seed), sweep_seeds(name, seed)):
        t0 = time.perf_counter()
        try:
            cfg = rc.scenario_for(SCHEMES[s % 3], level, seed=s)
            metrics, events = harness.run(cfg)
            digest = harness.event_log_digest(events)
        except Exception as e:  # noqa: BLE001 - a raising cell is a failed cell
            records += _failed([key], f"harness.run raised {e!r}")
            continue
        finally:
            wall += time.perf_counter() - t0
        pause()
        row = harness.metrics_row(metrics, digest)
        records.append(_cell_record(key, row, check_cell(events, row, metrics)))
        del events
        resume()
    return {"wall_s": wall, "peak_rss_kb": _peak_rss_kb(), "events_bytes": 0,
            "cells": records}


def _peak_rss_kb() -> int:
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
