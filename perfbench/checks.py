"""Output checks applied to every benchmark cell.

A cell passes when its event log conserves flows per agent, its confusion
counts add up to its classify events, and its metrics and digest can be
recomputed from the log alone.  For `mecshield run` the files written must
also agree with the in-memory results.
"""
from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

from mecshield.harness import (METRIC_COLUMNS, compute_metrics,
                               event_log_digest, metrics_row)


def check_cell(events: list[dict], row: dict, metrics=None) -> list[str]:
    """Problems with one cell: `row` is its metrics.csv row as returned by
    the program, `metrics` the RunMetrics object if the caller has one."""
    problems = []
    for e in events:
        if e["kind"] == "agent_summary" and \
                e["processed"] != e["forwarded"] + e["dropped"] + e["blocked"]:
            problems.append(f"flow conservation broken at agent {e['agent']}: "
                            f"processed {e['processed']} != forwarded {e['forwarded']} "
                            f"+ dropped {e['dropped']} + blocked {e['blocked']}")
    n_classify = sum(1 for e in events if e["kind"] == "classify")
    confusion = row["tp"] + row["fp"] + row["tn"] + row["fn"]
    if confusion != n_classify:
        problems.append(f"tp+fp+tn+fn = {confusion} but {n_classify} classify events")
    try:
        recomputed = compute_metrics(events)
    except (ValueError, KeyError, StopIteration) as e:
        return problems + [f"compute_metrics failed on the log: {e!r}"]
    if metrics is not None and recomputed != metrics:
        problems.append("compute_metrics(events) differs from the returned metrics")
    expected = metrics_row(recomputed, event_log_digest(events))
    for col in METRIC_COLUMNS:
        if expected[col] != row[col]:
            problems.append(f"{col}: returned {row[col]!r}, recomputed {expected[col]!r}")
    return problems


def _fmt(value) -> str:
    """metrics.csv cell format: empty for None, repr for floats."""
    if value is None:
        return ""
    return repr(value) if isinstance(value, float) else str(value)


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_run_outputs(out_dir, cells: list[tuple[str, list[dict], dict]]) -> dict[str, list[str]]:
    """Problems per cell key with the files `mecshield run` wrote to out_dir.

    `cells` lists (key, events, row) in the order the program wrote them;
    a key is `scheme/level` as in summary.json."""
    out_dir = Path(out_dir)
    problems: dict[str, list[str]] = {key: [] for key, _e, _r in cells}
    everywhere = []
    with open(out_dir / "metrics.csv", newline="") as f:
        table = list(csv.reader(f))
    if not table or table[0] != METRIC_COLUMNS:
        everywhere.append("metrics.csv header differs from METRIC_COLUMNS")
    elif len(table) - 1 != len(cells):
        everywhere.append(f"metrics.csv has {len(table) - 1} rows for {len(cells)} cells")
    else:
        for (key, _events, row), line in zip(cells, table[1:]):
            if line != [_fmt(row[c]) for c in METRIC_COLUMNS]:
                problems[key].append("metrics.csv row differs from the returned metrics")
    summary = json.loads((out_dir / "summary.json").read_text())
    digests = summary.get("digests", {})
    if digests.get("metrics_csv") != _sha256(out_dir / "metrics.csv"):
        everywhere.append("summary.json digest of metrics.csv is wrong")
    if digests.get("events_jsonl") != _sha256(out_dir / "events.jsonl"):
        everywhere.append("summary.json digest of events.jsonl is wrong")
    for key, _events, row in cells:
        if digests.get("cells", {}).get(key) != row["event_digest"]:
            problems[key].append("summary.json cell digest differs from metrics row")
    # events.jsonl holds the cells back to back; hashing each cell's lines
    # reproduces event_log_digest of that cell
    with open(out_dir / "events.jsonl", "rb") as f:
        for key, events, row in cells:
            h = hashlib.sha256()
            for _ in range(len(events)):
                h.update(f.readline())
            if h.hexdigest() != row["event_digest"]:
                problems[key].append("events.jsonl lines differ from the cell's event log")
        if f.read(1):
            everywhere.append("events.jsonl has lines beyond the last cell")
    for key in problems:
        problems[key].extend(everywhere)
    return problems
