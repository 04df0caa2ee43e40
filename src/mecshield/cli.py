"""Command-line entry point: train / run / eval / gen.

Exit codes: 0 success, 1 config error, 2 data error, 3 runtime error.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from pathlib import Path

from .config import RunConfig, config_to_dict, load_config, reference_config
from .errors import ConfigError, DataError
from .features import MODE_DIM
from .harness import METRIC_COLUMNS, confusion, flows_to_samples, run_matrix, train_map
from .som import BENIGN, MALICIOUS, SomMap
from .traffic import (ADDR_MAX, MAX_FLOWS, AttackProfile, default_benign_profile,
                      gen_attack, gen_benign, load_flow_csv, write_flow_csv)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


# bytes `_sha256` reads at a time, so a large events.jsonl is never held whole
HASH_BLOCK = 1 << 20


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        while block := f.read(HASH_BLOCK):
            h.update(block)
    return h.hexdigest()


def _load_or_default_config(args) -> RunConfig:
    rc = load_config(args.config) if args.config else reference_config()
    if getattr(args, "seed", None) is not None:
        rc.scenario.seed = args.seed
    if getattr(args, "out", None):
        rc.output_dir = args.out
    if getattr(args, "scheme", None):
        if len(set(args.scheme)) < len(args.scheme) or not set(args.scheme) <= set(rc.schemes):
            raise ConfigError(f"--scheme must name distinct schemes of {rc.schemes}, "
                              f"got {args.scheme}")
        rc.schemes = list(args.scheme)
    return rc


# -- commands ---------------------------------------------------------------

def cmd_train(args) -> int:
    rc = _load_or_default_config(args)
    sc = rc.scenario
    flows = []
    for path in args.dataset:
        flows.extend(load_flow_csv(path))
    if not flows:
        raise DataError("training dataset is empty; no map written")
    vectors, labels = flows_to_samples(flows, sc.feature_mode, sc.norm_spec,
                                       sc.window_length)
    m = train_map(sc, vectors, labels)
    out_dir = Path(rc.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    map_path = out_dir / "som_map.json"
    m.save(map_path)
    summary = {
        "epoch": m.epoch,
        "samples": len(vectors),
        "neurons": m.neuron_count,
        "labeled_benign": int((m.labels == BENIGN).sum()),
        "labeled_malicious": int((m.labels == MALICIOUS).sum()),
        "per_neuron": [
            {"index": j, "label": str(m.labels[j]), "hit_count": int(m.hit_counts[j]),
             "benign_wins": int(m.benign_wins[j]),
             "malicious_wins": int(m.malicious_wins[j])}
            for j in range(m.neuron_count)
        ],
    }
    with open(out_dir / "training_summary.json", "w") as f:
        json.dump(summary, f, sort_keys=True, indent=1)
        f.write("\n")
    print(f"trained map: epoch={m.epoch} "
          f"benign_neurons={summary['labeled_benign']} "
          f"malicious_neurons={summary['labeled_malicious']} -> {map_path}")
    return 0


def cmd_run(args) -> int:
    rc = _load_or_default_config(args)
    out_dir = Path(rc.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    outputs = [out_dir / name for name in ("events.jsonl", "metrics.csv", "summary.json")]
    events_path, metrics_path, summary_path = outputs
    # opening the log truncates an earlier run's, so from here on a failure
    # removes all three outputs: none is partial or describes a missing log
    events = open(events_path, "w")
    try:
        # run_matrix writes each cell's events as the cell finishes
        with events:
            rows = run_matrix(rc.scenario, rc.schemes, rc.attack_levels, out=events)[0]

        with open(metrics_path, "w") as f:
            f.write(",".join(METRIC_COLUMNS) + "\n")
            for row in rows:
                f.write(",".join(_fmt(row[c]) for c in METRIC_COLUMNS) + "\n")

        with open(summary_path, "w") as f:
            json.dump({
                "config": config_to_dict(rc),
                "digests": {
                    "metrics_csv": _sha256(metrics_path),
                    "events_jsonl": _sha256(events_path),
                    "cells": {f"{r['scheme']}/{_fmt(r['attack_level'])}": r["event_digest"]
                              for r in rows},
                },
            }, f, sort_keys=True, indent=1)
            f.write("\n")
    except Exception:
        for p in outputs:
            p.unlink(missing_ok=True)
        raise
    print(f"wrote {len(rows)} metric rows to {out_dir}/metrics.csv")
    return 0


def cmd_eval(args) -> int:
    try:
        m = SomMap.load(args.map)
    except (OSError, ValueError) as e:
        raise DataError(f"{args.map}: cannot load map: {e}") from e
    modes = {dim: mode for mode, dim in MODE_DIM.items()}
    if m.dim not in modes:
        raise DataError(f"{args.map}: map dimension {m.dim} matches no feature mode "
                        f"(expected one of {sorted(modes)})")
    if not m.is_labeled:
        raise DataError(f"{args.map}: map has no labeled neurons")
    sc = _load_or_default_config(args).scenario
    flows = load_flow_csv(args.dataset)
    if not flows:
        raise DataError(f"{args.dataset}: no flows to evaluate")
    vectors, labels = flows_to_samples(flows, modes[m.dim], sc.norm_spec,
                                       sc.window_length)
    tp, fp, tn, fn, dr, acc = confusion(
        (truth == MALICIOUS, pred == MALICIOUS)
        for truth, pred in zip(labels, m.classify_batch(vectors)))
    result = {"tp": tp, "fp": fp, "tn": tn, "fn": fn,
              "detection_rate": dr, "accuracy": acc, "samples": len(labels)}
    print(json.dumps(result, sort_keys=True))
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        with open(out_dir / "eval.json", "w") as f:
            json.dump(result, f, sort_keys=True, indent=1)
            f.write("\n")
    return 0


def cmd_gen(args) -> int:
    if args.kind == "benign":
        profile, gen = default_benign_profile(args.category), gen_benign
    else:
        try:
            profile = AttackProfile(scenario=args.scenario, sub_mode=args.sub_mode,
                                    target_addr=args.target_addr,
                                    bot_count=args.bots)
        except ValueError as e:     # a bot count or sub-mode that the scenario rejects
            raise ConfigError(f"--bots {args.bots}, --scenario {args.scenario!r}, "
                              f"--sub-mode {args.sub_mode!r}: {e}") from e
        gen = gen_attack
    expected = profile.flow_rate() * args.duration    # NaN for a NaN duration
    if not 0 < expected <= MAX_FLOWS:
        raise ConfigError(f"--duration must be positive and give at most MAX_FLOWS = "
                          f"{MAX_FLOWS} flows, got {args.duration!r} (about {expected:.3g} flows)")
    flows = gen(profile, args.duration, args.seed)
    write_flow_csv(args.output, flows)
    print(f"wrote {len(flows)} flows to {args.output}")
    return 0


# -- argument parsing -------------------------------------------------------

def _int_in(lo: int, hi: float, what: str):
    """An argparse type: an integer in lo..hi.  argparse names the flag in
    its error, and `main` returns 1 for it."""
    def parse(text: str) -> int:
        value = int(text)
        if not lo <= value <= hi:
            raise argparse.ArgumentTypeError(f"must be {what}, got {value}")
        return value
    parse.__name__ = "integer"      # argparse's "invalid integer value: ..."
    return parse


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="mecshield",
        description="Edge-based cooperative DDoS filtering simulator")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", help="YAML run configuration (default: built-in reference)")
        sp.add_argument("--out", help="override the output directory")

    sp = sub.add_parser("train", help="train a SOM from labeled flow CSVs")
    common(sp)
    sp.add_argument("dataset", nargs="+", help="flow CSV file(s)")
    sp.set_defaults(func=cmd_train)

    sp = sub.add_parser("run", help="run the scheme/level comparison matrix")
    common(sp)
    sp.add_argument("--seed", type=int, help="override the run seed")
    sp.add_argument("--scheme", action="append",
                    help="restrict to a scheme (repeatable)")
    sp.set_defaults(func=cmd_run)

    sp = sub.add_parser("eval", help="evaluate a serialized map on a labeled CSV")
    common(sp)
    sp.add_argument("map", help="serialized SOM map (json)")
    sp.add_argument("dataset", help="labeled flow CSV")
    sp.set_defaults(func=cmd_eval)

    sp = sub.add_parser("gen", help="emit a synthetic flow CSV")
    sp.add_argument("kind", choices=["benign", "attack"])
    sp.add_argument("output", help="destination CSV path")
    sp.add_argument("--category", default="sensor",
                    choices=["sensor", "monitor", "alarm"])
    sp.add_argument("--scenario", default="app_layer",
                    choices=["volumetric", "app_layer"])
    sp.add_argument("--sub-mode", dest="sub_mode", default="session_flood")
    sp.add_argument("--target-addr", dest="target_addr", default=0xD0000001,
                    type=_int_in(0, ADDR_MAX, f"an IPv4 address, 0..{ADDR_MAX}"))
    sp.add_argument("--bots", type=int, default=10)
    sp.add_argument("--duration", type=float, default=60.0)
    sp.add_argument("--seed", type=_int_in(0, math.inf, "non-negative"), default=0)
    sp.set_defaults(func=cmd_gen)
    return p


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:     # argparse has printed the usage error, naming the argument
        return 1 if e.code else 0
    try:
        return args.func(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 1
    except DataError as e:
        print(f"data error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # noqa: BLE001 - CLI boundary
        print(f"error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
