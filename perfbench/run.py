"""mecshield benchmark: host time, memory and simulated outcomes per workload.

    python3 perfbench/run.py --workload ref-matrix --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seconds 40

Run from the root of a source checkout; the simulator is imported from its
`src/`.  Each repetition is cold: a fresh interpreter and a fresh, empty
directory under `.perfbench/`, one after the other, for as long as the next
one is expected to end within --seconds.  Every cell's outputs are checked.
The last line of standard output is one JSON object: with --trace 0 the
end-to-end metrics (medians over repetitions), with --trace 1 the per-layer
metrics from traced repetitions, which alternate with untraced ones so that
the tracing overhead is measured.  See README.md in this directory.
"""
from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import calib  # noqa: E402
from workloads import WORKLOADS, cell_keys, make_config  # noqa: E402

SETUP_SAMPLES = 5          # set-up-only interpreters per run
REP_TIMEOUT_S = 150


def machine_facts(seed: int) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    import numpy
    commit = None
    if (ROOT / ".git").exists():
        r = subprocess.run(["git", f"--git-dir={ROOT / '.git'}", "rev-parse", "HEAD"],
                           capture_output=True, text=True, check=False)
        commit = r.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "mecshield").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "git_commit": commit, "src_sha256": src.hexdigest(), "seed": seed}


def _spawn(work: Path, tag: str, args: list[str]) -> tuple[dict | None, str]:
    """Run rep.py once in a fresh directory; (result or None, error)."""
    rep_dir = work / tag
    rep_dir.mkdir()
    cmd = [sys.executable, str(HERE / "rep.py"), "--dir", str(rep_dir), *args]
    with open(rep_dir / "stdout", "wb") as out, open(rep_dir / "stderr", "wb") as err:
        t_spawn = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=ROOT)
        try:
            code = proc.wait(timeout=REP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            return None, f"{tag}: timed out after {REP_TIMEOUT_S}s"
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    result_path = rep_dir / "result.json"
    if code != 0 or not result_path.exists():
        tail = (rep_dir / "stderr").read_text(errors="replace")[-2000:]
        return None, f"{tag}: exit code {code}\n{tail}"
    result = json.loads(result_path.read_text())
    result["setup_s"] = result["t_ready"] - t_spawn
    if result.get("spans"):
        from tracer import derive
        result["layers"], result["missing_hooks"] = derive(rep_dir / result["spans"])
    return result, ""


def _sim_metrics(cells: list[dict]) -> dict[str, float]:
    tp = sum(c["tp"] for c in cells)
    fn = sum(c["fn"] for c in cells)
    classified = sum(c["tp"] + c["fp"] + c["tn"] + c["fn"] for c in cells)
    reacted = [c["reaction_time"] for c in cells if c["reaction_time"] is not None]
    work = [c["controller_work_attack_mean"] for c in cells
            if c["controller_work_attack_mean"] is not None]
    return {
        "sim_detection_rate": tp / (tp + fn) if tp + fn else 0.0,
        "sim_accuracy": (tp + sum(c["tn"] for c in cells)) / classified if classified else 0.0,
        "sim_reaction_s": statistics.fmean(reacted) if reacted else 0.0,
        "sim_ctrl_work": statistics.fmean(work) if work else 0.0,
        "sim_filter_s": float(sum(c["active_filter_integral"] for c in cells)),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    work = ROOT / ".perfbench" / f"run-{os.getpid()}-{name}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    try:
        import yaml
        config = work / "config.yaml"
        config.write_text(yaml.safe_dump(make_config(name, seed), sort_keys=False))
        base = ["--workload", name, "--seed", str(seed), "--config", str(config)]
        errors: list[str] = []
        # the first interpreter compiles bytecode; it is not a sample
        _spawn(work, "warmup", [*base, "--setup-only"])
        # set-up samples alternate with import probes: (host s, mean probe s)
        setup = []
        probe = calib.import_probe_s(ROOT)
        for i in range(SETUP_SAMPLES):
            res, err = _spawn(work, f"setup{i}", [*base, "--setup-only"])
            before, probe = probe, calib.import_probe_s(ROOT)
            if res is None:
                errors.append(err)
            else:
                setup.append((res["setup_s"], (before + probe) / 2))
        reps: list[dict] = []
        attempted = failed = 0
        min_reps = 2 if trace else 1
        t_start = time.perf_counter()
        for i in itertools.count():
            traced = trace and i % 2 == 0
            res, err = _spawn(work, f"rep{i}", [*base, "--trace", str(int(traced))])
            n_cells = len(cell_keys(name, seed))
            attempted += n_cells
            if res is None:
                failed += n_cells
                errors.append(err)
            else:
                res["traced"] = traced
                failed += sum(1 for c in res["cells"] if c["problems"])
                reps.append(res)
            # stop unless one more repetition of average length fits in --seconds
            elapsed = time.perf_counter() - t_start
            if i + 1 >= min_reps and elapsed * (i + 2) / (i + 1) > seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    return {"workload": name, "seed": seed, "reps": reps, "setup": setup,
            "attempted": attempted, "failed": failed, "errors": errors}


def summarize(run: dict) -> tuple[dict, dict, list[str]]:
    """(end-to-end metrics, per-layer metrics, notes) of one workload run."""
    reps = run["reps"]
    notes: list[str] = []
    plain = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    digests = {tuple(c["digest"] for c in r["cells"]) for r in reps}
    if len(digests) > 1:
        notes.append("NONDETERMINISTIC: repetitions disagree on cell digests")
    e2e: dict[str, float] = {}
    # host times in reference seconds (calib.py): each repetition's wall time
    # is scaled by its own kernel times, each set-up sample by its probes
    for r in reps:
        r["wall_ref_s"] = r["wall_s"] * calib.scale(r["kernel_s"])
    if run["setup"]:
        e2e["setup_s"] = statistics.median(
            host / probe for host, probe in run["setup"]) * calib.IMPORT_REFERENCE_S
    if plain:
        flows = sum(c.get("flows_presented", 0) for c in plain[0]["cells"])
        e2e["wall_s"] = statistics.median(r["wall_ref_s"] for r in plain)
        e2e["host_us_per_flow"] = statistics.median(
            r["wall_ref_s"] / flows * 1e6 for r in plain) if flows else 0.0
        e2e["peak_rss_mb"] = statistics.median(r["peak_rss_kb"] / 1024 for r in plain)
    if reps and all(not c["problems"] for c in reps[0]["cells"]):
        e2e.update(_sim_metrics(reps[0]["cells"]))
    layers: dict[str, float] = {}
    if traced:
        missing = sorted({h for r in traced for h in r["missing_hooks"]})
        for h in missing:
            notes.append(f"MISSING hook {h}: metrics derived from it are not reported")
        for key in traced[0]["layers"]:
            layers[key] = statistics.median(r["layers"][key] for r in traced)
        layers["cli.events_bytes"] = statistics.median(r["events_bytes"] for r in traced)
        if plain:
            layers["trace.overhead_s"] = (statistics.median(r["wall_ref_s"] for r in traced)
                                          - e2e["wall_s"])
    return e2e, layers, notes


def digest_report(run: dict) -> str:
    """The digest_match line: cell digests against those pinned in golden.json."""
    golden = json.loads((HERE / "golden.json").read_text()).get(run["workload"])
    if golden is None:
        return "digest_match: n/a (no digests pinned for this workload)"
    if not run["reps"]:
        return "digest_match: n/a (no repetition finished)"
    if run["seed"] != golden["seed"]:
        return (f"digest_match: n/a (digests are pinned at seed {golden['seed']}, "
                f"this run used seed {run['seed']})")
    got = {c["key"]: c["digest"] for c in run["reps"][0]["cells"]}
    differ = sorted(k for k, d in golden["cells"].items() if got.get(k) != d)
    if differ:
        return f"digest_match: false ({len(differ)} cells differ: {', '.join(differ)})"
    return f"digest_match: true ({len(golden['cells'])} cells pinned at seed {golden['seed']})"


def pin_digests(run: dict) -> None:
    path = HERE / "golden.json"
    golden = json.loads(path.read_text())
    golden[run["workload"]] = {"seed": run["seed"], "cells": {
        c["key"]: c["digest"] for c in run["reps"][0]["cells"]}}
    path.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"  pinned {len(golden[run['workload']]['cells'])} cell digests in {path.name}")


def report(run: dict, trace: bool, spec: dict) -> tuple[bool, dict]:
    """Print the human-readable report; returns (correct, metrics)."""
    e2e, layers, notes = summarize(run)
    reps = run["reps"]
    print(f"== {run['workload']} (seed {run['seed']}, trace {int(trace)}): "
          f"{len(reps)} repetitions, {run['attempted']} cells attempted, "
          f"{run['failed']} failed")
    for err in run["errors"]:
        print(f"  error: {err}")
    for r in reps:
        for c in r["cells"]:
            for p in c["problems"]:
                print(f"  FAILED {c['key']}: {p}")
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    values = layers if trace else e2e
    metrics = {}
    for m in wanted:
        if m["name"] not in values:
            notes.append(f"MISSING metric {m['name']}")
            continue
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"  {m['name']:34s} {values[m['name']]:>16.6g} {m['unit']}")
    print("  per repetition, host s -> reference s (kernels, mean kernel s): " + ", ".join(
        f"{r['wall_s']:.3f} -> {r['wall_ref_s']:.3f} ({len(r['kernel_s'])}, "
        f"{statistics.fmean(r['kernel_s']):.5f})"
        f"{' traced' if r['traced'] else ''}" for r in reps))
    if run["setup"]:
        print(f"  set-up, median of {len(run['setup'])}: host s "
              f"{statistics.median(h for h, _ in run['setup']):.4f}, import probe s "
              f"{statistics.median(p for _, p in run['setup']):.4f}")
    if trace and "setup_s" in e2e:
        print(f"  (setup_s {e2e['setup_s']:.6g} s)")
    print(f"  {digest_report(run)}")
    if reps:
        for c in reps[0]["cells"]:
            print(f"  cell {c['key']:32s} {c['digest']}")
    for n in notes:
        print(f"  {n}")
    correct = (run["failed"] == 0 and bool(reps)
               and not any(n.startswith("NONDETERMINISTIC") for n in notes))
    return correct, metrics


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--pin", action="store_true",
                   help="store this run's cell digests in golden.json")
    args = p.parse_args(argv)
    if not (ROOT / "src" / "mecshield" / "__init__.py").is_file():
        print(f"perfbench: no mecshield sources under {ROOT / 'src'}; "
              "run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    print("facts: " + json.dumps({**machine_facts(args.seed), "workloads": names,
                                  "seconds": args.seconds, "trace": args.trace}))
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        run = run_workload(name, args.seed, args.seconds, bool(args.trace))
        ok, values = report(run, bool(args.trace), spec)
        correct &= ok
        attempted += run["attempted"]
        failed += run["failed"]
        if not run["reps"]:
            print(f"perfbench: no repetition of {name} finished", file=sys.stderr)
            return 1
        prefix = "" if len(names) == 1 else f"{name}/"
        metrics.update({prefix + k: v for k, v in values.items()})
        if args.pin and ok:
            pin_digests(run)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
