"""One cold repetition of a workload, in a fresh interpreter.

Started by run.py.  Reports the monotonic clock reading at which mecshield was
imported and the config parsed and validated (run.py subtracts its own reading
at spawn to get set-up time), then runs the workload's cells, checks every
cell, and writes a JSON result.  With --trace the spans go to spans.npz in
the repetition's directory.

Host speed is sampled with calib.py's kernel all through the cells; wall_s
and the tracer's spans leave the kernels' time out.
"""
import argparse
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--dir", required=True, help="fresh directory for this repetition")
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args()
    sys.path.insert(0, str(HERE.parent / "src"))

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    import mecshield.cli  # noqa: F401 - the import users pay for
    from mecshield.config import load_config
    rc = load_config(args.config)
    t_ready = time.perf_counter()

    rep_dir = Path(args.dir)
    result = {"t_ready": t_ready}
    if not args.setup_only:
        import calib
        import workloads
        calib.kernel()                  # untimed: its first numpy calls warm up
        sampler = calib.Sampler()
        if tracer is not None:
            tracer.clock = sampler.work_clock

        def pause():
            sampler.stop()
            if tracer is not None:
                tracer.active = False

        def resume():
            if tracer is not None:
                tracer.active = True
            sampler.start()

        resume()

        if workloads.WORKLOADS[args.workload]["cli"]:
            out = rep_dir / "out"
            result.update(workloads.run_cli(args.workload, args.seed, rc,
                                            args.config, out, pause))
        else:
            result.update(workloads.run_sweep(args.workload, args.seed, rc,
                                              pause, resume))
        pause()
        result["wall_s"] -= sampler.spent_s
        result["kernel_s"] = sampler.times
        if tracer is not None:
            tracer.uninstall()
            tracer.save(rep_dir / "spans.npz")
            result["spans"] = "spans.npz"
    (rep_dir / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
