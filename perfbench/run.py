"""Benchmark command.

    python3 perfbench/run.py --workload {bulk,search,churn} --seed N \\
        --seconds S --trace {0,1}

Run from the repository root.  Makes the workload's inputs from the seed,
sets up several times (median reported as ``setup_s``), measures for
``--seconds``, checks every result, and prints one JSON line last on
stdout: the end-to-end metrics (``--trace 0``) or the per-layer metrics
of a traced run (``--trace 1``).  A wrong result exits non-zero without
printing a result.  A human report goes to stderr.

    python3 perfbench/run.py --workload W --steady N [--sets K]

runs the workload N times (K sets, fresh seeds each run) in child
processes and prints each end-to-end metric's median, quartiles and
spread against its bound in BENCHMARK.json.  See NOTES.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_REPS = 2
TIME_LIMIT_S = 170
TMP_PARENT = ".perfbench_tmp"

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_p50_ms": "ms",
    "aux_p50_ms": "ms",
    "throughput_per_s": "1/s",
    "index_bytes_per_input_byte": "ratio",
    "driver_peak_rss_mb": "MB",
}


def normalise(raw: dict, factor: float) -> dict:
    """Timed-window metrics at the reference host speed (see
    ``measure.HostSpeed``): durations times the factor, rates divided by
    it.  ``setup_s`` stays as measured."""
    out = dict(raw)
    for name in ("op_p50_ms", "aux_p50_ms"):
        out[name] = raw[name] * factor
    out["throughput_per_s"] = raw["throughput_per_s"] / factor
    return out


def _timeout(signum, frame):
    raise TimeoutError(f"run exceeded {TIME_LIMIT_S} s")


def measure(args) -> dict:
    """One run; returns the result object (raises on a wrong result)."""
    sys.path.insert(0, ROOT)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, os.environ.get("PYTHONPATH")) if p)
    import layers
    from measure import median
    from tracer import Tracer
    from workloads import WORKLOADS

    os.makedirs(os.path.join(ROOT, TMP_PARENT), exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="r", dir=os.path.join(ROOT, TMP_PARENT))
    w = WORKLOADS[args.workload](tmp, args.seed, args.scale, args.corrupt)
    tracer = Tracer() if args.trace else None
    try:
        w.make_inputs()
        if tracer:
            tracer.install()
            w.traced = True
        setup = []
        for rep in range(SETUP_REPS):
            if rep:
                w.undo_setup()
            t0 = time.perf_counter()
            w.setup()
            setup.append(time.perf_counter() - t0)
        if tracer:
            # untraced first half, traced second half: the difference of
            # the primary latency is the tracing overhead
            tracer.uninstall()
            w.run(args.seconds / 2)
            n0 = len(w.primary())
            tracer.install()
            t0 = time.perf_counter()
            w.run(args.seconds / 2)
            window = (t0, time.perf_counter())
            prim = w.primary()
            overhead = median(prim[n0:]) / median(prim[:n0]) - 1.0
            probes = layers.probe(w, tracer)
            tracer.uninstall()
            split = layers.split_table(tracer, window)
        else:
            w.run(args.seconds)
        w.check()
        if tracer:
            values = layers.layer_metrics(w, tracer, window, overhead, probes)
            units = layers.UNITS
            print(json.dumps({"split_s": split,
                              "window_s": window[1] - window[0]}),
                  file=sys.stderr)
        else:
            raw = {"setup_s": median(setup), **w.metrics(),
                   "driver_peak_rss_mb": w.rss_mb}
            values = normalise(raw, w.clock.factor())
            units = END_TO_END_UNITS
            print(json.dumps({"raw": raw, "host_factor": w.clock.factor()}),
                  file=sys.stderr)
        print(json.dumps({"workload": w.name, "seed": args.seed,
                          "setup_reps_s": setup, **w.report()}),
              file=sys.stderr)
        return {"correct": True, "attempted": w.attempted,
                "failed": w.failed,
                "metrics": {k: {"value": float(values[k]), "unit": u}
                            for k, u in units.items()}}
    finally:
        if tracer:
            tracer.uninstall()
        w.close()
        shutil.rmtree(tmp, ignore_errors=True)
        if w.extra_tmp:
            shutil.rmtree(w.extra_tmp, ignore_errors=True)
        try:
            os.rmdir(os.path.join(ROOT, TMP_PARENT))
        except OSError:
            pass


def steady(args) -> int:
    """Run the workload ``--steady`` times per set in child processes and
    print each end-to-end metric's median, quartiles and spread."""
    from measure import spread
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    sets = []
    extra = {}
    for k in range(args.sets):
        values = {}
        for i in range(args.steady):
            seed = args.seed + k * args.steady + i
            cmd = [sys.executable, os.path.abspath(__file__),
                   "--workload", args.workload, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", "0"]
            p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                               stderr=subprocess.PIPE, text=True)
            if p.returncode != 0:
                print(f"seed {seed}: exit {p.returncode}", file=sys.stderr)
                return 1
            res = json.loads(p.stdout.strip().splitlines()[-1])
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            # the child's stderr report: raw values and issue-named extras
            for line in p.stderr.splitlines():
                if line.startswith("{"):
                    rep = json.loads(line)
                    raw = {f"raw.{n}": v for n, v in rep.pop("raw", {}).items()}
                    for key, v in {**raw, **rep}.items():
                        if isinstance(v, (int, float)) and key != "seed":
                            extra.setdefault(key, []).append(v)
            print(f"set {k} seed {seed}: " + " ".join(
                f"{n}={m['value']:.4g}" for n, m in res["metrics"].items()),
                file=sys.stderr)
        sets.append(values)
    summary = {}
    for name in sets[0]:
        rows = [spread(s[name]) for s in sets]
        bound = bounds.get(name)
        entry = {"bound": bound, "sets": rows}
        if bound is not None:
            entry["spread_ok"] = all(r["spread"] <= bound / 3 for r in rows) \
                if name != "setup_s" else True
        if len(rows) > 1:
            entry["median_change"] = rows[1]["median"] / rows[0]["median"] - 1
        summary[name] = entry
        print(f"{name:28s} " + "  ".join(
            f"med={r['median']:.4g} q1={r['q1']:.4g} q3={r['q3']:.4g} "
            f"spread={r['spread']:.3f}" for r in rows) +
            (f"  bound={bound}" if bound is not None else ""),
            file=sys.stderr)
    for name, vals in extra.items():
        if len(vals) >= 2 and min(vals) > 0:
            print(f"  (report) {name:26s} " + " ".join(
                f"{k}={v:.4g}" for k, v in spread(vals).items()),
                file=sys.stderr)
    print(json.dumps({"workload": args.workload, "runs": args.steady,
                      "summary": summary}))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["bulk", "search", "churn"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--steady", type=int, default=0,
                    help="run N times per set and print spreads")
    ap.add_argument("--sets", type=int, default=1)
    # self-test knobs: shrink the inputs; corrupt one checked result
    ap.add_argument("--scale", type=float, default=1.0, help=argparse.SUPPRESS)
    ap.add_argument("--corrupt", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.steady:
        return steady(args)
    signal.signal(signal.SIGALRM, _timeout)
    # a terminated run still shuts Ray down and removes its files
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    signal.alarm(TIME_LIMIT_S)
    try:
        result = measure(args)
    except Exception as e:  # report and fail the run: no result line
        import traceback
        traceback.print_exc()
        print(f"perfbench: {type(e).__name__}: {e}", file=sys.stderr)
        return 2
    finally:
        signal.alarm(0)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
