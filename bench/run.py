"""Benchmark entry: repeat one workload for a fixed time and print its metrics.

Usage (from the repository root):

    python3 bench/run.py --workload sg-solve --seed 0 --seconds 20 --trace 0

Every repetition is a fresh single-threaded interpreter (``child.py``) that
runs ``sgobstacle.cli.main`` on a config generated from the seed, so
set-up time includes start-up and imports.  ``--trace 0`` reports the
end-to-end metrics of BENCHMARK.json as medians over the repetitions;
``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer metrics as medians over the traced ones.  A repetition whose
command fails or whose outputs fail the gate in ``workloads.py`` is counted
in ``failed`` and contributes no time.  The last line of standard output is
one JSON object; a full record of the run is written to ``bench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from workloads import MC_SAMPLES, WORKLOADS, make_config

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
DEADLINE_S = 165.0  # hard stop for the whole run, below the 180 s limit
# Times are scaled to a machine on which child.reference_work() takes this
# long, because the speed of a shared 2-vCPU virtual machine drifts by tens
# of percent from minute to minute; the raw times stay in the run record.
REF_NOMINAL_S = 0.15
MIN_REPS = 4
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

ENV_PROBE = """
import json, platform, numpy, scipy, sgobstacle.cli
def blas(mod):
    dep = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"{dep.get('name')} {dep.get('version')}"
print(json.dumps({"python": platform.python_version(), "numpy": numpy.__version__,
                  "scipy": scipy.__version__, "numpy_blas": blas(numpy),
                  "scipy_blas": blas(scipy)}))
"""


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def _loadavg() -> str | None:
    try:
        with open("/proc/loadavg") as fh:
            return fh.read().strip()
    except OSError:
        return None


def _run_child(cmd: list, env: dict, timeout: float, stderr_path: str):
    """Run one child to completion (killing it on timeout); returns its exit code."""
    with open(stderr_path, "w") as err:
        proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.DEVNULL,
                                stderr=err)
        try:
            return proc.wait(timeout=max(timeout, 1.0))
        except subprocess.TimeoutExpired:
            return None
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()


def _tail(path: str, n: int = 5) -> str:
    with open(path) as fh:
        return "".join(fh.readlines()[-n:]).strip()


def _median(values):
    return statistics.median(values) if values else None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(SRC, "sgobstacle", "cli.py")):
        print(f"bench: no package source at {SRC}/sgobstacle", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        definition = json.load(fh)
    wanted = definition["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}

    t_start = time.monotonic()
    env = _child_env()
    os.makedirs(os.path.join(BENCH, "work"), exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=os.path.join(BENCH, "work"))
    try:
        return _measure(args, env, work, t_start, units)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _measure(args, env, work, t_start, units) -> int:
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "nproc": os.cpu_count(), "loadavg_before": _loadavg(),
              "threads": {var: env[var] for var in THREAD_VARS}}
    # warm-up: byte-compiles the package on a fresh checkout and records versions
    probe = subprocess.run([sys.executable, "-c", ENV_PROBE], env=env, cwd=ROOT,
                           capture_output=True, text=True, timeout=60)
    if probe.returncode != 0:
        print(f"bench: cannot import the package:\n{probe.stderr}", file=sys.stderr)
        return 2
    record["versions"] = json.loads(probe.stdout)

    cfg, command = make_config(args.workload, args.seed)
    cfg_path = os.path.join(work, "config.json")
    with open(cfg_path, "w") as fh:
        json.dump(cfg, fh)

    reps = []
    t_begin = time.monotonic()
    while True:
        elapsed = time.monotonic() - t_begin
        if elapsed >= args.seconds and len(reps) >= MIN_REPS:
            break
        remaining = DEADLINE_S - (time.monotonic() - t_start)
        if remaining < 5.0:
            break
        k = len(reps)
        traced = bool(args.trace) and k % 2 == 1
        out_dir = os.path.join(work, f"out{k}")
        spec = {"workload": args.workload, "config": cfg, "out_dir": out_dir,
                "argv": ["-q", *command, cfg_path, "--output-dir", out_dir],
                "trace": traced, "seed": args.seed, "src": SRC,
                "result_path": os.path.join(work, f"result{k}.json")}
        spec_path = os.path.join(work, f"spec{k}.json")
        with open(spec_path, "w") as fh:
            json.dump(spec, fh)
        err_path = os.path.join(work, f"stderr{k}.txt")
        cmd = [sys.executable, os.path.join(BENCH, "child.py"), spec_path]
        rc = _run_child(cmd + [repr(time.monotonic())], env, remaining - 2.0, err_path)
        rep = {"traced": traced}
        if rc == 0 and os.path.isfile(spec["result_path"]):
            with open(spec["result_path"]) as fh:
                rep.update(json.load(fh))
        else:
            rep["problems"] = ["timed out" if rc is None else
                               f"child exited with {rc}: {_tail(err_path)}"]
        rep["ok"] = not rep["problems"]
        if not rep["ok"]:
            print(f"rep {k} failed: {'; '.join(rep['problems'])}", file=sys.stderr)
        reps.append(rep)
        shutil.rmtree(out_dir, ignore_errors=True)
    record["loadavg_after"] = _loadavg()
    record["reps"] = reps

    ok = [r for r in reps if r["ok"]]
    for r in ok:
        scale = REF_NOMINAL_S / statistics.fmean(r["ref_s"])
        r["wall_norm_s"] = r["wall_s"] * scale
        r["setup_norm_s"] = r["setup_s"] * scale
    plain = [r for r in ok if not r["traced"]]
    traced = [r for r in ok if r["traced"]]
    metrics = {}
    if args.trace:
        for name in units:
            value = _median([r["layers"][name] for r in traced if name in r["layers"]])
            if value is not None:
                metrics[name] = value
        if traced and plain:
            metrics["bench.ref_s"] = _median([x for r in traced for x in r["ref_s"]])
            metrics["cli.wall_s"] = _median([r["wall_s"] for r in plain])
            metrics["trace.overhead_s"] = (_median([r["wall_norm_s"] for r in traced])
                                           - _median([r["wall_norm_s"] for r in plain]))
    else:
        columns = {"wall_s": "wall_norm_s", "setup_s": "setup_norm_s",
                   "peak_rss_mb": "peak_rss_mb"}
        for name in units:
            value = _median([r[columns[name]] for r in plain])
            if value is not None:
                metrics[name] = value
    record["metrics"] = metrics
    record["figures"] = _figures(args.workload, ok, reps)

    _print_summary(args, record, units)
    os.makedirs(os.path.join(BENCH, "results"), exist_ok=True)
    name = f"{args.workload}_seed{args.seed}_trace{args.trace}.json"
    with open(os.path.join(BENCH, "results", name), "w") as fh:
        json.dump(record, fh, indent=1)

    correct = bool(reps) and len(ok) == len(reps) and set(metrics) == set(units)
    print(json.dumps({
        "correct": correct,
        "attempted": len(reps),
        "failed": len(reps) - len(ok),
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }))
    return 0


def _figures(workload: str, ok: list, reps: list) -> dict:
    """Workload figures that are not end-to-end timings: accuracy and throughput."""
    out = {"fail_frac": (len(reps) - len(ok)) / len(reps) if reps else 1.0}
    if ok and "figures" in ok[0]:
        out.update(ok[0]["figures"])
    walls = [r["wall_s"] for r in ok if not r["traced"]]
    if workload == "mc" and walls:
        out["samples_per_s"] = MC_SAMPLES / statistics.median(walls)
    if ok:
        out["levels"] = ok[0]["levels"]
    return out


def _print_summary(args, record, units) -> None:
    v = record["versions"]
    print(f"workload {args.workload}, seed {args.seed}, {len(record['reps'])} reps; "
          f"python {v['python']}, numpy {v['numpy']} ({v['numpy_blas']}), "
          f"scipy {v['scipy']} ({v['scipy_blas']}), "
          f"nproc {record['nproc']}, load {record['loadavg_before']} -> "
          f"{record['loadavg_after']}")
    for name, value in record["metrics"].items():
        print(f"  {name:28s} {value:14.6g} {units[name]}")
    figs = record["figures"]
    for name in ("samples_per_s", "mc_mean_err", "eL2m1", "eH1m1", "eL2m2", "eH1m2",
                 "mean_sum", "var_max", "fail_frac"):
        if name in figs:
            unit = {"samples_per_s": "1/s", "fail_frac": "ratio"}.get(name, "1")
            print(f"  {name:28s} {figs[name]:14.6g} {unit}")
    traced = [r for r in record["reps"] if r["ok"] and r["traced"]]
    if traced:
        selfs = traced[0]["self_s"]
        print(f"  self time per span, first traced rep (sum {sum(selfs.values()):.4f} s):")
        for name, secs in sorted(selfs.items(), key=lambda kv: -kv[1]):
            print(f"    {name:26s} {secs:10.4f} s")
    for k, lv in enumerate(figs.get("levels", [])):
        print(f"  level {k}: I={lv['I']} J={lv['J']} IJ={lv['IJ']} "
              f"explicit nnz={lv['explicit_nnz']}")


if __name__ == "__main__":
    sys.exit(main())
