"""One repetition of a workload in a fresh interpreter.

Usage: python3 child.py SPEC_JSON SPAWN_TIME

SPEC_JSON names the workload, the CLI arguments, the output directory, the
trace flag, the seed and the file the result is written to.  SPAWN_TIME is
the parent's ``time.monotonic()`` just before it started this process, so
set-up time includes interpreter start-up and imports.  The result holds
the command's wall time, set-up time, peak RSS, the output gate and, in a
traced run, the per-layer figures.
"""

import json
import resource
import sys
import time


def reference_work() -> list[float]:
    """Seconds of each part of a fixed job: interpreter loop, small numpy
    calls, sparse matvecs and LU solves, vectorised exp.

    It uses only numpy and scipy, never the package, so it measures how
    fast this machine runs right now and not the code under test.
    """
    import numpy as np
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    parts = []
    t0 = time.perf_counter()
    acc = 0
    for i in range(400_000):
        acc += i * i
    parts.append(time.perf_counter() - t0)

    t0 = time.perf_counter()
    data = np.linspace(1.0, 2.0, 9000)
    cols = np.arange(9000) * 7 % 9000
    u = np.ones(9000)
    for i in range(12_000):
        sl = slice(i % 1000 * 9, i % 1000 * 9 + 9)
        u[i % 9000] = 0.5 * u[i % 9000] + 1e-3 * (data[sl] @ u[cols[sl]])
    parts.append(time.perf_counter() - t0)

    t0 = time.perf_counter()
    n = 120
    lap1 = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n))
    lap = sp.csr_array(sp.kronsum(lap1, lap1))
    v = np.ones(n * n)
    for _ in range(40):
        v = lap @ v
        v /= np.linalg.norm(v)
    lap15 = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(15, 15))
    small = sp.csc_matrix(sp.kronsum(lap15, lap15))
    for k in range(40):
        spla.splu(small + k * 1e-3 * sp.identity(225, format="csc")).solve(v[:225])
    parts.append(time.perf_counter() - t0)

    t0 = time.perf_counter()
    x = np.linspace(0.0, 1.0, 200_000)
    for _ in range(18):
        np.exp(-x * x).sum()
    parts.append(time.perf_counter() - t0)
    return parts


def _matvec_probe(sg, seed: int, reps: int = 9) -> float:
    """Median seconds of one Galerkin matvec on seeded random vectors."""
    import numpy as np

    rng = np.random.default_rng(seed)
    times = []
    for _ in range(reps):
        v = rng.standard_normal(sg.n)
        t0 = time.perf_counter()
        sg.matvec(v)
        times.append(time.perf_counter() - t0)
    return float(np.median(times))


def main() -> int:
    with open(sys.argv[1]) as fh:
        spec = json.load(fh)
    t_spawn = float(sys.argv[2])

    import sgobstacle
    import sgobstacle.cli as cli
    from hooks import Probe, Tracer
    from workloads import check_outputs

    if not sgobstacle.__file__.startswith(spec["src"]):
        raise SystemExit(f"imported sgobstacle from {sgobstacle.__file__}, "
                         f"not from {spec['src']}")
    probe = Probe()
    probe.install(sgobstacle)
    tracer = None
    if spec["trace"]:
        tracer = Tracer()
        tracer.install(sgobstacle)
        main_fn = tracer.span("cli.main")(cli.main)
    else:
        main_fn = cli.main

    t_ref = time.monotonic()
    ref_before = reference_work()
    t0 = time.monotonic()
    rc = main_fn(spec["argv"])
    t1 = time.monotonic()
    ref_after = reference_work()
    usage = resource.getrusage(resource.RUSAGE_SELF)

    setup_s = None
    if probe.setup_end is not None:
        # the reference job ran between spawn and set-up end and is not set-up
        setup_s = probe.setup_end - t_spawn - (t0 - t_ref)
    result = {"rc": rc, "wall_s": t1 - t0, "setup_s": setup_s,
              "peak_rss_mb": usage.ru_maxrss / 1024.0,
              "cpu_s": usage.ru_utime + usage.ru_stime,
              "ref_s": [sum(ref_before), sum(ref_after)],
              "ref_parts_s": [ref_before, ref_after],
              "levels": probe.level_sizes()}
    problems = []
    if rc != 0:
        problems.append(f"CLI exited with {rc}")
    elif probe.setup_end is None:
        problems.append("no solver call seen, set-up end unknown")
    else:
        gate, figures = check_outputs(spec["workload"], spec["config"], spec["out_dir"])
        problems += gate
        result["figures"] = figures
    result["problems"] = problems

    if tracer is not None:
        sg = tracer.last_system
        matvec_s = 0.0 if sg is None else _matvec_probe(sg, spec["seed"])
        result["layers"] = tracer.layer_metrics(probe, matvec_s)
        result["self_s"] = tracer.self_times()
    with open(spec["result_path"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
