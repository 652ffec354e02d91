"""Wrappers the benchmark puts around the package's public calls.

``Probe`` is always installed and costs a few calls per run: it notes when
set-up ends (the first solver is about to iterate) and the size of every
assembled Galerkin system.  ``Tracer`` is installed only in traced runs: it
records one span (name, start, end, parent) per public call into each
module, keeps the spans in memory and turns them into per-layer figures at
the end.  Nothing inside the package is edited; the wrappers replace module
and class attributes in the child process only.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
import tracemalloc


def _package_modules():
    return [m for name, m in sys.modules.items()
            if m is not None and (name == "sgobstacle" or name.startswith("sgobstacle."))]


def patch_function(module, attr: str, make_wrapper) -> None:
    """Replace ``module.attr`` everywhere the package imported it by name."""
    original = getattr(module, attr)
    wrapper = make_wrapper(original)
    for mod in _package_modules():
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, wrapper)


def patch_method(cls, attr: str, make_wrapper) -> None:
    setattr(cls, attr, make_wrapper(getattr(cls, attr)))


class Probe:
    """Set-up end time and per-level system sizes, at negligible cost."""

    def __init__(self):
        self.precond_return = None
        self.psor_entry = None
        self.levels = []  # one dict per assembled Galerkin system

    @property
    def setup_end(self):
        """Monotonic time at which the first solver starts iterating."""
        return self.precond_return if self.precond_return is not None else self.psor_entry

    def install(self, pkg) -> None:
        lcp, system = pkg.lcp, pkg.system

        def after_first_precond(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                out = fn(*args, **kwargs)
                if self.precond_return is None:
                    self.precond_return = time.monotonic()
                return out
            return wrapper

        def mark_entry(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if self.psor_entry is None:
                    self.psor_entry = time.monotonic()
                return fn(*args, **kwargs)
            return wrapper

        def record_sizes(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                sg = fn(*args, **kwargs)
                A = getattr(sg, "A", None)
                self.levels.append({"I": sg.n_spatial, "J": sg.n_param, "IJ": sg.n,
                                    "explicit_nnz": 0 if A is None else int(A.nnz),
                                    "_id": id(sg)})
                return sg
            return wrapper

        def record_explicit(fn):
            # a lazily built explicit matrix is counted when it is handed out
            @functools.wraps(fn)
            def wrapper(sg, *args, **kwargs):
                A = fn(sg, *args, **kwargs)
                if A is not None:
                    # ids of freed systems are reused: the newest entry is this one
                    for lv in reversed(self.levels):
                        if lv["_id"] == id(sg):
                            lv["explicit_nnz"] = int(A.nnz)
                            break
                return A
            return wrapper

        patch_method(system.SGSystem, "precond", after_first_precond)
        patch_method(lcp.SparseObstacleSystem, "precond", after_first_precond)
        patch_function(lcp, "psor_solve", mark_entry)
        patch_function(system, "assemble_sg", record_sizes)
        patch_method(system.SGSystem, "explicit", record_explicit)

    def level_sizes(self) -> list[dict]:
        return [{k: v for k, v in lv.items() if k != "_id"} for lv in self.levels]


class Tracer:
    """In-memory spans around public calls, reduced to per-layer figures."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index]
        self._stack = []
        self.solves = []  # (span index, method, SolveReport)
        self.mc_results = []
        self.mc_meshes = []
        self.assemble_peaks = []
        self.last_system = None

    # -- recording -----------------------------------------------------

    def span(self, name: str, on_exit=None):
        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                idx = len(self.spans)
                parent = self._stack[-1] if self._stack else -1
                rec = [name, time.perf_counter(), None, parent]
                self.spans.append(rec)
                self._stack.append(idx)
                try:
                    out = fn(*args, **kwargs)
                finally:
                    self._stack.pop()
                    rec[2] = time.perf_counter()
                if on_exit is not None:
                    on_exit(idx, args, out)
                return out
            return wrapper
        return make

    def install(self, pkg) -> None:
        fn_spans = [
            (pkg.runner, "load_config", "runner.load_config"),
            (pkg.runner, "run_convergence", "runner.command"),
            (pkg.runner, "run_single", "runner.command"),
            (pkg.runner, "run_mc", "runner.command"),
            (pkg.runner, "_solve_level", "runner.level"),
            (pkg.runner, "convergence_errors", "runner.errors"),
            (pkg.problems, "get_problem", "problems.build"),
            (pkg.problems, "problem_from_config", "problems.build"),
            (pkg.mesh, "build_uniform_mesh", "mesh.build"),
            (pkg.mesh, "write_vtk", "mesh.write_vtk"),
            (pkg.param, "build_param_grid", "param.grid"),
            (pkg.param, "assemble_gramians", "param.gramians"),
            (pkg.fem, "assemble_weighted_stiffness", "fem.stiffness"),
            (pkg.fem, "assemble_load", "fem.load"),
            (pkg.fields, "scenario_rng", "fields.rng"),
            (pkg.stats, "sg_mean", "stats.moments"),
            (pkg.stats, "sg_second_moment", "stats.moments"),
            (pkg.stats, "sg_variance", "stats.moments"),
            (pkg.stats, "write_stat_csv", "stats.write"),
            (pkg.stats, "write_stat_vtk", "stats.write"),
        ]
        for module, attr, name in fn_spans:
            if hasattr(module, attr):
                patch_function(module, attr, self.span(name))

        patch_function(pkg.system, "assemble_sg", self._assemble_span)
        patch_function(pkg.lcp, "solve_lcp", self.span("lcp.solve", self._on_solve))
        patch_function(pkg.mc, "mc_run", self.span("mc.run", self._on_mc_run))
        patch_method(pkg.mc.MCAccumulator, "update", self.span("mc.accumulate"))
        for sampler in ("_AffineSampler", "_GenericSampler"):
            if hasattr(pkg.mc, sampler):
                patch_method(getattr(pkg.mc, sampler), "build", self.span("mc.build"))
        patch_method(pkg.system.SGSystem, "explicit", self.span("system.explicit"))
        apply_span = self.span("system.precond_apply")
        patch_method(pkg.system.SGSystem, "precond",
                     lambda fn: self.span("system.precond")(
                         lambda sg: apply_span(fn(sg))))

    def _assemble_span(self, fn):
        def measured(*args, **kwargs):
            tracemalloc.start()
            try:
                sg = fn(*args, **kwargs)
                self.assemble_peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            self.last_system = sg
            return sg
        return self.span("system.assemble")(functools.wraps(fn)(measured))

    # runner and mc pass (system, obs, config) and (mesh, ...) positionally
    def _on_solve(self, idx, args, out):
        self.solves.append((idx, args[2].method, out[1]))

    def _on_mc_run(self, idx, args, out):
        self.mc_results.append(out)
        self.mc_meshes.append(args[0])

    # -- reduction -----------------------------------------------------

    def _inclusive(self, names) -> float:
        """Summed duration of spans in ``names`` not nested in another of them."""
        names = {names} if isinstance(names, str) else set(names)
        total = 0.0
        for name, start, end, parent in self.spans:
            if name not in names:
                continue
            p = parent
            while p >= 0 and self.spans[p][0] not in names:
                p = self.spans[p][3]
            if p < 0:
                total += end - start
        return total

    def self_times(self) -> dict:
        """Self time per span name: duration minus the time its children cover."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            out[name] = out.get(name, 0.0) + (end - start) - child[i]
        return out

    def _durations(self, name: str) -> list:
        return [end - start for n, start, end, _ in self.spans if n == name]

    def _inside(self, idx: int, name: str) -> bool:
        p = self.spans[idx][3]
        while p >= 0:
            if self.spans[p][0] == name:
                return True
            p = self.spans[p][3]
        return False

    def layer_metrics(self, probe: Probe, matvec_s: float) -> dict:
        """Per-layer figures of one traced run (0 where a layer is not called)."""
        m = {}
        sizes = probe.level_sizes()
        if sizes:
            last = sizes[-1]
            m["system.I"], m["system.J"], m["system.IJ"] = last["I"], last["J"], last["IJ"]
        else:  # Monte Carlo: one spatial system per sample
            n_int = len(self.mc_meshes[-1].interior)
            m["system.I"], m["system.J"], m["system.IJ"] = n_int, 1, n_int
        m["system.explicit_nnz"] = max((lv["explicit_nnz"] for lv in sizes), default=0)
        m["system.assemble_s"] = self._inclusive("system.assemble")
        m["system.explicit_s"] = self._inclusive("system.explicit")
        m["system.assemble_peak_mb"] = max(self.assemble_peaks, default=0) / 2**20
        m["param.gramians_s"] = self._inclusive("param.gramians")
        m["fem.stiffness_s"] = self._inclusive("fem.stiffness")
        m["fem.load_s"] = self._inclusive("fem.load")
        m["mesh.build_s"] = self._inclusive("mesh.build")
        m["system.precond_factor_s"] = self._inclusive("system.precond")
        applies = self._durations("system.precond_apply")
        m["system.precond_apply_s"] = sum(applies) / len(applies) if applies else 0.0
        m["system.matvec_s"] = matvec_s

        in_mc = [(i, meth, rep) for i, meth, rep in self.solves if self._inside(i, "mc.run")]
        dur = {i: self.spans[i][2] - self.spans[i][1] for i, _, _ in self.solves}
        active = [(i, rep) for i, meth, rep in self.solves if meth != "psor"]
        psor = [(i, rep) for i, meth, rep in self.solves if meth == "psor"]
        m["lcp.solve_s"] = self._inclusive("lcp.solve")
        m["lcp.updates"] = sum(rep.iterations for _, rep in active)
        m["lcp.pcg_iters"] = sum(rep.inner_iterations for _, rep in active)
        as_time = sum(dur[i] for i, _ in active)
        m["lcp.s_per_pcg_iter"] = as_time / m["lcp.pcg_iters"] if m["lcp.pcg_iters"] else 0.0
        m["lcp.active_count"] = self.solves[-1][2].active_count if self.solves else 0
        m["lcp.psor_sweeps"] = sum(rep.iterations for _, rep in psor)
        ps_time = sum(dur[i] for i, _ in psor)
        m["lcp.s_per_sweep"] = ps_time / m["lcp.psor_sweeps"] if m["lcp.psor_sweeps"] else 0.0

        m["runner.errors_s"] = self._inclusive("runner.errors")
        m["runner.level_s"] = self._inclusive("runner.level")
        selfs = self.self_times()
        m["runner.other_s"] = sum(selfs.get(n, 0.0) for n in
                                  ("cli.main", "runner.command", "runner.level"))

        m.update(self._mc_metrics(in_mc, dur))
        m["stats.moments_s"] = self._inclusive("stats.moments")
        m["stats.write_s"] = self._inclusive(("stats.write", "mesh.write_vtk"))
        m["trace.spans"] = len(self.spans)
        return m

    def _mc_metrics(self, in_mc, dur) -> dict:
        m = {"mc.setup_s": 0.0, "mc.per_sample_s": 0.0, "mc.solver_iters_per_sample": 0.0,
             "mc.sample_solve_s": 0.0, "mc.build_s": 0.0, "mc.accumulate_s": 0.0,
             "mc.failed": 0}
        runs = [i for i, s in enumerate(self.spans) if s[0] == "mc.run"]
        if not runs:
            return m
        n_samples = sum(r.n_samples for r in self.mc_results)
        rng_starts = [s[1] for s in self.spans if s[0] == "fields.rng"]
        start, end = self.spans[runs[0]][1], self.spans[runs[-1]][2]
        first_sample = min(rng_starts) if rng_starts else start
        m["mc.setup_s"] = first_sample - start
        m["mc.per_sample_s"] = (end - first_sample) / n_samples
        m["mc.solver_iters_per_sample"] = sum(rep.iterations for _, _, rep in in_mc) / n_samples
        m["mc.sample_solve_s"] = statistics.median(dur[i] for i, _, _ in in_mc) if in_mc else 0.0
        builds = self._durations("mc.build")
        m["mc.build_s"] = sum(builds) / len(builds) if builds else 0.0
        m["mc.accumulate_s"] = self._inclusive("mc.accumulate")
        m["mc.failed"] = sum(r.n_failed for r in self.mc_results)
        return m
