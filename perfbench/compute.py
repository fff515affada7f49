"""The compute workloads: proxy-channel, porous-sparse and sweep-batched.

Each pass is a closed loop of one client running *jobs* back to back
until its time is up. A job is what a user of ``mrlbm run`` (or of a
sweep) waits for: build the problem, take the first step (which builds
the lazy neighbour tables), step a fixed count in timed chunks, read
the macroscopic fields and write them with ``repro.io.save_fields``.
Because a job is due the moment the previous one ends, its latency is
its time to result.

``mlups`` is the best timed chunk of the pass (the min-of-k estimator):
contention can only slow a chunk down. On a shared 2-vCPU Xeon VM whose
speed wandered by 10-20% over seconds to minutes, the median chunk rate
of proxy-channel spread 0.16 (quartile distance over median) across
25-second windows, the best chunk 0.05.

Correctness checks run after the timed jobs, so they neither share the
clock nor raise the jobs' peak memory:

* proxy-channel: ``fused`` against ``reference`` on a prefix of the same
  problem, and finite final fields for every job;
* porous-sparse: ``sparse`` against ``fused`` on a prefix;
* sweep-batched: every member's max-speed decay against the analytic
  Taylor-Green decay, and one member batched against its unbatched run.
"""

from __future__ import annotations

import gc
import shutil
import time
from dataclasses import dataclass

import numpy as np

from repro.ensemble import EnsembleRunner, build_sweep_member, expand_sweep
from repro.io import save_fields
from repro.lattice import get_lattice
from repro.obs.telemetry import Telemetry
from repro.service.registry import build_single
from repro.validation import taylor_green_fields
from repro.validation.analytic import taylor_green_decay_rate

from common import WORK, Outcome, peak_rss_mb, reset_peak_rss

#: Largest difference accepted between two backends' density and
#: velocity, in lattice units (a real defect shows at the size of the
#: fields themselves: O(1) density, velocities up to ~0.05).
PARITY_TOL = 1e-12
#: Largest relative error accepted between a member's max-speed decay
#: factor and the analytic Taylor-Green decay over the same steps.
DECAY_TOL = 0.005
#: Every pass runs at least this many jobs, however short its time.
MIN_JOBS = 3


@dataclass(frozen=True)
class Problem:
    """One single-domain workload: the problem and how a job steps it."""

    kind: str
    scheme: str
    lattice: str
    shape: tuple
    backend: str
    check_backend: str      # backend the untimed prefix is compared with
    steps: int              # timed steps per job
    chunk: int              # steps per timed chunk
    prefix_steps: int       # steps of the parity prefix


PROBLEMS = {
    # The paper's proxy app as ``mrlbm run`` builds it (registry
    # defaults: regularized-FD inlet/outlet, bounce-back walls).
    "proxy-channel": Problem("channel", "MR-R", "D2Q9", (256, 130), "fused",
                             "reference", steps=200, chunk=5,
                             prefix_steps=20),
    # 85% solid random medium; bounce-back folded into the sparse tables.
    "porous-sparse": Problem("porous", "MR-P", "D3Q19", (64, 64, 64),
                             "sparse", "fused", steps=80, chunk=2,
                             prefix_steps=3),
}

#: sweep-batched: 8 seeded tau x 2 u_max Taylor-Green members on 64^2.
SWEEP_SHAPE = (64, 64)
SWEEP_U_MAX = (0.02, 0.04)
SWEEP_STEPS = 240
SWEEP_CHUNK = 5
SWEEP_PREFIX = 40

def model(workload: str) -> tuple[str, str]:
    """``(scheme, lattice)`` of a workload, for the Table 2 byte model."""
    if workload == "sweep-batched":
        return "ST", "D2Q9"
    p = PROBLEMS[workload]
    return p.scheme, p.lattice


def problem_inputs(workload: str, seed: int) -> tuple[float, dict]:
    """The seeded ``(tau, options)`` of a single-domain workload."""
    rng = np.random.default_rng([seed, 11])
    tau = round(0.7 + 0.2 * float(rng.random()), 6)
    if workload == "porous-sparse":
        return tau, {"seed": int(rng.integers(2**31))}
    return tau, {}


def sweep_taus(seed: int) -> list[float]:
    """Eight distinct seeded relaxation times for the sweep members."""
    rng = np.random.default_rng([seed, 12])
    picks = rng.choice(400, size=8, replace=False)
    return [round(0.6 + 0.001 * int(k), 6) for k in sorted(picks)]


def _max_diff(*pairs) -> float:
    """Largest absolute difference over pairs of arrays."""
    return max(float(np.abs(a - b).max()) for a, b in pairs)


def _phase_ms(tel: Telemetry, steps: int) -> dict:
    """Per-step milliseconds of each ``step/<phase>`` telemetry path."""
    return {path.split("/", 1)[1]: stats.total / steps * 1e3
            for path, stats in tel.phases.items()
            if path.startswith("step/")} | {
                "step": tel.phase_total("step") / steps * 1e3}


class _Jobs:
    """Per-job samples of one pass, plus the checks it made."""

    def __init__(self):
        self.out = Outcome()
        self.setup: list[float] = []
        self.build: list[float] = []
        self.first: list[float] = []
        self.init: list[float] = []
        self.chunk_mlups: list[float] = []
        self.ttr: list[float] = []
        self.write: list[float] = []
        self.phases: list[dict] = []
        self.rss: list[float] = []

    def chunks(self, run, n_chunks: int, chunk: int, n_fluid: int,
               tracer, trace: str, parent) -> None:
        """Run ``n_chunks`` timed chunks of ``chunk`` steps each."""
        for _ in range(n_chunks):
            with tracer.span("step_chunk", trace, parent):
                t = time.perf_counter()
                run(chunk)
                dt = time.perf_counter() - t
            self.chunk_mlups.append(n_fluid * chunk / dt / 1e6)


def _single_job(p: Problem, tau: float, options: dict, path, jobs: _Jobs,
                tracer, trace: str) -> None:
    """One build -> first step -> timed steps -> fields -> file job."""
    tel = Telemetry(record_spans=False) if tracer.enabled else None
    with tracer.span("job", trace) as root:
        t0 = time.perf_counter()
        with tracer.span("registry.build_single", trace, root):
            solver = build_single(p.kind, p.scheme, p.lattice, p.shape,
                                  tau=tau, backend=p.backend, **options)
        t1 = time.perf_counter()
        with tracer.span("accel.first_step", trace, root):
            solver.step()
        t2 = time.perf_counter()
        solver.attach_telemetry(tel)
        jobs.chunks(solver.run, p.steps // p.chunk, p.chunk,
                    int(solver.domain.n_fluid), tracer, trace, root)
        with tracer.span("solver.macroscopic", trace, root):
            rho, u = solver.macroscopic()
        t3 = time.perf_counter()
        with tracer.span("io.save_fields", trace, root):
            save_fields(path, rho, u, time=solver.time)
        t4 = time.perf_counter()
    jobs.build.append(t1 - t0)
    jobs.first.append(t2 - t1)
    jobs.setup.append(t2 - t0)
    jobs.write.append(t4 - t3)
    jobs.ttr.append(t4 - t0)
    if tel is not None:
        jobs.phases.append(_phase_ms(tel, solver.time - 1))
    jobs.out.check(bool(np.isfinite(rho).all() and np.isfinite(u).all()),
                   f"{trace}: non-finite final fields")


def _sweep_specs(seed: int):
    specs, _ = expand_sweep("taylor-green", ["ST"], ["D2Q9"], [SWEEP_SHAPE],
                            sweep_taus(seed), SWEEP_U_MAX)
    return specs


def _decay_errors(runner: EnsembleRunner, specs) -> list[float]:
    """Each member's relative error against the analytic velocity decay.

    ``taylor_green_decay_rate`` is the kinetic-energy rate; the velocity
    amplitude decays at half of it.
    """
    lat = get_lattice("D2Q9")
    errors = []
    for m, s in zip(runner.members, specs):
        nu = lat.viscosity(s.tau)
        _, u0 = taylor_green_fields(SWEEP_SHAPE, 0.0, nu, s.options["u_max"])
        expected = float(np.sqrt((u0 ** 2).sum(axis=0)).max()) * np.exp(
            -0.5 * taylor_green_decay_rate(SWEEP_SHAPE, nu) * m.time)
        errors.append(abs(m.diagnostics.max_speed() / expected - 1.0))
    return errors


def _sweep_job(specs, path, jobs: _Jobs, tracer, trace: str) -> None:
    """One sweep job: 16 members built, batched, stepped and written."""
    tel = Telemetry(record_spans=False) if tracer.enabled else None
    with tracer.span("job", trace) as root:
        t0 = time.perf_counter()
        with tracer.span("registry.build_sweep_member", trace, root):
            members = [build_sweep_member(s, backend="fused") for s in specs]
        t1 = time.perf_counter()
        with tracer.span("ensemble.runner_init", trace, root):
            runner = EnsembleRunner(members)
        t2 = time.perf_counter()
        with tracer.span("accel.first_step", trace, root):
            runner.run(1)
        t3 = time.perf_counter()
        runner.attach_telemetry(tel)
        n_fluid = sum(runner.member_fluid_nodes())
        jobs.chunks(runner.run, SWEEP_STEPS // SWEEP_CHUNK, SWEEP_CHUNK,
                    n_fluid, tracer, trace, root)
        with tracer.span("solver.macroscopic", trace, root):
            fields = [m.macroscopic() for m in members]
            rho = np.stack([f[0] for f in fields])
            u = np.stack([f[1] for f in fields])
        t4 = time.perf_counter()
        with tracer.span("io.save_fields", trace, root):
            save_fields(path, rho, u, time=runner.time)
        t5 = time.perf_counter()
    jobs.build.append(t1 - t0)
    jobs.init.append(t2 - t1)
    jobs.first.append(t3 - t2)
    jobs.setup.append(t3 - t0)
    jobs.write.append(t5 - t4)
    jobs.ttr.append(t5 - t0)
    if tel is not None:
        jobs.phases.append(_phase_ms(tel, runner.time - 1))
    worst = max(_decay_errors(runner, specs))
    jobs.out.check(worst <= DECAY_TOL,
                   f"{trace}: Taylor-Green decay off by {worst:.3g}")


def _check_single(workload: str, p: Problem, tau: float, options: dict,
                  out: Outcome) -> None:
    """Untimed prefix: the measured backend against the check backend."""
    fields = []
    for backend in (p.backend, p.check_backend):
        solver = build_single(p.kind, p.scheme, p.lattice, p.shape, tau=tau,
                              backend=backend, **options)
        solver.run(p.prefix_steps)
        fields.append(solver.macroscopic())
        del solver
    (rho_a, u_a), (rho_b, u_b) = fields
    diff = _max_diff((rho_a, rho_b), (u_a, u_b))
    out.check(diff <= PARITY_TOL,
              f"{workload}: {p.backend} vs {p.check_backend} differ by "
              f"{diff:.3g} after {p.prefix_steps} steps")


def _check_sweep(specs, seed: int, out: Outcome) -> None:
    """Untimed prefix: one batched member against its unbatched run."""
    k = int(np.random.default_rng([seed, 13]).integers(len(specs)))
    runner = EnsembleRunner([build_sweep_member(s) for s in specs])
    runner.run(SWEEP_PREFIX)
    alone = build_sweep_member(specs[k])
    alone.run(SWEEP_PREFIX)
    _, u_batched = runner.members[k].macroscopic()
    _, u_alone = alone.macroscopic()
    diff = _max_diff((u_batched, u_alone))
    out.check(diff <= PARITY_TOL,
              f"sweep-batched: member {k} batched vs unbatched differ by "
              f"{diff:.3g}")


def run_pass(workload: str, seed: int, seconds: float, tracer) -> Outcome:
    """One pass of a compute workload; returns its metrics and checks."""
    jobs = _Jobs()
    out = jobs.out
    work = WORK / f"{workload}-{seed}-{time.time_ns()}"
    path = work / "fields.npz"
    if workload == "sweep-batched":
        specs = _sweep_specs(seed)

        def job(trace):
            _sweep_job(specs, path, jobs, tracer, trace)
    else:
        p = PROBLEMS[workload]
        tau, options = problem_inputs(workload, seed)

        def job(trace):
            _single_job(p, tau, options, path, jobs, tracer, trace)

    t_end = time.perf_counter() + seconds
    n = 0
    try:
        while n < MIN_JOBS or time.perf_counter() < t_end:
            trace = f"job-{n:03d}"
            reset_peak_rss()
            try:
                job(trace)
            except Exception as exc:       # a failed job is a counted result
                out.check(False, f"{trace}: {type(exc).__name__}: {exc}")
            jobs.rss.append(peak_rss_mb())
            n += 1
            # A solver and its diagnostics reference each other, so the
            # last job's arrays wait for the cycle collector; free them
            # now so each job's peak is its own footprint.
            gc.collect()
        if workload == "sweep-batched":
            _check_sweep(specs, seed, out)
        else:
            _check_single(workload, p, tau, options, out)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    out.put("mlups", jobs.chunk_mlups, stat="max")
    out.put("time_to_result_s", jobs.ttr)
    out.put("job_latency_s_p50", jobs.ttr)
    out.put("job_latency_s_p90", jobs.ttr, stat="p90")
    out.put("setup_s", jobs.setup)
    out.put("peak_rss_mb", jobs.rss)
    out.put("registry.build_s", jobs.build)
    out.put("accel.first_step_s", jobs.first)
    out.put("io.fields_write_s", jobs.write)
    if workload == "sweep-batched":
        out.put("ensemble.runner_init_s", jobs.init)
        out.put("ensemble.batch_step_ms", [ph["step"] for ph in jobs.phases])
    if jobs.phases:
        for phase in ("collide", "stream", "macroscopic", "boundary"):
            name = ("boundary.apply_ms" if phase == "boundary"
                    else f"accel.{phase}_ms")
            out.put(name, [ph.get(phase, 0.0) for ph in jobs.phases])
        out.put("boundary.share", [ph.get("boundary", 0.0) / ph["step"]
                                   for ph in jobs.phases])
    return out
