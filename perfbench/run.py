#!/usr/bin/env python3
"""The repository benchmark: seeded workloads, end to end and per layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload proxy-channel --seed 1 \\
        --seconds 25 --trace 0

Workloads (see ``BENCHMARK.json`` for why each exists):

* ``proxy-channel``  MR-R D2Q9 256x130 channel on the ``fused`` backend;
* ``porous-sparse``  MR-P D3Q19 64^3 85%-solid medium on ``sparse``;
* ``sweep-batched``  16 Taylor-Green members stepped by ``EnsembleRunner``;
* ``service-mix``    ``mrlbm serve`` fed an open-loop seeded job stream.

With ``--trace 0`` one pass measures the end-to-end metrics. With
``--trace 1`` the time is split between an untraced pass and a traced
pass: the traced pass records spans around every call into a layer (and
reads the solvers' own telemetry phases), and the per-layer metrics come
from it, together with ``bench.trace_overhead_frac`` (traced over
untraced ``job_latency_s_p50``, minus 1) and the host copy bandwidth.

Before the result is printed, the run waits for every process it started,
directly or not (the server, its ranks and the ``multiprocessing``
resource trackers); one still running after 30 s is killed and counted
as a failure.

Every metric is printed with its unit and sample count; the last line of
standard output is the JSON result. The run configuration, every metric
with its sample count, the failures and (when traced) the spans are also
written to ``.perfbench_run/result-<workload>-seed<seed>-trace<t>.json``.
"""

import os
import sys

# Pin BLAS/OpenMP to one thread before NumPy is imported anywhere in this
# process; the server and rank processes it starts inherit the setting.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
from pathlib import Path  # noqa: E402

from common import (ROOT, WORK, Metric, NullTracer, Tracer,  # noqa: E402
                    adopt_descendants, llc_bytes, reap_descendants,
                    run_config)

WORKLOADS = ("proxy-channel", "porous-sparse", "sweep-batched", "service-mix")


def _probe_host(out) -> float:
    """Host copy GB/s over arrays 4x the LLC; 0 when memory is too short."""
    from repro.obs.attain import measure_host_bandwidth

    nbytes = 4 * llc_bytes() or 32 * 2**20
    avail = 0
    for line in Path("/proc/meminfo").read_text().splitlines():
        if line.startswith("MemAvailable:"):
            avail = int(line.split()[1]) * 1024
    note = (f"arrays {nbytes / 2**20:.0f} MiB, "
            f"LLC {llc_bytes() / 2**20:.0f} MiB")
    if avail < 4 * nbytes:              # two arrays, with room to spare
        out.metrics["host.copy_gbs"] = Metric(0.0, 0, note + ", not run: "
                                              "too little free memory")
        return 0.0
    gbs = measure_host_bandwidth(nbytes=nbytes, repeats=3, refresh=True)
    out.metrics["host.copy_gbs"] = Metric(gbs, 3, note)
    return gbs


def _attain(out, workload: str, host_gbs: float) -> None:
    """Table 2 bytes per update, effective GB/s and attainment of ``mlups``."""
    from repro.obs.attain import attain_cell

    import compute

    mlups = out.metrics["mlups"]
    scheme, lattice = compute.model(workload)
    cell = attain_cell(mlups.value, scheme, lattice, host_gbs=host_gbs)
    out.metrics["accel.bytes_per_update"] = Metric(
        cell["bytes_per_flup"], 1, f"computed, Table 2 {cell['pattern']} "
        f"{lattice}")
    out.metrics["accel.effective_gbs"] = Metric(cell["effective_gbs"],
                                                mlups.n, "computed bytes")
    if host_gbs > 0:
        out.metrics["accel.attainment"] = Metric(cell["attainment"], mlups.n,
                                                 "of host.copy_gbs")


def _run_pass(workload: str, seed: int, seconds: float, tracer):
    if workload == "service-mix":
        import servicemix

        return servicemix.run_pass(seed, seconds, tracer)
    import compute

    return compute.run_pass(workload, seed, seconds, tracer)


def _measure(args, declared: dict):
    """Run the pass(es) of one workload.

    Returns the run configuration, the outcome, the tracer and the
    declared metrics to print.
    """
    config = run_config(args.workload, args.seed, args.seconds,
                        bool(args.trace))
    print("config: " + json.dumps(config, sort_keys=True))
    if args.trace:
        plain = _run_pass(args.workload, args.seed, args.seconds / 2,
                          NullTracer())
        tracer = Tracer()
        out = _run_pass(args.workload, args.seed, args.seconds / 2, tracer)
        out.attempted += plain.attempted
        out.failed += plain.failed
        out.errors += plain.errors
        base = plain.metrics["job_latency_s_p50"]
        traced = out.metrics["job_latency_s_p50"]
        out.metrics["bench.trace_overhead_frac"] = Metric(
            traced.value / base.value - 1.0, base.n + traced.n,
            "traced over untraced job_latency_s_p50, minus 1")
        host_gbs = _probe_host(out)
        if args.workload != "service-mix":
            _attain(out, args.workload, host_gbs)
        wanted = declared["per_layer"]
    else:
        tracer = NullTracer()
        out = _run_pass(args.workload, args.seed, args.seconds, tracer)
        wanted = declared["end_to_end"]
    return config, out, tracer, wanted


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    bench_json = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no src/repro under {ROOT}; run it from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    declared = json.loads(bench_json.read_text(encoding="utf-8"))
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))

    adopt_descendants()
    try:
        config, out, tracer, wanted = _measure(args, declared)
    finally:
        killed = reap_descendants()
    out.check(not killed, f"processes left running, killed: {killed}")

    metrics = {}
    record = {}
    for m in wanted:
        got = out.metrics.get(m["name"])
        value, n, note = (got.value, got.n, got.note) if got else (0.0, 0,
                                                                   "n/a")
        if not math.isfinite(value):
            out.check(False, f"metric {m['name']} is not finite ({value})")
            value = 0.0
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        record[m["name"]] = {"value": value, "unit": m["unit"], "n": n,
                             "note": note}
        print(f"  {m['name']:<36} {value:>14.6g} {m['unit']:<9} n={n:<5} "
              f"{note}")
    print(f"  {'failed_frac':<36} {out.failed / max(out.attempted, 1):>14.6g}"
          f" {'':<9} n={out.attempted}")
    for line in out.errors:
        print(f"perfbench: FAILED {line}", file=sys.stderr)
    extra = {}
    if tracer.enabled:
        extra = {"spans": tracer.spans, "self_time_s": tracer.self_times()}
    WORK.mkdir(parents=True, exist_ok=True)
    path = WORK / (f"result-{args.workload}-seed{args.seed}"
                   f"-trace{args.trace}.json")
    path.write_text(json.dumps(
        {"config": config, "metrics": record, "attempted": out.attempted,
         "failed": out.failed, "errors": out.errors, **extra},
        indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps({"correct": out.failed == 0,
                      "attempted": out.attempted, "failed": out.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
