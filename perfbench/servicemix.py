"""The service-mix workload: ``mrlbm serve`` under an open-loop job stream.

One client process starts ``mrlbm serve --uds --workers 1`` and submits
a seeded schedule: Poisson arrivals at :data:`RATE_HZ`, a balanced mix
of three small distributed problems with seeded relaxation times, and a
fixed share of exact resubmissions of earlier jobs (which the server
must serve from its cache). The client holds at most one connection at
a time: it sends each submission when it is due and otherwise asks
``GET /jobs`` once per :data:`TICK_S` to see which jobs finished. A
submission's latency runs from its due time to the moment its result
was ready (the server's completion stamp, so the poll cadence does not
quantize it), and a stalled generator shows up as lateness.

``mlups`` here is the best per-job MLUPS the runtime reports for the
computed jobs (the same min-of-k estimator as the compute workloads);
``time_to_result_s`` covers computed submissions, the job latencies
every submission.

After the schedule the client checks every result, stops the server,
and only then reruns each computed job with the ``reference`` backend
through ``run_process`` and compares the fields; it also checks that
the server exited with 0, left no shared-memory segment and that its
job root could be removed.
"""

from __future__ import annotations

import dataclasses
import os
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from repro.obs.events import read_events
from repro.parallel.runtime import run_process
from repro.service.client import ServiceClient, ServiceError
from repro.service.jobs import job_key, spec_from_dict
from repro.service.registry import build_distributed, build_single

from common import ROOT, WORK, Metric, Outcome

#: Submissions per second. The worker is about 30% busy at it; at half
#: busy, queueing alone spread the p90 latency 0.2-0.3 from seed to seed
#: (quartile distance over median), wider than any bound allows.
RATE_HZ = 2.6
#: Share of submissions that exactly repeat an earlier one.
REPEAT_SHARE = 0.3
#: Cadence of the completion poll. It bounds how late the client notices
#: a finished job, not the latency recorded for it.
TICK_S = 0.025
#: Steps of every job.
STEPS = 60
#: Server start-ups per pass; ``setup_s`` is their median.
SETUP_REPS = 5
#: A job not done this long after its due time counts as failed, and
#: its latency is recorded as this limit.
WAIT_LIMIT_S = 60.0
#: Largest difference accepted against the reference rerun, in lattice
#: units of density and velocity.
PARITY_TOL = 1e-12

#: The job templates of the mix. The three kinds come in equal shares and
#: forced-channel jobs split evenly between 1 and 2 ranks, so only the
#: order, the relaxation times and the resubmissions vary with the seed.
_FORCED = {"kind": "forced-channel", "scheme": "MR-P", "lattice": "D2Q9",
           "shape": [96, 34], "accel": "fused"}
_TAYLOR_GREEN = {"kind": "taylor-green", "scheme": "ST", "lattice": "D2Q9",
                 "shape": [64, 64], "n_ranks": 2, "accel": "aa"}
_CHANNEL = {"kind": "channel", "scheme": "MR-R", "lattice": "D2Q9",
            "shape": [96, 34], "n_ranks": 2, "accel": "fused",
            "checkpoint_every": STEPS // 2}
MIX = (dict(_FORCED, n_ranks=1), dict(_FORCED, n_ranks=2), _TAYLOR_GREEN,
       _TAYLOR_GREEN, _CHANNEL, _CHANNEL)


def schedule(seed: int, n: int) -> tuple[list[float], list[dict]]:
    """Seeded due times (s from the start) and payloads of ``n`` submissions.

    Fresh payloads get distinct relaxation times, so only the
    ``round(REPEAT_SHARE * n)`` resubmissions can share a job key.
    """
    rng = np.random.default_rng([seed, 21])
    due = np.cumsum(rng.exponential(1.0 / RATE_HZ, size=n)).tolist()
    n_repeat = round(REPEAT_SHARE * n)
    repeats = set(rng.choice(np.arange(1, n), size=n_repeat,
                             replace=False).tolist())
    n_fresh = n - n_repeat
    kinds = rng.permutation(np.arange(n_fresh) % len(MIX))
    taus = 0.6 + 0.0005 * rng.choice(800, size=n_fresh, replace=False)
    fresh: list[dict] = []
    payloads = []
    for i in range(n):
        if i in repeats:
            payloads.append(fresh[int(rng.integers(len(fresh)))])
            continue
        payload = dict(MIX[kinds[len(fresh)]], tau=float(taus[len(fresh)]),
                       steps=STEPS)
        fresh.append(payload)
        payloads.append(payload)
    return due, payloads


class Server:
    """One ``mrlbm serve`` subprocess on a Unix socket under ``root``."""

    def __init__(self, root: Path):
        root.mkdir(parents=True)
        # Relative to the checkout (the working directory of both ends),
        # so a long checkout path cannot overflow the socket-path limit.
        sock = os.path.relpath(root / "s.sock", ROOT)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
        t0 = time.perf_counter()
        with open(root / "server.log", "wb") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "serve", "--uds", sock,
                 "--workers", "1", "--root", str(root / "jobs")],
                cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=log)
        self.client = ServiceClient(sock, timeout=30.0)
        while True:
            try:
                self.client.health()
                break
            except (FileNotFoundError, ConnectionRefusedError):
                if self.proc.poll() is not None:
                    raise RuntimeError("server exited during start-up")
                if time.perf_counter() - t0 > WAIT_LIMIT_S:
                    self.kill()
                    raise TimeoutError("server not healthy in time")
                time.sleep(0.002)
        self.setup_s = time.perf_counter() - t0

    def shutdown(self) -> int | None:
        """``POST /shutdown`` and wait; the exit code (None if killed)."""
        try:
            self.client.shutdown()
            return self.proc.wait(timeout=30)
        except (OSError, ServiceError, subprocess.TimeoutExpired):
            self.kill()
            return None

    def kill(self) -> None:
        """Stop the server unconditionally and reap it."""
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def _shm_segments() -> set[str]:
    return {p.name for p in Path("/dev/shm").glob("mrlbm*")}


def _rank_timings(job_dir: Path) -> dict | None:
    """Per-rank start/end and phase totals from a job's event files."""
    starts, ends, totals = {}, {}, {}
    for event in read_events(job_dir):
        rank = event["rank"]
        if event["kind"] == "start":
            starts.setdefault(rank, event["ts"])
        elif event["kind"] == "end":
            ends[rank] = event["ts"]
        elif event["kind"] == "phase":
            totals[rank] = event["totals_s"]               # last one wins
    if not starts or not ends or not totals:
        return None
    return {"start": starts, "end": ends,
            "first_start": min(starts.values()),
            "last_end": max(ends.values()),
            "compute": max(t.get("step/compute", 0.0)
                           for t in totals.values()),
            "barrier": max(t.get("step/barrier", 0.0)
                           for t in totals.values()),
            "pack_unpack": max(t.get("step/pack", 0.0)
                               + t.get("step/unpack", 0.0)
                               for t in totals.values()),
            "checkpoint": max(t.get("checkpoint", 0.0)
                              for t in totals.values())}


def preset_drift() -> dict[str, float]:
    """Single-domain vs 2-rank distributed velocity of each kind in the mix.

    Both are built with the registry defaults, stepped :data:`STEPS`
    times on the reference backend and compared as the largest velocity
    difference relative to the largest single-domain speed.
    """
    drift = {}
    for tpl in (_FORCED, _TAYLOR_GREEN, _CHANNEL):
        kind, shape = tpl["kind"], tuple(tpl["shape"])
        single = build_single(kind, tpl["scheme"], tpl["lattice"], shape)
        single.run(STEPS)
        dist = build_distributed(kind, tpl["scheme"], tpl["lattice"], shape,
                                 2)
        dist.run(STEPS)
        u_s = single.macroscopic()[1]
        u_d = dist.gather_macroscopic()[1]
        drift[kind] = float(np.abs(u_s - u_d).max() / np.abs(u_s).max())
    return drift


def run_pass(seed: int, seconds: float, tracer) -> Outcome:
    """One pass of service-mix; returns its metrics and checks."""
    out = Outcome()
    base = WORK / f"svc-{os.getpid()}-{time.time_ns() % 10**9}"
    shm_before = _shm_segments()
    n = max(int(round(RATE_HZ * seconds)), 4)
    due, payloads = schedule(seed, n)
    setups = []
    server = None
    try:
        for rep in range(SETUP_REPS):
            if server is not None:
                out.check(server.shutdown() == 0,
                          "start-up server did not exit with 0")
            with tracer.span("service.spawn", "run"):
                server = Server(base / str(rep))
            setups.append(server.setup_s)
        subs, polls = _drive(server.client, due, payloads)
        final = {j["id"]: j for j in server.client.jobs()}
        results = {}
        for jid in {s["job_id"] for s in subs if s.get("job_id")}:
            if final[jid]["state"] == "done":
                results[jid] = server.client.result(jid)["result"]
        rc = server.shutdown()
        peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
        out.check(rc == 0, f"POST /shutdown: server exit code {rc}")
        server = None
        runs = _check_submissions(out, subs, final, results)
        computed = [jid for jid, _, _ in runs]
        ranks = {jid: _rank_timings(ROOT / final[jid]["dir"])
                 for jid in computed}
        _check_fields(out, runs, final)
        drift = preset_drift() if tracer.enabled else {}
    finally:
        if server is not None:
            server.kill()
        shutil.rmtree(base, ignore_errors=True)
    leaked = _shm_segments() - shm_before
    out.check(not leaked, f"leaked shared memory: {sorted(leaked)}")
    out.check(not base.exists(), f"job root {base} not removed")

    lat = [s["latency"] for s in subs]
    hits = [s for s in subs if s.get("created") is False]
    out.put("mlups", [results[j]["mlups"] for j in computed], stat="max")
    out.put("time_to_result_s", [s["latency"] for s in subs
                                 if s.get("created")])
    out.put("job_latency_s_p50", lat)
    out.put("job_latency_s_p90", lat, stat="p90")
    out.put("setup_s", setups)
    out.put("peak_rss_mb", [peak_mb])
    out.put("service.submit_ms_p50", [s["rtt"] * 1e3 for s in subs
                                      if "rtt" in s])
    out.metrics["service.cache_hit_ratio"] = Metric(len(hits) / n, n)
    wait = [final[j]["started_unix"] - final[j]["created_unix"]
            for j in computed]
    out.put("service.queue_wait_s_p50", wait)
    out.put("service.queue_wait_s_p90", wait, stat="p90")
    if computed:
        busy = sum(final[j]["finished_unix"] - final[j]["started_unix"]
                   for j in computed)
        span = (max(final[j]["finished_unix"] for j in computed)
                - min(final[j]["created_unix"] for j in computed))
        out.put("service.worker_busy_frac", [busy / span])
    timed = [(final[j], r) for j, r in ranks.items() if r is not None]
    out.put("parallel.spawn_s", [r["first_start"] - j["started_unix"]
                                 for j, r in timed])
    out.put("service.seal_s", [j["finished_unix"] - r["last_end"]
                               for j, r in timed])
    for phase in ("compute", "barrier", "pack_unpack"):
        out.put(f"parallel.{phase}_s", [r[phase] for _, r in timed])
    out.put("parallel.checkpoint_s", [r["checkpoint"] for _, r in timed
                                      if r["checkpoint"] > 0])
    out.put("bench.gen_late_s_p90", [s["late"] for s in subs if "late" in s],
            stat="p90")
    if drift:
        out.put("registry.preset_drift", [max(drift.values())])
        for kind, value in drift.items():
            out.put(f"registry.preset_drift.{kind}", [value])
    if tracer.enabled:
        _record_spans(tracer, subs, polls, final, ranks)
    return out


def _drive(client: ServiceClient, due: list[float],
           payloads: list[dict]) -> tuple[list[dict], list[tuple]]:
    """Send the schedule open-loop and time each submission to its result.

    A submission's result is ready when the server's response shows it
    done (a cache hit on a finished job), or else at the job's
    ``finished_unix``, read by the first poll that shows the job done.
    Taking the server's completion stamp keeps the poll cadence out of
    the latency. Returns one record per submission (due time,
    lateness, round trip, ``created``, job id, ``ready`` time, latency)
    and the ``(start, end)`` of every poll; times are ``perf_counter``
    readings.
    """
    unix_offset = time.time() - time.perf_counter()
    t_start = time.perf_counter() + 0.1
    subs = [{"due": t_start + d} for d in due]
    pending: dict[str, list[dict]] = {}
    polls: list[tuple] = []
    deadline = subs[-1]["due"] + WAIT_LIMIT_S
    i, next_poll = 0, t_start
    while i < len(subs) or pending:
        now = time.perf_counter()
        if i < len(subs) and now >= subs[i]["due"]:
            sub = subs[i]
            sub["late"] = now - sub["due"]
            try:
                resp = client.submit(payloads[i])
            except (OSError, ServiceError) as exc:
                sub["error"] = f"{type(exc).__name__}: {exc}"
                i += 1
                continue
            sub["rtt"] = time.perf_counter() - now
            sub["created"] = resp["created"]
            job = resp["job"]
            sub["job_id"] = job["id"]
            if job["state"] in ("done", "failed"):
                sub["state"] = job["state"]
                sub["ready"] = now + sub["rtt"]
            else:
                pending.setdefault(job["id"], []).append(sub)
            i += 1
            continue
        if pending and now >= next_poll:
            if now > deadline:
                break
            next_poll = now + TICK_S
            try:
                jobs = client.jobs()
            except (OSError, ServiceError):
                continue
            polls.append((now, time.perf_counter()))
            for job in jobs:
                if job["state"] in ("done", "failed") and job["id"] in pending:
                    for sub in pending.pop(job["id"]):
                        sub["state"] = job["state"]
                        sub["ready"] = max(job["finished_unix"] - unix_offset,
                                           sub["due"])
            continue
        wake = min(subs[i]["due"] if i < len(subs) else np.inf,
                   next_poll if pending else np.inf)
        time.sleep(max(0.0, wake - time.perf_counter()))
    for sub, payload in zip(subs, payloads):
        sub["payload"] = payload
        sub["latency"] = (sub["ready"] - sub["due"]
                          if sub.get("state") == "done" else WAIT_LIMIT_S)
    return subs, polls


def _check_submissions(out: Outcome, subs: list[dict], final: dict,
                       results: dict) -> list[tuple]:
    """Check every submission's outcome; return the computed jobs.

    A computed submission must finish ``done`` under its own key; a
    cache hit must return the sealed result of the earlier identical
    submission. Each computed job comes back as ``(job_id, RunSpec,
    steps)``.
    """
    first_of_key: dict[str, str] = {}
    computed = []
    n_repeat = round(REPEAT_SHARE * len(subs))
    hits = 0
    for k, sub in enumerate(subs):
        what = f"submission {k}"
        if sub.get("state") != "done":
            out.check(False, f"{what}: " + (sub.get("error") or "job "
                                            + sub.get("state", "unfinished")))
            continue
        spec, steps = spec_from_dict(sub["payload"])
        key = job_key(spec.fingerprint(), steps)
        job = final[sub["job_id"]]
        result = results.get(sub["job_id"])
        ok = (job["state"] == "done" and job["key"] == key
              and result is not None and result["job_key"] == key)
        if sub["created"]:
            ok = ok and key not in first_of_key
            first_of_key[key] = sub["job_id"]
            computed.append((sub["job_id"], spec, steps))
        else:
            hits += 1
            ok = (ok and first_of_key.get(key) == sub["job_id"]
                  and (ROOT / job["dir"] / "COMPLETE").is_file())
        out.check(ok, f"{what}: wrong job or result (state "
                      f"{job['state']}, error {job['error']})")
    out.check(hits == n_repeat,
              f"{hits} cache hits for {n_repeat} resubmissions")
    return computed


def _check_fields(out: Outcome, runs: list[tuple], final: dict) -> None:
    """Each computed job's fields against a ``reference`` rerun."""
    for jid, spec, steps in runs:
        ref = run_process(dataclasses.replace(spec, accel="reference"), steps)
        with np.load(ROOT / final[jid]["dir"] / "fields.npz") as data:
            rho, u = data["rho"], data["u"]
        diff = max(float(np.abs(rho - ref.rho).max()),
                   float(np.abs(u - ref.u).max()))
        out.check(diff <= PARITY_TOL,
                  f"{jid}: fields differ from the reference rerun by "
                  f"{diff:.3g}")


def _record_spans(tracer, subs, polls, final, ranks) -> None:
    """Turn the recorded timestamps into spans, one trace per submission."""
    for start, end in polls:
        tracer.add("service.poll", "run", start, end)
    for k, sub in enumerate(subs):
        if "ready" not in sub:
            continue
        trace = f"sub-{k:03d}"
        root = tracer.add("service.job", trace, sub["due"], sub["ready"])
        sent = sub["due"] + sub["late"]
        tracer.add("service.submit", trace, sent, sent + sub["rtt"], root)
        if not sub["created"]:
            continue
        job = final[sub["job_id"]]
        tracer.add_unix("service.queue", trace, job["created_unix"],
                        job["started_unix"], root)
        run = tracer.add_unix("service.run", trace, job["started_unix"],
                              job["finished_unix"], root)
        r = ranks.get(sub["job_id"])
        if r is None:
            continue
        tracer.add_unix("parallel.spawn", trace, job["started_unix"],
                        r["first_start"], run)
        for rank, start in sorted(r["start"].items()):
            if rank in r["end"]:
                tracer.add_unix(f"parallel.rank{rank}", trace, start,
                                r["end"][rank], run)
        tracer.add_unix("service.seal", trace, r["last_end"],
                        job["finished_unix"], run)
