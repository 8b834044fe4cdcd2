"""serve-mixed: a ``repro serve --jobs 1`` daemon under two closed-loop clients.

Set-up simulates all 42 test-scale points (the 14 workloads x {none,
fence, levioso}) into a run cache.  Every session starts a daemon on a
fresh cache holding a seeded half of them, drawn anew for each pair of
sessions (see :func:`prefilled`).  Two client threads then each submit
:data:`BATCHES` batches of :data:`BATCH` Zipf-weighted points, waiting for
every job of a batch before sending the next.  Most jobs are answered by
coalescing, the daemon's result store or a disk-cache read; the points
nobody pre-filled are simulated once, on first request.

A batch's latency runs from the client's submit until every job in it is
terminal; outstanding jobs are polled every 0.25 ms at first, backing
off to every 20 ms (:data:`POLL_MIN_S`, :data:`POLL_MAX_S`).
"""

from __future__ import annotations

import http.client
import json
import random
import re
import shutil
import signal
import subprocess
import threading
import time
from contextlib import nullcontext
from pathlib import Path

from . import common, layers, pins, probe
from .result import Outcome
from .spans import Tracer

SEEDED = True
WORKLOADS = (
    "pchase", "stream", "gather", "histogram", "branchy", "bsearch", "sort",
    "sandbox", "matmul", "crc", "cipher", "listupd", "treewalk", "automaton",
)
POLICIES = ("none", "fence", "levioso")
#: Daemon pool workers: one simulation at a time, so the host-speed probe
#: keeps a CPU of its own.  Two clients, so requests for a point that is
#: being simulated can coalesce.
JOBS = 1
CLIENTS = 2
BATCH = 4
BATCHES = 100          # per client and session
#: Polling of outstanding jobs starts at POLL_MIN_S and backs off to
#: POLL_MAX_S: well below the median batch latency, without flooding the
#: daemon's event loop while a simulation runs.
POLL_MIN_S = 0.00025
POLL_MAX_S = 0.02
ZIPF_S = 1.0
TERMINAL = ("done", "failed")
#: Daemon counters read from /metrics before and after a session.
COUNTERS = {
    "simulations": "repro_service_simulations_total",
    "coalesced": "repro_service_jobs_coalesced_total",
    "store_hits": "repro_service_cache_hits_total",
    "rejected": "repro_service_jobs_rejected_total",
    "sim_s": "repro_service_simulation_seconds_sum",
    "sim_count": "repro_service_simulation_seconds_count",
}


def prefilled(seed: int, unit: int, pinned: dict[str, int]) -> list[tuple[str, str]]:
    """The seeded half pre-filled into session ``unit``'s disk cache.

    The 42 points are paired by pinned cycle count (the two cheapest, the
    next two, ...) and the seed picks one point of each pair, so every
    session leaves about the same amount of simulation to the daemon.
    Sessions come in twos: an odd session pre-fills exactly the half its
    even partner left cold, so a pair of sessions simulates every point
    once, whatever the seed.
    """
    rng = random.Random(f"serve-mixed:{seed}:{unit // 2}:prefill")
    points = sorted(((w, p) for w in WORKLOADS for p in POLICIES),
                    key=lambda pt: (pinned[f"{pt[0]}/{pt[1]}"], pt))
    return [points[i + (rng.randrange(2) ^ unit % 2)] for i in range(0, len(points), 2)]


def popularity(seed: int, unit: int, warm: list[tuple[str, str]]) -> tuple[list, list[float]]:
    """All 42 points in a seeded rank order, with Zipf weights 1/rank^s.

    Pre-filled and cold points alternate in rank (a pre-filled point is the
    most popular); each class is shuffled by the seed.
    """
    rng = random.Random(f"serve-mixed:{seed}:{unit}:rank")
    cold = [(w, p) for w in WORKLOADS for p in POLICIES if (w, p) not in set(warm)]
    warm = list(warm)
    rng.shuffle(warm)
    rng.shuffle(cold)
    points = [pt for pair in zip(warm, cold) for pt in pair]
    return points, [1.0 / (rank + 1) ** ZIPF_S for rank in range(len(points))]


# ----------------------------------------------------------------- daemon
class Daemon:
    """One ``repro serve`` child process on an ephemeral port."""

    def __init__(self, cache_dir: Path, log_dir: Path, name: str):
        self.log = log_dir / f"{name}.log"
        start = time.perf_counter()
        with open(self.log, "w") as log:
            self.proc = subprocess.Popen(
                common.repro_cmd("serve", "--port", "0", "--jobs", str(JOBS),
                                 "--cache-dir", str(cache_dir)),
                cwd=common.ROOT, env=common.child_env(), stdout=log, stderr=subprocess.STDOUT,
            )
        try:
            self.host, self.port = self._wait_listening()
            self._wait_healthy()
        except BaseException:
            self.kill()
            raise
        #: The start's window, spawn until ``/healthz`` answers (set-up time).
        self.started = (start, time.perf_counter())

    def _wait_listening(self) -> tuple[str, int]:
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            match = re.search(r"listening on http://([\d.]+):(\d+)", self.log.read_text())
            if match:
                return match.group(1), int(match.group(2))
            if self.proc.poll() is not None:
                break
            time.sleep(0.005)
        raise common.BenchError(f"repro serve never listened: {self.log.read_text()[-800:]}")

    def _wait_healthy(self) -> None:
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            try:
                if request(self, "GET", "/healthz")[0] == 200:
                    return
            except OSError:
                pass
            time.sleep(0.005)
        raise common.BenchError("repro serve never answered /healthz")

    def metrics(self) -> dict[str, float]:
        status, body = request(self, "GET", "/metrics", raw=True)
        if status != 200:
            raise common.BenchError(f"/metrics returned HTTP {status}")
        samples = {}
        for line in body.splitlines():
            if line and not line.startswith("#"):
                name, _, value = line.rpartition(" ")
                samples[name] = float(value)
        return {key: samples.get(name, 0.0) for key, name in COUNTERS.items()}

    def stop(self) -> int:
        """SIGTERM (graceful drain) and wait; returns the exit code."""
        self.proc.send_signal(signal.SIGTERM)
        try:
            return self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.kill()
            return -9

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def request(daemon: Daemon, method: str, path: str, body: dict | None = None,
            raw: bool = False):
    conn = http.client.HTTPConnection(daemon.host, daemon.port, timeout=60)
    try:
        payload = json.dumps(body).encode() if body is not None else None
        headers = {"Content-Type": "application/json"} if payload else {}
        conn.request(method, path, body=payload, headers=headers)
        resp = conn.getresponse()
        text = resp.read().decode()
    finally:
        conn.close()
    return resp.status, (text if raw else json.loads(text or "null"))


# ---------------------------------------------------------------- session
def _client(daemon: Daemon, rng: random.Random, points, weights, pinned: dict,
            out: dict, tracer: Tracer | None) -> None:
    def call(name: str, *args):
        if tracer is None:
            return request(daemon, *args)
        t0 = time.perf_counter()
        with tracer.span(name):
            result = request(daemon, *args)
        out[f"{name}_ms"].append((time.perf_counter() - t0) * 1e3)
        return result

    def run_batch(runs: list[dict]) -> list[dict]:
        """Submit, wait until every job is terminal; returns the jobs with results."""
        t0 = time.perf_counter()
        status, data = call("service.submit", "POST", "/v1/runs", {"runs": runs})
        if status not in (200, 202):
            raise common.BenchError(f"batch refused: HTTP {status} {str(data)[:200]}")
        done = [j for j in data["jobs"] if j["state"] in TERMINAL]
        pending = [j["id"] for j in data["jobs"] if j["state"] not in TERMINAL]
        polls = 0
        interval = POLL_MIN_S
        while pending:
            time.sleep(interval)
            interval = min(interval * 2, POLL_MAX_S)
            still = []
            for job_id in pending:
                polls += 1
                _, job = call("service.poll", "GET", f"/v1/runs/{job_id}")
                if job["state"] in TERMINAL:
                    done.append(job)
                else:
                    still.append(job_id)
            pending = still
        out["latencies_ms"].append((time.perf_counter() - t0) * 1e3)
        out["polls"].append(polls)
        # Jobs answered at submit carry no result yet: fetch it to check it.
        return [job if "result" in job or job["state"] != "done"
                else call("service.poll", "GET", f"/v1/runs/{job['id']}")[1]
                for job in done]

    for _ in range(BATCHES):
        batch = rng.choices(points, weights, k=BATCH)
        out["requested"].update(batch)
        out["jobs"] += len(batch)
        runs = [{"workload": w, "policy": p, "scale": pins.SCALE} for w, p in batch]
        try:
            with tracer.span("client.batch") if tracer else nullcontext():
                done = run_batch(runs)
        except Exception as exc:  # the loop must go on: every job of the batch failed
            out["failures"].extend([f"batch failed: {exc!r}"] * len(batch))
            continue
        for job in done:
            label = f"{job['request']['workload']}/{job['request']['policy']}"
            if job["state"] != "done":
                out["failures"].append(f"{label}: job {job['state']}: {job.get('error')}")
            elif job["result"]["cycles"] != pinned.get(label):
                out["failures"].append(
                    f"{label}: {job['result']['cycles']} cycles, pinned {pinned.get(label)}")


def session(daemon: Daemon, seed: int, unit: int, pinned: dict,
            tracer: Tracer | None = None) -> dict:
    """Both closed-loop clients against one daemon; returns what they saw."""
    points, weights = popularity(seed, unit, prefilled(seed, unit, pinned))
    outs = [{"latencies_ms": [], "polls": [], "failures": [], "jobs": 0, "requested": set(),
             "service.submit_ms": [], "service.poll_ms": []} for _ in range(CLIENTS)]
    threads = [
        threading.Thread(target=_client, args=(
            daemon, random.Random(f"serve-mixed:{seed}:{unit}:{c}"), points, weights,
            pinned, outs[c], tracer))
        for c in range(CLIENTS)
    ]
    before = daemon.metrics()
    cpu0 = common.tree_cpu_s(daemon.proc.pid) + common.self_cpu_s()
    t0 = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall = time.perf_counter() - t0
    cpu = common.tree_cpu_s(daemon.proc.pid) + common.self_cpu_s() - cpu0
    after = daemon.metrics()
    merged = {key: [v for o in outs for v in o[key]] for key in
              ("latencies_ms", "polls", "failures", "service.submit_ms", "service.poll_ms")}
    merged.update(start=t0, end=t0 + wall, wall=wall, cpu=cpu, jobs=sum(o["jobs"] for o in outs),
                  requested=set().union(*(o["requested"] for o in outs)),
                  counters={k: after[k] - before[k] for k in COUNTERS})
    return merged


def _prefill(seed: int, work: Path) -> tuple[Path, dict[tuple[str, str], Path]]:
    """Simulate every point into one run cache; returns it and each point's entry."""
    common.import_repro()
    from repro.harness import ExperimentRunner, ResultCache

    full = work / "full"
    points = [(w, p) for w in WORKLOADS for p in POLICIES]
    layers.compose({"kind": "prefill", "run_id": f"serve-mixed/{seed}/prefill", "trace": False,
                    "cache_dir": str(full), "points": points}, work, "prefill")
    by_key = {path.stem: path for path in ResultCache(full).entries()}
    runner = ExperimentRunner(scale=pins.SCALE)
    entries = {pt: by_key.get(runner.run_key_for(*pt)) for pt in points}
    missing = [f"{w}/{p}" for (w, p), path in entries.items() if path is None]
    if missing:
        raise common.BenchError(f"prefill left no cache entry for {missing}")
    return full, entries


def _run_session(seed: int, unit: int, work: Path, entries: dict, pinned: dict,
                 tracer: Tracer | None = None, name: str = "") -> dict:
    """Start a daemon on a fresh cache holding the session's pre-filled half,
    run one session against it and drain it.  A drain that does not exit 0
    is one more failed check (``checks`` counts every job plus the drain)."""
    name = name or str(unit)
    cache_dir = work / f"cache{name}"
    for point in prefilled(seed, unit, pinned):
        source = entries[point]
        target = cache_dir / source.parent.name / source.name
        target.parent.mkdir(parents=True, exist_ok=True)
        shutil.copyfile(source, target)
    daemon = Daemon(cache_dir, work, f"serve{name}")
    try:
        result = session(daemon, seed, unit, pinned, tracer)
    except BaseException:
        daemon.kill()
        raise
    code = daemon.stop()
    if code != 0:
        result["failures"].append(f"daemon exited {code} after draining")
    result.update(started=daemon.started, checks=result["jobs"] + 1)
    return result


def measure(seed: int, seconds: float, work: Path) -> Outcome:
    """Pairs of sessions until ``seconds`` have passed (at least one pair).
    Times are reported in reference seconds (:mod:`perfbench.probe`): each
    session's wall, CPU and batch latencies, and each daemon start, are
    scaled by the host speed over their own window.  Unscaled medians go to
    ``samples``."""
    pinned = pins.load()["regen"]["points"]
    full, entries = _prefill(seed, work)
    starts = []
    sessions = []
    outcome = Outcome()
    with probe.Probe(work) as speed:
        for i in range(common.SETUP_REPEATS - 1):   # each session adds one more
            daemon = Daemon(full, work, f"probe{i}")
            starts.append(daemon.started)
            daemon.stop()
        begin = time.perf_counter()
        while len(sessions) % 2 or not sessions or time.perf_counter() - begin < seconds:
            result = _run_session(seed, len(sessions), work, entries, pinned)
            starts.append(result["started"])
            sessions.append(result)
            outcome.add(result["checks"], result["failures"])
    peak = common.peak_rss_mb()

    setups = [(end - start, speed.scale(start, end)) for start, end in starts]
    for s in sessions:
        s["scale"] = speed.scale(s["start"], s["end"])
    latencies = [lat * s["scale"] for s in sessions for lat in s["latencies_ms"]]
    outcome.samples = {
        "sessions": len(sessions), "latency": len(latencies),
        "jobs": [s["jobs"] for s in sessions],
        "simulations": [s["counters"]["simulations"] for s in sessions],
        "host_speed_scale": {"setup": [k for _, k in setups],
                             "sessions": [s["scale"] for s in sessions]},
        "unscaled": {"setup_s": common.median([t for t, _ in setups]),
                     "wall_s": common.median([s["wall"] for s in sessions]),
                     "cpu_s": common.median([s["cpu"] for s in sessions]),
                     "latency_p50_ms": common.percentile(
                         [lat for s in sessions for lat in s["latencies_ms"]], 50)},
    }
    outcome.end_to_end(
        setup_s=common.median([t * k for t, k in setups]),
        wall_s=common.median([s["wall"] * s["scale"] for s in sessions]),
        cpu_s=common.median([s["cpu"] * s["scale"] for s in sessions]),
        jobs_per_s=common.median([s["jobs"] / (s["wall"] * s["scale"]) for s in sessions]),
        latency_p50_ms=common.percentile(latencies, 50),
        latency_p95_ms=common.percentile(latencies, 95),
        peak_rss_mb=peak,
    )
    outcome.processes = [
        {"role": f"prefill (parent + {common.JOBS} pool workers)", "fresh_interpreter": True,
         "count": 1},
        {"role": f"repro serve --jobs {JOBS}", "fresh_interpreter": True,
         "run_cache": "half pre-filled", "result_store": "empty",
         "count": len(sessions) + common.SETUP_REPEATS - 1},
        {"role": "benchmark client threads", "count": CLIENTS},
        {"role": "host-speed probe", "fresh_interpreter": True, "count": 1},
    ]
    return outcome


def trace(seed: int, seconds: float, work: Path) -> Outcome:
    """Per-layer split: a session untraced then traced (client side and the
    daemon's /metrics counters), and a serial replay of the served points:
    pre-filled ones read from a copy of the disk cache, the rest simulated."""
    common.import_repro()
    pinned = pins.load()["regen"]["points"]
    full, entries = _prefill(seed, work)
    outcome = Outcome()
    plain = _run_session(seed, 0, work, entries, pinned, name="plain")
    tracer = Tracer(f"serve-mixed/{seed}")
    traced = _run_session(seed, 0, work, entries, pinned, tracer, name="traced")
    for run in (plain, traced):
        outcome.add(run["checks"], run["failures"])

    warm = set(prefilled(seed, 0, pinned))
    served = sorted(traced["requested"])
    reads = [list(p) for p in served if p in warm]
    sims = [[f"{w}/{p}", w, p, True, {}, False] for w, p in served if (w, p) not in warm]
    shutil.copytree(full, work / "replay-cache")
    shards = layers.replay(sims, work, f"serve-mixed/{seed}",
                           extra={"cache_dir": str(work / "replay-cache"), "reads": reads})
    outcome.add(len(reads) + len(sims), layers.replay_failures(shards, pinned))

    counters = traced["counters"]
    jobs = traced["jobs"]
    extra = {
        "service.submit_ms": common.median(traced["service.submit_ms"]),
        "service.poll_ms": common.median(traced["service.poll_ms"]) if traced["service.poll_ms"] else 0.0,
        "service.polls_per_batch": sum(traced["polls"]) / len(traced["polls"]),
        "service.simulations": counters["simulations"],
        "service.coalesced": counters["coalesced"],
        "service.store_hits": counters["store_hits"],
        "service.dedup_ratio": 1.0 - counters["simulations"] / jobs if jobs else 0.0,
        "service.sim_s": counters["sim_s"],
        "service.rejected": counters["rejected"],
        "trace.overhead": traced["wall"] / plain["wall"],
    }
    outcome.layer_metrics(layers.per_layer([tracer.to_dict()] + [s["trace"] for s in shards], extra))
    outcome.notes = {
        "session_wall_s": {"untraced": plain["wall"], "traced": traced["wall"]},
        "simulations_total_vs_histogram_count": [counters["simulations"], counters["sim_count"]],
        "replayed": {"cache_reads": len(reads), "simulated": len(sims)},
    }
    outcome.trace_files = [tracer.to_dict()] + [s["trace"] for s in shards]
    outcome.processes = [
        {"role": "prefill", "fresh_interpreter": True, "count": 1},
        {"role": f"repro serve --jobs {JOBS} (untraced, traced session)", "fresh_interpreter": True,
         "count": 2},
        {"role": "replay shard", "fresh_interpreter": True, "count": len(shards)},
    ]
    return outcome
