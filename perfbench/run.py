"""The repo benchmark: end-to-end runs of the commands users run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Workloads (see README.md for why):

* ``search-cold``    -- ``repro search --strategy hybrid --starts 4,2,2``,
  standard profile, fresh disk cache per run (the write path);
* ``multicore-pool`` -- ``repro multicore --cores 2 --workers 2``, quick
  profile, fresh disk cache per run (partitioned engine + process pool);
* ``serve-warm``     -- one ``repro serve`` process, warmed with the
  exhaustive and hybrid case-study jobs, then a single closed-loop client
  resubmitting them with ``resume=False`` (the read path).

Every result is checked against :data:`REFERENCE`.  A failed run or job
is counted, not fatal.  ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` alternates untraced and traced units, prints the per-layer
metrics of the traced ones and fails the run if the layer claims of
``layers.CLAIMS`` do not hold.  The last stdout line is one JSON object.
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench-work"

#: Results of this commit, recorded with the serial engine (the pool
#: must match it).  Overall costs are compared at relative tolerance.
TOLERANCE = 1e-9
REFERENCE = {
    "search-cold": {"best_schedule": [2, 2, 2], "overall": 0.650578765873016},
    "multicore-pool": {
        "cores": [[[0, 2], [2, 2]], [[1], [1]]],
        "overall": 0.679638884920635,
    },
    "serve-exhaustive": {"best_schedule": [2, 2, 2], "overall": 0.6152287936507937},
    "serve-hybrid": {"best_schedule": [2, 2, 2], "overall": 0.6152287936507937},
}

#: Job specs of serve-warm (quick profile on the server).
SERVE_SPECS = {
    "serve-exhaustive": {"kind": "search", "strategy": "exhaustive"},
    "serve-hybrid": {"kind": "search", "strategy": "hybrid", "starts": [[4, 2, 2]]},
}

JOBS_PER_ROUND = 10
#: p90 of serve-warm job latency needs at least 10 samples beyond it.
MIN_JOBS = 100
UNIT_TIMEOUT_S = 60.0
#: Never start another unit past this point, so a run ends inside 180 s.
HARD_STOP_S = 100.0


class BenchError(Exception):
    """A set-up step failed; the run cannot produce a result."""


def child_env(profile: str | None) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    # One BLAS thread per process keeps the busy processes at nproc = 2
    # (coordinator idle + 2 pool workers); oversubscribed BLAS threads in
    # the pool workers made multicore-pool runs up to 5x slower at random.
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    env.pop("REPRO_PROFILE", None)
    if profile is not None:
        env["REPRO_PROFILE"] = profile
    return env


def check_report(report: dict, ref: dict) -> str | None:
    """Why ``report`` differs from the reference, or ``None``."""
    if not report.get("feasible"):
        return "infeasible result"
    if "best_schedule" in ref and report.get("best_schedule") != ref["best_schedule"]:
        return f"best schedule {report.get('best_schedule')} != {ref['best_schedule']}"
    if "cores" in ref:
        cores = [[c["app_indices"], c["schedule"]] for c in report.get("cores") or []]
        if cores != ref["cores"]:
            return f"partition {cores} != {ref['cores']}"
    overall = report.get("overall")
    if not isinstance(overall, float) or abs(overall - ref["overall"]) > TOLERANCE * ref["overall"]:
        return f"overall {overall!r} != {ref['overall']!r}"
    return None


@dataclass
class Unit:
    """One measured unit: a CLI process run, or a round of serve jobs."""

    wall_s: float
    latencies_ms: list[float]
    reports: list[dict]
    records: list[dict] = field(default_factory=list)
    trace: dict | None = None
    #: Tracer installation (import of the whole package) inside ``wall_s``.
    install_s: float = 0.0


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    peak_rss_mb: float = 0.0
    setups: list[float] = field(default_factory=list)

    def fail(self, what: str) -> None:
        self.failed += 1
        print(f"FAILED: {what}", file=sys.stderr)


def spawn(cmd: list[str], env: dict, log: Path) -> subprocess.Popen:
    with open(log, "ab") as err:
        return subprocess.Popen(
            cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE, stderr=err,
        )


def reap(proc: subprocess.Popen) -> tuple[int, float]:
    """Wait for ``proc``; its exit code and peak RSS in MB.

    ``wait4`` reports the largest resident set of the process and of every
    descendant it waited for, so pool workers are included.
    """
    _pid, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0


def repro_command(argv: list[str], dump: Path | None = None) -> list[str]:
    """``python -m repro ARGV``, or the same under the tracer writing to ``dump``."""
    if dump is None:
        return [sys.executable, "-m", "repro", *argv]
    return [sys.executable, str(HERE / "traced.py"), str(dump), *argv]


def run_process(cmd: list[str], env: dict, log: Path) -> tuple[int, bytes, float, float]:
    """Run ``cmd`` to completion: exit code, stdout, wall seconds, peak RSS MB."""
    start = time.perf_counter()
    proc = spawn(cmd, env, log)
    watchdog = threading.Timer(UNIT_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        out = proc.stdout.read()
        proc.stdout.close()
        code, rss = reap(proc)
    finally:
        watchdog.cancel()
    return code, out, time.perf_counter() - start, rss


class CliWorkload:
    """One ``python -m repro`` command per unit, each on a fresh disk cache."""

    #: Timed set-ups before each untraced unit (about 12 per run).
    setups_per_unit = 2

    def __init__(self, name: str, argv: list[str], profile: str | None) -> None:
        self.name = name
        self.argv = argv
        self.env = child_env(profile)
        self.ref = REFERENCE[name]
        self.count = 0
        self.timed = False

    def _info(self, work: Path) -> float:
        """Wall seconds of one ``repro info``: what every command pays
        (interpreter start, package import, case-study build and its WCET
        analysis)."""
        code, _out, wall, _rss = run_process(repro_command(["info"]), self.env, work / "info.log")
        if code != 0:
            raise BenchError(f"repro info exited with {code}")
        return wall

    def setup(self, tally: Tally, work: Path, timed: bool) -> None:
        # The set-up is timed between units, not all before them: a run's
        # first seconds were often slower (writes left by the run before),
        # which spread per-run set-up medians up to 0.16 while unit walls
        # stayed within 0.04.  This first call is untimed; it warms the OS
        # file cache.
        self.timed = timed
        if timed:
            self._info(work)

    def unit(self, tally: Tally, work: Path, traced: bool) -> Unit | None:
        if self.timed and not traced:
            tally.setups.extend(self._info(work) for _ in range(self.setups_per_unit))
        self.count += 1
        cache = work / f"cache-{self.count}"
        argv = [*self.argv, "--cache-dir", str(cache)]
        dump = work / f"trace-{self.count}.json"
        tally.attempted += 1
        # Caches are deleted with the work dir after the run: deleting
        # files on a filesystem mounted with `discard` stalls later writes.
        code, out, wall, rss = run_process(repro_command(argv, dump if traced else None),
                                           self.env, work / "cli.log")
        tally.peak_rss_mb = max(tally.peak_rss_mb, rss)
        if code != 0:
            tally.fail(f"{self.name} run exited with {code} (see {work / 'cli.log'})")
            return None
        try:
            report = json.loads(out)
        except ValueError:
            tally.fail(f"{self.name} printed no JSON report")
            return None
        problem = check_report(report, self.ref)
        if problem:
            tally.fail(f"{self.name}: {problem}")
            return None
        if not traced:
            return Unit(wall, [wall * 1e3], [report])
        trace = json.loads(dump.read_text())
        return Unit(wall, [wall * 1e3], [report], trace=trace, install_s=trace["install_s"])

    def close(self) -> float:
        return 0.0


class Server:
    """One ``repro serve`` subprocess with its own run dir."""

    def __init__(self, work: Path, index: int, env: dict, traced: bool) -> None:
        self.dump = work / f"serve-trace-{index}.json"
        self.rounds = 0
        run_dir = work / f"serve-{index}"
        argv = ["serve", "--port", "0", "--jobs", "1", "--run-dir", str(run_dir)]
        self.proc = spawn(repro_command(argv, self.dump if traced else None), env, work / "serve.log")
        watchdog = threading.Timer(UNIT_TIMEOUT_S, self.proc.kill)
        watchdog.start()
        try:
            line = self.proc.stdout.readline().decode()
        finally:
            watchdog.cancel()
        if "listening on http://" not in line:
            self.close()
            raise BenchError(f"server did not start (see {work / 'serve.log'})")
        self.port = int(line.split("listening on http://", 1)[1].split()[0].rsplit(":", 1)[1])

    def _request(self, method: str, path: str, body: dict | None = None) -> dict:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=UNIT_TIMEOUT_S)
        try:
            payload = json.dumps(body).encode() if body is not None else None
            conn.request(method, path, body=payload, headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            data = json.loads(response.read())
            if response.status >= 400:
                raise BenchError(f"{method} {path}: HTTP {response.status} {data}")
            return data
        finally:
            conn.close()

    def run_job(self, spec: dict) -> tuple[float, dict]:
        """Submit, follow the event stream to the terminal status, fetch
        the record; latency is submit to terminal status, in ms."""
        start = time.perf_counter()
        job_id = self._request("POST", "/jobs", spec)["id"]
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=UNIT_TIMEOUT_S)
        try:
            conn.request("GET", f"/jobs/{job_id}/events")
            response = conn.getresponse()
            while True:
                line = response.readline()
                if not line:
                    raise BenchError(f"event stream of {job_id} ended early")
                message = json.loads(line)
                if message.get("type") == "status" and message.get("state") in ("done", "failed"):
                    break
        finally:
            conn.close()
        latency_ms = (time.perf_counter() - start) * 1e3
        return latency_ms, self._request("GET", f"/jobs/{job_id}")

    def dump_trace(self) -> dict:
        """Ask a traced server for its layer totals since the last dump."""
        self.rounds += 1
        path = Path(f"{self.dump}.{self.rounds}")
        self.proc.send_signal(signal.SIGUSR1)
        deadline = time.monotonic() + 10.0
        while not path.exists():
            if time.monotonic() > deadline:
                raise BenchError("traced server wrote no layer totals")
            time.sleep(0.005)
        return json.loads(path.read_text())

    def close(self) -> float:
        """Stop the server (graceful drain); its peak RSS in MB."""
        if self.proc.returncode is not None:
            return 0.0
        self.proc.send_signal(signal.SIGTERM)
        watchdog = threading.Timer(UNIT_TIMEOUT_S, self.proc.kill)
        watchdog.start()
        try:
            self.proc.stdout.close()
            return reap(self.proc)[1]
        finally:
            watchdog.cancel()


class ServeWorkload:
    """Closed loop: one client, one job at a time, against a warm server."""

    name = "serve-warm"
    setup_repeats = 3

    def __init__(self, seed: int) -> None:
        self.env = child_env("quick")
        self.rng = random.Random(seed)
        self.servers: list[Server] = []
        self.plain: Server | None = None
        self.traced: Server | None = None
        self.warm: dict[str, float] = {}

    def _job(self, server: Server, name: str, spec: dict, tally: Tally) -> tuple[float, dict] | None:
        tally.attempted += 1
        try:
            latency_ms, record = server.run_job(spec)
        except (BenchError, OSError, ValueError, http.client.HTTPException) as exc:
            tally.fail(f"{name} job: {exc}")
            return None
        reports = record.get("reports") or []
        if record.get("state") != "done" or len(reports) != 1:
            tally.fail(f"{name} job {record.get('id')} ended {record.get('state')}: {record.get('error')}")
            return None
        problem = check_report(reports[0], REFERENCE[name])
        if problem:
            tally.fail(f"{name}: {problem}")
            return None
        return latency_ms, record

    def _start(self, tally: Tally, work: Path, traced: bool) -> Server:
        start = time.perf_counter()
        server = Server(work, len(self.servers), self.env, traced)
        self.servers.append(server)
        for name, spec in SERVE_SPECS.items():
            done = self._job(server, name, spec, tally)
            if done is None:
                raise BenchError(f"warm-up job {name} failed")
            self.warm[name] = done[1]["reports"][0]["overall"]
        tally.setups.append(time.perf_counter() - start)
        if traced:
            server.dump_trace()  # discard the warm-up spans
        return server

    def setup(self, tally: Tally, work: Path, timed: bool) -> None:
        if timed:
            for _ in range(self.setup_repeats):
                self.plain = self._start(tally, work, traced=False)
        else:
            self.plain = self._start(tally, work, traced=False)
            self.traced = self._start(tally, work, traced=True)
        for server in self.servers:
            if server not in (self.plain, self.traced):
                tally.peak_rss_mb = max(tally.peak_rss_mb, server.close())

    def unit(self, tally: Tally, work: Path, traced: bool) -> Unit | None:
        server = self.traced if traced else self.plain
        order = [name for name in SERVE_SPECS for _ in range(JOBS_PER_ROUND // len(SERVE_SPECS))]
        self.rng.shuffle(order)
        latencies, reports, records = [], [], []
        start = time.perf_counter()
        for name in order:
            done = self._job(server, name, dict(SERVE_SPECS[name], resume=False), tally)
            if done is None:
                continue
            latency_ms, record = done
            report = record["reports"][0]
            if report["engine_stats"]["n_computed"] != 0 or report["overall"] != self.warm[name]:
                tally.fail(f"{name} job {record['id']} was not served from the warm cache")
                continue
            latencies.append(latency_ms)
            reports.append(report)
            records.append(record)
        wall = time.perf_counter() - start
        if not latencies:
            return None
        trace = server.dump_trace() if traced else None
        return Unit(wall, latencies, reports, records, trace)

    def close(self) -> float:
        """Stop every server still running; their largest peak RSS in MB."""
        return max((server.close() for server in self.servers), default=0.0)


def make_workload(name: str, seed: int):
    if name == "search-cold":
        return CliWorkload(name, ["search", "--strategy", "hybrid", "--starts", "4,2,2", "--json"], None)
    if name == "multicore-pool":
        return CliWorkload(name, ["multicore", "--cores", "2", "--workers", "2", "--json"], "quick")
    if name == "serve-warm":
        return ServeWorkload(seed)
    raise SystemExit(f"unknown workload {name!r}; choose from search-cold, multicore-pool, serve-warm")


def p90(values: list[float]) -> float:
    """The 90th percentile, interpolated between samples (one sample: itself)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def measure(workload, tally: Tally, work: Path, seconds: float, trace: bool) -> tuple[list[Unit], list[Unit]]:
    """Run units until ``seconds`` are used; (untraced, traced) units.

    A new unit starts only if it is expected to end inside the window,
    except that the minimum sample (100 serve jobs untraced, one unit of
    each kind traced) is always taken.
    """
    plain: list[Unit] = []
    traced: list[Unit] = []
    walls: list[float] = []
    # One checked but untimed unit first: the first run after set-up was
    # consistently the slowest (cold OS file cache for what `repro info`
    # does not load, such as multiprocessing and sqlite).
    workload.unit(tally, work, False)
    # Write back what set-up left dirty, so no timed unit waits on it.
    os.sync()
    start = time.perf_counter()
    serve = isinstance(workload, ServeWorkload)
    while True:
        elapsed = time.perf_counter() - start
        if trace:
            short = not plain or not traced
        else:
            short = not walls or (serve and sum(len(u.latencies_ms) for u in plain) < MIN_JOBS)
        expected = statistics.median(walls) if walls else 0.0
        if elapsed > HARD_STOP_S or (not short and elapsed + expected > seconds):
            break
        as_traced = trace and len(traced) < len(plain)
        unit_start = time.perf_counter()
        unit = workload.unit(tally, work, as_traced)
        walls.append(time.perf_counter() - unit_start)
        if unit is not None:
            (traced if as_traced else plain).append(unit)
    return plain, traced


def end_to_end(plain: list[Unit], tally: Tally) -> dict:
    walls = [u.wall_s for u in plain]
    latencies = [ms for u in plain for ms in u.latencies_ms]
    rates = [sum(r["engine_stats"]["n_requested"] for r in u.reports) / u.wall_s for u in plain]
    return {
        "wall_s": (statistics.median(walls), "s"),
        "evals_per_s": (statistics.median(rates), "1/s"),
        "job_p50_ms": (statistics.median(latencies), "ms"),
        "job_p90_ms": (p90(latencies), "ms"),
        "setup_s": (statistics.median(tally.setups), "s"),
        "peak_rss_mb": (tally.peak_rss_mb, "MB"),
        "success_rate": ((tally.attempted - tally.failed) / tally.attempted, "ratio"),
    }


def per_layer(plain: list[Unit], traced: list[Unit]) -> dict:
    n = len(traced)
    metrics: dict = {}
    for name in layers.LAYERS:
        rows = [u.trace["layers"][name] for u in traced]
        metrics[f"{name}.calls"] = (sum(r["calls"] for r in rows) / n, "count")
        metrics[f"{name}.self_s"] = (sum(r["self_s"] for r in rows) / n, "s")
        metrics[f"{name}.total_s"] = (sum(r["total_s"] for r in rows) / n, "s")
        if name in layers.ITEMS:
            metrics[f"{name}.items"] = (sum(r["items"] for r in rows) / n, "count")
    pool = sum(u.trace["targets"].get(t, 0) for u in traced for t in layers.POOL_DISPATCH)
    metrics["engine.pool_dispatches"] = (pool / n, "count")

    stats = [r["engine_stats"] for u in traced for r in u.reports]
    total = {key: sum(s[key] for s in stats) for key in (
        "n_requested", "n_computed", "n_memo_hits", "n_disk_hits",
        "n_affinity_hits", "n_affinity_steals")}
    routed = total["n_affinity_hits"] + total["n_affinity_steals"]
    metrics["engine.computed"] = (total["n_computed"] / n, "count")
    metrics["engine.max_batch"] = (max(s["max_batch"] for s in stats), "count")
    metrics["engine.memo_hit_ratio"] = (total["n_memo_hits"] / total["n_requested"], "ratio")
    metrics["engine.disk_hit_ratio"] = (total["n_disk_hits"] / total["n_requested"], "ratio")
    metrics["engine.affinity_hit_ratio"] = (total["n_affinity_hits"] / routed if routed else 0.0, "ratio")

    queue_ms, run_ms, overhead_ms = [], [], []
    for u in traced:
        for record, latency in zip(u.records, u.latencies_ms):
            server_ms = (record["finished_at"] - record["submitted_at"]) * 1e3
            queue_ms.append((record["started_at"] - record["submitted_at"]) * 1e3)
            run_ms.append((record["finished_at"] - record["started_at"]) * 1e3)
            overhead_ms.append(latency - server_ms)
    median = lambda values: statistics.median(values) if values else 0.0  # noqa: E731
    metrics["serve.queue_wait_ms"] = (median(queue_ms), "ms")
    metrics["serve.job_run_ms"] = (median(run_ms), "ms")
    metrics["serve.overhead_ms"] = (median(overhead_ms), "ms")

    # What the layer table does not explain: wall time outside every
    # top-level span and outside the tracer's own installation
    # (interpreter start, CLI, HTTP, JSON).
    metrics["other.self_s"] = (
        sum(u.wall_s - u.trace["top_s"] - u.install_s for u in traced) / n, "s")
    # Importing the whole package and wrapping the table, once per traced
    # process: an upper bound on the imports an untraced command pays.
    metrics["trace.install_s"] = (statistics.median(u.trace["install_s"] for u in traced), "s")
    # Units alternate untraced, traced, ...: pair each traced unit with
    # the untraced one just before it, so host drift cancels.
    metrics["trace.overhead_s"] = (
        statistics.median(t.wall_s - p.wall_s for p, t in zip(plain, traced)), "s")
    return metrics


def claim_failures(workload: str, metrics: dict, missing: list[str]) -> list[str]:
    problems = [
        f"{name} recorded no calls on {workload}"
        for name in layers.CLAIMS[workload]
        if name not in missing and metrics[f"{name}.calls"][0] == 0
    ]
    if workload == "serve-warm":
        problems += [
            f"{name} ran on serve-warm, which must compute nothing"
            for name in layers.CONTROL_LAYERS
            if metrics[f"{name}.calls"][0] != 0
        ]
    pooled = metrics["engine.pool_dispatches"][0] > 0
    if pooled != (workload == "multicore-pool"):
        problems.append(f"process pool {'used' if pooled else 'not used'} on {workload}")
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    workload = make_workload(args.workload, args.seed)
    tally = Tally()
    try:
        # The build step: byte-compile once so no timed run pays for it.
        subprocess.run([sys.executable, "-m", "compileall", "-q", str(ROOT / "src")],
                       check=True, stdout=subprocess.DEVNULL)
        workload.setup(tally, work, timed=not args.trace)
        plain, traced = measure(workload, tally, work, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        tally.peak_rss_mb = max(tally.peak_rss_mb, workload.close())
    if not plain or (args.trace and not traced):
        print("perfbench: no unit completed", file=sys.stderr)
        return 1
    shutil.rmtree(work, ignore_errors=True)
    os.sync()  # pay for the deletion here, not in the next run's timings

    correct = tally.failed == 0
    if args.trace:
        metrics = per_layer(plain, traced)
        for target in traced[0].trace["missing"]:
            print(f"# {target} does not resolve: missing")
        gone = layers.missing_layers(traced[0].trace["missing"])
        missing = tuple(f"{name}." for name in gone)
        problems = claim_failures(args.workload, metrics, gone)
        for problem in problems:
            print(f"LAYER CHECK FAILED: {problem}", file=sys.stderr)
        correct = correct and not problems
        print(f"# {len(traced)} traced and {len(plain)} untraced units")
    else:
        metrics = end_to_end(plain, tally)
        n_jobs = sum(len(u.latencies_ms) for u in plain)
        print(f"# {len(plain)} units, {n_jobs} job latency samples, "
              f"{len(tally.setups)} set-ups, seed {args.seed}")
        print(f"# unit walls (s): {' '.join(f'{u.wall_s:.3f}' for u in plain)}")
        print(f"# set-ups (s): {' '.join(f'{s:.3f}' for s in tally.setups)}")
        print(f"{'error_rate':32s} {tally.failed / tally.attempted:14.6g} ratio")
        missing = ()
    for name, (value, unit) in metrics.items():
        shown = "missing" if name.startswith(missing) else f"{value:.6g}"
        print(f"{name:32s} {shown:>14s} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
