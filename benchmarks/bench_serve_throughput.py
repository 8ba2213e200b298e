"""Benchmark — cold vs. warm job latency through the search service.

Runs one real ``repro serve`` server (in-process, real sockets) and
submits the same case-study search job three ways:

* **cold** — an empty run dir and evaluation cache: the search
  computes every evaluation;
* **warm resubmit** — the identical spec again: the service resumes
  the persisted report from the shared run dir without re-searching,
  and the fetched reports must be *byte-identical* to the cold ones;
* **warm recompute** (``resume=False``) — the search re-runs against
  the shared persistent cache: nothing recomputes
  (``n_computed == 0``), every evaluation is a disk hit, and the job
  adds zero misses to the WCET-analysis and schedule-space memos (no
  WCET analysis, no space enumeration);
* **second warm recompute** — the same again: the server's one open
  evaluation store already decoded every row the job reads, so the job
  adds zero misses to the store's decoded-evaluation memo and reads
  zero rows from SQLite (counted by the store, not timed), with the
  same report as the first recompute.

The warm resubmit must be >= 5x faster than the cold run — that
speedup is what the shared warm cache across jobs exists for.  Emits
``BENCH_serve_throughput.json`` via ``write_bench_json`` for the CI
benchmark-regression gate.

Run:  python -m pytest benchmarks/bench_serve_throughput.py -s -q
"""

from __future__ import annotations

import json
import time

from repro.sched.feasibility import SPACE_MEMO
from repro.serve import JobSpec, ServeClient
from repro.serve.testing import ServerThread
from repro.wcet.reuse import WCET_MEMO

#: The job under test: a small hybrid case-study search.
SPEC = JobSpec(strategy="hybrid", starts=((4, 2, 2),), n_starts=1)


def _timed_job(client: ServeClient, spec: JobSpec) -> tuple[float, list[dict]]:
    """Submit one job, wait for it; (wall seconds, report dicts)."""
    started = time.perf_counter()
    record = client.wait(client.submit(spec).id)
    elapsed = time.perf_counter() - started
    assert record.state == "done", record.error
    return elapsed, record.reports or []


def test_serve_warm_cache_speedup(tmp_path_factory, monkeypatch, bench_json):
    monkeypatch.setenv("REPRO_PROFILE", "quick")
    run_dir = tmp_path_factory.mktemp("serve-bench")

    with ServerThread(run_dir=run_dir) as server:
        client = ServeClient(server.url)

        cold_time, cold_reports = _timed_job(client, SPEC)
        warm_time, warm_reports = _timed_job(client, SPEC)
        recompute = JobSpec(
            strategy="hybrid", starts=((4, 2, 2),), n_starts=1, resume=False
        )
        before = {"wcet": WCET_MEMO.get_stats(), "space": SPACE_MEMO.get_stats()}
        recompute_time, recompute_reports = _timed_job(client, recompute)
        after = {"wcet": WCET_MEMO.get_stats(), "space": SPACE_MEMO.get_stats()}
        store = server.service.store
        before_store = {"reads": store.n_reads, **store.decoded.get_stats()}
        second_time, second_reports = _timed_job(client, recompute)
        after_store = {"reads": store.n_reads, **store.decoded.get_stats()}
    memo = {
        f"{name}_{counter}_warm": after[name][counter] - before[name][counter]
        for name in after
        for counter in ("hits", "misses")
    }
    store_warm2 = {
        f"store_{counter}_warm2": after_store[counter] - before_store[counter]
        for counter in ("reads", "hits", "misses")
    }

    # Identical result before any speed claims: the warm resubmit is
    # byte-identical (run-dir resume), and the forced recompute served
    # everything from the shared evaluation cache.
    assert json.dumps(warm_reports, sort_keys=True) == json.dumps(
        cold_reports, sort_keys=True
    ), "warm resubmit changed the report"
    stats = recompute_reports[0]["engine_stats"]
    assert stats["n_computed"] == 0, "warm recompute recomputed evaluations"
    assert stats["n_disk_hits"] > 0
    assert recompute_reports[0]["overall"] == cold_reports[0]["overall"]
    # The (program, platform) and (WCETs, clock) inputs repeat, so the
    # warm recompute analyzes and enumerates nothing: both memos hit.
    assert memo["wcet_misses_warm"] == 0, "warm recompute re-ran WCET analysis"
    assert memo["space_misses_warm"] == 0, "warm recompute re-enumerated the space"
    assert memo["wcet_hits_warm"] > 0 and memo["space_hits_warm"] > 0
    # The second recompute decodes nothing and reads nothing: the open
    # store's memo serves every row the first one decoded, and the
    # report (memo-served rows count as disk hits) is unchanged.
    assert store_warm2["store_misses_warm2"] == 0, "second recompute missed the store memo"
    assert store_warm2["store_hits_warm2"] > 0
    assert store_warm2["store_reads_warm2"] == 0, "second recompute read SQLite rows"
    for first, second in zip(recompute_reports, second_reports):
        assert {**first, "wall_time": 0, "created_at": 0} == {
            **second, "wall_time": 0, "created_at": 0
        }, "second recompute changed the report"

    speedup = cold_time / warm_time if warm_time > 0 else float("inf")
    print(
        f"\nserve: cold {cold_time:.2f} s vs warm resubmit {warm_time:.3f} s "
        f"-> speedup {speedup:.0f}x; cache-served recompute "
        f"{recompute_time:.2f} s ({stats['n_disk_hits']} disk hits, memo "
        f"misses: {memo['wcet_misses_warm']} WCET, {memo['space_misses_warm']} space); "
        f"second recompute {second_time:.3f} s ({store_warm2['store_hits_warm2']} "
        f"store-memo hits, {store_warm2['store_reads_warm2']} SQLite reads)"
    )
    bench_json(
        "serve_throughput",
        {
            "cold_s": cold_time,
            "warm_resubmit_s": warm_time,
            "warm_recompute_s": recompute_time,
            "warm_recompute2_s": second_time,
            "speedup": speedup,
            "n_disk_hits": stats["n_disk_hits"],
            "n_computed_warm": stats["n_computed"],
            **memo,
            **store_warm2,
            "byte_identical": True,
        },
    )
    assert warm_time * 5.0 <= cold_time, (
        f"warm resubmit only {speedup:.1f}x faster (need >= 5x)"
    )
