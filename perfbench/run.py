"""The repository benchmark: one command, three workloads, every metric
by name and unit, outputs checked for correctness.

    python3 perfbench/run.py --workload study   --seed 2011 --seconds 10 --trace 0
    python3 perfbench/run.py --workload score-1 --seed 1    --seconds 10 --trace 1
    python3 perfbench/run.py --workload all     --seed 1    --seconds 10

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` makes one untraced and one traced pass over the same
inputs and reports the per-layer metrics plus the tracing overhead.
The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  See README.md in
this directory for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import shutil
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (  # noqa: E402
    BENCH_DIR,
    KERNEL_CACHE,
    ROOT,
    TMP,
    SRC,
    WORK,
    BenchError,
    child_env,
    host_fingerprint,
    median,
    percentile,
    proc_status_kb,
    ratio,
    require_program,
    run_python,
    source_digest,
    stop_group,
    tail,
)

sys.path.insert(0, str(SRC))

WORKLOADS = ("study", "score-1", "mixed-2")
#: Set-up is repeated and its median reported: one spawn or one
#: generation is too noisy to gate on.  On the 2-core host this was
#: tuned on, the CPU slows down for spells of a few seconds: eight
#: generations in one process took 1.1 s each but the last, 1.65 s, and
#: in another process the first five took 1.26-1.56 s and the last three
#: 1.1 s.  So the set-ups are spread over the run (spawns before and
#: after the measured window, generations between the studies) rather
#: than made back to back, and there is no warm-up: the first is not
#: slower.
SETUPS = 5
#: Whole studies per untraced run (a traced run makes one per pass, so
#: both passes fit the run's time limit).  A study takes about 20 s, so
#: --seconds does not change the count.
#:
#: The study's gated times are CPU times (user + system of the study
#: process).  The study is serial, so on an idle core its CPU time is
#: its wall time; on a shared host the wall time also counts the time
#: other runnable processes held the core.  With two busy processes on
#: the 2-core host this was tuned on, one study took 24.8 s of wall time
#: and 16.7 s of CPU time.  CPU speed itself also drifts on that host
#: (one study took 19.3 s and the next 22.0 s of CPU time, in one
#: process), which the median of three studies damps.
STUDIES = 3
#: The served scorer is the paper's CP-8 model, trained on the
#: paper-scale dataset of the golden seed.  It is part of the workload,
#: like the route network ``serve --routes`` builds: the run's seed
#: varies the traffic (which rows, which operations, when), not the
#: model, so seed-to-seed spread measures the server, not tree size.
THRESHOLD = 8
MODEL_SEED = 2011
#: The engine's LRU result cache holds 1024 rows (serve defaults).
LRU_ROWS = 1024

#: Serving workloads.  ``mix`` is the operation weights handed to
#: ``build_schedule``; ``pool`` the payload row pool (None: every
#: paper-scale segment); ``rate`` 0 means closed loop.
SERVE = {
    # A caller waiting on each reply: per-request fixed costs dominate.
    # The pool is ~20x the LRU, so nearly every request is scored.
    "score-1": {
        "mix": [["score", 1.0]],
        "clients": 1,
        "rate": 0.0,
        "routes": False,
        "pool": None,
        "batch_size": 1,
    },
    # Independent navigation users (Poisson arrivals, open loop): single
    # scores, 256-row batch re-scores that fill whole micro-batches, and
    # route queries whose pairs stay resident in the route store.  The
    # pool is ~2x the LRU, so the cache hits part of the time.
    # The mix is the package's two built-in serving profiles in equal
    # parts, "mixed" (score 0.80, batch 0.15, models 0.05) and "routes"
    # (route_score 0.55, route_safest 0.35, score 0.10), without the
    # model listings; WorkloadProfile normalises the weights.  The rate
    # was chosen by sweeping rates on the commit that introduced this
    # benchmark: see README.md, "Choosing the mixed-2 rate".
    "mixed-2": {
        "mix": [["score", 0.45], ["batch", 0.075],
                ["route_score", 0.275], ["route_safest", 0.175]],
        "clients": 2,
        "rate": 120.0,
        "routes": True,
        "pool": 2 * LRU_ROWS,
        "batch_size": 256,
    },
}
WARMUP_S = 2.0
#: Closed-loop schedules are cycled; long enough that rows rarely repeat.
CLOSED_SCHEDULE = 8192

_children: list[subprocess.Popen] = []


def _on_signal(signum, frame):
    raise SystemExit(128 + signum)


# -- inputs -------------------------------------------------------------------


def make_inputs(work: Path, pool: int | None) -> dict:
    """Generate the dataset, train and save the served CP-8 scorer, and
    write the request row pool (its first ``pool`` segments).  Returns
    the paths and the offline reference scores of the pool."""
    from repro.core import CrashPronenessScorer
    from repro.roads import QDTMRSyntheticGenerator, paper_scale_config

    dataset = QDTMRSyntheticGenerator(paper_scale_config()).generate(
        seed=MODEL_SEED
    )
    scorer = CrashPronenessScorer.train(
        dataset.crash_instances, threshold=THRESHOLD, seed=MODEL_SEED
    )
    model_dir = work / "models"
    model_dir.mkdir(parents=True)
    model_path = model_dir / f"cp{THRESHOLD}.json"
    scorer.save(model_path)
    table = dataset.segment_table
    n = table.n_rows if pool is None else min(pool, table.n_rows)
    rows = table.select(list(scorer.input_schema())).to_rows(limit=n)
    rows_file = work / "rows.json"
    rows_file.write_text(json.dumps(rows))
    # The reference: the saved artefact scored offline, in one pass.
    offline = CrashPronenessScorer.load(model_path).score(table)[:n]
    return {
        "model_dir": model_dir,
        "rows": rows,
        "rows_file": rows_file,
        "offline": [float(p) for p in offline],
    }


# -- the server process ---------------------------------------------------------


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def answers(port: int) -> bool:
    """True when something already serves ``/healthz`` on ``port``."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=2)
    try:
        conn.request("GET", "/healthz")
        return conn.getresponse().status == 200
    except OSError:
        return False
    finally:
        conn.close()


class Server:
    """One ``repro-study serve`` process with default knobs, in its own
    process group, killed (with its group) on :meth:`stop`."""

    def __init__(self, model_dir: Path, routes: bool, log: Path,
                 trace_out: Path | None = None) -> None:
        self.port = free_port()
        if answers(self.port):
            raise BenchError(
                f"a server already answers /healthz on port {self.port}; "
                "refusing to measure it"
            )
        cmd = [sys.executable, "-m", "repro.cli", "serve", str(model_dir),
               "--port", str(self.port)]
        if routes:
            cmd.append("--routes")
        if trace_out is not None:
            cmd += ["--trace-out", str(trace_out)]
        self.log = log
        self._err = open(log, "wb")
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd, cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL,
            stderr=self._err, start_new_session=True,
        )
        _children.append(self.proc)

    def ready(self, probes: list[tuple[str, str, dict | None]],
              timeout: float = 120.0) -> float:
        """Seconds from spawn until every probe answered 200 once."""
        deadline = self.started + timeout
        pending = list(probes)
        conn = None
        while pending:
            if self.proc.poll() is not None:
                raise BenchError(
                    f"serve exited with {self.proc.returncode} during "
                    f"start-up; stderr ends with:\n{tail(self.log)}"
                )
            if time.perf_counter() > deadline:
                raise BenchError(f"serve not ready after {timeout:.0f} s")
            method, path, body = pending[0]
            try:
                if conn is None:
                    conn = http.client.HTTPConnection(
                        "127.0.0.1", self.port, timeout=30
                    )
                conn.request(
                    method, path,
                    body=None if body is None else json.dumps(body),
                    headers={"Content-Type": "application/json"},
                )
                response = conn.getresponse()
                response.read()
                status = response.status
            except OSError:
                if conn is not None:
                    conn.close()
                conn = None
                time.sleep(0.005)
                continue
            if status != 200:
                raise BenchError(f"{method} {path} answered {status} at start-up")
            pending.pop(0)
        elapsed = time.perf_counter() - self.started
        conn.close()
        return elapsed

    def get_json(self, path: str) -> dict:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            return json.loads(response.read())
        finally:
            conn.close()

    def peak_rss_mb(self) -> float:
        return proc_status_kb(self.proc.pid, "VmHWM") / 1024.0

    def stop(self) -> None:
        stop_group(self.proc)
        self._err.close()
        if self.proc in _children:
            _children.remove(self.proc)


def probes(cfg: dict, rows: list[dict], pairs: list | None) -> list:
    """The start-up probes: one request to every endpoint the workload
    uses (route queries also build the lazy route graph)."""
    out = [("POST", "/v1/score", {"row": rows[0]})]
    kinds = {kind for kind, _ in cfg["mix"]}
    if "batch" in kinds:
        out.append(("POST", "/v1/score/batch", {"rows": rows[:2]}))
    if pairs:
        a, b = pairs[0]
        out.append(("POST", "/v1/route/score", {"from": a, "to": b}))
        out.append(("POST", "/v1/route/safest", {"from": a, "to": b, "k": 3}))
    return out


def town_pairs(server: Server) -> list[list[str]]:
    """Every unordered pair of the served network's towns."""
    towns = sorted(
        server.get_json("/v1/route/towns")["towns"],
        key=lambda t: t["town_id"],
    )
    return [[a["name"], b["name"]]
            for i, a in enumerate(towns) for b in towns[i + 1:]]


# -- one measured window ---------------------------------------------------------


def drive(server: Server, cfg: dict, name: str, seed: int, seconds: float,
          inputs: dict, pairs: list | None, work: Path, tag: str) -> dict:
    """Run the generator process against ``server``; returns its raw
    outcome document plus the server's peak RSS."""
    spec = {
        "workload": name,
        "mix": cfg["mix"],
        "clients": cfg["clients"],
        "rate": cfg["rate"],
        "batch_size": cfg["batch_size"],
        "seed": seed,
        "seconds": seconds,
        "warmup_s": WARMUP_S,
        "closed_schedule": CLOSED_SCHEDULE,
        "rows_file": str(inputs["rows_file"]),
        "pairs": pairs or [],
        "host": "127.0.0.1",
        "port": server.port,
        "server_pid": server.proc.pid,
    }
    spec_file = work / f"spec-{tag}.json"
    out_file = work / f"outcomes-{tag}.json"
    spec_file.write_text(json.dumps(spec))
    run_python(
        BENCH_DIR / "loadgen.py",
        ["--spec", str(spec_file), "--out", str(out_file)],
        work / f"loadgen-{tag}.log",
        timeout=seconds + 150,
    )
    if server.proc.poll() is not None:
        raise BenchError(
            f"serve died during the run; stderr ends with:\n{tail(server.log)}"
        )
    result = json.loads(out_file.read_text())
    result["peak_rss_mb"] = server.peak_rss_mb()
    result["build"] = server.get_json("/metrics").get("build", {})
    return result


def check_outcomes(run: dict, inputs: dict) -> tuple[int, list[str]]:
    """Count failed requests: HTTP errors, transport failures, and
    responses that differ from offline scoring or from an earlier
    answer to the same route query.  Every scored 200 response is
    compared element for element."""
    offline = inputs["offline"]
    errors = mismatches = repeats = 0
    notes: list[str] = []
    first_answer: dict[str, str] = {}
    for index, kind, _, _, _, status, _, payload, request in run["outcomes"]:
        if status != 200:
            errors += 1
        elif request is not None:
            if request in first_answer:
                repeats += 1
                mismatches += first_answer[request] != payload
            else:
                first_answer[request] = payload
        else:
            body = json.loads(payload)
            got = ([body["probability"]] if kind == "score"
                   else [r["probability"] for r in body["results"]])
            indices = run["row_indices"][str(index)]
            mismatches += got != [offline[i] for i in indices]
    if errors:
        notes.append(f"{errors} request(s) failed (HTTP error or no response)")
    if mismatches:
        notes.append(f"{mismatches} response(s) differ from the reference")
    failed = errors + mismatches
    if first_answer and not repeats:
        failed += 1
        notes.append("no route query repeated: byte-identity unchecked")
    return failed, notes


def end_to_end(run: dict, open_loop: bool) -> dict:
    """Client-side metrics of one window (latency from the due time in
    the open loop, from the send in the closed loop)."""
    outcomes = run["outcomes"]
    latency = [1000.0 * (o[4] - (o[2] if open_loop else o[3]))
               for o in outcomes]
    ok = [o for o in outcomes if o[5] == 200]
    wall = max(o[4] for o in outcomes)
    routes = [lat for o, lat in zip(outcomes, latency)
              if o[1].startswith("route")]
    batches = [o for o in ok if o[1] == "batch"]
    batch_rows = sum(len(run["row_indices"][str(o[0])]) for o in batches)
    return {
        "p50_ms": percentile(latency, 50),
        "p90_ms": percentile(latency, 90),
        "p99_ms": percentile(latency, 99),
        "latency_samples": len(latency),
        "req_per_s": len(ok) / wall,
        "route_p50_ms": percentile(routes, 50) if routes else None,
        "route_samples": len(routes),
        "batch_rows_per_s": (
            ratio(batch_rows, sum(o[4] - o[3] for o in batches))
            if batches else None
        ),
        "batch_samples": len(batches),
        "peak_rss_mb": run["peak_rss_mb"],
    }


# -- per-layer attribution from spans and /metrics -------------------------------


def read_spans(path: Path) -> list[dict]:
    spans = []
    if not path.exists():
        return spans
    for line in path.read_text().splitlines():
        try:
            spans.append(json.loads(line))
        except json.JSONDecodeError:
            break  # a torn final line from the killed writer
    return spans


def _covered(parent: dict, children: list[dict]) -> float:
    """Seconds of ``parent`` covered by its children.  An
    ``engine.batch`` child also covers the queue wait before it."""
    lo, hi = parent["start_time"], parent["start_time"] + parent["duration"]
    intervals = []
    for child in children:
        start = child["start_time"]
        if child["name"] == "engine.batch":
            start -= child["attrs"].get("queue_wait_ms", 0.0) / 1000.0
        end = child["start_time"] + child["duration"]
        intervals.append((max(lo, start), min(hi, end)))
    covered, reach = 0.0, lo
    for start, end in sorted(intervals):
        start = max(start, reach)
        if end > start:
            covered += end - start
            reach = end
    return covered


def _delta(before: dict, after: dict, *keys: str) -> float:
    def get(doc):
        for key in keys:
            doc = doc.get(key, {}) if isinstance(doc, dict) else {}
        return doc if isinstance(doc, (int, float)) else 0
    return get(after) - get(before)


def serving_layers(run: dict, spans: list[dict], open_loop: bool) -> dict:
    outcomes = run["outcomes"]
    window = {o[6] for o in outcomes if o[6]}
    mine = [s for s in spans if s["trace_id"] in window]
    by_name: dict[str, list[dict]] = {}
    children: dict[str, list[dict]] = {}
    for s in mine:
        by_name.setdefault(s["name"], []).append(s)
        if s["parent_id"]:
            children.setdefault(s["parent_id"], []).append(s)
    requests = by_name.get("http.request", [])
    http_ms = {s["trace_id"]: 1000.0 * s["duration"] for s in requests}
    self_ms = [1000.0 * (s["duration"]
                         - _covered(s, children.get(s["span_id"], [])))
               for s in requests]
    waits = [s["attrs"].get("queue_wait_ms", 0.0)
             for s in by_name.get("engine.batch", [])]
    unattributed = [1000.0 * (o[4] - o[3]) - http_ms[o[6]]
                    for o in outcomes if o[6] in http_ms]
    score_rows = [1000.0 * s["duration"] for s in by_name.get("engine.score_rows", [])]
    evaluate = by_name.get("plan.evaluate", [])
    eval_rows = sum(s["attrs"].get("rows", 0) for s in evaluate)
    plans = [1000.0 * s["duration"] for s in by_name.get("routing.plan", [])]
    builds = [s["duration"] for s in spans if s["name"] == "routing.build"]

    before, after = run["before"], run["after"]
    batches = hits = misses = batch_rows = 0.0
    for name, stats in after.get("engines", {}).items():
        old = before.get("engines", {}).get(name, {})
        n_new, n_old = stats.get("batches", 0), old.get("batches", 0)
        batches += n_new - n_old
        batch_rows += (_mean_rows(stats) * n_new) - (_mean_rows(old) * n_old)
        hits += stats.get("cache_hits", 0) - old.get("cache_hits", 0)
        misses += stats.get("cache_misses", 0) - old.get("cache_misses", 0)
    store_hits = _delta(before, after, "routing", "store", "hits")
    store_misses = _delta(before, after, "routing", "store", "misses")
    lateness = [1000.0 * (o[3] - o[2]) for o in outcomes] if open_loop else [0.0]
    return {
        "serving.engine.queue_wait_ms_p50": percentile(waits, 50),
        "serving.engine.queue_wait_ms_p99": percentile(waits, 99),
        "serving.engine.queue_wait_samples": len(waits),
        "serving.http.self_ms_p50": percentile(self_ms, 50),
        "serving.http.self_ms_p99": percentile(self_ms, 99),
        "serving.http.samples": len(self_ms),
        "serving.unattributed_ms_p50": percentile(unattributed, 50),
        "serving.cpu_ms_per_req": 1000.0 * ratio(run["server_cpu_s"], len(outcomes)),
        "serving.engine.batches": batches,
        "serving.engine.batch_size_mean": ratio(batch_rows, batches),
        "serving.engine.cache_hits": hits,
        "serving.engine.cache_lookups": hits + misses,
        "serving.engine.cache_hit_ratio": ratio(hits, hits + misses),
        "serving.engine.score_rows_ms_p50": percentile(score_rows, 50),
        "mining.tree.evaluate_rows": eval_rows,
        "mining.tree.evaluate_rows_per_s": ratio(
            eval_rows, sum(s["duration"] for s in evaluate)
        ),
        "routing.plan_ms_p50": percentile(plans, 50),
        "routing.plan_ms_p99": percentile(plans, 99),
        "routing.search_calls": len(by_name.get("routing.search", [])),
        "routing.store.hits": store_hits,
        "routing.store.lookups": store_hits + store_misses,
        "routing.store.hit_ratio": ratio(store_hits, store_hits + store_misses),
        "routing.build_s": sum(builds),
        "loadgen.cpu_s": run["loadgen_cpu_s"],
        "loadgen.lateness_ms_p99": percentile(lateness, 99),
    }


def _mean_rows(stats: dict) -> float:
    value = stats.get("mean_batch_size", 0.0)
    return 0.0 if value != value else float(value)  # NaN: no batches yet


# -- workloads ---------------------------------------------------------------------


def run_serving(name: str, seed: int, seconds: float, trace: bool,
                work: Path) -> dict:
    cfg = SERVE[name]
    open_loop = cfg["rate"] > 0
    inputs = make_inputs(work, cfg["pool"])
    rows = inputs["rows"]

    def spawn(tag: str, traced: bool = False) -> tuple[Server, float, list | None]:
        server = Server(inputs["model_dir"], cfg["routes"], work / f"serve-{tag}.log",
                        work / f"spans-{tag}.jsonl" if traced else None)
        try:
            pairs = None
            if cfg["routes"]:
                server.ready([("GET", "/healthz", None)])
                pairs = town_pairs(server)
            return server, server.ready(probes(cfg, rows, pairs)), pairs
        except BaseException:
            server.stop()
            raise

    result: dict = {"notes": []}
    if not trace:
        setups = []
        before = SETUPS // 2 + 1  # the last of these serves the window
        for i in range(before):
            server, setup, pairs = spawn(f"setup{i}")
            setups.append(setup)
            if i < before - 1:
                server.stop()
        try:
            run = drive(server, cfg, name, seed, seconds, inputs, pairs, work, "plain")
        finally:
            server.stop()
        for i in range(before, SETUPS):
            server, setup, _ = spawn(f"setup{i}")
            setups.append(setup)
            server.stop()
        metrics = end_to_end(run, open_loop)
        metrics["setup_s"] = median(setups)
        metrics["setup_samples"] = len(setups)
    else:
        server, _, pairs = spawn("plain")
        try:
            plain = drive(server, cfg, name, seed, seconds, inputs, pairs,
                          work, "plain")
        finally:
            server.stop()
        server, _, pairs = spawn("traced", traced=True)
        try:
            run = drive(server, cfg, name, seed, seconds, inputs, pairs, work, "traced")
        finally:
            server.stop()
        spans = read_spans(work / "spans-traced.jsonl")
        metrics = serving_layers(run, spans, open_loop)
        result["expected"] = set(metrics)
        # The untraced pass's end-to-end numbers, to read the layers against.
        metrics.update(end_to_end(plain, open_loop))
        metrics["trace_overhead_pct"] = 100.0 * (
            end_to_end(run, open_loop)["p50_ms"] / metrics["p50_ms"] - 1.0
        )
    attempted = failed = 0
    for checked in (plain, run) if trace else (run,):
        n_failed, notes = check_outcomes(checked, inputs)
        attempted += len(checked["outcomes"])
        failed += n_failed
        result["notes"] += notes
        if checked["warmup_failed"]:
            result["notes"].append(
                f"{checked['warmup_failed']} warm-up request(s) failed"
            )
    metrics["error_rate"] = ratio(failed, attempted)
    result.update(
        attempted=attempted,
        failed=failed,
        metrics=metrics,
        kernel=str(run["build"].get("native_kernel", "unknown")),
    )
    return result


def run_study(seed: int, trace: bool, work: Path) -> dict:
    def worker(tag: str, hooks: bool, setups: int, studies: int) -> dict:
        out = work / f"study-{tag}.json"
        run_python(
            BENCH_DIR / "study_worker.py",
            ["--seed", str(seed), "--setups", str(setups),
             "--studies", str(studies), "--hooks", str(int(hooks)),
             "--out", str(out)],
            work / f"study-{tag}.log",
            timeout=170,
        )
        return json.loads(out.read_text())

    if trace:
        plain = worker("plain", hooks=False, setups=1, studies=1)
        doc = worker("traced", hooks=True, setups=SETUPS, studies=1)
    else:
        doc = worker("plain", hooks=False, setups=SETUPS, studies=STUDIES)
    studies = doc["studies"]
    walls = [s["wall_s"] for s in studies]
    cpus = [s["cpu_s"] for s in studies]
    checked = studies + (plain["studies"] if trace else [])
    failed = sum(1 for s in checked if s["problems"])
    problems = [p for s in checked for p in s["problems"]]
    metrics = {
        "setup_s": median(doc["setup_cpu_s"]),
        "setup_wall_s": median(doc["setup_s"]),
        "setup_samples": len(doc["setup_s"]),
        "study_s": median(walls),
        "study_cpu_s": median(cpus),
        "p50_ms": 1000.0 * median(cpus),
        "latency_samples": len(cpus),
        "peak_rss_mb": doc["peak_rss_mb"],
        "error_rate": ratio(failed, len(checked)),
    }
    expected = set()
    if trace:
        plain_cpu = median(s["cpu_s"] for s in plain["studies"])
        metrics = study_layers(doc)
        expected = STUDY_LAYERS
        # The untraced pass's study times, to read the layers against.
        metrics["study_s"] = median(s["wall_s"] for s in plain["studies"])
        metrics["study_cpu_s"] = plain_cpu
        metrics["trace_overhead_pct"] = 100.0 * (median(cpus) / plain_cpu - 1.0)
    return {
        "attempted": len(checked),
        "failed": failed,
        "metrics": metrics,
        "kernel": doc["kernel"],
        "expected": expected,
        "notes": problems[:10] + [f"tables digest {studies[0]['digest']}"],
        "warnings": doc["warnings"],
    }


#: Per-layer metrics the study measures (the rest are idle there).
STUDY_LAYERS = {
    "mining.tree.fits", "mining.tree.fit_s", "mining.tree.nodes",
    "mining.tree.split_calls", "mining.tree.split_s",
    "mining.tree.evaluate_rows", "mining.tree.evaluate_rows_per_s",
    "mining.kmeans.fit_s", "mining.kmeans.iterations",
    "mining.naive_bayes.fit_s", "core.thresholds.builds",
    "core.thresholds.build_s", "parallel.cache.hits",
    "parallel.cache.lookups", "parallel.cache.hit_ratio",
    "parallel.stage.phase1_s", "parallel.stage.phase2_s",
    "parallel.stage.bayes_s", "parallel.stage.clustering_s",
    "study.unattributed_s", "roads.generate_s", "trace_overhead_pct",
}


def study_layers(doc: dict) -> dict:
    """Per-layer numbers of each study, median over the run's studies.
    Meters whose hook was not found are left out (reported absent)."""
    per_study = []
    for study in doc["studies"]:
        layers, timings = study["layers"], study["timings"]
        stages = timings.get("stages", {})
        m: dict = {}

        def meter(key, calls=None, seconds=None, units=None, rate=None):
            if key not in layers:
                return
            raw = layers[key]
            if calls:
                m[calls] = raw["calls"]
            if seconds:
                m[seconds] = raw["seconds"]
            if units:
                m[units] = raw["units"]
            if rate:
                m[rate] = ratio(raw["units"], raw["seconds"])

        meter("tree_fit", calls="mining.tree.fits", seconds="mining.tree.fit_s",
              units="mining.tree.nodes")
        meter("tree_split", calls="mining.tree.split_calls",
              seconds="mining.tree.split_s")
        meter("tree_evaluate", units="mining.tree.evaluate_rows",
              rate="mining.tree.evaluate_rows_per_s")
        meter("kmeans_fit", seconds="mining.kmeans.fit_s",
              units="mining.kmeans.iterations")
        meter("bayes_fit", seconds="mining.naive_bayes.fit_s")
        meter("threshold_build", calls="core.thresholds.builds",
              seconds="core.thresholds.build_s")
        if "cache_hits" in timings:
            hits, misses = timings["cache_hits"], timings["cache_misses"]
            m["parallel.cache.hits"] = hits
            m["parallel.cache.lookups"] = hits + misses
            m["parallel.cache.hit_ratio"] = ratio(hits, hits + misses)
        for short in ("phase1", "phase2", "bayes", "clustering"):
            found = [v for k, v in stages.items() if short in k]
            if len(found) == 1:
                m[f"parallel.stage.{short}_s"] = found[0]
        if stages:
            m["study.unattributed_s"] = study["wall_s"] - sum(stages.values())
        per_study.append(m)
    keys = set().union(*per_study)
    out = {k: median(m[k] for m in per_study if k in m) for k in keys}
    if doc["generate_s"]:
        out["roads.generate_s"] = median(doc["generate_s"])
    return out


# -- output ------------------------------------------------------------------------


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def emit(name: str, result: dict, trace: bool, spec: dict) -> dict:
    """Print every metric by name and unit, then return the contract's
    metric block (the BENCHMARK.json set for this mode)."""
    listed = spec["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    metrics = result["metrics"]
    print(f"== {name}: attempted {result['attempted']}, failed "
          f"{result['failed']}, kernel {result['kernel']}")
    for key in sorted(metrics):
        value = metrics[key]
        if value is None:
            continue
        print(f"  {key:38s} {value:14.4f} {units.get(key, _unit(key))}")
    for note in result.get("notes", []):
        print(f"  note: {note}")
    if not str(result["kernel"]).startswith("native"):
        print(f"  WARNING: numpy kernel fallback ({result['kernel']})")
    block = {}
    expected = result.get("expected", set())
    for entry in listed:
        value = metrics.get(entry["name"])
        if value is None and trace and entry["name"] not in expected:
            value = 0.0  # a layer this workload does not exercise
        if value is None:
            print(f"  WARNING: metric {entry['name']} absent", file=sys.stderr)
            continue
        block[entry["name"]] = {"value": value, "unit": entry["unit"]}
    for warning in result.get("warnings", []):
        print(f"  WARNING: {warning}", file=sys.stderr)
    return block


def _unit(key: str) -> str:
    """Unit of a metric that BENCHMARK.json does not list."""
    for suffix, unit in (("_per_s", "1/s"), ("_pct", "%"), ("_ms", "ms"),
                         ("_mb", "MB"), ("_s", "s"), ("_ratio", "ratio"),
                         ("_rate", "ratio")):
        if key.endswith(suffix):
            return unit
    return "count"


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None,
                        help="append one JSON record per workload (for compare.py)")
    args = parser.parse_args()
    signal.signal(signal.SIGTERM, _on_signal)

    try:
        require_program()
        spec = load_spec()
        WORK.mkdir(exist_ok=True)
        KERNEL_CACHE.mkdir(exist_ok=True)
        TMP.mkdir(exist_ok=True)
        # This process imports the package too (inputs, offline
        # reference): same kernel cache, temporary directory and BLAS
        # threads as the children, set before numpy is imported.
        os.environ.update(child_env())
        host = host_fingerprint()
        build = {"source": source_digest()}
        print(f"host  {json.dumps(host, sort_keys=True)}")
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        blocks, attempted, failed = {}, 0, 0
        for name in names:
            work = WORK / f"{name}-{args.seed}-{os.getpid()}"
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir()
            try:
                if name == "study":
                    result = run_study(args.seed, bool(args.trace), work)
                else:
                    result = run_serving(name, args.seed, args.seconds,
                                         bool(args.trace), work)
            finally:
                shutil.rmtree(work, ignore_errors=True)
            block = emit(name, result, bool(args.trace), spec)
            build["kernel"] = result["kernel"]
            print(f"build {json.dumps(build, sort_keys=True)}")
            attempted += result["attempted"]
            failed += result["failed"]
            blocks[name] = block
            if args.out is not None:
                with open(args.out, "a", encoding="utf-8") as handle:
                    handle.write(json.dumps({
                        "workload": name, "seed": args.seed,
                        "seconds": args.seconds, "trace": args.trace,
                        "host": host, "build": build,
                        "attempted": result["attempted"],
                        "failed": result["failed"],
                        "metrics": result["metrics"],
                    }) + "\n")
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    finally:
        for proc in list(_children):
            stop_group(proc)
    if len(blocks) == 1:
        metrics = next(iter(blocks.values()))
    else:
        metrics = {f"{w}/{k}": v for w, b in blocks.items() for k, v in b.items()}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
