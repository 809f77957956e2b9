"""The load generator: one process, at most two threads and two
keep-alive connections, driving a ``repro-study serve`` process.

The schedule comes from the package's public ``build_schedule`` with
the workload's own ``WorkloadProfile``; timing and bookkeeping are
done here, so every request keeps its raw outcome: when it was due,
sent and done, its status, its trace id and what it returned.  A
transport failure is an outcome with status 0, never an exception.

The run is: warm-up (closed loop, own seed stream; route workloads
also query every town pair once so the route store is warm), one
``GET /metrics`` snapshot, the measured window with no scrapes, and a
second snapshot.

    python3 perfbench/loadgen.py --spec spec.json --out outcomes.json
"""

from __future__ import annotations

import argparse
import hashlib
import http.client
import json
import resource
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import SRC, proc_cpu_seconds  # noqa: E402

sys.path.insert(0, str(SRC))

TRACE_HEADER = "X-Repro-Trace-Id"
#: Kinds whose responses carry scores checked against offline scoring.
SCORE_KINDS = ("score", "batch")


def _cpu_self() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


class Client:
    """One keep-alive connection that never raises on transport errors."""

    def __init__(self, host: str, port: int) -> None:
        self.host, self.port = host, port
        self.conn = self._connect()

    def _connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(self.host, self.port, timeout=30)

    def send(self, method: str, path: str, body: bytes | None):
        headers = {"Content-Type": "application/json"} if body else {}
        try:
            self.conn.request(method, path, body=body, headers=headers)
            response = self.conn.getresponse()
            data = response.read()
            return response.status, response.getheader(TRACE_HEADER), data
        except (OSError, http.client.HTTPException):
            self.conn.close()
            self.conn = self._connect()
            return 0, None, b""

    def get_json(self, path: str) -> dict:
        status, _, data = self.send("GET", path, None)
        if status != 200:
            raise RuntimeError(f"GET {path} returned {status}")
        return json.loads(data)

    def close(self) -> None:
        self.conn.close()


def _record(planned, due, sent, done, status, trace_id, data) -> list:
    """One raw outcome: [schedule index, kind, due, sent, done, status,
    trace id, payload, request], times in seconds from the window
    start.  The payload is the body of a scored 200 response, or a
    digest of any other body; route requests keep their request body,
    because repeats of one route query must answer byte for byte the
    same."""
    if status == 200 and planned.kind in SCORE_KINDS:
        payload = data.decode("utf-8")
    else:
        payload = hashlib.sha1(data).hexdigest()
    request = None if planned.kind in SCORE_KINDS else planned.body.decode()
    return [planned.index, planned.kind, due, sent, done, status,
            trace_id, payload, request]


def run_window(clients, schedule, seconds, open_loop) -> list:
    """Drive the schedule through the clients; returns the outcomes in
    send order."""
    lock = threading.Lock()
    tickets = iter(range(10**9))
    results: list[list] = [[] for _ in clients]
    t0 = time.perf_counter()
    deadline = t0 + seconds

    def worker(i: int) -> None:
        client, mine = clients[i], results[i]
        while True:
            with lock:
                ticket = next(tickets)
            if open_loop:
                if ticket >= len(schedule):
                    return
                planned = schedule[ticket]
                due = t0 + planned.offset
                wait = due - time.perf_counter()
                if wait > 0:
                    time.sleep(wait)
            else:
                if time.perf_counter() >= deadline:
                    return
                planned = schedule[ticket % len(schedule)]
                due = None
            sent = time.perf_counter()
            status, trace_id, data = client.send(
                planned.method, planned.path, planned.body
            )
            done = time.perf_counter()
            mine.append(_record(
                planned, None if due is None else due - t0, sent - t0,
                done - t0, status, trace_id, data,
            ))

    threads = [
        threading.Thread(target=worker, args=(i,), name=f"loadgen-{i}")
        for i in range(1, len(clients))
    ]
    for thread in threads:
        thread.start()
    worker(0)
    for thread in threads:
        thread.join()
    outcomes = [o for chunk in results for o in chunk]
    outcomes.sort(key=lambda o: o[3])
    return outcomes


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--spec", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    spec = json.loads(args.spec.read_text())

    from repro.loadtest import Operation, WorkloadProfile, build_schedule

    rows = json.loads(Path(spec["rows_file"]).read_text())
    pairs = [tuple(p) for p in spec["pairs"]] or None
    profile = WorkloadProfile(
        spec["workload"],
        tuple(Operation(kind, weight) for kind, weight in spec["mix"]),
    )
    open_loop = spec["rate"] > 0

    def schedule(n: int, seed: int, arrival: str):
        return build_schedule(
            profile, rows, n, seed=seed, batch_size=spec["batch_size"],
            arrival=arrival, rate=spec["rate"], pairs=pairs,
        )

    if open_loop:
        n = max(1, round(spec["rate"] * spec["seconds"]))
        measured = schedule(n, spec["seed"], "poisson")
    else:
        measured = schedule(spec["closed_schedule"], spec["seed"], "closed")
    warm = schedule(spec["closed_schedule"], spec["seed"] + 101, "closed")

    clients = [Client(spec["host"], spec["port"]) for _ in range(spec["clients"])]
    try:
        warm_outcomes = run_window(
            clients, warm, spec["warmup_s"], open_loop=False
        )
        warm_failed = sum(1 for o in warm_outcomes if o[5] != 200)
        for origin, dest in pairs or ():
            for path, extra in (("/v1/route/score", {}),
                                ("/v1/route/safest", {"k": 3})):
                body = json.dumps({"from": origin, "to": dest, **extra})
                status, _, _ = clients[0].send("POST", path, body.encode())
                warm_failed += status != 200

        before = clients[0].get_json("/metrics")
        server_cpu = proc_cpu_seconds(spec["server_pid"])
        own_cpu = _cpu_self()
        outcomes = run_window(clients, measured, spec["seconds"], open_loop)
        own_cpu = _cpu_self() - own_cpu
        server_cpu = proc_cpu_seconds(spec["server_pid"]) - server_cpu
        after = clients[0].get_json("/metrics")
    finally:
        for client in clients:
            client.close()

    rows_of = {p.index: list(p.row_indices) for p in measured
               if p.kind in SCORE_KINDS}
    args.out.write_text(json.dumps({
        "outcomes": outcomes,
        "row_indices": {str(k): v for k, v in rows_of.items()},
        "warmup_failed": warm_failed,
        "before": before,
        "after": after,
        "server_cpu_s": server_cpu,
        "loadgen_cpu_s": own_cpu,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
