"""Shared helpers of the benchmark: paths, statistics, fingerprints and
child-process hygiene.

Everything here is plain standard library so that the orchestrator,
the study worker and the load generator can share it without pulling
the package under test into a process that does not need it.
"""

from __future__ import annotations

import hashlib
import math
import os
import platform
import signal
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
#: The native tree kernel is compiled on first use; keep its cache, and
#: the compiler's and every child's temporary files, in the checkout so
#: the benchmark never writes outside it.
KERNEL_CACHE = WORK / "kernel"
TMP = WORK / "tmp"


class BenchError(Exception):
    """The benchmark cannot run here (missing program, dead server,
    broken invariant); no result may be printed."""


def child_env() -> dict[str, str]:
    """Environment of every child process: the package from ``src``,
    the kernel cache and temporary files inside the checkout, and one
    BLAS thread.  The
    study runs serially and the server shares two cores with the load
    generator; BLAS worker threads would make both measure the thread
    scheduler (on a 2-core host they made the study slower and noisier)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["REPRO_KERNEL_CACHE_DIR"] = str(KERNEL_CACHE)
    env["TMPDIR"] = str(TMP)
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    return env


def require_program() -> None:
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(
            f"the program under test is missing: no package at "
            f"{SRC / 'repro'} (run from a full checkout)"
        )


# -- statistics ----------------------------------------------------------


def percentile(values, q: float) -> float:
    """Nearest-rank percentile; 0.0 for an empty sample."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[min(rank, len(ordered)) - 1])


def median(values) -> float:
    ordered = sorted(values)
    if not ordered:
        return 0.0
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


# -- fingerprint ----------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def host_fingerprint() -> dict:
    """What makes two runs comparable: the machine and the interpreter
    stack.  Nothing that changes with the code under test belongs
    here (see :func:`source_digest`)."""
    import numpy
    import scipy

    host = {
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
    }
    host["id"] = hashlib.sha256(
        repr(sorted(host.items())).encode()
    ).hexdigest()[:16]
    return host


def source_digest() -> str:
    """Digest of the package sources: names the build, not the host."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


# -- processes ------------------------------------------------------------


def proc_status_kb(pid: int, field: str) -> float:
    """One ``kB`` field (``VmHWM``, ``VmRSS``) of ``/proc/<pid>/status``."""
    with open(f"/proc/{pid}/status", encoding="utf-8") as handle:
        for line in handle:
            if line.startswith(field + ":"):
                return float(line.split()[1])
    raise BenchError(f"/proc/{pid}/status has no {field}")


def proc_cpu_seconds(pid: int) -> float:
    """utime + stime of a process (all its threads), in seconds."""
    with open(f"/proc/{pid}/stat", encoding="utf-8") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    ticks = os.sysconf("SC_CLK_TCK")
    return (int(fields[11]) + int(fields[12])) / ticks


def stop_group(proc: subprocess.Popen, timeout: float = 10.0) -> None:
    """Terminate a child started with ``start_new_session=True`` and
    everything in its process group, then reap it."""
    if proc.poll() is None:
        try:
            os.killpg(proc.pid, signal.SIGTERM)
        except ProcessLookupError:
            pass
        try:
            proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            pass
    # The group may outlive its leader (pool workers); kill what is left.
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    if proc.poll() is None:
        proc.wait(timeout=timeout)


def tail(path: Path, n_bytes: int = 2000) -> str:
    try:
        data = path.read_bytes()
    except OSError:
        return ""
    return data[-n_bytes:].decode("utf-8", "replace")


def run_python(
    script: Path, args: list[str], log: Path, timeout: float
) -> None:
    """Run one benchmark helper in a fresh interpreter, in its own
    process group, and wait for it; its stderr goes to ``log``."""
    with open(log, "wb") as err:
        proc = subprocess.Popen(
            [sys.executable, str(script), *args],
            cwd=ROOT,
            env=child_env(),
            stdout=subprocess.DEVNULL,
            stderr=err,
            start_new_session=True,
        )
        try:
            code = proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            code = None
        finally:
            stop_group(proc)
    if code != 0:
        raise BenchError(
            f"{script.name} {'timed out' if code is None else f'exited {code}'}"
            f"; its stderr ends with:\n{tail(log)}"
        )
