"""The ``study`` workload, run in a fresh interpreter.

Generates the paper-scale dataset of the golden seed several times,
spread over the run (the median is the set-up time), and runs the
paper's three-phase study
``CrashPronenessStudy(dataset, seed, repeats=2).run_full_study(n_jobs=1)``
with the run's seed ``--studies`` times, checking Tables 3/4/5.  Each
generation and each study is timed twice: wall time, and the CPU time
(user + system) of this process and its waited-for children.  With
``--hooks 1`` the layers' public functions are wrapped first, so the
same run also yields per-layer counts and busy times.  Writes one JSON
document to ``--out``.

    python3 perfbench/study_worker.py --seed 2011 --setups 5 --studies 3 --out r.json
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import ROOT, SRC, proc_status_kb  # noqa: E402
from hooks import Hooks  # noqa: E402

sys.path.insert(0, str(SRC))

GOLDEN_SEED = 2011
#: The dataset is the golden seed's at every run seed, as the served
#: model is: a dataset seed changes the study's work (in one process the
#: study of seed 302's dataset took 21.1 s and 20.5 s of CPU time, seed
#: 303's 18.9 s and 16.8 s), so seed-to-seed spread would measure the
#: dataset, not the program.  The run's seed is the study's own seed:
#: its splits, folds, model seeds and k-means starts.
DATASET_SEED = GOLDEN_SEED
GOLDEN_DIR = ROOT / "benchmarks" / "results"
#: Columns that may be undefined (PPV with no positive predictions).
MAY_BE_NAN = {"table3": {3}, "table4": {3}, "table5": {2}}


def tables(report) -> dict[str, dict[int, list]]:
    """Tables 3, 4 and 5 as threshold -> raw cell values."""
    out = {}
    for name, phase in (("table3", report.phase1), ("table4", report.phase2)):
        out[name] = {
            r.threshold: [
                r.r_squared, r.regression_leaves, r.npv, r.ppv,
                ("%", r.misclassification_rate), r.decision_leaves,
            ]
            for r in phase.results
        }
    out["table5"] = {
        r.threshold: [
            r.assessment.accuracy, r.assessment.npv, r.assessment.ppv,
            r.assessment.weighted_precision, r.assessment.weighted_recall,
            r.assessment.roc_area, r.assessment.kappa,
        ]
        for r in report.bayes
    }
    return out


def rendered(value) -> str:
    """A table cell as the checked-in goldens render it."""
    if isinstance(value, tuple):  # a percentage cell
        return f"{100 * value[1]:.2f}%"
    if isinstance(value, float):
        if math.isnan(value):
            return "-"
        if value == int(value):
            return str(int(value))
        return f"{value:.3f}"
    return str(value)


def digest(table_cells: dict) -> str:
    """sha256 over every cell at full precision."""
    h = hashlib.sha256()
    for name in sorted(table_cells):
        for threshold in sorted(table_cells[name]):
            for value in table_cells[name][threshold]:
                raw = value[1] if isinstance(value, tuple) else value
                h.update(f"{name}|{threshold}|{raw!r};".encode())
    return h.hexdigest()


def parse_golden(name: str) -> dict[int, list[str]]:
    lines = (GOLDEN_DIR / f"{name}.txt").read_text().strip().splitlines()
    rows = {}
    for line in lines[3:]:  # title, header, rule
        tokens = line.split()
        rows[int(tokens[1])] = tokens[2:]
    return rows


def check(table_cells: dict, seed: int) -> list[str]:
    """Mismatches of one study's tables (empty when correct).

    At the golden seed every rendered cell must equal the checked-in
    artefact.  At any other seed the tables must have the golden
    thresholds (the top ones may be missing) and only finite cells, NaN
    allowed only where a column can be undefined (PPV with no positive
    predictions).
    """
    problems = []
    for name, rows in table_cells.items():
        golden = parse_golden(name)
        # The study skips the top thresholds when no instance lies
        # above them; every threshold below must be there.
        thresholds = sorted(rows)
        expected = sorted(golden)
        if seed == GOLDEN_SEED or not thresholds:
            wanted = expected
        else:
            wanted = expected[: len(thresholds)]
        if thresholds != wanted:
            problems.append(f"{name}: thresholds {thresholds}")
            continue
        for threshold, values in rows.items():
            cells = [rendered(v) for v in values]
            if seed == GOLDEN_SEED:
                if cells != golden[threshold]:
                    problems.append(
                        f"{name} cp-{threshold}: {cells} != "
                        f"{golden[threshold]}"
                    )
            elif any(
                "inf" in c or (c == "-" and i not in MAY_BE_NAN[name])
                for i, c in enumerate(cells)
            ):
                problems.append(f"{name} cp-{threshold}: {cells}")
    return problems


def read_timings(report, warnings: list[str]) -> dict:
    """Stage walls and cache counters of ``StudyReport.timings``; empty
    (metrics reported absent) if a later change renamed them."""
    try:
        timings = report.timings
        return {
            "stages": {s.stage: s.wall_seconds for s in timings.stages},
            "cache_hits": timings.cache_hits,
            "cache_misses": timings.cache_misses,
        }
    except AttributeError as exc:
        warnings.append(f"StudyReport.timings unreadable: {exc}")
        return {}


def cpu_seconds() -> float:
    """User plus system CPU time of this process (all its threads) and
    of the children it has waited for."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def kernel_status() -> str:
    try:
        from repro.mining.tree.kernel import native_kernel_status
    except ImportError:
        return "unknown"
    return native_kernel_status()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--setups", type=int, default=3)
    parser.add_argument("--studies", type=int, default=1)
    parser.add_argument("--hooks", type=int, default=0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    from repro.core import CrashPronenessStudy
    from repro.roads import QDTMRSyntheticGenerator, paper_scale_config

    hooks = Hooks() if args.hooks else None
    warnings = hooks.warnings if hooks is not None else []
    if hooks is not None:
        hooks.install()

    setup, setup_cpu = [], []

    def generate(times: int):
        for _ in range(times):
            t0, c0 = time.perf_counter(), cpu_seconds()
            dataset = QDTMRSyntheticGenerator(paper_scale_config()).generate(
                seed=DATASET_SEED
            )
            setup.append(time.perf_counter() - t0)
            setup_cpu.append(cpu_seconds() - c0)
        return dataset

    # Generations go before, between and after the studies, so that a
    # slow spell of the host's CPU, which lasts seconds, meets only a
    # few of them and not the median.
    slots = [args.setups // (args.studies + 1)] * (args.studies + 1)
    for i in range(args.setups % (args.studies + 1)):
        slots[i] += 1
    dataset = generate(slots[0])
    studies = []
    for i in range(args.studies):
        if hooks is not None:
            hooks.reset_study_meters()
        t0, c0 = time.perf_counter(), cpu_seconds()
        report = CrashPronenessStudy(
            dataset, seed=args.seed, repeats=2
        ).run_full_study(n_jobs=1)
        wall = time.perf_counter() - t0
        cpu = cpu_seconds() - c0
        cells = tables(report)
        studies.append({
            "wall_s": wall,
            "cpu_s": cpu,
            "digest": digest(cells),
            "problems": check(cells, args.seed),
            "timings": read_timings(report, warnings),
            "layers": hooks.snapshot() if hooks is not None else {},
        })
        if slots[i + 1]:
            dataset = generate(slots[i + 1])
    digests = {s["digest"] for s in studies}
    if len(digests) > 1:
        for s in studies:
            s["problems"].append("tables differ between studies of one run")

    result = {
        "setup_s": setup,
        "setup_cpu_s": setup_cpu,
        "studies": studies,
        "peak_rss_mb": proc_status_kb(os.getpid(), "VmHWM") / 1024.0,
        "kernel": kernel_status(),
        "warnings": sorted(set(warnings)),
        "generate_s": hooks.generate_times if hooks is not None else [],
    }
    args.out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
