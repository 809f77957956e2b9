"""Per-layer meters for the study, attached from outside the package.

Each meter wraps a public function or method of one layer and counts
calls and busy seconds (outermost calls only, so recursion is not
double counted).  Nothing in ``src/`` is changed: the wrappers are
installed on the loaded modules, including every module that imported
the function by name.  A target that no longer exists (renamed by a
later change) is skipped with a warning and its metrics are reported
absent; the run itself still passes.
"""

from __future__ import annotations

import fnmatch
import functools
import sys
import time


class Meter:
    def __init__(self, after=None) -> None:
        self.after = after
        self.reset()

    def reset(self) -> None:
        self.calls = 0
        self.seconds = 0.0
        self.units = 0  # what ``after`` counts: nodes, iterations, rows
        self._depth = 0

    def wrap(self, fn):
        meter = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if meter._depth:
                return fn(*args, **kwargs)
            meter._depth += 1
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                meter.seconds += time.perf_counter() - t0
                meter.calls += 1
                meter._depth -= 1
            if meter.after is not None:
                meter.units += meter.after(args, result)
            return result

        return wrapper


def _rebind(original, replacement) -> None:
    """Point every loaded ``repro`` module's binding of ``original`` at
    ``replacement`` (covers ``from module import name``)."""
    for name, module in list(sys.modules.items()):
        if not name.startswith("repro") or module is None:
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


#: (meter, module, class, method) — a ``None`` class wraps every
#: module-level function whose name matches the pattern.
TARGETS = (
    ("tree_fit", "repro.mining.tree", "DecisionTreeClassifier", "fit"),
    ("tree_fit", "repro.mining.tree", "RegressionTree", "fit"),
    # The split searches grow_tree runs for every candidate node.
    ("tree_split", "repro.mining.tree.growth", None, "best_*split*"),
    ("tree_evaluate", "repro.mining.tree.compile", "TreePlan", "evaluate"),
    ("kmeans_fit", "repro.mining.kmeans", "KMeans", "fit"),
    ("bayes_fit", "repro.mining.naive_bayes", "NaiveBayesClassifier", "fit"),
    ("threshold_build", "repro.core.thresholds", None, "build_threshold_dataset"),
)


class Hooks:
    """The study's layer meters (see the README for what each feeds)."""

    def __init__(self) -> None:
        self.warnings: list[str] = []
        self.generate_times: list[float] = []
        self.installed: set[str] = set()
        self.meters = {
            "tree_fit": Meter(after=lambda a, r: int(getattr(r, "n_nodes", 0))),
            "tree_split": Meter(),
            "tree_evaluate": Meter(after=lambda a, r: _rows(a)),
            "kmeans_fit": Meter(
                after=lambda a, r: int(getattr(r, "n_iterations", 0))
            ),
            "bayes_fit": Meter(),
            "threshold_build": Meter(),
        }

    # -- installation -----------------------------------------------------
    def _module(self, name: str):
        try:
            __import__(name)
        except ImportError:
            return None
        return sys.modules[name]

    def _method(self, meter: str, module: str, cls: str, method: str) -> None:
        mod = self._module(module)
        target = getattr(mod, cls, None) if mod is not None else None
        fn = getattr(target, method, None) if target is not None else None
        if fn is None:
            self.warnings.append(f"hook {module}.{cls}.{method} not found")
            return
        setattr(target, method, self.meters[meter].wrap(fn))
        self.installed.add(meter)

    def _functions(self, meter: str, module: str, pattern: str) -> None:
        mod = self._module(module)
        names = sorted(
            n for n, v in vars(mod).items()
            if fnmatch.fnmatch(n, pattern) and callable(v)
        ) if mod is not None else []
        if not names:
            self.warnings.append(f"hook {module}.{pattern} not found")
            return
        for n in names:
            original = getattr(mod, n)
            _rebind(original, self.meters[meter].wrap(original))
        self.installed.add(meter)

    def install(self) -> None:
        for meter, module, owner, name in TARGETS:
            if owner is None:
                self._functions(meter, module, name)
            else:
                self._method(meter, module, owner, name)

        roads = self._module("repro.roads")
        generator = getattr(roads, "QDTMRSyntheticGenerator", None)
        if generator is None or not hasattr(generator, "generate"):
            self.warnings.append(
                "hook repro.roads.QDTMRSyntheticGenerator.generate not found"
            )
            return
        original = generator.generate
        times = self.generate_times

        @functools.wraps(original)
        def generate(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                times.append(time.perf_counter() - t0)

        generator.generate = generate

    # -- reading ---------------------------------------------------------
    def reset_study_meters(self) -> None:
        for meter in self.meters.values():
            meter.reset()

    def snapshot(self) -> dict:
        """Raw meter readings of the installed hooks only."""
        return {
            name: {"calls": m.calls, "seconds": m.seconds, "units": m.units}
            for name, m in self.meters.items()
            if name in self.installed
        }


def _rows(args) -> int:
    features = args[1] if len(args) > 1 else None
    return int(getattr(features, "n_rows", 0) or 0)
