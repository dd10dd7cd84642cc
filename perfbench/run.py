#!/usr/bin/env python3
"""emprops benchmark: one workload, one process, measured for a fixed time.

    python3 perfbench/run.py --workload protocol_rf --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; the program under test is imported from
its ``src/`` directory. The run generates its inputs from ``--seed``, sets
up several times (set-up time is the median), runs one untimed warm-up
iteration, then repeats the workload's iteration until ``--seconds`` have
passed. Every iteration's outputs are checked: SHA-256 digests against the
reference recorded for the seed (or, for a seed without one, against the
warm-up iteration), must-reject candidates against their expected error
codes, and predictions for finiteness.

With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` untraced and traced iterations alternate and it
carries the per-layer metrics. A detailed JSON report (metadata, every
iteration time, digests, failures, self time by layer) goes to
``.perfbench/results/`` in the checkout.
"""

from __future__ import annotations

import os

# One BLAS thread: the run is one process on a small machine, and a fixed
# thread count keeps floating-point results (and so the digests) stable.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 5
REFERENCES = HERE / "references.json"
EMPROPS_MODULES = (
    "emprops.errors", "emprops.rng", "emprops.molgraph", "emprops.molgraph.parser",
    "emprops.molgraph.rings", "emprops.molgraph.match", "emprops.descriptors",
    "emprops.dataset", "emprops.mtnn", "emprops.forest", "emprops.evaluation",
    "emprops.modelio", "emprops.pipeline", "emprops.cli",
)

END_TO_END = (
    ("setup_s", "s"),
    ("wall_ref", "ref"),
    ("peak_rss_mb", "MB"),
)

clock = time.perf_counter


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def load_references() -> dict:
    if not REFERENCES.is_file():
        return {}
    return json.loads(REFERENCES.read_text(encoding="utf-8"))["workloads"]


def import_program() -> dict:
    src = ROOT / "src"
    if not (src / "emprops" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no emprops sources under {src}; run from a checkout root")
    sys.path.insert(0, str(src))
    modules = {name: importlib.import_module(name) for name in EMPROPS_MODULES}
    origin = Path(modules["emprops.cli"].__file__).resolve()
    if src.resolve() not in origin.parents:
        raise SystemExit(f"perfbench: emprops imported from {origin}, not from {src}")
    return modules


IMPORT_PROBE = (
    "import sys, time\n"
    "start = time.perf_counter()\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import numpy, emprops.cli\n"
    "print(time.perf_counter() - start)\n"
)


def import_times(repeats: int = 3) -> list[tuple[float, float]]:
    """(seconds, seconds at reference speed) of importing numpy and emprops
    in fresh interpreters; the import in this process happens once, so it
    cannot be repeated here. The machine's speed is sampled in this process
    right before and after each child."""
    from calibrate import at_reference_speed, sample
    times = []
    for _ in range(repeats):
        before = [sample() for _ in range(5)]
        done = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(ROOT / "src")],
                              capture_output=True, text=True, check=True, timeout=120)
        after = [sample() for _ in range(5)]
        seconds = float(done.stdout.strip().splitlines()[-1])
        times.append((seconds, at_reference_speed(seconds, statistics.median(before + after))))
    return times


def blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, when it can be asked."""
    import ctypes
    import re
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    for path in sorted(set(re.findall(r"(/\S*openblas\S*\.so\S*)", maps))):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def source_digest() -> str:
    """SHA-256 over the program's source files, for checkouts without git."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def metadata() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": blas_threads(),
        "measurement": "process-level only: perf_counter wall time and getrusage peak RSS; "
                       "no CPU pinning, governor changes or cache drops",
    }


class Runner:
    """Runs one workload's iterations and keeps their checks' tally."""

    def __init__(self, workload, seed: int, modules: dict, work: Path, references: dict):
        import workloads
        self.wl = workload
        self.ctx = workloads.Context(seed=seed, work=work, modules=modules)
        self.reference = references.get(workload.name, {}).get(str(seed))
        self.expected: dict[str, str] | None = self.reference
        self.attempted = 0
        self.failures: list[str] = []
        self.notes: dict | None = None  # the first iteration's
        self.quality = None
        self.digests: dict[str, str] = {}

    def setup(self) -> tuple[float, float]:
        """Generate and write the inputs, then load them once; returns
        (seconds, seconds at reference speed). Repeating it rewrites the
        same bytes."""
        import workloads
        from calibrate import SpeedSampler, at_reference_speed
        sampler = SpeedSampler(interval=0.01)
        sampler.start()
        start = clock()
        try:
            workloads.generate(self.ctx)
            workloads.warm_up(self.ctx)
        finally:
            elapsed = clock() - start
            sampler.stop()
        busy = elapsed - sampler.spent
        if not sampler.samples:
            return elapsed, busy
        return elapsed, at_reference_speed(busy, statistics.median(sampler.samples))

    def iteration(self, trace_scope=None, sampler=None) -> float:
        """One timed iteration, then its untimed checks."""
        out = self.ctx.work / "out"
        if out.exists():
            shutil.rmtree(out)
        out.mkdir(parents=True)
        scope = trace_scope if trace_scope is not None else contextlib.nullcontext()
        raw = None
        if sampler is not None:
            sampler.start()
        start = clock()
        try:
            with scope:
                raw = self.wl.run_once(self.ctx, out)
        except Exception as exc:  # an unexpected error fails this iteration only
            self.failures.append(f"iteration raised {type(exc).__name__}: {exc}")
            self.attempted += 1
        finally:
            elapsed = clock() - start
            if sampler is not None:
                sampler.stop()
        if raw is not None:
            self.check(out, raw)
        return elapsed

    def check(self, out: Path, raw: dict) -> None:
        outcome = self.wl.inspect(self.ctx, out, raw)
        digests = {name: sha256(data) for name, data in sorted(outcome.artifacts.items())}
        failures = list(outcome.failures)
        if self.expected is None:
            self.expected = digests  # determinism: later iterations must match the first
        else:
            for name, digest in self.expected.items():
                if digests.get(name) != digest:
                    failures.append(f"digest mismatch for {name}")
        self.attempted += outcome.attempted
        self.failures.extend(failures)
        if self.notes is None:
            self.notes = outcome.notes
        if not math.isfinite(outcome.quality):
            self.failures.append("test_rmse_rel is not finite")
        elif self.quality is None:
            self.quality = outcome.quality
        elif outcome.quality != self.quality:
            self.failures.append("test_rmse_rel changed between iterations")
        self.digests = digests


class TraceScope:
    """Installs the instrumentation for the duration of a with-block."""

    def __init__(self, ctx, op: int):
        from spans import Tracer
        from instrument import Instrumentation
        self.ctx = ctx
        self.tracer = Tracer(op=op)
        self.instrumentation = Instrumentation(self.tracer, ctx.modules)

    def __enter__(self):
        self.instrumentation.install()
        self.ctx.tracer = self.tracer
        self._root = self.tracer.open("iteration")
        return self

    def __exit__(self, *exc):
        self.tracer.close(self._root)
        self.ctx.tracer = None
        self.instrumentation.remove()
        return False


def run(args) -> dict:
    modules = import_program()
    imports = import_times()
    sys.path.insert(0, str(HERE))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; "
                         f"choose from {sorted(workloads.WORKLOADS)}")
    work = ROOT / ".perfbench" / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    runner = Runner(workloads.WORKLOADS[args.workload], args.seed, modules, work,
                    load_references())
    try:
        return measure(runner, args, imports)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(runner: Runner, args, imports: list[tuple[float, float]]) -> dict:
    from calibrate import SpeedSampler
    from instrument import PER_LAYER, combine, iteration_metrics, self_time_by_layer

    # Set-up runs once before the first iteration and is repeated at spread
    # times through the run, so its median does not hang on one moment of a
    # machine whose speed drifts.
    setup_times = [runner.setup()]
    warm_up_s = runner.iteration()
    sampler = SpeedSampler()
    plain: list[float] = []
    relative: list[float] = []
    sample_medians: list[float] = []
    traced: list[float] = []
    per_iteration: list[dict] = []
    spans_kept = []
    started = clock()
    deadline = started + args.seconds
    while True:
        due = len(setup_times) * args.seconds / SETUP_REPEATS
        if len(setup_times) < SETUP_REPEATS and clock() - started >= due:
            setup_times.append(runner.setup())
        if args.trace:
            plain.append(runner.iteration())
            scope = TraceScope(runner.ctx, op=len(traced) + 1)
            traced.append(runner.iteration(scope))
            per_iteration.append(iteration_metrics(scope.tracer))
            if not spans_kept:
                spans_kept = scope.tracer.spans
                layers = self_time_by_layer(scope.tracer)
        else:
            plain.append(runner.iteration(sampler=sampler))
            value = sampler.relative(plain[-1])
            if value is not None:
                relative.append(value)
                sample_medians.append(statistics.median(sampler.samples))
        if clock() >= deadline:
            break
    while len(setup_times) < SETUP_REPEATS:
        setup_times.append(runner.setup())

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "metadata": metadata(),
        "reference": "recorded" if runner.reference else "first iteration (no reference for seed)",
        "import_s": [raw for raw, _ in imports],
        "import_at_reference_s": [ref for _, ref in imports],
        "setup_times_s": [raw for raw, _ in setup_times],
        "setup_at_reference_s": [ref for _, ref in setup_times],
        "warm_up_s": warm_up_s,
        "iteration_s": plain,
        "iteration_ref": relative,
        "sample_median_s": sample_medians,
        "quality_test_rmse_rel": runner.quality,
        "digests": runner.digests,
        "notes": runner.notes or {},
        "densities": runner.ctx.inputs.densities,
    }
    if args.trace:
        overhead = statistics.median(traced) - statistics.median(plain)
        quality = runner.quality if runner.quality is not None else -1.0
        metrics, disagreements = combine(per_iteration, overhead, quality)
        for item in disagreements:
            runner.failures.append(f"traced counts differ between iterations: {item}")
        result["traced_iteration_s"] = traced
        result["self_time_by_layer_s"] = layers
        units = dict(PER_LAYER)
        result["metrics"] = {name: {"value": value, "unit": units[name]}
                             for name, value in metrics.items()}
        spans_path = ROOT / ".perfbench" / "results" / \
            f"{args.workload}-{args.seed}-spans.jsonl"
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        with spans_path.open("w", encoding="utf-8") as handle:
            for span in spans_kept:
                handle.write(json.dumps(span.__dict__) + "\n")
        for phase, by_layer in layers.items():
            top = ", ".join(f"{k} {v:.3f}s" for k, v in list(by_layer.items())[:4])
            print(f"perfbench: largest self time by layer, {phase}: {top}", file=sys.stderr)
    else:
        if not relative:
            runner.failures.append("no speed samples were taken during any iteration")
        values = {
            "setup_s": statistics.median(ref for _, ref in imports)
                       + statistics.median(ref for _, ref in setup_times),
            # -1 marks a run without samples (a failure is recorded).
            "wall_ref": statistics.median(relative) if relative else -1.0,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        result["wall_s_median"] = statistics.median(plain)
        result["metrics"] = {name: {"value": values[name], "unit": unit}
                             for name, unit in END_TO_END}
    result["attempted"] = runner.attempted
    result["failed"] = len(runner.failures)
    result["failures"] = runner.failures[:50]
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    result = run(args)
    results_dir = ROOT / ".perfbench" / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    for failure in result["failures"][:10]:
        print(f"perfbench: FAILED {failure}", file=sys.stderr)
    line = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
