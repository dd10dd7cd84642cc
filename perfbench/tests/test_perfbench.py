"""Tests of the benchmark itself (not of emprops).

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import ast
import importlib
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import calibrate  # noqa: E402
import gen  # noqa: E402
import instrument  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def modules():
    return {name: importlib.import_module(name) for name in run.EMPROPS_MODULES}


# ---------------------------------------------------------------------------
# Input generator
# ---------------------------------------------------------------------------

def test_same_seed_same_bytes_and_other_seed_other_bytes():
    first = gen.make_inputs(7, 60, 80)
    again = gen.make_inputs(7, 60, 80)
    other = gen.make_inputs(8, 60, 80)
    assert first.dataset_csv == again.dataset_csv
    assert first.library_csv == again.library_csv
    assert first.expectations == again.expectations
    assert first.dataset_csv != other.dataset_csv
    assert first.library_csv != other.library_csv


def test_written_inputs_are_byte_identical(tmp_path):
    a = gen.write_inputs(gen.make_inputs(3, 40, 30), tmp_path / "a")
    b = gen.write_inputs(gen.make_inputs(3, 40, 30), tmp_path / "b")
    for key in a:
        assert a[key].read_bytes() == b[key].read_bytes()


def test_generator_does_not_import_emprops():
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import gen; "
            "gen.make_inputs(1, 40, 30); "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'emprops'))")
    out = subprocess.run([sys.executable, "-c", code, str(BENCH)], capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "[]"
    tree = ast.parse((BENCH / "gen.py").read_text())
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names}
    imported |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert not any(name.split(".")[0] == "emprops" for name in imported)


def test_channel_densities_and_minimum_counts():
    inputs = gen.make_inputs(5, workloads.N_MATERIALS, 10)
    for (prop, fidelity, share) in gen.CHANNELS:
        assert inputs.densities[f"{prop}:{fidelity}"] == pytest.approx(share, abs=0.01)
    exp = [d for k, d in inputs.densities.items() if k.endswith(":exp")]
    calc = [d for k, d in inputs.densities.items() if k.endswith(":calc")]
    assert max(exp) < min(calc)
    # every channel has enough materials for outer and inner folds
    smallest = min(inputs.densities.values()) * workloads.N_MATERIALS
    assert smallest * (workloads.FOLDS - 1) / workloads.FOLDS >= 2 * workloads.INNER_FOLDS


def test_grammar_is_valid_and_anchor_vocabulary_covers_candidates(modules):
    parse = modules["emprops.molgraph"].parse_smiles
    descriptors = modules["emprops.descriptors"]
    errors = modules["emprops.errors"]
    anchor_graphs = [parse(m.smiles) for m in gen.anchors()]
    schema = descriptors.fit_schema(anchor_graphs, include_density=False)
    for seed in (1, 2):
        inputs = gen.make_inputs(seed, 40, 200)
        for line in inputs.library_csv.splitlines()[1:]:
            material, smiles = line.split(",", 1)
            expected = inputs.expectations[material].get("reject")
            try:
                descriptors.featurize(parse(smiles), schema)
                got = None
            except errors.ToolkitError as exc:
                got = exc.code
            assert got == expected, (smiles, got, expected)


# ---------------------------------------------------------------------------
# Output correctness
# ---------------------------------------------------------------------------

class _FakeWorkload:
    name = "fake"

    def __init__(self, payload: bytes):
        self.payload = payload

    def inspect(self, ctx, out, raw):
        return workloads.Outcome({"report.csv": self.payload}, 1, [], 0.5)


def test_one_byte_change_fails_the_digest_check(tmp_path):
    payload = b"model,channel,mean_rmse\nST-RF,det_velocity:exp,0.25\n"
    wl = _FakeWorkload(payload)
    runner = run.Runner(wl, 1, {}, tmp_path, references={})
    runner.check(tmp_path, {})
    runner.check(tmp_path, {})
    assert runner.failures == []
    wl.payload = payload[:-2] + b"6\n"
    runner.check(tmp_path, {})
    assert runner.failures == ["digest mismatch for report.csv"]


def test_recorded_reference_is_enforced(tmp_path):
    payload = b"screening\n"
    reference = {"fake": {"4": {"report.csv": run.sha256(payload + b"x")}}}
    runner = run.Runner(_FakeWorkload(payload), 4, {}, tmp_path, references=reference)
    runner.check(tmp_path, {})
    assert runner.failures == ["digest mismatch for report.csv"]


def test_nan_leaf_detection_walks_tree_rows():
    nan = float("nan")
    # root splits on feature 0 at 1.0; right child is an empty (NaN) leaf
    tree = [[0.0, 1.0, 2.0, 1.0, 2.0], [-1.0, 0.0, 3.0, -1.0, -1.0], [-1.0, 0.0, nan, -1.0, -1.0]]
    assert not workloads.reaches_nan_leaf([tree], [0.5])
    assert workloads.reaches_nan_leaf([tree], [1.5])


def test_speed_sampler_samples_during_work_and_restores_the_handler():
    import signal
    previous = signal.getsignal(signal.SIGALRM)
    sampler = calibrate.SpeedSampler(interval=0.01)
    sampler.start()
    start = calibrate._clock()
    while calibrate._clock() - start < 0.2:
        calibrate.kernel(1000)
    elapsed = calibrate._clock() - start
    sampler.stop()
    assert signal.getsignal(signal.SIGALRM) is previous
    assert len(sampler.samples) >= 5
    assert 0 < sampler.spent < elapsed
    assert sampler.relative(elapsed) > 0


# ---------------------------------------------------------------------------
# Tracing
# ---------------------------------------------------------------------------

def test_self_time_of_a_hand_built_span_tree():
    S = spans.Span
    tree = [
        S(1, None, 1, "iteration", 0.0, 10.0),
        S(2, 1, 1, "evaluation.run_protocol", 1.0, 9.0),
        S(3, 2, 1, "mtnn.train", 2.0, 5.0),
        S(4, 3, 1, "mtnn.gradients", 2.5, 3.0),
        S(5, 3, 1, "mtnn.gradients", 3.5, 4.5),
        S(6, 2, 1, "forest.fit", 5.0, 8.0),
    ]
    self_s = spans.self_times(tree)
    assert self_s == {1: 2.0, 2: 2.0, 3: 1.5, 4: 0.5, 5: 1.0, 6: 3.0}
    assert sum(self_s.values()) == 10.0


def test_online_self_time_matches_span_records(monkeypatch):
    ticks = iter(float(t) for t in range(100))
    monkeypatch.setattr(spans, "_clock", lambda: next(ticks))
    monkeypatch.setattr(spans, "HOT", frozenset())  # keep every span record
    tracer = spans.Tracer()
    root = tracer.open("iteration")          # t=0
    a = tracer.open("mtnn.train")            # t=1
    b = tracer.open("mtnn.gradients")        # t=2
    tracer.close(b)                          # t=3
    with tracer.phase("screen"):             # t=4
        c = tracer.open("pipeline.load")     # t=5
        tracer.close(c)                      # t=6
    tracer.close(a)                          # phase closes t=7, a closes t=8
    tracer.close(root)                       # t=9
    offline = spans.self_times(tracer.spans)
    by_name = {s.name: offline[s.span_id] for s in tracer.spans}
    for name, stat in tracer.stats.items():
        if name in by_name:
            assert stat.self_time == pytest.approx(by_name[name]), name
    assert len(by_name) == len(tracer.stats) == 5
    assert tracer.stats["mtnn.gradients"].self_time == 1.0
    assert tracer.stats["mtnn.train"].self_time == 7.0 - 1.0 - 3.0
    assert tracer.phase_self[("screen", "pipeline.load")] == 1.0


def test_instrumentation_restores_every_attribute(modules):
    before = {name: dict(vars(module)) for name, module in modules.items()}
    rng_before = dict(vars(modules["emprops.rng"].SplitMix64))
    tracer = spans.Tracer()
    inst = instrument.Instrumentation(tracer, modules)
    inst.install()
    assert modules["emprops.dataset"].parse_smiles is not before["emprops.dataset"]["parse_smiles"]
    assert modules["emprops.pipeline"].parse_smiles is modules["emprops.molgraph"].parse_smiles
    inst.remove()
    for name, module in modules.items():
        after = vars(module)
        for attr, value in before[name].items():
            assert after[attr] is value, f"{name}.{attr}"
    assert dict(vars(modules["emprops.rng"].SplitMix64)) == rng_before


def test_two_traced_runs_give_identical_counts(modules, tmp_path):
    counts = []
    for attempt in range(2):
        runner = run.Runner(workloads.WORKLOADS["protocol_nn"], 11, modules,
                            tmp_path / str(attempt), references={})
        workloads.generate(runner.ctx)
        scope = run.TraceScope(runner.ctx, op=1)
        runner.iteration(scope)
        assert runner.failures == []
        metrics = instrument.iteration_metrics(scope.tracer)
        counts.append({name: metrics[name] for name in instrument.COUNT_METRICS})
    assert counts[0] == counts[1]
    assert counts[0]["rng.draws"] > 0 and counts[0]["mtnn.steps"] > 0
    assert counts[0]["evaluation.decisive_fit_ratio"] == 1 / (1 + workloads.INNER_FOLDS)
