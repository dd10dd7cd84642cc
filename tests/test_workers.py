"""Jobs split across forked processes: workers.run, the engines and
perception on it.

The CPU count is set by patching os.sched_getaffinity, so a split into
two or three parts runs on any machine with os.fork. Each engine must
give the same bytes whatever the split, including the one-part run that
forks nothing.
"""

import contextlib
import io
import math
import os
import signal
import tempfile
import threading
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from emprops import cli, descriptors, pipeline, workers
from emprops import dataset as ds
from emprops import forest as rf
from emprops import mtnn
from emprops.errors import (
    DuplicateRecord,
    InvalidConfig,
    NonFiniteLoss,
    NonPositiveForLog,
    ParseFailure,
    ToolkitError,
    UnknownChannel,
)
from emprops.molgraph import parse_smiles
from conftest import CORPUS
from test_forest import mixed_jobs, tree_bytes

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")

PARTS = [2, 3]  # forced part counts, against the one-part run
COUNTS = [1, 2, 3, 7]  # jobs per engine call


@pytest.fixture
def cpus(monkeypatch):
    """cpus(n) makes the affinity mask hold n CPUs and perception split at
    any job count; returns the list that records each os.fork the parent
    makes."""
    forks = []
    monkeypatch.setattr(ds, "PERCEPTION_PART", 1)
    fork = os.fork

    def counting_fork():
        forks.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counting_fork)

    def set_cpus(n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))
        forks.clear()
        return forks

    return set_cpus


@contextmanager
def deadline(seconds):
    """Raise TimeoutError in this process if the block outlasts seconds."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def assert_all_reaped():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# ---------------------------------------------------------------------------
# workers.run
# ---------------------------------------------------------------------------

MAIN_PID = os.getpid()


def in_child():
    return os.getpid() != MAIN_PID


@pytest.mark.parametrize("parts", [1, *PARTS])
@pytest.mark.parametrize("count", [0, 1, 2, 3, 5, 8])
def test_results_come_back_in_job_order(cpus, parts, count):
    forks = cpus(parts)
    jobs = list(range(count))
    assert workers.run(lambda part: [(job, job * job) for job in part], jobs) == \
        [(job, job * job) for job in jobs]
    assert len(forks) == max(0, min(parts, count) - 1)


@pytest.mark.parametrize("count, min_part, parts", [
    (7, 3, 2), (6, 3, 2), (5, 3, 1), (9, 3, 3), (40, 3, 3), (1, 1, 1), (0, 2, 1)])
def test_a_part_gets_min_part_jobs_or_more(cpus, count, min_part, parts):
    forks = cpus(3)
    jobs = list(range(count))
    assert workers.run(lambda part: [-job for job in part], jobs, min_part=min_part) == \
        [-job for job in jobs]
    assert len(forks) == parts - 1


def test_an_exception_in_a_child_part_comes_back_with_its_type_and_message(cpus):
    cpus(2)

    def work(part):
        if in_child():
            raise InvalidConfig(f"jobs {list(part)} refused")
        return part

    with pytest.raises(InvalidConfig) as caught:
        workers.run(work, [0, 1, 2, 3])
    assert str(caught.value) == "jobs [1, 3] refused"
    if hasattr(caught.value, "add_note"):  # the child's traceback rides along
        assert "in a worker process" in caught.value.__notes__[0]


def test_an_exception_that_cannot_be_pickled_is_named(cpus):
    cpus(2)

    class TwoArguments(Exception):
        def __init__(self, row, reason):
            super().__init__(f"row {row}: {reason}")

    def work(part):
        if in_child():
            raise TwoArguments(3, "bad")
        return part

    with pytest.raises(workers.WorkerDied, match="TwoArguments: row 3: bad"):
        workers.run(work, [0, 1])


@pytest.mark.parametrize("death", ["exit", "kill"])
def test_a_child_that_dies_without_a_result_raises_and_does_not_hang(cpus, death):
    cpus(3)

    def work(part):
        if in_child() and part == [2]:
            if death == "exit":
                os._exit(3)
            os.kill(os.getpid(), signal.SIGKILL)
        return part

    code = 3 if death == "exit" else -signal.SIGKILL
    with deadline(30), pytest.raises(workers.WorkerDied, match=f"exit code {code} "):
        workers.run(work, [0, 1, 2])
    assert_all_reaped()


@pytest.mark.parametrize("error", [ValueError, KeyboardInterrupt])
def test_an_exception_in_the_parents_part_kills_and_reaps_the_child(cpus, error):
    cpus(2)

    def work(part):
        if in_child():
            time.sleep(60)
            return part
        raise error("parent part failed")

    started = time.monotonic()
    with deadline(30), pytest.raises(error, match="parent part failed"):
        workers.run(work, [0, 1])
    assert time.monotonic() - started < 30
    assert_all_reaped()


def test_one_cpu_never_forks(monkeypatch):
    def refuse():
        raise AssertionError("os.fork called")

    monkeypatch.setattr(os, "fork", refuse)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {5})
    assert workers.run(lambda part: [job + 1 for job in part], [1, 2, 3]) == [2, 3, 4]
    monkeypatch.delattr(os, "sched_getaffinity")
    assert workers.run(lambda part: [job + 1 for job in part], [1, 2, 3]) == [2, 3, 4]


def test_a_process_with_another_thread_never_forks(cpus):
    forks = cpus(2)
    release = threading.Event()
    thread = threading.Thread(target=release.wait, args=(30,))
    thread.start()
    try:
        assert workers.run(lambda part: [job + 1 for job in part], [1, 2, 3]) == [2, 3, 4]
    finally:
        release.set()
        thread.join(30)
    assert not thread.is_alive()
    assert not forks


# ---------------------------------------------------------------------------
# Engines: split against one part, byte for byte
# ---------------------------------------------------------------------------

def forest_bytes(forests):
    return [(forest.config, forest.n_features, tree_bytes(forest.trees)) for forest in forests]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # empty children of adjacent floats
@pytest.mark.parametrize("count", COUNTS)
def test_fit_forests_is_the_same_split_or_not(cpus, count):
    x, y, jobs = mixed_jobs()
    jobs = jobs[:count]
    cpus(1)
    serial = forest_bytes(rf.fit_forests(x, y, jobs))
    for parts in PARTS:
        forks = cpus(parts)
        assert forest_bytes(rf.fit_forests(x, y, jobs)) == serial
        assert len(forks) == min(parts, count) - 1


def network_job(i):
    """Job i of a mixed list: three architectures (one with a selector),
    so a part holds several stacks; validation on every other job; a
    1e300 feature row in every fourth job, which diverges."""
    rng = np.random.default_rng(500 + i)
    n = 6 + 5 * (i % 4)
    selector_dim = 2 if i % 3 == 2 else 0
    x, y = rng.normal(size=(n, 3)), rng.normal(size=n)
    selector = np.eye(2)[rng.integers(0, 2, size=n)] if selector_dim else None
    if i % 4 == 1:
        x[0] = (1e300, 0.0, 0.0)
    val = None
    if i % 2 == 0:
        val = (rng.normal(size=(5, 3)),
               np.eye(2)[rng.integers(0, 2, size=5)] if selector_dim else None,
               rng.normal(size=5))
    hidden = [(4,), (3, 2), (4,)][i % 3]
    net = mtnn.init_network(mtnn.MTNetConfig(3, selector_dim, hidden, 1, seed=i))
    config = mtnn.TrainConfig(learning_rate=0.05, batch_size=4, max_epochs=12, patience=2,
                              seed=100 + i)
    return mtnn.TrainJob(net, x, selector, y, config, val)


def network_bytes(jobs, results):
    out = []
    for job, result in zip(jobs, results):
        if isinstance(result, NonFiniteLoss):
            outcome = str(result)
        else:
            assert (result.net is job.net) == (job.val is None)
            assert np.shares_memory(result.net.weights[0], result.net.params)
            outcome = (result.net.params.tobytes(), result.history, result.best_epoch)
        out.append((outcome, job.net.params.tobytes()))
    return out


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
@pytest.mark.parametrize("count", COUNTS)
def test_train_many_is_the_same_split_or_not(cpus, count):
    cpus(1)
    jobs = [network_job(i) for i in range(count)]
    serial = network_bytes(jobs, mtnn.train_many(jobs))
    if count == COUNTS[-1]:
        assert sum(isinstance(outcome, str) for outcome, _ in serial) == 2  # jobs 1 and 5
    for parts in PARTS:
        forks = cpus(parts)
        jobs = [network_job(i) for i in range(count)]
        assert network_bytes(jobs, mtnn.train_many(jobs)) == serial
        assert len(forks) == min(parts, count) - 1


def test_train_many_checks_every_job_before_any_trains(cpus):
    """Job 1 (a child's part of two) has an empty validation batch and job
    2 (the parent's part) an empty training batch: job order decides."""
    forks = cpus(2)
    jobs = [network_job(i) for i in range(4)]
    one, two = jobs[1], jobs[2]
    jobs[1] = mtnn.TrainJob(one.net, one.features, None, one.targets, one.config,
                            (one.features[:0], None, one.targets[:0]))
    jobs[2] = mtnn.TrainJob(two.net, two.features[:0], two.selector[:0], two.targets[:0],
                            two.config, two.val)
    before = [job.net.params.copy() for job in jobs]
    with pytest.raises(InvalidConfig, match="^empty validation batch$"):
        mtnn.train_many(jobs)
    assert not forks
    assert all((job.net.params == params).all() for job, params in zip(jobs, before))


# ---------------------------------------------------------------------------
# Perception in parts: the same outcomes as one part, and the first error
# of the row-by-row reader it replaced
# ---------------------------------------------------------------------------

# every CORPUS molecule, a repeat, a multi-fragment one, one whose fixed
# block divides by zero, and three that do not parse
PERCEIVED_SMILES = [*CORPUS.values(), "CC", "CC.O", "FF", "C1CC", "Br", "C(1CC1)"]


def outcome_bits(outcome):
    """A perception's exact contents, or an error's code and message."""
    if isinstance(outcome, ToolkitError):
        return outcome.code, str(outcome)
    fixed = outcome.fixed
    fixed = outcome_bits(fixed) if isinstance(fixed, ToolkitError) else repr(fixed)
    return fixed, tuple(outcome.bond_keys.items())


def test_perceive_molecules_is_the_same_split_or_not(cpus):
    molecules = [ds.Molecule(f"M{i}", smiles, None, i + 1)
                 for i, smiles in enumerate(PERCEIVED_SMILES)]
    forks = cpus(1)
    serial = [outcome_bits(outcome) for outcome in ds.perceive_molecules(molecules)]
    assert not forks
    expected = []
    for molecule in molecules:
        try:
            expected.append(outcome_bits(descriptors.perceive(parse_smiles(molecule.smiles))))
        except ToolkitError as exc:
            expected.append(("ParseFailure", f"row {molecule.row}: SMILES "
                                             f"{molecule.smiles!r}: {exc}"))
    assert serial == expected
    assert serial[1] == serial[len(CORPUS)]  # ethane and its repeat
    for parts in PARTS:
        forks = cpus(parts)
        assert [outcome_bits(o) for o in ds.perceive_molecules(molecules)] == serial
        assert len(forks) == parts - 1


@pytest.mark.parametrize("parts", [1, *PARTS])
def test_perceive_molecules_parses_all_and_perceives_the_wanted(cpus, parts):
    """A molecule whose material is not wanted is parsed, so its SMILES can
    fail, but not perceived; a SMILES it shares with a wanted one is
    perceived for that one."""
    cpus(parts)
    molecules = [ds.Molecule(f"M{i}", smiles, None, i + 1)
                 for i, smiles in enumerate(PERCEIVED_SMILES)]
    wanted = {"M1", "M3", f"M{len(CORPUS)}", f"M{len(PERCEIVED_SMILES) - 2}"}
    everything = ds.perceive_molecules(molecules)
    outcomes = ds.perceive_molecules(molecules, wanted)
    for molecule, whole, outcome in zip(molecules, everything, outcomes):
        if isinstance(whole, ParseFailure) or molecule.material_id in wanted:
            assert outcome_bits(outcome) == outcome_bits(whole)
        else:
            assert outcome is None
    assert [outcome is None for outcome in ds.perceive_molecules(molecules, ())] == \
        [not isinstance(whole, ParseFailure) for whole in everything]


def test_perception_of_a_few_molecules_is_not_split(monkeypatch):
    """Below two parts of PERCEPTION_PART distinct SMILES, a fork would cost
    more than the part saves, so nothing is forked."""
    forks = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    smiles = [f"C{'C' * i}O" for i in range(2 * ds.PERCEPTION_PART)]
    few = [ds.Molecule(f"M{i}", text, None, i + 1) for i, text in enumerate(smiles[:-1])]
    ds.perceive_molecules(few + few)  # repeats are one job
    assert not forks
    ds.perceive_molecules([*few, ds.Molecule("X", smiles[-1], None, len(smiles))])
    assert len(forks) == 1


def write_records(path, smiles_list):
    lines = ["material_id,smiles,property,fidelity,value,density"]
    for i, smiles in enumerate(smiles_list):
        lines.append(f"M{i:02d},{smiles},det_velocity,calc,{7 + i / 10},{1 + i / 100}")
        lines.append(f"M{i:02d},{smiles},impact_h50,exp,{20 + i},{1 + i / 100}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def design_bits(data, include_density):
    _, schema, design = ds.build_design(data, 6, include_density)
    return (schema, design.features.tobytes(), design.channel_idx.tobytes(),
            design.targets.tobytes(), design.material_ids,
            {m: outcome_bits(p) for m, p in data.perceptions.items()})


@pytest.mark.parametrize("include_density", [False, True])
def test_load_records_and_the_design_are_the_same_split_or_not(cpus, tmp_path,
                                                               include_density):
    path = write_records(tmp_path / "data.csv", [*CORPUS.values(), "CC", "CCO"])
    cpus(1)
    serial = design_bits(ds.load_records(path, ds.default_registry(), subset_id=6),
                         include_density)
    for parts in PARTS:
        forks = cpus(parts)
        assert design_bits(ds.load_records(path, ds.default_registry(), subset_id=6),
                           include_density) == serial
        assert len(forks) == parts - 1


@pytest.mark.parametrize("bad", ["C1CC", "CC.O", "FF"])
def test_load_records_errors_are_the_same_split_or_not(cpus, tmp_path, bad):
    """A SMILES that does not parse fails load_records with its row; one
    that parses but cannot be featurized fails build_design."""
    smiles_list = [*CORPUS.values()]
    smiles_list.insert(7, bad)
    path = write_records(tmp_path / "data.csv", smiles_list)
    outcomes = []
    for parts in [1, *PARTS]:
        cpus(parts)
        try:
            design_bits(ds.load_records(path, ds.default_registry(), subset_id=6), False)
        except ToolkitError as exc:
            outcomes.append(outcome_bits(exc))
    assert len(outcomes) == 1 + len(PARTS) and len(set(outcomes)) == 1
    assert outcomes[0][0] == {"C1CC": "ParseFailure", "CC.O": "MultiFragment",
                              "FF": "ZeroDenominator"}[bad]
    if bad == "C1CC":
        assert outcomes[0][1].startswith("row 15: SMILES 'C1CC': ")


def oracle_parse(molecule):
    """A molecule's graph, or the ParseFailure for its row."""
    try:
        return parse_smiles(molecule.smiles)
    except ToolkitError as exc:
        raise ParseFailure(molecule.row, f"SMILES {molecule.smiles!r}: {exc}") from exc


def oracle_load_records(path, registry):
    """The row-by-row reader that load_records replaced: each material's
    SMILES is parsed at its first row, between the row's value checks and
    its log check. Returns the records and the graphs."""
    graphs, grouped = {}, {}
    for row, molecule in ds._csv_molecules(path, ds.CSV_COLUMNS):
        try:
            channel = registry.lookup((row["property"] or "").strip(),
                                      (row["fidelity"] or "").strip())
        except UnknownChannel as exc:
            raise UnknownChannel(f"row {molecule.row}: {exc}") from exc
        try:
            value = float(row["value"])
        except (TypeError, ValueError):
            raise ParseFailure(molecule.row, f"bad value {row['value']!r}")
        if not math.isfinite(value):
            raise ParseFailure(molecule.row, f"non-finite value {value!r}")
        if molecule.material_id not in graphs:
            graphs[molecule.material_id] = oracle_parse(molecule)
        if channel.transform == "log10" and value <= 0:
            raise NonPositiveForLog(f"row {molecule.row}: {channel.key} value {value} "
                                    "is not positive")
        grouped.setdefault((molecule.material_id, channel.key), []).append(
            ds.Record(molecule.material_id, channel, value, molecule.density))
    for (material, key), bucket in grouped.items():
        if len(bucket) > 1:
            raise DuplicateRecord(f"{len(bucket)} records for material {material!r} "
                                  f"channel {key}")
    return [bucket[0] for bucket in grouped.values()], graphs


def oracle_naming(molecule, call):
    try:
        return call()
    except ToolkitError as exc:
        raise type(exc)(f"material {molecule.material_id!r} (row {molecule.row}): "
                        f"{exc}") from exc


def oracle_featurize(path):
    """featurize before perception was split: parse every molecule in
    order, fit the schema on their bond keys, then featurize in order."""
    molecules = ds.read_molecules(path)
    graphs = [oracle_parse(molecule) for molecule in molecules]
    keys = set().union(*(descriptors._bond_keys(g) for g in graphs))
    schema = descriptors.FeatureSchema(tuple(sorted(keys)), False)
    for molecule, graph in zip(molecules, graphs):
        oracle_naming(molecule, lambda: descriptors.featurize(graph, schema))


def oracle_screen(path, model):
    """screen before perception was split: parse and predict one molecule
    at a time, in order."""
    bundle = pipeline.load_model(model)
    for molecule in ds.read_molecules(path):
        graph = oracle_parse(molecule)
        oracle_naming(molecule, lambda: pipeline.predict_matrix(bundle, graph,
                                                                molecule.density))


def first_error(call):
    try:
        call()
    except ToolkitError as exc:
        return f"error {exc.code}: {exc}\n"
    return ""


def cli_error(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert (code == 0) == (err.getvalue() == "")
    return err.getvalue()


@pytest.fixture(scope="module")
def screen_model(tmp_path_factory):
    """A one-leaf forest over a schema fitted on three molecules, so that a
    nitrile or a ring has bonds outside its vocabulary."""
    corpus = [descriptors.perceive(parse_smiles(s)) for s in ("CC", "CCO", "C[N+](=O)[O-]")]
    schema = descriptors.fit_schema(corpus, include_density=False)
    forest = rf.RandomForest(config=rf.ForestConfig(n_trees=1),
                             trees=[np.array([[-1, 0.0, 1.0, -1, -1]])], n_features=len(schema))
    registry = ds.PropertyRegistry(channels=(ds.PropertyChannel("det_velocity", "calc"),))
    path = tmp_path_factory.mktemp("model") / "model.emrf"
    pipeline.save_model(path, pipeline.ModelBundle(kind="forest", registry=registry,
                                                   schema=schema, forest=forest))
    return path


SMILES_POOL = ["CC", "CCO", "C[N+](=O)[O-]", "CC#N", "c1ccccc1", "CC.O", "C1CC", "Br",
               "C(1CC1)", "FF"]
CHANNEL_POOL = ["det_velocity,calc"] * 2 + ["impact_h50,exp"] * 2 + ["det_pressure,calc",
                                                                   "bogus,exp"]
VALUE_POOL = ["7.5"] * 4 + ["2", "x", "-1", "inf"]
DENSITY_POOL = [""] * 3 + ["1.2", "0"]


@st.composite
def records_csv(draw):
    """A records CSV over a few materials: SMILES shared between materials,
    SMILES that do not parse, multi-fragment ones, a material given another
    SMILES in a later row, bad values, unknown channels, bad densities,
    non-positive log values and repeated (material, channel) pairs."""
    assigned = draw(st.lists(st.sampled_from(SMILES_POOL), min_size=1, max_size=5))
    lines = ["material_id,smiles,property,fidelity,value,density"]
    for _ in range(draw(st.integers(1, 9))):
        material = draw(st.integers(0, len(assigned) - 1))
        smiles = assigned[material]
        if draw(st.integers(0, 7)) == 0:
            smiles = draw(st.sampled_from(SMILES_POOL))
        lines.append(",".join([f"M{material}", smiles, draw(st.sampled_from(CHANNEL_POOL)),
                               draw(st.sampled_from(VALUE_POOL)),
                               draw(st.sampled_from(DENSITY_POOL))]))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("parts", [1, 2])
@settings(max_examples=150, deadline=None)
@given(text=records_csv())
@example(text="material_id,smiles,property,fidelity,value,density\n"
              "M0,CC,impact_h50,exp,-1,\nM1,C1CC,det_velocity,calc,7.5,\n")
@example(text="material_id,smiles,property,fidelity,value,density\n"
              "M0,CC.O,det_velocity,calc,7.5,\nM1,CC#N,det_velocity,calc,7.5,\n"
              "M2,Br,det_velocity,calc,x,\n")
def test_the_first_error_is_the_row_by_row_readers(screen_model, parts, text):
    """load_records, featurize and screen raise the error (code, row and
    message) that reading, parsing and featurizing row by row raised
    first, or none when it raised none."""
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
        patch.setattr(os, "sched_getaffinity", lambda pid: set(range(parts)))
        patch.setattr(ds, "PERCEPTION_PART", 1)
        path = Path(tmp) / "data.csv"
        path.write_text(text, encoding="utf-8")
        registry = ds.default_registry()

        expected = first_error(lambda: oracle_load_records(path, registry))
        for subset_id in (None, 6):
            assert first_error(lambda: ds.load_records(path, registry,
                                                       subset_id=subset_id)) == expected
        if not expected:
            records, graphs = oracle_load_records(path, registry)
            data = ds.load_records(path, registry, subset_id=6)
            assert data.records == records
            assert {m: outcome_bits(p) for m, p in data.perceptions.items()} == \
                {m: outcome_bits(descriptors.perceive(g)) for m, g in graphs.items()}

        assert cli_error(["featurize", "--data", str(path), "--out", tmp]) == \
            first_error(lambda: oracle_featurize(path))
        assert cli_error(["screen", "--model", str(screen_model), "--data", str(path),
                          "--by", "det_velocity:calc", "--out", tmp]) == \
            first_error(lambda: oracle_screen(path, screen_model))
