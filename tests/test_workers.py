"""Jobs split across forked processes: workers.run and the engines on it.

The CPU count is set by patching os.sched_getaffinity, so a split into
two or three parts runs on any machine with os.fork. Each engine must
give the same bytes whatever the split, including the one-part run that
forks nothing.
"""

import os
import signal
import threading
import time
from contextlib import contextmanager

import numpy as np
import pytest

from emprops import forest as rf
from emprops import mtnn, workers
from emprops.errors import InvalidConfig, NonFiniteLoss
from test_forest import mixed_jobs, tree_bytes

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")

PARTS = [2, 3]  # forced part counts, against the one-part run
COUNTS = [1, 2, 3, 7]  # jobs per engine call


@pytest.fixture
def cpus(monkeypatch):
    """cpus(n) makes the affinity mask hold n CPUs; returns the list that
    records each os.fork the parent makes."""
    forks = []
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
