"""Ensemble evolution: exactness, reproducibility, mode equivalences."""

import hashlib
import math
import multiprocessing
import os
import subprocess
import sys
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference
from ginisim import dynamics, lanes, metrics, streams
from ginisim.config import load_config
from ginisim.dynamics import (
    GrowthPolicy,
    PopulationState,
    initial_lognormal,
    initial_point,
    initial_uniform,
    make_initial,
    run,
    simulate,
    step,
    trajectory,
)
from ginisim.kernels import DETERMINISTIC, GAMMA, LOGNORMAL, KernelSpec
from ginisim.streams import BLOCK

LOGN = KernelSpec(family=LOGNORMAL, alpha=1.02, beta=0.0, gamma_disp=0.2)


def det_kernel(alpha=1.0, beta=0.0):
    return KernelSpec(family=DETERMINISTIC, alpha=alpha, beta=beta, gamma_disp=0.0)


def test_population_state_immutable():
    pop = PopulationState([1.0, 2.0], 0)
    with pytest.raises(AttributeError, match="immutable"):
        pop.t = 3
    with pytest.raises(ValueError):
        pop.wealth[0] = 5.0  # numpy read-only flag


def test_population_state_validation():
    with pytest.raises(ValueError, match="at least 2"):
        PopulationState([1.0], 0)
    with pytest.raises(ValueError, match="non-finite"):
        PopulationState([1.0, np.inf], 0)
    with pytest.raises(ValueError, match="negative"):
        PopulationState([1.0, -0.5], 0)
    with pytest.raises(ValueError, match="nonnegative"):
        PopulationState([1.0, 2.0], -1)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="^population contains non-finite wealth$"):
            PopulationState([1.0, 2.0, bad], 0)
    with pytest.raises(ValueError, match="^population contains non-finite wealth$"):
        PopulationState([-1.0, np.nan], 0)  # non-finite is reported first
    with pytest.raises(ValueError, match="^population contains negative wealth$"):
        PopulationState([1.0, 2.0, -1e-300], 0)


def test_population_state_never_aliases_a_writable_buffer():
    w = np.array([1.0, 2.0, 3.0])
    pop = PopulationState(w, 0)
    w[0] = 9.0
    assert pop.wealth[0] == 1.0 and w.flags.writeable
    # a frozen array that owns its buffer is taken as it is
    assert PopulationState(pop.wealth, 1).wealth is pop.wealth
    view = w[1:]
    view.flags.writeable = False
    assert not np.shares_memory(PopulationState(view, 0).wealth, w)


# sha256 of the wealth after 5 steps at N = 10^4 from a point start, seed 42,
# under the flagship kernel; recorded from the allocating step path.
GOLDEN_WEALTH = {
    None: "540dbdfb4b8e756874cc3f41388be382936d455f510cb39145744d79f6e688d9",
    0.05: "1b1a94bfc67c45eeb188c530090cdbbe1bd8e0b9fef0849b8b374611eec30d5c",
}


@pytest.mark.parametrize("c", [None, 0.05], ids=["linear", "proportional"])
def test_step_golden_bytes(c):
    policy = GrowthPolicy.linear() if c is None else GrowthPolicy.proportional(c)
    *_, last = simulate(initial_point(10_000, 1.0), LOGN, policy, 5, 42)
    assert last.t == 5
    assert hashlib.sha256(last.wealth.tobytes()).hexdigest() == GOLDEN_WEALTH[c]


@settings(max_examples=30, deadline=None)
@given(family=st.sampled_from([LOGNORMAL, GAMMA]),
       alpha=st.floats(1.0, 2.0),
       beta=st.floats(0.0, 2.0),
       r=st.floats(0.01, 1.5),
       c=st.none() | st.floats(0.0, 0.5),
       seed=st.integers(0, 2**64 - 1),
       n=st.sampled_from([2, 3, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 1,
                          8 * BLOCK + 1, 24 * BLOCK + 7]),
       start=st.sampled_from(["uniform", "lognormal"]),
       steps=st.integers(1, 4))
# an r where numpy's scalar log1p and its array loop differ in the last bit
@example(family=LOGNORMAL, alpha=1.0, beta=0.0, r=1.1852030155578843, c=None, seed=0, n=2,
         start="uniform", steps=1)
def test_step_equals_the_plain_reference(family, alpha, beta, r, c, seed, n, start, steps):
    kernel = KernelSpec(family=family, alpha=alpha, beta=beta, gamma_disp=r * alpha)
    policy = GrowthPolicy.linear() if c is None else GrowthPolicy.proportional(c)
    params = {"low": 0.5, "high": 2.0} if start == "uniform" else {"mean": 1.5, "cv": 0.8}
    states = simulate(make_initial(n, start, seed, **params), kernel, policy, steps, seed)
    wealth = reference.initial(start, n, seed)
    assert next(states).wealth.tobytes() == wealth.tobytes(), "initial state"
    for t, pop in enumerate(states):
        wealth = reference.step(wealth, t, kernel, c, seed)
        assert pop.wealth.tobytes() == wealth.tobytes(), f"step {t}"


LANE_N = 5 * BLOCK + 123  # not a multiple of BLOCK: the last chunk ends inside a block


def _record_begun(monkeypatch):
    """Record every step factor begun from here on; return the list."""
    begun = []

    class Recorded(dynamics._Factor):
        def __init__(self, *args):
            super().__init__(*args)
            begun.append(self)

    monkeypatch.setattr(dynamics, "_Factor", Recorded)
    return begun


def _record_chunks(monkeypatch, log, in_worker=lambda t: None):
    """Append (step, thread) to ``log`` for every chunk of step uniforms drawn from
    here on; a worker then calls in_worker(step) before it draws the chunk."""
    draw = streams.indexed_uniforms

    def recorded(master_seed, tag, t, n, first_block=0):
        if tag == streams.TAG_STEP:
            log.append((t, threading.current_thread()))
            if threading.current_thread() is not threading.main_thread():
                in_worker(t)
        return draw(master_seed, tag, t, n, first_block)

    monkeypatch.setattr(streams, "indexed_uniforms", recorded)


def _wait_for_a_worker_chunk(log, t):
    deadline, main = time.monotonic() + 10, threading.main_thread()
    while not any(s == t and who is not main for s, who in list(log)):
        assert time.monotonic() < deadline, f"no worker drew step {t}"
        time.sleep(0.001)


def _check_lane_counts(monkeypatch, chunks_only_on, family, c, n, steps):
    kernel = KernelSpec(family=family, alpha=1.02, beta=0.1, gamma_disp=0.3)
    policy = GrowthPolicy.linear() if c is None else GrowthPolicy.proportional(c)
    start = make_initial(n, "lognormal", 8, mean=1.5, cv=0.8)
    wealth = start.wealth
    for t in range(steps):
        wealth = reference.step(wealth, t, kernel, c, 8)
    for n_lanes in (1, 2, 3):
        monkeypatch.setattr(dynamics, "_lane_count", lambda n: n_lanes)
        *_, last = simulate(start, kernel, policy, steps, 8)
        assert last.t == steps and last.wealth.tobytes() == wealth.tobytes(), f"{n_lanes} lanes"
    assert len(lanes._pools[os.getpid()]) >= 2  # the last run handed chunks to workers
    for who in ("worker", "main"):  # one thread takes every chunk
        monkeypatch.setattr(dynamics, "_lane_count", lambda n: 2)
        ran = chunks_only_on(who)
        *_, last = simulate(start, kernel, policy, steps, 8)
        assert last.t == steps and last.wealth.tobytes() == wealth.tobytes(), f"{who} only"
        assert len(ran) == 1 and (threading.main_thread() in ran) == (who == "main")
        monkeypatch.undo()


@pytest.mark.parametrize("family", [LOGNORMAL, GAMMA])
@pytest.mark.parametrize("c", [None, 0.05], ids=["linear", "proportional"])
def test_lane_count_never_changes_a_byte(monkeypatch, chunks_only_on, family, c):
    _check_lane_counts(monkeypatch, chunks_only_on, family, c, LANE_N, 3)


@pytest.mark.parametrize("family", [LOGNORMAL, GAMMA])
@pytest.mark.parametrize("c", [None, 0.05], ids=["linear", "proportional"])
@pytest.mark.parametrize("n", [BLOCK + 1, 10_000])
def test_lane_count_never_changes_a_small_population_byte(monkeypatch, chunks_only_on, family,
                                                          c, n):
    # jobs of many steps, 32 at BLOCK + 1 agents and 16 at 1e4: 37 steps end
    # in a shorter job, whose last span is shorter too
    _check_lane_counts(monkeypatch, chunks_only_on, family, c, n, 37)


@pytest.mark.parametrize("n", [BLOCK + 1, 10_000, LANE_N])
def test_no_factor_is_drawn_past_the_last_step_or_a_job_ahead(monkeypatch, n):
    # every step's factor is drawn once, in its chunks, and none of job J
    # before the caller first takes job J - 1 (in step (J - 1) * per_job's
    # turn, when it asks for the state after it)
    monkeypatch.setattr(dynamics, "_lane_count", lambda n: 2)
    log, steps = [], 37
    _record_chunks(monkeypatch, log)
    per_job = dynamics._SPANS * dynamics._span_steps(n) or 1
    states = simulate(initial_point(n, 1.0), LOGN, GrowthPolicy.proportional(0.05), steps, 2)
    for s in range(steps + 1):
        log.append(("asks for state", s))
        assert next(states).t == s
    drawn = [t for t, _ in log if isinstance(t, int)]
    assert sorted(drawn) == sorted(list(range(steps)) * -(-n // dynamics._MIN_LANE))
    for i, (t, who) in enumerate(log):
        if isinstance(t, int) and t >= per_job:
            first_take = (t // per_job - 1) * per_job
            assert log.index(("asks for state", first_take + 1)) < i, f"step {t} drawn early"


@pytest.mark.parametrize("n", [BLOCK + 1, 2 * dynamics._MIN_LANE + 1])
def test_simulate_steps_through_the_module_step(monkeypatch, n):
    # perfbench's tracer divides its per-step counts by the calls of
    # dynamics.step; a run begins no step past its last one
    monkeypatch.setattr(dynamics, "_lane_count", lambda n: 1 if n < 2 * dynamics._MIN_LANE else 2)
    plain, calls, begun = dynamics.step, [], _record_begun(monkeypatch)

    def counting(*args):
        calls.append(args[4] if len(args) > 4 else None)
        return plain(*args)

    monkeypatch.setattr(dynamics, "step", counting)
    start = initial_point(n, 1.0)
    states = list(simulate(start, LOGN, GrowthPolicy.proportional(0.05), 4, 3))
    assert len(calls) == 4 and [pop.t for pop in states] == list(range(5))
    # the jobs begun cover steps 0-3 exactly once, none past the last, and
    # each step takes the job that covers it
    assert [t for b in begun for t in range(b.t, b.end)] == list(range(4))
    assert all(job in begun and job.t <= t < job.end for t, job in enumerate(calls))
    if n > 2 * dynamics._MIN_LANE:  # each factor begun ahead and handed to its step
        assert calls == begun and all(b.futures for b in begun)
    wealth = start.wealth
    for t, pop in enumerate(states[1:]):
        wealth = reference.step(wealth, t, LOGN, 0.05, 3)
        assert pop.wealth.tobytes() == wealth.tobytes(), f"step {t}"


def _abandon(monkeypatch, how, n, steps, blocked):
    """Leave a run of n agents in state 1 while a worker draws step ``blocked``;
    return the steps of the chunks drawn."""
    monkeypatch.setattr(dynamics, "_lane_count", lambda n: 2)
    begun, log, released = _record_begun(monkeypatch), [], threading.Event()
    _record_chunks(monkeypatch, log, lambda t: t == blocked and released.wait(10))

    def leave_while_a_worker_draws():  # released 0.2 s later
        _wait_for_a_worker_chunk(log, blocked)
        threading.Timer(0.2, released.set).start()

    start = initial_point(n, 1.0)
    if how == "close":
        states = simulate(start, LOGN, GrowthPolicy.linear(), steps, 5)
        assert [next(states).t, next(states).t] == [0, 1]
        leave_while_a_worker_draws()
        states.close()
    else:
        def consume():
            for pop in simulate(start, LOGN, GrowthPolicy.linear(), steps, 5):
                if pop.t == 1:
                    leave_while_a_worker_draws()
                    raise RuntimeError("consumer gave up")

        with pytest.raises(RuntimeError, match="consumer gave up"):
            consume()
    assert len(begun) == 2 and begun[-1].futures  # the job of step `blocked` was under way
    assert all(future.done() for b in begun for future in b.futures)
    drawn = len(log)
    time.sleep(0.2)
    assert len(log) == drawn  # nothing is drawn after
    monkeypatch.undo()
    wealth = start.wealth
    for t, pop in enumerate(list(simulate(start, LOGN, GrowthPolicy.linear(), 3, 5))[1:]):
        wealth = reference.step(wealth, t, LOGN, None, 5)
        assert pop.wealth.tobytes() == wealth.tobytes(), f"step {t}"
    return sorted(t for t, _ in log)


@pytest.mark.parametrize("how", ["close", "raise"])
def test_an_abandoned_run_leaves_no_step_drawing(monkeypatch, how):
    # step 0's two chunks and the worker's chunk of the step to t = 2; that
    # step's other chunk is never drawn
    assert _abandon(monkeypatch, how, LANE_N, 5, 1) == [0, 0, 1]


@pytest.mark.parametrize("how", ["close", "raise"])
def test_an_abandoned_small_run_leaves_no_span_drawing(monkeypatch, how):
    # at 1e4 agents: job 0 (steps 0-15) and the worker's span of job 1, steps
    # 16 and 17; job 1's other spans and job 2 (steps 32-39) are never drawn
    assert _abandon(monkeypatch, how, 10_000, 40, 16) == list(range(18))


def test_lanes_draw_at_most_one_step_ahead(monkeypatch):
    # no chunk of step s is drawn before the caller's turn for step s - 1,
    # which comes when it asks for state s; meanwhile the workers draw step s
    monkeypatch.setattr(dynamics, "_lane_count", lambda n: 2)
    log = []
    _record_chunks(monkeypatch, log)
    start = initial_point(LANE_N, 1.0)
    states, wealth = simulate(start, LOGN, GrowthPolicy.proportional(0.05), 6, 5), start.wealth
    for s in range(7):
        log.append(("asks for state", s))
        pop = next(states)
        if s < 6:  # the caller measures state s
            _wait_for_a_worker_chunk(log, s)
        if s:
            wealth = reference.step(wealth, s - 1, LOGN, 0.05, 5)
        assert pop.t == s and pop.wealth.tobytes() == wealth.tobytes(), f"state {s}"
    for i, (t, who) in enumerate(log):
        if isinstance(t, int):
            assert log.index(("asks for state", t)) < i, f"step {t} drawn too early by {who.name}"


def test_lanes_left_suspended_at_exit_do_not_hang_it():
    # a run parked at a yield in a global, its next step's factor under way:
    # the interpreter still exits, quietly, because no worker waits for the run
    code = """if True:
        import threading, time
        from ginisim import dynamics, streams
        from ginisim.dynamics import GrowthPolicy, initial_point, simulate
        from ginisim.kernels import KernelSpec
        draw = streams.indexed_uniforms
        def slow(*args):
            if threading.current_thread() is not threading.main_thread():
                time.sleep(0.2)
            return draw(*args)
        streams.indexed_uniforms = slow
        dynamics._lane_count = lambda n: 2
        RUN = simulate(initial_point(2 * dynamics._MIN_LANE, 1.0),
                       KernelSpec("lognormal", 1.02, 0.0, 0.2), GrowthPolicy.linear(), 100, 1)
        next(RUN), next(RUN)
    """
    src = os.path.dirname(os.path.dirname(dynamics.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=10)
    assert done.returncode == 0 and done.stderr == ""


def test_lanes_drawing_ahead_hold_one_buffer_more_at_most(monkeypatch):
    # the traced peak of a 20-step N = 65536 run, in N-float64 buffers: the
    # step that drew its factor with its state (begun before the state's
    # yield) peaked at 3.02 on the same run; the next step's factor adds one
    monkeypatch.setattr(dynamics, "_lane_count", lambda n: 2)
    n = 16 * BLOCK

    def peak():
        start = initial_point(n, 1.0)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            for _ in simulate(start, LOGN, GrowthPolicy.proportional(0.05), 20, 3):
                pass
            return (tracemalloc.get_traced_memory()[1] - base) / (8 * n)
        finally:
            tracemalloc.stop()

    peak()  # a first run fills the caches
    assert peak() <= 3.02 + 1


def test_concurrent_callers_share_the_lane_workers(monkeypatch):
    # four stepping threads hand their lanes to the same two workers, with
    # a short switch interval to interleave them, one-step jobs and jobs of
    # many steps (20 steps at 1e4 agents: jobs of 16 and 4)
    monkeypatch.setattr(dynamics, "_lane_count", lambda n: 3)
    for n, steps in ((LANE_N, 3), (10_000, 20)):
        start = initial_point(n, 1.0)
        wealth = start.wealth
        for t in range(steps):
            wealth = reference.step(wealth, t, LOGN, None, 5)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as callers:
                runs = [callers.submit(list, simulate(start, LOGN, GrowthPolicy.linear(), steps, 5))
                        for _ in range(8)]
                lasts = [run_.result(timeout=60)[-1] for run_ in runs]
        finally:
            sys.setswitchinterval(interval)
        assert all(last.wealth.tobytes() == wealth.tobytes() for last in lasts), n


def _send_last_state(conn, pop):
    *_, last = simulate(pop, LOGN, GrowthPolicy.linear(), 2, 42)
    conn.send(last.wealth.tobytes())
    conn.close()


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="no fork on this platform")
@pytest.mark.filterwarnings("ignore:This process .* is multi-threaded:DeprecationWarning")
def test_forked_child_steps_with_its_own_lanes(monkeypatch):
    # the child inherits the parent's executors without their threads
    monkeypatch.setattr(dynamics, "_lane_count", lambda n: 2)
    pop = initial_point(2 * dynamics._MIN_LANE + 1, 1.0)
    *_, last = simulate(pop, LOGN, GrowthPolicy.linear(), 2, 42)
    assert lanes._pools[os.getpid()]  # the parent's worker exists before the fork
    ctx = multiprocessing.get_context("fork")
    recv, send = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_send_last_state, args=(send, pop))
    child.start()
    send.close()
    try:
        assert recv.poll(60), "the forked child did not finish its steps"
        assert recv.recv() == last.wealth.tobytes()
    finally:
        if child.is_alive():
            child.kill()
        child.join(10)


def test_a_lane_error_aborts_the_run_unchanged(monkeypatch, chunks_only_on):
    cfg = load_config({
        "kernel": {"family": "lognormal", "alpha": 1.02, "beta": 0.0, "gamma_disp": 0.2},
        "population": {"n_agents": 2 * dynamics._MIN_LANE + 5, "steps": 6},
        "master_seed": 4,
        "bounds": {"gamma_logderiv": 1.0},
    })
    clean = [pop for pop, _ in trajectory(cfg)]
    draw = streams.indexed_uniforms
    boom = ValueError("lane boom")

    def failing_in_block_4(master_seed, tag, t, n, first_block=0):
        if tag == streams.TAG_STEP and t == 2 and first_block == 4:  # the step to t = 3
            raise boom
        return draw(master_seed, tag, t, n, first_block)

    for who in ("worker", "main"):  # the failing chunk drawn by either thread
        monkeypatch.setattr(dynamics, "_lane_count", lambda n: 2)
        ran = chunks_only_on(who)
        monkeypatch.setattr(streams, "indexed_uniforms", failing_in_block_4)
        rows = []
        with pytest.raises(ValueError, match="^simulation aborted at step 3: lane boom$") as info:
            for pop, *_ in run(cfg):
                rows.append(pop)
        assert info.value.__cause__ is boom
        assert len(ran) == 1 and (threading.main_thread() in ran) == (who == "main")
        assert [pop.t for pop in rows] == [0, 1, 2]
        for pop, ref in zip(rows, clean):
            assert pop.wealth.tobytes() == ref.wealth.tobytes()
        # the workers outlive the error: the failed step, run again, is the clean one
        monkeypatch.setattr(streams, "indexed_uniforms", draw)
        again = step(rows[-1], cfg.kernel, cfg.build_policy(), cfg.master_seed)
        assert again.wealth.tobytes() == clean[3].wealth.tobytes()
        monkeypatch.undo()


def test_a_failing_lane_returns_only_after_the_others(monkeypatch):
    # the step's result array must not outlive a chunk still writing it
    monkeypatch.setattr(dynamics, "_lane_count", lambda n: 2)
    draw, failed, ended = streams.indexed_uniforms, [], []

    def failing_on_the_main_thread(master_seed, tag, t, n, first_block=0):
        if threading.current_thread() is threading.main_thread():
            failed.append(first_block)
            raise ValueError("main lane")
        time.sleep(0.2)
        ended.append(first_block)
        return draw(master_seed, tag, t, n, first_block)

    monkeypatch.setattr(streams, "indexed_uniforms", failing_on_the_main_thread)
    with pytest.raises(ValueError, match="^main lane$"):
        step(initial_point(2 * dynamics._MIN_LANE, 1.0), LOGN, GrowthPolicy.linear(), 0)
    assert len(failed) == 1 and sorted(failed + ended) == [0, dynamics._MIN_LANE // BLOCK]


@pytest.mark.skipif(np.lib.NumpyVersion(np.__version__) < "2.0.0",
                    reason="np.errstate is a context variable from numpy 2")
def test_worker_lanes_keep_the_callers_errstate(monkeypatch):
    # wealth x*L overflows; the caller's errstate lets it, so the state's own
    # check reports it, and every chunk, a worker's too, runs under that errstate
    monkeypatch.setattr(dynamics, "_lane_count", lambda n: 2)
    draw, seen = streams.indexed_uniforms, set()

    def recording_errstate(*args):
        seen.add((threading.current_thread() is threading.main_thread(), np.geterr()["over"]))
        return draw(*args)

    monkeypatch.setattr(streams, "indexed_uniforms", recording_errstate)
    huge = PopulationState(np.full(4 * dynamics._MIN_LANE, 1e308), 0)
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="non-finite"):
        step(huge, LOGN, GrowthPolicy.linear(), 0)
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="non-finite"):
        list(simulate(huge, LOGN, GrowthPolicy.linear(), 1, 0))  # a step drawn ahead too
    assert {over for _, over in seen} == {"ignore"} and (False, "ignore") in seen


@pytest.mark.parametrize("n", [BLOCK + 1, 2 * dynamics._MIN_LANE + 1])
def test_a_step_that_cannot_begin_fails_after_its_state(monkeypatch, n):
    # the mean overflows, so beta_0 = c * mu_0 is not finite: state 0 is
    # still yielded, and the step after it raises, drawn ahead or not
    monkeypatch.setattr(dynamics, "_lane_count", lambda n: 1 if n < 2 * dynamics._MIN_LANE else 2)
    states = simulate(PopulationState(np.full(n, 1e308), 0), LOGN,
                      GrowthPolicy.proportional(0.05), 2, 0)
    with np.errstate(over="ignore"):
        assert next(states).t == 0
        with pytest.raises(ValueError, match="^beta must be finite, got inf$"):
            next(states)


@pytest.mark.parametrize("n", [BLOCK + 1, 2 * dynamics._MIN_LANE])
def test_a_coefficient_error_of_any_type_follows_its_state_in_any_lanes(monkeypatch, n):
    # errstate turns the overflowing mean into a FloatingPointError, not a
    # ValueError: it too is raised in step 0's turn, after state 0
    start = PopulationState(np.full(n, 1e305), 0)
    for n_lanes in (1, 2):
        monkeypatch.setattr(dynamics, "_lane_count", lambda n: n_lanes)
        rows = []
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            for pop in simulate(start, LOGN, GrowthPolicy.proportional(0.05), 3, 0):
                rows.append(pop.t)
        assert rows == [0], f"{n_lanes} lanes"


def test_deterministic_step_hand_values():
    pop = PopulationState([1.0, 2.0, 3.0], 0)
    out = step(pop, det_kernel(alpha=2.0), GrowthPolicy.linear(), master_seed=0)
    np.testing.assert_array_equal(out.wealth, [2.0, 4.0, 6.0])
    assert out.t == 1

    broke = PopulationState([0.0, 0.0], 0)
    out = step(broke, det_kernel(alpha=1.0, beta=1.0), GrowthPolicy.linear(), 0)
    np.testing.assert_array_equal(out.wealth, [1.0, 1.0])


def test_one_step_mean_tracks_mean_evolution():
    n = 100_000
    pop = initial_point(n, 1.0)
    out = step(pop, LOGN, GrowthPolicy.linear(), master_seed=5)
    se = LOGN.gamma_disp * 1.0 / math.sqrt(n)  # SD of x*L is Gamma*x here
    assert abs(out.wealth.mean() - (1.02 * 1.0 + 0.0)) < 5.0 * se


def test_one_step_mean_from_spread_population():
    rng_pop = initial_uniform(50_000, 0.5, 3.5, master_seed=2)
    mu = rng_pop.wealth.mean()
    out = step(rng_pop, LOGN, GrowthPolicy.linear(), master_seed=9)
    se = LOGN.gamma_disp * math.sqrt(np.mean(rng_pop.wealth**2) / rng_pop.n)
    assert abs(out.wealth.mean() - (1.02 * mu + 0.0)) < 5.0 * se


def test_simulate_zero_steps_yields_initial_only():
    pop = initial_point(4, 2.0)
    states = list(simulate(pop, LOGN, GrowthPolicy.linear(), 0, master_seed=0))
    assert len(states) == 1
    assert states[0] is pop
    with pytest.raises(ValueError):
        list(simulate(pop, LOGN, GrowthPolicy.linear(), -1, 0))


def test_identity_kernel_is_a_fixed_point():
    pop = PopulationState([0.5, 1.0, 2.0], 0)
    states = list(simulate(pop, det_kernel(), GrowthPolicy.linear(), 100, 0))
    assert len(states) == 101
    for s in states:
        np.testing.assert_array_equal(s.wealth, pop.wealth)


def test_deterministic_growth_keeps_cv_constant():
    # multiplicative-only deterministic growth rescales everything
    from ginisim.metrics import coefficient_of_variation

    pop = PopulationState([1.0, 2.0, 7.0], 0)
    cv0 = coefficient_of_variation(pop.wealth)
    for s in simulate(pop, det_kernel(alpha=1.07), GrowthPolicy.linear(), 50, 0):
        assert coefficient_of_variation(s.wealth) == pytest.approx(cv0, rel=1e-12)


def test_wealth_stays_nonnegative():
    cfgs = [
        (LOGN, GrowthPolicy.linear()),
        (KernelSpec(family="gamma", alpha=1.05, beta=0.3, gamma_disp=0.8),
         GrowthPolicy.linear()),
        (LOGN, GrowthPolicy.proportional(0.05)),
    ]
    for kernel, policy in cfgs:
        for s in simulate(initial_point(500, 1.0), kernel, policy, 50, 3):
            assert s.wealth.min() >= 0.0


def test_proportional_mode_feeds_back_on_empirical_mean():
    pol = GrowthPolicy.proportional(0.1)
    alpha, beta = pol.linear_coefficients(20.0, LOGN)
    assert alpha == 1.02
    assert beta == 2.0
    with pytest.raises(ValueError):
        GrowthPolicy.proportional(-0.01)


def test_proportional_policy_needs_a_finite_fraction():
    # a caller that builds the policy without the config loader gets the same rule
    for c in (math.nan, math.inf):
        with pytest.raises(ValueError, match="salary fraction must be finite and >= 0"):
            GrowthPolicy.proportional(c)


def test_initial_conditions():
    pt = initial_point(5, 2.5)
    np.testing.assert_array_equal(pt.wealth, np.full(5, 2.5))
    assert pt.t == 0

    uni = initial_uniform(10_000, 1.0, 3.0, master_seed=4)
    assert uni.wealth.min() >= 1.0 and uni.wealth.max() <= 3.0
    assert abs(uni.wealth.mean() - 2.0) < 5.0 * (2.0 / math.sqrt(12e4))
    np.testing.assert_array_equal(
        uni.wealth, initial_uniform(10_000, 1.0, 3.0, master_seed=4).wealth)

    n = 200_000
    logn = initial_lognormal(n, mean=2.0, cv=0.7, master_seed=6)
    assert abs(logn.wealth.mean() - 2.0) < 5.0 * 2.0 * 0.7 / math.sqrt(n)
    sample_cv = logn.wealth.std() / logn.wealth.mean()
    assert sample_cv == pytest.approx(0.7, rel=0.02)


def test_initial_condition_validation():
    with pytest.raises(ValueError):
        initial_point(5, -1.0)
    with pytest.raises(ValueError):
        initial_uniform(5, 2.0, 1.0, 0)
    with pytest.raises(ValueError):
        initial_lognormal(5, 0.0, 1.0, 0)
    with pytest.raises(ValueError, match="unknown initial condition"):
        make_initial(5, "cauchy", 0)
    with pytest.raises(ValueError, match="at least 2"):
        make_initial(1, "point", 0)


def test_run_emits_initial_row_and_forces_report_kappa():
    cfg = load_config({
        "kernel": {"family": "lognormal", "alpha": 1.02, "beta": 0.0,
                   "gamma_disp": 0.2},
        "population": {"n_agents": 100, "steps": 7},
        "master_seed": 3,
        "bounds": {"kappa_grid": [0.1], "kappa": 0.3},
    })
    rows = list(run(cfg))
    assert len(rows) == 8
    pop0, snap0, recs0, ab0 = rows[0]
    assert pop0.t == 0 and snap0.t == 0
    assert set(snap0.tail_probs) == {0.1, 0.3}
    assert ab0 == (1.02, 0.0)
    by_name = {r.name: r for r in recs0}
    assert math.isnan(by_name["cv_growth"].lhs)  # no previous step yet
    pop1, snap1, recs1, _ = rows[1]
    assert not math.isnan({r.name: r for r in recs1}["cv_growth"].lhs)
    assert snap1.t == 1


def test_run_rows_are_the_trajectory_rows():
    cfg = load_config({
        "kernel": {"family": "lognormal", "alpha": 1.02, "beta": 0.0,
                   "gamma_disp": 0.2},
        "population": {"n_agents": 300, "steps": 6},
        "policy": {"mode": "proportional", "salary_fraction": 0.05},
        "master_seed": 5,
    })
    cfg = cfg.with_overrides(seed=9)
    rows = list(run(cfg))
    plain = list(trajectory(cfg, kappas=cfg.kappas))
    assert len(rows) == len(plain) == cfg.steps + 1
    for (pop, snap, _, (alpha, beta)), (pop_t, snap_t) in zip(rows, plain):
        np.testing.assert_array_equal(pop.wealth, pop_t.wealth)
        assert snap == snap_t
        # proportional mode: beta_t = c * mu_t of the row's own snapshot
        assert (alpha, beta) == (1.02, 0.05 * snap.mu)


def test_trajectory_validates_each_state_once(monkeypatch):
    # PopulationState validates every state; measuring it must not again
    cfg = load_config({
        "kernel": {"family": "lognormal", "alpha": 1.02, "beta": 0.0,
                   "gamma_disp": 0.2},
        "population": {"n_agents": 300, "steps": 5},
        "master_seed": 4,
    })
    checked = metrics._checked
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return checked(*args, **kwargs)

    monkeypatch.setattr(metrics, "_checked", counting)
    rows = list(trajectory(cfg, kappas=(0.5, 2.0)))
    assert len(rows) == 6 and not calls
    for pop, snap in rows:  # and it measures what snapshot measures
        assert snap == metrics.snapshot(pop.wealth, pop.t, (0.5, 2.0))
