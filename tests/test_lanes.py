"""The lane helper's callers beside the step: the gamma CDF and the pushforward mixture.

Their bytes do not depend on the lane count or on which thread did which
item; a worker keeps the caller's scipy.special error state; a job begun
inside a claim runs on its thread alone.
"""

import os
import subprocess
import sys
import threading

import numpy as np
import pytest
from scipy import special as sp

import reference
from ginisim import dynamics, lanes, streams
from ginisim.dynamics import GrowthPolicy, initial_point, step
from ginisim.kernels import GAMMA, LOGNORMAL, KernelSpec, _cdf_in_lanes, _gamma_quantile
from ginisim.kernels import _CDF_CHUNK as C
from ginisim.verification import _mixture_log_density


def _force(monkeypatch, n_lanes):
    monkeypatch.setattr(lanes, "count", lambda most: n_lanes)


@pytest.mark.parametrize("shape", [0.5, 26.01, 2e5])
@pytest.mark.parametrize("n", [C - 1, 2 * C + 1, 5 * C + 3])  # Halley sides below and above C
def test_lane_count_never_changes_a_quantile_byte(monkeypatch, chunks_only_on, shape, n):
    u = streams.indexed_uniforms(3, streams.TAG_PROBE, 0, n)
    _force(monkeypatch, 1)
    serial = _gamma_quantile(shape, u).tobytes()
    for n_lanes in (2, 3):
        _force(monkeypatch, n_lanes)
        assert _gamma_quantile(shape, u).tobytes() == serial, f"{n_lanes} lanes"
    for who in ("worker", "main"):  # one thread takes every chunk
        _force(monkeypatch, 2)
        ran = chunks_only_on(who)
        assert _gamma_quantile(shape, u).tobytes() == serial, f"{who} only"
        # above shape 1e5 no Halley step, so no CDF, runs
        assert len(ran) == (shape <= 1e5) and (threading.main_thread() in ran) <= (who == "main")
        monkeypatch.undo()


MIXTURE_KERNELS = (KernelSpec(LOGNORMAL, alpha=1.02, beta=0.0, gamma_disp=0.2),
                   KernelSpec(GAMMA, alpha=1.5, beta=0.5, gamma_disp=0.3))


@pytest.mark.parametrize("kernel", MIXTURE_KERNELS, ids=lambda kernel: kernel.family)
@pytest.mark.parametrize("m_agents, n_grid", [(2048, 220), (8192, 17)])
def test_lane_count_never_changes_a_mixture_byte(monkeypatch, chunks_only_on, kernel,
                                                 m_agents, n_grid):
    # the verify-integrals shape, 2048 agents x 220 grid points: 14 blocks in
    # one lane, 28 in two, 42 in three; 8192 x 17: 4 blocks of 4 or 5 columns
    # in any lane count, the 4-column floor
    sources = np.random.default_rng(11).lognormal(0.0, 0.5, m_agents)
    grid = np.geomspace(kernel.beta + 0.3, kernel.beta + 6.0, n_grid)
    _force(monkeypatch, 1)
    serial = _mixture_log_density(kernel, sources, grid).tobytes()
    for n_lanes in (2, 3):
        _force(monkeypatch, n_lanes)
        assert _mixture_log_density(kernel, sources, grid).tobytes() == serial, f"{n_lanes} lanes"
    for who in ("worker", "main"):
        _force(monkeypatch, 2)
        ran = chunks_only_on(who)
        assert _mixture_log_density(kernel, sources, grid).tobytes() == serial, f"{who} only"
        assert len(ran) == 1 and (threading.main_thread() in ran) == (who == "main")
        monkeypatch.undo()


def test_a_worker_lane_raises_under_the_callers_special_errstate(monkeypatch, chunks_only_on):
    # scipy.special's error state is thread-local: a worker takes the caller's
    xs = np.full(2 * C, 30.0)
    xs[-1] = -1.0  # a domain error, in the second chunk
    with sp.errstate(domain="raise"):
        _force(monkeypatch, 1)
        with pytest.raises(sp.SpecialFunctionError) as serial:
            _cdf_in_lanes(sp.gammainc, 26.01, xs)
        _force(monkeypatch, 2)
        ran = chunks_only_on("worker")
        with pytest.raises(sp.SpecialFunctionError) as in_lanes:
            _cdf_in_lanes(sp.gammainc, 26.01, xs)
    assert str(in_lanes.value) == str(serial.value)
    assert ran and threading.main_thread() not in ran
    assert np.isnan(_cdf_in_lanes(sp.gammainc, 26.01, xs)[-1])  # a later job, the caller's


def test_a_gamma_step_of_one_lane_spreads_its_cdf_over_lanes(monkeypatch):
    # the step's own job has no worker, so the CDF inside its chunk takes lanes
    kernel = KernelSpec(GAMMA, alpha=1.02, beta=0.1, gamma_disp=0.2)
    monkeypatch.setattr(dynamics, "_lane_count", lambda n: 1)
    _force(monkeypatch, 2)
    init, begun = lanes.Lanes.__init__, []

    def recorded(job, *args):
        init(job, *args)
        begun.append(job)

    monkeypatch.setattr(lanes.Lanes, "__init__", recorded)
    new = step(initial_point(3 * C, 1.0), kernel, GrowthPolicy.linear(), 5)
    assert not begun[0].futures and all(job.futures for job in begun[1:]) and len(begun) > 2
    wealth = reference.step(np.ones(3 * C), 0, kernel, None, 5)
    assert new.wealth.tobytes() == wealth.tobytes()


def test_a_gamma_step_in_lanes_never_nests_them():
    # every job asks for 2 lanes; the step's factor chunks run each CDF
    # evaluation inside a claim, where it must not reach the pool: a worker
    # that waited on its own pool would hang the run
    code = """if True:
        from concurrent.futures import ThreadPoolExecutor
        from ginisim import dynamics, kernels, lanes
        from ginisim.dynamics import GrowthPolicy, initial_point, simulate
        from ginisim.kernels import KernelSpec

        def last_state(n_lanes):
            dynamics._lane_count = lanes.count = lambda most: n_lanes
            *_, pop = simulate(initial_point(2 * dynamics._MIN_LANE, 1.0),
                               KernelSpec("gamma", 1.02, 0.0, 0.2), GrowthPolicy.linear(), 3, 1)
            return pop.wealth.tobytes()

        serial = last_state(1)
        submit, cdf, offered, evaluated = ThreadPoolExecutor.submit, kernels._cdf_in_lanes, [], []

        def recorded_submit(pool, *args):
            offered.append(lanes._here.splitting)
            return submit(pool, *args)

        def recorded_cdf(*args):
            evaluated.append(lanes._here.splitting)
            return cdf(*args)

        ThreadPoolExecutor.submit, kernels._cdf_in_lanes = recorded_submit, recorded_cdf
        assert last_state(2) == serial
        assert offered == [False] * 3, offered  # one factor task per step, none from a claim
        assert evaluated and all(evaluated)
    """
    src = os.path.dirname(os.path.dirname(lanes.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=60)
    assert done.returncode == 0, done.stderr


def test_take_cancels_a_worker_task_that_never_began():
    # the worker is busy elsewhere and the caller claims every span, so take
    # returns without waiting for the worker
    lanes.Lanes(np.zeros(1), [0, 1], lambda lo, hi: None, 2).take()  # the worker exists
    busy = threading.Event()
    elsewhere = lanes._pools[os.getpid()][0].submit(busy.wait, 10)
    out, filled_on = np.zeros(4), set()

    def fill(lo, hi):
        filled_on.add(threading.current_thread())
        out[lo:hi] = lo

    try:
        job = lanes.Lanes(out, [0, 2, 4], fill, 2)
        assert job.take() is out and out.tolist() == [0, 0, 2, 2]
        assert job.futures[0].cancelled() and not elsewhere.done()
        assert filled_on == {threading.main_thread()}
    finally:
        busy.set()
    assert elsewhere.result(10)
