"""A long run's recursion forked off: the same traces and exceptions as in process.

With a spare core, `run_trace` computes a long run's states 1.. in a forked
child and its rows in the calling process. The child sends only states;
whatever it does not send, because it raised, died or was cut off, the
calling process computes itself, so every exception is raised where it
happens. Each exit path of such a run is checked against its serial twin:
the same trace bytes and summary, or the same exception, and no child
process left behind.
"""

import itertools
import math
import os
from dataclasses import replace

import numpy as np
import pytest

import momcert.driver
import momcert.parallel
from momcert import (
    agm_params_sc,
    agm_run,
    ode_params_sc,
    ode_run,
    pgm_run,
    quadratic_problem,
)
from momcert.harness import ExperimentConfig, build_params, build_problem

from _reference import TwoArgError, cutting_pickle


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _outcome(run):
    """The run's exit path, trace bytes and summary but the clock, or its exception."""
    try:
        tr = run()
    except Exception as err:
        return type(err).__name__, str(err), getattr(err, "k", None)
    s = {k: v for k, v in tr.summary.items() if k != "wall_time_s"}
    if s["aborted_at"] is None:
        path = "finished" if s["certified"] else "uncertified"
    elif s["aborted_at"] == tr.n_rows:  # a DivergenceError before that row
        path = "diverged"
    else:
        path = "blew-up" if np.isfinite(tr.data[-1, 1:3]).all() else "non-finite"
    return path, tr.data.tobytes(), repr(s)


def _twins(monkeypatch, run):
    """run() in process on one core, then forked with one spare core."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    serial = _outcome(run)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(momcert.driver, "PIPELINE_MIN_ROWS", 0)
    forks, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    piped = _outcome(run)
    _assert_no_child_left()
    assert forks, "the run did not fork its recursion"
    return serial, piped


def _built(**config):
    if config.get("d") == 1:  # the config needs d >= 2 for q < 1
        p = (ode_params_sc(1.0, 2.0, 0.5, 0.0) if config.get("solver") == "ode"
             else agm_params_sc(1.0, 4.0, 1.5, 0.5))
        return quadratic_problem([1.0], [0.5]), p, np.array([3.0])
    c = ExperimentConfig(**config).validated()
    obj, x0 = build_problem(c)
    return obj, build_params(c, obj), x0


def _failing(obj, name, after, error=ValueError):
    """obj whose callable `name` raises error(message) from call after + 1 on."""
    fn, calls = getattr(obj, name), [0]

    def call(x):
        calls[0] += 1
        if calls[0] > after:
            raise error(f"{name} failed at call {calls[0]}")
        return fn(x)
    return replace(obj, **{name: call})


def _holding_a_lambda(message):
    err = ValueError(message)
    err.undo = lambda: None  # pickle cannot send it
    return err


def _dying(obj, after=57):
    """obj whose grad ends a forked child at call after + 1, without an exception."""
    grad, calls, parent = obj.grad, [0], os.getpid()

    def call(x):
        calls[0] += 1
        if calls[0] > after and os.getpid() != parent:
            os._exit(1)
        return grad(x)
    return replace(obj, grad=call)


def _sine_flow(x0=2.0, dt=1e-2, horizon=20.0, certify=True, change=None):
    def run():
        obj, p, _ = _built(problem="pl_sine", regime="pl", solver="ode")
        return ode_run(change(obj) if change else obj, p, np.array([x0]), horizon, dt,
                       certify)
    return run


def _array_flow(d, dt=None, horizon=20.0, certify=True, change=None):
    def run():
        obj, p, x0 = _built(problem="quadratic", d=d, solver="ode", seed=4)
        return ode_run(change(obj) if change else obj, p, x0, horizon, dt, certify)
    return run


def _agm(d=3, iters=400, certify=True, change=None, params=None):
    def run():
        obj, p, x0 = _built(problem="quadratic", d=d, q=0.05, seed=5)
        obj = change(obj) if change else obj
        return agm_run(obj, params(p) if params else p, x0, iters, certify)
    return run


def _pgm(iters=400, h=None):
    def run():
        obj, p, x0 = _built(problem="lasso", d=3, seed=6)
        return pgm_run(obj, p if h is None else replace(p, h=h), x0, iters)
    return run


def _drifting(obj):
    # from call 10 on the gradient is 1e9 times larger: the two recursion
    # forms round apart by far more than the iterates' scale allows
    grad, calls = obj.grad, [0]

    def call(x):
        calls[0] += 1
        return grad(x) * (1e9 if calls[0] >= 10 else 1.0) + 0.1
    return replace(obj, grad=call)


def _flat(obj):
    # f = 0 stays finite while the state overflows
    return replace(obj, eval=lambda x: 0.0)


def _inf_eval_below(threshold):
    # f turns infinite once x[0] falls below the threshold
    def change(obj):
        return replace(obj, eval=lambda x: math.inf if x[0] < threshold else obj.eval(x))
    return change


# name: (exit path, run)
CASES = {
    # the float flow
    "flow-floats-finished": ("finished", _sine_flow()),
    "flow-floats-uncertified": ("uncertified", _sine_flow(certify=False)),
    "flow-floats-non-finite-row-0": ("non-finite", _sine_flow(x0=1e300)),
    "flow-floats-non-finite-row": ("non-finite", _sine_flow(dt=3.0, horizon=600.0)),
    "flow-floats-diverges": ("diverged", _sine_flow(dt=3.0, horizon=3000.0, change=_flat)),
    "flow-floats-grad-raises": ("ValueError",
                                _sine_flow(change=lambda o: _failing(o, "grad", 41))),
    "flow-floats-eval-raises": ("ValueError",
                                _sine_flow(change=lambda o: _failing(o, "eval", 17))),
    "flow-floats-child-dies": ("finished", _sine_flow(change=lambda o: _dying(o, 400))),
    # flows on (1,) and (3,) arrays
    "flow-d1-finished": ("finished", _array_flow(1)),
    "flow-d3-finished": ("finished", _array_flow(3)),
    "flow-d3-uncertified": ("uncertified", _array_flow(3, certify=False)),
    "flow-d3-non-finite-row": ("non-finite", _array_flow(3, dt=0.9, horizon=200.0)),
    "flow-d3-diverges": ("diverged", _array_flow(3, dt=0.9, horizon=200.0, change=_flat)),
    # agm on (1,) and (3,) arrays
    "agm-d1-finished": ("finished", _agm(d=1)),
    "agm-d1-non-finite-row": ("non-finite", _agm(d=1, change=_inf_eval_below(0.6))),
    "agm-d3-finished": ("finished", _agm()),
    "agm-d3-uncertified": ("uncertified", _agm(certify=False)),
    "agm-d3-blows-up": ("blew-up", _agm(params=lambda p: replace(p, gamma=6.0))),
    "agm-d3-diverges": ("diverged", _agm(iters=3000, change=_flat,
                                         params=lambda p: replace(p, gamma=50.0))),
    "agm-d3-drift": ("RuntimeError", _agm(change=_drifting)),
    "agm-d3-grad-raises": ("ValueError", _agm(change=lambda o: _failing(o, "grad", 57))),
    "agm-d3-eval-raises": ("ValueError", _agm(change=lambda o: _failing(o, "eval", 101))),
    # exceptions that pickle cannot send, and a child that dies without one
    "agm-d3-grad-raises-two-args": (
        "TwoArgError",
        _agm(change=lambda o: _failing(o, "grad", 57, lambda m: TwoArgError(1, m)))),
    "agm-d3-grad-raises-lambda": (
        "ValueError", _agm(change=lambda o: _failing(o, "grad", 57, _holding_a_lambda))),
    "agm-d3-child-dies": ("finished", _agm(change=_dying)),
    # pgm on (3,) arrays
    "pgm-d3-finished": ("finished", _pgm()),
    "pgm-d3-blows-up": ("blew-up", _pgm(iters=3000, h=1.0)),
}


@pytest.mark.parametrize("name", list(CASES))
def test_forked_run_matches_its_serial_twin(monkeypatch, name):
    path, run = CASES[name]
    serial, piped = _twins(monkeypatch, run)
    assert serial[0] == path
    assert piped == serial


def test_a_held_traceback_keeps_no_child_alive(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(momcert.driver, "PIPELINE_MIN_ROWS", 0)
    with pytest.raises(ValueError, match="eval failed") as err:
        CASES["agm-d3-eval-raises"][1]()
    assert err.value.__traceback__ is not None
    _assert_no_child_left()


def test_short_runs_and_runs_without_a_spare_core_stay_in_process(monkeypatch):
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked"))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    _agm(iters=momcert.driver.PIPELINE_MIN_ROWS - 2)()
    # a float flow needs seven times the rows
    _sine_flow(dt=1.0, horizon=7 * momcert.driver.PIPELINE_MIN_ROWS - 2.0)()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    _agm(iters=momcert.driver.PIPELINE_MIN_ROWS)()


def _stopping(monkeypatch, blocks, half):
    """Cut a forked recursion child to its first `blocks` blocks, then, if
    `half`, half of the next block's pickled bytes and a failed exit."""
    if half:
        monkeypatch.setattr(momcert.parallel, "pickle", cutting_pickle(blocks))
    else:
        forked = momcert.driver.forked
        monkeypatch.setattr(momcert.driver, "forked", lambda n, work: forked(
            n, lambda i: itertools.islice(work(i), blocks)))


@pytest.mark.parametrize("blocks,half", [(0, True), (3, True), (1, False), (4, False)])
@pytest.mark.parametrize("name", ["agm-d3-finished", "flow-floats-finished",
                                  "agm-d3-grad-raises"])
def test_a_child_that_stops_short_leaves_the_rest_to_this_process(monkeypatch, name,
                                                                  blocks, half):
    _stopping(monkeypatch, blocks, half)
    path, run = CASES[name]
    serial, piped = _twins(monkeypatch, run)
    assert serial[0] == path
    assert piped == serial
