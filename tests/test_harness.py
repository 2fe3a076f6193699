"""Harness: config handling, rate fitting, file output, CLI exit codes."""

import importlib
import json
import math
import os
import re
import resource
import shutil
import subprocess
import sys
import time
import warnings
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import momcert
from momcert import (
    ConfigError,
    ExperimentConfig,
    Trace,
    agm_params_pl,
    agm_params_qg,
    agm_params_sc,
    certify_trace,
    failed_checks,
    fit_linear_rate,
    main,
    ode_params_pl,
    ode_params_qg,
    ode_params_sc,
    pgm_params_qg,
    pgm_params_sc,
    rate_table,
    run_experiment,
)
from momcert.harness import (
    PROBLEMS,
    REGIMES,
    _knobs,
    build_params,
    build_problem,
    exit_code_for,
    load_config_file,
    rate_table_csv,
    rate_table_text,
)
from momcert.oracle import CompositeObjective
from momcert.params import _BUNDLES

from _reference import TwoArgError, cutting_pickle


def _cli_env():
    """The environment for a `python -m momcert` subprocess of this checkout."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(momcert.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]))


def _main_without_runtime_warnings(argv):
    """main(argv), asserting that it raised no RuntimeWarning."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(argv)
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    return rc


def _gap_trace(gaps, kind="agm"):
    gaps = np.asarray(gaps, dtype=float)
    cols = ("t", "f_gap") if kind == "ode" else ("k", "f_gap_y")
    data = np.column_stack([np.arange(len(gaps), dtype=float), gaps])
    return Trace(kind=kind, columns=cols, data=data, summary={})


class TestFitLinearRate:
    def test_exact_geometric_sequence(self):
        k = np.arange(200)
        tr = _gap_trace(7.0 * 1.1 ** (-k))
        assert fit_linear_rate(tr) == pytest.approx(0.1, abs=1e-12)

    def test_constant_sequence_fits_zero(self):
        tr = _gap_trace(np.full(100, 3.0))
        assert fit_linear_rate(tr) == pytest.approx(0.0, abs=1e-14)

    def test_exact_exponential_for_the_flow(self):
        t = np.arange(300, dtype=float)
        tr = _gap_trace(5.0 * np.exp(-0.7 * t), kind="ode")
        # flow traces report the continuous rate, no expm1 conversion
        assert fit_linear_rate(tr) == pytest.approx(0.7, abs=1e-12)

    def test_too_few_points_is_indeterminate(self):
        assert fit_linear_rate(_gap_trace(np.geomspace(1, 0.5, 15))) is None

    def test_degenerate_start_is_indeterminate(self):
        assert fit_linear_rate(_gap_trace(np.zeros(50))) is None
        assert fit_linear_rate(_gap_trace([np.nan] * 50)) is None

    def test_float_noise_tail_is_cut(self):
        k = np.arange(400)
        gaps = 7.0 * 1.1 ** (-k)
        gaps[200:] = 1e-16 * np.abs(np.sin(k[200:]))  # noise floor
        assert fit_linear_rate(_gap_trace(gaps)) == pytest.approx(0.1, rel=1e-9)


def _exiting_after_the_first(items):
    """A forked child's items cut to the first: the child exits once it is sent."""
    yield next(iter(items))
    os._exit(1)


class TestTraceIo:
    def test_csv_format_and_determinism(self, tmp_path):
        cfg = ExperimentConfig(problem="quadratic", d=4, q=0.1, iters=40, seed=3,
                               out=str(tmp_path / "a"))
        other = ExperimentConfig(problem="quadratic", d=4, q=0.1, iters=40, seed=3,
                                 out=str(tmp_path / "b"))
        ta = run_experiment(cfg)
        tb = run_experiment(other)
        fa = tmp_path / "a" / "quadratic_agm_sc_g1_w0_s3.csv"
        fb = tmp_path / "b" / "quadratic_agm_sc_g1_w0_s3.csv"
        assert fa.read_bytes() == fb.read_bytes()
        header = fa.read_text().splitlines()[0]
        assert header == "k,f_gap_x,f_gap_y,grad_norm,energy,certificate_slack,theorem_bound"
        assert ta.summary["csv_path"] == str(fa)
        assert tb.n_rows == 41

    @staticmethod
    def _assert_csv_matches(tmp_path, data, path=None):
        trace = Trace(kind="ode", columns=("a", "b", "c"), data=data)
        trace.write_csv(path or tmp_path / "t.csv")
        ref = "a,b,c\n" + "".join(",".join("%.17g" % v for v in row) + "\n"
                                  for row in data)
        assert (tmp_path / "t.csv").read_text() == ref
        assert [p.name for p in tmp_path.iterdir()] == ["t.csv"]  # no part left
        with pytest.raises(ChildProcessError):  # no part writer left
            os.waitpid(-1, os.WNOHANG)

    def test_csv_rows_match_per_value_formatting(self, tmp_path, monkeypatch):
        self._assert_csv_matches(tmp_path, np.array([[0.0, -0.0, np.nan],
                                                     [np.inf, -np.inf, 1e-310],
                                                     [0.1, 2.0 / 3.0, -1e300]]))
        # row counts on both sides of the 4,096-row part minimum, split in
        # two and three parts whatever this machine's core count
        values = [np.nan, np.inf, -np.inf, -0.0, 5e-324, 1e308, -1e308, 0.1]
        for cores in (2, 3):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)))
            for n in (1, 4095, 8191, 8192, 8193, 3 * 4096 + 17):
                data = np.random.default_rng(n).standard_normal((n, 3))
                data.flat[::5] = np.resize(values, data.flat[::5].size)
                self._assert_csv_matches(tmp_path, data)

    def test_csv_without_affinity_is_one_serial_part(self, tmp_path, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked"))
        self._assert_csv_matches(tmp_path, np.arange(3 * 9000.0).reshape(-1, 3))

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    def test_csv_needs_no_access_to_its_directory(self, tmp_path, monkeypatch):
        # no file can be made in /dev/fd, even by root; the path reopens t.csv
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        fd = os.open(tmp_path / "t.csv", os.O_WRONLY | os.O_CREAT)
        try:
            self._assert_csv_matches(tmp_path, np.full((3 * 4096, 3), 0.1), f"/dev/fd/{fd}")
        finally:
            os.close(fd)

    @pytest.mark.parametrize("failing", ["child", "parent"])
    def test_csv_part_failure_reaps_and_cleans_up(self, tmp_path, monkeypatch, failing):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        blocks = Trace._blocks

        def flaky(self, row, lo, hi):
            if (lo > 0) == (failing == "child"):
                raise RuntimeError("formatting failed")
            return blocks(self, row, lo, hi)

        monkeypatch.setattr(Trace, "_blocks", flaky)
        # 80 KB a part, more than a pipe holds: a child blocks until read. A
        # part a child did not send, this process formats, and raises as it
        trace = Trace(kind="ode", columns=("a",), data=np.full((3 * 4096, 1), 0.1))
        with pytest.raises(RuntimeError, match="^formatting failed$"):
            trace.write_csv(tmp_path / "t.csv")
        assert [p.name for p in tmp_path.iterdir()] == ["t.csv"]
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("cut", ["exit", "mid-block"])
    def test_csv_part_writer_that_stops_short_leaves_the_rest_here(self, tmp_path,
                                                                   monkeypatch, cut):
        # each part writer sends its first 256-row block whole, then exits, or
        # half of its second block's bytes, then exits; this process formats
        # the rest of every part
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        if cut == "exit":
            forked = momcert.trace.forked
            monkeypatch.setattr(momcert.trace, "forked", lambda n, work: forked(
                n, lambda i: _exiting_after_the_first(work(i))))
        else:
            monkeypatch.setattr(momcert.parallel, "pickle", cutting_pickle(1))
        data = np.random.default_rng(3).standard_normal((3 * 4096 + 17, 3))
        self._assert_csv_matches(tmp_path, data)

    def test_json_summary_is_strict(self, tmp_path):
        cfg = ExperimentConfig(problem="quadratic", d=3, q=0.1, iters=30,
                               out=str(tmp_path))
        tr = run_experiment(cfg)
        with open(tr.summary["json_path"]) as fh:
            loaded = json.load(fh)  # would fail on bare NaN tokens
        assert loaded["solver"] == "agm"
        assert loaded["certificates_failed"] == 0
        assert loaded["config"]["d"] == 3

    def test_column_access_errors(self):
        tr = _gap_trace([1.0, 0.5])
        with pytest.raises(KeyError):
            tr.column("no_such_column")
        with pytest.raises(ValueError):
            Trace(kind="agm", columns=("a", "b"), data=np.zeros((3, 3)), summary={})


class TestConfig:
    def test_defaults_validate(self):
        ExperimentConfig().validated()

    @pytest.mark.parametrize("bad", [
        dict(problem="cubic"),
        dict(solver="bfgs"),
        dict(regime="flat"),
        dict(d=1),                      # quadratic needs d >= 2
        dict(q=0.0),
        dict(q=1.5),
        dict(L=-1.0),
        dict(iters=0),
        dict(horizon=0.0),
        dict(dt=-0.1),
        dict(lam=-2.0, problem="lasso"),
        dict(seed=-1),
        dict(dt=math.nan),
        dict(lam=math.nan, problem="lasso"),
        dict(gamma=math.inf),
        dict(x0=-math.inf, problem="pl_sine"),
        dict(gamma=None),               # only derived defaults may be None
    ])
    def test_rejections(self, bad):
        with pytest.raises(ConfigError):
            ExperimentConfig(**bad).validated()

    def test_solver_dispatch(self):
        assert ExperimentConfig(problem="lasso").resolved_solver() == "pgm"
        assert ExperimentConfig(problem="quadratic").resolved_solver() == "agm"
        assert ExperimentConfig(problem="pl_sine").resolved_solver() == "agm"
        assert ExperimentConfig(solver="ode").resolved_solver() == "ode"

    def test_config_file_round_trip(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# comment line\n"
            "problem = pl_sine   # trailing comment\n"
            "regime = pl\n"
            "x0 = 5.0\n"
            "iters = 250\n"
            "certify = yes\n"
            "quiet = off\n"
            "\n"
        )
        values = load_config_file(path)
        assert values == {"problem": "pl_sine", "regime": "pl", "x0": 5.0,
                          "iters": 250, "certify": True, "quiet": False}

    def test_config_file_errors(self, tmp_path):
        bad_key = tmp_path / "k.cfg"
        bad_key.write_text("stepsize = 3\n")
        with pytest.raises(ConfigError):
            load_config_file(bad_key)
        bad_val = tmp_path / "v.cfg"
        bad_val.write_text("iters = soon\n")
        with pytest.raises(ConfigError):
            load_config_file(bad_val)
        bad_line = tmp_path / "l.cfg"
        bad_line.write_text("just words\n")
        with pytest.raises(ConfigError):
            load_config_file(bad_line)


class TestBuilders:
    def test_quadratic_instance_shape(self):
        obj, x0 = build_problem(ExperimentConfig(d=6, q=0.01, L=50.0, seed=4))
        assert obj.dimension == 6
        assert obj.strong_convexity == pytest.approx(0.5, rel=1e-12)
        assert obj.lipschitz == pytest.approx(50.0, rel=1e-12)
        assert x0.shape == (6,)

    def test_seed_changes_instance(self):
        a, xa = build_problem(ExperimentConfig(d=4, seed=1))
        b, xb = build_problem(ExperimentConfig(d=4, seed=2))
        assert not np.allclose(a.minimizer, b.minimizer)
        assert not np.allclose(xa, xb)

    def test_pl_sine_start(self):
        obj, x0 = build_problem(ExperimentConfig(problem="pl_sine", x0=-3.5))
        np.testing.assert_array_equal(x0, [-3.5])
        assert obj.lipschitz == 8.0

    def test_lasso_auto_penalty_bites(self):
        cfg = ExperimentConfig(problem="lasso", d=8, q=0.01, seed=5)
        obj, _ = build_problem(cfg)
        assert isinstance(obj, CompositeObjective)
        assert np.sum(np.abs(obj.minimizer) < 1e-10) >= 1

    def test_params_dispatch_errors(self):
        quad, _ = build_problem(ExperimentConfig(d=4))
        with pytest.raises(ConfigError, match=r"\[1, 2\]"):
            build_params(ExperimentConfig(d=4, gamma=3.0), quad)
        with pytest.raises(ConfigError):
            build_params(ExperimentConfig(d=4, solver="pgm"), quad)
        with pytest.raises(ConfigError):
            # no gradient-domination constant on a lasso objective
            build_params(ExperimentConfig(problem="lasso", regime="pl"),
                         build_problem(ExperimentConfig(problem="lasso", d=4))[0])
        lasso, _ = build_problem(ExperimentConfig(problem="lasso", d=4))
        with pytest.raises(ConfigError):
            build_params(ExperimentConfig(problem="lasso", solver="agm"), lasso)
        with pytest.raises(ConfigError):
            build_params(ExperimentConfig(problem="lasso", solver="ode"), lasso)

    ADMISSIBLE = {("quadratic", s, r) for s in ("agm", "ode") for r in REGIMES} | {
        ("pl_sine", "agm", "pl"), ("pl_sine", "ode", "pl"),
        ("lasso", "pgm", "sc"), ("lasso", "pgm", "qg")}

    @pytest.mark.parametrize("regime", REGIMES)
    @pytest.mark.parametrize("solver", ["agm", "pgm", "ode"])
    @pytest.mark.parametrize("problem", PROBLEMS)
    def test_params_match_the_direct_constructor_call(self, problem, solver, regime):
        config = ExperimentConfig(problem=problem, d=4, q=0.1, solver=solver,
                                  regime=regime, gamma=1.5, omega=0.5)
        obj, _ = build_problem(config)
        if (problem, solver, regime) not in self.ADMISSIBLE:
            with pytest.raises(ConfigError):
                build_params(config, obj)
            return
        smooth = obj.smooth if isinstance(obj, CompositeObjective) else obj
        mu = {"sc": smooth.strong_convexity, "qg": obj.qg_constant,
              "pl": smooth.pl_constant}[regime]
        big_l = smooth.lipschitz
        # the README's defaults: beta = 1/sqrt(L); the flow's alpha = 2 sqrt(mu)
        # in sc/qg and theta = 1 in pl
        beta, alpha = 1.0 / math.sqrt(big_l), 2.0 * math.sqrt(mu)
        direct = {
            ("agm", "sc"): lambda: agm_params_sc(mu, big_l, 1.5, 0.5),
            ("agm", "qg"): lambda: agm_params_qg(mu, big_l, 1.5, 0.5),
            ("agm", "pl"): lambda: agm_params_pl(mu, big_l),
            ("pgm", "sc"): lambda: pgm_params_sc(mu, big_l, 0.5),
            ("pgm", "qg"): lambda: pgm_params_qg(mu, big_l, 0.5),
            ("ode", "sc"): lambda: ode_params_sc(mu, alpha, beta, 0.5),
            ("ode", "qg"): lambda: ode_params_qg(mu, alpha, beta, 0.5),
            ("ode", "pl"): lambda: ode_params_pl(mu, beta, 1.0),
        }[solver, regime]
        assert build_params(config, obj) == direct()

    @pytest.mark.parametrize("problem,solver,regime", sorted(ADMISSIBLE))
    def test_knobs_are_the_inputs_the_bundle_reads(self, problem, solver, regime):
        # the sweep refuses a grid whose runs share their _knobs, so a knob
        # must be among them exactly when changing it changes the bundle
        base = ExperimentConfig(problem=problem, d=4, q=0.1, solver=solver, regime=regime)
        obj, _ = build_problem(base)
        assert (solver, regime) in _BUNDLES
        for tag, key, value in (("g", "gamma", 1.5), ("w", "omega", 0.5)):
            moved = build_params(replace(base, **{key: value}), obj) != build_params(base, obj)
            assert moved == (tag in _knobs(base)), key

    @pytest.mark.parametrize("solver,regime", sorted(_BUNDLES))
    def test_each_bundle_is_built_through_the_harness_name(self, monkeypatch, solver,
                                                           regime):
        # bench/tracer.py times params.bundle by patching these names in
        # momcert.harness; a build that bypassed them would read 0 calls
        name = _BUNDLES[solver, regime][0]
        problem = min(p for p, s, r in self.ADMISSIBLE if (s, r) == (solver, regime))
        make, calls = getattr(momcert.harness, name), []
        monkeypatch.setattr(momcert.harness, name,
                            lambda *args: calls.append(args) or make(*args))
        config = ExperimentConfig(problem=problem, d=4, q=0.1, solver=solver, regime=regime)
        bundle = build_params(config, build_problem(config)[0])
        assert len(calls) == 1 and bundle == make(*calls[0])

    # a changed value for every key but problem and seed (seed is part of
    # every instance key)
    CHANGED = dict(d=5, q=0.2, L=50.0, lam=0.5, x0=-3.0, x0_scale=1.0, solver="ode",
                   regime="qg", gamma=1.5, omega=0.5, alpha=0.3, beta=0.2, theta=2.0,
                   iters=7, horizon=3.0, dt=0.01, certify=False, out="elsewhere",
                   csv="a.csv", json="a.json", quiet=True)

    @pytest.mark.parametrize("problem", PROBLEMS)
    def test_table_row_agrees_with_its_instance(self, problem):
        # the row's composite flag, regimes and keys decide what is refused
        # before the build, so each must hold of the instance built
        row = momcert.harness._PROBLEMS[problem]
        config = ExperimentConfig(problem=problem, d=4, q=0.1)
        obj, x0 = build_problem(config)
        assert isinstance(obj, CompositeObjective) == row.composite
        smooth = obj.smooth if row.composite else obj
        constants = {"sc": smooth.strong_convexity, "qg": obj.qg_constant,
                     "pl": smooth.pl_constant}
        assert [r for r in REGIMES if constants[r] is not None] == list(row.regimes)
        assert set(self.CHANGED) == {f.name for f in fields(ExperimentConfig)} - {
            "problem", "seed"}
        assert set(row.keys) < set(self.CHANGED)
        bits = _instance_bits(obj, x0)
        for key, value in self.CHANGED.items():
            changed = _instance_bits(*build_problem(replace(config, **{key: value})))
            assert (changed != bits) == (key in row.keys), key

    def test_lasso_reference_failure_is_a_config_error(self, monkeypatch):
        # the reference minimizer can run out of iterations (seen at
        # q = 1e-9, lam = 0 after minutes); stand in for it
        def no_reference(*args):
            raise RuntimeError("reference proximal gradient did not reach ||G|| <= 1e-12")
        monkeypatch.setattr(momcert.harness, "lasso_problem", no_reference)
        with pytest.raises(ConfigError, match="lasso instance .* cannot be built"):
            build_problem(ExperimentConfig(problem="lasso", d=4))

    def test_flow_defaults(self):
        quad, _ = build_problem(ExperimentConfig(d=4, q=0.01, L=100.0))
        p = build_params(ExperimentConfig(d=4, q=0.01, L=100.0, solver="ode"), quad)
        assert p.alpha == pytest.approx(2.0 * math.sqrt(1.0), rel=1e-12)
        assert p.beta == pytest.approx(0.1, rel=1e-12)


def _instance_bits(obj, x0) -> tuple:
    """The bytes of an objective's constants, of its oracles at two points
    and of the start point x0."""
    composite = isinstance(obj, CompositeObjective)
    smooth = obj.smooth if composite else obj
    values = [smooth.lipschitz, smooth.strong_convexity, smooth.pl_constant,
              obj.qg_constant, obj.min_value, obj.minimizer, x0]
    for x in (np.linspace(-1.0, 2.0, smooth.dimension), x0):
        values += [smooth.eval(x), smooth.grad(x)]
        if composite:
            values += [obj.prox_term.eval(x), obj.prox_term.prox(x, 0.1)]
    return tuple(None if v is None else np.asarray(v, dtype=float).tobytes() for v in values)


class TestRunExperiment:
    def test_summary_extras(self, tmp_path):
        cfg = ExperimentConfig(d=5, q=0.01, iters=300, seed=7, out=str(tmp_path))
        tr = run_experiment(cfg)
        s = tr.summary
        assert s["certificates_failed"] == 0
        assert s["fitted_rate"] is not None
        assert s["fitted_rate"] >= s["rho_theory"] * 0.9
        assert s["config"]["seed"] == 7
        assert "out" not in s["config"]

    def test_no_write_mode_leaves_no_paths(self):
        tr = run_experiment(ExperimentConfig(d=3, q=0.1, iters=50), write=False)
        assert "csv_path" not in tr.summary

    def test_env_var_out_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("MOMCERT_OUT", str(tmp_path / "envout"))
        tr = run_experiment(ExperimentConfig(d=3, q=0.1, iters=40))
        assert str(tmp_path / "envout") in tr.summary["csv_path"]

    @pytest.mark.parametrize("target, config", [
        ("momcert.agm.agm_step", ExperimentConfig(d=3, q=0.1, iters=50)),
        ("momcert.pgm.pgm_step", ExperimentConfig(problem="lasso", d=3, q=0.1, iters=50)),
        ("momcert.ode.rk4_step", ExperimentConfig(solver="ode", d=3, q=0.1, horizon=2.0,
                                                  dt=0.01)),
        ("momcert.ode.rk4_step", ExperimentConfig(problem="pl_sine", solver="ode",
                                                  regime="pl", horizon=2.0, dt=0.01)),
    ], ids=["agm", "pgm", "ode", "ode-floats"])
    def test_each_run_steps_through_its_public_kernel(self, monkeypatch, target, config):
        # a run must look its step up as this module attribute on every step:
        # that is the name a loop over the per-step API (or a profiler) patches
        module, name = target.rsplit(".", 1)
        kernel = getattr(importlib.import_module(module), name)
        calls = [0]

        def counted(*args):
            calls[0] += 1
            return kernel(*args)

        monkeypatch.setattr(target, counted)
        tr = run_experiment(config, write=False)
        assert tr.summary["aborted_at"] is None and tr.summary["certificates_failed"] == 0
        assert calls[0] == tr.n_rows - 1
        if tr.kind != "ode":
            assert calls[0] == config.iters

    def test_exit_code_mapping(self):
        clean = _gap_trace([1.0, 0.5])
        clean.summary.update(certificates_failed=0, aborted_at=None)
        assert exit_code_for(clean) == 0
        failed = _gap_trace([1.0, 0.5])
        failed.summary.update(certificates_failed=3, aborted_at=None)
        assert exit_code_for(failed) == 1
        blown = _gap_trace([1.0, 0.5])
        blown.summary.update(certificates_failed=0, aborted_at=17)
        assert exit_code_for(blown) == 1


class TestOfflineVerdict:
    """A run's CSV and JSON alone reproduce every certificate verdict."""

    @pytest.mark.parametrize("problem,scale", [
        ("quadratic", 1.0), ("quadratic", 3.0), ("lasso", 1.0), ("lasso", 3.0),
    ])
    def test_verdicts_from_energy_slack_and_tolerances(self, tmp_path, problem, scale):
        config = ExperimentConfig(problem=problem, d=8, q=0.01, seed=2, omega=1.0)
        obj, x0 = build_problem(config)
        p = build_params(config, obj)
        run = momcert.agm_run if problem == "quadratic" else momcert.pgm_run
        # scale 3 claims three times the certified contraction, so checks fail
        tr = run(obj, replace(p, A=scale * p.A), x0, 300)
        tr.write_csv(tmp_path / "run.csv")
        tr.write_json(tmp_path / "run.json")

        table = np.genfromtxt(tmp_path / "run.csv", delimiter=",", names=True)
        s = json.loads((tmp_path / "run.json").read_text())
        energy, slack = table["energy"][:-1], table["certificate_slack"][:-1]
        tol = s["certificate_tol_abs"] + s["certificate_tol_rel"] * np.abs(energy)
        failed = np.flatnonzero(~(slack >= -tol))
        assert s["certificate_tol_abs"] == 1e-12 * (1.0 + abs(table["energy"][0]))
        assert failed.tolist() == failed_checks(tr)[0].tolist()
        assert s["certificates_checked"] == len(slack)
        assert s["certificates_failed"] == len(failed)
        assert (len(failed) > 0) == (scale > 1.0)

    @pytest.mark.parametrize("case", ["clean", "failing", "aborted"])
    @pytest.mark.parametrize("solver", ["agm", "pgm", "ode"])
    def test_certify_trace_reproduces_the_run(self, tmp_path, solver, case):
        config = ExperimentConfig(problem="lasso" if solver == "pgm" else "quadratic",
                                  d=8, q=0.01, seed=2, omega=1.0, solver=solver)
        obj, x0 = build_problem(config)
        p = build_params(config, obj)
        if solver == "ode":
            # a tripled decay rate fails checks; dt = 1 leaves RK4's stability region
            p = replace(p, decay_rate=3.0 * p.decay_rate) if case == "failing" else p
            tr = momcert.ode_run(obj, p, x0, 400.0 if case == "aborted" else 6.0,
                                 dt=1.0 if case == "aborted" else None)
        else:
            # a tripled A fails checks; agm diverges at gamma = 50, pgm at h = 1
            tamper = {"clean": {}, "failing": {"A": 3.0 * p.A},
                      "aborted": {"gamma": 50.0} if solver == "agm" else {"h": 1.0}}
            run = momcert.agm_run if solver == "agm" else momcert.pgm_run
            tr = run(obj, replace(p, **tamper[case]), x0, 300)
        s = tr.summary
        assert (s["aborted_at"] is not None) == (case == "aborted")
        assert (s["certificates_failed"] > 0) == (case == "failing" or solver != "ode"
                                                  and case == "aborted")

        tr.write_csv(tmp_path / "run.csv")
        tr.write_json(tmp_path / "run.json")
        header = (tmp_path / "run.csv").read_text().split("\n", 1)[0].split(",")
        data = np.loadtxt(tmp_path / "run.csv", delimiter=",", skiprows=1, ndmin=2)
        data[:, header.index("certificate_slack")] = np.nan
        loaded = json.loads((tmp_path / "run.json").read_text())
        back = certify_trace(Trace(kind=loaded["solver"], columns=tuple(header),
                                   data=data, summary=loaded))

        assert (back.column("certificate_slack").tobytes()
                == tr.column("certificate_slack").tobytes())
        for key in ("certificates_checked", "certificates_failed",
                    "min_certificate_slack", "certificate_tol_abs",
                    "certificate_tol_rel", "envelope_slack"):
            np.testing.assert_equal(back.summary.get(key), s.get(key))
        np.testing.assert_equal(failed_checks(back), failed_checks(tr))


class TestRateTable:
    def test_rows_and_rendering(self, tmp_path):
        base = dict(d=4, q=0.1, iters=150, seed=2)
        rows = rate_table([
            ExperimentConfig(gamma=1.0, omega=0.0, **base),
            ExperimentConfig(gamma=2.0, omega=1.0, **base),
        ])
        assert len(rows) == 2
        assert rows[0]["gamma"] == 1.0 and rows[1]["gamma"] == 2.0
        assert all(r["certificates_passed"] == r["certificates_checked"] > 0
                   for r in rows)
        assert rows[1]["rho_theory"] > rows[0]["rho_theory"]
        text = rate_table_text(rows)
        assert text.splitlines()[0].startswith("regime")
        assert len(text.splitlines()) == 3
        out = tmp_path / "rates.csv"
        rate_table_csv(rows, out)
        assert out.read_text().count("\n") == 3

    def test_rows_without_gamma_sort_by_omega(self):
        # pgm has no gamma; its NaN cell must not stop the sort on omega
        base = dict(problem="lasso", d=8, iters=200, seed=2)
        rows = rate_table([ExperimentConfig(omega=w, **base) for w in (1.0, 0.0, 0.5)])
        assert [r["omega"] for r in rows] == [0.0, 0.5, 1.0]
        assert all(math.isnan(r["gamma"]) for r in rows)
        assert rate_table_text(rows).splitlines()[1].split()[1] == "nan"

    def test_rejects_mixed_instances(self):
        with pytest.raises(ConfigError):
            rate_table([
                ExperimentConfig(d=4, seed=1),
                ExperimentConfig(d=4, seed=2),
            ])

    def test_rejects_mixed_penalties(self):
        with pytest.raises(ConfigError, match="one problem instance"):
            rate_table([
                ExperimentConfig(problem="lasso", d=4, lam=0.01),
                ExperimentConfig(problem="lasso", d=4, lam=5.0),
            ])


def _cores(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestParallelRateTable:
    """Members split over forked workers give the rows and files of a serial run."""

    BASE = dict(problem="quadratic", d=4, q=0.1, iters=120, seed=2)

    def _sweep(self, tmp_path, monkeypatch, cores):
        _cores(monkeypatch, cores)
        out = tmp_path / "out"  # one path for all: the summaries name it
        assert main(["sweep", "--problem", "quadratic", "--d", "4", "--q", "0.1",
                     "-k", "120", "--seed", "2", "--gamma", "1,1.5,2",
                     "--omega", "0,0.5,1", "--quiet", "--out", str(out)]) == 0
        _assert_no_child_left()
        files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        for name in [n for n in files if n.endswith(".json")]:  # all but the clock
            files[name] = re.sub(rb'"wall_time_s": [^\n]*', b"", files[name])
        shutil.rmtree(out)
        return files

    @pytest.mark.parametrize("cores", [2, 3, 16])
    def test_sweep_files_match_a_serial_sweep(self, tmp_path, monkeypatch, cores):
        with monkeypatch.context() as serial_only:
            serial_only.setattr(os, "fork", lambda: pytest.fail("forked"))
            serial = self._sweep(tmp_path, monkeypatch, 1)
        assert len(serial) == 2 * 9 + 1  # csv and json per member, the rate table
        assert self._sweep(tmp_path, monkeypatch, cores) == serial

    @pytest.mark.parametrize("cores", [2, 3, 16])
    def test_rows_match_serial_rows_in_config_order_on_ties(self, monkeypatch, cores):
        # members 2, 3 and 4 tie on (regime, gamma, omega): a repeated config
        # and a shorter run; two or three shares take them out of order
        tie = ExperimentConfig(gamma=2.0, omega=1.0, **self.BASE)
        configs = [replace(tie, omega=0.0), replace(tie, gamma=1.0), tie, tie,
                   replace(tie, iters=60), replace(tie, gamma=1.0, omega=0.0)]
        _cores(monkeypatch, 1)
        serial = rate_table(configs)
        _cores(monkeypatch, cores)
        rows = rate_table(configs)
        _assert_no_child_left()
        assert rows == serial
        assert [r["certificates_checked"] for r in rows
                if (r["gamma"], r["omega"]) == (2.0, 1.0)] == [120, 120, 60]

    def test_members_on_two_cores_fork_nothing(self, tmp_path, monkeypatch):
        # members of 9,001 rows would fork their recursion and a CSV part
        # writer on a free core; the sweep's two processes hold both cores
        _cores(monkeypatch, 2)
        log, fork = tmp_path / "forks", os.fork

        def logged_fork():
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()}\n")
            return fork()

        monkeypatch.setattr(os, "fork", logged_fork)
        assert main(["sweep", "--problem", "quadratic", "--d", "2", "--q", "0.1",
                     "-k", "9000", "--gamma", "1,2", "--omega", "0", "--quiet",
                     "--out", str(tmp_path / "out")]) == 0
        _assert_no_child_left()
        assert log.read_text().split() == [str(os.getpid())]  # the sweep's own fork

    @pytest.mark.parametrize("cut", ["exit", "mid-row"])
    @pytest.mark.parametrize("cores", [2, 3])
    def test_a_worker_that_dies_leaves_its_members_to_this_process(self, tmp_path,
                                                                   monkeypatch, cores, cut):
        # a worker exits at its first member, or after its first row and half
        # of its second row's bytes; this process runs every member not sent
        configs = [ExperimentConfig(omega=w, **self.BASE) for w in (0.0, 0.25, 0.5, 0.75, 1.0)]
        with monkeypatch.context() as serial_only:
            serial_only.setattr(os, "fork", lambda: pytest.fail("forked"))
            serial = self._sweep(tmp_path, monkeypatch, 1)
            serial_rows = rate_table(configs)
        if cut == "exit":
            parent, run = os.getpid(), momcert.harness.run_experiment

            def die_in_a_worker(*args):
                if os.getpid() != parent:
                    os._exit(3)
                return run(*args)

            monkeypatch.setattr(momcert.harness, "run_experiment", die_in_a_worker)
        else:
            monkeypatch.setattr(momcert.parallel, "pickle", cutting_pickle(1))
        assert self._sweep(tmp_path, monkeypatch, cores) == serial  # exit 0, no child left
        assert rate_table(configs) == serial_rows
        _assert_no_child_left()

    @pytest.mark.parametrize("cores", [1, 2, 3])
    def test_member_exception_reraises_the_first_in_config_order(self, monkeypatch,
                                                                 cores):
        # members 1 and 2 raise; with two cores member 1 is the worker's and
        # member 2 the parent's own, yet member 1's exception is the one raised
        _cores(monkeypatch, cores)
        run = momcert.harness.run_experiment

        def flaky(config, *args):
            if config.omega in (0.25, 0.5):
                raise ZeroDivisionError(f"member at omega {config.omega}")
            return run(config, *args)

        monkeypatch.setattr(momcert.harness, "run_experiment", flaky)
        with pytest.raises(ZeroDivisionError, match="^member at omega 0.25$"):
            rate_table([ExperimentConfig(omega=w, **self.BASE)
                        for w in (0.0, 0.25, 0.5, 0.75)])
        _assert_no_child_left()

    @pytest.mark.parametrize("cores", [2, 3])
    def test_member_exception_pickle_cannot_rebuild_reraises_unchanged(self, monkeypatch,
                                                                      cores):
        # member 1 raises in a worker on two and on three cores
        _cores(monkeypatch, cores)
        run = momcert.harness.run_experiment

        def flaky(config, *args):
            if config.omega == 0.25:
                raise TwoArgError(1, f"member at omega {config.omega}")
            return run(config, *args)

        monkeypatch.setattr(momcert.harness, "run_experiment", flaky)
        with pytest.raises(TwoArgError, match=r"^member at omega 0.25 \(code 1\)$"):
            rate_table([ExperimentConfig(omega=w, **self.BASE) for w in (0.0, 0.25, 0.5)])
        _assert_no_child_left()

    def test_benchmark_smoke_sweep_counts_the_parents_steps(self):
        metrics, _ = _bench_smoke("sweep_quadratic", trace=0)
        assert metrics["solve_steps_per_s"]["value"] > 0

    @pytest.mark.parametrize("workload,solver", [
        ("sweep_quadratic", "agm"), ("flow_rk4", "ode"), ("certify_lasso", "pgm")])
    def test_benchmark_smoke_trace_reaches_the_bundles_and_the_run(self, workload,
                                                                   solver):
        # the tracer patches the bundle constructors in the harness's globals
        # and the runs in their modules; a rename or a captured reference
        # would leave these layers at 0
        metrics, stderr = _bench_smoke(workload, trace=1)
        assert metrics["params.bundle.us"]["value"] > 0
        assert metrics[f"{solver}.run.self_us_per_step"]["value"] > 0
        assert "not traced, the program has no momcert.harness:" not in stderr


def _bench_smoke(workload: str, trace: int) -> tuple[dict, str]:
    """The metrics and stderr of a seconds-0 smoke run of the benchmark,
    asserting that it exited 0, checked correct and failed no command."""
    run_py = Path(momcert.__file__).parents[2] / "bench" / "run.py"
    proc = subprocess.run(
        [sys.executable, str(run_py), "--workload", workload, "--smoke",
         "--seed", "2", "--seconds", "0", "--trace", str(trace)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    return result["metrics"], proc.stderr


# Inputs the problem table refuses before any instance is built: an unknown
# problem read from a file, a solver or regime the problem does not admit,
# and a generated instance with one curvature.
_REFUSED_UNBUILT = {
    "cubic-config-sweep": ["sweep", "--config", "{inputs}/cubic.cfg"],
    "cubic-config-rates": ["rates", "--config", "{inputs}/cubic.cfg"],
    "lasso-agm": ["solve", "--problem", "lasso", "--solver", "agm", "--q", "1e-5",
                  "--d", "5", "--lam", "0"],
    "lasso-ode": ["sweep", "--problem", "lasso", "--solver", "ode", "--q", "1e-4",
                  "--d", "5", "--lam", "0", "--omega", "0,1"],
    "quadratic-pgm": ["solve", "--problem", "quadratic", "--d", "4", "--solver", "pgm"],
    "lasso-pl": ["solve", "--problem", "lasso", "--regime", "pl", "--q", "1e-5",
                 "--d", "5", "--lam", "0"],
    "pl_sine-sc": ["ode", "--problem", "pl_sine", "--regime", "sc"],
    "lasso-d1": ["solve", "--problem", "lasso", "--d", "1"],
}

# Output files that could not be written, refused before any instance is
# built: an output directory under a file, a trace file in a directory that
# does not exist or that is a directory, and a table likewise.
_UNWRITABLE = {
    "out-under-a-file": ["solve", "--d", "3", "-k", "5", "--out", "{inputs}/cubic.cfg/x"],
    "csv-in-missing-dir": ["solve", "--d", "3", "-k", "5", "--csv", "sub/x.csv"],
    "json-in-missing-dir": ["solve", "--d", "3", "-k", "5", "--json", "nodir/y.json"],
    "csv-is-a-directory": ["solve", "--d", "3", "-k", "5", "--csv", "{inputs}"],
    "sweep-table-in-missing-dir": ["sweep", "--d", "3", "-k", "5", "--gamma", "1,2",
                                   "--csv", "sub/t.csv"],
    "rates-table-in-missing-dir": ["rates", "--d", "3", "-k", "5", "--gamma", "1,2",
                                   "--csv", "sub/t.csv"],
}


def _no_build(config):
    raise AssertionError(f"built a {config.problem} instance")


def _rejected(tmp_path, capsys, argv) -> str:
    """stderr of main(argv), asserting exit 2 and no output directory.

    The output directory goes first, so that an --out in argv wins.
    """
    inputs, out = tmp_path / "inputs", tmp_path / "out"
    inputs.mkdir()
    (inputs / "latin1.cfg").write_bytes("# d\xe9faut\nd = 4\n".encode("latin-1"))
    (inputs / "cubic.cfg").write_text("problem = cubic\n")
    argv = [arg.format(inputs=inputs) for arg in argv]
    assert main([argv[0], "--out", str(out), *argv[1:]]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err
    assert not out.exists()
    return err


class TestCli:
    def test_solve_and_exit_zero(self, tmp_path, capsys):
        rc = main(["solve", "--problem", "quadratic", "--d", "4", "--q", "0.1",
                   "--iters", "100", "--seed", "1", "--out", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "certificates: 100/100 passed" in out
        assert (tmp_path / "quadratic_agm_sc_g1_w0_s1.csv").exists()

    def test_certify_subcommand(self, tmp_path, capsys):
        rc = main(["certify", "--problem", "lasso", "--d", "4", "--iters", "80",
                   "--out", str(tmp_path), "--seed", "2"])
        assert rc == 0
        assert "all certificates passed" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [
        ["certify", "-k", "10000"],
        ["certify", "--problem", "lasso", "--q", "0.1", "--d", "10", "-k", "3000"],
        ["sweep", "--q", "0.1", "--d", "10", "-k", "5000", "--gamma", "1,2", "--omega", "0"],
    ], ids=["certify-quadratic", "certify-lasso", "sweep"])
    def test_bound_past_the_float_range(self, tmp_path, capsys, argv):
        # (1 + rho)^k overflows a float before the last row (from k = 8,158,
        # 2,584, and 3,297 and 2,636 in the sweep); the bound then decays to 0
        assert main([*argv, "--quiet", "--out", str(tmp_path)]) == 0
        assert "Traceback" not in capsys.readouterr().err
        csvs = sorted(tmp_path.glob("*_s0.csv"))
        assert len(csvs) == (2 if argv[0] == "sweep" else 1)
        for path in csvs:
            assert path.with_suffix(".json").exists()
            bound = np.loadtxt(path, delimiter=",", skiprows=1)[:, -1]
            assert len(bound) == int(argv[argv.index("-k") + 1]) + 1
            assert np.isfinite(bound).all() and (bound >= 0).all()
            assert (np.diff(bound) <= 0).all() and bound[-1] == 0

    @pytest.mark.parametrize("argv,key,envelope_listed", [
        (["--problem", "quadratic", "--d", "8", "--seed", "2", "--omega", "1",
          "-k", "300"], "A", False),
        (["--solver", "ode", "--problem", "quadratic", "--d", "8", "--seed", "2",
          "--omega", "1", "-T", "2"], "decay_rate", False),
        # ten failures, the global envelope check the last of them
        (["--solver", "ode", "--problem", "pl_sine", "--regime", "pl", "--x0", "-3",
          "-T", "0.5"], "decay_rate", True),
    ], ids=["agm", "ode", "ode-envelope"])
    def test_failing_certify_lists_its_failures(self, tmp_path, capsys, monkeypatch,
                                                argv, key, envelope_listed):
        # claim three times the certified rate so that checks fail
        build = momcert.harness.build_params
        monkeypatch.setattr(momcert.harness, "build_params", lambda config, obj: replace(
            p := build(config, obj), **{key: 3.0 * getattr(p, key)}))
        rc = main(["certify", *argv, "--out", str(tmp_path), "--csv", "run.csv",
                   "--json", "run.json"])
        assert rc == 1
        table = np.genfromtxt(tmp_path / "run.csv", delimiter=",", names=True)
        s = json.loads((tmp_path / "run.json").read_text())
        # the failures by the rules in the README, from the two files alone
        n, slack = s["certificates_checked"], table["certificate_slack"]
        if key == "A":
            tol = s["certificate_tol_abs"] + s["certificate_tol_rel"] * np.abs(
                table["energy"][:n])
            failed = [(k, slack[k]) for k in np.flatnonzero(~(slack[:n] >= -tol))]
        else:
            failed = [(k, slack[k]) for k in range(1, n) if not slack[k] >= 0]
            failed += [(-1, s["envelope_slack"])] if s["envelope_slack"] < 0 else []
        assert len(failed) == s["certificates_failed"] >= 10
        lines = capsys.readouterr().out.splitlines()
        listed = [line for line in lines if line.startswith("FAILED k=")]
        assert listed == [f"FAILED k={k}: slack {z:.3e}" for k, z in failed[:10]]
        more = [f"... and {len(failed) - 10} more failures"] if len(failed) > 10 else []
        assert lines[-len(more) - 1:] == more + [f"{len(failed)} certificate(s) FAILED"]
        assert ("FAILED k=-1: " in listed[-1]) == envelope_listed

    def test_ode_subcommand(self, tmp_path, capsys):
        rc = main(["ode", "--problem", "quadratic", "--d", "3", "--q", "0.1",
                   "--horizon", "4", "--out", str(tmp_path), "--quiet"])
        assert rc == 0
        assert capsys.readouterr().out == ""

    def test_config_error_exits_two(self, tmp_path, capsys):
        rc = main(["solve", "--problem", "quadratic", "--gamma", "3",
                   "--out", str(tmp_path)])
        assert rc == 2
        assert "configuration error" in capsys.readouterr().err

    def test_unbuildable_instance_exits_two(self, tmp_path, capsys):
        # at q = 1e-6 the minimizer fails its residual check; the CLI must
        # report that as a configuration error, not a traceback
        rc = main(["solve", "--q", "1e-6", "--d", "50", "--seed", "1",
                   "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and "residual" in err
        assert not list(tmp_path.iterdir())

    def test_overflowing_quadratic_exits_two_without_warnings(self, tmp_path, capsys):
        # at L = 1e308, Q overflows and leaves a NaN residual: refused before
        # any run, with no RuntimeWarning and no file written
        rc = _main_without_runtime_warnings(["solve", "--L", "1e308", "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and "cannot be built" in err
        assert not list(tmp_path.iterdir())

    def test_lasso_past_the_reference_cap_exits_two_at_once(self, tmp_path, capsys):
        # kappa = 1e13 would need about 1e8 accelerated reference steps; the
        # estimate refuses the instance before the loop instead of after 10^7
        start = time.perf_counter()
        rc = main(["solve", "--problem", "lasso", "--q", "1e-13", "--d", "5",
                   "--lam", "0", "--out", str(tmp_path)])
        assert time.perf_counter() - start < 2.0
        assert rc == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and "cannot be built" in err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("argv", [
        ["solve", "--d", "4", "--seed", "-1"],
        ["ode", "--problem", "pl_sine", "--regime", "pl", "--dt", "nan"],
        ["solve", "--problem", "lasso", "--d", "4", "--lam", "nan"],
        ["sweep", "--d", "4", "--gamma", ","],
        # refused by the row limit before the trace is allocated
        ["solve", "--d", "4", "--iters", "1000000000000000"],
        ["ode", "--d", "4", "--horizon", "1e15", "--dt", "1e-3"],
        # horizon / dt overflows to an infinite step count
        ["ode", "--d", "4", "--dt", "1e-320"],
        # config files that cannot be read ({inputs} is a directory)
        ["solve", "--config", "{inputs}/missing.cfg"],
        ["solve", "--config", "{inputs}"],
        ["solve", "--config", "{inputs}/latin1.cfg"],
        # A's smallest singular value is 1e-14 of its largest
        ["solve", "--problem", "lasso", "--q", "1e-30", "--d", "20"],
        # grid points that collapse to one run: pgm has no gamma, and the
        # pl bundle neither gamma nor omega
        ["sweep", "--problem", "lasso", "--d", "6", "-k", "100", "--gamma", "1,2",
         "--omega", "1,0"],
        ["rates", "--regime", "pl", "--gamma", "1,2", "--d", "4", "--q", "0.1"],
        # an inadmissible grid point after an admissible one: no trace written
        ["sweep", "--problem", "quadratic", "--d", "4", "-k", "50", "--gamma", "1,9",
         "--omega", "0"],
        ["sweep", "--problem", "quadratic", "--d", "4", "-k", "50", "--omega", "0,7"],
        # the flow in pl reads no omega, though its file names carry one
        ["sweep", "--solver", "ode", "--problem", "pl_sine", "--regime", "pl",
         "--omega", "0,1", "-T", "5"],
        # distinct values that the file names show alike (:g keeps 6 digits)
        ["sweep", "--problem", "quadratic", "--d", "4", "-k", "50", "--omega",
         "0.5,0.5000001"],
        # flow bundle constants that overflow: gamma = theta + alpha beta / ...,
        # and alpha^2 in the theta floor
        ["ode", "--problem", "quadratic", "--d", "3", "--beta", "1e308"],
        ["ode", "--problem", "quadratic", "--d", "3", "--regime", "qg", "--beta", "1e308",
         "--omega", "0.5"],
        ["ode", "--problem", "pl_sine", "--regime", "pl", "--beta", "1e160"],
        ["ode", "--problem", "quadratic", "--d", "3", "--alpha", "1e200"],
        ["ode", "--problem", "quadratic", "--d", "3", "--regime", "qg", "--alpha", "1e200"],
        # L (1 + alpha beta) overflows: the default dt is finite and tiny,
        # so the row limit refuses the run
        ["ode", "--problem", "quadratic", "--d", "3", "--beta", "1e306"],
        *_REFUSED_UNBUILT.values(),
        *_UNWRITABLE.values(),
    ], ids=["negative-seed", "nan-dt", "nan-lam", "empty-grid", "huge-iters",
            "huge-horizon", "subnormal-dt", "missing-config", "directory-config",
            "non-utf8-config", "rank-deficient-lasso", "pgm-gamma-grid",
            "pl-gamma-grid", "inadmissible-gamma-grid", "inadmissible-omega-grid",
            "flow-pl-omega-grid", "alike-named-omega-grid",
            "overflowing-sc-gamma", "overflowing-qg-gamma",
            "overflowing-pl-gamma", "overflowing-sc-theta-floor",
            "overflowing-qg-theta-floor", "overflowing-stiffness", *_REFUSED_UNBUILT,
            *_UNWRITABLE])
    def test_rejected_inputs_exit_two(self, tmp_path, capsys, argv):
        _rejected(tmp_path, capsys, argv)

    @pytest.mark.parametrize("argv", _REFUSED_UNBUILT.values(), ids=_REFUSED_UNBUILT)
    def test_table_refusals_build_no_instance(self, tmp_path, capsys, monkeypatch, argv):
        # an instance may take seconds to build (the lasso's reference
        # minimizer), so what the table refuses must never reach the build
        monkeypatch.setattr(momcert.harness, "build_problem", _no_build)
        _rejected(tmp_path, capsys, argv)

    @pytest.mark.parametrize("argv", _UNWRITABLE.values(), ids=_UNWRITABLE)
    def test_unwritable_outputs_build_no_instance(self, tmp_path, capsys, monkeypatch,
                                                  argv):
        # a sweep writes from forked children, so a check after the build
        # would come after the whole grid had run
        monkeypatch.setattr(momcert.harness, "build_problem", _no_build)
        err = _rejected(tmp_path, capsys, argv)
        assert err.startswith("configuration error: cannot write ")
        assert err.count("\n") == 1  # one line, no traceback

    def test_sweep_with_an_unwritable_member_trace_writes_nothing(self, tmp_path, capsys,
                                                                 monkeypatch):
        # the g = 2 member's trace name is a directory: refused before the
        # build, not after the g = 1 member has written its files
        blocker = tmp_path / "quadratic_agm_sc_g2_w0_s0.csv"
        blocker.mkdir()
        monkeypatch.setattr(momcert.harness, "build_problem", _no_build)
        assert main(["sweep", "--d", "3", "-k", "5", "--gamma", "1,2",
                     "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: cannot write ")
        assert err.count("\n") == 1
        assert list(tmp_path.rglob("*")) == [blocker]

    def test_missing_output_directory_is_made_with_its_parents(self, tmp_path):
        # a file named past the new directory, through "..", is writable too
        out = tmp_path / "a" / "b"
        assert main(["solve", "--d", "3", "-k", "5", "--quiet", "--out", str(out),
                     "--csv", "../t.csv"]) == 0
        assert (tmp_path / "a" / "t.csv").is_file()
        assert (out / "quadratic_agm_sc_g1_w0_s0.json").is_file()

    @pytest.mark.parametrize("argv,target", [
        (["solve"], "momcert.trace.Trace.write_json"),
        (["sweep", "--gamma", "1,2"], "momcert.trace.Trace.write_csv"),
        (["rates", "--gamma", "1,2", "--csv", "t.csv"], "momcert.harness.rate_table_csv"),
    ], ids=["solve", "sweep-member", "rates-table"])
    def test_write_time_os_error_exits_two(self, tmp_path, capsys, monkeypatch, argv,
                                           target):
        # a path that passed the check can still fail when it is written
        def fail(*args):
            raise PermissionError(13, "Permission denied")

        monkeypatch.setattr(target, fail)
        assert main([*argv, "--d", "3", "-k", "5", "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: cannot write ")
        assert err.endswith("Permission denied\n") and err.count("\n") == 1

    @pytest.mark.parametrize("problem,flags,message", [
        ("lasso", ["--solver", "agm"],
         "solver 'agm' needs a smooth objective, and lasso is composite"),
        ("quadratic", ["--solver", "pgm"],
         "solver 'pgm' needs a composite objective, and quadratic is smooth"),
        ("lasso", ["--regime", "pl"], "regime 'pl' does not apply to lasso, which admits sc, qg"),
        ("pl_sine", [], "regime 'sc' does not apply to pl_sine, which admits pl"),
    ], ids=["lasso-agm", "quadratic-pgm", "lasso-pl", "pl_sine-sc"])
    def test_refusal_names_the_need_and_the_problem(self, tmp_path, capsys, problem,
                                                    flags, message):
        err = _rejected(tmp_path, capsys, ["solve", "--problem", problem, "--d", "4", *flags])
        assert err == f"configuration error: {message}\n"

    @pytest.mark.parametrize("flags", [["--alpha", "1e150", "--beta", "1e-150"],
                                       ["--beta", "1e306", "--dt", "1e-3"]],
                             ids=["overflowing-energy", "huge-stiffness-step"])
    def test_flow_past_the_float_range_fails_without_traceback(self, tmp_path,
                                                               capsys, flags):
        # the bundle is finite, but at alpha = 1e150 every energy sample
        # overflows (NaN slacks, every check fails), and at Lambda dt = 1.4e151
        # the first step diverges (aborted, nothing checked)
        rc = _main_without_runtime_warnings(
            ["ode", "--problem", "quadratic", "--d", "3", *flags, "--out", str(tmp_path)])
        assert rc == 1
        assert "Traceback" not in capsys.readouterr().err
        (path,) = tmp_path.glob("*.json")
        summary = json.loads(path.read_text())
        overflowing = "--alpha" in flags
        assert summary["certificates_failed"] == summary["certificates_checked"]
        assert (summary["certificates_checked"] > 0) == overflowing
        assert (summary["aborted_at"] is None) == overflowing

    def test_unparsable_grid_is_a_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            main(["sweep", "--d", "4", "--gamma", "1,two", "--out", str(tmp_path)])
        assert err.value.code == 2

    def test_python_dash_m_runs_the_cli(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "momcert", "ode",
             "--problem", "pl_sine", "--regime", "pl", "--x0", "2.0", "-T", "5",
             "--out", str(tmp_path)],
            capture_output=True, text=True, env=_cli_env(), timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        assert "certificates:" in proc.stdout

    def test_the_library_imports_numpy_only(self):
        # scipy and hypothesis are test dependencies; the library uses numpy
        code = ("import sys; before = set(sys.modules); import momcert; "
                "print(*sorted(set(sys.modules) - before))")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env=_cli_env(), timeout=120)
        assert proc.returncode == 0, proc.stderr
        loaded = {name.split(".")[0] for name in proc.stdout.split()}
        assert {"numpy", "momcert"} <= loaded
        assert loaded - sys.stdlib_module_names - {"numpy", "momcert"} == set()

    def test_negative_value_in_scientific_notation(self, tmp_path, capsys):
        rc = main(["solve", "--problem", "pl_sine", "--regime", "pl", "--x0", "-1e-3",
                   "--out", str(tmp_path)])
        assert rc == 0
        assert "certificates: 1000/1000 passed" in capsys.readouterr().out

    @pytest.mark.parametrize("problem", ["quadratic", "lasso"])
    def test_instance_too_large_to_allocate_exits_two(self, tmp_path, problem):
        # a d x d matrix at d = 10^5 takes 75 GiB; the 4 GiB address-space
        # limit makes its allocation fail whatever the overcommit mode
        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (4 << 30, 4 << 30))

        proc = subprocess.run(
            [sys.executable, "-m", "momcert", "solve", "--problem", problem,
             "--d", "100000", "--out", str(tmp_path)],
            capture_output=True, text=True, env=_cli_env(), timeout=120,
            preexec_fn=limit,
        )
        assert proc.returncode == 2, proc.stderr
        assert "configuration error" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_sweep_grid(self, tmp_path, capsys):
        rc = main(["sweep", "--problem", "quadratic", "--d", "4", "--q", "0.1",
                   "--gamma", "1,2", "--omega", "0,1", "--iters", "120",
                   "--seed", "3", "--out", str(tmp_path)])
        assert rc == 0
        csvs = sorted(p.name for p in tmp_path.glob("*.csv"))
        assert "sweep_quadratic_s3_rates.csv" in csvs
        assert len([n for n in csvs if n.startswith("quadratic_agm")]) == 4
        table = capsys.readouterr().out
        assert "rho_theory" in table

    def test_rates_with_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("problem = quadratic\nd = 4\nq = 0.1\niters = 120\nseed = 4\n")
        rc = main(["rates", "--config", str(cfg), "--gamma", "1,1.5"])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 3  # header + two grid rows

    @pytest.mark.parametrize("command", ["sweep", "rates"])
    def test_table_exits_one_when_a_run_aborts(self, tmp_path, capsys, command):
        # x0_scale = 1e160 overflows f(x0), so both grid runs abort at row 0
        cfg = tmp_path / "big.cfg"
        cfg.write_text("x0_scale = 1e160\n")
        rc = _main_without_runtime_warnings(
            [command, "--problem", "quadratic", "--d", "5", "--gamma", "1,2",
             "--config", str(cfg), "-k", "50", "--out", str(tmp_path)])
        assert rc == 1
        assert "0/0" in capsys.readouterr().out

    def test_ode_honours_certify_false(self, tmp_path, capsys):
        cfg = tmp_path / "flow.cfg"
        cfg.write_text("problem = quadratic\nd = 4\ncertify = false\n")
        rc = main(["ode", "--config", str(cfg), "--out", str(tmp_path)])
        assert rc == 0
        assert "certificates: 0/0 passed" in capsys.readouterr().out
        s = json.loads((tmp_path / "quadratic_ode_sc_w0_s0.json").read_text())
        assert s["certified"] is False and s["certificates_checked"] == 0
        table = np.genfromtxt(tmp_path / "quadratic_ode_sc_w0_s0.csv",
                              delimiter=",", names=True)
        assert np.all(np.isnan(table["energy"]))
        assert np.all(np.isnan(table["envelope"]))
        assert table["f_gap"].min() == 0.0

    def test_ode_with_overflowing_objective_aborts(self, tmp_path, capsys):
        # f(x0) overflows to inf while the state stays finite
        rc = _main_without_runtime_warnings(
            ["ode", "--problem", "pl_sine", "--regime", "pl", "--x0", "1e160",
             "-T", "1", "--out", str(tmp_path)])
        assert rc == 1
        out = capsys.readouterr().out
        assert "run aborted at index 0" in out
        s = json.loads((tmp_path / "pl_sine_ode_pl_w0_s0.json").read_text())
        assert s["aborted_at"] == 0 and s["certificates_checked"] == 0
        # the run stops at that sample and keeps it as its only row
        csv = (tmp_path / "pl_sine_ode_pl_w0_s0.csv").read_text().splitlines()
        assert s["rows"] == 1 and len(csv) == 2

    def test_solve_with_overflowing_objective_aborts(self, tmp_path, capsys):
        # f(x0) overflows to inf, so the discrete run ends at its first row
        rc = _main_without_runtime_warnings(
            ["solve", "--problem", "pl_sine", "--regime", "pl", "--x0", "1e160",
             "--iters", "50", "--out", str(tmp_path)])
        assert rc == 1
        assert "run aborted at index 0" in capsys.readouterr().out
        s = json.loads((tmp_path / "pl_sine_agm_pl_s0.json").read_text())
        assert s["aborted_at"] == 0 and s["rows"] == 1
        assert s["certificates_checked"] == 0 and s["certificates_failed"] == 0
