"""Experiment harness: configs, rate fitting, sweeps and the CLI.

A run is described by a flat key = value configuration (file or CLI
flags; flags win). The harness builds the problem and parameter bundle,
dispatches the right solver, fits the empirical rate from the trace tail,
and writes one CSV (the trace) plus one JSON file (the summary). Repeat
runs of the same configuration and seed produce byte-identical CSVs.

Exit status contract for the CLI: 0 on success, 1 if any runtime
certificate failed or a run diverged, 2 for configuration errors. The
config's rules, among them the admissible (problem, solver, regime)
triples, writable outputs and the gamma and omega a generated instance's
bundle admits, are checked before any compute; an unbuildable instance,
a bundle's other refusals and a failed write are reported after it. The
default output directory is taken from MOMCERT_OUT when set.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys
from collections import namedtuple
from contextlib import suppress
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Optional, Sequence, Union, get_args, get_type_hints

import numpy as np

from . import agm as _agm
from . import ode as _ode
from . import pgm as _pgm
from .oracle import (
    CompositeObjective,
    SmoothObjective,
    lasso_problem,
    pl_sine_problem,
    _random_orthogonal,
    quadratic_problem,
)
# build_params calls these constructors by name from globals(), so a patch applies
from .params import (
    _BUNDLES,
    OdeParams,
    Regime,
    agm_params_pl,
    agm_params_qg,
    agm_params_sc,
    ode_params_pl,
    ode_params_qg,
    ode_params_sc,
    pgm_params_qg,
    pgm_params_sc,
)
from .certificates import failed_checks
from .driver import RowLimitError
from .parallel import forked, spare_cores
from .trace import Trace

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "fit_linear_rate",
    "run_experiment",
    "rate_table",
    "main",
]

OUT_ENV_VAR = "MOMCERT_OUT"

SOLVERS = ("auto", "agm", "pgm", "ode")
REGIMES = tuple(r.value for r in Regime)


class ConfigError(ValueError):
    """Invalid experiment configuration; the CLI exits 2 on it."""


@dataclass
class ExperimentConfig:
    problem: str = "quadratic"
    d: int = 10
    q: float = 0.01            # mu / L of the generated instance
    L: float = 100.0
    lam: Optional[float] = None  # lasso penalty; None picks 0.3 ||A'b||_inf
    x0: float = 2.0            # start point for 1-d problems
    x0_scale: float = 5.0      # start scale for multi-d problems
    seed: int = 0
    solver: str = "auto"
    regime: str = "sc"
    gamma: float = 1.0
    omega: float = 0.0
    alpha: Optional[float] = None
    beta: Optional[float] = None   # flow only; None means 1 / sqrt(L)
    theta: Optional[float] = None  # flow only; None means smallest admissible
    iters: int = 1000
    horizon: Optional[float] = None  # flow only; None means 20 / decay_rate
    dt: Optional[float] = None
    certify: bool = True
    out: Optional[str] = None
    csv: Optional[str] = None
    json: Optional[str] = None
    quiet: bool = False

    def validated(self) -> "ExperimentConfig":
        if self.problem not in PROBLEMS:
            raise ConfigError(f"problem must be one of {PROBLEMS}, got {self.problem!r}")
        if self.solver not in SOLVERS:
            raise ConfigError(f"solver must be one of {SOLVERS}, got {self.solver!r}")
        if self.regime not in REGIMES:
            raise ConfigError(f"regime must be one of {REGIMES}, got {self.regime!r}")
        row, solver = _PROBLEMS[self.problem], self.resolved_solver()
        if (solver == "pgm") != row.composite:
            kind = ("smooth", "composite")
            raise ConfigError(f"solver {solver!r} needs a {kind[solver == 'pgm']} objective, "
                              f"and {self.problem} is {kind[row.composite]}")
        if self.regime not in row.regimes:
            raise ConfigError(f"regime {self.regime!r} does not apply to {self.problem}, "
                              f"which admits {', '.join(row.regimes)}")
        for f in fields(self):
            v = getattr(self, f.name)
            if _KEY_TYPES[f.name] is not float or (v is None and f.default is None):
                continue  # None stands for a derived default
            if not isinstance(v, (int, float)) or not math.isfinite(v):
                raise ConfigError(f"{f.name} must be a finite number, got {v}")
        if self.seed < 0:
            raise ConfigError(f"need seed >= 0, got {self.seed}")
        if "q" in row.keys:  # a generated instance, with curvatures from q L to L
            if self.d < 2:
                raise ConfigError(f"{self.problem} instances need d >= 2 to realize q < 1")
            if not 0.0 < self.q < 1.0:
                raise ConfigError(f"need 0 < q < 1, got q = {self.q}")
            if self.L <= 0:
                raise ConfigError(f"need L > 0, got {self.L}")
        if self.iters < 1:
            raise ConfigError(f"need iters >= 1, got {self.iters}")
        if self.horizon is not None and self.horizon <= 0:
            raise ConfigError(f"need horizon > 0, got {self.horizon}")
        if self.dt is not None and self.dt <= 0:
            raise ConfigError(f"need dt > 0, got {self.dt}")
        if self.lam is not None and self.lam < 0:
            raise ConfigError(f"need lam >= 0, got {self.lam}")
        return self

    def resolved_solver(self) -> str:
        if self.solver != "auto":
            return self.solver
        return "pgm" if _PROBLEMS[self.problem].composite else "agm"


def _key_type(hint) -> type:
    """The value type of a key annotated `hint`: T for Optional[T]."""
    types = [t for t in get_args(hint) if t is not type(None)]
    return types[0] if types else hint


_KEY_TYPES = {key: _key_type(hint) for key, hint in get_type_hints(ExperimentConfig).items()}


def load_config_file(path: Union[str, Path]) -> dict:
    """Parse a flat `key = value` UTF-8 file; '#' starts a comment."""
    values: dict = {}
    known = {f.name for f in fields(ExperimentConfig)}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as err:
        raise ConfigError(f"cannot read config file {path}: {err}") from None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in known:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        values[key] = _coerce(key, val)
    return values


def _coerce(key: str, val: str):
    kind = _KEY_TYPES[key]
    try:
        if kind is bool:
            if val.lower() in ("1", "true", "yes", "on"):
                return True
            if val.lower() in ("0", "false", "no", "off"):
                return False
            raise ValueError(f"not a boolean: {val!r}")
        if kind is float:
            return None if val.lower() == "none" else float(val)
        return kind(val)
    except ValueError as err:
        raise ConfigError(f"bad value for {key}: {err}") from None


# ----------------------------------------------------------------------
# problem and bundle construction


def _quadratic(config: ExperimentConfig, rng: np.random.Generator) -> SmoothObjective:
    spectrum = np.geomspace(config.q * config.L, config.L, config.d)
    return quadratic_problem(spectrum, rng.standard_normal(config.d), seed=config.seed)


def _lasso(config: ExperimentConfig, rng: np.random.Generator) -> CompositeObjective:
    sv = np.sqrt(np.geomspace(config.q * config.L, config.L, config.d))
    u, v = _random_orthogonal(config.d, rng), _random_orthogonal(config.d, rng)
    a = u @ (sv[:, None] * v.T)
    b = 3.0 * rng.standard_normal(config.d)
    lam = config.lam if config.lam is not None else 0.3 * float(np.max(np.abs(a.T @ b)))
    return lasso_problem(a, b, lam)


# One row per problem: its builder (config, rng) -> objective; whether the
# objective is composite (pgm runs exactly those, and auto picks it); the
# regimes whose constant it carries; the keys besides seed that its instance
# and start point read.
_Problem = namedtuple("_Problem", "build composite regimes keys")
_PROBLEMS = {
    "quadratic": _Problem(_quadratic, False, ("sc", "qg", "pl"), ("d", "q", "L", "x0_scale")),
    "pl_sine": _Problem(lambda config, rng: pl_sine_problem(), False, ("pl",), ("x0",)),
    "lasso": _Problem(_lasso, True, ("sc", "qg"), ("d", "q", "L", "lam", "x0_scale")),
}
PROBLEMS = tuple(_PROBLEMS)


def build_problem(
    config: ExperimentConfig,
) -> tuple[Union[SmoothObjective, CompositeObjective], np.ndarray]:
    """Instantiate the configured problem and its seeded start point: x0 if
    the problem reads it, else the minimizer plus x0_scale standard normals."""
    row = _PROBLEMS[config.problem]
    try:
        obj = row.build(config, np.random.default_rng([config.seed, 0]))
    except (ArithmeticError, ValueError, RuntimeError, MemoryError) as err:
        # a failed residual check, a rank-deficient A, a reference minimizer
        # that does not converge, or a d too large to allocate
        raise ConfigError(f"{config.problem} instance with q = {config.q:g}, "
                          f"d = {config.d} cannot be built: {err}") from None
    if "x0" in row.keys:
        return obj, np.array([config.x0])
    rng_start = np.random.default_rng([config.seed, 1])
    return obj, obj.minimizer + config.x0_scale * rng_start.standard_normal(config.d)


def build_params(config: ExperimentConfig, obj) -> Union[
    "_agm.AgmParams", "_pgm.PgmParams", OdeParams
]:
    """Build the bundle for the resolved solver and regime from params._BUNDLES.

    The config is validated first, so obj carries the regime's constant.
    A constructor's refusal (a theorem-level inequality, or constants that
    overflow) surfaces as ConfigError with the constructor's message.
    """
    solver, regime = config.validated().resolved_solver(), config.regime
    smooth = obj.smooth if solver == "pgm" else obj
    mu = float({"sc": smooth.strong_convexity, "qg": obj.qg_constant,
                "pl": smooth.pl_constant}[regime])
    big_l, flow = smooth.lipschitz, solver == "ode"
    name, inputs = _BUNDLES[solver, regime]
    try:
        # the flow's alpha and beta defaults; any other None is its constructor's default
        given = {"L": big_l, "gamma": config.gamma, "omega": config.omega,
                 "alpha": 2.0 * math.sqrt(mu) if flow and config.alpha is None else config.alpha,
                 "beta": 1.0 / math.sqrt(big_l) if flow and config.beta is None else config.beta,
                 "theta": config.theta}
        return globals()[name](mu, *(given[f] for f in inputs))
    except (ValueError, ArithmeticError) as err:
        raise ConfigError(str(err)) from None


def _refuse_knobs(config: ExperimentConfig) -> None:
    """Raise the bundle's refusal of a generated instance's gamma or omega
    before the instance is built, from the nominal constants mu = q L and L."""
    if "q" in _PROBLEMS[config.problem].keys:
        mu = config.q * config.L
        nominal = argparse.Namespace(lipschitz=config.L, strong_convexity=mu,
                                     qg_constant=mu, pl_constant=mu)
        nominal.smooth = nominal
        build_params(replace(config, alpha=None, beta=None, theta=None), nominal)


# ----------------------------------------------------------------------
# rate fitting


def _certified_columns(trace: Trace) -> tuple[str, str, str]:
    """Index column, certified gap column and certified-rate summary key."""
    if trace.kind == "ode":
        return "t", "f_gap", "decay_rate"
    return "k", "f_gap_y", "rho_theory"


def fit_linear_rate(trace: Trace) -> Optional[float]:
    """Empirical rate from a least-squares fit of log(gap) on the tail.

    Uses the certified gap column (f_gap_y for the discrete solvers,
    f_gap for the flow). Records after the gap first drops below
    1e-13 * initial are discarded as float noise; the fit then runs on
    the last half of what remains, past the transient. Needs at least 20
    positive-gap records, else returns None.

    For discrete traces the return value rho_emp satisfies
    gap ~ (1 + rho_emp)^-k; for flow traces it is the continuous decay
    rate, gap ~ exp(-rate t).
    """
    index, gap, _ = _certified_columns(trace)
    xs, gaps = trace.column(index), trace.column(gap)
    n = len(gaps)
    if n == 0 or not np.isfinite(gaps[0]) or gaps[0] <= 0:
        return None
    below = np.nonzero(gaps < 1e-13 * gaps[0])[0]
    cutoff = int(below[0]) if below.size else n
    sel = slice(cutoff // 2, cutoff)
    x = xs[sel]
    g = gaps[sel]
    keep = np.isfinite(g) & (g > 0)
    if keep.sum() < 20:
        return None
    slope = np.polyfit(x[keep], np.log(g[keep]), 1)[0]
    if index == "t":
        return float(-slope)
    return float(math.expm1(-slope))


# ----------------------------------------------------------------------
# experiment driver


def _knobs(config: ExperimentConfig) -> dict:
    """The grid knobs the run reads, by file-name tag: gamma (g) and omega
    (w) where its params._BUNDLES row names them among the inputs."""
    inputs = _BUNDLES[config.resolved_solver(), config.regime][1]
    return {tag: getattr(config, key) for tag, key in (("g", "gamma"), ("w", "omega"))
            if key in inputs}


def _default_basename(config: ExperimentConfig) -> str:
    solver = config.resolved_solver()
    # the flow in pl ignores omega, but its names keep w: the golden
    # listing pins pl_sine_ode_pl_w0_s0
    knobs = _knobs(config) or ({"w": config.omega} if solver == "ode" else {})
    tags = [f"{tag}{value:g}" for tag, value in knobs.items()]
    return "_".join([config.problem, solver, config.regime, *tags, f"s{config.seed}"])


def run_experiment(config: ExperimentConfig, write: bool = True,
                   built: Optional[tuple] = None) -> Trace:
    """Validate, build, run, fit, and (optionally) write csv + json.

    The returned trace's summary carries the fitted empirical rate next
    to the certified one, certificate counts, and the output paths.
    `built`, the config's (objective, start point, bundle), skips building.
    """
    config = replace(config).validated()
    if write:
        paths = _out_paths(config, *_trace_names(config))
    if not built:
        _refuse_knobs(config)
    obj, x0 = built[:2] if built else build_problem(config)
    bundle = built[2] if built else build_params(config, obj)
    solver = config.resolved_solver()

    if solver == "agm":
        trace = _agm.agm_run(obj, bundle, x0, config.iters, certify=config.certify)
    elif solver == "pgm":
        trace = _pgm.pgm_run(obj, bundle, x0, config.iters, certify=config.certify)
    else:
        horizon = config.horizon
        if horizon is None:
            horizon = 20.0 / bundle.decay_rate
        trace = _ode.ode_run(obj, bundle, x0, horizon, config.dt,
                             certify=config.certify)

    trace.summary["fitted_rate"] = fit_linear_rate(trace)
    trace.summary["problem"] = config.problem
    trace.summary["seed"] = config.seed
    trace.summary["config"] = {
        f.name: getattr(config, f.name)
        for f in fields(config)
        if f.name not in ("out", "csv", "json", "quiet")
    }

    if write:
        trace.summary["csv_path"], trace.summary["json_path"] = map(str, paths)
        _write(paths[0], trace.write_csv)
        _write(paths[1], trace.write_json)
    return trace


def _trace_names(config: ExperimentConfig) -> tuple[str, str]:
    """The run's trace CSV and summary JSON file names."""
    base = _default_basename(config)
    return config.csv or f"{base}.csv", config.json or f"{base}.json"


def _out_paths(config: ExperimentConfig, *names: str) -> list[Path]:
    """The output directory's files `names`; ConfigError, creating nothing, if
    one is unwritable or two name the same file."""
    out_dir = Path(config.out or os.environ.get(OUT_ENV_VAR) or ".")
    made = (out_dir, *out_dir.parents)[:-1]  # _write may make these, no other directory
    seen = set()
    for path in (paths := [out_dir / name for name in names]):
        if (key := os.path.abspath(path)) in seen:
            raise ConfigError(f"cannot write {path}: another output names the same file")
        seen.add(key)
        home = Path(os.path.normpath(path.parent))
        while home in made and not home.exists():
            home = home.parent
        if path.is_dir() or not (home.is_dir() and os.access(home, os.W_OK | os.X_OK)):
            why = "it is a directory" if path.is_dir() else f"{home} is not a writable directory"
            raise ConfigError(f"cannot write {path}: {why}")
    return paths


def _write(path: Path, write) -> None:
    """write(path), making the output directory first; OSError is ConfigError."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        write(path)
    except OSError as err:
        raise ConfigError(f"cannot write {path}: {err}") from None


def exit_code_for(trace: Trace) -> int:
    """0 for a clean run, 1 for certificate failures or divergence."""
    s = trace.summary
    if s.get("certificates_failed", 0) > 0:
        return 1
    if s.get("aborted_at") is not None:
        return 1
    return 0


# ----------------------------------------------------------------------
# rate tables


def rate_table(
    configs: Sequence[ExperimentConfig], write_traces: bool = False
) -> list[dict]:
    """Run each configuration and tabulate certified vs fitted rates.

    All configs must target the same problem instance (same problem, seed
    and keys of the problem's table row) so the rows are comparable. Each is
    built before the first run; members i, i + n, ... then run in process i
    of n, this one and one per spare core, with a serial run's rows and files;
    a member a process did not deliver runs again here, in config order, last.
    Rows are sorted by (regime, gamma, omega), count certificates_passed
    of certificates_checked, and carry the run's exit_code.
    """
    if not configs:
        raise ConfigError("rate_table needs at least one configuration")
    configs = [replace(c).validated() for c in configs]
    keys = [(c.problem, c.seed, *(getattr(c, k) for k in _PROBLEMS[c.problem].keys))
            for c in configs]
    if len(set(keys)) > 1:
        raise ConfigError(f"rate_table configs must share one problem instance; "
                          f"{next(k for k in keys if k != keys[0])} != {keys[0]}")
    for c in configs:
        _refuse_knobs(c)
    obj, x0 = build_problem(configs[0])
    members = [(c, (obj, x0, build_params(c, obj))) for c in configs]
    n = min(1 + spare_cores(), len(members))

    def row(c: ExperimentConfig, built: tuple) -> dict:
        return _table_row(run_experiment(c, write_traces, built))

    def share(i: int):  # rows of members i, i + n, ... up to the first that raises
        with suppress(Exception):
            yield from (row(*member) for member in members[i::n])

    with forked(n, share) as ends:
        sent = [list(share(0)), *map(list, ends)]
    rows = [sent[j % n][j // n] if j // n < len(sent[j % n]) else row(*member)
            for j, member in enumerate(members)]  # the rest run here, in config order
    # pgm has no gamma: its NaN compares false both ways, so rank it as 0
    rows.sort(key=lambda r: (r["regime"], np.nan_to_num(r["gamma"]), r["omega"]))
    return rows


def _table_row(trace: Trace) -> dict:
    s = trace.summary
    index, gap, rate = _certified_columns(trace)
    gaps, idx = trace.column(gap), trace.column(index)
    tol_hit = ""
    if np.isfinite(gaps[0]) and gaps[0] > 0:
        hit = np.nonzero(gaps <= 1e-9 * gaps[0])[0]
        if hit.size:
            tol_hit = f"{idx[hit[0]]:g}"
    return {
        "regime": s["regime"],
        "gamma": s.get("gamma", float("nan")),
        "omega": s["omega"],
        "rho_theory": s[rate],
        "rho_emp": s["fitted_rate"],
        "iters_to_1e-9": tol_hit,
        "certificates_passed": s["certificates_checked"] - s["certificates_failed"],
        "certificates_checked": s["certificates_checked"],
        "exit_code": exit_code_for(trace),
    }


_TABLE_COLS = (
    "regime", "gamma", "omega", "rho_theory", "rho_emp",
    "iters_to_1e-9", "certificates",
)


def _cell(row: dict, col: str) -> str:
    if col == "certificates":
        return f'{row["certificates_passed"]}/{row["certificates_checked"]}'
    v = row[col]
    if v is None:
        return "indeterminate"
    if isinstance(v, float):
        return "nan" if math.isnan(v) else f"{v:.6g}"
    return str(v)


def rate_table_text(rows: Sequence[dict]) -> str:
    """Aligned fixed-width rendering of a rate table."""
    cells = [[_cell(r, c) for c in _TABLE_COLS] for r in rows]
    widths = [
        max(len(name), *(len(row[i]) for row in cells)) if cells else len(name)
        for i, name in enumerate(_TABLE_COLS)
    ]
    out = ["  ".join(name.ljust(w) for name, w in zip(_TABLE_COLS, widths))]
    for row in cells:
        out.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(out)


def rate_table_csv(rows: Sequence[dict], path) -> None:
    lines = [",".join(_TABLE_COLS)]
    for r in rows:
        lines.append(",".join(_cell(r, c) for c in _TABLE_COLS))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


# ----------------------------------------------------------------------
# CLI


def _add_common(p: argparse.ArgumentParser, grids: bool = False) -> None:
    # argparse reads only -1 and -1.5 as negative numbers, and -1e-3 as a flag
    p._negative_number_matcher = re.compile(r"^-\.?\d")
    def flag(key: str, *aliases: str, **kwargs) -> None:
        p.add_argument(f"--{key}", *aliases, type=_KEY_TYPES[key], **kwargs)

    p.add_argument("--config", help="flat key = value configuration file")
    flag("problem", choices=PROBLEMS)
    flag("regime", choices=REGIMES)
    if grids:
        p.add_argument("--gamma", type=float_list, dest="gammas",
                       help="comma-separated list, e.g. 1,1.5,2")
        p.add_argument("--omega", type=float_list, dest="omegas",
                       help="comma-separated list, e.g. 0,0.5,1")
    else:
        flag("gamma")
        flag("omega")
    flag("iters", "-k")
    flag("horizon", "-T")
    flag("dt")
    flag("seed")
    flag("out", help=f"output directory (default ${OUT_ENV_VAR} or cwd)")
    flag("csv", help="trace CSV filename")
    flag("json", help="summary JSON filename")
    p.add_argument("--quiet", action="store_true")
    flag("d", help="problem dimension")
    flag("q", help="mu / L of the generated instance")
    flag("L", help="largest curvature of the instance")
    flag("lam", help="lasso penalty")
    flag("x0", help="start point for 1-d problems")
    flag("alpha", help="damping override")
    flag("beta", help="flow gradient damping")
    flag("theta", help="flow energy gap weight")
    flag("solver", choices=SOLVERS, help="override solver dispatch")


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    values: dict = {}
    if getattr(args, "config", None):
        values.update(load_config_file(args.config))
    for f in fields(ExperimentConfig):
        v = getattr(args, f.name, None)
        if v is not None and not (f.name == "quiet" and v is False):
            values[f.name] = v
    return ExperimentConfig(**values)


def float_list(spec: str) -> list[float]:
    """Parse a grid flag: comma-separated floats, empty items skipped."""
    return [float(tok) for tok in spec.split(",") if tok.strip()]


def _report(trace: Trace, quiet: bool) -> None:
    if quiet:
        return
    s = trace.summary
    rate_key = _certified_columns(trace)[2]
    fitted = s.get("fitted_rate")
    print(
        f"{s['solver']} on {s.get('problem', '?')} [{s['regime']}]: "
        f"certified rate {s[rate_key]:.6g}, fitted "
        f"{'indeterminate' if fitted is None else format(fitted, '.6g')}"
    )
    print(
        f"certificates: {s['certificates_checked'] - s['certificates_failed']}"
        f"/{s['certificates_checked']} passed; "
        f"gap {s['initial_gap']:.3e} -> {s['final_gap']:.3e}"
    )
    if s.get("aborted_at") is not None:
        print(f"run aborted at index {s['aborted_at']}")
    if "csv_path" in s:
        print(f"wrote {s['csv_path']} and {s['json_path']}")


def _cmd_solve(args: argparse.Namespace, **overrides) -> int:
    config = replace(_config_from_args(args), **overrides)
    trace = run_experiment(config)
    _report(trace, config.quiet)
    return exit_code_for(trace)


def _cmd_certify(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    config.certify = True
    trace = run_experiment(config)
    _report(trace, config.quiet)
    k, slack = failed_checks(trace)
    if not config.quiet:
        for i, z in zip(k[:10].tolist(), slack[:10].tolist()):
            print(f"FAILED k={i}: slack {z:.3e}")
        if len(k) > 10:
            print(f"... and {len(k) - 10} more failures")
        verdict = "all certificates passed" if not len(k) else \
            f"{len(k)} certificate(s) FAILED"
        print(verdict)
    return exit_code_for(trace)


def _sweep_configs(args: argparse.Namespace) -> list[ExperimentConfig]:
    base = _config_from_args(args)
    gammas = [base.gamma] if args.gammas is None else args.gammas
    omegas = [base.omega] if args.omegas is None else args.omegas
    if not gammas or not omegas:
        raise ConfigError("a --gamma or --omega grid needs at least one value")
    # validated before _knobs, which reads the problem table
    configs = [replace(base, gamma=g, omega=w).validated() for g in gammas for w in omegas]
    runs = [tuple(f"{t}{v:g}" for t, v in _knobs(c).items()) for c in configs]
    if len(set(runs)) < len(runs):
        raise ConfigError(f"the grid makes one {base.resolved_solver()} run in {base.regime} "
                          "twice: a value repeats, two format alike, or the run ignores it")
    return configs


def _cmd_table(args: argparse.Namespace, sweep: bool) -> int:
    """`sweep` writes every trace and the rate table; `rates` writes the
    table only when --csv names it. Exits with the worst run's exit code."""
    configs = _sweep_configs(args)
    base = configs[0]
    if base.json is not None:
        raise ConfigError("sweep and rates take no json: they write no summary JSON")
    name = base.csv or (f"sweep_{base.problem}_s{base.seed}_rates.csv" if sweep else None)
    # --csv names the sweep table; traces keep their default basenames
    members = [replace(c, csv=None) for c in configs]
    names = [name] if name else []
    if sweep:  # every trace name too, so a refused sweep writes nothing
        names += [n for member in members for n in _trace_names(member)]
    table = _out_paths(base, *names)[0] if name else None
    rows = rate_table(members, write_traces=sweep)
    if table:
        _write(table, lambda path: rate_table_csv(rows, path))
    if not base.quiet:
        print(rate_table_text(rows))
        if sweep:
            print(f"wrote {table}")
    return max(r["exit_code"] for r in rows)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="momcert",
        description="Momentum solvers with runtime-certified convergence rates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="run one configuration and write its trace")
    _add_common(p)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("certify", help="run and enforce every energy certificate")
    _add_common(p)
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("ode", help="integrate the continuous flow")
    _add_common(p)
    p.set_defaults(func=lambda a: _cmd_solve(a, solver="ode"))

    p = sub.add_parser("sweep", help="grid over gamma x omega, write all traces")
    _add_common(p, grids=True)
    p.set_defaults(func=lambda a: _cmd_table(a, sweep=True))

    p = sub.add_parser("rates", help="rate table for a gamma x omega grid")
    _add_common(p, grids=True)
    p.set_defaults(func=lambda a: _cmd_table(a, sweep=False))

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, RowLimitError) as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
