"""The three workloads: which CLI commands a round runs, and their inputs.

Every input is a function of the workload seed, and the seed reaches the
program only as the CLI's ``--seed`` flag. A round is the full list of a
workload's commands; every run attempts whole rounds.

``sweep_quadratic``
    ``momcert sweep`` over gamma in {1, 1.5, 2} x omega in {0, 0.5, 1} on
    two quadratic instances (d = 50, q = 1e-2 and 1e-3), 2000 certified
    iterations each. Many short ``agm`` runs at a size where per-step
    Python overhead dominates.
``flow_rk4``
    ``momcert ode`` on ``pl_sine`` (regime ``pl``, x0 = 2, dt = 1e-3, the
    default horizon: 161,137 samples), plus quadratic d = 10 flows at
    omega = 0 and omega = 1. The RK4 loop at tiny d is all per-step
    overhead, and it writes the largest trace.
``certify_lasso``
    ``momcert certify`` on three lasso instances (d = 200), 3000 iterations
    each. Matrix-vector products dominate, and building each instance runs
    the reference minimizer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

WORKLOADS = ("sweep_quadratic", "flow_rk4", "certify_lasso")

GAMMAS = (1.0, 1.5, 2.0)
OMEGAS = (0.0, 0.5, 1.0)
SWEEP_QS = (1e-2, 1e-3)
LASSO_INSTANCES = 3

# Full sizes are what the benchmark measures; smoke sizes exercise the same
# commands and checks in a few seconds.
SIZES = {
    False: {"sweep_d": 50, "sweep_iters": 2000, "flow_d": 10,
            "pl_horizon": None, "lasso_d": 200, "lasso_iters": 3000},
    True: {"sweep_d": 10, "sweep_iters": 300, "flow_d": 4,
           "pl_horizon": 5.0, "lasso_d": 20, "lasso_iters": 300},
}


@dataclass(frozen=True)
class Command:
    """One CLI invocation, writing into its own output subdirectory.

    ``options`` are ExperimentConfig keys passed as ``--key value`` flags.
    ``grid`` holds the gamma and omega lists of a ``sweep``.
    """

    subcommand: str
    subdir: str
    options: dict
    grid: Optional[tuple] = None
    solver: str = "auto"

    def argv(self, out_dir: str) -> list[str]:
        args = [self.subcommand, "--quiet", "--out", out_dir]
        for key, value in self.options.items():
            args += [f"--{key}", _flag(value)]
        if self.grid is not None:
            gammas, omegas = self.grid
            args += ["--gamma", ",".join(_flag(g) for g in gammas),
                     "--omega", ",".join(_flag(w) for w in omegas)]
        return args

    def configs(self) -> list[dict]:
        """ExperimentConfig keyword sets of every run the command makes."""
        base = dict(self.options, solver=self.solver)
        if self.grid is None:
            return [base]
        gammas, omegas = self.grid
        return [dict(base, gamma=g, omega=w) for g in gammas for w in omegas]


def _flag(value) -> str:
    return repr(value) if isinstance(value, float) else str(value)


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    commands: tuple


def make_workload(name: str, seed: int, smoke: bool = False) -> Workload:
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    size = SIZES[smoke]
    if name == "sweep_quadratic":
        commands = tuple(
            Command("sweep", f"q{q:g}",
                    {"problem": "quadratic", "d": size["sweep_d"], "q": q,
                     "iters": size["sweep_iters"], "seed": seed},
                    grid=(GAMMAS, OMEGAS))
            for q in SWEEP_QS
        )
    elif name == "flow_rk4":
        pl_options = {"problem": "pl_sine", "regime": "pl", "x0": 2.0,
                      "dt": 1e-3, "seed": seed}
        if size["pl_horizon"] is not None:
            pl_options["horizon"] = size["pl_horizon"]
        commands = (Command("ode", "pl_sine", pl_options, solver="ode"),) + tuple(
            Command("ode", f"quadratic_w{w:g}",
                    {"problem": "quadratic", "d": size["flow_d"], "omega": w,
                     "seed": seed}, solver="ode")
            for w in (0.0, 1.0)
        )
    else:
        commands = tuple(
            Command("certify", f"lasso_s{s}",
                    {"problem": "lasso", "d": size["lasso_d"],
                     "iters": size["lasso_iters"], "seed": s})
            for s in range(LASSO_INSTANCES * seed, LASSO_INSTANCES * (seed + 1))
        )
    return Workload(name=name, seed=seed, commands=commands)
