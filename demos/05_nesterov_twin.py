"""One parameter choice away from the classical accelerated method.

Setting gamma = 1 + alpha h with alpha h = 2 sqrt(q) / (1 - sqrt(q))
makes the solver's extrapolation coefficient equal the classical
momentum factor tau = (1 - sqrt(q)) / (1 + sqrt(q)) and kills its
correction term identically, so the two methods walk the same orbit.
This demo steps both side by side, written against entirely separate
code paths, and prints the per-step deviation: machine zeros all the
way down. The point is not that two implementations agree, it is that
the generalized method contains the classical one as an exact slice of
its parameter space.
"""

import numpy as np

from momcert import (
    agm_init,
    agm_params_nesterov,
    agm_step,
    quadratic_problem,
)

Q = 1e-2
BIG_L = 100.0


def main() -> None:
    d = 6
    obj = quadratic_problem(np.geomspace(Q * BIG_L, BIG_L, d),
                            3.0 * np.linspace(-1.0, 1.0, d), seed=3)
    x0 = obj.minimizer + np.linspace(2.0, -2.0, d)

    params = agm_params_nesterov(Q * BIG_L, BIG_L)
    tau = (1.0 - np.sqrt(Q)) / (1.0 + np.sqrt(Q))
    print(f"q = {Q:g}: gamma = {params.gamma:.6f}, tau = {tau:.6f}")
    corr = params.gamma / (1.0 + params.alpha * params.h) - 1.0
    print(f"correction coefficient gamma / (1 + alpha h) - 1 = {corr!r}")
    print()

    state = agm_init(obj, params, x0)
    y_prev = state.y
    y_curr = x0 - params.h ** 2 * obj.grad(x0)
    print(f"  {'k':>3}  {'|x - x_ref|':>12}  {'|y - y_ref|':>12}  {'gap':>12}")
    for k in range(1, 16):
        state = agm_step(state, obj, params)
        # the classical step: extrapolate, then a gradient step of size h^2
        x_ref = y_curr + tau * (y_curr - y_prev)
        y_next = x_ref - params.h * params.h * obj.grad(x_ref)
        dx = float(np.linalg.norm(state.x - x_ref))
        dy = float(np.linalg.norm(state.y - y_curr))
        gap = obj.eval(state.x) - obj.min_value
        print(f"  {k:>3}  {dx:>12.2e}  {dy:>12.2e}  {gap:>12.4e}")
        y_prev, y_curr = y_curr, y_next


if __name__ == "__main__":
    main()
