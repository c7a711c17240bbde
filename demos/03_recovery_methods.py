"""Tour of the sparse-recovery methods on one noisy instance.

Generates b = A x* + noise with a 5-sparse x*, then asks each method for a
5-sparse estimate: greedy selection (OMP), an l1 relaxation sweep with
debiasing, hard-thresholding descent, and the block decomposition solver.
Reports residual objective and how much of the true support each found.

Run:  python3 demos/03_recovery_methods.py
"""

import numpy as np

from blockdec import (Cardinality, CompositeProblem, DecConfig,
                      QuadraticObjective, cvx_l1_sweep, gen_random,
                      init_solution, omp, pgm, run_dec)


def residual(A, b, x):
    return 0.5 * np.linalg.norm(A @ x - b) ** 2


def main():
    m, n, s = 48, 120, 5
    A, b, x_true = gen_random(m, n, s, noise_scale=0.3, seed=7)
    true_support = {int(i) for i in np.flatnonzero(x_true)}
    print(f"instance: m={m} n={n}, true support {sorted(true_support)}")
    print(f"noise floor: 1/2||b - A x*||^2 = {residual(A, b, x_true):.4f}\n")

    prob = CompositeProblem(QuadraticObjective(A=A, b=b), Cardinality(s))
    x0 = init_solution(n, prob.term, 0)

    estimates = {
        "omp": omp(A, b, s),
        "cvx-l1": cvx_l1_sweep(prob.objective, s),
        "pgm": pgm(prob, x0)[0],
        "dec-R4G2": run_dec(prob, x0, DecConfig(seed=0))[0],
    }

    print(f"{'method':<10} {'objective':>10} {'support hits':>13}")
    for name, x in estimates.items():
        hits = len(true_support & set(np.flatnonzero(x)))
        print(f"{name:<10} {residual(A, b, x):>10.4f} {hits:>10}/{s}")

    print("\nOn well-conditioned data like this everything lands close to")
    print("the truth; the differences show up on corrupted designs (see")
    print("demos/02_corrupted_recovery.py) and in how each method scales.")


if __name__ == "__main__":
    main()
