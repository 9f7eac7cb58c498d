"""Watch the infection distribution evolve via the forward equations.

Solves p_k'(t) = lambda_{k-1} p_{k-1} - lambda_k p_k (by uniformization) for
a 30-person crowd and prints the distribution over the number infected at a few times,
together with the running absorption probability P(T <= t).
"""

import numpy as np

from purebirth import (expected_absorption_time, forward_grid,
                       hypergeometric_mixing, mean_state)

model = hypergeometric_mixing(30, 1.0, 0.31)
mean_T = expected_absorption_time(model).exact_mean
times = [0.25 * mean_T, 0.5 * mean_T, mean_T, 2.0 * mean_T]

print(f"N=30, lambda=1, p=0.31; exact E(T) = {mean_T:.2f}\n")
for snap in forward_grid(model, 1, times):
    bar_states = snap.states[snap.probabilities > 0.01]
    print(f"t = {snap.time:7.2f}  mean infected = {mean_state(snap):5.2f}  "
          f"P(all infected) = {snap.probabilities[-1]:.3f}")
    for k in bar_states:
        p = snap.probability_of(int(k))
        print(f"    state {k:2d}  {'#' * int(60 * p):<60s} {p:.3f}")
    print(f"    mass defect {snap.mass_defect:.1e}")
    print()

print("Every snapshot conserves probability to 1e-8; the absorbing state")
print("(everyone infected) steadily accumulates all the mass.")
