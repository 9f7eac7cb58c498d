"""Exact-event simulation versus the analytic absorption time.

Draws sample paths by sampling each exponential holding time directly (no
time discretization), then compares the Monte Carlo mean and quantiles of
the absorption time with the analytic sum of reciprocal rates.  A path is
named by its master seed and replicate index: simulate_path(model, start,
seed, i) is the path that every ensemble of more than i replicates of that
seed draws at index i.  So the same master seed reproduces the same summary
bit for bit, for any replicate count and any number of threads.
"""

from purebirth import (empirical_distribution_at, estimate_absorption_time,
                       expected_absorption_time, forward_probabilities,
                       hypergeometric_mixing, simulate_path)

model = hypergeometric_mixing(20, 1.0, 0.31)
report = expected_absorption_time(model)

print("replicate 0 of master seed 2024 (time, infected):")
path = simulate_path(model, 1, master_seed=2024, replicate=0)
print("  " + "  ".join(f"({t:.2f}, {k})" for t, k in path.events[:8]) + " ...")
print(f"  absorbed at t = {path.terminal_time:.2f}\n")

summary = estimate_absorption_time(model, 1, 50_000, master_seed=2024)
print(f"50,000 replicates, master seed {summary.master_seed}:")
print(f"  Monte Carlo mean : {summary.mean:.3f} +/- {summary.std_error:.3f}")
print(f"  analytic mean    : {report.exact_mean:.3f}")
print("  quantiles        : " + ", ".join(
    f"{int(q * 100)}%: {v:.2f}" for q, v in summary.quantiles.items()))

t = 0.5 * report.exact_mean
hist = empirical_distribution_at(model, 1, t, 50_000, master_seed=2024)
snap = forward_probabilities(model, 1, t)
tv = 0.5 * sum(abs(c / hist.replicates - p)
               for c, p in zip(hist.counts, snap.probabilities))
print(f"\nempirical state distribution at t = {t:.2f} vs forward equations:")
print(f"  total-variation distance = {tv:.4f}")
