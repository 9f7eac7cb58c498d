"""Two extreme contact regimes: explosion versus cubic slowdown.

With quadratically accelerating rates lambda_k = c k^2 the expected time
to infect everyone stays below pi^2/(6c) no matter how large the crowd:
rapid intermingling overruns any population in bounded expected time.
With suppressed rates lambda_k = c / k^2 the expected time grows like
n^3/(3c), far exceeding the population size.
"""

from purebirth import (estimate_absorption_time, expected_absorption_time,
                       power_law)


def expected_time(exponent, n):
    """E(T) through states 1..n under lambda_k = k**exponent (c = 1)."""
    return expected_absorption_time(power_law(1.0, exponent, n + 1))


print("accelerating rates lambda_k = k^2 (c = 1):")
for n in (10, 100, 1000, 100000):
    report = expected_time(2.0, n)
    # the tail past n is below 1/(c n)
    print(f"  n = {n:>6d}  E(T) = {report.exact_mean:.6f}  "
          f"(limit pi^2/6 = {report.approx_mean:.6f}, tail < {1.0 / n:.1e})")

capped = power_law(1.0, 2.0, 1000)
study = estimate_absorption_time(capped, 1, 10_000, master_seed=7)
print(f"  simulated cap-1000 hitting time over 10,000 replicates: "
      f"{study.mean:.4f} +/- {study.std_error:.4f}")
print(f"  analytic partial sum: "
      f"{expected_absorption_time(capped).exact_mean:.4f}\n")

print("suppressed rates lambda_k = 1/k^2:")
for n in (10, 100, 1000, 10000):
    report = expected_time(-2.0, n)
    print(f"  n = {n:>6d}  E(T) = {report.exact_mean:>18.1f}  "
          f"~ n^3/3 = {report.approx_mean:.3e}")
ratio = (expected_time(-2.0, 20000).exact_mean
         / expected_time(-2.0, 10000).exact_mean)
print(f"  doubling n multiplies E(T) by {ratio:.4f} (cubic growth -> 8)")
