#!/usr/bin/env python3
"""Calibrate the selection threshold constant shipped as DEFAULT_C2.

Rule (deterministic, seeded): smallest c2 on a 0.05 grid such that for the
uniform density on [0,1] the selector keeps j_hat <= j_min + 2 at >= 95% of
mesh points, averaged over 50 replications at n = 2^14.  The rule is the
constants of locband.harness.calibrate_c2; the script takes no arguments.
The chosen value is pasted into locband.calibration.DEFAULT_C2.

    python3 scripts/calibrate_c2.py
"""

from locband.harness import calibrate_c2


def main() -> None:
    c2, means = calibrate_c2()
    for cand in sorted(means):
        marker = " <-- selected" if cand == c2 else ""
        print(f"c2={cand:.2f}  mean fraction j_hat <= j_min+2: {means[cand]:.4f}{marker}")
        if cand > c2 + 0.2:
            break
    print(f"\ncalibrated c2 = {c2:.2f}")


if __name__ == "__main__":
    main()
