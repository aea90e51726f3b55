#!/usr/bin/env python3
"""Sweep the noise parameter and chart the privacy/spread tradeoff.

Smaller epsilon means realized payments say less about the underlying
price (per-bin ratio closer to 1) at the cost of a wider payment spread.
"""

import math

from zkmech.analysis import TruncatedGeometric


def main():
    window = (-50, 50)
    print(f"{'eps':>6} {'alpha':>6} {'ratio/step':>11} {'stddev':>8}")
    for eps in (0.5, 0.2, 0.1, 0.05, 0.02):
        alpha = 1 - eps
        dist = TruncatedGeometric(alpha, *window)
        var = sum(dist.pmf(z) * z * z for z in range(window[0], window[1] + 1))
        print(f"{eps:>6} {alpha:>6} {1 - eps:>11.3f} {math.sqrt(var):>8.2f}")


if __name__ == "__main__":
    main()
