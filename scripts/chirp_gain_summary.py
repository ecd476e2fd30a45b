#!/usr/bin/env python3
"""Print how much secure range the optimal chirp buys per configuration.

For each (jitter, dispersion) pair: range at C = 0, the scan's best chirp
c_star (the closed-form optimum, or a grid sample that reaches farther),
range at c_star, and the relative gain.

Usage: python scripts/chirp_gain_summary.py
"""

from dataclasses import replace

from dispersive_qkd.analysis import default_chirp_grid, max_distance, scan_chirp
from dispersive_qkd.config import BETA_UNIT, PS
from dispersive_qkd.keyrate import ScenarioParams

JITTERS_PS = (4.0, 10.0, 25.0)
BETAS_E26 = (-0.7, -1.15, -1.5)
CHIRP_GRID = default_chirp_grid(-2.0, 2.0, 0.05)


def main() -> None:
    print(f"{'jitter_ps':>9} {'beta_e26':>9} {'L0_km':>8} {'c_star':>8} "
          f"{'Lstar_km':>9} {'gain_%':>7}")
    for jitter_ps in JITTERS_PS:
        for beta_e26 in BETAS_E26:
            params = ScenarioParams(jitter=jitter_ps * PS, beta=beta_e26 * BETA_UNIT)
            scan = scan_chirp(params, CHIRP_GRID)
            baseline = max_distance(replace(params, chirp=0.0))
            gain = 100.0 * (scan.l_max_star / baseline - 1.0) if baseline else 0.0
            flag = " (boundary)" if scan.at_boundary else ""
            print(f"{jitter_ps:>9g} {beta_e26:>9g} {baseline:>8.2f} "
                  f"{scan.c_star:>8.3f} {scan.l_max_star:>9.2f} {gain:>7.2f}{flag}")


if __name__ == "__main__":
    main()
