#!/usr/bin/env python3
"""Print how much secure range the optimal chirp buys per configuration.

For each (jitter, dispersion) pair: range at C = 0, the scan's best chirp
c_star (the closed-form optimum, or a grid sample that reaches farther),
range at c_star, and the relative gain.
"""

import argparse
import sys
from dataclasses import replace

from dispersive_qkd.analysis import default_chirp_grid, max_distance, scan_chirp
from dispersive_qkd.keyrate import ScenarioParams

PS = 1e-12


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--jitters-ps", type=float, nargs="*", default=[4.0, 10.0, 25.0]
    )
    parser.add_argument(
        "--betas-e26", type=float, nargs="*", default=[-0.7, -1.15, -1.5]
    )
    parser.add_argument("--c-min", type=float, default=-2.0)
    parser.add_argument("--c-max", type=float, default=2.0)
    parser.add_argument("--c-step", type=float, default=0.05)
    args = parser.parse_args()

    grid = default_chirp_grid(args.c_min, args.c_max, args.c_step)
    print(f"{'jitter_ps':>9} {'beta_e26':>9} {'L0_km':>8} {'c_star':>8} "
          f"{'Lstar_km':>9} {'gain_%':>7}")
    for jitter_ps in args.jitters_ps:
        for beta_e26 in args.betas_e26:
            params = ScenarioParams(jitter=jitter_ps * PS, beta=beta_e26 * 1e-26)
            scan = scan_chirp(params, grid)
            baseline = max_distance(replace(params, chirp=0.0))
            gain = 100.0 * (scan.l_max_star / baseline - 1.0) if baseline else 0.0
            flag = " (boundary)" if scan.at_boundary else ""
            print(f"{jitter_ps:>9g} {beta_e26:>9g} {baseline:>8.2f} "
                  f"{scan.c_star:>8.3f} {scan.l_max_star:>9.2f} {gain:>7.2f}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
