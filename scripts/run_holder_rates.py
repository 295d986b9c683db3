#!/usr/bin/env python3
"""Boundary convergence rates across the Holder exponent grid.

For each exponent alpha the density |x|^alpha is probed at its cusp: the gap
|C(lam + iy) - C(lam + i0)| should shrink like y^alpha.  Emits one CSV row
per (alpha, y) pair plus a fitted-slope summary table.
"""

import argparse
import csv
from pathlib import Path

from resolvent_limits import (
    DensityFamily,
    SpectralMeasure,
    WeightFunction,
    evaluate_offaxis,
    fit_divergence_rate,
    plemelj_boundary,
)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="out/holder_rates", help="output directory")
    ap.add_argument("--alphas", type=float, nargs="+", default=[0.3, 0.5, 0.7, 1.0])
    ap.add_argument("--ymax", type=float, default=0.1)
    ap.add_argument("--steps", type=int, default=14, help="rungs of the y-ladder per exponent (at least 4)")
    args = ap.parse_args()

    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    weight = WeightFunction("plateau", {"center": 0.25, "half_width": 0.75})
    ys = [args.ymax * 0.5 ** k for k in range(args.steps)]

    rows = []
    summary = []
    for alpha in args.alphas:
        measure = SpectralMeasure(
            ac_parts=(
                DensityFamily(
                    "power_bump", {"level": 1.0, "exponent": alpha, "center": 0.0}, (-0.5, 1.0)
                ),
            )
        )
        limit = plemelj_boundary(measure, weight, 0.0)
        gaps = []
        for y in ys:
            gap = abs(evaluate_offaxis(measure, weight, complex(0.0, y)).value - limit)
            gaps.append(gap)
            rows.append((alpha, y, gap))
        slope = fit_divergence_rate(gaps, ys)[0]
        summary.append((alpha, slope))

    with (outdir / "rates.csv").open("w", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(["alpha", "y", "gap"])
        for alpha, y, gap in rows:
            out.writerow([f"{alpha:.4f}", f"{y:.16e}", f"{gap:.16e}"])

    print(f"{'alpha':>8}{'fitted rate':>14}")
    for alpha, slope in summary:
        print(f"{alpha:>8.2f}{slope:>14.4f}")
    print(f"curve data written to {outdir / 'rates.csv'}")


if __name__ == "__main__":
    main()
