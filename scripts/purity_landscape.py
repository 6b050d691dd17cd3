#!/usr/bin/env python3
"""Map the emitted-photon purity over (kappa/g, gamma_p/g) and trace ridges.

Produces the resonant and detuned (8g) purity maps, the time-filter
trade-off curves of the two benchmark working points, and prints the
secondary-maximum locations found by the golden-section scan.
"""

import argparse
import math
import pathlib

from dotcavity.cli import main as cli
from dotcavity.params import make_params
from dotcavity.photon_state import NoInteriorMax, purity_max_line


def run(out: pathlib.Path, points: int) -> None:
    out.mkdir(parents=True, exist_ok=True)
    grid = [
        "--kappa-min", "0.1", "--kappa-max", "100", "--kappa-points", str(points),
        "--gamma-p-min", "0.01", "--gamma-p-max", "100",
        "--gamma-p-points", str(points),
    ]
    cli(["purity-map", "--units", "g", "--resonant", *grid,
         "--output", str(out / "purity_map_resonant.csv")])
    cli(["purity-map", "--units", "g", "--detuning", "8", *grid,
         "--output", str(out / "purity_map_detuned8.csv")])

    cli(["time-filter", "--units", "g", "--kappa", "2", "--gamma-p", "0.5",
         "--resonant", "--output", str(out / "filter_resonant.csv")])
    cli(["time-filter", "--units", "g", "--kappa", str(math.sqrt(2) / 50),
         "--gamma-p", "100", "--detuning", "8",
         "--output", str(out / "filter_detuned8.csv")])

    print(f"wrote purity maps and filter curves to {out}/")
    print("secondary purity maxima (gamma_p*, purity*):")
    detuned = make_params(omega_d=8.0, omega_c=0.0, g=1.0,
                          kappa=math.sqrt(2) / 50.0, gamma=0.0, gamma_p=1.0)
    for label, params, window in (
        ("detuned 8g, lower branch", detuned, (0.05, 8.0)),
        ("detuned 8g, upper branch", detuned, (8.0, 2000.0)),
        ("resonant kappa=0.1g", make_params(omega_d=0.0, omega_c=0.0, g=1.0,
                                            kappa=0.1, gamma=0.0, gamma_p=1.0),
         (1.0, 500.0)),
    ):
        try:
            gp_star, p_star = purity_max_line(params, *window)
            print(f"  {label}: gamma_p = {gp_star:.3f} g, purity = {p_star:.4f}")
        except NoInteriorMax:
            print(f"  {label}: no interior maximum in {window}")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", type=pathlib.Path, default=pathlib.Path("out"))
    parser.add_argument("--points", type=int, default=40)
    args = parser.parse_args()
    run(args.out, args.points)
