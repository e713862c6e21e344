"""Realizable gain allocations and the hybrid switch point.

Method I beamforms every sensor at the single best receive antenna;
Method II points the sensors along the top eigenvector of H^H H.
Their mean exponents cross as the sensing SNR grows, and the hybrid
scheme switches between them at a crossover calibrated on the same
channel draws the curves are averaged over: the grid's mean gaps come
from the exponents printed below, and bisection scores only its own
points.  The Method II direction depends on the channel alone (the
sensing SNR only rescales it), so it is computed once per draw and
reused at every grid point.
"""

import numpy as np

from macdet.allocation import (
    NoCrossoverError,
    _mean_exponent_gap,
    calibrate_crossover,
    method2_direction,
    method_exponents,
)
from macdet.exponents import snr_to_db
from macdet.model import ChannelModel, NetworkParams, RandomSource, sample_channel


def main() -> None:
    params = NetworkParams(
        num_sensors=100,
        num_antennas=4,
        theta=1.0,
        sigma_eta_sq=1.0,
        sigma_nu_sq=1.0,
        p1=0.5,
        total_power=10.0,
    )
    model = ChannelModel.ricean(1.0)
    grid = tuple(10.0 ** (db / 10.0) for db in range(-6, 13, 2))
    src = RandomSource(55)
    draws = 30

    channels = [
        sample_channel(model, params.num_antennas, params.num_sensors, src.substream("h", d)).entries
        for d in range(draws)
    ]
    directions = [method2_direction(h) for h in channels]

    def exponents_at(gamma_s):
        return method_exponents(channels, directions, params.at_gamma_s(gamma_s))

    scored = [exponents_at(gamma_s) for gamma_s in grid]
    try:
        crossover = calibrate_crossover(
            grid,
            [_mean_exponent_gap(*per_draw) for per_draw in scored],
            lambda gamma_s: _mean_exponent_gap(*exponents_at(gamma_s)),
        )
        print(f"calibrated crossover: gamma_s = {crossover:.3f} ({snr_to_db(crossover):.2f} dB)")
    except NoCrossoverError as exc:
        crossover = None
        print(f"no crossover on the grid; {exc.dominant} dominates")

    print()
    print(f"{'gamma_s dB':>10} {'method1':>9} {'method2':>9} {'hybrid':>9}")
    for gamma_s, (per_draw1, per_draw2) in zip(grid, scored):
        fe1, fe2 = np.mean(per_draw1), np.mean(per_draw2)
        if crossover is not None:
            # hybrid: method1 below the crossover, method2 at or above it
            feh = fe1 if gamma_s < crossover else fe2
        else:
            feh = max(fe1, fe2)
        print(f"{snr_to_db(gamma_s):10.1f} {fe1:9.5f} {fe2:9.5f} {feh:9.5f}")
    print()
    print("below the crossover the best single antenna wins (sensing noise")
    print("dominates); above it, spreading energy across the eigenbeam does.")


if __name__ == "__main__":
    main()
