"""Realizable gain allocations and the hybrid switch point.

Method I beamforms every sensor at the single best receive antenna;
Method II points the sensors along the top eigenvector of H^H H.
Their mean exponents cross as the sensing SNR grows, and the hybrid
scheme switches between them at a crossover calibrated from common
channel draws.  The Method II direction depends on the channel alone
(the sensing SNR only rescales it), so it is computed once per draw and
reused at every grid point.
"""

import dataclasses

import numpy as np

from macdet.allocation import (
    NoCrossoverError,
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

    try:
        crossover = calibrate_crossover(params, model, grid, draws, src.stream(0))
        print(f"calibrated crossover: gamma_s = {crossover:.3f} ({snr_to_db(crossover):.2f} dB)")
    except NoCrossoverError as exc:
        crossover = None
        print(f"no crossover on the grid; {exc.dominant} dominates")

    channels = [
        sample_channel(model, params.num_antennas, params.num_sensors, src.substream("h", d)).entries
        for d in range(draws)
    ]
    directions = [method2_direction(h) for h in channels]
    print()
    print(f"{'gamma_s dB':>10} {'method1':>9} {'method2':>9} {'hybrid':>9}")
    for gamma_s in grid:
        p = dataclasses.replace(params, sigma_eta_sq=1.0 / gamma_s)
        per_draw1, per_draw2 = method_exponents(channels, directions, p)
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
