"""Realizable gain allocations and the hybrid switch point.

Method I beamforms every sensor at the single best receive antenna;
Method II points the sensors along the top eigenvector of H^H H.
Their mean exponents cross as the sensing SNR grows, and the hybrid
scheme, allocation.scheme_sweep, switches between them at a crossover
calibrated on the same channel draws the curves are averaged over: the
grid's mean gaps come from the exponents printed below, and bisection
scores only its own points, each printed with its mean gap (method1 -
method2).  Without a crossover the hybrid follows the method that leads
on the whole grid.
"""

from macdet.allocation import scheme_sweep
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
    result = scheme_sweep(channels, grid, params)
    if result.crossover is not None:
        print(
            f"calibrated crossover: gamma_s = {result.crossover:.3f}"
            f" ({snr_to_db(result.crossover):.2f} dB)"
        )
        for gamma_s, gap in result.bisection:
            print(f"  bisection step at {snr_to_db(gamma_s):6.3f} dB: mean gap {gap:+.3e}")
    else:
        print(f"no crossover on the grid; {result.dominant} dominates")

    print()
    print(f"{'gamma_s dB':>10} {'method1':>9} {'method2':>9} {'hybrid':>9}")
    for gamma_s, per_draw in zip(result.grid, result.exponents):
        fe1, fe2, feh = per_draw.mean(axis=0)
        print(f"{snr_to_db(gamma_s):10.1f} {fe1:9.5f} {fe2:9.5f} {feh:9.5f}")
    print()
    print("below the crossover the best single antenna wins (sensing noise")
    print("dominates); above it, spreading energy across the eigenbeam does.")


if __name__ == "__main__":
    main()
