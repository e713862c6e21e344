"""Phase-only gain design through semidefinite relaxation.

With fixed per-sensor magnitudes, maximizing alpha^H (H^H H) alpha over
the phases is nonconvex; lifting to X = alpha alpha^H and dropping the
rank constraint gives an SDP whose value upper-bounds the true optimum.
solve_sdp(H) solves it at unit diagonal, X_ll = 1, in the factored form
X = V V^H and returns V (solution.factor); at per-sensor power d the
relaxation value and its certified gap are d times the solution's.
Rounding the top eigenvector of X, taken from the small Gram V^H V, back
to unit modulus recovers a phase vector whose objective lands close to
the relaxation value, and the solver's dual certificate, d (objective +
gap), bounds every feasible phase vector from above.
"""

import numpy as np

from macdet.allocation import alpha_sdr_phase, alpha_uniform, finite_exponent
from macdet.model import ChannelModel, NetworkParams, RandomSource, sample_channel
from macdet.sdr import extract_phases, solve_sdp


def main() -> None:
    params = NetworkParams(
        num_sensors=6,
        num_antennas=2,
        theta=1.0,
        sigma_eta_sq=1.0,
        sigma_nu_sq=1.0,
        p1=0.5,
        total_power=6.0,
    )
    model = ChannelModel.rayleigh()
    src = RandomSource(66)
    d = params.gain_budget / params.num_sensors

    print(f"{'draw':>4} {'sdp_value':>10} {'rounded':>10} {'bound':>10} "
          f"{'ratio':>9} {'iters':>6}")
    ratios = []
    for i in range(8):
        h = sample_channel(
            model, params.num_antennas, params.num_sensors, src.substream("h", i)
        ).entries
        cost = h.conj().T @ h
        solution = solve_sdp(h)
        phases = extract_phases(solution)
        alpha = np.sqrt(d) * phases
        rounded = float(np.real(alpha.conj() @ cost @ alpha))
        objective = d * solution.objective
        bound = d * (solution.objective + solution.gap)
        ratio = rounded / objective
        ratios.append(ratio)
        print(f"{i:4d} {objective:10.4f} {rounded:10.4f} "
              f"{bound:10.4f} {ratio:9.6f} {solution.iterations:6d}")

    print()
    print(f"rounding ratio (rounded / relaxation value): "
          f"min {min(ratios):.6f}, mean {float(np.mean(ratios)):.6f}")
    print("bound = sdp_value + certified gap is an upper bound on every")
    print("feasible phase vector.  at this size the relaxation solution is")
    print("numerically rank one, so the rounded vector meets the bound to")
    print("within the gap and is certified optimal.  the guarantee in")
    print("general is ratio >= 0.7.")

    # the same pipeline packaged as a gain rule, against uniform gains
    h = sample_channel(
        model, params.num_antennas, params.num_sensors, src.substream("h", 99)
    ).entries
    fe_sdr = finite_exponent(h, alpha_sdr_phase(h, params), params)
    fe_uni = finite_exponent(h, alpha_uniform(params), params)
    print()
    print(f"exponent with SDR phases  : {fe_sdr:.5f}")
    print(f"exponent with uniform gain: {fe_uni:.5f}")


if __name__ == "__main__":
    main()
