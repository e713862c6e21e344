"""Monte Carlo validation of the conditional error probability.

Draws a channel, computes the analytic error probability of the optimal
likelihood-ratio test conditioned on it, and checks a reproducible
Monte Carlo estimate against the analytic value and its 95% binomial
confidence interval, with each estimate's distance from the analytic
value in binomial standard deviations.  Rerunning prints identical
numbers.
"""

import math

from macdet.allocation import alpha_uniform
from macdet.detection import estimate_pe_montecarlo, pe_conditional
from macdet.model import ChannelModel, NetworkParams, RandomSource, sample_channel


def main() -> None:
    params = NetworkParams(
        num_sensors=40,
        num_antennas=2,
        theta=1.0,
        sigma_eta_sq=1.0,
        sigma_nu_sq=1.0,
        p1=0.5,
        total_power=2.0,
    )
    alpha = alpha_uniform(params)
    src = RandomSource(33)
    print("analytic vs Monte Carlo error probability, 10^5 trials per draw")
    print(
        f"{'draw':>4} {'model':>12} {'analytic':>9} {'estimate':>9} {'ci95':>8}"
        f" {'z':>6} {'inside':>6}"
    )
    for d, model in enumerate(
        (ChannelModel.awgn(), ChannelModel.ricean(1.0), ChannelModel.rayleigh())
    ):
        h = sample_channel(model, params.num_antennas, params.num_sensors, src.substream("h", d))
        pe = pe_conditional(h, alpha, params)
        est = estimate_pe_montecarlo(h, alpha, params, 100_000, RandomSource(33, stream_id=d))
        z = (est.p_hat - pe) / math.sqrt(pe * (1.0 - pe) / est.trials)
        inside = abs(est.p_hat - pe) <= est.ci95_halfwidth
        print(
            f"{d:4d} {model.label:>12} {pe:9.5f} {est.p_hat:9.5f}"
            f" {est.ci95_halfwidth:8.5f} {z:6.2f} {str(inside):>6}"
        )
    print()
    print("z is the estimate's distance from the analytic value in binomial")
    print("standard deviations; a 95% interval misses about 1 draw in 20 by")
    print("construction.  The estimator draws each block of trials from its")
    print("own seeded SFC64 generator, so the estimate is bit-identical")
    print("across reruns and worker schedules.")


if __name__ == "__main__":
    main()
