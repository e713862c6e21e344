"""Release acceptance suite.

One test per criterion.  Each prints a single [PASS]/[FAIL] line carrying
the measured values (run with -s to see the lines for passing tests), then
asserts, so the log doubles as the acceptance report.
"""

import dataclasses
import math

import numpy as np

from macdet.allocation import (
    alpha_opt_n1,
    alpha_phase_only_n1,
    alpha_uniform,
    finite_exponent,
    method1,
    method2,
    scheme_sweep,
)
from macdet.detection import empirical_exponent, estimate_pe_montecarlo, pe_conditional
from macdet.exponents import (
    SnrPoint,
    ZetaFactor,
    corr_noise_z,
    e_awgn,
    e_csis1_rayleigh_closed,
    e_nocsis,
    exponent_ratio_db,
    gain_csis_bound,
    gain_csis_bound_nk,
    gain_inf_bound,
    snr_to_db,
)
from macdet.forms import exponent_statistic
from macdet.model import (
    ChannelModel,
    NetworkParams,
    RandomSource,
    SensingNoiseModel,
    sample_channel,
)
from macdet.sdr import extract_phases, solve_sdp
from oracles import e_csis1_numeric, phase_optimum


def _check(num: int, name: str, ok: bool, detail: str) -> None:
    tag = "PASS" if ok else "FAIL"
    print(f"[{tag}] criterion {num:2d} ({name}): {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def _params(
    num_sensors: int,
    num_antennas: int,
    gamma_s: float = 1.0,
    gamma_c: float = 1.0,
    p1: float = 0.5,
) -> NetworkParams:
    # theta = sigma_nu_sq = 1, so sigma_eta_sq = 1/gamma_s and P_T = gamma_c
    return NetworkParams(
        num_sensors=num_sensors,
        num_antennas=num_antennas,
        theta=1.0,
        sigma_eta_sq=1.0 / gamma_s,
        sigma_nu_sq=1.0,
        p1=p1,
        total_power=gamma_c,
    )


def _pt(gamma_s=1.0, gamma_c=1.0, p1=0.5, k=0.0, n=1):
    return SnrPoint(gamma_s=gamma_s, gamma_c=gamma_c, p1=p1, k_factor=k, num_antennas=n)


def test_criterion_01_awgn_antenna_gain_db():
    db21 = exponent_ratio_db(e_awgn(_pt(n=2)) / e_awgn(_pt(n=1)))
    db32 = exponent_ratio_db(e_awgn(_pt(n=3)) / e_awgn(_pt(n=2)))
    ok = abs(db21 - 3.10) <= 0.05 and abs(db32 - 1.34) <= 0.05
    _check(
        1,
        "awgn antenna gain dB",
        ok,
        f"N1->N2 {db21:.3f} dB (want 3.10 +- 0.05), N2->N3 {db32:.3f} dB (want 1.34 +- 0.05)",
    )


def test_criterion_02_full_csi_gain_bound_anchors():
    zeta = ZetaFactor.rayleigh()
    anchors = {2: 1.4286, 3: 1.6667, 4: 1.8182}
    measured = {
        n: gain_csis_bound(_pt(k=1.0, n=n), zeta) / zeta.zeta for n in anchors
    }
    ok = all(abs(measured[n] / anchors[n] - 1.0) <= 1e-3 for n in anchors)
    _check(
        2,
        "full-CSI gain bound anchors",
        ok,
        "bound/zeta = "
        + ", ".join(f"N={n}: {measured[n]:.4f} (want {anchors[n]})" for n in anchors),
    )


def test_criterion_03_rayleigh_gain_ceiling():
    zeta = ZetaFactor.rayleigh()
    values = [gain_csis_bound_nk(n, 0.0, zeta) for n in range(1, 513)]
    increasing = all(b > a for a, b in zip(values, values[1:]))
    limit = gain_csis_bound_nk(10**12, 0.0, zeta)
    ceiling = 8.0 / math.pi
    ok = (
        increasing
        and abs(2.0 * zeta.zeta - ceiling) <= 1e-9
        and abs(limit - ceiling) <= 1e-9
        and abs(zeta.zeta - 4.0 / math.pi) <= 1e-12
    )
    _check(
        3,
        "rayleigh gain ceiling",
        ok,
        f"increasing on N=1..512: {increasing}, limit {limit:.12f} vs 2*zeta = 8/pi = {ceiling:.12f}",
    )


def test_criterion_04_correlated_noise_reduction():
    zeta = ZetaFactor.from_model(ChannelModel.ricean(1.0))
    params = NetworkParams(
        num_sensors=6,
        num_antennas=2,
        theta=1.0,
        sigma_eta_sq=0.7,
        sigma_nu_sq=1.0,
        p1=0.5,
        total_power=2.5,
    )
    iid_matrix = SensingNoiseModel(
        np.eye(6, dtype=np.complex128) * params.sigma_eta_sq
    )
    pt = SnrPoint.from_params(params, k_factor=1.0)
    z_tilde = corr_noise_z(params, iid_matrix)
    pt_eff = dataclasses.replace(pt, gamma_s=params.theta**2 / iid_matrix.lambda_min)
    bitwise = (
        z_tilde == pt.z
        and gain_csis_bound(pt_eff, zeta) == gain_csis_bound(pt, zeta)
    )

    # pairwise-correlated blocks with unchanged diagonal: lambda_min is
    # exactly half the iid sigma_eta_sq
    block = np.kron(np.eye(3), np.array([[1.0, 0.5], [0.5, 1.0]]))
    violations = 0
    worst = math.inf
    # grid kept at z >= (N-1)/(N(NK+1)), the regime where the bound falls
    # off with z, so a smaller effective z cannot lower it
    for gamma_s in np.logspace(-1.0, 0.6, 10):
        for gamma_c in np.logspace(0.0, 1.0, 10):
            params_g = _params(6, 2, gamma_s=gamma_s, gamma_c=gamma_c)
            noise_g = SensingNoiseModel(
                (block * params_g.sigma_eta_sq).astype(np.complex128)
            )
            gs_eff = params_g.theta**2 / noise_g.lambda_min
            pt_g = SnrPoint.from_params(params_g, k_factor=1.0)
            bound_iid = gain_csis_bound(pt_g, zeta)
            bound_corr = gain_csis_bound(
                dataclasses.replace(pt_g, gamma_s=gs_eff), zeta
            )
            worst = min(worst, bound_corr - bound_iid)
            if gs_eff < params_g.gamma_s or bound_corr < bound_iid * (1.0 - 1e-12):
                violations += 1
    ok = bitwise and violations == 0
    _check(
        4,
        "correlated-noise reduction",
        ok,
        f"iid bit-for-bit: {bitwise}, halved lambda_min on 100 points: "
        f"{violations} violations, min bound increase {worst:.3e}",
    )


def test_criterion_05_phase_only_constant():
    params = _params(10_000, 1)
    src = RandomSource(5)
    exponents = []
    for d in range(20):
        h = sample_channel(ChannelModel.rayleigh(), 1, 10_000, src.substream("po", d))
        exponents.append(
            finite_exponent(h, alpha_phase_only_n1(h.entries[0], params), params)
        )
    mean = float(np.mean(exponents))
    target = (math.pi / 4.0) * e_awgn(_pt(n=1))
    rel = abs(mean / target - 1.0)
    _check(
        5,
        "phase-only constant",
        rel <= 0.02,
        f"mean exponent {mean:.6f} vs (pi/4) e_awgn(1) = {target:.6f} (rel {rel:.4%}, tol 2%)",
    )


def test_criterion_06_single_antenna_optimal_gains():
    rng = np.random.default_rng(6)
    src = RandomSource(6)
    worst_margin = math.inf
    for instance in range(50):
        gamma_s, gamma_c = 10.0 ** rng.uniform(-0.5, 0.5, size=2)
        params = _params(8, 1, gamma_s=gamma_s, gamma_c=gamma_c, p1=rng.uniform(0.3, 0.7))
        h = sample_channel(ChannelModel.rayleigh(), 1, 8, src.substream("opt", instance))
        fe_opt = finite_exponent(h, alpha_opt_n1(h.entries[0], params), params)
        budget = params.gain_budget
        raw = rng.standard_normal((10_000, 8)) + 1j * rng.standard_normal((10_000, 8))
        scales = np.sqrt(budget / np.sum(np.abs(raw) ** 2, axis=1))
        best = float(np.max(exponent_statistic(h.entries, raw * scales[:, None], params)))
        worst_margin = min(worst_margin, fe_opt - best)
        if best > fe_opt * (1.0 + 1e-10):
            _check(
                6,
                "single-antenna optimal gains",
                False,
                f"instance {instance}: random vector beat alpha_opt_n1 by {best - fe_opt:.3e}",
            )
    _check(
        6,
        "single-antenna optimal gains",
        True,
        f"alpha_opt_n1 >= 10^4 random feasible vectors on 50 instances "
        f"(narrowest margin {worst_margin:.3e})",
    )


def test_criterion_07_montecarlo_matches_analytic():
    """30 sampled configurations, each a 10^5-trial Monte Carlo estimate
    against its pe_conditional; at least 28 must fall inside the 95% CI.

    Its false-failure odds are not small.  With each configuration inside
    its CI with probability 0.95, on a fresh set of draws the check fails
    with probability P[Bin(30, 0.05) >= 3] = 0.188, about one in five.  A
    deliberate change of the RNG or of the trial-block layout draws afresh
    and so trips it about one time in five on correct code: one probe of
    an interleaved receiver-noise layout read 27/30.  The threshold and
    seed stay as they are; such a change reports the count it reads."""
    rng = np.random.default_rng(7)
    src = RandomSource(7)
    models = (ChannelModel.awgn(), ChannelModel.rayleigh())
    hits = 0
    attempts = 0
    configs = 0
    while configs < 30:
        attempts += 1
        if attempts > 400:
            raise RuntimeError("config sampling failed to land in the testable range")
        num_sensors = int(rng.integers(4, 65))
        num_antennas = int(rng.integers(1, 5))
        if rng.random() < 0.4:
            model = ChannelModel.ricean(float(rng.uniform(0.0, 4.0)))
        else:
            model = models[int(rng.integers(0, 2))]
        gamma_s, gamma_c = 10.0 ** rng.uniform(-1.0, 1.0, size=2)
        params = _params(
            num_sensors,
            num_antennas,
            gamma_s=gamma_s,
            gamma_c=gamma_c,
            p1=float(rng.uniform(0.2, 0.8)),
        )
        h = sample_channel(model, num_antennas, num_sensors, src.substream("mc", attempts))
        alpha = alpha_uniform(params)
        pe = pe_conditional(h, alpha, params)
        if not 0.005 <= pe <= 0.45:
            continue
        configs += 1
        est = estimate_pe_montecarlo(
            h, alpha, params, 100_000, RandomSource(7, stream_id=configs)
        )
        if abs(est.p_hat - pe) <= est.ci95_halfwidth:
            hits += 1
    _check(
        7,
        "monte carlo vs analytic",
        hits >= 28,
        f"{hits}/30 configurations inside the 95% CI at 10^5 trials (need >= 28)",
    )


def test_criterion_08_exponent_convergence():
    grid = (50, 100, 200, 300, 400, 600)
    tail_from = grid.index(200)
    plateaus = {}
    flats = {}
    consts = {}
    for mi, model in enumerate((ChannelModel.awgn(), ChannelModel.ricean(1.0))):
        k = 0.0 if model.is_awgn else 1.0
        for n in (2, 10):
            params = _params(grid[-1], n, gamma_c=10.0)
            curve = empirical_exponent(
                params, model, grid, RandomSource(8, stream_id=mi * 16 + n), draws=50
            )
            tail = curve.values[tail_from:]
            flats[(mi, n)] = float(tail.max() / tail.min())
            plateaus[(mi, n)] = curve.plateau
            pt = _pt(gamma_c=10.0, k=k, n=n)
            consts[(mi, n)] = curve.plateau / (
                e_awgn(pt) if model.is_awgn else e_nocsis(pt)
            )
    flat_ok = all(f <= 1.05 for f in flats.values())
    ratio_errors = {}
    for mi, closed in ((0, e_awgn), (1, e_nocsis)):
        k = 0.0 if mi == 0 else 1.0
        expected = closed(_pt(gamma_c=10.0, k=k, n=10)) / closed(
            _pt(gamma_c=10.0, k=k, n=2)
        )
        ratio_errors[mi] = abs(plateaus[(mi, 10)] / plateaus[(mi, 2)] / expected - 1.0)
    ratio_ok = all(err <= 0.05 for err in ratio_errors.values())
    const_values = ", ".join(f"{v:.3f}" for v in consts.values())
    _check(
        8,
        "exponent convergence",
        flat_ok and ratio_ok,
        f"flatness beyond L=200 max ratio {max(flats.values()):.4f} (tol 1.05), "
        f"N10/N2 ratio errors awgn {ratio_errors[0]:.4%} / ricean {ratio_errors[1]:.4%} "
        f"(tol 5%); absolute plateau/closed-form constants (reported only): {const_values}",
    )


def test_criterion_09_zero_mean_fading_decay():
    grid = (200, 500, 1000, 2000)
    params = _params(grid[-1], 2)
    ray = empirical_exponent(
        params, ChannelModel.rayleigh(), grid, RandomSource(9, stream_id=0), draws=50
    )
    ric = empirical_exponent(
        params, ChannelModel.ricean(1.0), grid, RandomSource(9, stream_id=1), draws=50
    )
    decreasing = bool(np.all(np.diff(ray.values) < 0.0))
    fraction = float(ray.values[-1] / ric.values[-1])
    _check(
        9,
        "zero-mean fading decay",
        decreasing and fraction <= 0.25,
        f"rayleigh exponent decreasing on {grid}: {decreasing}, "
        f"at L=2000 it is {fraction:.3f} of the ricean(K=1) value (need <= 0.25)",
    )


def test_criterion_10_large_system_spectral_edge():
    lams = []
    for d in range(20):
        h = sample_channel(
            ChannelModel.rayleigh(), 256, 256, RandomSource(10, stream_id=d).substream()
        ).entries
        gram = h.conj().T @ h / 256.0
        lams.append(float(np.linalg.eigvalsh(gram)[-1]))
    mean = float(np.mean(lams))
    zeta = ZetaFactor.rayleigh()
    exact = gain_inf_bound(1.0, zeta) == 5.0 * zeta.zeta
    ok = abs(mean / 4.0 - 1.0) <= 0.05 and exact
    _check(
        10,
        "large-system spectral edge",
        ok,
        f"mean lambda_max {mean:.4f} vs limit 4.0 (tol 5%), "
        f"gain_inf_bound(1, zeta) == 5*zeta exactly: {exact}",
    )


def test_criterion_11_sdr_phase_design():
    src = RandomSource(11)
    min_ratio = math.inf
    min_slack = math.inf
    for instance in range(25):
        h = sample_channel(ChannelModel.rayleigh(), 2, 6, src.substream("sdr", instance))
        cost = h.entries.conj().T @ h.entries
        solution = solve_sdp(h.entries)
        assert solution.converged
        upper = solution.objective + solution.gap
        best, _ = phase_optimum(h.entries, 1.0)
        phases = extract_phases(solution)
        rounded = float(np.vdot(phases, cost @ phases).real)
        if best > upper:
            _check(
                11,
                "sdr phase design",
                False,
                f"instance {instance}: phase optimum {best:.6f} above SDP bound {upper:.6f}",
            )
        ratio = rounded / solution.objective
        min_ratio = min(min_ratio, ratio)
        min_slack = min(min_slack, upper - best)
        if not 0.7 - 1e-9 <= ratio <= 1.0 + 1e-9:
            _check(
                11,
                "sdr phase design",
                False,
                f"instance {instance}: rounded/SDP ratio {ratio:.4f} outside [0.7, 1.0]",
            )
    _check(
        11,
        "sdr phase design",
        True,
        f"25 instances: SDP objective + gap >= phase optimum (min slack {min_slack:.3e}), "
        f"rounded/SDP in [0.7, 1.0] (min {min_ratio:.4f})",
    )


def test_criterion_12_hybrid_crossover_calibration():
    grid = tuple(10.0 ** (db / 10.0) for db in range(-5, 16))
    model = ChannelModel.ricean(1.0)
    results = {}
    for n, target_db in ((5, 3.0), (50, 8.25)):
        params = _params(200, n, gamma_c=10.0)
        rng = RandomSource(12, stream_id=n)
        channels = [
            sample_channel(model, n, 200, rng.substream("calibrate", t)).entries
            for t in range(50)
        ]
        result = scheme_sweep(channels, grid, params)
        results[n] = None if result.crossover is None else snr_to_db(result.crossover)
        results[f"dominant{n}"] = result.dominant

    # ordering check: best-antenna combining ahead at low sensing SNR,
    # eigenbeamforming ahead at high, per mean exponent over 50 draws
    params5 = _params(200, 5, gamma_c=10.0)
    src = RandomSource(12, stream_id=5)
    channels = [
        sample_channel(model, 5, 200, src.substream("order", d)).entries
        for d in range(50)
    ]

    def mean_gap(gamma_s: float) -> float:
        p = dataclasses.replace(params5, sigma_eta_sq=1.0 / gamma_s)
        gaps = [
            finite_exponent(h, method1(h, p)[0], p)
            - finite_exponent(h, method2(h, p), p)
            for h in channels
        ]
        return float(np.mean(gaps))

    ordering_ok = mean_gap(grid[0]) > 0.0 and mean_gap(grid[-1]) < 0.0

    def describe(n):
        if results[n] is None:
            return f"N={n}: no crossover ({results[f'dominant{n}']} dominant on -5..15 dB)"
        return f"N={n}: {results[n]:.2f} dB"

    ok = (
        ordering_ok
        and results[5] is not None
        and abs(results[5] - 3.0) <= 1.5
        and results[50] is not None
        and abs(results[50] - 8.25) <= 1.5
    )
    _check(
        12,
        "hybrid crossover calibration",
        ok,
        f"{describe(5)} (want 3.0 +- 1.5), {describe(50)} (want 8.25 +- 1.5); "
        f"method order low/high sensing SNR correct: {ordering_ok}",
    )


def test_criterion_13_single_antenna_closed_form_reconciliation():
    model = ChannelModel.rayleigh()
    points = [
        (gamma_s, gamma_c)
        for gamma_s in np.logspace(-0.5, 1.0, 5)
        for gamma_c in (0.5, 1.0, 2.0, 5.0)
    ]
    assert len(points) == 20

    def numeric(gamma_s: float, gamma_c: float) -> float:
        return e_csis1_numeric(_params(1, 1, gamma_s=gamma_s, gamma_c=gamma_c), model)

    closed = np.array([e_csis1_rayleigh_closed(_pt(gs, gc)) for gs, gc in points])
    direct = np.array([numeric(gs, gc) for gs, gc in points])
    conventions = {}
    for constant, scale in ((1.0, 1.0), (0.5, 1.0), (1.0, 2.0), (0.5, 2.0)):
        ref = np.array([constant * numeric(gs, scale * gc) for gs, gc in points])
        conventions[(constant, scale)] = float(np.max(np.abs(closed / ref - 1.0)))
    best = min(conventions, key=conventions.get)

    print("reconciliation report: closed form vs numeric quadrature, 20 points")
    ratios = closed / direct
    print(
        f"  direct ratio closed/numeric: min {ratios.min():.4f}, "
        f"max {ratios.max():.4f} (not a constant multiple at same arguments)"
    )
    for (constant, scale), err in sorted(conventions.items()):
        print(
            f"  convention closed(gs, gc) = {constant:g} * numeric(gs, {scale:g}*gc): "
            f"max rel err {err:.3e}"
        )
    print(
        f"  fitted convention: constant {best[0]:g}, channel-SNR argument scale {best[1]:g}"
    )
    ok = bool(np.all(np.isfinite(ratios)) and conventions[best] <= 1e-6)
    _check(
        13,
        "closed-form reconciliation",
        ok,
        f"report produced; fitted constant {best[0]:g} with gamma_c scale {best[1]:g} "
        f"matches within {conventions[best]:.3e}",
    )
