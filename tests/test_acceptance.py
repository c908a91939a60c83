"""End-to-end acceptance checks against the contracted reference values.

Each criterion computes its quantities, prints one PASS/FAIL line (visible
with -s or in captured output), and then asserts.  Four contracted values
were contradicted by the equations and have been corrected, each resting on
a route that does not go through the code under test:

- criterion 1: a_6 = 4.284724, confirmed by a fixed-step RK4 backward trace
  written here (the published table prints 4.284674);
- criterion 8: the bundle splitting slope is -pi/2, from the linearisation
  d' = -pi x sin(pi x y) d (the contract said -pi);
- criterion 10: the n^(3/5) exponent is estimated with the index offset of
  a_n = C (n - nu)^p left free, a fit shown here to recover 2/3 and 1/2 on
  synthetic data (the plain log-log slope reads 0.693 at n = 6..12);
- criterion 12: the second scan maximum is at 1 - 0.3780 = 0.6220, by the
  exact tau -> 1 - tau symmetry, checked here with companion-matrix roots
  and, without finding roots, by argument-principle winding counts (the
  contract said 0.8780).
"""

import json
import math
from fractions import Fraction

import numpy as np
import pytest

from published import FIG2_CAPTION, PAINLEVE_C, PAINLEVE_EIGS, RHO_MAX, RHO_TAU
from reference import companion_roots, pole_series_eval

A_CONSTANT = 2.0 ** (5.0 / 6.0)
CUBE_ROOT_2 = 2.0 ** (1.0 / 3.0)


def report(criterion: str, ok: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


def rk4_backward_intercept(n: int) -> float:
    """a_n by classical RK4, step 1e-3, from the odd-m tail at x0 = 20 to x = 0.

    Independent of nel.ode.  The seed is the leading tail term
    y = (m + 1/2)/x0 with m = 2n - 1.  Under decreasing x the separatrix
    attracts: the linearised equation d' = -pi x sin(pi x y) d has
    sin = -1 on odd bundles, so an error in the seed shrinks like
    exp(-pi (x0^2 - x^2) / 2) and the omitted tail terms do not matter.
    """
    def f(x, y):
        return math.cos(math.pi * x * y)

    x0, h = 20.0, 1e-3
    y = (2 * n - 0.5) / x0
    steps = round(x0 / h)
    for i in range(steps):
        x = x0 - i * h
        k1 = f(x, y)
        k2 = f(x - h / 2, y - h / 2 * k1)
        k3 = f(x - h / 2, y - h / 2 * k2)
        k4 = f(x - h, y - h * k3)
        y -= h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    return y


def offset_power_fit(n, a):
    """(p, nu) of the least-squares fit ln a = ln C + p ln(n - nu).

    The offset nu is scanned over [-3, 5) in steps of 1e-3, which needs
    min(n) > 5; for each nu the slope p is the ordinary least-squares one,
    and the nu with the smallest residual wins.  A plain log-log slope
    (nu = 0) confuses the offset with the exponent at small n.
    """
    nus = np.arange(-3.0, 5.0, 1e-3)
    x = np.log(np.asarray(n, float)[None, :] - nus[:, None])
    y = np.log(np.asarray(a, float))
    xc = x - x.mean(axis=1, keepdims=True)
    yc = y - y.mean()
    p = (xc * yc).sum(axis=1) / (xc * xc).sum(axis=1)
    resid = ((yc - p[:, None] * xc) ** 2).sum(axis=1)
    best = int(np.argmin(resid))
    return float(p[best]), float(nus[best])


def test_criterion_01_reference_intercepts(reference_table):
    table, elapsed = reference_table
    diffs = {rec["n"]: rec["a_n"] - FIG2_CAPTION[rec["n"]] for rec in table}
    bad = {n: d for n, d in diffs.items() if abs(d) > 1e-5}
    ok = not bad and elapsed <= 60.0
    worst = max(abs(d) for d in diffs.values())
    report("1", ok,
           f"worst |diff| {worst:.2e}, over-tolerance {sorted(bad)}, "
           f"runtime {elapsed:.1f}s")
    assert elapsed <= 60.0
    assert not bad, (
        f"intercepts beyond 1e-5 of the contracted values: "
        f"{ {n: round(d, 7) for n, d in bad.items()} }")


def test_criterion_01_sixth_intercept_by_rk4(reference_table):
    # Second route for the corrected a_6 entry, outside nel: the RK4 value
    # must round to the six printed decimals and match the program's trace.
    table, _ = reference_table
    program = next(rec["a_n"] for rec in table if rec["n"] == 6)
    rk4 = rk4_backward_intercept(6)
    ok = abs(rk4 - FIG2_CAPTION[6]) <= 5e-7 and abs(rk4 - program) <= 1e-7
    report("1[rk4]", ok, f"RK4 a_6 {rk4:.10f}, program {program:.10f}, "
                         f"table {FIG2_CAPTION[6]}")
    assert abs(rk4 - FIG2_CAPTION[6]) <= 5e-7
    assert abs(rk4 - program) <= 1e-7


def test_criterion_02_cross_method_agreement(cross_method_10):
    gaps = {n: abs(b - t) for n, (b, t) in cross_method_10.items()}
    worst = max(gaps.values())
    ok = worst <= 1e-7
    report("2", ok, f"worst |bisect - backward| {worst:.2e} over n=1..10")
    assert ok


def test_criterion_03_growth_constant_extrapolation(geometric_intercepts):
    from nel.extrapolate import richardson

    idx = sorted(geometric_intercepts)
    seq = [math.sqrt(2.0) * geometric_intercepts[n] / math.sqrt(2 * n - 0.5)
           for n in idx]
    est = richardson(seq, idx, stages=4).limit
    err = abs(est - A_CONSTANT)
    ok = err <= 1e-5
    report("3", ok, f"|A - 2^(5/6)| = {err:.2e} from n in {idx}")
    assert ok


def test_criterion_03_limit_printed_by_the_cli(geometric_intercepts, tmp_path, capsys):
    # `nel extrapolate --target a-constant` prints that limit, bit for bit
    from nel.cli import main
    from nel.extrapolate import richardson

    out = tmp_path / "aconst.json"
    assert main(["extrapolate", "--target", "a-constant", "--out", str(out)]) == 0
    capsys.readouterr()
    limit = json.loads(out.read_text())["limit"]
    idx = sorted(geometric_intercepts)
    seq = [math.sqrt(2.0) * geometric_intercepts[n] / math.sqrt(2 * n - 0.5)
           for n in idx]
    assert limit.hex() == richardson(seq, idx, stages=4).limit.hex()
    assert abs(limit - A_CONSTANT) <= 1e-5


def test_growth_constant_correction_exponent(geometric_intercepts):
    # The scaled intercepts approach 2^(5/6) like n^(-1.309); fitted against
    # the exact constant and against their own Richardson limit, the
    # exponent agrees to 1e-3.
    from nel.extrapolate import fit_correction_exponent, richardson

    idx = sorted(geometric_intercepts)
    seq = [math.sqrt(2.0) * geometric_intercepts[n] / math.sqrt(2 * n - 0.5)
           for n in idx]
    exact = fit_correction_exponent(seq, idx, A_CONSTANT)
    own = fit_correction_exponent(seq, idx, richardson(seq, idx, stages=4).limit)
    report("3[exponent]", True, f"correction exponent {exact:.4f} against 2^(5/6), "
                                f"{own:.4f} against the Richardson limit")
    assert abs(exact - 1.309) <= 5e-4
    assert abs(exact - own) <= 1e-3


def test_criterion_04_limit_curve():
    from nel.limitcurve import implicit_Z, solve_limit_ode

    lc = solve_limit_ode(1001)
    z0_err = abs(implicit_Z(1e-6) - CUBE_ROOT_2)
    sup = max(abs(z - zi) for z, zi in zip(lc.zs, implicit_Z(lc.ts).tolist()))
    slope0 = abs((4 * lc.zs[1] - 3 * lc.zs[0] - lc.zs[2]) / (2 * lc.ts[1]))
    ok = (z0_err <= 1e-10 and sup <= 1e-8 and lc.zs[-1] == 1.0
          and implicit_Z(0.0) == CUBE_ROOT_2 and slope0 < 1e-5)
    report("4", ok, f"|Z(0+)-2^(1/3)| {z0_err:.1e}, sup gap {sup:.1e}, "
                    f"Z(1) {lc.zs[-1]}, |Z'(0)| {slope0:.1e}")
    assert ok


def test_criterion_05_alpha_identities():
    from nel.limitcurve import alpha_closed_form, alpha_recursion

    tab = alpha_recursion(62, 60)
    mismatches = 0
    checked = 0
    for k in range(61):
        for n in range(1, 62 - k + 1):
            val = tab.value(n, k)
            if (n - k) % 2 != 0:
                mismatches += val != 0
            else:
                checked += 1
                mismatches += val != alpha_closed_form(n, k)
    ok = mismatches == 0
    report("5", ok, f"{checked} same-parity entries with n+k<=60 equal "
                    f"exactly; {mismatches} mismatches")
    assert ok


def test_criterion_06_energy_balance_order(scaled_eta_pair):
    e50, _, env50, env100 = scaled_eta_pair
    ratio = env50 / env100
    ok_ratio = 1.2 <= ratio <= 2.8
    ok_closed = e50.mismatch_closed <= 5 * env50
    ok = ok_ratio and ok_closed
    report("6", ok, f"envelope ratio n=50/100 {ratio:.2f} "
                    f"(pointwise {e50.residual_balance:.1e}), "
                    f"closed-form gap {e50.mismatch_closed:.1e} "
                    f"vs 5x residual {5 * env50:.1e}")
    assert ok


def test_criterion_07_convergence_to_limit_curve():
    from nel.limitcurve import implicit_Z
    from nel.separatrix import scaled_separatrix

    grid = [0.9 * k / 50000 for k in range(50001)]
    zref = implicit_Z(grid)

    def sup_dev(n):
        return float(np.abs(np.array(scaled_separatrix(n, grid)) - zref).max())

    dev_big = sup_dev(10000)
    ratio = sup_dev(100) / sup_dev(200)
    ok = dev_big <= 5e-5 and 1.4 <= ratio <= 2.6
    report("7", ok, f"sup dev at n=10000 {dev_big:.2e}, "
                    f"n=100/200 ratio {ratio:.2f}")
    assert ok


def test_criterion_08_bundle_splitting_slope():
    from nel.cosine import bundle_decay_fit

    # The difference d = y1 - y2 obeys d' = -pi x sin(pi x y) d; on an even-m
    # bundle pi x y -> pi (m + 1/2), where the sine is 1, so d ~ exp(-pi x^2/2)
    # and the slope is -pi/2 (the contract said -pi).
    slope = bundle_decay_fit(0.2, 0.4, (2.0, 4.0))
    rel = abs(slope + math.pi / 2) / (math.pi / 2)
    ok = rel <= 0.02
    report("8", ok, f"fitted slope {slope:.5f} vs -pi/2 (rel gap {rel:.2%})")
    assert ok, (
        f"ln|y1-y2| vs x^2 slope is {slope:.5f}, {rel:.2%} from -pi/2")


def test_criterion_09_painleve_eigenvalues(painleve_eigs12):
    from nel.painleve import classify_fate

    eigs, elapsed = painleve_eigs12
    diffs = [abs(e - r) for e, r in zip(eigs, PAINLEVE_EIGS)]
    worst = max(diffs)
    p3 = classify_fate(eigs[2] + 1e-5).pole_count
    p4 = classify_fate(eigs[3] - 1e-5).pole_count
    ok = worst <= 1e-4 and p3 == 1 and p4 == 1 and elapsed <= 300.0
    report("9", ok, f"worst |diff| {worst:.2e}, third/fourth eigencurve "
                    f"pole counts {p3}/{p4}, runtime {elapsed:.0f}s")
    assert ok


def test_painleve_eigenvalues_to_the_published_digits(painleve_eigs12):
    # criterion 9's list carries 6 decimals, and a_3..a_12 cross poles, so
    # an error in the pole passage's far-side state shows here first
    eigs, _ = painleve_eigs12
    worst = max(abs(e - r) for e, r in zip(eigs, PAINLEVE_EIGS))
    assert worst < 1e-6, f"worst |diff| {worst:.2e}"


def test_criterion_10_growth_law(painleve_eigs12):
    from nel.painleve import estimate_C

    eigs, _ = painleve_eigs12
    c = estimate_C(eigs)
    rel = abs(c - PAINLEVE_C) / PAINLEVE_C
    ok_c = rel <= 0.02

    # The eigenvalues follow C (n - nu)^p with nu near 1.1 (successive
    # differences of a_n^(5/3) are nearly constant), so the exponent is fitted
    # with nu free; the plain log-log slope over n = 6..12 reads 0.693.  nu is
    # reported, not asserted.
    n = np.arange(6, 13)
    slope, nu = offset_power_fit(n, eigs[5:12])
    ok_slope = abs(slope - 0.6) <= 0.02

    # the fit recovers other exponents, so it can fail
    syn_23, _ = offset_power_fit(n, 4.3 * (n - 1.0) ** (2.0 / 3.0))
    syn_12, _ = offset_power_fit(n, 4.3 * (n - 0.5) ** 0.5)
    ok_syn = abs(syn_23 - 0.667) <= 0.001 and abs(syn_12 - 0.5) <= 0.001
    ok = ok_c and ok_slope and ok_syn
    report("10", ok, f"C estimate {c:.5f} (rel {rel:.2%}); exponent of "
                     f"C(n-nu)^p over n=6..12 {slope:.4f} at nu {nu:.3f}; "
                     f"synthetic 2/3 -> {syn_23:.4f}, 1/2 -> {syn_12:.4f}")
    assert ok_c
    assert ok_syn
    assert ok_slope, (
        f"exponent of a_n = C (n - nu)^p over n=6..12 is {slope:.4f} "
        f"(nu = {nu:.3f}), outside 0.6 +- 0.02")


def test_criterion_11_oscillation_law():
    from nel.painleve import fit_oscillation_envelope, integrate_with_poles

    segs, _ = integrate_with_poles(1.0, -80.0)
    fit = fit_oscillation_envelope(segs[-1], fit_window=(-80.0, -25.0))
    rate = 0.8 * math.sqrt(2.0)
    amp_ok = abs(fit.amplitude_exponent + 0.125) <= 0.02
    ph_rel = abs(fit.phase_coefficient - rate) / rate
    ok = amp_ok and ph_rel <= 0.005
    report("11", ok, f"amplitude exponent {fit.amplitude_exponent:.4f}, "
                     f"phase coefficient {fit.phase_coefficient:.5f} "
                     f"(rel {ph_rel:.3%}) from {fit.n_extrema} extrema")
    assert ok


def test_criterion_12_partial_sum_root_moduli(fig8_scan):
    roots, _ = companion_roots((1, 1j, -1j, -1))
    cubic = max(abs(roots))
    ok_cubic = abs(cubic - 1.70002) <= 1e-5

    e = lambda t: complex(math.cos(math.pi * t), math.sin(math.pi * t))
    r7, _ = companion_roots((1, e(0.75), e(0.25), 1j, -1j, -e(0.25), -e(0.75), -1))
    deg7 = max(abs(r7))
    ok_deg7 = abs(deg7 - 1.7804) <= 5e-4

    top = fig8_scan.maxima[:2]
    vals_ok = all(abs(v - RHO_MAX) <= 5e-4 for _, v in top)
    locs = sorted(t for t, _ in top)
    loc_3780 = any(abs(t - RHO_TAU) <= 5e-4 for t in locs)
    # a_k(1 - tau) = conj a_k(tau), so rho_n(1 - tau) = rho_n(tau) and the
    # twin of the 0.3780 maximum sits at 0.6220 (the contract said 0.8780,
    # where rho_50 is ~1.575; see the companion-matrix check below).
    loc_6220 = any(abs(t - 0.6220) <= 5e-4 for t in locs)
    ok = ok_cubic and ok_deg7 and vals_ok and loc_3780 and loc_6220
    report("12", ok, f"cubic {cubic:.6f}, degree-7 {deg7:.5f}, "
                     f"scan maxima at {[round(t, 4) for t in locs]} "
                     f"values {[round(v, 5) for _, v in top]}; expected "
                     f"locations 0.3780 and 0.6220")
    assert ok_cubic and ok_deg7 and vals_ok and loc_3780
    assert loc_6220, f"scan maxima sit at {locs}, none within 5e-4 of 0.6220"


def test_criterion_12_reflection_by_companion_matrix():
    # Code outside nel.pseries: coefficients exp(i pi tau (k^2 + k)) built
    # here, roots from the tests' companion-matrix reference.  nel.pseries'
    # rho_n takes the half-degree colleague route, so this check shares none
    # of its algorithm; neither does the winding-count test below.
    def rho50(tau):
        k = np.arange(51)
        coeffs = np.exp(1j * np.pi * ((tau * (k * k + k)) % 2.0))
        return float(np.max(np.abs(companion_roots(coeffs)[0])))

    lo, hi, far = rho50(RHO_TAU), rho50(0.6220), rho50(0.8780)
    ok = abs(lo - hi) <= 1e-12 and abs(lo - RHO_MAX) <= 5e-4 and far < 1.7
    report("12[roots]", ok, f"rho_50 at 0.3780 {lo:.6f}, at 0.6220 "
                            f"{hi:.6f}, at 0.8780 {far:.5f}")
    assert ok


def test_criterion_12_scan_by_companion_matrix(fig8_scan):
    # Every rho of the fig8 scan against the tests' companion-matrix roots,
    # with the coefficients built here (phases reduced mod 2 in Fraction
    # arithmetic), in blocks of 200 stacked matrices.
    n, taus = 50, fig8_scan.taus
    worst = 0.0
    for i in range(0, len(taus), 200):
        block = taus[i:i + 200]
        ph = [[float(Fraction(t) * (k * k + k) % 2) for k in range(n + 1)] for t in block]
        rho = np.abs(companion_roots(np.exp(1j * np.pi * np.array(ph)))[0]).max(axis=1)
        worst = max(worst, float(np.max(np.abs(rho - fig8_scan.rhos[i:i + 200]))))
    ok = len(taus) == 2001 and not fig8_scan.failures and worst <= 1e-12
    report("12[companion]", ok, f"max |rho - companion rho| {worst:.2e} over "
                                f"{len(taus)} points, {len(fig8_scan.failures)} failures")
    assert ok


def test_criterion_12_rho_by_argument_principle(fig8_scan):
    # A route that finds no roots: on sampled fig8 rows, p winds n times
    # about 0 on |z| = rho (1 + delta) and fewer times on |z| = rho (1 - delta),
    # so the largest root modulus lies within rho (1 +- delta).  Each sampled
    # phase increment stays below pi/2, so the winding count is unambiguous.
    n, delta, samples = 50, 1e-4, 1 << 17
    unit = np.exp(2j * np.pi * np.arange(samples) / samples)
    peaks = {fig8_scan.taus.index(t) for t, _ in fig8_scan.maxima[:2]}
    rows = sorted(set(range(0, len(fig8_scan.taus), 200)) | peaks)
    worst, bad = 0.0, []
    for i in rows:
        tau, rho = fig8_scan.taus[i], fig8_scan.rhos[i]
        ph = [float(Fraction(tau) * (k * k + k) % 2) for k in range(n, -1, -1)]
        desc = np.exp(1j * np.pi * np.array(ph))
        winds = []
        for radius in (rho * (1 + delta), rho * (1 - delta)):
            p = np.polyval(desc, radius * unit)
            step = np.angle(np.roll(p, -1) / p)
            worst = max(worst, float(np.max(np.abs(step))))
            winds.append(round(float(np.sum(step)) / (2 * np.pi)))
        if not (winds[0] == n and winds[1] < n):
            bad.append((tau, winds))
    ok = len(rows) == 13 and not bad and worst < np.pi / 2
    report("12[winding]", ok, f"{len(rows)} rows, windings off at {bad}, "
                              f"largest phase step {worst:.3f}")
    assert ok


def test_criterion_13_gibbs_overshoot():
    from nel.fourier import gibbs_overshoot

    nodes, weights = np.polynomial.legendre.leggauss(32)
    t = 0.5 * math.pi * (nodes + 1.0)
    si_pi = float(0.5 * math.pi * np.sum(weights * np.sin(t) / t))
    limit = 2.0 / math.pi * si_pi
    err = abs(gibbs_overshoot(200) - limit)
    ok = err <= 1e-3
    report("13", ok, f"overshoot(200) error vs (2/pi)Si(pi) = {err:.2e}")
    assert ok


@pytest.mark.parametrize("scale", [0.5, 1.0, 2.0])
def test_criterion_14_property_suites(scale):
    from nel.cosine import rhs_unscaled, tail_coefficients
    from nel.ode import IntegratorConfig, integrate
    from nel.painleve import _Y_FLOOR, _pass_pole, painleve_rhs
    from nel.pseries import ftau_partial_sum, partial_sum_roots

    cfg = IntegratorConfig(rel_tol=1e-10 * scale, abs_tol=1e-12 * scale)

    # order: halving tolerances moves the endpoint by less than the coarse tol
    coarse = IntegratorConfig(rel_tol=1e-8 * scale, abs_tol=1e-10 * scale)
    fine = IntegratorConfig(rel_tol=0.5e-8 * scale, abs_tol=0.5e-10 * scale)
    ya = integrate(lambda x, y: y, 0.0, 1.0, 1.0, coarse).y_end
    yb = integrate(lambda x, y: y, 0.0, 1.0, 1.0, fine).y_end
    order_ok = abs(ya - yb) < coarse.rel_tol

    # reversibility
    fwd = integrate(rhs_unscaled, 0.0, 0.8, 2.0, cfg)
    back = integrate(rhs_unscaled, 2.0, fwd.y_end, 0.0, cfg)
    rev_ok = abs(back.y_end - 0.8) < 100 * cfg.rel_tol

    # Vieta on a unit-coefficient section
    a = ftau_partial_sum(0.3780, 40)
    roots, _ = partial_sum_roots(0.3780, 40)
    s = complex(np.sum(roots))
    prod = complex(np.prod(roots))
    vieta_ok = (abs(s + a[-2] / a[-1]) < 1e-8 * (1 + abs(s))
                and abs(prod - a[0] / a[-1]) < 1e-8 * (1 + abs(prod)))

    # tail residual order of the k-term sum 3.5/x + sum_{j<=k} c_j x^-(2j+1)
    def tail_residual(k, x):
        y, yp = 3.5 / x, -3.5 / x ** 2
        for j, c in enumerate(tail_coefficients(3)[:k], start=1):
            y += c * x ** (-(2 * j + 1))
            yp -= (2 * j + 1) * c * x ** (-(2 * j + 2))
        return abs(yp - rhs_unscaled(x, y))

    tail_ok = all(
        abs(math.log2(tail_residual(k, 10.0) / tail_residual(k, 20.0)) - (2 * k + 2)) < 0.6
        for k in range(4))

    # pole-continuation round trip: from the reference series at x0 + 0.6,
    # through nel's chart passage entered at the floor, to x0 - 0.6
    pode = IntegratorConfig(rel_tol=1e-10 * scale, abs_tol=1e-12 * scale,
                            max_steps=2_000_000)
    x0, h = -7.3, 4.2
    s_far = 0.6
    tr = integrate(painleve_rhs, x0 + s_far, pole_series_eval(x0, h, x0 + s_far),
                   x0 - s_far, pode, dense=False,
                   stop_when=lambda x, y: y[0] >= _Y_FLOOR and y[1] < 0)
    _, xr, st = _pass_pole(tr.x_end, *tr.y_end, x0 - 2.0 * s_far, pode)
    tr2 = integrate(painleve_rhs, xr, st, x0 - s_far, pode, dense=False)
    y_ref, _ = pole_series_eval(x0, h, x0 - s_far)
    pole_ok = abs(tr2.y_end[0] - y_ref) < 1e-7

    ok = order_ok and rev_ok and vieta_ok and tail_ok and pole_ok
    report(f"14[x{scale}]", ok,
           f"order {order_ok}, reversibility {rev_ok}, vieta {vieta_ok}, "
           f"tail order {tail_ok}, pole round-trip {pole_ok}")
    assert ok


def test_alpha_product_parity_is_zero():
    # companion to criterion 5: mixed-parity entries vanish identically
    from nel.limitcurve import alpha_recursion

    tab = alpha_recursion(20, 18)
    assert all(tab.value(n, k) == Fraction(0)
               for n in range(1, 21) for k in range(19) if (n - k) % 2)
