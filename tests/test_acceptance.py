"""Acceptance gate: ten numbered criteria, one printed PASS/FAIL line each.

Every clause is asserted exactly as stated, with its tolerance shown in the
printed line.  The finite-N laws are checked against closed-form bounds, not
against asymptotic constants that no tested N reaches:

- criteria 6 and 9 (optimal direction code, 1 - F ~ xi^2/N^2 with xi = j_{0,1}
  the first zero of J_0): the code's tridiagonal matrix is the Legendre Jacobi
  matrix (Golub & Welsch, Math. Comp. 23, 1969), so F = (1 + cos theta_1)/2
  with cos theta_1 the largest root of P_{N/2+1}.  Szego's Bessel-zero bound
  theta_1 < j_{0,1}/(N/2 + 3/2) (Orthogonal Polynomials, ch. 6) then gives
  (N+3)^2 (1-F) < j_{0,1}^2 for every N, so the shifted scaling is asserted in
  [5.7, j_{0,1}^2) and 1 - F is compared with the `leggauss` root.
- criterion 7 (six-signal coherent decay): the covariant estimate leaves a cap
  of half-angle delta about the true direction with probability
  ((1 + cos delta)/2)^(N+1).  The nearest-direction cell contains the cap
  cos delta = sqrt(5/8) and lies inside the cap cos delta = 1/(2 sqrt 2)
  (signal dot products 1/4, 0, -3/4), which brackets 1 - F at every N.
"""

import math
import time

import numpy as np
import pytest
from scipy.special import jn_zeros

from spin_fixtures import (
    axes_matrix,
    basis_state,
    coherent,
    product_state,
    state_from_terms,
    unit_vector,
)
from spindir.frames import axes_to_euler, euler_to_axes
from spindir.geometry import Direction, sphere_quadrature
from spindir.harness import (
    RunConfig,
    run_experiment,
    sample_chi,
    sample_haar_direction,
    sample_haar_rotation,
)
from spindir.multispin import attainable_spins, total_j_projector
from spindir.optimize import chi_density, optimal_direction_encoding
from spindir.povm import Povm, covariant_direction_povm, validate_povm
from spindir.protocols import (
    ProtocolSpec,
    d3_coherent_score,
    d3_covariant_povm,
    d3_covariant_two_spin_score,
    d3_repeated_single_score,
    d3_single_spin_score,
)
from spindir.states import SpinJ

THIRD = 1.0 / 3.0
OPT_SINGLE_AXIS = (1.0 - 1.0 / math.sqrt(3.0)) / 2.0  # infidelity (1 - 1/sqrt(3))/2
LARGE_N_SCALE = float(jn_zeros(0, 1)[0]) ** 2  # j_{0,1}^2, the limit of N^2 (1-F)
SHIFTED_FLOOR = 5.7  # lower edge of the scaled-infidelity band
CAP_IN = math.sqrt(5.0 / 8.0)  # cos of the largest cap inside a D3 decoding cell
CAP_OUT = 1.0 / (2.0 * math.sqrt(2.0))  # cos of the smallest cap holding the cell


@pytest.fixture()
def report(capsys):
    def emit(num: int, ok: bool, detail: str):
        with capsys.disabled():
            print(f"{'PASS' if ok else 'FAIL'} criterion {num:2d}: {detail}")

    return emit


def _mc(kind: str, num_spins: int, trials: int, seed: int, **kw):
    spec = ProtocolSpec(kind=kind, num_spins=num_spins, **kw)
    return run_experiment(RunConfig(protocol=spec, trials=trials, seed=seed))


def test_criterion_01_single_spin_third(report):
    t0 = time.perf_counter()
    score = d3_single_spin_score()
    elapsed = time.perf_counter() - t0
    err = abs(score.fidelity - THIRD)
    ok = err < 1e-12 and score.method == "exact" and elapsed < 1.0
    report(
        1,
        ok,
        f"single-spin dihedral fidelity {score.fidelity:.15f} vs 1/3, "
        f"|err| {err:.1e} < 1e-12 ({score.method}), {elapsed:.3f}s < 1s",
    )
    assert score.method == "exact"
    assert err < 1e-12
    assert elapsed < 1.0


def test_criterion_02_two_spin_optimum(report):
    t0 = time.perf_counter()
    score = d3_covariant_two_spin_score()
    povm = d3_covariant_povm(2)
    check = validate_povm(povm)
    elapsed = time.perf_counter() - t0
    fid_err = abs(score.fidelity - 2.0 / 3.0)
    # block phases are free, so compare coefficient magnitudes as a multiset
    want = np.sort([0.5, 0.5, math.sqrt(0.5)])
    got = np.sort(np.abs(np.asarray(score.coefficients, dtype=complex)))
    coeff_err = float(np.max(np.abs(got - want)))
    resid = float(np.max(np.abs(povm.operators.sum(axis=0) - np.eye(povm.dim))))
    ok = (
        fid_err < 1e-9
        and coeff_err < 1e-9
        and povm.dim == 4
        and check.passed
        and elapsed < 1.0
    )
    report(
        2,
        ok,
        f"two-spin fidelity err {fid_err:.1e} < 1e-9, coefficient err "
        f"{coeff_err:.1e} < 1e-9 vs (1/2, 1/2, 1/sqrt2), POVM dim {povm.dim} "
        f"completeness resid {resid:.1e} < 1e-10, {elapsed:.3f}s < 1s",
    )
    assert fid_err < 1e-9
    assert coeff_err < 1e-9
    assert povm.dim == 4
    assert check.passed
    assert elapsed < 1.0


def test_criterion_03_repeated_pair_enumeration_and_mc(report):
    t0 = time.perf_counter()
    exact = d3_repeated_single_score(2, tie_break="random")
    run = _mc("d3-repeated", 2, 10**6, seed=1003, tie_break="random")
    elapsed = time.perf_counter() - t0
    dev = abs(run.estimates["fidelity"] - THIRD)
    sigma = run.stderrs["fidelity"]
    ok = exact.fidelity == THIRD and dev <= 3.0 * sigma and elapsed < 30.0
    report(
        3,
        ok,
        f"two independent single-spin rounds: enumeration {exact.fidelity!r} == 1/3 "
        f"exactly, MC {run.estimates['fidelity']:.6f} within "
        f"{dev / sigma:.2f} sigma <= 3 sigma at 1e6 trials, {elapsed:.1f}s < 30s",
    )
    assert exact.fidelity == THIRD
    assert dev <= 3.0 * sigma
    assert elapsed < 30.0


def test_criterion_04_coherent_overlap_law(report):
    t0 = time.perf_counter()
    rng = np.random.default_rng(104)
    ends = [sample_haar_direction(rng, size=1000) for _ in range(2)]
    pairs = [(Direction.from_vector(a), Direction.from_vector(b)) for a, b in zip(*ends)]
    worst = 0.0
    for tj in range(1, 21):  # j = 1/2 .. 10
        j = SpinJ(tj)
        for d1, d2 in pairs:
            # build the actual states; the closed form is the thing under test
            a, b = coherent(j, [d1, d2])
            overlap = abs(np.vdot(a, b)) ** 2
            u = 0.5 * (1.0 + unit_vector(d1) @ unit_vector(d2))  # cos^2(chi/2)
            worst = max(worst, abs(overlap - u**tj))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-10 and elapsed < 10.0
    report(
        4,
        ok,
        f"|<j,m|j,n>|^2 = cos^(4j)(chi/2) over j <= 10 and 1000 direction pairs, "
        f"worst |err| {worst:.1e} < 1e-10, {elapsed:.1f}s < 10s",
    )
    assert worst < 1e-10
    assert elapsed < 10.0


def test_criterion_05_optimal_code_jmax_one(report):
    t0 = time.perf_counter()
    code = optimal_direction_encoding(SpinJ(2))
    eig_err = abs(code.fidelity - (1.0 + 1.0 / math.sqrt(3.0)) / 2.0)
    target_err = abs(code.infidelity - 0.21132)
    rng = np.random.default_rng(1005)
    draws = 0.5 * (1.0 - sample_chi(chi_density(code), rng, size=10**5))
    mc = float(draws.mean())
    sigma = float(draws.std(ddof=1)) / math.sqrt(draws.size)
    mc_dev = abs(mc - code.infidelity)
    elapsed = time.perf_counter() - t0
    ok = (
        target_err < 5e-5
        and eig_err < 1e-12
        and mc_dev <= 3.0 * sigma
        and elapsed < 10.0
    )
    report(
        5,
        ok,
        f"j_max = 1 infidelity {code.infidelity:.7f} = 0.21132 +- 5e-5 "
        f"(eigenvalue path err {eig_err:.1e}), chi-density MC {mc:.6f} within "
        f"{mc_dev / sigma:.2f} sigma <= 3 sigma at 1e5 trials, {elapsed:.1f}s < 10s",
    )
    assert target_err < 5e-5
    assert eig_err < 1e-12
    assert mc_dev <= 3.0 * sigma
    assert elapsed < 10.0


def test_criterion_06_scaled_infidelity_band(report):
    t0 = time.perf_counter()
    ns = list(range(40, 61, 2))
    infid = np.array([optimal_direction_encoding(SpinJ(n)).infidelity for n in ns])
    elapsed = time.perf_counter() - t0
    scaled = [n * n * v for n, v in zip(ns, infid)]
    # Szego: theta_1 < j_{0,1}/(N/2 + 3/2), so (N+3)^2 (1-F) < j_{0,1}^2 at every N
    shifted = [(n + 3) ** 2 * v for n, v in zip(ns, infid)]
    # Golub-Welsch: 1 - F = (1 - x_max)/2, x_max the largest root of P_{N/2+1}
    roots = np.array([np.polynomial.legendre.leggauss(n // 2 + 1)[0].max() for n in ns])
    root_err = float(np.max(np.abs(infid - (1.0 - roots) / 2.0) / infid))
    monotone = all(a < b for a, b in zip(scaled, scaled[1:]))
    in_band = all(SHIFTED_FLOOR <= v < LARGE_N_SCALE for v in shifted)
    trending = abs(scaled[-1] - LARGE_N_SCALE) < abs(scaled[0] - LARGE_N_SCALE)
    ok = monotone and in_band and root_err <= 1e-12 and trending and elapsed < 10.0
    report(
        6,
        ok,
        f"(N+3)^2(1-F) {shifted[0]:.6f} (N=40) -> {shifted[-1]:.6f} (N=60) inside "
        f"[{SHIFTED_FLOOR}, j01^2 = {LARGE_N_SCALE:.6f}) {in_band}, 1-F vs leggauss "
        f"root rel err {root_err:.1e} <= 1e-12, N^2(1-F) rises {scaled[0]:.6f} -> "
        f"{scaled[-1]:.6f} monotone {monotone}, trending toward j01^2 {trending}, "
        f"{elapsed:.1f}s < 10s",
    )
    assert monotone
    assert trending
    assert elapsed < 10.0
    assert in_band, (
        f"(N+3)^2(1-F) spans [{min(shifted):.6f}, {max(shifted):.6f}], "
        f"not inside [{SHIFTED_FLOOR}, {LARGE_N_SCALE:.6f})"
    )
    assert root_err <= 1e-12


def test_criterion_07_coherent_decay(report):
    t0 = time.perf_counter()
    ns = list(range(4, 25, 2))
    infid = np.array([1.0 - d3_coherent_score(n).fidelity for n in ns])
    log_infid = np.log(infid)
    slope, intercept = np.polyfit(ns, log_infid, 1)
    resid = log_infid - (slope * np.asarray(ns) + intercept)
    rel_resid = float(np.max(np.abs(resid))) / float(np.ptp(log_infid))
    run = _mc("d3-coherent", 8, 200000, seed=1007)
    quad = d3_coherent_score(8).fidelity
    mc_dev = abs(run.estimates["fidelity"] - quad)
    sigma = run.stderrs["fidelity"]
    # the estimate leaves the cap of half-angle delta with probability
    # ((1 + cos delta)/2)^(N+1); the decoding cell lies between two such caps
    exps = np.asarray(ns) + 1.0
    lower = ((1.0 + CAP_OUT) / 2.0) ** exps
    upper = ((1.0 + CAP_IN) / 2.0) ** exps
    inside = (lower <= infid) & (infid <= upper)
    in_caps = bool(inside.all())
    elapsed = time.perf_counter() - t0
    ok = (
        slope < 0.0
        and rel_resid < 0.05
        and mc_dev <= 3.0 * sigma
        and in_caps
        and elapsed < 120.0
    )
    report(
        7,
        ok,
        f"log(1-F) affine over N = 4..24: slope {slope:.5f} < 0, max residual "
        f"{100 * rel_resid:.2f}% of range < 5%, MC vs quadrature within "
        f"{mc_dev / sigma:.2f} sigma <= 3 sigma, cap bounds "
        f"((1+1/(2sqrt2))/2)^(N+1) <= 1-F <= ((1+sqrt(5/8))/2)^(N+1) for every N "
        f"{in_caps} (N=24: {lower[-1]:.2e} <= {infid[-1]:.4f} <= {upper[-1]:.4f}), "
        f"{elapsed:.1f}s < 120s",
    )
    assert slope < 0.0
    assert rel_resid < 0.05
    assert mc_dev <= 3.0 * sigma
    assert elapsed < 120.0
    assert in_caps, f"1-F outside the cap bounds at N = {np.asarray(ns)[~inside].tolist()}"


def test_criterion_08_frame_fitters(report):
    t0 = time.perf_counter()
    best = _mc("frame-two-axis", 4, 10**5, seed=1008, encoding="optimal")
    naive = _mc(
        "frame-two-axis", 4, 10**5, seed=1008, encoding="optimal", decoder="naive-euler"
    )
    elapsed = time.perf_counter() - t0
    devs = [
        abs(est - OPT_SINGLE_AXIS) / err
        for est, err in zip(best.estimates["per_axis"], best.stderrs["per_axis"])
    ]
    failures = naive.estimates["naive_failures"]
    handled = isinstance(failures, int) and math.isfinite(naive.estimates["infidelity"])
    fit_wins = best.estimates["infidelity"] <= naive.estimates["infidelity"]
    ok = max(devs) <= 3.0 and fit_wins and failures > 0 and handled and elapsed < 120.0
    report(
        8,
        ok,
        f"N = 4 frame, optimal per-axis: MC axes within "
        f"{max(devs):.2f} sigma <= 3 sigma of {OPT_SINGLE_AXIS:.6f} at 1e5 trials, "
        f"best-fit total {best.estimates['infidelity']:.4f} <= naive "
        f"{naive.estimates['infidelity']:.4f} on shared seeds, |sin phi| > 1 "
        f"clamped {failures} times, {elapsed:.1f}s < 120s",
    )
    assert max(devs) <= 3.0
    assert fit_wins
    assert failures > 0 and handled
    assert elapsed < 120.0


def test_criterion_09_coherent_frames_and_large_n(report):
    t0 = time.perf_counter()
    worst = 0.0
    for n, seed in [(4, 1009), (8, 1010), (16, 1011), (32, 1012)]:
        run = _mc("frame-two-axis", n, 20000, seed=seed, encoding="coherent")
        want = 1.0 / (n / 2 + 2)  # Beta-integral value for the coherent code
        for est, err in zip(run.estimates["per_axis"], run.stderrs["per_axis"]):
            worst = max(worst, abs(est - want) / err)
    # per-axis code on N/2 = 40 spins; the Szego bound caps (N/2+3)^2 (1-F)
    scaled = 43.0**2 * optimal_direction_encoding(SpinJ(40)).infidelity
    in_band = SHIFTED_FLOOR <= scaled < LARGE_N_SCALE
    elapsed = time.perf_counter() - t0
    ok = worst <= 3.0 and in_band and elapsed < 300.0
    report(
        9,
        ok,
        f"coherent frame axes within {worst:.2f} sigma <= 3 sigma of 1/(N/2+2) "
        f"for N in (4, 8, 16, 32) at 2e4 trials; optimal per-axis scale "
        f"(N/2+3)^2 (1-F) = {scaled:.4f} inside [{SHIFTED_FLOOR}, j01^2 = "
        f"{LARGE_N_SCALE:.4f}) at N/2 = 40, {elapsed:.1f}s < 300s",
    )
    assert worst <= 3.0
    assert in_band
    assert elapsed < 300.0


def test_criterion_10_property_sweeps(report):
    t0 = time.perf_counter()
    # every POVM construction path, validated for completeness and positivity
    povms = [
        d3_covariant_povm(1),
        d3_covariant_povm(2),
        covariant_direction_povm(SpinJ(1), sphere_quadrature(2, 3)),
        covariant_direction_povm(SpinJ(2), sphere_quadrature(4, 7)),
        covariant_direction_povm(SpinJ(8), sphere_quadrature(10, 19)),
    ]
    povms.append(
        Povm(povms[3].operators.sum(axis=0)[None])  # merge-all keeps completeness
    )
    povm_ok = all(validate_povm(p).passed for p in povms)

    proj_resid = 0.0
    for nq in (2, 3, 4):
        dim = 2**nq
        total = np.zeros((dim, dim), dtype=complex)
        for j in attainable_spins(nq):
            p = total_j_projector(nq, j)
            proj_resid = max(proj_resid, float(np.max(np.abs(p @ p - p))))
            proj_resid = max(proj_resid, float(np.max(np.abs(p - p.conj().T))))
            total += p
        proj_resid = max(proj_resid, float(np.max(np.abs(total - np.eye(dim)))))
    proj_ok = proj_resid < 1e-10

    # four fixture states under the total-spin decomposition
    fix_resid = 0.0
    v = basis_state("001")
    p32 = total_j_projector(3, SpinJ(3)) @ v
    sym = state_from_terms(3, {"001": 1 / 3, "010": 1 / 3, "100": 1 / 3})
    fix_resid = max(fix_resid, float(np.max(np.abs(p32 - sym))))
    rem = state_from_terms(3, {"001": 2 / 3, "010": -1 / 3, "100": -1 / 3})
    fix_resid = max(fix_resid, float(np.max(np.abs((v - p32) - rem))))
    w = basis_state("01")
    p0 = total_j_projector(2, SpinJ(0)) @ w
    singlet = state_from_terms(2, {"01": 0.5, "10": -0.5})
    fix_resid = max(fix_resid, float(np.max(np.abs(p0 - singlet))))
    rt = 1 / math.sqrt(2)
    signal = product_state([[1, 0], [0, 1], [rt, rt], [rt, -rt]])
    components = [total_j_projector(4, j) @ signal for j in attainable_spins(4)]
    norms = [float(np.vdot(c, c).real) for c in components]
    fix_resid = max(
        fix_resid, float(np.max(np.abs(np.array(norms) - [1 / 8, 5 / 8, 1 / 4])))
    )
    fix_ok = fix_resid < 1e-10

    rng = np.random.default_rng(1010)
    euler_resid = 0.0
    for _ in range(100):
        euler = sample_haar_rotation(rng)
        frame = euler_to_axes(euler)
        again = euler_to_axes(axes_to_euler(frame))
        euler_resid = max(
            euler_resid,
            float(np.max(np.abs(axes_matrix(frame) - axes_matrix(again)))),
        )
    euler_ok = euler_resid < 1e-9

    def rerun_pair(kind, n, trials, seed, **kw):
        a = _mc(kind, n, trials, seed, **kw)
        b = _mc(kind, n, trials, seed, **kw)
        same_est = all(
            np.array_equal(a.estimates[k], b.estimates[k]) for k in a.estimates
        )
        same_err = all(np.array_equal(a.stderrs[k], b.stderrs[k]) for k in a.stderrs)
        return same_est and same_err

    repro_ok = (
        rerun_pair("d3-single", 1, 20000, 42)
        and rerun_pair("d3-coherent", 6, 20000, 43)
        and rerun_pair("frame-two-axis", 4, 4000, 44, encoding="optimal")
    )
    elapsed = time.perf_counter() - t0
    ok = povm_ok and proj_ok and fix_ok and euler_ok and repro_ok and elapsed < 60.0
    report(
        10,
        ok,
        f"{len(povms)} POVMs complete and positive at 1e-10, projector "
        f"sweeps resid {proj_resid:.1e} < 1e-10, fixture states resid "
        f"{fix_resid:.1e} < 1e-10, 100 Euler round trips resid {euler_resid:.1e} "
        f"< 1e-9, 3 seeded reruns bit-exact {repro_ok}, {elapsed:.1f}s < 60s",
    )
    assert povm_ok
    assert proj_ok
    assert fix_ok
    assert euler_ok
    assert repro_ok
    assert elapsed < 60.0
