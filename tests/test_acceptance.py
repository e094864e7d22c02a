"""Acceptance suite: one test per numbered criterion, pinned tolerances.

Each test is self-contained and checks its own wall-clock budget.
"""

import time

import numpy as np
import pytest
from scipy import integrate

from carshift import bogoliubov, cli, expcalc, fock, hardyshift, modular, quasifree
from carshift.expcalc import ExpCombo
from carshift.opalg import adjoint, anticommutator, inner, operator_norm
from dense_modular import dense_blocks, dense_delta, dense_involution, dense_j
from oracles import evaluate


def random_real_covariance(rng, n, lo=0.1, hi=0.9):
    a = rng.standard_normal((n, n))
    sym = a + a.T
    w, v = np.linalg.eigh(sym)
    spec = lo + (hi - lo) * (w - w.min()) / max(np.ptp(w), 1e-12)
    return quasifree.CovarianceState((v * spec) @ v.T)


def test_criterion_01_car_identity_suite():
    start = time.time()
    rng = np.random.default_rng(1)
    for modes in (2, 3, 5):
        space = fock.FockSpace(modes)
        trials = 100 if modes == 5 else 20
        for _ in range(trials):
            f = rng.standard_normal(modes) + 1j * rng.standard_normal(modes)
            g = rng.standard_normal(modes) + 1j * rng.standard_normal(modes)
            af, ag = fock.annihilator(space, f), fock.annihilator(space, g)
            assert operator_norm(anticommutator(af, ag)) <= 1e-12
            pairing = np.vdot(g, f) * np.eye(space.dim)
            assert operator_norm(anticommutator(adjoint(af), ag) - pairing) <= 1e-12
            assert abs(operator_norm(af) - np.linalg.norm(f)) <= 1e-10
    assert time.time() - start < 10.0


def test_criterion_02_determinant_vs_gns():
    start = time.time()
    rng = np.random.default_rng(2)
    for trial in range(100):
        modes = int(rng.integers(2, 5))
        state = random_real_covariance(rng, modes)
        rep = quasifree.doubled_representation(state)
        m = int(rng.integers(1, 4))  # monomial degree 2m <= 6
        fs = [rng.standard_normal(modes) for _ in range(m)]
        gs = [rng.standard_normal(modes) for _ in range(m)]
        want = quasifree.quasifree_expectation(state, fs, gs)
        ops = [rep.field_star(f) for f in reversed(fs)] + [rep.field(g) for g in gs]
        got = rep.vacuum_expectation(ops)
        assert abs(want - got) <= 1e-9
    assert time.time() - start < 60.0


def test_criterion_03_purification():
    start = time.time()
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = int(rng.integers(2, 4))
        state = random_real_covariance(rng, n)
        p = quasifree.purification_projection(state)
        assert operator_norm(p @ p - p) <= 1e-12
        assert operator_norm(p - adjoint(p)) <= 1e-12
        rep = quasifree.doubled_representation(state)
        big_f = rng.standard_normal(2 * n)
        big_g = rng.standard_normal(2 * n)
        got = rep.vacuum_expectation(
            [rep.field_star(big_f[:n], big_f[n:]), rep.field(big_g[:n], big_g[n:])]
        )
        assert abs(got - inner(big_f, p @ big_g)) <= 1e-10
    assert time.time() - start < 10.0


def test_criterion_04_modular_suite():
    start = time.time()
    rng = np.random.default_rng(4)
    for modes in (2, 3):
        rep = quasifree.doubled_representation(
            quasifree.CovarianceState.isotropic(0.25, modes)
        )
        data = modular.tomita_operator(rep)
        formula = dense_involution(*modular.modular_involution_formula(rep))
        assert operator_norm(dense_j(data) - formula) <= 1e-9
        # exactly one of J pi J = b(f) / -b*(f) holds; it is the starred one
        f = rng.standard_normal(modes) + 1j * rng.standard_normal(modes)
        conj_f = dense_blocks(data, modular.conjugate_by(data, rep.field(f)))
        b = modular.commutant_generator(rep, f)
        starred = operator_norm(conj_f - (-adjoint(b)))
        plain = operator_norm(conj_f - b)
        assert starred <= 1e-10
        assert plain > 1e-2
        eigs = np.linalg.eigvalsh(dense_delta(data))
        eigs = eigs[eigs > 1e-12]
        powers = np.round(np.log(eigs) / np.log(1.0 / 3.0))
        assert np.max(np.abs(eigs - (1.0 / 3.0) ** powers)) <= 1e-8
    assert time.time() - start < 60.0


def test_criterion_05_innerness_norms():
    start = time.time()
    nu = 0.3
    sizes = [4, 8, 16, 32, 64]
    report = bogoliubov.innerness_norm(nu, lambda n: -np.eye(n), sizes)
    for n, val in zip(report.sizes, report.values):
        assert val == pytest.approx(2.0 * np.sqrt(nu * (1 - nu) * n), rel=1e-13)
    assert report.verdict == "diverges"

    def finite_rank(n):
        w = np.eye(n)
        w[0, 0] = -1.0
        return w

    bounded = bogoliubov.innerness_norm(nu, finite_rank, sizes)
    assert bounded.verdict == "converges"
    assert time.time() - start < 10.0


def test_criterion_06_extension_equals_araki():
    start = time.time()
    sizes = [4, 8, 16, 32]
    nu = 0.25
    families = [
        (lambda n: np.eye(n), lambda n: np.eye(n)),        # V' = W'
        (lambda n: -np.eye(n), lambda n: np.eye(n)),       # V' = -W'
    ]
    for angle in np.linspace(0.1, 1.5, 8):  # finite-rank differences
        def w_of(n, angle=angle):
            w = np.eye(n)
            w[:2, :2] = [[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]]
            return w

        families.append((lambda n: np.eye(n), w_of))
    assert len(families) >= 10
    for v_of, w_of in families:
        ext = bogoliubov.extension_criterion(nu, v_of, w_of, sizes)
        ara = bogoliubov.araki_criterion(nu, v_of, w_of, sizes)
        assert ext.verdict == ara.verdict
    assert time.time() - start < 30.0


def test_criterion_07_blaschke():
    start = time.time()
    triples = [
        [-1.0 + 0.0j],
        [-1.0 + 0.0j, -2.0 + 0.5j],
        [-0.5 + 1.0j, -1.5 + 0.0j, -3.0 - 2.0j],
    ]
    ys = np.linspace(-60.0, 60.0, 1000)
    for lambdas in triples:
        family = hardyshift.ExponentialFamily(lambdas)
        vals = np.abs(hardyshift.blaschke_eval(family, 1j * ys))
        assert np.max(np.abs(vals - 1.0)) <= 1e-12
        asym = hardyshift.blaschke_asymptotics(family)
        assert asym["c3"] == pytest.approx(asym["two_s"], rel=0.01)
    assert time.time() - start < 5.0


def test_criterion_08_defect_slope():
    start = time.time()
    ts = [2.0 ** -k for k in range(4, 13)]
    for lambdas in ([-1.0 + 0.0j], [-1.0 + 0.0j, -2.0 + 0.5j]):
        basis = hardyshift.orthogonalize(hardyshift.ExponentialFamily(lambdas))
        values = [hardyshift.defect_hs_norm(basis, t) for t in ts]
        slope = hardyshift.fit_power(ts, values)
        assert slope == pytest.approx(0.5, abs=0.1)
        assert hardyshift.defect_hs_norm(basis, 0.0) == 0.0
        # increments shrink monotonically as the refinement halves
        incs = [hardyshift.defect_increment_hs(basis, 0.25, 2.0 ** -k) for k in range(3, 10)]
        assert all(a > b for a, b in zip(incs, incs[1:]))
        # sqrt(delta) decay: 2^6 refinement shrinks the increment by about 8
        assert incs[-1] < incs[0] / 4.0
    assert time.time() - start < 30.0


def test_criterion_09_estimates_sum_linear():
    start = time.time()
    ts = [2.0 ** -k for k in range(3, 11)]
    for lambdas in ([-1.0 + 0.0j], [-1.0 + 0.0j, -2.0 + 0.5j]):
        basis = hardyshift.orthogonalize(hardyshift.ExponentialFamily(lambdas))
        sums = [hardyshift.estimate_inequalities(basis, t)["sum"] for t in ts]
        assert hardyshift.fit_power(ts, sums) == pytest.approx(1.0, abs=0.1)
    assert time.time() - start < 30.0


def test_criterion_10_window_defect_and_laplace_identity():
    start = time.time()
    family = hardyshift.ExponentialFamily([-1.0 + 0.0j])
    deltas = [2.0 ** -k for k in range(3, 11)]
    values = [hardyshift.prop2_defect(family, d, 64)["value"] for d in deltas]
    assert hardyshift.fit_power(deltas, values) == pytest.approx(0.5, abs=0.15)

    # Laplace identity against a quadrature oracle on the half-line pieces
    mu = hardyshift.window_exponent(2, 0.25)
    f = ExpCombo.normalized_exponential(mu, start=1.0)
    image = expcalc.theta_apply(family.lambdas, f)
    kernel = lambda x: np.conj(evaluate(f, x)) * evaluate(image, x)
    re = integrate.quad(lambda x: kernel(x).real, 1.0, 150.0, limit=800)[0]
    im = integrate.quad(lambda x: kernel(x).imag, 1.0, 150.0, limit=800)[0]
    pairing, reference = hardyshift.laplace_pairing(family, mu, start=1.0)
    assert abs(pairing - (re + 1j * im)) <= 1e-8
    assert abs(pairing - reference) <= 1e-12
    assert time.time() - start < 120.0


def test_criterion_11_dilations_and_approximation():
    start = time.time()
    basis = hardyshift.orthogonalize(hardyshift.ExponentialFamily([-1.0 + 0.0j]))
    fine = hardyshift.GridModel(basis, horizon=8.0, step=1.0 / 256)
    for dil in (fine.shift_dilation(0.25), fine.flow_dilation(0.25)):
        assert dil.unitarity_residual() <= 1e-8

    # approximation conditions on a horizon long enough for the edge tail
    model = hardyshift.GridModel(basis, horizon=20.0, step=1.0 / 16)
    report = bogoliubov.approximation_check(model.shift_dilation, model.flow_dilation, [0.25, 0.5])
    assert report["pass"]
    assert time.time() - start < 120.0


def test_criterion_12_pipeline_end_to_end(tmp_path):
    start = time.time()
    (tmp_path / "family.txt").write_text("-1.0 0.0\n")
    (tmp_path / "run.ini").write_text(
        "[experiment]\nkind = pipeline\nseed = 12\n\n"
        "[params]\nfamily = family.txt\nnu = 0.25\n"
    )
    status = cli.main(
        ["run", "--config", str(tmp_path / "run.ini"), "--out", str(tmp_path)]
    )
    assert status == 0
    assert time.time() - start < 300.0
