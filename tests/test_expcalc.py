import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from carshift import expcalc
from carshift.expcalc import (
    ExpCombo, _eint, blaschke_residues, theta_apply, window_defects, window_exponent
)
from oracles import (
    add,
    backshift,
    evaluate,
    full_gram_window_defects,
    mp_window_defect,
    norm_sq,
    quad_inner,
    shift,
    subtract,
    window,
)


@pytest.mark.parametrize("length", [0.5, 3.0])
def test_eint_matches_mpmath_at_every_scale(length):
    # z = rho * length from 1e-12 to 10 in modulus, all around the circle;
    # the reference integrates at 50 digits from the same float rho.  Rounding
    # rho * length costs up to |z| ulps (the condition number of exp) unless
    # the length is a power of two.
    eps = np.finfo(float).eps
    for size in np.logspace(-12, 1, 40):
        for angle in np.linspace(0.0, 2.0 * np.pi, 13):
            rho = size * np.exp(1j * angle) / length
            with mpmath.workdps(50):
                exact = mpmath.expm1(mpmath.mpc(rho) * length) / mpmath.mpc(rho)
                err = abs(mpmath.mpc(_eint(rho, length)) - exact) / abs(exact)
            assert err <= 4 * eps * max(1.0, size), (rho, float(err))


def test_eint_special_cases_and_arrays():
    assert _eint(0.0, 0.75) == 0.75
    assert _eint(-2.0 + 1.0j, np.inf) == pytest.approx(-1.0 / (-2.0 + 1.0j), rel=1e-15)
    with pytest.raises(ValueError, match="divergent"):
        _eint(np.array([-1.0, 0.0]), np.inf)
    rho = np.array([[0.0, 1e-9j], [-3.0 + 2.0j, 4.0]])
    vals = _eint(rho, 0.5)
    assert vals.shape == rho.shape
    for r, v in zip(rho.ravel(), vals.ravel()):
        assert v == _eint(r, 0.5)
    rho, lengths = np.array([1e-9j, -1.0 + 2.0j, 3.0]), np.array([0.5, np.inf, 2.0])
    assert list(_eint(rho, lengths)) == [_eint(r, n) for r, n in zip(rho, lengths)]


def test_normalized_exponential_has_unit_norm():
    f = ExpCombo.normalized_exponential(-0.7 + 2.0j)
    assert np.sqrt(norm_sq(f)) == pytest.approx(1.0)
    g = ExpCombo.normalized_exponential(3.0j, start=1.0, end=1.5)
    assert np.sqrt(norm_sq(g)) == pytest.approx(1.0)


def test_inner_matches_quadrature():
    f = add(ExpCombo.exponential(-1.0, coeff=1.0), ExpCombo.exponential(-2.0 + 0.5j, coeff=0.3j))
    g = ExpCombo.exponential(-0.5 - 1.0j, start=0.5, coeff=2.0)
    assert f.inner(g) == pytest.approx(quad_inner(f, g), abs=1e-10)


def test_window_and_shift_consistency():
    f = ExpCombo.normalized_exponential(-1.0)
    assert norm_sq(window(f, 0.0, 2.0)) + norm_sq(window(f, 2.0)) == pytest.approx(1.0)
    shifted = shift(f, 1.5)
    assert np.sqrt(norm_sq(shifted)) == pytest.approx(np.sqrt(norm_sq(f)))
    x = 2.25
    assert evaluate(shifted, x) == pytest.approx(evaluate(f, x - 1.5))
    assert evaluate(shifted, 1.0) == 0.0


def test_backshift_inverts_shift():
    f = ExpCombo.normalized_exponential(-1.0 + 1.0j)
    back = backshift(shift(f, 0.75), 0.75)
    assert np.sqrt(norm_sq(subtract(back, f))) <= 1e-12


def test_evaluate_respects_support():
    f = ExpCombo.exponential(-1.0, start=1.0, end=2.0)
    assert evaluate(f, 0.5) == 0.0
    assert evaluate(f, 2.5) == 0.0
    # terms are anchored at their start: value is exp(mu * (x - start))
    assert evaluate(f, 1.5) == pytest.approx(np.exp(-0.5))


def test_infinite_tail_needs_decay():
    with pytest.raises(ValueError):
        ExpCombo.exponential(1.0j)  # no decay on an infinite interval


def test_blaschke_residues_single_factor():
    # one factor at -1: B(z) = (z-1)/(z+1) has residue -2 at the pole
    res = blaschke_residues([-1.0 + 0.0j])
    assert len(res) == 1
    assert res[0] == pytest.approx(-2.0)


def test_theta_is_isometric_on_the_calculus():
    lambdas = [-1.0 + 0.0j, -2.0 + 0.5j]
    f = add(
        ExpCombo.exponential(-0.8 + 0.3j, coeff=1.0),
        ExpCombo.exponential(-1.5 - 1.0j, start=0.25, coeff=0.5j),
    )
    out = theta_apply(lambdas, f)
    assert np.sqrt(norm_sq(out)) == pytest.approx(np.sqrt(norm_sq(f)), abs=1e-10)
    # quadrature cross-check of the image norm
    assert np.sqrt(quad_inner(out, out).real) == pytest.approx(np.sqrt(norm_sq(f)), abs=1e-8)


def test_theta_range_annihilates_basis_exponentials():
    lambdas = [-1.0 + 0.0j, -2.0 + 0.5j]
    f = ExpCombo.normalized_exponential(-0.6 - 0.2j)
    out = theta_apply(lambdas, f)
    for lam in lambdas:
        e = ExpCombo.normalized_exponential(lam)
        assert abs(e.inner(out)) <= 1e-10


def test_theta_pole_collision_guard():
    with pytest.raises(ValueError, match="collides"):
        theta_apply([-1.0 + 0.0j], ExpCombo.exponential(-1.0))


def test_compress_merges_duplicate_terms():
    f = add(ExpCombo.exponential(-1.0, coeff=0.5), ExpCombo.exponential(-1.0, coeff=0.5))
    g = f.compress()
    assert len(g.terms) == 1
    assert np.sqrt(norm_sq(subtract(g, ExpCombo.exponential(-1.0)))) <= 1e-14


# ---------------------------------------------------------------------------
# properties on random combinations with complex rates and coefficients

COEFFS = st.complex_numbers(
    min_magnitude=0.1, max_magnitude=2.0, allow_nan=False, allow_infinity=False
)
DECAY_RATES = st.builds(complex, st.floats(-3.0, -0.2), st.floats(-3.0, 3.0))


@st.composite
def terms(draw):
    """One term; a finite window also admits growing rates."""
    start = draw(st.floats(0.0, 2.0))
    if draw(st.booleans()):
        return draw(COEFFS), draw(DECAY_RATES), start, np.inf
    rate = complex(draw(st.floats(-3.0, 1.0)), draw(st.floats(-3.0, 3.0)))
    return draw(COEFFS), rate, start, start + draw(st.floats(0.1, 3.0))


COMBOS = st.lists(terms(), min_size=1, max_size=3).map(ExpCombo)
PROPERTY = settings(max_examples=30, deadline=None, derandomize=True, database=None)


def piecewise_quad_inner(f, g, upper=100.0):
    """Quadrature of ``(f, g)`` split at every support end point."""
    ends = {x for _, _, s, e in f.terms + g.terms for x in (s, e) if x < upper}
    cuts = sorted({0.0, upper} | ends)
    return sum(quad_inner(f, g, lo, hi, limit=200) for lo, hi in zip(cuts, cuts[1:]))


def term_scale(combo):
    return sum(np.sqrt(norm_sq(ExpCombo([term]))) for term in combo.terms)


@PROPERTY
@given(f=COMBOS, g=COMBOS)
def test_inner_matches_quadrature_on_random_combinations(f, g):
    scale = max(1.0, term_scale(f) * term_scale(g))
    assert abs(f.inner(g) - piecewise_quad_inner(f, g)) <= 1e-9 * scale


@PROPERTY
@given(lambdas=st.lists(DECAY_RATES, min_size=1, max_size=3), f=COMBOS)
def test_theta_preserves_norms_on_random_combinations(lambdas, f):
    # Theta is an isometry; keep exponents apart so the Volterra poles are simple
    gaps = [abs(a - b) for i, a in enumerate(lambdas) for b in lambdas[i + 1:]]
    gaps += [abs(mu - lam) for _, mu, _, _ in f.terms for lam in lambdas]
    assume(min(gaps) > 0.25)
    out = theta_apply(lambdas, f)
    assert abs(np.sqrt(norm_sq(out)) - np.sqrt(norm_sq(f))) <= 1e-10 * max(1.0, term_scale(f))


def test_compress_drops_cancelled_terms():
    f = ExpCombo.exponential(-1.0 + 0.5j, start=0.5, coeff=0.3 - 0.1j)
    assert subtract(f, f).compress().terms == []


# ---------------------------------------------------------------------------
# window defects from the structure of the window Gram matrix

FAMILY_SIX = [-1.0, -2.0 + 0.5j, -0.5 + 1.0j, -1.5 - 1.0j, -0.75 + 2.0j, -3.0 - 0.25j]


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    lambdas=st.lists(DECAY_RATES, min_size=1, max_size=6),
    octaves=st.floats(0.0, 10.0),
    k_max=st.integers(65, 8192),
)
def test_window_defects_match_the_full_gram_form(lambdas, octaves, k_max):
    # k from -64 to 64 and the two ends -k_max and k_max at window lengths
    # from 2^-10 to 1, against the (n+1)^2 integrals per rate of the oracle:
    # 1e-12 relative, plus a few ulps of the terms that the window form sums,
    # which matter only where clustered poles make the residues cancel
    delta = 2.0 ** -octaves
    ks = np.concatenate([np.arange(-64, 65), [-k_max, k_max]])
    mus = window_exponent(ks, delta)
    gaps = [abs(a - b) for i, a in enumerate(lambdas) for b in lambdas[i + 1:]]
    gaps += [abs(mu - lam) for mu in mus for lam in lambdas]
    assume(min(gaps) > 0.25)
    got = window_defects(lambdas, ks, delta)
    want, scale = full_gram_window_defects(lambdas, ks, delta)
    assert np.all(np.abs(got - want) <= 1e-12 * want + 8 * np.finfo(float).eps * scale)


@pytest.mark.parametrize("delta", [0.3, 0.01])
@pytest.mark.parametrize("lambdas", [[-0.5 + 1e-6j, -2.0 + 0.5j], [-0.5 + 1e-9j, -2.0 + 0.5j, -1.0]])
def test_window_defects_near_a_pole_match_mpmath(lambdas, delta):
    # an exponent within 1e-6 of mu_0 = -1/2: the closed window form cancels
    # to ~1e-12 of its terms there and expm1(s_0) - expm1(w_j) to ~1e-6, so
    # the k = 0 value holds 1e-13 only as a Gauss-Legendre row with its tail
    # coefficients from that row's end point
    value = window_defects(lambdas, [0], delta)[0]
    exact = mp_window_defect(lambdas, 0, delta)
    assert abs(value - exact) <= 1e-13 * exact


@pytest.mark.parametrize("n", [1, 3, 6])
def test_window_defects_take_no_integral_per_rate(monkeypatch, n):
    # the n^2 exponent block twice, over the window and over the half line of
    # the tail, whatever the number of rates: the boundary factors of each
    # (exponent, rate) pair are products of per-rate and per-exponent ones
    entries = []
    eint = expcalc._eint

    def counting(rho, length):
        entries.append(np.broadcast(rho, length).size)
        return eint(rho, length)

    monkeypatch.setattr(expcalc, "_eint", counting)
    for k_max in (1, 50, 2048):
        entries.clear()
        window_defects(FAMILY_SIX[:n], np.arange(-k_max, k_max + 1), 0.125)
        assert entries == [n * n, n * n]


def test_window_defects_refuse_a_rate_on_a_pole():
    # the family holds mu_2 = -1/4 + 8 pi i, the window exponent of k = 2 at
    # length 1/2
    lambdas = FAMILY_SIX[:5] + [window_exponent(2, 0.5)]
    window_defects(lambdas, [-2, 0, 1, 3], 0.5)  # does not raise
    with pytest.raises(ValueError, match="collides"):
        window_defects(lambdas, [0, 2], 0.5)
