import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from carshift.expcalc import ExpCombo, _eint, blaschke_residues, theta_apply, window_defects
from oracles import backshift, evaluate, quad_inner


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
    assert np.sqrt(f.norm_sq()) == pytest.approx(1.0)
    g = ExpCombo.normalized_exponential(3.0j, start=1.0, end=1.5)
    assert np.sqrt(g.norm_sq()) == pytest.approx(1.0)


def test_inner_matches_quadrature():
    f = ExpCombo.exponential(-1.0, coeff=1.0) + ExpCombo.exponential(-2.0 + 0.5j, coeff=0.3j)
    g = ExpCombo.exponential(-0.5 - 1.0j, start=0.5, coeff=2.0)
    assert f.inner(g) == pytest.approx(quad_inner(f, g), abs=1e-10)


def test_window_and_shift_consistency():
    f = ExpCombo.normalized_exponential(-1.0)
    assert f.window(0.0, 2.0).norm_sq() + f.window(2.0).norm_sq() == pytest.approx(1.0)
    shifted = f.shift(1.5)
    assert np.sqrt(shifted.norm_sq()) == pytest.approx(np.sqrt(f.norm_sq()))
    x = 2.25
    assert evaluate(shifted, x) == pytest.approx(evaluate(f, x - 1.5))
    assert evaluate(shifted, 1.0) == 0.0


def test_backshift_inverts_shift():
    f = ExpCombo.normalized_exponential(-1.0 + 1.0j)
    back = backshift(f.shift(0.75), 0.75)
    assert np.sqrt((back - f).norm_sq()) <= 1e-12


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
    f = ExpCombo.exponential(-0.8 + 0.3j, coeff=1.0) + ExpCombo.exponential(
        -1.5 - 1.0j, start=0.25, coeff=0.5j
    )
    out = theta_apply(lambdas, f)
    assert np.sqrt(out.norm_sq()) == pytest.approx(np.sqrt(f.norm_sq()), abs=1e-10)
    # quadrature cross-check of the image norm
    assert np.sqrt(quad_inner(out, out).real) == pytest.approx(np.sqrt(f.norm_sq()), abs=1e-8)


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
    f = ExpCombo.exponential(-1.0, coeff=0.5) + ExpCombo.exponential(-1.0, coeff=0.5)
    g = f.compress()
    assert len(g.terms) == 1
    assert np.sqrt((g - ExpCombo.exponential(-1.0)).norm_sq()) <= 1e-14


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
    return sum(np.sqrt(ExpCombo([term]).norm_sq()) for term in combo.terms)


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
    assert abs(np.sqrt(out.norm_sq()) - np.sqrt(f.norm_sq())) <= 1e-10 * max(1.0, term_scale(f))


def test_compress_drops_cancelled_terms():
    f = ExpCombo.exponential(-1.0 + 0.5j, start=0.5, coeff=0.3 - 0.1j)
    assert (f - f).compress().terms == []
