"""Closed-form spectrum, eigenpolynomials, and transported eigenfunctions."""

import math
from fractions import Fraction
from functools import reduce

import numpy as np
import pytest
from numpy.testing import assert_allclose

from klform import (
    BasisConfig,
    EigenLabel,
    GENERATOR_ORDER,
    AppliedEigenfunction,
    IllConditionedReduction,
    LabelError,
    LinearPhaseOperator,
    PhasePolyOperator,
    ReductionPlan,
    assemble_liouvillian,
    assemble_matrix,
    cl_coefficients,
    conjugate_coefficients,
    distinct_labels,
    eigenvalue,
    expand,
    hpz_coefficients,
    kl_coefficients,
    pi_polynomial,
    reduce_to_kl,
    residual,
    transformed_eigenfunction,
)

from klform import reduction
from klform.spectrum import _apply_linear_to_poly
from klform.operators import _commutator

from adjoint_oracle import _adjoint_matrix_4
from pi_oracle import (
    apply_linear,
    c_rational,
    common_factor,
    hermite_coefficients,
    multiplication_pair,
    pi_exact,
)
from reference_fixtures import (
    UnsupportedLabel,
    kl_eigenfunction,
    linear_as_poly,
    reference_eigenfunction,
)
from test_caches import criterion_02_sources
from test_verify import GENERIC


def test_eigenvalue_formula_fixtures():
    w0, gam = 1.0, 0.3
    assert eigenvalue(EigenLabel(0, 0, 1), w0, gam) == 0.0
    assert eigenvalue(EigenLabel(1, 0, 1), w0, gam) == pytest.approx(gam)
    assert eigenvalue(EigenLabel(1, 1, 1), w0, gam) == pytest.approx(0.15 + 1j)
    assert eigenvalue(EigenLabel(1, 1, -1), w0, gam) == pytest.approx(0.15 - 1j)
    assert eigenvalue(EigenLabel(2, 2, -1), w0, gam) == pytest.approx(0.3 - 2j)


def test_eigenvalue_input_validation():
    with pytest.raises(ValueError):
        eigenvalue(EigenLabel(1, 0, 1), -1.0, 0.3)
    with pytest.raises(ValueError):
        eigenvalue(EigenLabel(1, 0, 1), 1.0, -0.3)


def test_label_validation():
    with pytest.raises(LabelError):
        EigenLabel(1, 2, 1)
    with pytest.raises(LabelError):
        EigenLabel(-1, 0, 1)
    with pytest.raises(LabelError):
        EigenLabel(2, 1, 0)


def test_distinct_labels_counts_and_dedup():
    labels = distinct_labels(2)
    assert len(labels) == 9
    assert len(distinct_labels(4)) == 25
    n0 = [lab for lab in labels if lab.n == 0]
    assert all(lab.sigma == 1 for lab in n0)
    assert len({(lab.m, lab.n, lab.sigma) for lab in labels}) == 9


def test_hermite_polynomial_values_and_coefficients():
    x = np.linspace(-2.0, 2.0, 9)
    h3 = np.polynomial.polynomial.polyval(x, hermite_coefficients(3))
    assert_allclose(h3, 8.0 * x**3 - 12.0 * x, atol=1e-12)
    assert hermite_coefficients(4) == [12, 0, -48, 0, 16]
    assert hermite_coefficients(0) == [1]
    assert hermite_coefficients(1) == [0, 2]


def test_c_coefficient_fixture():
    assert c_rational(1, 1, 0, 0, 0, 1) / common_factor(1, 1) == pytest.approx(-1j)
    # the sign flip enters through (-1)^(n + sigma_idx)
    assert c_rational(1, 1, 0, 0, 0, -1) / common_factor(1, 1) == pytest.approx(1j)


def test_pi_polynomial_lowest_modes():
    # Qs^j rs^k is the multiplication term (j, k, 0, 0)
    expected = {
        (1, 1, 1): {(1, 0, 0, 0): -1j, (0, 1, 0, 0): -1j},
        (1, 1, -1): {(1, 0, 0, 0): 1j, (0, 1, 0, 0): -1j},
        (1, 0, 1): {(0, 0, 0, 0): 0.5, (2, 0, 0, 0): -1.0, (0, 2, 0, 0): 1.0},
    }
    for label, terms in expected.items():
        pi = pi_polynomial(EigenLabel(*label))
        assert pi.max_abs_diff(PhasePolyOperator(terms)) <= 1e-12, label


def test_pi_polynomial_equals_the_exact_triple_sum():
    """Every label up to m = 10 and two at the cap: Pi has exactly the
    nonzero terms of the triple sum, and each coefficient times the label's
    common factor i^n sqrt(m!/(m-n)!) is real and within 1e-15 of the exact
    rational, relative.  With x that coefficient and v the exact value,
    x^2 m!/(m-n)! against v^2 decides it in rationals."""
    labels = [EigenLabel(m, n, s) for m in range(11) for n in range(m + 1) for s in (1, -1)]
    labels += [EigenLabel(32, 0, 1), EigenLabel(32, 31, -1)]
    lo, hi = (1 - Fraction(1, 10**15)) ** 2, (1 + Fraction(1, 10**15)) ** 2
    for lab in labels:
        exact = pi_exact(lab)
        terms = pi_polynomial(lab).terms
        assert set(terms) == {(j, k, 0, 0) for j, k in exact}, lab
        rotate = (1j) ** (lab.n % 4)
        for (j, k), v in exact.items():
            got = terms[(j, k, 0, 0)] * rotate
            assert got.imag == 0 and (got.real > 0) == (v > 0), (lab, j, k)
            ratio = Fraction(got.real) ** 2 * math.perm(lab.m, lab.n) / v**2
            assert lo <= ratio <= hi, (lab, j, k, float(ratio - 1))


def test_pi_polynomial_degree_is_2m_minus_n():
    for lab in distinct_labels(5):
        assert pi_polynomial(lab).degree() == 2 * lab.m - lab.n


def test_pi_polynomial_sigma_degenerate_only_at_n0():
    for m in (*range(1, 5), 16, 32):
        plus = pi_polynomial(EigenLabel(m, 0, 1))
        minus = pi_polynomial(EigenLabel(m, 0, -1))
        assert plus == minus, m
    # away from n = 0 the two signs are genuinely different polynomials
    p = pi_polynomial(EigenLabel(2, 2, 1))
    q = pi_polynomial(EigenLabel(2, 2, -1))
    assert not p.max_abs_diff(q) <= 1e-12


def test_pi_polynomial_conjugate_reflection_pairing():
    """The sign partner is the complex conjugate under r -> -r, term by
    term: the coefficient of Qs^j rs^k goes to (-1)^k times its conjugate."""
    labels = [lab for lab in distinct_labels(3) if lab.n]
    labels += [EigenLabel(16, 5, 1), EigenLabel(32, 1, -1), EigenLabel(32, 31, 1)]
    for lab in labels:
        partner = EigenLabel(lab.m, lab.n, -lab.sigma)
        reflected = {
            (j, k, 0, 0): -v.conjugate() if k % 2 else v.conjugate()
            for (j, k, _, _), v in pi_polynomial(lab).terms.items()
        }
        assert pi_polynomial(partner) == PhasePolyOperator(reflected), lab


def test_pi_polynomial_m_cap():
    with pytest.raises(LabelError, match="^m = 40 exceeds the cap 32$"):
        pi_polynomial(EigenLabel(40, 0, 1))


def test_transport_rejects_m_above_the_cap_before_transporting(monkeypatch):
    """The word's cap, with the message of pi_polynomial and verify, before
    the Gaussian or the pair moves along the plan."""

    def transport(*args):
        raise AssertionError("a label above the cap was transported")

    monkeypatch.setattr(reduction, "conjugate_linear", transport)
    monkeypatch.setattr(reduction, "apply_plan_gaussian", transport)
    src = criterion_02_sources(1)[0]
    plan = reduce_to_kl(src, b_target=1.0)
    assert plan.steps
    for sigma in (1, -1):
        with pytest.raises(LabelError, match="^m = 33 exceeds the cap 32$"):
            transformed_eigenfunction(plan, EigenLabel(33, 1, sigma), src)
    assert "raising_pair" not in vars(plan)


@pytest.mark.parametrize("omega0", [math.nan, -1.0, math.inf])
def test_transport_of_a_plan_built_with_a_bad_omega0_raises_value_error(omega0):
    """eigenvalue's check, for the empty plan and for a plan with steps,
    whose replay passes."""
    src = criterion_02_sources(1)[0]
    plan = reduce_to_kl(src, b_target=1.0)
    target = kl_coefficients(1.0, 0.3, 1.0)
    cases = (
        (ReductionPlan((), omega0, 1.0, target), target),
        (ReductionPlan(plan.steps, omega0, plan.b, plan.target), src),
    )
    for used, source in cases:
        for lab in (EigenLabel(0, 0, 1), EigenLabel(2, 1, -1)):
            with pytest.raises(ValueError, match="^omega0 must be finite and non-negative$"):
                transformed_eigenfunction(used, lab, source)


def test_kl_eigenfunction_residuals_low_modes():
    w0, gam, b = 1.0, 0.3, 1.0
    k_op = assemble_liouvillian(kl_coefficients(w0, gam, b))
    f00 = kl_eigenfunction(EigenLabel(0, 0, 1), b, w0, gam)
    cfg = BasisConfig(32, 32, f00.gaussian.frame())
    k_mat = assemble_matrix(k_op, cfg)
    for lab in distinct_labels(2):
        f = kl_eigenfunction(lab, b, w0, gam)
        vec = expand(f, cfg)
        assert residual(k_mat, vec, f.eigenvalue) <= 1e-10


def test_transformed_eigenfunction_random_sources():
    """Scrambled normal forms keep the closed-form spectrum."""
    rng = np.random.default_rng(512)
    for _ in range(5):
        omega0 = float(rng.uniform(0.6, 1.4))
        gamma = float(rng.uniform(0.2, 0.9))
        b = float(rng.uniform(0.7, 1.5))
        src = kl_coefficients(omega0, gamma, b)
        for _ in range(int(rng.integers(3, 6))):
            gid = list(GENERATOR_ORDER)[rng.integers(7)]
            src = conjugate_coefficients(gid, float(rng.uniform(-0.5, 0.5)), src)
        plan = reduce_to_kl(src, b_target=1.0)
        k_mat = None
        for lab in distinct_labels(2):
            f = transformed_eigenfunction(plan, lab, src)
            if k_mat is None:
                cfg = BasisConfig(40, 40, f.gaussian.frame())
                k_mat = assemble_matrix(assemble_liouvillian(src), cfg)
            vec = expand(f, cfg)
            lam = eigenvalue(lab, plan.omega0, gamma)
            assert f.eigenvalue == pytest.approx(lam)
            assert residual(k_mat, vec, lam) <= 1e-7


@pytest.mark.parametrize("name", ["kl", "generic"])
def test_modes_up_to_the_cap_meet_roundoff_residuals(name):
    """At 66x66, which holds every mode up to m = 32 whole, the residual of
    each word stays within 1e-12 (the monomial form reached 9.9e-2 on the
    generic config at (32, 0))."""
    src = {"kl": kl_coefficients(1.0, 0.3, 1.0), "generic": GENERIC}[name]
    plan = reduce_to_kl(src, b_target=1.0)
    cfg = k_mat = None
    for m in (16, 24, 32):
        for n in sorted({0, 1, m // 2, m}):
            for sigma in (1, -1):
                f = transformed_eigenfunction(plan, EigenLabel(m, n, sigma), src)
                if k_mat is None:
                    cfg = BasisConfig(66, 66, f.gaussian.frame())
                    k_mat = assemble_matrix(assemble_liouvillian(src), cfg)
                assert residual(k_mat, expand(f, cfg), f.eigenvalue) <= 1e-12, f.label


def test_raising_pair_against_the_reduction_free_4x4_route():
    """On the 100 criterion-02 sources each transported letter raises the
    source's spectrum by its rate, [K, B_i] = lambda_i B_i with lambda_1 the
    rate of (1, 1, -) and lambda_2 that of (1, 1, +), and the two
    eigenvectors of the 4x4 matrix of ad_K with Re = -gamma/2, the lowering
    pair, annihilate the transported Gaussian: L rho / rho has the linear
    coefficients lq - 4 mu ldq - i kappa ldr and lr - i kappa ldq - w ldr."""
    for index, src in enumerate(criterion_02_sources(100)):
        plan = reduce_to_kl(src, b_target=1.0)
        f = transformed_eigenfunction(plan, EigenLabel(0, 0), src)
        k_op = assemble_liouvillian(src)
        for letter, sign in zip(f.raising, (-1, 1)):
            want = eigenvalue(EigenLabel(1, 1, sign), plan.omega0, src.gamma) * linear_as_poly(letter)
            got = _commutator(k_op, linear_as_poly(letter))
            assert got.max_abs_diff(want) <= 1e-12 * max(map(abs, want.terms.values())), index
        ad_k = sum(c * _adjoint_matrix_4(gid) for c, gid in zip(src.as_vector(), GENERATOR_ORDER))
        rates, vecs = np.linalg.eig(ad_k)
        lowering = vecs[:, rates.real < 0]
        assert_allclose(rates.real[rates.real < 0], -0.5 * src.gamma, rtol=1e-12)
        g = f.gaussian
        for lq, lr, ldq, ldr in lowering.T:
            assert abs(lq - 4.0 * g.mu * ldq - 1j * g.kappa * ldr) <= 1e-12, index
            assert abs(lr - 1j * g.kappa * ldq - g.width_sum * ldr) <= 1e-12, index


def test_apply_linear_to_poly_equals_the_closure_form():
    """The inlined update adds the product-rule terms in the order of the
    closure form it replaced, bit for bit, on the log-derivative of the
    Gaussian that expanded_poly passes: along every word m <= 4 of the
    presets and criterion-02 sources 0-9, whose end is the mode's
    multiplier, then for the transported multiplication pair; kl's letters
    and pair carry exact zero fields."""

    def exact(terms):
        return sorted((key, repr(val)) for key, val in terms.items())

    presets = [kl_coefficients(1.0, 0.3, 1.0), cl_coefficients(1.0, 0.6, 1.0)]
    presets.append(hpz_coefficients(1.0, 0.6, 1.0, 0.2))
    for src in presets + criterion_02_sources(10):
        plan = reduce_to_kl(src, b_target=1.0)
        for lab in distinct_labels(4):
            f = transformed_eigenfunction(plan, lab, src)
            scale, powers = f.word
            letters = [op for op, count in powers for _ in range(count)]
            g = f.gaussian
            grad = (-4.0 * g.mu, -1j * g.kappa, -g.width_sum)

            def step(poly, op):
                got = _apply_linear_to_poly(op, poly, grad)
                assert exact(got) == exact(apply_linear(op, poly, g)), (lab, op)
                return got

            poly = reduce(step, letters, {(0, 0): scale})
            word = PhasePolyOperator({(a, b, 0, 0): v for (a, b), v in poly.items()})
            assert exact(word.terms) == exact(f.expanded_poly.terms), lab
            reduce(step, multiplication_pair(plan), poly)


def test_reference_kl_equals_direct_construction():
    w0, gam, b = 1.0, 0.3, 1.0
    for lab in (EigenLabel(1, 1, 1), EigenLabel(1, 1, -1), EigenLabel(1, 0, 1)):
        ref = reference_eigenfunction("kl", lab, b=b, omega0=w0, gamma=gam)
        direct = kl_eigenfunction(lab, b, w0, gam)
        assert ref.pi.max_abs_diff(pi_polynomial(lab)) <= 1e-12
        assert ref.eigenvalue == direct.eigenvalue
        q = np.linspace(-1.0, 1.0, 5)[:, None]
        r = np.linspace(-1.0, 1.0, 4)[None, :]
        assert_allclose(ref.evaluate(q, r), direct.evaluate(q, r), atol=1e-13)


def sampled_proportionality(f_test, f_ref):
    """Largest relative deviation from a single complex constant."""
    q = np.linspace(-1.5, 1.5, 10)[:, None]
    r = np.linspace(-1.2, 1.2, 10)[None, :]
    a = f_test.evaluate(q, r)
    b = f_ref.evaluate(q, r)
    idx = np.unravel_index(np.argmax(np.abs(b)), b.shape)
    const = a[idx] / b[idx]
    return const, float(np.max(np.abs(a - const * b)) / np.max(np.abs(a)))


def test_reference_cl_matches_plan_transport():
    w0p, gam, b_cl = 1.0, 0.6, 1.0
    src = cl_coefficients(w0p, gam, b_cl)
    plan = reduce_to_kl(src, b_target=1.0)
    for lab in (EigenLabel(1, 1, 1), EigenLabel(1, 1, -1), EigenLabel(1, 0, 1)):
        ref = reference_eigenfunction("cl", lab, omega0_prime=w0p, gamma=gam, b_cl=b_cl)
        f = transformed_eigenfunction(plan, lab, src)
        assert ref.eigenvalue == pytest.approx(f.eigenvalue, abs=1e-12)
        _, dev = sampled_proportionality(f, ref)
        assert dev <= 1e-10


def test_reference_hpz_matches_plan_transport():
    w0p, gam, b_hpz, d = 1.0, 0.6, 1.0, 0.2
    src = hpz_coefficients(w0p, gam, b_hpz, d)
    plan = reduce_to_kl(src, b_target=1.0)
    for lab in (EigenLabel(1, 1, 1), EigenLabel(1, 1, -1), EigenLabel(1, 0, 1)):
        ref = reference_eigenfunction(
            "hpz", lab, omega0_prime=w0p, gamma=gam, b_hpz=b_hpz, d=d
        )
        f = transformed_eigenfunction(plan, lab, src)
        _, dev = sampled_proportionality(f, ref)
        assert dev <= 1e-10


def test_non_commuting_pair_raises_typed_error():
    """A NaN commutator fails the check too: NaN > tol is false."""
    state = kl_eigenfunction(EigenLabel(0, 0, 1), 1.0, 1.0, 0.3).gaussian
    for b1 in (LinearPhaseOperator(dq=1.0), LinearPhaseOperator(dq=math.nan)):
        with pytest.raises(IllConditionedReduction) as err:
            AppliedEigenfunction(EigenLabel(1, 0, 1), 0.3, (b1, LinearPhaseOperator(q=1.0)), state)
        assert err.value.residual != 0.0


def test_overflowing_word_raises_typed_error():
    """A pair of scale 1e200 commutes, so the mode is accepted; its word
    leaves the float range, which raises a typed error carrying an infinite
    miss instead of a ValueError about a negative exponent."""
    state = kl_eigenfunction(EigenLabel(0, 0, 1), 1.0, 1.0, 0.3).gaussian
    pair = (LinearPhaseOperator(r=1e200, dq=1e200), LinearPhaseOperator(r=1e200, dq=-1e200))
    f = AppliedEigenfunction(EigenLabel(2, 0, 1), 0.6, pair, state)
    with pytest.raises(IllConditionedReduction) as err:
        f.evaluate(0.0, 0.0)
    assert err.value.residual == math.inf


def test_plan_of_another_source_raises_typed_error():
    src_a = cl_coefficients(1.0, 0.6, 1.0)
    src_b = hpz_coefficients(1.0, 0.6, 1.0, 0.2)
    plan_a = reduce_to_kl(src_a, b_target=1.0)
    with pytest.raises(IllConditionedReduction, match="does not reduce") as err:
        transformed_eigenfunction(plan_a, EigenLabel(1, 0, 1), src_b)
    assert err.value.residual == plan_a.replay_residual(src_b)
    assert err.value.residual > 0.1


def test_reference_unsupported_label():
    with pytest.raises(UnsupportedLabel):
        reference_eigenfunction("kl", EigenLabel(2, 2, 1), b=1.0, omega0=1.0, gamma=0.3)
