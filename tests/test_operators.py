"""Generator algebra, normal ordering, and conjugation of coefficient vectors."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from klform import (
    GENERATOR_ORDER,
    CoordinateFrame,
    GeneratorId,
    LinearPhaseOperator,
    LiouvillianCoeffs,
    PhasePolyOperator,
    assemble_liouvillian,
    cl_coefficients,
    commutator,
    conjugate_coefficients,
    conjugate_linear,
    generator,
    hpz_coefficients,
    kl_coefficients,
    rescale_coordinates,
)

from adjoint_oracle import adjoint_conjugate_coefficients

GENERATOR_TABLE = {
    GeneratorId.IL0: {(1, 1, 0, 0): 0.5j, (0, 0, 1, 1): -0.5j},
    GeneratorId.IM1: {(1, 1, 0, 0): 0.5j, (0, 0, 1, 1): 0.5j},
    GeneratorId.IM2: {(1, 0, 1, 0): -0.5, (0, 0, 0, 0): -0.5, (0, 1, 0, 1): -0.5},
    GeneratorId.O0MI: {(1, 0, 1, 0): -0.5, (0, 0, 0, 0): -0.5, (0, 1, 0, 1): 0.5},
    GeneratorId.OPLUS: {(0, 0, 2, 0): 0.25, (0, 2, 0, 0): -0.25},
    GeneratorId.L1PLUS: {(0, 0, 2, 0): -0.25, (0, 2, 0, 0): -0.25},
    GeneratorId.L2PLUS: {(0, 1, 1, 0): -0.5j},
}


def random_coeffs(rng):
    h = rng.uniform(-2.0, 2.0, size=3)
    g = rng.uniform(-2.0, 2.0, size=3)
    gamma = rng.uniform(0.0, 2.0)
    return LiouvillianCoeffs(tuple(h), gamma, tuple(g))


def test_generator_term_tables():
    for gid, table in GENERATOR_TABLE.items():
        got = generator(gid).terms
        assert set(got) == set(table)
        for key, val in table.items():
            assert got[key] == val


def test_generators_have_even_parity_and_degree_two():
    # every term has total exponent parity 0 so j+k parity is conserved
    for gid in GENERATOR_ORDER:
        for (a, b, c, d), coeff in generator(gid).terms.items():
            assert (a + b + c + d) % 2 == 0
            assert a + b + c + d <= 2
            assert coeff != 0


def test_normal_ordering_simple_product():
    dq = PhasePolyOperator({(0, 0, 1, 0): 1.0})
    q = PhasePolyOperator({(1, 0, 0, 0): 1.0})
    prod = dq @ q
    assert prod.terms == {(1, 0, 1, 0): 1.0, (0, 0, 0, 0): 1.0}


def test_normal_ordering_second_derivative():
    # dQ^2 Q^2 = Q^2 dQ^2 + 4 Q dQ + 2
    dq2 = PhasePolyOperator({(0, 0, 2, 0): 1.0})
    q2 = PhasePolyOperator({(2, 0, 0, 0): 1.0})
    prod = dq2 @ q2
    expected = PhasePolyOperator(
        {(2, 0, 2, 0): 1.0, (1, 0, 1, 0): 4.0, (0, 0, 0, 0): 2.0}
    )
    assert prod.max_abs_diff(expected) <= 1e-12


def test_polynomial_algebra_and_evaluate():
    """A polynomial P(Q, r) is the multiplication operator with terms
    (a, b, 0, 0); evaluate is (op 1)(Q, r), so derivative terms add nothing."""
    p = PhasePolyOperator({(1, 0, 0, 0): 2.0, (0, 1, 0, 0): -1j})
    q = PhasePolyOperator({(1, 0, 0, 0): -2.0})
    assert (p + q).terms == {(0, 1, 0, 0): -1j}
    doubled = PhasePolyOperator({(1, 0, 0, 0): 4.0, (0, 1, 0, 0): -2j})
    assert (2.0 * p).max_abs_diff(doubled) <= 1e-12
    assert_allclose(p.evaluate(np.array([[0.5]]), np.array([[2.0]])), [[1.0 - 2j]])

    x = np.linspace(-1.3, 1.3, 7)[:, None]
    y = np.linspace(-0.9, 0.9, 6)[None, :]
    poly = PhasePolyOperator({(0, 0, 0, 0): 0.5, (2, 1, 0, 0): -1.5j, (0, 3, 0, 0): 0.25})
    direct = 0.5 - 1.5j * x**2 * y + 0.25 * y**3
    assert poly.evaluate(x, y).shape == (7, 6)
    assert_allclose(poly.evaluate(x, y), direct, rtol=0, atol=1e-14)
    derivatives = PhasePolyOperator(
        {(1, 0, 1, 0): 3.0, (0, 2, 0, 1): -2j, (0, 0, 2, 0): 1.0, (0, 0, 0, 1): 0.7}
    )
    assert np.array_equal(derivatives.evaluate(x, y), np.zeros((7, 6)))
    assert np.array_equal((poly + derivatives).evaluate(x, y), poly.evaluate(x, y))


def test_commutator_oscillation_and_boost():
    lhs = commutator(generator(GeneratorId.IL0), generator(GeneratorId.IM1))
    rhs = (-1.0) * generator(GeneratorId.IM2)
    assert lhs.max_abs_diff(rhs) <= 1e-15


def test_commutators_close_over_span():
    """Pairwise commutators stay inside generators + identity."""
    basis_keys = sorted(
        {key for gid in GENERATOR_ORDER for key in generator(gid).terms} | {(0, 0, 0, 0)}
    )
    cols = []
    for gid in GENERATOR_ORDER:
        vec = np.zeros(len(basis_keys), dtype=complex)
        for key, val in generator(gid).terms.items():
            vec[basis_keys.index(key)] = val
        cols.append(vec)
    ident = np.zeros(len(basis_keys), dtype=complex)
    ident[basis_keys.index((0, 0, 0, 0))] = 1.0
    cols.append(ident)
    span = np.array(cols).T
    for ga in GENERATOR_ORDER:
        for gb in GENERATOR_ORDER:
            comm = commutator(generator(ga), generator(gb))
            assert comm.degree() <= 2
            vec = np.zeros(len(basis_keys), dtype=complex)
            for key, val in comm.terms.items():
                assert key in basis_keys, f"[{ga},{gb}] leaves the span at {key}"
                vec[basis_keys.index(key)] = val
            _, res, _, _ = np.linalg.lstsq(span, vec, rcond=None)
            if res.size:
                assert res[0] < 1e-24


def test_assemble_liouvillian_matches_hand_expansion():
    # K_CL collapses to i*w0p*(Qr - dQdr) + gamma*r*dr + gamma*b*r^2
    w0p, gam, b = 1.3, 0.45, 0.8
    op = assemble_liouvillian(cl_coefficients(w0p, gam, b))
    expected = PhasePolyOperator(
        {
            (1, 1, 0, 0): 1j * w0p,
            (0, 0, 1, 1): -1j * w0p,
            (0, 1, 0, 1): gam,
            (0, 2, 0, 0): gam * b,
        }
    )
    assert op.max_abs_diff(expected) <= 1e-14


def test_assemble_liouvillian_hpz_extra_term():
    w0p, gam, b, d = 1.0, 0.6, 1.0, 0.2
    op_cl = assemble_liouvillian(cl_coefficients(w0p, gam, b))
    op_hpz = assemble_liouvillian(hpz_coefficients(w0p, gam, b, d))
    diff = op_hpz + (-1.0) * op_cl
    # the cross coupling contributes -d * L2PLUS = (i d/2) r dQ
    assert diff.max_abs_diff(PhasePolyOperator({(0, 1, 1, 0): 0.5j * d})) <= 1e-14


def test_model_coefficient_tuples():
    c = kl_coefficients(1.0, 0.3, 1.0)
    assert c.h == (2.0, 0.0, 0.0)
    assert c.gamma == 0.3
    assert c.g == (-0.6, 0.0, 0.0)
    c = cl_coefficients(1.0, 0.6, 1.0)
    assert c.h == (2.0, 0.0, -0.6)
    assert c.g == (-1.2, -1.2, 0.0)
    c = hpz_coefficients(1.0, 0.6, 1.0, 0.2)
    assert c.g == (-1.2, -1.2, -0.2)


def test_coefficient_vector_round_trip():
    c = LiouvillianCoeffs((0.3, -0.4, 0.5), 0.7, (-0.1, 0.2, -0.3))
    back = LiouvillianCoeffs.from_vector(c.as_vector())
    assert back.max_abs_diff(c) == 0.0


def test_negative_gamma_rejected():
    with pytest.raises(ValueError):
        LiouvillianCoeffs((1.0, 0.0, 0.0), -0.1, (0.0, 0.0, 0.0))


@pytest.mark.parametrize(
    "key, message",
    [
        ((0, -1, 0, 0), "exponents must be non-negative integers"),
        ((1, 0, 1.5, 0), "exponents must be non-negative integers"),
        ((1, 0, 0), "not enough values to unpack"),
        ((1, 0, 0, 0, 0), "too many values to unpack"),
    ],
    ids=["negative", "fractional", "length-3", "length-5"],
)
def test_phase_poly_operator_rejects_bad_exponents(key, message):
    with pytest.raises(ValueError, match=message):
        PhasePolyOperator({(0, 0, 0, 0): 1.0, key: 2.0})


def test_phase_poly_operator_takes_integral_floats_and_drops_exact_zeros():
    op = PhasePolyOperator({(1.0, 0, 0, 0): 2.0, (0, 1, 0, 0): 0.0, (0, 0, 1, 0): 0j})
    assert op.terms == {(1, 0, 0, 0): 2.0}
    assert [type(e) for e in next(iter(op.terms))] == [int] * 4
    assert op == PhasePolyOperator({(1, 0, 0, 0): 2.0})


def test_arithmetic_results_are_normalized_as_the_constructor_normalizes():
    """Sums, differences, negation, scalar products, compositions and
    rescalings equal the checked constructor applied to their terms, down
    to the sign of a zero part: negating 1 + 0j gives -1 + 0j, not -1 - 0j."""
    ops = [generator(gid) for gid in GENERATOR_ORDER]
    ops += [
        PhasePolyOperator({(1, 0, 0, 0): 1.0, (0, 0, 1, 0): -2.0, (0, 1, 0, 1): 0.5 - 0.0j}),
        PhasePolyOperator({(2, 0, 0, 0): complex(-1.0, 0.0), (0, 0, 0, 0): 3.0}),
    ]
    frame = CoordinateFrame(2.0, 0.5, 0.3)
    results = []
    for a in ops:
        results += [-a, -1.0 * a, a * -0.5, 0.0 * a, rescale_coordinates(a, frame)]
        for b in ops:
            results += [a + b, a - b, a - a, a @ b, commutator(a, b)]

    def exact(op):
        return [(key, repr(val)) for key, val in op.terms.items()]

    for result in results:
        assert exact(result) == exact(PhasePolyOperator(result.terms))
        assert all(type(val) is complex and val != 0 for val in result.terms.values())
    assert repr((-PhasePolyOperator({(1, 0, 0, 0): 1.0})).terms[(1, 0, 0, 0)]) == "(-1+0j)"


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("slot", range(7))
def test_coefficients_reject_a_non_finite_entry(slot, bad):
    vec = [0.3, -0.4, 0.5, 0.7, -0.1, 0.2, -0.3]
    vec[slot] = bad
    with pytest.raises(ValueError, match="all coefficients must be finite"):
        LiouvillianCoeffs((vec[0], vec[1], vec[2]), vec[3], (vec[4], vec[5], vec[6]))


@pytest.mark.parametrize(
    "h, g",
    [
        ((1.0, 0.0), (0.0, 0.0, 0.0)),
        ((1.0, 0.0, 0.0, 0.0), (0.0, 0.0, 0.0)),
        ((1.0, 0.0, 0.0), (0.0, 0.0)),
        ((1.0, 0.0, 0.0), (0.0, 0.0, 0.0, 0.0)),
    ],
    ids=["h2", "h4", "g2", "g4"],
)
def test_coefficients_reject_h_or_g_of_the_wrong_length(h, g):
    with pytest.raises(ValueError, match="h and g must each have three entries"):
        LiouvillianCoeffs(h, 0.5, g)


def test_conjugation_closed_form_vs_adjoint_exponential():
    """Closed-form coefficient flows against the structure-constant oracle."""
    rng = np.random.default_rng(42)
    gids = list(GENERATOR_ORDER)
    worst = 0.0
    for _ in range(300):
        c = random_coeffs(rng)
        gid = gids[rng.integers(len(gids))]
        p = float(rng.uniform(-1.5, 1.5))
        closed = conjugate_coefficients(gid, p, c)
        oracle = adjoint_conjugate_coefficients(gid, p, c)
        worst = max(worst, closed.max_abs_diff(oracle))
        assert closed.gamma == c.gamma
        assert oracle.gamma == c.gamma
    assert worst <= 1e-10


def test_conjugation_operator_level():
    """Conjugating every linear factor reproduces the coefficient flow."""
    rng = np.random.default_rng(7)
    for _ in range(20):
        c = random_coeffs(rng)
        gid = list(GENERATOR_ORDER)[rng.integers(7)]
        p = float(rng.uniform(-1.2, 1.2))
        op = assemble_liouvillian(c)
        basis = {
            "q": LinearPhaseOperator(1.0, 0.0, 0.0, 0.0),
            "r": LinearPhaseOperator(0.0, 1.0, 0.0, 0.0),
            "dq": LinearPhaseOperator(0.0, 0.0, 1.0, 0.0),
            "dr": LinearPhaseOperator(0.0, 0.0, 0.0, 1.0),
        }
        moved = {k: conjugate_linear(gid, p, v).to_poly() for k, v in basis.items()}
        total = PhasePolyOperator({})
        for (a, b, cc, d), coeff in op.terms.items():
            term = PhasePolyOperator({(0, 0, 0, 0): coeff})
            for key, count in (("q", a), ("r", b), ("dq", cc), ("dr", d)):
                for _ in range(count):
                    term = term @ moved[key]
            total = total + term
        direct = assemble_liouvillian(conjugate_coefficients(gid, p, c))
        assert total.max_abs_diff(direct) <= 1e-12


def test_conjugation_group_law_single_generator():
    rng = np.random.default_rng(11)
    c = random_coeffs(rng)
    for gid in GENERATOR_ORDER:
        once = conjugate_coefficients(gid, 0.4, conjugate_coefficients(gid, 0.3, c))
        both = conjugate_coefficients(gid, 0.7, c)
        assert once.max_abs_diff(both) <= 1e-12


def test_conjugate_linear_fixtures():
    q = LinearPhaseOperator(1.0, 0.0, 0.0, 0.0)
    r = LinearPhaseOperator(0.0, 1.0, 0.0, 0.0)
    # scaling flow acts diagonally on coordinates
    out = conjugate_linear(GeneratorId.O0MI, 0.8, q)
    assert_allclose(out.as_vector(), [math.exp(-0.4), 0, 0, 0], atol=1e-14)
    out = conjugate_linear(GeneratorId.O0MI, 0.8, r)
    assert_allclose(out.as_vector(), [0, math.exp(0.4), 0, 0], atol=1e-14)
    # cross diffusion is nilpotent: Q -> Q - (i p/2) r
    out = conjugate_linear(GeneratorId.L2PLUS, 0.6, q)
    assert_allclose(out.as_vector(), [1.0, -0.3j, 0, 0], atol=1e-14)


def test_conjugate_linear_preserves_commutator_pairing():
    rng = np.random.default_rng(23)
    for _ in range(50):
        a = LinearPhaseOperator.from_vector(
            rng.standard_normal(4) + 1j * rng.standard_normal(4)
        )
        b = LinearPhaseOperator.from_vector(
            rng.standard_normal(4) + 1j * rng.standard_normal(4)
        )
        gid = list(GENERATOR_ORDER)[rng.integers(7)]
        p = float(rng.uniform(-1.0, 1.0))
        before = a.commutator_scalar(b)
        after = conjugate_linear(gid, p, a).commutator_scalar(conjugate_linear(gid, p, b))
        assert abs(before - after) <= 1e-12 * (1.0 + abs(before))


def test_conjugate_linear_group_law():
    rng = np.random.default_rng(31)
    for gid in GENERATOR_ORDER:
        for _ in range(20):
            a, b = (float(x) for x in rng.uniform(-3.0, 3.0, size=2))
            op = LinearPhaseOperator.from_vector(
                rng.standard_normal(4) + 1j * rng.standard_normal(4)
            )
            twice = conjugate_linear(gid, b, conjugate_linear(gid, a, op)).as_vector()
            once = conjugate_linear(gid, a + b, op).as_vector()
            assert np.max(np.abs(twice - once)) <= 1e-14 * np.max(np.abs(once)), (gid, a, b)


def test_conjugate_linear_far_parameters():
    """A finite flow stays finite at any parameter; a boost that overflows
    gives non-finite entries under numpy's warning, never an exception."""
    a = LinearPhaseOperator(0.3 - 0.1j, -0.7, 1.1j, 0.25)
    b = LinearPhaseOperator(0.2, 1.0j, -0.4, 0.9 + 0.3j)
    far = [conjugate_linear(GeneratorId.IL0, 1e300, op) for op in (a, b)]
    assert np.all(np.isfinite([op.as_vector() for op in far]))
    assert abs(far[0].commutator_scalar(far[1]) - a.commutator_scalar(b)) <= 1e-14
    for p in (2000.0, 1e300):
        with pytest.warns(RuntimeWarning):
            out = conjugate_linear(GeneratorId.IM1, p, a).as_vector()
        assert np.isinf(out).any() and not np.isfinite(out).any(), p


def test_rescale_coordinates_monomials():
    frame = CoordinateFrame(2.0, 0.5)
    op = PhasePolyOperator({(2, 0, 0, 0): 1.0, (0, 1, 0, 1): 3.0, (1, 0, 1, 0): 5.0})
    scaled = rescale_coordinates(op, frame)
    # Q^2 picks s_q^2, r*dr is invariant, Q*dQ is invariant
    assert scaled.terms[(2, 0, 0, 0)] == 4.0
    assert scaled.terms[(0, 1, 0, 1)] == 3.0
    assert scaled.terms[(1, 0, 1, 0)] == 5.0


def test_multi_step_conjugation_gamma_bit_identical():
    rng = np.random.default_rng(99)
    for _ in range(25):
        c = random_coeffs(rng)
        gamma0 = c.gamma
        for _ in range(6):
            gid = list(GENERATOR_ORDER)[rng.integers(7)]
            p = float(rng.uniform(-0.7, 0.7))
            c = conjugate_coefficients(gid, p, c)
        assert c.gamma == gamma0
