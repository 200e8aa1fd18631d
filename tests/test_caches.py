"""The oracle layers reuse per-basis, per-label and per-plan work.

A cached step must give the same bits as building it afresh, and no caller
may reach a cached array: the references below rebuild every piece from
scratch, and the in-place tests scale what a call returns before calling
again.  A mode's multiplier, built once per mode, is held against the
monomial route it replaced, whose arithmetic differs, within 1e-12.
"""

import itertools
import math
import types
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import expm

from klform import (
    GENERATOR_ORDER,
    AppliedEigenfunction,
    BasisConfig,
    CoordinateFrame,
    DegenerateDenominator,
    EigenLabel,
    GaussianState,
    IllConditionedReduction,
    KLFormError,
    LinearPhaseOperator,
    LiouvillianCoeffs,
    PhasePolyOperator,
    PositivityViolation,
    ReductionPlan,
    apply_plan_gaussian,
    assemble_liouvillian,
    assemble_matrix,
    cl_coefficients,
    conjugate_coefficients,
    conjugate_linear,
    distinct_labels,
    expand,
    hpz_coefficients,
    kl_coefficients,
    reduce_to_kl,
    stationary_preset,
    stationary_similarity,
    transform_gaussian,
    transformed_eigenfunction,
)
from klform import reduction, verify
from klform.cli import DESK_PRESETS
from klform.operators import _exp_conjugated, _rescale_coordinates

from adjoint_oracle import (
    _adjoint_matrix_4,
    conjugate_linear_4vector,
    linear_as_vector,
    linear_from_vector,
)
from pi_oracle import pi_route_terms, route_powers
from test_acceptance import random_scrambled_source
from test_reduction import edge_domain
from test_verify import GENERIC

PRESETS = {
    "kl": kl_coefficients(**DESK_PRESETS["kl"]),
    "cl": cl_coefficients(**DESK_PRESETS["cl"]),
    "hpz": hpz_coefficients(**DESK_PRESETS["hpz"]),
}


def criterion_02_sources(count):
    """The first sources of acceptance criterion 02 (same seed and recipe)."""
    rng = np.random.default_rng(20260816)
    return [random_scrambled_source(rng) for _ in range(count)]


SOURCES = {**PRESETS, **{f"c02-{i}": src for i, src in enumerate(criterion_02_sources(3))}}


def modes(src, m_max=2):
    plan = reduce_to_kl(src, b_target=1.0)
    return [transformed_eigenfunction(plan, lab, src) for lab in distinct_labels(m_max)]


def oracle_operators():
    """(name, operator, frame): each source in its stationary frame, and the
    stationary similarity of each preset."""
    out = [
        (name, assemble_liouvillian(src), modes(src, 0)[0].gaussian.frame())
        for name, src in SOURCES.items()
    ]
    for name in PRESETS:
        state, _ = stationary_preset(name, **DESK_PRESETS[name])
        out.append((f"{name}-similarity", *stationary_similarity(PRESETS[name], state)))
    return out


def fresh_factor(n, a, c):
    """The 1-D factor (X/sqrt2)^a (sqrt2 D)^c as a product of sparse
    ladder-matrix powers, made anew: multiplied on n + a + c functions and
    cropped to n x n, so that it is the operator's exact restriction."""
    size = n + a + c
    off = np.sqrt(np.arange(1, size) / 2.0)
    x_mat = sp.diags([off, off], [1, -1], shape=(size, size), format="csr")
    d_mat = sp.diags([off, -off], [1, -1], shape=(size, size), format="csr")
    out = sp.identity(size, format="csr")
    for _ in range(a):
        out = out @ (x_mat / math.sqrt(2.0)).tocsr()
    dif = sp.identity(size, format="csr")
    for _ in range(c):
        dif = dif @ (d_mat * math.sqrt(2.0)).tocsr()
    return (out @ dif)[:n, :n]


def exponential_similarity(op, phi):
    """exp(-phi) op exp(phi) for a polynomial phi(Q, r), terms (a, b, 0, 0),
    through the operator products: each derivative picks up the gradient of
    phi, dQ -> dQ + [dQ, phi] = dQ + dphi/dQ and likewise dr, and each
    monomial Q^a r^b is multiplied on the right by its letters."""
    d_q, d_r = PhasePolyOperator({(0, 0, 1, 0): 1.0}), PhasePolyOperator({(0, 0, 0, 1): 1.0})
    sub_q, sub_r = d_q + (d_q @ phi - phi @ d_q), d_r + (d_r @ phi - phi @ d_r)
    out = PhasePolyOperator({})
    for (a, b, c, d), coeff in op.terms.items():
        term = PhasePolyOperator({(a, b, 0, 0): coeff})
        for _ in range(c):
            term = term @ sub_q
        for _ in range(d):
            term = term @ sub_r
        out = out + term
    return out


def generic_rescale(op, frame):
    """rescale_coordinates through the operator products: the frame's phase
    as exponential_similarity by the polynomial -i kappa Q r, then each
    term times s_q^(a-c) s_r^(d-b)."""
    if frame.kappa:
        op = exponential_similarity(op, PhasePolyOperator({(1, 1, 0, 0): -1j * frame.kappa}))
    sq, sr = frame.s_q, frame.s_r
    return PhasePolyOperator(
        {(a, b, c, d): v * sq ** (a - c) * sr ** (d - b) for (a, b, c, d), v in op.terms.items()}
    )


def fresh_assemble(op, cfg):
    """The operator's matrix as scipy builds it: a sum of Kronecker products
    of the fresh 1-D factors."""
    scaled = generic_rescale(op, cfg.frame)
    total = sp.csr_matrix((cfg.dim, cfg.dim), dtype=complex)
    for (a, b, c, d), coeff in scaled.terms.items():
        factor_q, factor_r = fresh_factor(cfg.n_q, a, c), fresh_factor(cfg.n_r, b, d)
        total = total + coeff * sp.kron(factor_q, factor_r, format="csr")
    return total.tocsr()


def same_bits(a, b):
    """Equal dtypes, shapes and bytes, so that signed zeros count too."""
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def same_matrix(a, b):
    """Equal entries, bit for bit, and equal counts of nonzero entries."""
    return a.nnz == b.nnz and same_bits(a.toarray(), b.toarray())


def same_bands(a, b):
    """Equal shifts and equal bits in every band of two {shift: array} maps."""
    return a.keys() == b.keys() and all(same_bits(a[key], b[key]) for key in a)


def exact(terms):
    """Terms in a form whose equality also tells 0.0 from -0.0."""
    return sorted((key, repr(val)) for key, val in terms.items())


def per_term_bands(op, cfg):
    """The bands as the per-term loop sums them: each term's outer product,
    scaled by its coefficient, added in place in term order, after the
    generic rescaling."""
    scaled = generic_rescale(op, cfg.frame)
    n_q, n_r = cfg.n_q, cfg.n_r
    bands = {}
    for (a, b, c, d), coeff in scaled.terms.items():
        for s, diag_q in verify._ladder(n_q).factors[a, c]:
            for t, diag_r in verify._ladder(n_r).factors[b, d]:
                band = bands.setdefault((s, t), np.zeros((n_q, n_r), dtype=complex))
                band[verify._span(n_q, s), verify._span(n_r, t)] += coeff * np.multiply.outer(
                    diag_q, diag_r
                )
    return bands


def test_stacked_band_sums_equal_the_per_term_loop():
    """The broadcast one-sided terms give the per-term loop's bands: the
    presets and their stationary similarities at 24, 32 and 40 and on two
    rectangles, and the 100 criterion-02 sources at 40, every band, signed
    zeros included."""
    sizes = [(24, 24), (32, 32), (40, 40), (24, 36), (40, 28)]
    cases = [(name, op, frame, sizes) for name, op, frame in oracle_operators()]
    for index, src in enumerate(criterion_02_sources(100)):
        frame = modes(src, 0)[0].gaussian.frame()
        cases.append((f"c02-{index}", assemble_liouvillian(src), frame, [(40, 40)]))
    for name, op, frame, shapes in cases:
        for n_q, n_r in shapes:
            cfg = BasisConfig(n_q, n_r, frame)
            assert same_bands(assemble_matrix(op, cfg).matrix.bands, per_term_bands(op, cfg)), (
                name,
                n_q,
                n_r,
            )


# the exponent quadruples of total degree at most 2
QUADRATIC_KEYS = [
    (a, b, c, d)
    for a in range(3)
    for b in range(3)
    for c in range(3)
    for d in range(3)
    if a + b + c + d <= 2
]


def random_coefficient(rng):
    """A coefficient with a random magnitude from 1e-300 to 1e3, and with a
    zero, negative-zero or nonzero real or imaginary part."""
    scale = 10.0 ** rng.choice([-300, -160, -8, 0, 0, 0, 3])
    parts = [float(rng.normal()) * scale, float(rng.normal()) * scale]
    which = rng.integers(4)
    if which < 2:
        parts[which] = rng.choice([0.0, -0.0])
    return complex(*parts)


def random_operator(rng, max_terms=12):
    """Terms of degree at most 2 in random order, some of them exactly 0."""
    keys = rng.permutation(len(QUADRATIC_KEYS))[: rng.integers(1, max_terms + 1)]
    return {QUADRATIC_KEYS[k]: random_coefficient(rng) if rng.random() < 0.9 else 0.0 for k in keys}


def random_frame(rng):
    """Scales from 0.1 to 4 and a phase of 0 or of order 1, 1e-150 or 1e150,
    small enough that no product overflows."""
    kappa = float(rng.choice([0.0, 1.0, -0.5, 1e-150, 1e150])) * float(rng.uniform(0.1, 3.0))
    return CoordinateFrame(float(rng.uniform(0.1, 4.0)), float(rng.uniform(0.1, 4.0)), kappa)


def test_assembly_of_random_operators_equals_the_per_term_loop():
    """600 random operators of degree at most 2, with random phases and
    basis sizes 4 to 40 on each coordinate, give the per-term loop's bands
    bit for bit."""
    rng = np.random.default_rng(20290101)
    for index in range(600):
        op = PhasePolyOperator(random_operator(rng))
        frame = random_frame(rng)
        cfg = BasisConfig(int(rng.integers(4, 41)), int(rng.integers(4, 41)), frame)
        assert same_bands(assemble_matrix(op, cfg).matrix.bands, per_term_bands(op, cfg)), index


def band_group_cases():
    """(name, terms, basis sizes) that reach each band group at its edges:
    terms of degree one, which fill the odd off-centre bands; sides of 4
    functions, where the diagonals +-2 have 2 entries; the terms of the
    centre (0, 0), on Q, on r and constant, in several orders, with
    magnitudes from 1e-3 to 1e16, so that an entry's sum depends on its
    order; and a two-sided term whose coefficient has a zero or negative
    zero part, alone, first or between two others."""
    small = [(4, 4), (4, 9), (9, 4), (5, 6)]
    cases = [
        ("degree-one", {(1, 0, 0, 0): 1.5 - 0.25j, (0, 0, 0, 1): -0.75j, (0, 1, 0, 0): 2.0}, small),
        ("degree-one-and-two", {(0, 0, 1, 0): 0.5j, (2, 0, 0, 0): -1.25, (0, 1, 0, 0): 1.0}, small),
        ("side-of-4", dict.fromkeys(QUADRATIC_KEYS, 0.3 - 1.1j), small),
    ]
    centre = {
        "q1": ((2, 0, 0, 0), 1e16 + 3j),
        "r1": ((0, 1, 0, 1), 1.0 - 1e-3j),
        "q2": ((1, 0, 1, 0), -1e16 + 2.5j),
        "c": ((0, 0, 0, 0), 0.75 + 1e16j),
        "r2": ((0, 0, 0, 2), -2.0 + 1e-3j),
    }
    for order in itertools.permutations(centre):
        cases.append((f"centre-{'-'.join(order)}", dict(centre[key] for key in order), [(6, 7)]))
    for part in (complex(-0.0, 1.5), complex(0.0, -1.5), complex(-2.0, -0.0), complex(-0.0, 0.0)):
        two_sided = {(1, 1, 0, 0): part, (0, 0, 1, 1): -part, (1, 0, 0, 1): part}
        first = {(0, 1, 1, 0): part, (1, 0, 0, 0): 1.0, (1, 1, 0, 0): 0.5}
        between = {(1, 1, 0, 0): 0.5, (0, 1, 1, 0): part, (1, 0, 0, 1): -0.5}
        for name, terms in (("alone", two_sided), ("first", first), ("between", between)):
            cases.append((f"signed-zero-{name}-{part}", terms, small))
    return cases


@pytest.mark.parametrize("frame", [CoordinateFrame(1.0, 1.0), CoordinateFrame(0.7, 1.9, 0.4)])
def test_each_band_group_equals_the_per_term_loop(frame):
    """Every case of band_group_cases gives the per-term loop's bands bit
    for bit, in a frame without scales or phase, where each coefficient
    reaches the matrix as it is, and in one with both."""
    for name, terms, sizes in band_group_cases():
        op = PhasePolyOperator(terms)
        for n_q, n_r in sizes:
            cfg = BasisConfig(n_q, n_r, frame)
            got = assemble_matrix(op, cfg).matrix.bands
            assert same_bands(got, per_term_bands(op, cfg)), (name, n_q, n_r)


def cancelling_operator(rng, kappa):
    """Terms whose phase images cancel: the first term is minus the image
    u v r^2 of r dQ (u = -i kappa), so their sum leaves the result, and the
    dQ^2 term then adds r^2 back, after every other key; Q dr's image u
    cancels the constant term likewise."""
    u = -1j * kappa
    v, w, x = (random_coefficient(rng) for _ in range(3))
    return {
        (0, 2, 0, 0): -(v * u),
        (0, 0, 0, 0): -(x * u),
        (0, 1, 1, 0): v,
        (0, 0, 1, 1): x,
        (0, 0, 2, 0): w,
    }


def exact_in_order(op):
    """The terms in stored order, each value by its repr, so that term order
    and the sign of a zero part count."""
    return [(key, repr(val)) for key, val in op.terms.items()]


def test_phase_conjugation_equals_the_generic_route():
    """rescale_coordinates equals the operator products of the generic route
    on 2,400 random operators of degree at most 2, by repr and term order:
    zero and negative-zero parts, exact zero terms, products that underflow
    to zero, and terms that cancel and come back."""
    rng = np.random.default_rng(20290102)
    for index in range(2400):
        frame = random_frame(rng)
        terms = random_operator(rng)
        if index % 4 == 0 and frame.kappa:
            terms = {**cancelling_operator(rng, frame.kappa), **terms}
        op = PhasePolyOperator(terms)
        got, want = _rescale_coordinates(op, frame), generic_rescale(op, frame)
        assert exact_in_order(got) == exact_in_order(want), index


def test_cancelled_terms_leave_and_come_back_at_the_end():
    frame = CoordinateFrame(1.0, 1.0, 0.5)
    op = PhasePolyOperator(cancelling_operator(np.random.default_rng(7), frame.kappa))
    got = _rescale_coordinates(op, frame)
    assert list(got.terms)[-1] == (0, 2, 0, 0) and (0, 0, 0, 0) not in got.terms
    assert exact_in_order(got) == exact_in_order(generic_rescale(op, frame))


def similarity_by_products(src, state):
    """stationary_similarity's operator through the operator products: the
    Liouvillian conjugated by exp(phi), phi = -mu Q^2 - (w/4) r^2."""
    half = PhasePolyOperator({(2, 0, 0, 0): -state.mu, (0, 2, 0, 0): -0.25 * state.width_sum})
    return exponential_similarity(assemble_liouvillian(src), half)


def half_gaussian_cancelling_operator(rng, x, y):
    """Terms whose half-Gaussian images cancel: the constant term is minus
    the image w x of dQ^2 (x = 2 alpha), so their sum leaves the result, and
    dr^2's image z y (y = 2 gamma) then brings the constant term back, behind
    the keys added in between."""
    w, z = random_coefficient(rng), random_coefficient(rng)
    return {(0, 0, 0, 0): -(w * x), (0, 0, 2, 0): w, (0, 0, 0, 2): z}


def test_stationary_similarity_equals_the_operator_products():
    """stationary_similarity equals the operator products, by == and by repr
    in term order, on the presets and the 100 criterion-02 stationary
    states; the conjugation by exp(alpha Q^2 + gamma r^2) does on 2,000
    random operators, with zero, negative-zero and cancelling parts."""
    cases = [
        (name, src, stationary_preset(name, **DESK_PRESETS[name])[0]) for name, src in PRESETS.items()
    ]
    for index, src in enumerate(criterion_02_sources(100)):
        cases.append((f"c02-{index}", src, modes(src, 0)[0].gaussian))
    for name, src, state in cases:
        got, want = stationary_similarity(src, state)[0], similarity_by_products(src, state)
        assert got == want and exact_in_order(got) == exact_in_order(want), name
    rng = np.random.default_rng(20290103)
    for index in range(2000):
        alpha, gamma = (
            random_coefficient(rng) if rng.random() < 0.85 else rng.choice([0.0, -0.0])
            for _ in range(2)
        )
        terms = random_operator(rng)
        if index % 4 == 0:
            terms = {**half_gaussian_cancelling_operator(rng, 2 * alpha, 2 * gamma), **terms}
        op = PhasePolyOperator(terms)
        got = PhasePolyOperator._from_checked(_exp_conjugated(op.terms, alpha, 0, gamma))
        half = PhasePolyOperator({(2, 0, 0, 0): alpha, (0, 2, 0, 0): gamma})
        want = exponential_similarity(op, half)
        assert exact_in_order(got) == exact_in_order(want), index


def test_assemble_matrix_equals_fresh_kronecker_products():
    operators = oracle_operators()
    # the second pass at 24 reads the entries the first one left
    for n in (24, 40, 24):
        for name, op, frame in operators:
            cfg = BasisConfig(n, n, frame)
            got = assemble_matrix(op, cfg).matrix
            assert same_matrix(got, fresh_assemble(op, cfg)), (name, n)


def test_ladder_factor_equals_the_sparse_power_factor():
    """The closed-form diagonals of every factor a + c <= 2 on 4 to 80
    functions are those of the sparse product, byte for byte, and read-only;
    every other diagonal of the product is zero.  The stacked sides of a
    factor of degree p >= 1 are its diagonals -p and +p, and a second call
    returns the same ladder."""
    for n in range(4, 81):
        ladder = verify._ladder(n)
        assert verify._ladder(n) is ladder
        assert sorted(ladder.factors) == [(a, c) for a in range(3) for c in range(3 - a)]
        for (a, c), factor in ladder.factors.items():
            dense = fresh_factor(n, a, c).toarray()
            got = dict(factor)
            assert list(got) == sorted(got) and not any(d.flags.writeable for d in got.values())
            for s in range(-n + 1, n):
                if s in got:
                    assert same_bits(got[s], dense.diagonal(s)), (n, a, c, s)
                else:
                    assert not dense.diagonal(s).any(), (n, a, c, s)
            if a + c:
                sides = ladder.sides[a, c]
                assert not sides.flags.writeable
                want = np.array([dense.diagonal(-(a + c)), dense.diagonal(a + c)])
                assert same_bits(sides, want), (n, a, c)
        assert sorted(ladder.sides) == sorted(key for key in ladder.factors if key != (0, 0))


def test_ladder_outers_equal_fresh_outer_products():
    """Each cached stack of two-sided outer products, a + c = b + d = 1, on
    square and rectangular bases, holds the outer products of the fresh
    factors' diagonals, kept as complex: layer by layer in the shift order
    (-1, -1), (-1, 1), (1, -1), (1, 1) of the corner bands, each the
    fresh float product cast by numpy, its real part byte for byte the
    float product and its imaginary part +0.0 throughout; the stack is
    read-only, a second call returns it, and the second pass at 24x36
    reads what the first one left."""
    sides = [(1, 0), (0, 1)]
    for n_q, n_r in [(4, 4), (24, 36), (40, 40), (40, 28), (24, 36)]:
        for (a, c), (b, d) in [(q, r) for q in sides for r in sides]:
            dense_q, dense_r = fresh_factor(n_q, a, c).toarray(), fresh_factor(n_r, b, d).toarray()
            want = [
                (s, t, np.multiply.outer(dense_q.diagonal(s), dense_r.diagonal(t)))
                for s in range(1 - n_q, n_q)
                if dense_q.diagonal(s).any()
                for t in range(1 - n_r, n_r)
                if dense_r.diagonal(t).any()
            ]
            assert [(s, t) for s, t, _ in want] == [(-1, -1), (-1, 1), (1, -1), (1, 1)]
            got = verify._basis(n_q, n_r).outers(a, c, b, d)
            assert verify._basis(n_q, n_r).outers(a, c, b, d) is got
            assert got.shape == (4, n_q - 1, n_r - 1) and not got.flags.writeable
            for outer, (s, t, fresh) in zip(got, want):
                assert same_bits(outer, fresh.astype(complex)), (n_q, n_r, s, t)
                assert same_bits(outer.real.copy(), fresh), (n_q, n_r, s, t)
                assert same_bits(outer.imag.copy(), np.zeros_like(fresh)), (n_q, n_r, s, t)


def test_expanded_poly_equals_the_per_label_table():
    """Every mode m <= 8 of the presets, the CLI tests' generic config and
    criterion-02 sources 0-4 equals the monomial route, the triple sum's
    table times the powers of the transported multiplication pair, within
    1e-12 of its largest coefficient."""
    sources = {**PRESETS, "generic": GENERIC}
    sources.update({f"c02-{i}": src for i, src in enumerate(criterion_02_sources(5))})
    for name, src in sources.items():
        plan = reduce_to_kl(src, b_target=1.0)
        fs = [transformed_eigenfunction(plan, lab, src) for lab in distinct_labels(8)]
        power = route_powers(plan, fs[0].gaussian)
        for f in fs:
            ref = PhasePolyOperator(pi_route_terms(power, f.label))
            peak = max(map(abs, ref.terms.values()))
            assert f.expanded_poly.max_abs_diff(ref) <= 1e-12 * peak, (name, f.label)


@pytest.mark.parametrize("gid", GENERATOR_ORDER, ids=lambda g: g.name)
def test_conjugate_linear_equals_a_fresh_exponential(gid):
    """The flows are not cached but closed form; expm is their oracle.

    The closed form rounds differently, so the check is relative; 18.7 is
    about the largest boost a plan takes, artanh(1 - 2^-53).
    """
    basis = [linear_from_vector(e) for e in np.eye(4)]
    for param in (0.37, -0.37, 3.1, -3.1, 18.7, -18.7, 0.0, -0.0):
        fresh = expm(param * _adjoint_matrix_4(gid))
        got = np.array([linear_as_vector(conjugate_linear(gid, param, e)) for e in basis]).T
        assert np.max(np.abs(got - fresh)) <= 1e-14 * np.max(np.abs(fresh)), param


@pytest.mark.parametrize("gid", GENERATOR_ORDER, ids=lambda g: g.name)
def test_conjugate_linear_equals_the_4vector_form(gid):
    """One field at a time gives what the whole vector gives, at the
    parameters of the expm check above and at 1.28, where numpy's exp, cosh
    and sinh round differently from the math module's."""
    ops = [linear_from_vector(e) for e in np.eye(4)]
    ops.append(LinearPhaseOperator(0.3 - 1.2j, -0.7 + 0.1j, 2.5j, -1.9))
    for param in (0.37, -0.37, 3.1, -3.1, 18.7, -18.7, 0.0, -0.0, 1.28, -1.28):
        for op in ops:
            assert conjugate_linear(gid, param, op) == conjugate_linear_4vector(gid, param, op), (
                param,
                op,
            )


def test_conjugate_linear_equals_the_4vector_form_along_the_criterion_02_plans():
    """Each inverse step of the 100 plans, applied to the frame pair as
    transformed_eigenfunction applies it."""
    for index, src in enumerate(criterion_02_sources(100)):
        plan = reduce_to_kl(src, b_target=1.0)
        _, frame = stationary_preset("kl", b=plan.b)
        pair = (LinearPhaseOperator(q=1.0 / frame.s_q), LinearPhaseOperator(r=frame.s_r))
        for gid, p in reversed(plan.steps):
            moved = tuple(conjugate_linear(gid, -p, op) for op in pair)
            assert moved == tuple(conjugate_linear_4vector(gid, -p, op) for op in pair), (
                index,
                gid,
            )
            pair = moved


def test_expand_equals_the_word_on_fresh_ladder_matrices(monkeypatch):
    """Words of degree 0 to 45 on bases of 24 and 40 functions, cropped
    where the word is longer, give the bits that ladder matrices built anew
    give, and the cached matrices stay read-only."""
    src = SOURCES["c02-0"]
    plan = reduce_to_kl(src, b_target=1.0)
    labels = [EigenLabel(0, 0), EigenLabel(1, 1, -1), EigenLabel(2, 0), EigenLabel(23, 1, 1)]
    fs = [transformed_eigenfunction(plan, lab, src) for lab in labels]
    cfgs = [BasisConfig(n, n, fs[0].gaussian.frame()) for n in (24, 40, 24)]
    cached = [expand(f, cfg) for cfg in cfgs for f in fs]
    sizes = [2 * f.label.m - f.label.n + 1 for f in fs]
    assert not any(mat.flags.writeable for size in sizes for mat in verify._ladder(size).matrices)

    def fresh_ladder(n):
        off = np.sqrt(np.arange(1, n) / 2.0)
        x_mat, d_mat = np.diag(off, 1) + np.diag(off, -1), np.diag(off, 1) - np.diag(off, -1)
        return types.SimpleNamespace(matrices=(x_mat, d_mat))

    monkeypatch.setattr(verify, "_ladder", fresh_ladder)
    for got, want in zip(cached, [expand(f, cfg) for cfg in cfgs for f in fs]):
        assert same_bits(got, want)


def held_arrays(obj):
    """Every array an object holds, through its attributes and the tuples,
    lists and dicts among them."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, (tuple, list)):
        for item in obj:
            yield from held_arrays(item)
    elif isinstance(obj, dict):
        for item in obj.values():
            yield from held_arrays(item)
    elif hasattr(obj, "__dict__"):
        yield from held_arrays(vars(obj))


def test_the_pairing_and_window_index_caches_are_read_only():
    """The index arrays of the pairing, the window's gather and the banded
    product, and every other array held by the ladders, the bases and the
    layouts that assembly, expand, residual, `@`, the window, the pairing
    and an evolution used, walked whole, cannot be written through."""
    kl_modes = modes(PRESETS["kl"])
    frame = kl_modes[0].gaussian.frame()
    k_mat = assemble_matrix(assemble_liouvillian(PRESETS["kl"]), BasisConfig(12, 10, frame))
    verify.biorthogonality_check(k_mat, kl_modes)
    verify.eigenvalues_in_window(k_mat, 1.2)
    vecs = [verify.expand(mode, k_mat.config) for mode in kl_modes]
    for mode, vec in zip(kl_modes, vecs):
        verify.residual(k_mat, vec, mode.eigenvalue)
    k_mat.matrix @ vecs[-1]
    verify.evolve_series(k_mat, vecs[-1], [0.0, 0.1])
    shifts = k_mat.matrix._shifts
    objects = [verify._ladder(n) for n in (1, 2, 3, 4, 5, 10, 12)]
    objects += [verify._basis(12, 10), verify._layout(12, 10, shifts)]
    # the generator of the evolution, on the degrees <= 4 its start occupies
    objects += [verify._basis(5, 5), verify._layout(5, 5, shifts)]
    layout = objects[-3]
    assert {"columns", "_by_degree", "blocks"} <= vars(layout).keys()
    assert {"degree", "float_degrees"} <= vars(objects[-4]).keys() and objects[-4]._outers
    arrays = [arr for obj in objects for arr in held_arrays(obj)]
    assert len(arrays) > 100
    assert not [arr.shape for arr in arrays if arr.flags.writeable]


def fresh_keeping_gather(top, n_q, n_r, shifts):
    """The gather of _Layout.blocks entry by entry: for each band (s, -s) in
    turn and each block d < top in turn, its entries band[j, d - j] with
    0 <= j + s <= d, at row j, column j + s of block d, packed row-major
    after blocks 0 to d - 1, times i^(-s)."""
    source, dest, phase, far = [], [], [], []
    for index, (s, t) in enumerate(shifts):
        if s + t:
            continue
        for d in range(top):
            for j in range(d + 1):
                if 0 <= j + s <= d:
                    source.append(index * n_q * n_r + j * n_r + (d - j))
                    dest.append(sum(e * e for e in range(1, d + 1)) + j * (d + 1) + j + s)
                    phase.append(1j**t)
                    far.append(abs(s) > 1)
    return source, dest, phase, [i for i, wide in enumerate(far) if wide]


def fresh_certificate_reads(top, dest):
    """The positions, among the entries gathered to the packed positions
    dest, of packed[0:5] and of the tridiagonal entries of the blocks
    d < top: (j, j) of every block in turn, then (j, j + 1), then
    (j + 1, j); len(dest) for a position no entry is gathered to."""
    start = [sum(e * e for e in range(1, d + 1)) for d in range(top)]
    pairs = [(d, j) for d in range(top) for j in range(d + 1)]
    diag = [start[d] + j * (d + 1) + j for d, j in pairs]
    upper = [start[d] + j * (d + 1) + j + 1 for d, j in pairs if j < d]
    lower = [start[d] + (j + 1) * (d + 1) + j for d, j in pairs if j < d]

    def at(position):
        return dest.index(position) if position in dest else len(dest)

    return [at(p) for p in range(5)], [at(p) for p in diag + upper + lower]


def fresh_pairing_layout(n_q, n_r, top, shifts):
    """_Layout.pairing entry by entry: the functions (j, k), j + k <= top, in
    basis order, and for each band in turn each of them whose column
    (j + s, k + t) lies in the basis and on those degrees."""
    block = [(j, k) for j in range(n_q) for k in range(n_r) if j + k <= top]
    position = {jk: p for p, jk in enumerate(block)}
    source, dest = [], []
    for index, (s, t) in enumerate(shifts):
        for j, k in block:
            if (j + s, k + t) in position:
                source.append(index * n_q * n_r + j * n_r + k)
                dest.append(position[(j, k)] * len(block) + position[(j + s, k + t)])
    return [j for j, _ in block], [k for _, k in block], source, dest


STACK_SHIFTS = [
    ((-1, -1), (-1, 1), (0, -2), (0, 0), (0, 2), (1, -1), (1, 1)),
    ((-2, 2), (-1, 0), (0, 0), (1, -1), (2, -2)),
    ((0, 0),),
    (),
]


@pytest.mark.parametrize("shifts", STACK_SHIFTS, ids=["quadratic", "wide", "diagonal", "none"])
def test_the_window_and_pairing_gathers_equal_building_them_afresh(shifts):
    """The cached gathers of the degree blocks and of the pairing's leading
    block, on square and rectangular bases, hold the entries their
    definitions give, in order, phases included; the certificate's reads of
    blocks 0 and 1 and of the tridiagonal entries point at the gathered
    entries those positions hold, or past the last; and a second call
    returns the cached arrays, the pairing's for the last degree asked."""
    for n_q, n_r in [(4, 4), (12, 10), (7, 9), (24, 24)]:
        top = min(n_q, n_r)
        layout = verify._layout(n_q, n_r, shifts)
        assert verify._layout(n_q, n_r, shifts) is layout
        got = layout.blocks
        assert layout.blocks is got
        gather = (got.source, got.dest, got.phase, got.far)
        for arr, want in zip(gather, fresh_keeping_gather(top, n_q, n_r, shifts), strict=True):
            assert arr.tolist() == want, (n_q, n_r)
        assert got.phase.dtype == complex
        reads = fresh_certificate_reads(top, got.dest.tolist())
        for arr, want in zip((got.head_at, got.tri_at), reads, strict=True):
            assert arr.tolist() == want, (n_q, n_r)
        for degrees in (0, 2, 4, n_q + n_r):
            got = layout.pairing(degrees)
            assert layout.pairing(degrees) is got
            for arr, want in zip(got, fresh_pairing_layout(n_q, n_r, degrees, shifts), strict=True):
                assert arr.tolist() == want, (n_q, n_r, degrees)


@pytest.mark.parametrize("shifts", STACK_SHIFTS, ids=["quadratic", "wide", "diagonal", "none"])
def test_the_product_rows_and_the_basis_degrees_equal_building_them_afresh(shifts):
    """The basis's degrees, and the product's columns of every row and
    rows of each bound, on square and rectangular bases, equal their
    definitions: each column (j + s) n_r + k + t, n_q n_r where it leaves
    the basis; and the rows of degree <= bound, in order of degree and then
    of basis index, with their columns, views of the rows sorted once."""
    for n_q, n_r in [(4, 4), (12, 10), (7, 9), (24, 24)]:
        basis = verify._basis(n_q, n_r)
        assert verify._basis(n_q, n_r) is basis and basis.degree is basis.degree
        cells = [(a, b) for a in range(n_q) for b in range(n_r)]
        assert basis.degree.tolist() == [a + b for a, b in cells]
        assert basis.float_degrees.tolist() == [a + b for a, b in cells for _ in range(2)]
        layout = verify._layout(n_q, n_r, shifts)
        order, by_degree, _ = layout._by_degree
        assert by_degree.flags.c_contiguous
        every = [
            [
                (a + s) * n_r + b + t if 0 <= a + s < n_q and 0 <= b + t < n_r else n_q * n_r
                for a, b in cells
            ]
            for s, t in shifts
        ]
        assert layout.columns.reshape(len(shifts), n_q * n_r).tolist() == every
        for bound in range(n_q + n_r + 1):
            rows, columns = layout.rows(bound)
            assert rows.base is order and columns.base is by_degree
            low = [p for p in range(n_q * n_r) if sum(cells[p]) <= bound]
            assert rows.tolist() == sorted(low, key=lambda p: sum(cells[p])), bound
            want = [[band[p] for p in rows] for band in every]
            assert columns.reshape(len(shifts), rows.size).tolist() == want, bound


def test_more_keys_than_each_cache_keeps_rebuild_the_same_bits():
    """Assembly, expand, residual, the window and the pairing on more basis
    sizes than any of the three caches keeps evict the first size's
    ladder, basis and layout; running it again rebuilds them, with the
    same bits."""
    kl_modes = modes(PRESETS["kl"])
    frame = kl_modes[0].gaussian.frame()
    op = assemble_liouvillian(PRESETS["kl"])

    def run(n):
        k_mat = assemble_matrix(op, BasisConfig(n, n, frame))
        vecs = [expand(mode, k_mat.config) for mode in kl_modes]
        res = [verify.residual(k_mat, v, mode.eigenvalue) for mode, v in zip(kl_modes, vecs)]
        window = verify.eigenvalues_in_window(k_mat, 1.2)
        gram = verify.biorthogonality_check(k_mat, kl_modes).gram
        arrays = [k_mat.matrix._stack, *vecs, np.array(res), window, gram]
        return [arr.tobytes() for arr in arrays]

    caches = (verify._ladder, verify._basis, verify._layout)
    sizes = range(8, 8 + max(verify._LADDER_SIZES, verify._BASES, verify._LAYOUTS) + 1)
    first = run(sizes[0])
    for n in sizes[1:]:
        run(n)
    misses = [cache.cache_info().misses for cache in caches]
    assert run(sizes[0]) == first
    after = [cache.cache_info().misses for cache in caches]
    assert all(new > old for new, old in zip(after, misses)), (misses, after)


def test_scaling_returned_results_in_place_leaves_later_calls_unchanged():
    fs = modes(SOURCES["c02-0"])
    cfg = BasisConfig(24, 24, fs[0].gaussian.frame())
    for op in (assemble_liouvillian(SOURCES["c02-0"]), PhasePolyOperator.identity()):
        first = assemble_matrix(op, cfg).matrix
        reference = {key: band.copy() for key, band in first.bands.items()}
        for band in first.bands.values():
            band *= 3.0
        assert same_bands(assemble_matrix(op, cfg).matrix.bands, reference)

    vec = expand(fs[1], cfg)
    reference = vec.copy()
    vec *= 3.0
    assert same_bits(expand(fs[1], cfg), reference)
    # another mode of the plan reads the same cached ladder matrices
    assert same_bits(expand(fs[2], cfg), expand(modes(SOURCES["c02-0"])[2], cfg))

    terms = fs[3].expanded_poly.terms
    terms[(0, 0, 0, 0)] = 123.0
    again = modes(SOURCES["c02-0"])[3]
    assert exact(fs[3].expanded_poly.terms) == exact(again.expanded_poly.terms)


def per_label_transport(plan, label, lam):
    """The mode as a transport per label builds it: the normal form's pair
    and Gaussian carried through the inverse steps anew."""
    inverse = [(gid, -p) for gid, p in reversed(plan.steps)]
    state, frame = stationary_preset("kl", b=plan.b)
    pair = (
        LinearPhaseOperator(r=frame.s_r, dq=frame.s_r),
        LinearPhaseOperator(r=frame.s_r, dq=-frame.s_r),
    )
    for gid, p in inverse:
        pair = tuple(conjugate_linear(gid, p, op) for op in pair)
    return AppliedEigenfunction(label, lam, pair, apply_plan_gaussian(inverse, state))


def test_modes_of_one_plan_equal_a_per_label_transport():
    """The plan's pair, transported once, gives every label the bits a
    transport per label gives: pair fields, Gaussian and multiplier."""
    sources = {**PRESETS, **{f"c02-{i}": src for i, src in enumerate(criterion_02_sources(100))}}
    for name, src in sources.items():
        plan = reduce_to_kl(src, b_target=1.0)
        for lab in distinct_labels(2):
            got = transformed_eigenfunction(plan, lab, src)
            ref = per_label_transport(plan, lab, got.eigenvalue)
            assert got.raising is plan.raising_pair, (name, lab)
            assert [repr(op) for op in got.raising] == [repr(op) for op in ref.raising], (name, lab)
            assert repr(got.gaussian) == repr(ref.gaussian), (name, lab)
            assert exact(got.expanded_poly.terms) == exact(ref.expanded_poly.terms), (name, lab)


def test_flow_results_equal_the_public_constructors_along_the_criterion_02_plans():
    """Each step's coefficients (the replay) and each inverse step's
    Gaussian (the transport) equal, by == and repr, the public
    constructors applied to their fields, which are floats; the plan's
    normal-form Gaussian is stationary_preset's and, like its inverse
    steps, is built once."""
    for index, src in enumerate(criterion_02_sources(100)):
        plan = reduce_to_kl(src, b_target=1.0)
        c = src
        for gid, p in plan.steps:
            c = conjugate_coefficients(gid, p, c)
            public = LiouvillianCoeffs(c.h, c.gamma, c.g)
            assert c == public and repr(c) == repr(public), (index, gid)
            assert all(type(x) is float for x in (*c.h, c.gamma, *c.g)), (index, gid)
        state = plan._normal_state
        assert plan._normal_state is state
        assert repr(state) == repr(stationary_preset("kl", b=plan.b)[0]), index
        inverse = plan.inverse_steps
        assert plan.inverse_steps is inverse
        assert inverse == tuple((gid, -p) for gid, p in reversed(plan.steps)), index
        for gid, p in inverse:
            state = transform_gaussian(gid, p, state)
            public = GaussianState(state.mu, state.kappa, state.nu)
            assert state == public and repr(state) == repr(public), (index, gid)
            assert all(type(x) is float for x in (state.mu, state.kappa, state.nu)), (index, gid)


def counting(monkeypatch, owner, name):
    """Replace owner.name by a wrapper that counts its calls."""
    calls = []
    original = getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


def test_one_pair_transport_per_plan_and_no_replay_for_its_source(monkeypatch):
    for src in (PRESETS["cl"], *criterion_02_sources(5)):
        plan = reduce_to_kl(src, b_target=1.0)
        assert plan.steps and plan.checked_source is src
        linear = counting(monkeypatch, reduction, "conjugate_linear")
        replays = counting(monkeypatch, ReductionPlan, "check_replay")
        for _ in range(2):
            for lab in distinct_labels(2):
                transformed_eigenfunction(plan, lab, src)
        assert len(linear) == 2 * len(plan.steps)
        assert replays == []
        monkeypatch.undo()


def test_the_plan_keeps_the_replay_it_checked(monkeypatch):
    """replay_residual of the plan's checked_source returns the residual
    that reduce_to_kl's check computed, with no conjugate_coefficients call;
    an equal copy of the source and a replaced plan replay, to the same
    float."""
    for src in (PRESETS["cl"], *criterion_02_sources(5)):
        plan = reduce_to_kl(src, b_target=1.0)
        steps = counting(monkeypatch, reduction, "conjugate_coefficients")
        kept = plan.replay_residual(src)
        assert steps == []
        copy = LiouvillianCoeffs(src.h, src.gamma, src.g)
        for used, source in ((plan, copy), (replace(plan), src)):
            steps.clear()
            assert used.replay_residual(source) == kept
            assert len(steps) == len(plan.steps) > 0
        assert kept == plan.replay(src).max_abs_diff(plan.target)
        monkeypatch.undo()


def test_plans_without_a_checked_source_replay_on_every_call(monkeypatch):
    """A hand-built plan, an equal copy of the source and a replaced plan
    run the replay check on each call, and it passes."""
    src = criterion_02_sources(1)[0]
    plan = reduce_to_kl(src, b_target=1.0)
    by_hand = ReductionPlan(plan.steps, plan.omega0, plan.b, plan.target)
    assert by_hand == plan and by_hand.checked_source is None
    assert replace(plan).checked_source is None
    copy = LiouvillianCoeffs(src.h, src.gamma, src.g)
    replays = counting(monkeypatch, ReductionPlan, "check_replay")
    for used, source in ((by_hand, src), (plan, copy), (replace(plan), src)):
        replays.clear()
        for lab in distinct_labels(2):
            transformed_eigenfunction(used, lab, source)
        assert len(replays) == 9


def test_one_pair_certificate_per_plan_for_its_source(monkeypatch):
    """[K, B1] = lambda_1 B1 runs once for the plan's checked_source over
    two rounds of the 9 labels; a hand-built plan, an equal copy of the
    source and a replaced plan run it on each of the 9 calls.  The record
    takes no part in the plan's equality or repr."""
    for src in (PRESETS["cl"], *criterion_02_sources(5)):
        plan = reduce_to_kl(src, b_target=1.0)
        by_hand = ReductionPlan(plan.steps, plan.omega0, plan.b, plan.target)
        certificates = counting(monkeypatch, ReductionPlan, "_certify_pair")
        for _ in range(2):
            for lab in distinct_labels(2):
                transformed_eigenfunction(plan, lab, src)
        assert len(certificates) == 1
        assert plan == by_hand and repr(plan) == repr(by_hand)
        copy = LiouvillianCoeffs(src.h, src.gamma, src.g)
        for used, source in ((by_hand, src), (plan, copy), (replace(plan), src)):
            certificates.clear()
            for lab in distinct_labels(2):
                transformed_eigenfunction(used, lab, source)
            assert len(certificates) == 9
        monkeypatch.undo()


def chained_transform(steps, state):
    """apply_plan_gaussian as a chain of transform_gaussian calls, a state
    per step, each error prefixed with its step."""
    for idx, (gid, param) in enumerate(steps):
        try:
            state = transform_gaussian(gid, param, state)
        except (PositivityViolation, DegenerateDenominator) as exc:
            raise type(exc)(f"step {idx} ({gid.name}, {param}): {exc}") from exc
    return state


def transport_outcome(transport, plan):
    """repr of the plan's transported Gaussian, or the type and message of its error."""
    try:
        return repr(transport(plan.inverse_steps, plan._normal_state))
    except KLFormError as exc:
        return type(exc), str(exc)


def test_plan_gaussian_on_floats_equals_the_transform_chain():
    """The 100 criterion-02 plans and 3,000 draws of their recipe at seed
    630948696, by repr, errors included; an empty plan returns its state."""
    rng = np.random.default_rng(630948696)
    sources = criterion_02_sources(100) + [random_scrambled_source(rng) for _ in range(3000)]
    for index, src in enumerate(sources):
        plan = reduce_to_kl(src, b_target=1.0)
        got = transport_outcome(apply_plan_gaussian, plan)
        assert got == transport_outcome(chained_transform, plan), index
    state = GaussianState(0.3, 0.1, 0.4)
    assert apply_plan_gaussian([], state) is state


def test_plan_gaussian_on_floats_equals_the_transform_chain_at_the_edges():
    """Sources at the edges of the domain: the same state, or the same
    error type and message."""
    hyp = pytest.importorskip("hypothesis")

    @hyp.settings(max_examples=300)
    @hyp.given(*edge_domain(hyp.strategies))
    def check(c, b_target):
        try:
            plan = reduce_to_kl(c, b_target=b_target)
        except KLFormError:
            return
        got = transport_outcome(apply_plan_gaussian, plan)
        assert got == transport_outcome(chained_transform, plan)

    check()


def test_a_plan_used_with_another_source_raises_on_every_call():
    """The plan of source A with B (A's g perturbed), and a hand-built plan
    whose target is wrong, fail the replay check on every call, before
    and after each plan has transported its pair."""
    for index, src in enumerate(criterion_02_sources(5)):
        plan = reduce_to_kl(src, b_target=1.0)
        other = LiouvillianCoeffs(src.h, src.gamma, (src.g[0] + 1e-3, *src.g[1:]))
        wrong = kl_coefficients(plan.omega0, src.gamma, 1.5)
        by_hand = ReductionPlan(plan.steps, plan.omega0, plan.b, wrong)
        for _ in range(2):
            for used, source in ((plan, other), (by_hand, src)):
                for lab in distinct_labels(2):
                    with pytest.raises(IllConditionedReduction, match="does not reduce") as err:
                        transformed_eigenfunction(used, lab, source)
                    assert err.value.residual == used.replay_residual(source), index
            # the second round runs with both pairs transported
            plan.raising_pair, by_hand.raising_pair
