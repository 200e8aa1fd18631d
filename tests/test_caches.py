"""The oracle layers reuse per-basis, per-label and per-plan work.

A cached step must give the same bits as building it afresh, and no caller
may reach a cached array: the references below rebuild every piece from
scratch, and the in-place tests scale what a call returns before calling
again.  A mode's multiplier, built once per mode, is held against the
monomial route it replaced, whose arithmetic differs, within 1e-12.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import expm

from klform import (
    GENERATOR_ORDER,
    AppliedEigenfunction,
    BasisConfig,
    EigenLabel,
    IllConditionedReduction,
    LinearPhaseOperator,
    LiouvillianCoeffs,
    PhasePolyOperator,
    ReductionPlan,
    apply_plan_gaussian,
    assemble_liouvillian,
    assemble_matrix,
    cl_coefficients,
    conjugate_linear,
    distinct_labels,
    expand,
    hpz_coefficients,
    kl_coefficients,
    ladder_matrices,
    pi_polynomial,
    reduce_to_kl,
    rescale_coordinates,
    stationary_preset,
    stationary_similarity,
    transformed_eigenfunction,
)
from klform import reduction, verify
from klform.cli import DESK_PRESETS

from adjoint_oracle import _adjoint_matrix_4, conjugate_linear_4vector
from pi_oracle import pi_route_terms
from test_acceptance import random_scrambled_source
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


def fresh_assemble(op, cfg):
    """The operator's matrix as scipy builds it: a sum of Kronecker products
    of sparse ladder-matrix powers, every one made anew.  Each 1-D factor
    is multiplied on n + a + c functions and cropped to n x n, so that it
    is the operator's exact restriction."""
    scaled = rescale_coordinates(op, cfg.frame)

    def factor(n, a, c):
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

    total = sp.csr_matrix((cfg.dim, cfg.dim), dtype=complex)
    for (a, b, c, d), coeff in scaled.terms.items():
        total = total + coeff * sp.kron(factor(cfg.n_q, a, c), factor(cfg.n_r, b, d), format="csr")
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
    scaled by its coefficient, added in place in term order."""
    scaled = rescale_coordinates(op, cfg.frame)
    n_q, n_r = cfg.n_q, cfg.n_r
    bands = {}
    for (a, b, c, d), coeff in scaled.terms.items():
        for s, diag_q in verify._ladder_factor(n_q, a, c):
            for t, diag_r in verify._ladder_factor(n_r, b, d):
                band = bands.setdefault((s, t), np.zeros((n_q, n_r), dtype=complex))
                band[verify._span(n_q, s), verify._span(n_r, t)] += coeff * np.multiply.outer(
                    diag_q, diag_r
                )
    return bands


def test_stacked_band_sums_equal_the_per_term_loop():
    """The presets at 24, 32 and 40 and their stationary similarities, and
    the 100 criterion-02 sources at 40: every band, signed zeros included."""
    cases = [(name, op, frame, (24, 32, 40)) for name, op, frame in oracle_operators()]
    for index, src in enumerate(criterion_02_sources(100)):
        frame = modes(src, 0)[0].gaussian.frame()
        cases.append((f"c02-{index}", assemble_liouvillian(src), frame, (40,)))
    for name, op, frame, sizes in cases:
        for n in sizes:
            cfg = BasisConfig(n, n, frame)
            assert same_bands(assemble_matrix(op, cfg).matrix.bands, per_term_bands(op, cfg)), (
                name,
                n,
            )


def test_assemble_matrix_equals_fresh_kronecker_products():
    operators = oracle_operators()
    # the second pass at 24 reads the entries the first one left
    for n in (24, 40, 24):
        for name, op, frame in operators:
            cfg = BasisConfig(n, n, frame)
            got = assemble_matrix(op, cfg).matrix
            assert same_matrix(got, fresh_assemble(op, cfg)), (name, n)


def test_expanded_poly_equals_the_per_label_table():
    """Every mode m <= 8 of the presets, the CLI tests' generic config and
    criterion-02 sources 0-4 equals the monomial route, pi_polynomial's
    table times the powers of the transported multiplication pair, within
    1e-12 of its largest coefficient."""
    sources = {**PRESETS, "generic": GENERIC}
    sources.update({f"c02-{i}": src for i, src in enumerate(criterion_02_sources(5))})
    for name, src in sources.items():
        plan = reduce_to_kl(src, b_target=1.0)
        for lab in distinct_labels(8):
            f = transformed_eigenfunction(plan, lab, src)
            ref = PhasePolyOperator(pi_route_terms(plan, f))
            peak = max(map(abs, ref.terms.values()))
            assert f.expanded_poly.max_abs_diff(ref) <= 1e-12 * peak, (name, lab)


@pytest.mark.parametrize("gid", GENERATOR_ORDER, ids=lambda g: g.name)
def test_conjugate_linear_equals_a_fresh_exponential(gid):
    """The flows are not cached but closed form; expm is their oracle.

    The closed form rounds differently, so the check is relative; 18.7 is
    about the largest boost a plan takes, artanh(1 - 2^-53).
    """
    basis = [LinearPhaseOperator.from_vector(e) for e in np.eye(4)]
    for param in (0.37, -0.37, 3.1, -3.1, 18.7, -18.7, 0.0, -0.0):
        fresh = expm(param * _adjoint_matrix_4(gid))
        got = np.array([conjugate_linear(gid, param, e).as_vector() for e in basis]).T
        assert np.max(np.abs(got - fresh)) <= 1e-14 * np.max(np.abs(fresh)), param


@pytest.mark.parametrize("gid", GENERATOR_ORDER, ids=lambda g: g.name)
def test_conjugate_linear_equals_the_4vector_form(gid):
    """One field at a time gives what the whole vector gives, at the
    parameters of the expm check above and at 1.28, where numpy's exp, cosh
    and sinh round differently from the math module's."""
    ops = [LinearPhaseOperator.from_vector(e) for e in np.eye(4)]
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
    assert not any(mat.flags.writeable for size in sizes for mat in ladder_matrices(size))

    def fresh_ladder_matrices(n):
        off = np.sqrt(np.arange(1, n) / 2.0)
        return np.diag(off, 1) + np.diag(off, -1), np.diag(off, 1) - np.diag(off, -1)

    monkeypatch.setattr(verify, "ladder_matrices", fresh_ladder_matrices)
    for got, want in zip(cached, [expand(f, cfg) for cfg in cfgs for f in fs]):
        assert same_bits(got, want)


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


def test_plans_share_one_eigenpolynomial_per_label_but_not_its_terms():
    """eigfun publishes pi_polynomial(label), cached per label across plans."""
    f, g = (modes(src)[4] for src in (SOURCES["cl"], SOURCES["c02-1"]))
    assert f.label == g.label
    assert pi_polynomial(f.label) is pi_polynomial(g.label)
    pi_polynomial(f.label).terms.clear()
    assert pi_polynomial(g.label).terms


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
