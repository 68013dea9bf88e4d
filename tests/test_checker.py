import random
from fractions import Fraction

import pytest

import kernel_reference as ref
from geodesy import sampling
from geodesy.algebra import SuPQShape, cartan_decompose
from geodesy.candidates import diagonal_candidate, embedding_with_rank, lift_classification, standard_trivial_candidate
from geodesy.checker import (
    EmbeddingCandidate,
    check_conditions,
    equivariance_test,
    h_weight_analysis,
    violated_brackets,
    weight_operator,
)
from geodesy.gaussmat import GaussMatrix, I, NonIntegerSpectrum
from geodesy.ladder import classify_weight_data
from geodesy.weights import WeightData, enumerate_weight_data
from weights_reference import is_admissible


def identity_candidate() -> EmbeddingCandidate:
    # su(1,1) itself: its basis u, v, w is the rank-1 standard embedding
    return embedding_with_rank(1, 1)


def test_candidate_validation_rejects_non_members():
    with pytest.raises(ValueError):
        EmbeddingCandidate(
            SuPQShape(1),
            f_u=GaussMatrix.diagonal([1, -1]),
            f_v=GaussMatrix.zeros(2, 2),
            f_w=GaussMatrix.zeros(2, 2),
        )


def test_identity_candidate_passes_everything():
    report = check_conditions(identity_candidate())
    assert report.is_homomorphism and report.satisfies_c1 and report.satisfies_c3
    assert report.injective and report.totally_geodesic
    assert report.h_spectrum == WeightData({1: 1}, {-1: 1})


def test_diagonal_candidate_p2():
    candidate = diagonal_candidate(2)
    assert not violated_brackets(candidate)
    report = check_conditions(candidate)
    assert report.passed and report.totally_geodesic
    assert report.fc_u.is_zero() and report.fc_v.is_zero()
    assert report.h_spectrum == WeightData({1: 2}, {-1: 2})
    assert equivariance_test(candidate, report)


def test_standard_trivial_candidate_p2():
    candidate = standard_trivial_candidate(2)
    report = check_conditions(candidate)
    assert report.passed and report.totally_geodesic
    assert report.h_spectrum == WeightData({1: 1, 0: 1}, {-1: 1, 0: 1})


def test_rank_zero_candidate_is_not_injective():
    candidate = embedding_with_rank(2, 0)
    report = check_conditions(candidate)
    assert report.passed and report.totally_geodesic
    assert not report.injective


def built_homomorphisms():
    """Every homomorphism these tests build: the padded standard embeddings,
    the lifted feasible tables of rank at most 3, and each of these (and a
    conjugated one) scaled by 0 and 1, the only scalars that keep a nonzero
    homomorphism one."""
    built = [embedding_with_rank(p, m) for p in range(1, 5) for m in range(p + 1)]
    for p in range(1, 4):
        results = (classify_weight_data(wd) for wd in enumerate_weight_data(p))
        built += [lift_classification(r) for r in results if r.status == "feasible"]
    scaled = []
    for c in [*built, conjugated_identity_candidate()]:
        for scale in (0, 1, 2, -1, Fraction(1, 2)):
            triple = EmbeddingCandidate(c.shape, c.f_u * scale, c.f_v * scale, c.f_w * scale)
            assert (not violated_brackets(triple)) == (scale in (0, 1) or c.f_w.is_zero())
            scaled.append(triple)
    return [c for c in scaled if not violated_brackets(c)]


def test_a_homomorphism_is_injective_iff_the_image_of_w_is_nonzero():
    # su(1,1) is simple, so its image has real dimension 0 or 3
    homomorphisms = built_homomorphisms()
    assert sum(c.f_w.is_zero() for c in homomorphisms) > 0
    for c in homomorphisms:
        rank = ref.rational_rank(ref.realify([c.f_u, c.f_v, c.f_w]))
        assert rank in (0, 3)
        assert check_conditions(c).injective == (rank == 3) == (not c.f_w.is_zero())


def test_perturbed_candidate_fails_brackets():
    candidate = diagonal_candidate(2)
    rows = [list(candidate.f_u.row(i)) for i in range(4)]
    # bump one off-diagonal entry and its adjoint mirror, staying inside su(2,2)
    rows[0][2] = rows[0][2] + 1
    rows[2][0] = rows[2][0] + 1
    perturbed = EmbeddingCandidate(
        candidate.shape,
        f_u=GaussMatrix(rows),
        f_v=candidate.f_v,
        f_w=candidate.f_w,
    )
    assert "[w,u]=2v" in violated_brackets(perturbed)
    report = check_conditions(perturbed)
    assert not report.is_homomorphism
    assert any("bracket" in f for f in report.failures)
    assert report.fc_u is None  # report short-circuits


def conjugated_identity_candidate() -> EmbeddingCandidate:
    # conjugation by a hyperbolic rotation of su(1,1): still a homomorphism,
    # but the image of w leaves the block-diagonal subalgebra
    basis = identity_candidate()
    g = GaussMatrix([[Fraction(5, 4), Fraction(3, 4)], [Fraction(3, 4), Fraction(5, 4)]])
    g_inv = g.inverse()
    return EmbeddingCandidate(
        SuPQShape(1),
        f_u=g @ basis.f_u @ g_inv,
        f_v=g @ basis.f_v @ g_inv,
        f_w=g @ basis.f_w @ g_inv,
    )


def test_conjugated_candidate_is_homomorphism_but_fails_condition_1():
    candidate = conjugated_identity_candidate()
    assert not violated_brackets(candidate)
    report = check_conditions(candidate)
    assert report.is_homomorphism
    assert not report.satisfies_c1
    assert not report.passed and not report.totally_geodesic


def test_antiholomorphic_twist_fails_condition_3():
    # u -> u, v -> -v, w -> -w is an automorphism of su(1,1) that reverses
    # the complex structure; it must pass (1) and fail (3)
    basis = identity_candidate()
    candidate = EmbeddingCandidate(
        SuPQShape(1), f_u=basis.f_u, f_v=-basis.f_v, f_w=-basis.f_w
    )
    assert not violated_brackets(candidate)
    report = check_conditions(candidate)
    assert report.satisfies_c1
    assert not report.satisfies_c3
    assert not report.passed


def test_rank_deficient_block_needs_matching_f_w():
    # with Z = diag(1, 0) the brackets close only if the image of w matches
    # the same projection; the full-rank w-image breaks the table
    partial = standard_trivial_candidate(2)
    full_w = diagonal_candidate(2)
    mismatched = EmbeddingCandidate(
        SuPQShape(2), f_u=partial.f_u, f_v=partial.f_v, f_w=full_w.f_w
    )
    assert violated_brackets(mismatched)
    assert not violated_brackets(partial)


def test_components_reconstruct_images():
    for candidate in (identity_candidate(), diagonal_candidate(2), standard_trivial_candidate(3)):
        report = check_conditions(candidate)
        assert report.fc_u + report.fp_u == candidate.f_u
        assert report.fc_v + report.fp_v == candidate.f_v


def test_equivariance_rejects_forged_report():
    candidate = diagonal_candidate(2)
    report = check_conditions(candidate)
    assert equivariance_test(candidate, report)
    report.fc_v = report.fp_v  # tamper: swap in a wrong component
    assert not equivariance_test(candidate, report)


def test_totally_geodesic_iff_raising_diagonal_blocks_vanish():
    # with X = (F(u) - i F(v)) / 2, vanishing of both block-diagonal parts of
    # the images is equivalent to vanishing of the diagonal blocks of X
    rng = random.Random(31)
    half = Fraction(1, 2)
    for i in range(60):
        shape = SuPQShape(1 + i % 3)
        p = shape.p
        if i % 2:
            f_u, f_v = sampling.su_pp(rng, shape), sampling.su_pp(rng, shape)
        else:
            f_u, f_v = sampling.p_part(rng, shape), sampling.p_part(rng, shape)
        x = (f_u - f_v * I) * half
        x_diag_zero = (
            x.submatrix(0, p, 0, p).is_zero() and x.submatrix(p, 2 * p, p, 2 * p).is_zero()
        )
        fc_zero = (
            cartan_decompose(f_u, shape).k_part.is_zero()
            and cartan_decompose(f_v, shape).k_part.is_zero()
        )
        assert x_diag_zero == fc_zero


def test_accepted_spectra_are_ladder_complete():
    for candidate in (identity_candidate(), diagonal_candidate(3), standard_trivial_candidate(2)):
        spectrum = check_conditions(candidate).h_spectrum
        assert is_admissible(spectrum)


def test_weight_operator_and_analysis():
    candidate = standard_trivial_candidate(2)
    h = weight_operator(candidate)
    assert h == GaussMatrix.diagonal([1, 0, -1, 0])
    assert h_weight_analysis(candidate) == WeightData({1: 1, 0: 1}, {-1: 1, 0: 1})


def test_weight_analysis_rejects_non_integer_spectrum():
    from geodesy.gaussmat import GaussRational

    half_i = GaussRational(0, Fraction(1, 2))
    candidate = EmbeddingCandidate(
        SuPQShape(1),
        f_u=GaussMatrix.zeros(2, 2),
        f_v=GaussMatrix.zeros(2, 2),
        f_w=GaussMatrix.diagonal([half_i, -half_i]),
    )
    with pytest.raises(NonIntegerSpectrum):
        h_weight_analysis(candidate)
