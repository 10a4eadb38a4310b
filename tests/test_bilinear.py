"""Bilinear form tests: Gram matrices, evaluation, radicals, the
Gram dependence criterion, and the two symmetry scans."""

import random

import pytest

from supertropical import (
    Mat,
    evaluate,
    gram_dependence,
    is_dependent,
    is_g_orthogonal,
    is_nonsingular,
    is_orthogonal_symmetric,
    is_supertropically_symmetric,
    isotropy,
    orthogonal_complement_pred,
    permanent,
    radical_and_nondegenerate,
    spans,
)
from supertropical import bilinear, matrices, span
from supertropical.bilinear import (
    GramForm,
    SymmetryVerdict,
    _candidate_args,
    gram_of_dot,
    gram_of_form,
)
from supertropical.exceptions import (
    DegenerateSpaceError,
    InvalidInputError,
    ShapeError,
)

from helpers import (
    G,
    T,
    grid_radical_witness_reference,
    mat,
    rand_mat,
    rand_scalar,
    rand_tangible_vec,
    rand_vec,
    seeded,
    vec,
)

# Shared fixtures.  V1..V3 are tropically dependent, V2..V4 are not.
V1 = vec("5 5 0")
V2 = vec("5 5 4")
V3 = vec("0 1 4")
V4 = vec("0 2 4")

DOT3 = GramForm(Mat.identity(3))

# A tangible ambient form whose Gram on {V2, V3, V4} has a tangible
# permanent.  Random symmetric choices almost always tie into ghosts
# on this family, so the asymmetry here is load bearing.
AMBIENT = GramForm(mat("3 7 7\n-8 9 -7\n7 -7 4"))


class TestGramConstruction:
    def test_dot_on_standard_base_is_identity(self):
        E = Mat.identity(3).row_list()
        assert gram_of_dot(E).G == Mat.identity(3)

    def test_gram_form_rejects_a_non_mat(self):
        with pytest.raises(TypeError, match="expected a Mat, got list"):
            GramForm([[1]])
        with pytest.raises(TypeError, match="expected a Mat, got Vec"):
            GramForm(vec("1 2"))

    def test_gram_form_must_be_square(self):
        with pytest.raises(ShapeError, match="Gram matrix must be square"):
            GramForm(mat("1 2"))

    def test_dot_on_dependent_triple(self):
        gram = gram_of_dot([V1, V2, V3]).G
        assert gram == mat("10v 10v 6\n10v 10v 8\n6 8 8")

    def test_single_vector(self):
        F = gram_of_dot([vec("2 -1")])
        assert F.G == mat("4") and F.arity == 1

    def test_gram_of_form_matches_dot_for_identity(self):
        W = [V1, V2, V3]
        assert gram_of_form(DOT3, W).G == gram_of_dot(W).G

    def test_gram_of_ambient_form(self):
        F = gram_of_form(AMBIENT, [V2, V3, V4])
        assert AMBIENT.arity == F.arity == 3
        assert F.G == mat("19 16 16v\n16 12 12v\n16v 12v 13")
        assert permanent(F.G) == T(45)

    def test_entries_are_pairwise_evaluations(self, rng):
        W = [rand_vec(rng, 3) for _ in range(3)]
        F = GramForm(rand_mat(rng, 3, 3))
        gram = gram_of_form(F, W).G
        for i in range(3):
            for j in range(3):
                assert gram.entry(i, j) == evaluate(F, W[i], W[j])


class TestEvaluation:
    F = GramForm(mat("0 1v\n-inf 0"))
    E1 = vec("0 -inf")
    E2 = vec("-inf 0")

    def test_examples(self):
        assert evaluate(self.F, self.E1, self.E2) == G(1)
        assert evaluate(self.F, self.E2, self.E1).is_zero()
        assert evaluate(self.F, self.E1, self.E1) == T(0)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            evaluate(self.F, vec("0 0 0"), self.E2)
        with pytest.raises(ShapeError):
            evaluate(self.F, self.E1, vec("0 0 0"))

    def test_bilinear_in_each_slot(self, rng):
        # The semiring has no subtraction, so distributivity makes the
        # form exactly linear in both arguments.
        F = GramForm(rand_mat(rng, 3, 3))
        for _ in range(40):
            x, y, z = (rand_vec(rng, 3) for _ in range(3))
            a, b = rand_scalar(rng), rand_scalar(rng)
            lhs = evaluate(F, (x.scale(a) + y.scale(b)), z)
            assert lhs == a * evaluate(F, x, z) + b * evaluate(F, y, z)
            rhs = evaluate(F, z, (x.scale(a) + y.scale(b)))
            assert rhs == a * evaluate(F, z, x) + b * evaluate(F, z, y)

    def test_g_orthogonality(self):
        # Ghost evaluation and zero evaluation both count.
        assert is_g_orthogonal(self.F, self.E1, self.E2)
        assert is_g_orthogonal(self.F, self.E2, self.E1)
        assert not is_g_orthogonal(self.F, self.E1, self.E1)

    def test_complement_predicate_sides(self):
        left = orthogonal_complement_pred(self.F, [self.E1], side="left")
        right = orthogonal_complement_pred(self.F, [self.E1], side="right")
        # <E2, E1> = -inf but <E1, E2> = 1v: both ghost layer, so E2
        # lands in the complement from either side.
        assert left(self.E2) and right(self.E2)
        assert not left(self.E1)

    def test_complement_rejects_bad_side(self):
        with pytest.raises(InvalidInputError):
            orthogonal_complement_pred(self.F, [self.E1], side="up")


class TestRadical:
    def test_nondegenerate_with_ghost_radical_vectors(self):
        in_rad, nondeg = radical_and_nondegenerate(GramForm(mat("0 1v\n-inf 0")))
        assert nondeg
        # Ghost vectors may sit in the radical without hurting
        # nondegeneracy; tangible ones may not.
        assert in_rad(vec("-inf 0v"))
        assert not in_rad(vec("0 -inf"))

    def test_zero_form_is_degenerate(self):
        in_rad, nondeg = radical_and_nondegenerate(GramForm(Mat.zeros(2, 2)))
        assert not nondeg
        assert in_rad(vec("3 7"))

    def test_nondegeneracy_is_gram_nonsingularity(self, rng):
        for _ in range(60):
            Gm = rand_mat(rng, 3, 3)
            _, nondeg = radical_and_nondegenerate(GramForm(Gm))
            assert nondeg == is_nonsingular(Gm)


class TestGramDependence:
    def test_dependent_triple_under_dot(self):
        W = [V1, V2, V3]
        assert permanent(gram_of_dot(W).G) == G(28)
        w = gram_dependence(W, DOT3)
        assert w is not None
        assert w.support == (0, 1, 2)
        assert w.coeffs == (T(0), T(0), T(0))
        assert w.combination(W).is_ghost()

    def test_standard_base_under_dot(self):
        assert gram_dependence(Mat.identity(3).row_list(), DOT3) is None

    def test_independent_family_can_still_degenerate(self):
        # V2..V4 are independent, yet their dot Gram has ghost
        # permanent.  The criterion cannot answer and says so.
        W = [V2, V3, V4]
        assert is_dependent(W) is None
        assert permanent(gram_of_dot(W).G) == G(26)
        with pytest.raises(DegenerateSpaceError):
            gram_dependence(W, DOT3)

    def test_degeneracy_verdict_is_sound(self):
        # The blocking radical element really lives in the span and
        # really pairs into the ghost layer with every generator.
        W = [V2, V3, V4]
        r = vec("-3v -1 1v")
        assert not r.is_ghost()
        assert spans(W, r) is not None
        for w in W:
            assert r.dot(w).is_ghost()

    def test_ambient_form_resolves_the_same_family(self):
        # Same family, better form: the Gram permanent goes tangible
        # and independence is certified.
        W = [V2, V3, V4]
        assert gram_dependence(W, AMBIENT) is None
        assert is_nonsingular(gram_of_form(AMBIENT, W).G)

    def test_strict_mode_is_stricter_than_nonsingularity(self):
        # A combination with mixed tangible and ghost coefficients can
        # annihilate the family even when the Gram permanent is
        # tangible, so the up-front radical sweep can fail where the
        # permanent test passes.
        W = [V2, V3, V4]
        with pytest.raises(DegenerateSpaceError):
            gram_dependence(W, AMBIENT, strict=True)
        r = vec("-3 -2v 0v")
        assert not r.is_ghost()
        assert spans(W, r) is not None
        for w in W:
            assert evaluate(AMBIENT, r, w).is_ghost()

    def test_strict_mode_passes_a_nondegenerate_span(self):
        # The identity form on the standard base: the radical sweep walks
        # its whole grid without finding a member, and the tangible Gram
        # permanent then certifies independence.
        F = GramForm(mat("0 -inf\n-inf 0"))
        W = [vec("0 -inf"), vec("-inf 0")]
        assert gram_dependence(W, F, strict=True) is None

    def test_tangible_gram_permanent_implies_independence(self, rng):
        # One direction of the Gram criterion, swept over random
        # tangible families of varying size.
        hits = 0
        for _ in range(200):
            k = rng.randint(1, 3)
            W = [rand_tangible_vec(rng, 3) for _ in range(k)]
            if any(w.is_zero() for w in W):
                continue
            if permanent(gram_of_dot(W).G).is_tangible():
                hits += 1
                assert is_dependent(W) is None
        assert hits >= 30

    def test_dependent_family_has_ghost_gram_permanent(self, rng):
        hits = 0
        for _ in range(200):
            k = rng.randint(2, 3)
            W = [rand_tangible_vec(rng, 3) for _ in range(k)]
            if any(w.is_zero() for w in W):
                continue
            if is_dependent(W) is not None:
                hits += 1
                assert not permanent(gram_of_dot(W).G).is_tangible()
        assert hits >= 15

    def test_witnesses_validate(self, rng):
        hits = 0
        for _ in range(300):
            k = rng.randint(2, 3)
            W = [rand_tangible_vec(rng, 2) for _ in range(k)]
            if any(w.is_zero() for w in W):
                continue
            try:
                w = gram_dependence(W, GramForm(Mat.identity(2)))
            except DegenerateSpaceError:
                continue
            if w is not None:
                hits += 1
                assert w.combination(W).is_ghost()
        assert hits >= 40

    def test_radical_search_matches_the_product_grid(self):
        # The depth-first radical search returns the first combination of
        # the full tag grid, down to value types and ghost flags, and the
        # strict check raises exactly when there is one.
        rng = seeded(27)
        found = 0
        for t in range(200):
            k, n = rng.randint(1, 3), rng.randint(1, 4)
            denom = rng.choice((1, 2))
            W = [rand_vec(rng, n, denom=denom) for _ in range(k)]
            F = GramForm(Mat.identity(n) if t % 2 else rand_mat(rng, n, n, denom=denom))
            gram = gram_of_form(F, W).G
            want = grid_radical_witness_reference(W, gram)
            got = bilinear._grid_radical_witness(W, gram)
            assert got == want, (W, gram)
            if want is None:
                gram_dependence(W, F, strict=True)
                continue
            found += 1
            assert [type(x.value) for x in got] == [type(x.value) for x in want]
            assert [x.is_ghost() for x in got] == [x.is_ghost() for x in want]
            with pytest.raises(DegenerateSpaceError, match=f"element {want}$"):
                gram_dependence(W, F, strict=True)
        assert found >= 100 and 200 - found >= 60

    def test_radical_search_builds_no_grid(self, monkeypatch):
        def no_grid(*args, **kwargs):
            raise AssertionError("tag grid built for the radical search")

        for module in (bilinear, matrices, span):
            monkeypatch.setattr(module, "product", no_grid, raising=False)
        rng = seeded(28)
        for _ in range(100):
            k, n = rng.randint(1, 3), rng.randint(1, 4)
            W = [rand_vec(rng, n) for _ in range(k)]
            try:
                gram_dependence(W, GramForm(rand_mat(rng, n, n)), strict=True)
            except DegenerateSpaceError:
                pass


def _full_pair_scan(F, budget, rng, require_nu_match):
    """Reference symmetry scan: every pair of the library's arguments,
    both evaluation orders computed with scalar arithmetic."""
    G_ = F.G
    for i in range(G_.rows):
        for j in range(G_.rows):
            a, b = G_.entry(i, j), G_.entry(j, i)
            if a.is_ghost0() != b.is_ghost0() or (
                require_nu_match and not a.is_ghost0() and a.value != b.value
            ):
                unit = Mat.identity(G_.rows)
                return SymmetryVerdict(False, (unit.row(i), unit.row(j)), True, 0)
    grid, extra = _candidate_args(G_, rng, budget)
    args = grid + extra
    applied = [G_.apply(x) for x in args]
    for a in range(len(args)):
        for b in range(a, len(args)):
            e1, e2 = args[a].dot(applied[b]), args[b].dot(applied[a])
            if (
                e1.is_zero() != e2.is_zero()
                or e1.is_ghost() != e2.is_ghost()
                or (require_nu_match and e1.is_tangible() and e1.value != e2.value)
            ):
                return SymmetryVerdict(False, (args[a], args[b]), b < len(grid), len(extra))
    return SymmetryVerdict(True, None, True, len(extra))


class TestSymmetryScans:
    def test_tangible_asymmetric_form_fails(self):
        F = GramForm(mat("0 1\n3 0"))
        verdict = is_orthogonal_symmetric(F)
        assert not verdict.consistent
        # Replay the witness: one order tangible, the other ghost.
        x, y = verdict.witness
        assert evaluate(F, x, y) == T(0)
        assert evaluate(F, y, x) == G(0)

    def test_single_ghost_entry_fails(self):
        F = GramForm(mat("0 1v\n-inf 0"))
        verdict = is_orthogonal_symmetric(F)
        assert not verdict.consistent
        assert verdict.grid_complete
        x, y = verdict.witness
        assert evaluate(F, x, y) == G(0)
        assert evaluate(F, y, x) == T(0)

    def test_budget_without_rng_draws_from_seed_zero(self):
        F = GramForm(mat("0 1\n3 0"))
        for scan in (is_orthogonal_symmetric, is_supertropically_symmetric):
            verdict = scan(F, budget=4)
            assert verdict == scan(F, budget=4, rng=random.Random(0)), scan
            assert verdict.samples == 4 or not verdict.consistent, verdict

    def test_symmetric_tangible_form_passes(self):
        assert is_orthogonal_symmetric(GramForm(mat("0 1\n1 0"))).consistent

    @pytest.mark.parametrize("form", ["0 1\n1 0", "0 1\n3 0", "0 1v\n-inf 0"])
    def test_negative_budget_is_rejected(self, form):
        # before any verdict: a symmetric form, a violation on the grid
        # and one on unit vectors all raise alike
        F = GramForm(mat(form))
        for scan in (is_orthogonal_symmetric, is_supertropically_symmetric):
            with pytest.raises(InvalidInputError, match="budget must be nonnegative, got -3"):
                scan(F, budget=-3)

    @pytest.mark.parametrize("budget", [True, 1.0, 2.5, "3", None])
    def test_budget_that_is_not_an_int_is_rejected(self, budget):
        # True would draw one sample and 1.0 would fail inside the draw
        F = GramForm(mat("0 1\n3 0"))
        for scan in (is_orthogonal_symmetric, is_supertropically_symmetric):
            with pytest.raises(InvalidInputError, match="budget must be an int"):
                scan(F, budget=budget)

    def test_supertropical_needs_value_agreement(self):
        verdict = is_supertropically_symmetric(GramForm(mat("0 1\n1v 0")))
        assert not verdict.consistent
        x, y = verdict.witness
        F = GramForm(mat("0 1\n1v 0"))
        assert evaluate(F, x, y) == T(1)
        assert evaluate(F, y, x) == G(1)

    def test_symmetric_matrix_with_ghosts_passes_both(self):
        F = GramForm(mat("0v 2\n2 3"))
        assert is_supertropically_symmetric(F).consistent
        assert is_orthogonal_symmetric(F).consistent

    def test_matrix_symmetry_implies_scan_consistency(self, rng):
        for _ in range(40):
            A = rand_mat(rng, 2, 2)
            Gm = A + A.transpose()
            assert is_supertropically_symmetric(GramForm(Gm)).consistent

    def test_supertropical_implies_orthogonal(self, rng):
        # The value test subsumes the layer test on any fixed grid.
        hits = 0
        for _ in range(400):
            F = GramForm(rand_mat(rng, 2, 2))
            if is_supertropically_symmetric(F).consistent:
                hits += 1
                assert is_orthogonal_symmetric(F).consistent
        assert hits >= 20

    def test_symmetric_gram_verdict_matches_full_scan(self):
        # A symmetric Gram matrix returns without scanning pairs; the
        # full scan over the same arguments agrees, and a caller's rng
        # ends in the same state as if the samples were scanned.
        rng = random.Random(14)
        for t in range(3000):
            k = rng.randint(1, 3)
            lo, hi = (-1, 1) if k == 3 else (-2, 2)
            A = rand_mat(rng, k, k, lo=lo, hi=hi, zero_p=0.15, ghost_p=0.3)
            Gm = Mat([[A.entry(min(i, j), max(i, j)) for j in range(k)] for i in range(k)])
            F = GramForm(Gm)
            budget, nu = (0, 5)[t % 2], t % 4 >= 2
            scan = is_supertropically_symmetric if nu else is_orthogonal_symmetric
            mine = random.Random(t)
            got = scan(F, budget=budget, rng=mine)
            ref_rng = random.Random(t)
            assert got == _full_pair_scan(F, budget, ref_rng, nu), Gm
            assert mine.getstate() == ref_rng.getstate()

    def test_symmetric_gram_builds_no_grid(self, monkeypatch):
        # G == G^T is decided before the argument grid, so the grid
        # builder never runs on a symmetric form, even at size 5 where
        # the grid would be large.  The samples are drawn as before:
        # n - 1 integers each, two beyond the ends of the entry values
        # and their differences, with a sentinel one below the least.
        def no_grid(*args, **kwargs):
            raise AssertionError("symmetry grid built for a symmetric form")

        monkeypatch.setattr(bilinear, "product", no_grid)
        rng = random.Random(19)
        for t in range(400):
            k = rng.randint(1, 5)
            A = rand_mat(rng, k, k, zero_p=0.15, ghost_p=0.3, denom=rng.choice((1, 2)))
            Gm = Mat([[A.entry(min(i, j), max(i, j)) for j in range(k)] for i in range(k)])
            F = GramForm(Gm)
            vals = {0}
            entries = [x.value for r in Gm.row_tuples for x in r if not x.is_zero()]
            vals |= set(entries) | {a - b for a in entries for b in entries}
            lo, hi = int(min(vals) - 3), int(max(vals) + 2)
            for budget in (0, 5):
                ref = random.Random(t)
                for _ in range(budget * (k - 1)):
                    ref.randint(lo, hi)
                for scan in (is_orthogonal_symmetric, is_supertropically_symmetric):
                    mine = random.Random(t)
                    got = scan(F, budget=budget, rng=mine)
                    assert got == SymmetryVerdict(True, None, True, budget), Gm
                    assert mine.getstate() == ref.getstate(), Gm

    def test_orthogonal_implies_supertropical(self, rng):
        # The surprising converse; the acceptance sweep hits this
        # harder, this is a smoke pass.
        hits = 0
        for _ in range(400):
            F = GramForm(rand_mat(rng, 2, 2))
            if is_orthogonal_symmetric(F).consistent:
                hits += 1
                assert is_supertropically_symmetric(F).consistent
        assert hits >= 20


class TestIsotropy:
    def test_labels(self):
        dot = GramForm(Mat.identity(2))
        assert isotropy(dot, vec("0 -inf")) == "nonisotropic"
        assert isotropy(dot, vec("0 0")) == "isotropic"
        assert isotropy(GramForm(Mat.zeros(2, 2)), vec("1 2")) == "strictly_isotropic"

    def test_label_matches_self_evaluation(self, rng):
        F = GramForm(rand_mat(rng, 3, 3))
        for _ in range(30):
            x = rand_vec(rng, 3)
            v = evaluate(F, x, x)
            label = isotropy(F, x)
            if v.is_zero():
                assert label == "strictly_isotropic"
            elif v.is_tangible():
                assert label == "nonisotropic"
            else:
                assert label == "isotropic"
