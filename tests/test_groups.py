"""Group arithmetic: laws, normal forms, balls."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from soficperm import groups as gr

import oracles as orc


FAMILY_M = {"z2": None, "heis": None, "bs": 2, "zwrz": 2, "metab": None}


def random_words(max_len=6):
    letter = st.tuples(st.sampled_from(["a", "b"]), st.integers(-3, 3))
    return st.lists(letter, max_size=max_len).map(gr.genword)


@st.composite
def family_words(draw, families=tuple(gr.FAMILIES), max_len=6):
    family = draw(st.sampled_from(families))
    w = draw(random_words(max_len))
    return family, w


class TestGenWord:
    def test_free_reduction(self):
        w = gr.genword([("a", 2), ("a", -2), ("b", 1)])
        assert w.letters == (("b", 1),)
        assert gr.genword([("a", 1), ("a", 2)]).letters == (("a", 3),)

    def test_rejects_unknown_generator(self):
        with pytest.raises(ValueError):
            gr.GenWord((("x", 1),))

    def test_word_inverse(self):
        w = gr.genword([("a", 2), ("b", -1)])
        assert gr.word_mul(w, gr.word_inverse(w)).is_empty()

    @given(random_words(8), random_words(), st.integers(0, 8),
           st.integers(-3, 3))
    @example(gr.genword([("a", 2), ("b", -1)]), gr.genword([]), 2, 0)
    @example(gr.genword([("a", 2), ("b", -1)]), gr.genword([("b", 1)]), 1, 1)
    @settings(max_examples=300)
    def test_word_mul_reduces_at_the_junction(self, w1, tail, cut, nudge):
        """w2 undoes the last ``cut`` letters of w1, then adds ``nudge`` to
        the exponent of the letter before them (cut = len(w1), nudge = 0
        and an empty tail is full cancellation)."""
        cut = min(cut, len(w1.letters))
        keep = w1.letters[:len(w1.letters) - cut]
        undo = gr.word_inverse(gr.GenWord(w1.letters[len(keep):])).letters
        merge = [(keep[-1][0], nudge)] if keep and nudge else []
        w2 = gr.genword([*undo, *merge, *tail.letters])
        assert gr.word_mul(w1, w2) == gr.genword(w1.letters + w2.letters)

    def test_length_and_str(self):
        w = gr.genword([("a", 2), ("b", -1)])
        assert w.length() == 3
        assert str(w) == "a^2 b^-1"
        assert str(gr.genword([])) == "1"


class TestGroupLaws:
    @given(family_words(), random_words(), random_words())
    @settings(max_examples=150)
    def test_associativity(self, fw, w2, w3):
        family, w1 = fw
        m = FAMILY_M[family]
        x, y, z = (gr.eval_word(w, family, m=m) for w in (w1, w2, w3))
        assert gr.mul(gr.mul(x, y), z) == gr.mul(x, gr.mul(y, z))

    @given(family_words())
    def test_inverse_law(self, fw):
        family, w = fw
        m = FAMILY_M[family]
        x = gr.eval_word(w, family, m=m)
        e = gr.identity(family, m=m)
        assert gr.mul(x, gr.inverse(x)) == e
        assert gr.mul(gr.inverse(x), x) == e

    @given(family_words(), st.integers(-5, 5))
    def test_elem_power(self, fw, e):
        family, w = fw
        m = FAMILY_M[family]
        x = gr.eval_word(w, family, m=m)
        acc = gr.identity(family, m=m)
        step = x if e >= 0 else gr.inverse(x)
        for _ in range(abs(e)):
            acc = gr.mul(acc, step)
        assert gr.elem_power(x, e) == acc

    @given(st.integers(-9, 9), st.integers(-9, 9), st.integers(-9, 9),
           st.integers(-10**6, 10**6))
    @example(2, -3, 5, 10**6)
    @example(-1, 4, 0, -10**6)
    def test_elem_power_closed_forms(self, lam, mu, nu, e):
        # z2: (a^lam b^mu)^e = (lam e, mu e); heis: nu_e = e nu - lam mu e(e-1)/2
        assert gr.elem_power(gr.Z2Elem(lam, mu), e) == gr.Z2Elem(lam * e, mu * e)
        assert gr.elem_power(gr.HeisElem(lam, mu, nu), e) == gr.HeisElem(
            lam * e, mu * e, e * nu - lam * mu * e * (e - 1) // 2)

    def test_elem_power_takes_log_many_products(self, monkeypatch):
        calls = []
        mul = gr.mul
        monkeypatch.setattr(gr, "mul", lambda x, y: calls.append(1) or mul(x, y))
        x = gr.eval_word(gr.genword([("a", 1), ("b", -2)]), "zwrz", m=2)
        gr.elem_power(x, 10**6)
        assert len(calls) <= 2 * (10**6).bit_length()

    @given(family_words())
    def test_eval_word_is_multiplicative(self, fw):
        family, w = fw
        m = FAMILY_M[family]
        half = len(w.letters) // 2
        w1 = gr.GenWord(w.letters[:half])
        w2 = gr.GenWord(w.letters[half:])
        lhs = gr.eval_word(gr.word_mul(w1, w2), family, m=m)
        rhs = gr.mul(gr.eval_word(w1, family, m=m),
                     gr.eval_word(w2, family, m=m))
        assert lhs == rhs


class TestHeisenberg:
    def test_commutator_is_central_generator(self):
        a = gr.generator("heis", "a")
        b = gr.generator("heis", "b")
        comm = gr.mul(gr.mul(gr.inverse(a), gr.inverse(b)), gr.mul(a, b))
        assert comm == gr.HeisElem(0, 0, 1)

    def test_center(self):
        c = gr.HeisElem(0, 0, 5)
        for g in [gr.generator("heis", "a"), gr.generator("heis", "b")]:
            assert gr.mul(c, g) == gr.mul(g, c)

    def test_ab_differs_from_ba(self):
        a = gr.generator("heis", "a")
        b = gr.generator("heis", "b")
        assert gr.mul(a, b) != gr.mul(b, a)


class TestBS:
    def test_defining_relation(self):
        # a^b = a^m  with m = 3
        a = gr.generator("bs", "a", m=3)
        b = gr.generator("bs", "b", m=3)
        conj = gr.mul(gr.mul(gr.inverse(b), a), b)
        assert conj == gr.elem_power(a, 3)

    def test_unnormalized_construction_rejected(self):
        with pytest.raises(ValueError):
            gr.BSElem(2, 4, 2, 0)  # 4/2^2 should be stored as 1/2^0

    def test_mul_keeps_minimal_denominator(self):
        # b a b^-1 has value 1/m
        x = gr.eval_word(gr.genword([("b", 1), ("a", 1), ("b", -1)]),
                         "bs", m=2)
        assert (x.num, x.den_exp, x.pow) == (1, 1, 0)

    def test_value(self):
        x = gr.BSElem(2, 3, 1, 2)
        assert x.value() == Fraction(3, 2)

    @given(random_words(), random_words())
    def test_value_is_translation_part(self, w1, w2):
        # multiplying tracks value as v2 + m^pow2 * v1
        x = gr.eval_word(w1, "bs", m=2)
        y = gr.eval_word(w2, "bs", m=2)
        z = gr.mul(x, y)
        assert z.value() == y.value() + Fraction(2) ** y.pow * x.value()
        assert z.pow == x.pow + y.pow


BS_M = (-6, -2, 2, 3, 6)


@st.composite
def bs_elements(draw, m):
    """A normalized BS(1, m) element from a random (value, power)."""
    num = draw(st.integers(-10**6, 10**6))
    den_exp = draw(st.integers(0, 8))
    pow_ = draw(st.integers(-8, 8))
    value = Fraction(num, m ** den_exp) * Fraction(m) ** draw(st.integers(-3, 3))
    return orc.bs_normalize(m, value, pow_)


class TestBSNormalForm:
    """The integer product against the Fraction product it replaced."""

    @pytest.mark.parametrize("m", BS_M)
    @given(data=st.data())
    @settings(max_examples=150)
    def test_mul_and_inverse_match_fraction_oracle(self, m, data):
        x = data.draw(bs_elements(m))
        y = data.draw(bs_elements(m))
        ex, ey = gr.BSElem(m, *x), gr.BSElem(m, *y)
        for got, want in ((gr.mul(ex, ey), orc.bs_mul(m, x, y)),
                          (gr.inverse(ex), orc.bs_inverse(m, x))):
            expected = gr.BSElem(m, *want)
            assert got == expected
            assert hash(got) == hash(expected)
            assert (got.num, got.den_exp, got.pow) == want

    @pytest.mark.parametrize("m", BS_M)
    @given(random_words(), random_words())
    def test_word_products_match_fraction_oracle(self, m, w1, w2):
        x = gr.eval_word(w1, "bs", m=m)
        y = gr.eval_word(w2, "bs", m=m)
        want = orc.bs_mul(m, (x.num, x.den_exp, x.pow),
                          (y.num, y.den_exp, y.pow))
        got = gr.mul(x, y)
        assert got == gr.BSElem(m, *want)
        assert hash(got) == hash(gr.BSElem(m, *want))
        assert got.value() == (y.value()
                               + Fraction(m) ** y.pow * x.value())


class TestTrustedProducts:
    """Products built without revalidation equal the validated forms."""

    @given(family_words(families=("zwrz", "metab")), random_words())
    @settings(max_examples=150)
    def test_product_equals_validated_constructor(self, fw, w2):
        family, w1 = fw
        for m in (2, -3):
            x = gr.eval_word(w1, family, m=m)
            y = gr.eval_word(w2, family, m=m)
            for z in (gr.mul(x, y), gr.inverse(x), gr.mul(gr.inverse(y), x)):
                if family == "zwrz":
                    checked = gr.WreathElem(z.poly, z.pow)
                else:
                    checked = gr.FreeWord(gr.GenWord(z.word.letters))
                assert z == checked
                assert hash(z) == hash(checked)

    @pytest.mark.parametrize("make", [
        lambda: gr.BSElem(2, 4, 1, 0),
        lambda: gr.BSElem(-3, 9, 2, 1),
        lambda: gr.BSElem(1, 1, 0, 0),
        lambda: gr.BSElem(2, 1, -1, 0),
        lambda: gr.WreathElem(((1, 1), (0, 2)), 0),
        lambda: gr.WreathElem(((0, 1), (0, 2)), 0),
        lambda: gr.WreathElem(((0, 0),), 1),
        lambda: gr.GenWord((("a", 1), ("a", 2))),
        lambda: gr.GenWord((("b", 0),)),
        lambda: gr.GenWord((("c", 1),)),
        lambda: gr.FreeWord(gr.GenWord((("t", 1),))),
    ])
    def test_outside_input_still_validated(self, make):
        with pytest.raises(ValueError):
            make()


class TestWreath:
    def test_shifted_lamp(self):
        a = gr.generator("zwrz", "a", m=2)
        b = gr.generator("zwrz", "b", m=2)
        conj = gr.mul(gr.mul(gr.inverse(b), a), b)
        assert conj == gr._wreath_make({1: 1}, 0)

    def test_distant_lamps_commute(self):
        a = gr.generator("zwrz", "a")
        b = gr.generator("zwrz", "b")
        lamp0 = a
        lamp3 = gr.eval_word(gr.genword(
            [("b", -3), ("a", 1), ("b", 3)]), "zwrz")
        assert gr.mul(lamp0, lamp3) == gr.mul(lamp3, lamp0)
        assert lamp3 == gr._wreath_make({3: 1}, 0)

    def test_poly_drops_zero_coefficients(self):
        x = gr.mul(gr.generator("zwrz", "a"), gr.generator("zwrz", "a", -1))
        assert x == gr.identity("zwrz")
        assert x.poly == ()


class TestFreeWordFamily:
    def test_multiplication_concatenates_and_reduces(self):
        x = gr.eval_word(gr.genword([("a", 1), ("b", 1)]), "metab")
        y = gr.eval_word(gr.genword([("b", -1), ("a", 2)]), "metab")
        assert gr.mul(x, y).word.letters == (("a", 3),)

    def test_is_trivial_raises_even_for_empty(self):
        x = gr.eval_word(gr.genword([("a", 1), ("b", 1)]), "metab")
        with pytest.raises(ValueError):
            gr.is_trivial(x)
        with pytest.raises(ValueError):
            gr.is_trivial(gr.identity("metab"))


class TestTriviality:
    @pytest.mark.parametrize("family", ["z2", "heis", "bs", "zwrz"])
    def test_identity_is_trivial(self, family):
        m = FAMILY_M[family]
        assert gr.is_trivial(gr.identity(family, m=m))
        assert not gr.is_trivial(gr.generator(family, "a", m=m))


class TestBall:
    def test_z2_sizes(self):
        for radius in range(5):
            assert len(list(gr.ball("z2", radius))) == len(
                orc.z2_ball_points(radius))

    def test_z2_contents(self):
        got = {(g.lam, g.mu) for g in gr.ball("z2", 2)}
        assert got == orc.z2_ball_points(2)

    @pytest.mark.parametrize("family", ["z2", "heis", "bs", "zwrz"])
    def test_ball_deduplicates_and_nests(self, family):
        m = FAMILY_M[family]
        b1 = set(gr.ball(family, 1, m=m))
        b2 = set(gr.ball(family, 2, m=m))
        assert b1 < b2
        assert gr.identity(family, m=m) in b1
        assert len(b2) == len(list(gr.ball(family, 2, m=m)))  # no repeats

    def test_ball_closed_under_inverse(self):
        for family in gr.FAMILIES:
            m = FAMILY_M[family]
            b = set(gr.ball(family, 2, m=m))
            assert all(gr.inverse(g) in b for g in b)

    def test_metab_ball_is_reduced_words(self):
        b = gr.ball("metab", 2)
        words = {g.word.letters for g in b}
        # a b and b a are distinct reduced words even though more relations
        # may hold in the quotient
        assert (("a", 1), ("b", 1)) in words
        assert (("b", 1), ("a", 1)) in words

    def test_heis_ball_radius2_contains_commutator_partials(self):
        b2 = set(gr.ball("heis", 2))
        assert gr.mul(gr.generator("heis", "a"),
                      gr.generator("heis", "b")) in b2

    @pytest.mark.parametrize("family", gr.FAMILIES)
    def test_membership(self, family):
        m = FAMILY_M[family]
        b2 = gr.ball(family, 2, m=m)
        for g in b2:
            assert g in b2
        outside = set(gr.ball(family, 3, m=m)) - set(b2)
        assert outside
        for g in outside:
            assert g not in b2
        # an identity of another family is no member either
        other = gr.HeisElem(0, 0, 0) if family == "z2" else gr.Z2Elem(0, 0)
        assert other not in b2


class TestAbelianization:
    @given(random_words())
    def test_exponent_sums(self, w):
        for family in ("z2", "heis", "zwrz", "metab"):
            x = gr.eval_word(w, family, m=FAMILY_M[family])
            a_sum = sum(e for g, e in w.letters if g == "a")
            b_sum = sum(e for g, e in w.letters if g == "b")
            assert gr.abelianization(x) == (a_sum, b_sum)

    def test_rejected_for_bs(self):
        with pytest.raises(ValueError):
            gr.abelianization(gr.generator("bs", "a", m=2))
