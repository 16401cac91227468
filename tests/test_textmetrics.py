import string
import unicodedata

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from clsd.errors import DataError
from clsd.records import Sentence
from clsd.textmetrics import (
    DEFAULT_BIN_EDGES,
    SCHEME_DIFF,
    SCHEME_SET,
    bin_by_similarity,
    bin_index,
    intra_distractor_jaccard,
    jaccard_similarity,
    levenshtein_distance,
    levenshtein_similarity,
    single_token_diff,
    tokenize,
    validate_edges,
)

from conftest import (
    BEAMTEN_DISTRACTORS,
    BEAMTEN_INTRA,
    FRENCH_D1,
    FRENCH_TARGET,
    LINKSPARTEI_D1,
    LINKSPARTEI_D2,
    LINKSPARTEI_TARGET,
    NASDAQ_DISTRACTORS,
    NASDAQ_INTRA,
    NASDAQ_ORIGINAL,
)


def dp_levenshtein(a: str, b: str) -> int:
    # Independent oracle: plain quadratic DP, no numpy tricks.
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        cur = [i]
        for j, cb in enumerate(b, start=1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (ca != cb)))
        prev = cur
    return prev[-1]


def reference_tokens(text: str, scheme: str) -> tuple[str, ...]:
    # Independent oracle: strip boundary characters by Unicode category alone.
    tokens = []
    for raw in text.split():
        start, end = 0, len(raw)
        while start < end and unicodedata.category(raw[start]).startswith("P"):
            start += 1
        while end > start and unicodedata.category(raw[end - 1]).startswith("P"):
            end -= 1
        if start < end:
            token = raw[start:end]
            tokens.append(token.lower() if scheme == SCHEME_SET else token)
    return tuple(tokens)


# Few distinct characters, so random strings share many; three outside the BMP.
EDIT_ALPHABET = "ab äß\u00e9\U0001F600\U0001D538\U0010FFFF"


@st.composite
def edit_pairs(draw):
    """A string and either an unrelated one or a copy with up to 4 unit edits.

    Lengths reach past 64 and 200, the word-size boundaries of a bit-vector.
    """
    chars = st.sampled_from(EDIT_ALPHABET) | st.characters()
    a = draw(st.text(chars, max_size=draw(st.sampled_from([8, 70, 260]))))
    if draw(st.booleans()):
        return a, draw(st.text(chars, max_size=260))
    b = list(a)
    for op, pos, ch in draw(
        st.lists(st.tuples(st.sampled_from("ids"), st.integers(0, 300), chars), max_size=4)
    ):
        if op == "i":
            b.insert(pos % (len(b) + 1), ch)
        elif b:
            if op == "d":
                del b[pos % len(b)]
            else:
                b[pos % len(b)] = ch
    return a, "".join(b)


class TestTokenize:
    @settings(max_examples=300, deadline=None)
    @given(text=st.text())
    @example(text="»Hallo,« sagte sie. 1,5 % ... ¿Qué? (ja) x")
    def test_matches_category_reference(self, text):
        for scheme in (SCHEME_DIFF, SCHEME_SET):
            assert tokenize(text, scheme).tokens == reference_tokens(text, scheme)

    def test_empty_text(self):
        assert tokenize("").tokens == ()

    def test_set_scheme_lowercases(self):
        assert tokenize("Der Nasdaq", SCHEME_SET).tokens == ("der", "nasdaq")

    def test_diff_scheme_preserves_case(self):
        assert tokenize("Der Nasdaq", SCHEME_DIFF).tokens == ("Der", "Nasdaq")

    def test_boundary_punctuation_stripped(self):
        assert tokenize("»Hallo,« sagte sie.", SCHEME_DIFF).tokens == (
            "Hallo",
            "sagte",
            "sie",
        )

    def test_inner_punctuation_kept_and_pure_punct_dropped(self):
        assert tokenize("1,5 %", SCHEME_DIFF).tokens == ("1,5",)

    def test_nasdaq_sentence_has_nine_tokens_eight_distinct(self):
        seq = tokenize(NASDAQ_ORIGINAL, SCHEME_SET)
        assert len(seq.tokens) == 9
        assert set(seq.tokens) == {
            "der",
            "nasdaq",
            "verzeichnete",
            "die",
            "schlechteste",
            "woche",
            "letzten",
            "vier",
        }

    def test_unknown_scheme_rejected(self):
        with pytest.raises(DataError):
            tokenize("x", "words")


class TestLevenshtein:
    def test_identical(self):
        assert levenshtein_similarity("gleich", "gleich") == 1.0

    def test_empty_vs_nonempty(self):
        assert levenshtein_similarity("", "ab") == 0.0

    def test_both_empty(self):
        assert levenshtein_similarity("", "") == 1.0

    def test_wahl_wal(self):
        assert levenshtein_distance("wahl", "wal") == 1
        assert levenshtein_similarity("wahl", "wal") == 0.75

    def test_matches_dp_oracle_on_random_pairs(self):
        import random

        rng = random.Random(7)
        alphabet = string.ascii_letters + "äöüß éà"
        for _ in range(300):
            a = "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 14)))
            b = "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 14)))
            assert levenshtein_distance(a, b) == dp_levenshtein(a, b)

    @settings(max_examples=300, deadline=None)
    @given(pair=edit_pairs())
    @example(pair=("x" * 201, "x" * 201))
    @example(pair=("ab" * 40 + "\U0001F600", "ab" * 40 + "\U0001F601"))
    @example(pair=("a" * 65, "b" + "a" * 64))
    @example(pair=("\U0010FFFF" + "z" * 70, "z" * 70))
    @example(pair=("abc" * 70, "abd" * 70))
    def test_matches_dp_oracle_property(self, pair):
        a, b = pair
        assert levenshtein_distance(a, b) == dp_levenshtein(a, b)
        assert levenshtein_distance(b, a) == dp_levenshtein(a, b)

    @settings(max_examples=80, deadline=None)
    @given(
        a=st.text(max_size=10),
        b=st.text(max_size=10),
        c=st.text(max_size=10),
    )
    def test_symmetry_and_triangle_inequality(self, a, b, c):
        assert levenshtein_distance(a, b) == levenshtein_distance(b, a)
        assert levenshtein_distance(a, c) <= levenshtein_distance(
            a, b
        ) + levenshtein_distance(b, c)


class TestJaccard:
    def test_equal_sets(self):
        a = tokenize("der hund bellt", SCHEME_SET)
        b = tokenize("Bellt der Hund?", SCHEME_SET)
        assert jaccard_similarity(a, b) == 1.0

    def test_disjoint_sets(self):
        a = tokenize("eins zwei", SCHEME_SET)
        b = tokenize("drei vier", SCHEME_SET)
        assert jaccard_similarity(a, b) == 0.0

    def test_both_empty(self):
        assert jaccard_similarity(tokenize(""), tokenize("")) == 1.0

    def test_scheme_mismatch_rejected(self):
        with pytest.raises(DataError):
            jaccard_similarity(tokenize("a", SCHEME_DIFF), tokenize("a", SCHEME_SET))

    def test_nasdaq_original_vs_second_distractor(self):
        a = tokenize(NASDAQ_ORIGINAL, SCHEME_SET)
        b = tokenize(NASDAQ_DISTRACTORS[1], SCHEME_SET)
        assert jaccard_similarity(a, b) == pytest.approx(7 / 9)

    @settings(max_examples=80, deadline=None)
    @given(
        words_a=st.lists(st.sampled_from(["rot", "blau", "grün", "Gelb", "Grau"]), max_size=6),
        words_b=st.lists(st.sampled_from(["rot", "blau", "grün", "Gelb", "Grau"]), max_size=6),
    )
    def test_matches_set_enumeration_oracle(self, words_a, words_b):
        # Oracle route: build the sets directly, bypassing tokenize entirely.
        set_a = {w.lower() for w in words_a}
        set_b = {w.lower() for w in words_b}
        expected = (
            1.0 if not set_a and not set_b else len(set_a & set_b) / len(set_a | set_b)
        )
        got = jaccard_similarity(
            tokenize(" ".join(words_a), SCHEME_SET),
            tokenize(" ".join(words_b), SCHEME_SET),
        )
        assert got == pytest.approx(expected)


class TestIntraDistractorJaccard:
    def test_nasdaq_values(self):
        values = intra_distractor_jaccard(NASDAQ_DISTRACTORS)
        for got, published in zip(values, NASDAQ_INTRA):
            assert got == pytest.approx(published, abs=5e-4)
            assert round(got, 3) == published

    def test_beamten_values(self):
        values = intra_distractor_jaccard(BEAMTEN_DISTRACTORS)
        for got, published in zip(values, BEAMTEN_INTRA):
            assert got == pytest.approx(published, abs=5e-4)

    def test_four_identical(self):
        assert intra_distractor_jaccard(["gleich her"] * 4) == [1.0] * 4

    def test_permutation_invariance(self):
        base = intra_distractor_jaccard(NASDAQ_DISTRACTORS)
        order = [2, 0, 3, 1]
        permuted = intra_distractor_jaccard([NASDAQ_DISTRACTORS[i] for i in order])
        assert permuted == [base[i] for i in order]

    def test_accepts_sentence_objects(self):
        sentences = [Sentence(text=t, lang="de") for t in BEAMTEN_DISTRACTORS]
        assert intra_distractor_jaccard(sentences) == intra_distractor_jaccard(
            BEAMTEN_DISTRACTORS
        )

    def test_wrong_count_rejected(self):
        with pytest.raises(DataError):
            intra_distractor_jaccard(["a", "b", "c"])


class TestSingleTokenDiff:
    def test_german_noun_swap(self):
        diff = single_token_diff(
            Sentence(text=LINKSPARTEI_TARGET, lang="de"),
            Sentence(text=LINKSPARTEI_D1, lang="de"),
        )
        assert diff is not None
        assert (diff.position, diff.target_token, diff.distractor_token) == (
            8,
            "Europawahl",
            "Bundestagswahl",
        )

    def test_german_verb_swap(self):
        diff = single_token_diff(
            Sentence(text=LINKSPARTEI_TARGET, lang="de"),
            Sentence(text=LINKSPARTEI_D2, lang="de"),
        )
        assert diff is not None
        assert (diff.position, diff.target_token, diff.distractor_token) == (
            2,
            "beschließt",
            "verweigert",
        )

    def test_french_multi_edit_gives_none(self):
        assert (
            single_token_diff(
                Sentence(text=FRENCH_TARGET, lang="fr"),
                Sentence(text=FRENCH_D1, lang="fr"),
            )
            is None
        )

    def test_identical_sentences_give_none(self):
        s = Sentence(text=LINKSPARTEI_TARGET, lang="de")
        assert single_token_diff(s, s) is None

    def test_two_swaps_give_none(self):
        assert (
            single_token_diff(
                Sentence(text="der hund bellt laut", lang="de"),
                Sentence(text="die katze bellt laut", lang="de"),
            )
            is None
        )

    def test_case_change_counts_as_swap(self):
        diff = single_token_diff(
            Sentence(text="Der Hund bellt", lang="de"),
            Sentence(text="der Hund bellt", lang="de"),
        )
        assert diff is not None
        assert diff.position == 0

    def test_cross_language_rejected(self):
        with pytest.raises(DataError):
            single_token_diff(
                Sentence(text="Hund", lang="de"), Sentence(text="chien", lang="fr")
            )


class TestBins:
    def test_value_in_middle_bin(self):
        assert bin_index(0.85, DEFAULT_BIN_EDGES) == 1

    def test_topmost_bin_includes_upper_edge(self):
        assert bin_index(1.0, DEFAULT_BIN_EDGES) == 0

    def test_lower_edge_inclusive_upper_exclusive(self):
        assert bin_index(0.9, DEFAULT_BIN_EDGES) == 0
        assert bin_index(0.6, DEFAULT_BIN_EDGES) == 3

    def test_below_lowest_is_underflow(self):
        assert bin_index(0.25, DEFAULT_BIN_EDGES) is None

    def test_above_topmost_rejected(self):
        with pytest.raises(DataError):
            bin_index(1.1, DEFAULT_BIN_EDGES)

    def test_overlapping_edges_rejected(self):
        with pytest.raises(DataError):
            validate_edges([(0.5, 1.0), (0.4, 0.6)])

    def test_unsorted_edges_rejected(self):
        with pytest.raises(DataError):
            validate_edges([(0.3, 0.6), (0.9, 1.0)])

    def test_gap_between_bins_rejected(self):
        with pytest.raises(DataError, match=r"gap between bins \(0\.9, 1\.0\) and \(0\.3, 0\.6\)"):
            validate_edges([(0.9, 1.0), (0.3, 0.6)])

    def test_degenerate_bin_rejected(self):
        with pytest.raises(DataError):
            validate_edges([(0.5, 0.5)])

    def test_counts_sum_to_input_size(self):
        values = [0.95, 0.85, 0.85, 0.65, 0.25, 1.0, 0.31]
        table = bin_by_similarity(values)
        assert table.counts == (2, 2, 0, 1, 1)
        assert table.underflow == 1
        assert table.total == len(values)
