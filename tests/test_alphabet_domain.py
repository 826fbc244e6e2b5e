"""Tests for alphabets and extended active domains (Definitions 2-3, Lemma 1)."""

import pytest

from repro.errors import AlphabetError
from repro.sequences import (
    Alphabet,
    DNA_ALPHABET,
    ExtendedDomain,
    RNA_ALPHABET,
    Sequence,
    extension_of,
)


class TestAlphabet:
    def test_symbols_preserve_order_and_deduplicate(self):
        assert Alphabet("abca").symbols == ("a", "b", "c")

    def test_membership(self):
        assert "a" in DNA_ALPHABET
        assert "u" not in DNA_ALPHABET
        assert "u" in RNA_ALPHABET

    def test_index(self):
        assert Alphabet("acgt").index("g") == 2

    def test_index_of_unknown_symbol_raises(self):
        with pytest.raises(AlphabetError):
            Alphabet("ab").index("z")

    def test_multi_character_symbols_rejected(self):
        with pytest.raises(AlphabetError):
            Alphabet(["ab"])

    def test_empty_alphabet_rejected(self):
        with pytest.raises(AlphabetError):
            Alphabet("")

    def test_validate_word(self):
        DNA_ALPHABET.validate_word("acgt")
        with pytest.raises(AlphabetError):
            DNA_ALPHABET.validate_word("acgu")

    def test_union(self):
        assert set(Alphabet("ab").union(Alphabet("bc")).symbols) == {"a", "b", "c"}

    def test_equality_and_hash(self):
        assert Alphabet("ab") == Alphabet("ab")
        assert hash(Alphabet("ab")) == hash(Alphabet("ab"))
        assert Alphabet("ab") != Alphabet("ba")


class TestExtendedDomain:
    def test_contains_all_contiguous_subsequences(self):
        domain = ExtendedDomain(["abc"])
        for fragment in ["", "a", "b", "c", "ab", "bc", "abc"]:
            assert Sequence(fragment) in domain
        assert Sequence("ac") not in domain

    def test_integer_part_is_zero_to_lmax_plus_one(self):
        domain = ExtendedDomain(["abc"])
        assert list(domain.integers()) == [0, 1, 2, 3, 4]
        assert 4 in domain
        assert 5 not in domain

    def test_empty_domain_contains_epsilon(self):
        domain = ExtendedDomain()
        assert Sequence("") in domain
        assert list(domain.integers()) == [0, 1]

    def test_add_returns_growth_flag(self):
        domain = ExtendedDomain(["ab"])
        assert domain.add("abc") is True
        assert domain.add("abc") is False
        assert domain.add("b") is False  # already present as a subsequence

    def test_max_length_tracks_longest_sequence(self):
        domain = ExtendedDomain(["ab"])
        assert domain.max_length == 2
        domain.add("abcde")
        assert domain.max_length == 5

    def test_lemma_1_monotonicity(self):
        """If I1 ⊆ I2 then Dext(I1) ⊆ Dext(I2)."""
        small = ExtendedDomain(["ab"])
        large = ExtendedDomain(["ab", "xyz"])
        for sequence in small.sequences():
            assert sequence in large

    def test_lemma_1_union(self):
        """The extension of a union is the union of the extensions."""
        union = ExtendedDomain(["ab", "cd"])
        separate = set(ExtendedDomain(["ab"]).sequences()) | set(
            ExtendedDomain(["cd"]).sequences()
        )
        assert set(union.sequences()) == separate

    def test_set_operators_return_plain_sets(self):
        """A difference of domains need not be subsequence-closed, so the
        operators build a frozenset, on the live domain and on a view."""
        domain = ExtendedDomain(["ab"])
        rest = domain - {Sequence("a")}
        assert rest == frozenset(Sequence(text) for text in ("", "b", "ab"))
        assert domain.view() | {Sequence("x")} == set(domain) | {Sequence("x")}

    def test_copy_is_independent(self):
        domain = ExtendedDomain(["ab"])
        clone = domain.copy()
        clone.add("xyz")
        assert Sequence("xyz") not in domain

    def test_sorted_sequences_is_stable(self):
        domain = ExtendedDomain(["ba"])
        assert [s.text for s in domain.sorted_sequences()] == ["", "a", "b", "ba"]

    def test_extension_of_helper(self):
        assert extension_of(["ab"]) == ExtendedDomain(["ab"])

    def test_add_stops_at_the_first_fragment_already_present(self):
        """The domain is closed under subsequences, so adding ``xabcdefgh``
        beside ``abcdefgh`` looks up the nine fragments that start at ``x``
        and then meets the present suffix ``abcdefgh``: it must not intern
        the 36 fragments that suffix already brought along."""
        domain = ExtendedDomain(["abcdefgh"])
        before = Sequence.intern_stats()["fast_hits"]
        assert domain.add("xabcdefgh") is True
        assert Sequence.intern_stats()["fast_hits"] - before <= 10
        expected = {"xabcdefgh"[i:j] for i in range(9) for j in range(i, 10)}
        assert {sequence.text for sequence in domain} == expected

    def test_size_counts_sequences_not_integers(self):
        assert len(ExtendedDomain(["abc"])) == 7
