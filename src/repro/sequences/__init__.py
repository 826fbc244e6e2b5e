"""Sequence substrate: alphabets, immutable sequences and extended domains.

This package implements Section 2.1 and Definitions 2-3 of the paper:

* :class:`~repro.sequences.alphabet.Alphabet` -- a finite set of symbols.
* :class:`~repro.sequences.sequence.Sequence` -- an immutable sequence of
  symbols with the paper's 1-based contiguous-subsequence operations.
* :func:`~repro.sequences.sequence.subsequences` -- all contiguous
  subsequences of a sequence.
* :class:`~repro.sequences.domain.ExtendedDomain` -- the *extension* of a set
  of sequences: the sequences themselves, all their contiguous subsequences,
  and the integers ``0 .. lmax + 1``; its
  :meth:`~repro.sequences.domain.ExtendedDomain.view` pins a read-only
  :class:`~repro.sequences.domain.DomainView` of it in O(1).
"""

from repro.sequences.alphabet import Alphabet, DNA_ALPHABET, RNA_ALPHABET, PROTEIN_ALPHABET, BINARY_ALPHABET
from repro.sequences.sequence import EMPTY, Sequence, as_sequence, subsequences
from repro.sequences.domain import DomainView, ExtendedDomain, extension_of

__all__ = [
    "Alphabet",
    "BINARY_ALPHABET",
    "DNA_ALPHABET",
    "DomainView",
    "EMPTY",
    "ExtendedDomain",
    "PROTEIN_ALPHABET",
    "RNA_ALPHABET",
    "Sequence",
    "as_sequence",
    "extension_of",
    "subsequences",
]
