"""Extended active domains (Definitions 2 and 3, Lemma 1 of the paper).

The semantics of Sequence Datalog is *active-domain* based: substitutions do
not range over the infinite universe ``Sigma*`` but over the *extended active
domain* of the current interpretation, which contains

1. every sequence occurring in the interpretation,
2. every contiguous subsequence of those sequences, and
3. the integers ``0, 1, ..., lmax + 1`` where ``lmax`` is the maximum length
   of a sequence in the interpretation.

:class:`ExtendedDomain` maintains this set incrementally: adding a sequence
adds all of its subsequences and, if needed, enlarges the integer range.
This incremental behaviour is what makes the fixpoint computation practical:
each application of the ``T`` operator only has to extend the domain with
the sequences it created.

The domain only grows and is closed under subsequences (Lemma 1), so it is
stored in insertion order: an append-only list of sequences plus a map from
each sequence's text to its position.  Every earlier state of the domain is
a prefix of that order, so :meth:`ExtendedDomain.view` pins one in O(1) as
a *watermark* -- the list length and ``lmax`` at that moment.  The
resulting :class:`DomainView` answers exactly as of its watermark while the
domain keeps growing behind it; the serving layer publishes its snapshots
this way instead of copying the domain.
"""

from __future__ import annotations

from itertools import islice
from typing import AbstractSet, Dict, Iterable, Iterator, List

from repro.sequences.sequence import Sequence, as_sequence


class DomainView(AbstractSet[Sequence]):
    """An extended domain as it stood at one watermark of its insertion order.

    A read-only set of the domain's sequences that also answers membership
    of the domain's integers.  It shares the storage of the
    :class:`ExtendedDomain` it was taken from, whose later additions it
    never sees: membership is ``position < watermark`` and iteration stops
    at the watermark.  Safe to read from other threads while the domain
    grows.
    """

    __slots__ = ("_order", "_position", "_length", "_max_length")

    def __init__(
        self,
        order: List[Sequence],
        position: Dict[str, int],
        length: int,
        max_length: int,
    ):
        self._order = order
        self._position = position
        self._length = length
        self._max_length = max_length

    @classmethod
    def _from_iterable(cls, iterable: Iterable[Sequence]) -> frozenset:
        # The set operators (``|``, ``&``, ``-``, ``^``) build their result
        # through this hook: a plain set, since a difference or an
        # intersection need not be closed under subsequences.
        return frozenset(iterable)

    @property
    def max_length(self) -> int:
        """Length ``lmax`` of the longest sequence in the domain."""
        return self._max_length

    def sequences(self) -> DomainView:
        """The sequence part of the domain: this read-only set, not a copy."""
        return self

    def integers(self) -> range:
        """The integer part of the extension: ``0 .. lmax + 1`` inclusive."""
        return range(0, self._max_length + 2)

    def __contains__(self, value: object) -> bool:
        if isinstance(value, int):
            return 0 <= value <= self._max_length + 1
        text = as_sequence(value).text  # type: ignore[arg-type]
        return self._position.get(text, self._length) < self._length

    def __len__(self) -> int:
        return self._length

    def __iter__(self) -> Iterator[Sequence]:
        return islice(self._order, self._length)

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}({self._length} sequences, "
            f"lmax={self._max_length})"
        )

    def sorted_sequences(self) -> List[Sequence]:
        """The sequences ordered by (length, text) — useful for stable output."""
        return sorted(self, key=lambda s: (len(s), s.text))


class ExtendedDomain(DomainView):
    """The extension ``dom_ext`` of a set of sequences.

    The domain is mutable (sequences can be added) but never shrinks, which
    mirrors Lemma 1 of the paper: if ``I1 ⊆ I2`` then
    ``Dext(I1) ⊆ Dext(I2)``.

    Examples
    --------
    >>> dom = ExtendedDomain(["abc"])
    >>> Sequence("bc") in dom
    True
    >>> dom.max_length
    3
    >>> sorted(dom.integers())[-1]
    4
    >>> pinned = dom.view()
    >>> dom.add("xabcd")
    True
    >>> Sequence("xa") in pinned, len(pinned), pinned.max_length
    (False, 7, 3)
    """

    __slots__ = ()

    def __init__(self, sequences: Iterable = ()):  # type: ignore[assignment]
        # The empty sequence is a subsequence of every sequence; for the
        # empty domain the integer range is {0, 1} and epsilon is present so
        # that rules such as ``p(=, =) <- true`` can fire on any database.
        empty = Sequence("")
        super().__init__([empty], {empty.text: 0}, 1, 0)
        self.add_all(sequences)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add(self, value) -> bool:
        """Add a sequence and all its contiguous subsequences.

        Returns ``True`` if the domain grew (the sequence was new).
        """
        text = as_sequence(value).text
        position = self._position
        if text in position:
            return False
        order = self._order
        end = len(text)
        if end > self._max_length:
            self._max_length = end
        # The domain is closed under subsequences, so a fragment already
        # present brings all of its prefixes along: each start position
        # adds its fragments longest first and stops at the first present
        # one.  A whole suffix already present brings every fragment that
        # starts later along too.  Probing raw strings keeps Sequence
        # interning for the fragments actually added.
        for start in range(end):
            stop = end
            while stop > start and (fragment := text[start:stop]) not in position:
                member = Sequence(fragment)
                position[member.text] = len(order)
                order.append(member)
                stop -= 1
            if stop == end:
                break
        self._length = len(order)
        return True

    def add_all(self, values: Iterable) -> bool:
        """Add every sequence in ``values``; return True if any was new."""
        grew = False
        for value in values:
            if self.add(value):
                grew = True
        return grew

    def view(self) -> DomainView:
        """Pin the domain as it stands now, in O(1) and without a copy."""
        return DomainView(self._order, self._position, self._length, self._max_length)

    def copy(self) -> ExtendedDomain:
        """An independent copy of the domain."""
        clone = ExtendedDomain()
        clone._order = self._order[:]
        clone._position = self._position.copy()
        clone._length = self._length
        clone._max_length = self._max_length
        return clone


def extension_of(sequences: Iterable) -> ExtendedDomain:
    """Build the extension ``dom_ext`` of an iterable of sequences."""
    return ExtendedDomain(sequences)
