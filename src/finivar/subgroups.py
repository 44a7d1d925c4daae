"""Subgroup classes of small permutation groups.

Every subgroup is a join of cyclic subgroups, so a breadth-first search that
joins each found subgroup with every cyclic subgroup reaches them all (the
cyclic extension method: Neubüser 1960; Holt, Eick and O'Brien, *Handbook of
Computational Group Theory*, 2005, §3.3).  It runs on integer ids: a group's
elements are numbered in lexicographic order (so sorted ids are sorted image
tuples, and the identity is 0), products and inverses are read from the
``array`` rows of ``spaces._id_tables``, and a subgroup is a ``bytearray`` of
membership flags whose ``bytes`` are its key.  S_n's table is joined from
blocks of S_(n-1)'s rows, with no tuple composed, but it still has n!^2
entries, so ``MAX_EXACT_DEGREE`` is a cost guard, not an exactness limit.
Everything is ordered deterministically so downstream counts are stable
across runs.

A closure stops once it holds more than half the elements: by Lagrange it is
then the whole group.  When the group is the full symmetric group S_k on the
k >= 5 points it moves, a closure stops sooner, once it holds more than
|G| / k elements: its index is then below k, and for k >= 5 the only such
subgroups of S_k are A_k and S_k (Dixon and Mortimer, *Permutation Groups*,
1996, §5.2), so the parity of its generators decides which.

Every search joins a base H only with the first cyclic subgroup of each orbit
of its normaliser N(H): for m in N(H), the join <H, m g m^-1> = m <H, g> m^-1
is conjugate to <H, g>, so its class is known.  It also returns each |N(H)|,
since H has |G| / |N(H)| conjugates: subgroups are counted, not listed.
N(H) is found by coset elimination: it grows from N0 = H, an m that fails to
normalise H rules out its whole coset m N0, and one that passes is joined to
N0 with one closure.  The class test rules out cosets the same way: if m does
not conjugate a known representative K into a join, no element of m K does.
"""

from __future__ import annotations

import itertools
import math
from array import array
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from operator import itemgetter
from typing import Callable, Iterable, Sequence

from .spaces import _id_tables

__all__ = ["SubgroupClass", "subgroup_classes", "subgroup_conjugacy_classes", "MAX_EXACT_DEGREE"]

MAX_EXACT_DEGREE = 6


def _cycle_type(p: tuple[int, ...]) -> tuple[int, ...]:
    seen: set[int] = set()
    lengths = []
    for start in range(len(p)):
        j, length = start, 0
        while j not in seen:
            seen.add(j)
            j, length = p[j], length + 1
        if length:
            lengths.append(length)
    return tuple(sorted(lengths, reverse=True))


def close_tuples(
    generators: tuple[int, ...],
    mul: Sequence[array],
    base: Sequence[int] = (0,),
    symmetric: tuple[int, bytearray] | None = None,
) -> bytearray:
    """Membership flags of the group generated by the subgroup ``base`` (ids) and ``generators``.

    Dimino's algorithm: the result is a union of left cosets yH of H = base,
    so it grows a coset at a time.  Each coset's first element is multiplied
    by every generator; a product outside the cosets so far starts a new one.
    ``generators`` must generate H too.  Past half the elements it is the
    whole group (Lagrange).  ``symmetric`` is (|G| / k, flags of A_k), given
    only when the group is S_k on the k >= 5 points it moves: past |G| / k
    elements the closure is A_k if every generator is even, else S_k.
    """
    flags = bytearray(len(mul))
    members = list(base)
    for h in members:
        flags[h] = 1
    coset = itemgetter(*base) if len(base) > 1 else lambda row: (row[base[0]],)
    rows = [mul[g] for g in generators]
    first, cutoff = 0, len(mul) // 2 if symmetric is None else symmetric[0]
    while first < len(members):
        y = members[first]
        for row in rows:
            z = row[y]
            if not flags[z]:
                new = coset(mul[z])
                members.extend(new)
                if len(members) > cutoff:
                    if symmetric is not None and all(symmetric[1][g] for g in generators):
                        return bytearray(symmetric[1])
                    return bytearray(b"\x01") * len(mul)
                for c in new:
                    flags[c] = 1
        first += len(base)
    return flags


def _conjugates_into(
    flags: bytearray, gens: Sequence[int], m: int, mul: Sequence[array], inv: Sequence[int]
) -> bool:
    """Whether m x m^-1 is in ``flags`` for every x in ``gens``: whether m
    conjugates the subgroup ``gens`` generate into the subgroup ``flags``."""
    row, m_inv = mul[m], inv[m]
    return all(flags[row[mul[x][m_inv]]] for x in gens)


def _is_conjugate_into(
    flags: bytearray, ids: list[int], gens: tuple[int, ...], mul: Sequence[array], inv: Sequence[int]
) -> bool:
    """Whether some m conjugates the subgroup K (ascending ``ids``, generated
    by ``gens``) into the subgroup ``flags``.

    If m fails, so does every element mk of its coset m K, since
    (mk) K (mk)^-1 = m K m^-1; the whole coset is ruled out.
    """
    ruled_out, coset = bytearray(len(mul)), itemgetter(*ids)
    for m in range(len(mul)):
        if ruled_out[m]:
            continue
        if _conjugates_into(flags, gens, m, mul, inv):
            return True
        for c in coset(mul[m]):  # m fails, so K is not trivial
            ruled_out[c] = 1
    return False


def _normaliser(
    flags: bytearray,
    ids: list[int],
    gens: tuple[int, ...],
    mul: Sequence[array],
    inv: Sequence[int],
    symmetric: tuple[int, bytearray] | None,
) -> list[int]:
    """The ids of the normaliser of the subgroup H (``flags``, ascending ``ids``,
    generated by ``gens``), ascending, by coset elimination.

    N0 starts as H and is always a subgroup of N(H).  Each id m outside N0
    and not yet ruled out is tested: if m fails to normalise H, so does every
    element of m N0, which is ruled out; if it passes, N0 becomes <N0, m>.
    """
    found, found_ids, found_gens = flags, ids, gens
    ruled_out = bytearray(len(mul))
    for m in range(len(mul)):
        if found[m] or ruled_out[m]:
            continue
        if _conjugates_into(flags, gens, m, mul, inv):
            found_gens += (m,)
            found = close_tuples(found_gens, mul, found_ids, symmetric)
            found_ids = list(itertools.compress(range(len(mul)), found))
        else:
            for c in itemgetter(*found_ids)(mul[m]):  # m fails, so H and N0 are not trivial
                ruled_out[c] = 1
    return found_ids


def _cyclic_extension(
    mul: Sequence[array],
    accept: Callable[[bytearray, tuple[int, ...]], bool],
    inv: Sequence[int],
    symmetric: tuple[int, bytearray] | None,
) -> list[tuple[list[int], tuple[int, ...], int]]:
    """Join-BFS from the trivial group over the cyclic subgroups, pruned by normalisers.

    Cyclic subgroups are joined in (order, element ids) order, each by its
    least generator id.  Each distinct join is offered once to ``accept``;
    accepted ones are joined further and returned, with the trivial group, as
    (ascending ids, generator ids, normaliser order) sorted by (order, ids).
    A base is joined only with the first cyclic subgroup of each orbit of its
    normaliser, so joins conjugate under it are offered once.  ``symmetric``
    is passed on to every closure (see ``close_tuples``).
    """
    cyclic: dict[frozenset[int], int] = {}
    least = []  # element id -> least generator id of the cyclic subgroup it generates
    for g in range(len(mul)):
        powers = [0]
        while mul[powers[-1]][g] != 0:
            powers.append(mul[powers[-1]][g])
        least.append(cyclic.setdefault(frozenset(powers), g))
    cyclics = [g for _, g in sorted(cyclic.items(), key=lambda kv: (len(kv[0]), sorted(kv[0])))]

    frontier = [(close_tuples((), mul), ())]
    seen = {bytes(frontier[0][0])}
    found = []
    while frontier:
        next_frontier = []
        for base, base_gens in frontier:
            base_ids = list(itertools.compress(range(len(mul)), base))
            normaliser = _normaliser(base, base_ids, base_gens, mul, inv, symmetric)
            found.append((base_ids, base_gens, len(normaliser)))
            done = bytearray(len(mul))
            for g in cyclics:
                if base[g] or done[g]:
                    continue
                for m in normaliser:
                    done[least[mul[mul[m][g]][inv[m]]]] = 1
                gens = base_gens + (g,)
                joined = close_tuples(gens, mul, base_ids, symmetric)
                key = bytes(joined)
                if key not in seen:
                    seen.add(key)
                    if accept(joined, gens):
                        next_frontier.append((joined, gens))
        frontier = next_frontier
    return sorted(found, key=lambda item: (len(item[0]), item[0]))


@dataclass(frozen=True)
class SubgroupClass:
    """A conjugacy-class representative with a small generating set, and the
    number of subgroups in its class (the index of its normaliser)."""

    elements: tuple[tuple[int, ...], ...]
    generators: tuple[tuple[int, ...], ...]
    conjugates: int

    @property
    def order(self) -> int:
        return len(self.elements)


def subgroup_classes(elements: Iterable[tuple[int, ...]]) -> tuple[SubgroupClass, ...]:
    """Every subgroup of the permutation group ``elements``, one per class
    under conjugation by that group.

    A join starts a new class unless a known representative with the same
    cycle-type counts (which conjugation preserves) conjugates into it.
    Deterministic: the first subgroup found in each class represents it, and
    the returned classes are sorted by (order, element list).  Raises
    ``ValueError`` unless the elements are permutations of one degree that
    form a group.
    """
    members = sorted(set(elements))
    degree = len(members[0]) if members else 0
    points = list(range(degree))
    for p in members:
        if sorted(p) != points:
            if len(p) != degree:
                raise ValueError(f"elements permute different numbers of points: {degree} and {len(p)}")
            raise ValueError(f"not a permutation of 0..{degree - 1}: {p}")
    mul, inv = _id_tables(members)
    cycle_types = [_cycle_type(p) for p in members]
    # S_k on the k >= 5 points it moves: a join past |G| / k elements is A_k or S_k
    moved = sum(1 for i in points if any(p[i] != i for p in members))
    symmetric = None
    if moved >= 5 and len(members) == math.factorial(moved):
        even = bytearray((degree - len(t)) % 2 == 0 for t in cycle_types)
        symmetric = (len(members) // moved, even)
    known: dict[tuple, list[tuple[list[int], tuple[int, ...]]]] = {}

    def is_new_class(flags: bytearray, gens: tuple[int, ...]) -> bool:
        counts = Counter(itertools.compress(cycle_types, flags))
        bucket = known.setdefault(tuple(sorted(counts.items())), [])
        for known_ids, known_gens in bucket:
            if _is_conjugate_into(flags, known_ids, known_gens, mul, inv):
                return False
        bucket.append((list(itertools.compress(range(len(mul)), flags)), gens))
        return True

    return tuple(
        SubgroupClass(
            tuple(members[i] for i in ids), tuple(members[g] for g in gens), len(members) // normaliser
        )
        for ids, gens, normaliser in _cyclic_extension(mul, is_new_class, inv, symmetric)
    )


@lru_cache(maxsize=None)
def subgroup_conjugacy_classes(n: int) -> tuple[SubgroupClass, ...]:
    """All subgroups of the degree-n symmetric group, one per conjugacy class."""
    if type(n) is not int or n < 1:
        raise ValueError(f"degree must be a positive integer, got {n!r}")
    if n > MAX_EXACT_DEGREE:
        raise ValueError(
            f"subgroup classes are computed only up to degree {MAX_EXACT_DEGREE} "
            f"(the table of S_n has n!^2 entries), got {n}"
        )
    return subgroup_classes(itertools.permutations(range(n)))
