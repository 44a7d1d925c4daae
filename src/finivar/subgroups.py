"""Subgroup classes of small permutation groups.

Every subgroup is a join of cyclic subgroups, so a breadth-first search that
joins each found subgroup with every cyclic subgroup reaches them all (the
cyclic extension method: Neubüser 1960; Holt, Eick and O'Brien, *Handbook of
Computational Group Theory*, 2005, §3.3).  It runs on integer ids of a
lexicographic listing (so sorted ids are sorted image tuples, and the
identity is 0): products are read from ``array`` rows, inverses from the
walk over each element's powers that finds the cyclic subgroups, and a
subgroup is a ``bytearray`` of membership flags whose ``bytes`` are its key.
``subgroup_conjugacy_classes(n)`` searches S_n's listing,
``itertools.permutations(range(n))``, with the table joined from blocks of
S_(n-1)'s rows (``_symmetric_rows``), and builds no group and no
``Permutation``.  ``subgroup_classes`` searches a ``PermutationGroup``'s
element order, with the table of ``_id_tables``: S_k on the k points it
moves gets the block table, with no tuple composed; any other group composes
only its generators' rows.  S_n's table still has n!^2 entries, so
``MAX_EXACT_DEGREE`` is a cost guard, not an exactness limit.
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
is conjugate to <H, g>, so its class is known.  Nor is H joined with a g
when some power of g lies in hH ∪ Hh for a join J = <H, h> closed before
that holds g: then <H, g> = J, a subgroup already seen.  It also returns
each |N(H)|, since H has |G| / |N(H)| conjugates: subgroups are counted, not
listed.
One coset test (``_conjugators``) serves both the class test and N(H): m
conjugates K into F exactly when every element of m K does, so each left
coset of K is tested once, through its first element.  A join is new unless
some coset of a known representative K conjugates K into it, and N(H) is the
union of the cosets of H that conjugate H into itself.
"""

from __future__ import annotations

import itertools
import math
from array import array
from collections import Counter
from functools import lru_cache
from operator import itemgetter
from typing import Iterator, Sequence

from ._record import Frozen
from .groups import PermutationGroup

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


def _symmetric_degree(group: PermutationGroup) -> int | None:
    """k when ``group`` is the full symmetric group S_k on the k points its
    generators move, which holds exactly when its order is k!; else None."""
    moved = sum(any(g.images[x] != x for g in group.generators) for x in range(group.space.size))
    return moved if group.order == math.factorial(moved) else None


def _id_tables(group: PermutationGroup, degree: int | None) -> list[array]:
    """Product table of ``group`` on its ids: ``mul[a][b]`` is the id of a∘b
    (apply b, then a).  ``degree`` is ``_symmetric_degree(group)``.

    S_k on the k points it moves has the table of S_k on 0..k-1, since
    relabelling the moved points in their order keeps both the lexicographic
    order and the products; it is joined from blocks of S_(k-1)'s rows
    (``_symmetric_rows``) and composes no tuple.  Any other group composes
    only its generators' rows (``PermutationGroup.generator_rows``); the row
    of s∘x is the row of s read through the row of x.
    """
    size = group.order
    code = "H" if size <= 1 << 16 else "I"
    if degree is not None:
        return _symmetric_rows(degree, code)
    rows = [row for _, row in group.generator_rows()]
    mul, reached = [array(code, range(size))] + [None] * (size - 1), [0]
    for x in reached:  # breadth-first from the identity, reading the list as it grows
        for row in rows:
            if mul[row[x]] is None:
                mul[row[x]] = array(code, itemgetter(*mul[x])(row))
                reached.append(row[x])
    return mul


def _symmetric_rows(n: int, code: str) -> list[array]:
    """The product rows of S_n on lexicographic ids, built by blocks.

    The ids j·(n-1)! .. (j+1)·(n-1)! - 1 are the b with b[0] = j, in the order
    of their tails.  Row a maps that block onto block a[j], and inside it the
    offsets are S_(n-1)'s row r_j(a): a with position j removed and its values
    standardised.  r_0(a) = id(a) mod (n-1)!, and for j >= 1
    r_j(a) = (a[0] - [a[0] > a[j]])·(n-2)! + r_(j-1)(tail of a).  So S_k's rows
    are kept as ``bytes`` shifted by every multiple of k! below n!, each joined
    from k of S_(k-1)'s, with no arithmetic per entry; S_n's rows are joined
    straight into arrays.
    """
    size = math.factorial(n)
    width = array(code).itemsize
    flat = array(code, range(size)).tobytes()
    level = [flat[i * width : (i + 1) * width] for i in range(size)]  # S_1's row, shifted by i
    removed = [[0]]  # removed[id(a)][j] = r_j(a), for a in S_(k-1)
    for k in range(2, n + 1):
        unit, sub = math.factorial(k - 1), math.factorial(k - 2)
        getters, below, removed = [], removed, []
        for rank, a in enumerate(itertools.permutations(range(k))):
            tail = below[rank % unit]
            r = [rank % unit] + [(a[0] - (a[0] > a[j])) * sub + tail[j - 1] for j in range(1, k)]
            removed.append(r)
            # at shift t·k!, block j is S_(k-1)'s row r_j(a) shifted by t·k! + a[j]·(k-1)!
            getters.append(itemgetter(*(a[j] * unit + r[j] for j in range(k))))
        if k == n:
            return [array(code, b"".join(get(level))) for get in getters]
        block = unit * k
        level = [b"".join(get(level[t : t + block])) for t in range(0, size, block) for get in getters]
    return [array(code, flat)]  # n <= 1


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


def _conjugators(
    flags: bytearray, ids: list[int], gens: tuple[int, ...], mul: Sequence[array], inv: Sequence[int]
) -> Iterator[tuple[int, ...]]:
    """Each left coset m K, as ids with m first and m ascending, whose elements
    conjugate the subgroup K (ascending ``ids``, generated by ``gens``) into
    the subgroup ``flags``.

    Coset elimination: (mk) K (mk)^-1 = m K m^-1, so a coset passes or fails
    as its first element m does, and is tested once.  For K = ``flags`` the
    passing cosets make up the normaliser of K.
    """
    # itemgetter of one id gives a bare id, not a tuple; K = {0} gives m's coset {m}
    coset = itemgetter(*ids) if len(ids) > 1 else lambda row: (row[0],)
    gen_rows = [mul[x] for x in gens]
    seen = bytearray(len(mul))
    for m in range(len(mul)):
        if seen[m]:
            continue
        row, m_inv = mul[m], inv[m]
        members = coset(row)
        for c in members:
            seen[c] = 1
        for x_row in gen_rows:
            if not flags[row[x_row[m_inv]]]:
                break
        else:
            yield members


def _cyclic_subgroups(mul: Sequence[array]) -> tuple[list[int], list[int], list[list[int]]]:
    """The cyclic subgroups, each by its least generator id, in (order, element
    ids) order; for each element, the least generator id of the cyclic subgroup
    it generates; and each element g's powers g^0 = e, g, g^2, ... up to the
    last before the identity, which is g's inverse."""
    cyclic: dict[frozenset[int], int] = {}
    least, walks = [], []
    for g in range(len(mul)):
        powers = [0]
        while mul[powers[-1]][g] != 0:
            powers.append(mul[powers[-1]][g])
        least.append(cyclic.setdefault(frozenset(powers), g))
        walks.append(powers)
    cyclics = [g for _, g in sorted(cyclic.items(), key=lambda kv: (len(kv[0]), sorted(kv[0])))]
    return cyclics, least, walks


def _joined_before(powers: list[int], joins: list[bytearray | None]) -> bool:
    """Whether <H, g> is a join J = <H, h> closed before, for g = ``powers[1]``
    and ``powers`` its walk: some power x of g lies in hH ∪ Hh, so h is in
    <H, g> and J <= <H, g>, and g is in J, so <H, g> <= J."""
    g = powers[1]
    return any(joins[x] is not None and joins[x][g] for x in powers[1:])


def _cyclic_extension(
    mul: Sequence[array],
    cycle_types: Sequence[tuple[int, ...]],
    symmetric: tuple[int, bytearray] | None,
) -> list[tuple[list[int], tuple[int, ...], int]]:
    """Join-BFS from the trivial group over the cyclic subgroups, pruned by normalisers.

    Cyclic subgroups are joined in (order, element ids) order, each by its
    least generator id.  A distinct join starts a new class unless a known
    representative with the same counts of ``cycle_types`` (which conjugation
    preserves) conjugates into it; the first of each class is joined further
    and returned, with the trivial group, as (ascending ids, generator ids,
    normaliser order) sorted by (order, ids).  A base is joined only with the
    first cyclic subgroup of each orbit of its normaliser, so joins conjugate
    under it are tested once, and not with a g whose join is one it has
    closed already (``_joined_before``).  ``symmetric`` is passed on to every
    closure (see ``close_tuples``).
    """
    cyclics, least, powers = _cyclic_subgroups(mul)
    inv = [walk[-1] for walk in powers]
    known: dict[tuple, list[tuple[list[int], tuple[int, ...]]]] = {}
    frontier = [(close_tuples((), mul), ())]
    seen = {bytes(frontier[0][0])}
    found = []
    while frontier:
        next_frontier = []
        for base, base_gens in frontier:
            base_ids = list(itertools.compress(range(len(mul)), base))
            cosets = _conjugators(base, base_ids, base_gens, mul, inv)
            normaliser = [(mul[m], inv[m]) for coset in cosets for m in coset]  # each m in N(H)
            found.append((base_ids, base_gens, len(normaliser)))
            done = bytearray(base)  # a g in H joins nothing new
            joins = [None] * len(mul)  # x: the last join <H, h> closed with x in hH ∪ Hh
            for g in cyclics:
                if done[g]:
                    continue
                for row, m_inv in normaliser:
                    done[least[mul[row[g]][m_inv]]] = 1
                if _joined_before(powers[g], joins):
                    continue
                gens = base_gens + (g,)
                joined = close_tuples(gens, mul, base_ids, symmetric)
                row = mul[g]
                for a in base_ids:
                    joins[row[a]] = joins[mul[a][g]] = joined
                key = bytes(joined)
                if key in seen:
                    continue
                seen.add(key)
                counts = Counter(itertools.compress(cycle_types, joined))
                bucket = known.setdefault(tuple(sorted(counts.items())), [])
                if not any(any(_conjugators(joined, ids, ks, mul, inv)) for ids, ks in bucket):
                    bucket.append((list(itertools.compress(range(len(mul)), joined)), gens))
                    next_frontier.append((joined, gens))
        frontier = next_frontier
    return sorted(found, key=lambda item: (len(item[0]), item[0]))


class SubgroupClass(Frozen):
    """A conjugacy-class representative with a small generating set, and the
    number of subgroups in its class (the index of its normaliser)."""

    elements: tuple[tuple[int, ...], ...]
    generators: tuple[tuple[int, ...], ...]
    conjugates: int

    @property
    def order(self) -> int:
        return len(self.elements)


def subgroup_classes(group: PermutationGroup) -> tuple[SubgroupClass, ...]:
    """Every subgroup of ``group``, one per class under conjugation by it.

    Deterministic: the first subgroup found in each class represents it, and
    the returned classes are sorted by (order, element list).
    """
    moved = _symmetric_degree(group)
    return _classes([p.images for p in group.elements], _id_tables(group, moved), moved)


def _classes(
    members: Sequence[tuple[int, ...]], mul: Sequence[array], moved: int | None
) -> tuple[SubgroupClass, ...]:
    """The classes of the group listed by ``members`` (image tuples in id
    order) with product table ``mul``; ``moved`` is k when the group is S_k
    on the k points it moves (``_symmetric_degree``), read only when k >= 5."""
    cycle_types = [_cycle_type(p) for p in members]
    symmetric = None
    # S_k on the k >= 5 points it moves: a join past |G| / k elements is A_k or S_k
    if moved is not None and moved >= 5:
        even = bytearray((len(members[0]) - len(t)) % 2 == 0 for t in cycle_types)
        symmetric = (len(members) // moved, even)
    return tuple(
        SubgroupClass(
            tuple(members[i] for i in ids), tuple(members[g] for g in gens), len(members) // normaliser
        )
        for ids, gens, normaliser in _cyclic_extension(mul, cycle_types, symmetric)
    )


@lru_cache(maxsize=None)
def subgroup_conjugacy_classes(n: int) -> tuple[SubgroupClass, ...]:
    """All subgroups of the degree-n symmetric group, one per conjugacy class,
    searched on ``itertools.permutations(range(n))``: the ids ``generate``
    would give S_n, with no group built."""
    if type(n) is not int or n < 1:
        raise ValueError(f"degree must be a positive integer, got {n!r}")
    if n > MAX_EXACT_DEGREE:
        raise ValueError(
            f"subgroup classes are computed only up to degree {MAX_EXACT_DEGREE} "
            f"(the table of S_n has n!^2 entries), got {n}"
        )
    return _classes(list(itertools.permutations(range(n))), _symmetric_rows(n, "H"), n)  # n! < 2^16
