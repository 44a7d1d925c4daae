"""Subgroup classes of small permutation groups.

Every subgroup is a join of cyclic subgroups, so a breadth-first search that
joins each found subgroup with every cyclic subgroup reaches them all (the
cyclic extension method: Neubüser 1960; Holt, Eick and O'Brien, *Handbook of
Computational Group Theory*, 2005, §3.3).  It runs on integer ids: a
``PermutationGroup`` numbers its elements in lexicographic order (so sorted
ids are sorted image tuples, and the identity is 0), products and inverses
are read from the ``array`` rows of ``_id_tables``, and a subgroup is a
``bytearray`` of membership flags whose ``bytes`` are its key.  S_k on the k
points it moves gets a table joined from blocks of S_(k-1)'s rows, with no
tuple composed; any other group composes only its generators' rows.  S_n's
table still has n!^2 entries, so ``MAX_EXACT_DEGREE`` is a cost guard, not
an exactness limit.
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
from typing import Callable, Sequence

from .groups import Permutation, PermutationGroup
from .spaces import PointSpace

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


def _id_tables(group: PermutationGroup) -> tuple[list[array], array]:
    """Product and inverse tables of ``group`` on its ids: ``mul[a][b]`` is the
    id of a∘b (apply b, then a), ``inv[a]`` the id of a's inverse.

    S_k on the k points it moves has the table of S_k on 0..k-1, since
    relabelling the moved points in their order keeps both the lexicographic
    order and the products; it is joined from blocks of S_(k-1)'s rows
    (``_symmetric_rows``) and composes no tuple.  Any other group composes
    only its generators' rows (``PermutationGroup.generator_rows``); the row
    of s∘x is the row of s read through the row of x.
    """
    size = group.order
    code = "H" if size <= 1 << 16 else "I"
    degree = _symmetric_degree(group)
    if degree is not None:
        mul = _symmetric_rows(degree, code)
    else:
        rows = [row for _, row in group.generator_rows()]
        mul, reached = [array(code, range(size))] + [None] * (size - 1), [0]
        for x in reached:  # breadth-first from the identity, reading the list as it grows
            for row in rows:
                if mul[row[x]] is None:
                    mul[row[x]] = array(code, itemgetter(*mul[x])(row))
                    reached.append(row[x])
    return mul, array(code, [group.index(p.inverse()) for p in group.elements])


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


def subgroup_classes(group: PermutationGroup) -> tuple[SubgroupClass, ...]:
    """Every subgroup of ``group``, one per class under conjugation by it.

    A join starts a new class unless a known representative with the same
    cycle-type counts (which conjugation preserves) conjugates into it.
    Deterministic: the first subgroup found in each class represents it, and
    the returned classes are sorted by (order, element list).
    """
    members = [p.images for p in group.elements]
    mul, inv = _id_tables(group)
    cycle_types = [_cycle_type(p) for p in members]
    # S_k on the k >= 5 points it moves: a join past |G| / k elements is A_k or S_k
    moved, symmetric = _symmetric_degree(group), None
    if moved is not None and moved >= 5:
        even = bytearray((group.space.size - len(t)) % 2 == 0 for t in cycle_types)
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
    # S_n is generated by a transposition and an n-cycle
    cycle = Permutation(tuple(range(1, n)) + (0,))
    swap = Permutation((1, 0) + tuple(range(2, n))) if n > 1 else cycle
    space = PointSpace(id=f"S{n}", labels=tuple(map(str, range(n))))
    return subgroup_classes(PermutationGroup.generate(space, (swap, cycle)))
