"""Reference answers written from the definitions, sharing no code with
kunzlab.

Every output the benchmark checks is compared against one of these:

* the Kunz conditions, scanned pair by pair (``violations``);
* the K_q census as a depth-first search that decides each condition as
  soon as its last index is placed (``census_words``), a different
  algorithm from the program's generate-and-test scan;
* a numerical semigroup from generators by reachability over [0, limit]
  (``semigroup_dict``), with the limit taken from the Schur bound on the
  Frobenius number;
* the admissible decompositions of the marked pumping experiment
  (``admissible_decompositions``), counted with prefix sums.
"""

from __future__ import annotations

import heapq
from functools import lru_cache


def violations(letters) -> list[tuple[str, int, int, int]]:
    """Failed Kunz conditions as (kind, i, j, target), 1-based, by (i, j)."""
    u = (0,) + tuple(letters)
    n = len(letters)
    out = []
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            if i + j <= n:
                if u[i] + u[j] < u[i + j]:
                    out.append(("first", i, j, i + j))
            elif i + j >= n + 2:
                t = i + j - (n + 1)
                if u[i] + u[j] + 1 < u[t]:
                    out.append(("second", i, j, t))
    return out


def is_kunz(letters) -> bool:
    return not violations(letters)


def in_language(letters, q: int) -> bool:
    """Membership in K_q: Kunz, largest letter exactly q."""
    return max(letters, default=0) == q and is_kunz(letters)


@lru_cache(maxsize=None)
def census_words(q: int, length: int) -> tuple[tuple[int, ...], ...]:
    """Every word of K_q of the given length, in lexicographic order."""
    if q == 0:
        return ((),) if length == 0 else ()
    u = [0] * (length + 1)
    out = []

    def place(p: int) -> None:
        if p > length:
            if max(u[1:], default=0) == q:
                out.append(tuple(u[1:]))
            return
        for v in range(1, q + 1):
            u[p] = v
            # first condition with target p
            if any(u[i] + u[p - i] < v for i in range(1, p // 2 + 1)):
                continue
            # second condition with j = p: its target t = i + p - length - 1
            # lies left of i, so every letter involved is placed
            if any(u[i] + v + 1 < u[i + p - length - 1]
                   for i in range(max(1, length + 2 - p), p + 1)):
                continue
            place(p + 1)
        u[p] = 0

    place(1)
    return tuple(out)


def census_count(q: int, length: int) -> int:
    return len(census_words(q, length))


def block_witness(q: int, n: int) -> tuple[int, ...]:
    """1^n 2^n ... (q-1)^n q."""
    return tuple(v for v in range(1, q) for _ in range(n)) + (q,)


def block_nonwitness(q: int, n: int, m: int) -> tuple[int, ...]:
    """1^(n+m) 2^n ... (q-1)^n q."""
    return (1,) * (n + m) + tuple(v for v in range(2, q) for _ in range(n)) + (q,)


@lru_cache(maxsize=256)
def semigroup_dict(gens: tuple[int, ...]) -> dict:
    """The wire form of the semigroup generated by ``gens`` (gcd 1)."""
    gens = sorted(set(gens))
    m = gens[0]
    if m == 1:
        return {"small_elements": [0], "conductor": 0, "multiplicity": 1,
                "frobenius": -1, "depth": 0, "apery": [0], "kunz": [],
                "genus": 0}
    limit = (m - 1) * (gens[-1] - 1) + m  # Frobenius < (m-1)(max-1)
    reach = bytearray(limit + 1)
    reach[0] = 1
    for x in range(1, limit + 1):
        reach[x] = any(g <= x and reach[x - g] for g in gens)
    frobenius = max(x for x in range(limit + 1) if not reach[x])
    conductor = frobenius + 1
    apery = [0] * m
    for r in range(1, m):
        apery[r] = next(x for x in range(r, limit + 1, m) if reach[x])
    return {
        "small_elements": [x for x in range(conductor) if reach[x]] + [conductor],
        "conductor": conductor,
        "multiplicity": m,
        "frobenius": frobenius,
        "depth": -(-conductor // m),
        "apery": apery,
        "kunz": [(apery[r] - r) // m for r in range(1, m)],
        "genus": conductor - sum(reach[:conductor]),
    }


def apery(gens) -> list[int]:
    """Least element of each residue class mod min(gens), by shortest
    paths over the residues (Nijenhuis); used to size generated inputs."""
    m = min(gens)
    dist = [0] + [None] * (m - 1)
    heap = [(0, 0)]
    while heap:
        d, r = heapq.heappop(heap)
        if d != dist[r]:
            continue
        for g in gens:
            t = (r + g) % m
            if dist[t] is None or d + g < dist[t]:
                dist[t] = d + g
                heapq.heappush(heap, (d + g, t))
    return dist


def word_generators(letters) -> tuple[int, ...]:
    """Generators of the semigroup whose Kunz word is ``letters``."""
    m = len(letters) + 1
    return (m,) + tuple(u * m + i for i, u in enumerate(letters, start=1))


def marking(letters, q: int) -> tuple[list[int], list[int]]:
    """Prefix counts of distinguished positions (the 1s) and excluded
    positions (first occurrence of each of 2..q)."""
    d = [0]
    e = [0]
    seen = set()
    for letter in letters:
        d.append(d[-1] + (letter == 1))
        first = letter >= 2 and letter not in seen
        seen.add(letter)
        e.append(e[-1] + first)
    return d, e


@lru_cache(maxsize=None)
def admissible_decompositions(q: int, p: int) -> frozenset[tuple[int, int, int, int]]:
    """Cut points of the block witness with n = p^q + 1 that satisfy the
    two marking conditions of the pumping experiment."""
    word = block_witness(q, p ** q + 1)
    d, e = marking(word, q)
    n = len(word)
    out = set()
    for c1 in range(n + 1):
        for c2 in range(c1, n + 1):
            dv, ev = d[c2] - d[c1], e[c2] - e[c1]
            if ev:
                break  # e only grows with c2
            for c3 in range(c2, n + 1):
                for c4 in range(c3, n + 1):
                    dy, ey = d[c4] - d[c3], e[c4] - e[c3]
                    if ey:
                        break
                    if dv + dy < 1:
                        continue
                    if d[c4] - d[c1] > p ** (e[c4] - e[c1] + 1):
                        continue
                    out.add((c1, c2, c3, c4))
    return frozenset(out)


def pumped(letters, cuts, k: int) -> tuple[int, ...]:
    c1, c2, c3, c4 = cuts
    w = tuple(letters)
    return w[:c1] + w[c1:c2] * k + w[c2:c3] + w[c3:c4] * k + w[c4:]
