"""Degree vectors in N^k, used to grade paths in a k-graph.

A degree is a plain tuple of k nonnegative ints. Colors are 1-based
everywhere in the public API.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Tuple

Degree = Tuple[int, ...]


def zero(k: int) -> Degree:
    return (0,) * k


def sub(m: Degree, n: Degree) -> Degree:
    """Componentwise difference; raises if any component would go negative."""
    out = tuple(a - b for a, b in zip(m, n))
    if any(c < 0 for c in out):
        raise ValueError("degree %r is not componentwise >= %r" % (m, n))
    return out


def join(m: Degree, n: Degree) -> Degree:
    return tuple(map(max, m, n))


def meet(m: Degree, n: Degree) -> Degree:
    return tuple(map(min, m, n))


def leq(m: Degree, n: Degree) -> bool:
    return all(a <= b for a, b in zip(m, n))


def total(m: Degree) -> int:
    return sum(m)


def below(n: Degree) -> Iterator[Degree]:
    """All degrees m with m <= n, in lexicographic order."""
    return itertools.product(*(range(c + 1) for c in n))


def parse_degree(text: str, k: int) -> Degree:
    """Parse a comma-separated degree like "2,1" and check its length."""
    parts = [p.strip() for p in text.split(",")]
    try:
        vec = tuple(int(p) for p in parts)
    except ValueError:
        raise ValueError("bad degree %r: expected comma-separated integers" % text)
    if len(vec) != k:
        raise ValueError("degree %r has %d components, expected %d" % (text, len(vec), k))
    if any(c < 0 for c in vec):
        raise ValueError("degree %r has a negative component" % text)
    return vec
