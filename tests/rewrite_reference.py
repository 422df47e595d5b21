"""Tuple-keyed Laplacian rewrite, a reference for the integer-keyed engine.

This is the rewrite `conversion.laplacian_power_at_zero` ran before its
multi-indices became mixed-radix integer keys: the same rule and the same
pruning, with every term keyed by its exponent tuple.
"""

from collections import defaultdict
from typing import Dict, Tuple


def tuple_rewrite_at_zero(P: Tuple[int, ...], k: int) -> int:
    """Delta^k |z^P|^2 at the origin, as a Python integer.

    One step is
      Delta|z^A|^2 = sum_{i: a_i>0} a_i^2 (|z^{A-e_i}|^2 + sum_j |z^{A-e_i+e_j}|^2)
                     + |A|^2 (|z^A|^2 + sum_j |z^{A+e_j}|^2);
    a term whose degree exceeds the steps left is dropped.
    """
    n = len(P)
    state = {tuple(P): 1}
    for left in range(k - 1, -1, -1):
        nxt: Dict[Tuple[int, ...], int] = defaultdict(int)
        for A, c in state.items():
            d = sum(A)
            if d > left + 1:
                continue
            for i, a in enumerate(A):
                if a:
                    w = c * a * a
                    low = A[:i] + (a - 1,) + A[i + 1:]
                    nxt[low] += w
                    if d <= left:
                        for j in range(n):
                            nxt[low[:j] + (low[j] + 1,) + low[j + 1:]] += w
            if 0 < d <= left:
                w = c * d * d
                nxt[A] += w
                if d < left:
                    for j in range(n):
                        nxt[A[:j] + (A[j] + 1,) + A[j + 1:]] += w
        state = nxt
    return state.get((0,) * n, 0)
