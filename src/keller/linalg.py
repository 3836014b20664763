"""Solving a consistent sparse linear system over Q for one solution.

Rows are sparse dicts mapping an arbitrary hashable column key to a nonzero
int or Fraction; solutions are Fractions. This is the linear step of
``groebner.subring_membership``; it goes, with this module, once
membership runs by substitution alone (ROADMAP item 2).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Hashable, List, Optional, Tuple, Union

SparseRow = Dict[Hashable, Union[int, Fraction]]


def _pick_pivot(row: SparseRow):
    # deterministic: smallest column key under sorted order of repr-stable keys
    return min(row)


def solve_sparse(rows: List[SparseRow], target: SparseRow) -> Optional[List[Fraction]]:
    """Express ``target`` as a linear combination of ``rows`` if possible.

    Returns coefficients c with sum(c_i * rows_i) == target, else None.
    Column keys must be mutually comparable (same type).
    """
    n = len(rows)
    # echelon basis: list of (pivot_key, row, combo) with combo tracking
    # how the echelon row was built from the inputs
    echelon: List[Tuple[Hashable, SparseRow, List[Fraction]]] = []
    for i, raw in enumerate(rows):
        row = dict(raw)
        combo = [Fraction(0)] * n
        combo[i] = Fraction(1)
        for pivot, erow, ecombo in echelon:
            if pivot in row:
                factor = row[pivot]
                for k, v in erow.items():
                    nv = row.get(k, Fraction(0)) - factor * v
                    if nv:
                        row[k] = nv
                    else:
                        row.pop(k, None)
                for j in range(n):
                    if ecombo[j]:
                        combo[j] -= factor * ecombo[j]
        if not row:
            continue
        pivot = _pick_pivot(row)
        inv = Fraction(1) / row[pivot]
        row = {k: v * inv for k, v in row.items()}
        combo = [c * inv for c in combo]
        echelon.append((pivot, row, combo))
    # reduce the target
    rem = dict(target)
    out = [Fraction(0)] * n
    for pivot, erow, ecombo in echelon:
        if pivot in rem:
            factor = rem[pivot]
            for k, v in erow.items():
                nv = rem.get(k, Fraction(0)) - factor * v
                if nv:
                    rem[k] = nv
                else:
                    rem.pop(k, None)
            for j in range(n):
                if ecombo[j]:
                    out[j] += factor * ecombo[j]
    if rem:
        return None
    return out
