"""Test oracle: the last-column cofactors of a Casoratian block by the generic Laplace
recursion, on the scalars of either backend with their own arithmetic.

The package computes the same cofactors in numkernel._gcofactors on each backend's
loaded values (row bit masks, None for an exact zero); this is the recursion written
plainly on row tuples, and serves as its reference beside polycore.det_dense.
"""

from itertools import combinations


def last_column_cofactors(block, scalars):
    """Cofactors C_j of the last column of [block | y], block n x (n-1).

    det[block | y] = sum_j C_j y_j for every column y.  The minors grow a
    column at a time by Laplace expansion over row subsets, so the C_j share
    them and no division is needed.
    """
    n = len(block)
    minors = {(): scalars.one}   # rows -> minor on those rows and the first len(rows) columns
    for k in range(n - 1):
        grown = {}
        for rows in combinations(range(n), k + 1):
            acc = scalars.zero
            for i, r in enumerate(rows):
                term = block[r][k] * minors[rows[:i] + rows[i + 1:]]
                acc = acc + term if (i + k) % 2 == 0 else acc - term
            grown[rows] = acc
        minors = grown
    out = []
    for j in range(n):
        minor = minors[tuple(r for r in range(n) if r != j)]
        out.append(minor if (n - 1 - j) % 2 == 0 else -minor)
    return out
