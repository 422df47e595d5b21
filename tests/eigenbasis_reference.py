"""The first eigenspace of CP^n in exact Fractions, the reference for `first_eigenbasis`.

A member theta_A = <A Z, Z> / |Z|^2 is held as the real and imaginary
parts of its traceless Hermitian A.  theta_A and theta_B pair to
(tr(AB) + tr A tr B) / ((n+1)(n+2)) in L^2 of the Fubini-Study volume,
normalized to 1.
"""

from fractions import Fraction

import numpy as np


def exact_member(n, kind, indices):
    """(re, im) of A for the member (kind, indices) of first_eigenbasis(n)."""
    size = n + 1
    re = [[Fraction(0)] * size for _ in range(size)]
    im = [[Fraction(0)] * size for _ in range(size)]
    if kind == "diag":
        (l,) = indices
        re[l][l] = Fraction(1)
        for i in range(l):
            re[i][i] = Fraction(-1, l)
    else:
        i, j = indices
        if kind == "re":
            re[i][j] = re[j][i] = Fraction(1)
        else:
            im[i][j], im[j][i] = Fraction(-1), Fraction(1)
    return re, im


def exact_pairing(A, B, n):
    """int theta_A theta_B d(FS volume), exactly."""
    (ar, ai), (br, bi), size = A, B, n + 1
    # tr(AB) is real for Hermitian A, B
    tr_ab = sum(ar[i][j] * br[j][i] - ai[i][j] * bi[j][i]
                for i in range(size) for j in range(size))
    tr_a, tr_b = (sum(m[i][i] for i in range(size)) for m in (ar, br))
    return (tr_ab + tr_a * tr_b) / ((n + 1) * (n + 2))


def _floats(A):
    re, im = A
    return np.array([[complex(float(x), float(y)) for x, y in zip(r, i)] for r, i in zip(re, im)])


def rounded(A, norm_sq):
    """A / sqrt(norm_sq) in floats: each entry of A rounded once, times 1 / sqrt(norm_sq)."""
    return 1.0 / float(norm_sq) ** 0.5 * _floats(A)


def theta(th, Z):
    """The member th of first_eigenbasis on homogeneous lifts Z of shape (n+1, ...),
    <A Z, Z> / (|Z|^2 sqrt(norm_sq)) from its exact A, not from th.matrix."""
    A = exact_member(th.n, th.kind, th.indices)
    quad = np.real(np.einsum("kl,l...,k...->...", _floats(A), Z, np.conj(Z)))
    return 1.0 / float(exact_pairing(A, A, th.n)) ** 0.5 * quad / np.sum(np.abs(Z) ** 2, axis=0)
