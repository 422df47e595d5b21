"""Finite-difference Fubini-Study Laplacian, an oracle for the exact eigenfunctions."""

from typing import Callable

import numpy as np


def numeric_fs_laplacian(f: Callable, z, n: int, h: float = 0.04,
                         levels: int = 3) -> float:
    """Fubini-Study Laplacian by Richardson-extrapolated central differences.

    Delta = (1+|z|^2) sum_ij (delta_ij + z_i zbar_j) d^2/dz_i dzbar_j.
    f takes a chart point (complex scalar for n=1, tuple for n >= 2).
    """
    zv = np.array([z] if n == 1 else list(z), dtype=complex)

    def call(w: np.ndarray) -> float:
        return f(complex(w[0])) if n == 1 else f(tuple(w))

    def hessian(step: float) -> np.ndarray:
        # mixed complex derivatives from real-coordinate second differences
        H = np.zeros((n, n), dtype=complex)
        e = np.eye(n)
        f0 = call(zv)
        for i in range(n):
            for j in range(n):
                dxi = e[i] * step
                dxj = e[j] * step
                dyi = 1j * e[i] * step
                dyj = 1j * e[j] * step
                if i == j:
                    dxx = (call(zv + dxi) + call(zv - dxi) - 2 * f0) / step**2
                    dyy = (call(zv + dyi) + call(zv - dyi) - 2 * f0) / step**2
                    dxy = (
                        call(zv + dxi + dyj) - call(zv + dxi - dyj)
                        - call(zv - dxi + dyj) + call(zv - dxi - dyj)
                    ) / (4 * step**2)
                    H[i, j] = 0.25 * (dxx + dyy)  # i(dxy - dyx) = 0 for i = j
                else:
                    dxx = (
                        call(zv + dxi + dxj) - call(zv + dxi - dxj)
                        - call(zv - dxi + dxj) + call(zv - dxi - dxj)
                    ) / (4 * step**2)
                    dyy = (
                        call(zv + dyi + dyj) - call(zv + dyi - dyj)
                        - call(zv - dyi + dyj) + call(zv - dyi - dyj)
                    ) / (4 * step**2)
                    dxy = (
                        call(zv + dxi + dyj) - call(zv + dxi - dyj)
                        - call(zv - dxi + dyj) + call(zv - dxi - dyj)
                    ) / (4 * step**2)
                    dyx = (
                        call(zv + dyi + dxj) - call(zv + dyi - dxj)
                        - call(zv - dyi + dxj) + call(zv - dyi - dxj)
                    ) / (4 * step**2)
                    H[i, j] = 0.25 * (dxx + dyy + 1j * (dxy - dyx))
        return H

    # Richardson on h, h/2, h/4: central differences have even error series
    tableau = [hessian(h / 2**lev) for lev in range(levels)]
    for col in range(1, levels):
        fac = 4.0**col
        tableau = [
            (fac * tableau[r + 1] - tableau[r]) / (fac - 1.0)
            for r in range(len(tableau) - 1)
        ]
    H = tableau[0]
    s = float(np.sum(np.abs(zv) ** 2))
    ginv = np.eye(n, dtype=complex) + np.outer(zv, np.conj(zv))
    return float(np.real((1.0 + s) * np.sum(ginv * H)))
