"""Spin coherent states and the Pauli matrices.

Amplitudes of one spin-j multiplet are ordered m = j, j-1, ..., -j, and
coherent_states fixes each state's m = j amplitude real and non-negative.
"""

from __future__ import annotations

import math
from math import lgamma

import numpy as np

from .states import SpinJ


def coherent_states(j: SpinJ, theta, phi) -> np.ndarray:
    """Spin coherent states |j; n_k> with (n_k.J)|psi_k> = j|psi_k>, one row
    per direction n_k = (theta[k], phi[k]): a (K, 2j+1) complex array.

    Amplitudes <j,m|j;n> = sqrt(C(2j, j+m)) cos^{j+m}(theta/2) sin^{j-m}(theta/2)
    e^{i(j-m)phi}. Each magnitude comes from libm's log and exp, element by
    element, so a row does not depend on the batch it sits in.
    """
    tj = j.twice_j
    half_log_binom = [
        0.5 * (lgamma(tj + 1) - lgamma(k + 1) - lgamma(tj - k + 1)) for k in range(j.dim)
    ]
    mag = np.zeros((len(theta), j.dim))
    for row, t in zip(mag, theta):
        ch = math.cos(t / 2)
        sh = math.sin(t / 2)
        for k, lm in enumerate(half_log_binom):  # m = j - k
            e_c, e_s = tj - k, k
            if (ch == 0.0 and e_c > 0) or (sh == 0.0 and e_s > 0):
                continue
            if e_c:
                lm += e_c * math.log(ch)
            if e_s:
                lm += e_s * math.log(sh)
            row[k] = math.exp(lm)
    return mag * np.exp(1j * np.outer(phi, np.arange(j.dim)))


PAULI = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)
