"""first_variation's closed form as one Fraction sum, a reference for the integer sum.

This is how `density.first_variation` evaluated its closed form before the
sum came to be taken in integers over one common denominator
(`density._variation_formula`): S = s and P = 1/(1+s) read exactly from the
float input, the moments M_k = P^k sum_l C(k,l)^2 S^l / ((m+k+1) C(m+k,l))
and the weighted sum in Fractions, and one rounding at the end.
"""

import math
from fractions import Fraction


def fraction_variation_formula(coeffs, m, s):
    """-(m+1)^2 sum_k c_k ((m + k(k+1)) M_k - m P^k M_0 - k^2 M_{k-1}), rounded once."""
    S = Fraction(s)
    P = 1 / (1 + S)
    moments = [P**k * sum(Fraction(math.comb(k, l) ** 2, (m + k + 1) * math.comb(m + k, l)) * S**l
                          for l in range(k + 1))
               for k in range(len(coeffs))]
    # (m p^k - Delta p^k - m P^k) against the weight, for each coefficient c_k
    integral = sum(Fraction(c) * ((m + k * (k + 1)) * moments[k] - m * P**k * moments[0]
                                  - (k * k * moments[k - 1] if k else 0))
                   for k, c in enumerate(coeffs))
    return float(-((m + 1) ** 2) * integral)
