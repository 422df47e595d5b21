"""A centred difference of the density along a potential, a reference for first_variation.

This is the check value `density.first_variation` computed before it came to
read the density's exact linearisation at Fubini-Study: the densities of
the metrics with profile u - t phi and u + t phi, differenced.  It costs two
perturbed section-norm passes and carries step noise of about m^2 t sup|phi|,
so the tests use it as a reference and to keep perturbed metrics checked.
"""

from cpnbergman import RadialMetric, RadialProfile, bergman_density


def perturbed(metric, phi, t):
    """The metric with potential profile u - t phi, coefficient by coefficient."""
    u, c = metric.profile.coeffs, phi.coeffs
    u, c = (list(x) + [0.0] * (max(len(u), len(c)) - len(x)) for x in (u, c))
    return RadialMetric(RadialProfile([a - t * b for a, b in zip(u, c)]))


def centred_difference(metric, phi, m, s, t=1e-5):
    """d/dt Pi_m(s) along the profile u - t phi at t = 0, as a centred difference at +-t."""
    plus = bergman_density(perturbed(metric, phi, t), m, [s]).values[0]
    minus = bergman_density(perturbed(metric, phi, -t), m, [s]).values[0]
    return float((plus - minus) / (2.0 * t))
