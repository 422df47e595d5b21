"""Byte-exact CLI outputs pinned under tests/golden/.

The CLI is documented as byte-deterministic; these files hold the stdout
of each command, so any change to the printed numbers or their layout
fails here.  The exact commands (convert-poly, variation, polynomiality)
were pinned before the integer variation engine; fs-check --n 1 and
density before the single-pass cp1_integral, which they never reach.
center, first-variation and fs-check --n 2 were pinned after it: their
last digits moved with it (by at most 1.9e-16 in A).  The phi1-poly and
rational-bump densities, fit and the center --trace-out CSV were pinned
before the exact positivity check and the single Laplacian rewrite.
The two fit --vanishing-tol cases, one on the exact path (K+1 rational
samples, "num/den" coefficients) and one on the float path, were pinned
before their JSON moved from the library into the CLI.
The three center files were regenerated when the rho_{-A} half of the
centering integrals became a closed form, after checking that the
iteration count stayed at 4, that A moved by at most 1e-15 elementwise
(measured 1.8e-16), and that gauge-diag's A stays within 2e-13 of the
exact -B (measured 1.88e-13).  Every trace value moved by at most
2.5e-16 absolute: values from 0.05 down to 3e-5 by at most 2.7e-12
relative, the 5e-8 and 7e-8 values by 3.7e-9, the 1e-10 values by
1.0e-6 and the 2e-13 residual by 8.4e-4.  A 1e-9 relative bound on the
rows above 1e-12 cannot hold, since the old rows were further than that
from the exact residual.
Against the exact residual norm (mpmath, where Phi = R(-B)) every new
row is closer than the old one: 3.1e-10 against 2.6e-9 relative on the
5e-8 row, 4.8e-8 against 1.2e-7 on the 1e-10 row.
The same three center files and the first-variation file were
regenerated again when Phi became exact for gauge and eigenbasis
potentials and the first variation a closed form, after checking the
same bounds: 4 iterations, A moved by at most 1e-15 elementwise
(measured 4.2e-17, eigenbasis-diag; 6.9e-18, gauge-diag, whose
off-diagonal 1e-18 entries are now exact zeros), and gauge-diag's A
within 2e-13 of -B (measured 1.876e-13).  Trace values moved by at most
2.9e-17 absolute.  The first variation of the eigenfunction bump, a
first-eigenspace direction, is exactly 0, and prints 0.0 (it was
-1.6e-14); its rel_diff moved from 6.6615330e-08 to 6.6613381e-08.
When bergman_density came to read each term off the section-norm
integrand rows, seven files were regenerated after checking these
bounds: the three density CSVs moved by at most 1e-14 relative
(measured 6.4e-15); fs-check --n 1 kept its norm error byte for byte
while max_density_deviation fell (8.2e-13 to 3.2e-14); the
first-variation file kept formula_value 0.0, only its step-noise
fields fd_value and rel_diff moving; and the two fit files, which read
the regenerated eigenfunction-bump CSV, moved their coefficients by at
most 1e-9 relative (measured 7.8e-11) and their residual by at most
1e-7 relative (measured 3.7e-9).
When each refinement step came to evaluate its rules in one integrand
call, fs-check --n 2 was regenerated after checking max_rel_error
<= 1e-15 and pass true: the nested inner pass now spans the nodes of up
to four outer rules (60 rows), and max_rel_error moved from 3.3e-16 to
5.6e-16.  Every other file stayed byte-identical.
When section_norms came to start its pass from panels uniform in theta,
x = sin^2(theta), for m >= 38, the files that pass through it at such m
were regenerated after checking these bounds: the three density CSVs
moved by at most 1e-14 relative (measured 9.3e-16), and the two fit
files, which read the eigenfunction-bump CSV, moved their coefficients
by at most 1e-10 relative (measured 6.9e-12).  fs-check --n 1 stops at
m = 30 and stayed byte-identical.  The m = 1060 eigenfunction-bump
density, the first golden of a banded pass, was pinned then, after
checking it against the one-panel start within 1e-13 relative (measured
1.5e-14, at s = inf).  Every other file stayed byte-identical.
When every panel became one (G15, K31) Gauss-Kronrod rule, and the
Beta modes of the section-norm rows were rounded so that 1 - x* is
exact, the files that pass through integrate_interval were regenerated
after checking these bounds: the three density CSVs at m <= 60 moved by
at most 1e-15 relative (measured 5.7e-16); the m = 1060 eigenfunction
bump moved by at most 1e-13 relative (measured 1.95e-14, at s = inf),
and stays within its tol of the exact density there, e^{m eps} / N_m
with N_m two Kummer functions (2.2e-14, was 2.2e-15; s = 0 is 2.9e-16
off, as before); the two fit files moved their coefficients by at most
1e-10 relative (measured 3.9e-12) and their residual by at most 1e-7
relative (measured 6.1e-10); first-variation kept formula_value 0.0,
only its step-noise fields fd_value and rel_diff moving; fs-check
--n 1 kept pass true, its max_density_deviation moving from 3.2e-14 to
1.8e-14.  Every other file stayed byte-identical.  The Fubini-Study
density at m = 20000, tol 1e-13, the first golden of a large-m banded
pass, was pinned then, after checking each value against m + 1 within
1e-14 relative (measured 7.3e-16 at s = 0, exact at s = 1 and 7.8e-15
at s = inf).
Two banded perturbed densities at m = 5000 were pinned before the
section-norm pass came to build its row setup once, in one row model
for the integrand and the supports: the eigenfunction bump 0.45, whose
second-order lift misses its rows' maxima by the most, within 1e-12
relative of the Kummer form at s = 0 and inf (measured 2.5e-16 and
1.5e-13), and the rational bump 0.2, whose two poles agree with each
other within 1e-13 relative (measured 6.4e-14).
Three variation files at J = 40 to 60 were pinned before the moments
delta_k(lambda) came from their three-term recurrence and the weighted
sum from a Horner pass: lambda = 15 with the scan to k = 6, and two
lambdas with q != 1 (7/3 centered, -5/7 unnormalized), whose numerators
carry the recurrence's q^2 term.
The three center files were regenerated when the iteration moved to the
coordinates a_i = tr(A T_i) / 6, with R(a) in closed form and no
eigendecomposition per iterate, after checking these bounds against the
previous output: still 4 iterations; A moved by at most 1e-16
elementwise (measured 1.4e-17, eigenbasis-diag; 6.9e-18, gauge-diag);
gauge-diag's A within 2e-13 of -B (measured 1.876e-13); and every trace
value moved by at most 1e-16 absolute (measured 1.8e-17).  Every other
file stayed byte-identical.
Two center runs away from the default damping were pinned before the
damping came to be checked against (0, 1), the contraction constant
came to be exact and the growing-step detector was removed:
eigenbasis-diag at damping 0.25 with its --trace-out CSV (23
iterations), and gauge-diag at damping 0.9 (72 iterations, near the
slow end 1 - 2 damping = -0.8 of the step's spectrum).
gauge-diag at scale 0.5 (C0 norm 0.7071, 11 iterations) was pinned when
the C0 threshold eta = 0.1 was removed, which had made it exit 2; the
five other center files and both traces stayed byte-identical.
When monomial_kernel_quadrature came to factor into one scalar
half-line pass per coordinate, fs-check --n 2 was to be regenerated
only if its max_rel_error stayed <= 1e-15 with pass true.  It did not
change: max_rel_error is still 5.55e-16, where the same passes with
kernels in logs of t and 1 + t read 7.77e-16 (log1p(t): 6.66e-16), and
every file stayed byte-identical.
Two dense densities at m = 40 to 200 were pinned before the dense
section-norm pass came to group its initial panels under a row x node
budget and bergman_density to put its grid into the pass's first
integrand call: the eigenfunction bump 0.1 at m = 50, 100, 200 and a
four-term phi1-poly at m = 40, 60, 100, 200, each on the grid
0, 0.3, 1, 4, 1000.
Two first variations with a nonzero closed form were pinned before that
form came to be summed in integers rather than Fractions: a phi1-poly
direction at m = 50, s = 0.735 (a graded pass) and the rational bump 0.5
at m = 30, s = 2.5 (bisection from one panel).
The polynomiality table at n = 3, k0 <= 5 (remainders of degree 1 to 4)
was pinned before the remainder and the moments delta_k came to be
returned as tuples of ints rather than a polynomial type.
Two dense densities below m = 38 were pinned before the section-norm
pass came to state its row count, so that its initial panels take its
first integrand call, to start from the halves of [0, 1] there, and a
cubic v to take its critical points in closed form: the rational bump
0.2 at m = 20, 25, 30, 34, 37 (m = 34 splits three times) and the
four-term phi1-poly at m = 20 and 30, a cubic v.  Four files were then
regenerated after checking these bounds: the two phi1-poly density CSVs
(the new one and 0, 0.05, -0.02) moved by at most 4 ulps (measured 1
ulp, 1.7e-16 relative, at m = 20, a pass one panel used to settle);
fs-check --n 1 kept pass true and max_norm_rel_error byte for byte
(1.78e-14), its max_density_deviation moving from 1.78e-14 to 2.49e-14
(from 5 to 7 ulps of m + 1, at m = 28 and 29, passes that one panel
used to settle); and the first-variation file kept formula_value 0.0,
only its step-noise fields fd_value and rel_diff moving.  Every other
file, the rational-bump CSV below m = 38 included, stayed byte-identical.
When first_variation came to check its closed form against the density's
exact linearisation at Fubini-Study, with no difference step, the three
first-variation files were regenerated: the step key is gone, and
formula_value stayed byte-identical in each.  fd_value, now the
linearised value, moved from 8.9e-10 to 4.4e-300 for the eigenfunction
bump (its rel_diff from 1.1e-7 to 2.5e-291; the only nonzero term at
s = 0 is row 19's 1.2e-301), from -1.2907481057311543 to
-1.2907481058658925 for the phi1-poly direction (rel_diff 1.0e-10 to
2.5e-13), and from 0.1977040815503983 to 0.19770408163266703 for the
rational bump (rel_diff 4.2e-10 to 7.1e-14).  Every other file stayed
byte-identical.
When a chart-symmetric metric (u(p) = u(1-p): Fubini-Study, rational
bumps) came to integrate its section-norm rows 0 .. m//2 only and take
N_j = N_{m-j}, reading row j > m//2 at p as row m - j at x = p, the seven
files whose passes are symmetric were regenerated after checking these
bounds: the four density CSVs moved by at most 1e-13 relative, the
Fubini-Study m = 20000, tol 1e-13 one by 7.1e-15 at s = inf (now
7.5e-16 from m + 1 at both poles, where s = inf was 7.8e-15 off), the
rational-bump ones by at most 6.4e-14 (at s = inf, m = 5000, whose two
poles now agree bit for bit), 1.0e-15 (m = 20-37) and 3.5e-16 (m = 20,
40, 60); the two first variations with a nonzero closed form (their
background is Fubini-Study) kept formula_value byte for byte, fd_value
moving by at most 1e-14 relative (measured 1.4e-15 and 2.2e-15) and
rel_diff from 2.51e-13 to 2.53e-13 and from 7.06e-14 to 6.84e-14;
fs-check --n 1 kept pass true and max_norm_rel_error byte for byte,
its max_density_deviation moving from 2.49e-14 to 1.07e-14.  Every
eigenfunction-bump and asymmetric phi1-poly file stayed byte-identical.
The Fubini-Study density at m = 20000, tol 1e-14, which the full pass
could not certify (its error estimate stalled), was pinned then, after
checking each value against m + 1 within 1e-14 relative (measured
7.5e-16 at both poles, exact at s = 1).
Two densities at the shape of the benchmark's probes were pinned before
the section-norm pass came to take its row cut from tol and the metric's
range of v, and to drop its no-op array passes: Fubini-Study at m = 1060
and 1120 (a banded half pass) and the rational bump 0.2 at m = 1060,
each on the grid 0, 0.3, 1, 4, 1000.
When section_norms came to start every m from panels uniform in theta,
max(floor(sqrt(m) / 1.5), 2) of them, the halves of [0, 1] below m = 38
gone, the five files whose passes run at m = 21 to 37 were regenerated
after checking these bounds: the three density CSVs moved by at most
1e-15 relative, the eigenfunction bump 0.1 in 1 of 20 cells (2.3e-16,
m = 30), the four-term phi1-poly in 5 of 10 (at most 8.0e-16, all at
m = 30) and the rational bump 0.2 in 9 of 25 (at most 6.0e-16); the
first-variation file at m = 30 kept formula_value byte for byte,
fd_value moving by 1.1e-14 relative and rel_diff from 6.84e-14 to
5.73e-14; fs-check --n 1 kept pass true, its max_density_deviation
moving from 1.07e-14 to 1.42e-14 and max_norm_rel_error from 1.78e-14
to 1.69e-14.  The two fit files, which read the eigenfunction-bump CSV
at s = 0.5, and every other file stayed byte-identical.
When each density term came to be its shifted row over its shifted
total, not exp(log f - offset - log T), the files that read densities
were regenerated after checking these bounds: the fourteen density
CSVs moved by at most 2e-15 relative (measured 7.3e-16, Fubini-Study
at m = 20000, whose poles now read m + 1 exactly; 75 of 138 cells
moved); the three first-variation files kept formula_value byte for
byte, fd_value moving by 3.1e-15 and 8.4e-16 relative where the closed
form is nonzero, and the eigenfunction bump's 4.4e-300, rounding of an
exact 0, by 2.3e-14; fs-check --n 1 kept pass true and
max_norm_rel_error byte for byte, its max_density_deviation moving
from 1.42e-14 to 1.07e-14.  Every log norm stayed byte-identical.  The
two fit files, which read the eigenfunction-bump CSV at s = 0.5, and
every other file stayed byte-identical.
"""

import json
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

GOLDEN = Path(__file__).with_name("golden")

CASES = {
    "convert-poly_n1_K3.json": ["convert-poly", "--n", "1", "--K", "3"],
    "convert-poly_n3_K40.json": ["convert-poly", "--n", "3", "--K", "40"],
    "variation_n1_lambda2_J5.json": ["variation", "--n", "1", "--lambda", "2", "--J", "5"],
    "variation_n3_lambda15_J30_kmax3.json": ["variation", "--n", "3", "--lambda", "15",
                                             "--J", "30", "--k-max", "3"],
    "variation_n2_lambda7-3_J12_centered.json": ["variation", "--n", "2", "--lambda", "7/3",
                                                 "--J", "12", "--centered"],
    "variation_n3_lambda15_J60_kmax6.json": ["variation", "--n", "3", "--lambda", "15",
                                             "--J", "60", "--k-max", "6"],
    "variation_n2_lambda7-3_J40_centered.json": ["variation", "--n", "2", "--lambda", "7/3",
                                                 "--J", "40", "--centered"],
    "variation_n1_lambda-5-7_J50_unnormalized.json": ["variation", "--n", "1",
                                                      "--lambda=-5/7", "--J", "50",
                                                      "--unnormalized"],
    "polynomiality_n1_k0max6.json": ["polynomiality", "--n", "1", "--k0-max", "6"],
    "polynomiality_n3_k0max5.json": ["polynomiality", "--n", "3", "--k0-max", "5"],
    "fs-check_n1_mmax30.json": ["fs-check", "--n", "1", "--m-max", "30"],
    "density_eigenfunction-bump_eps0.1.csv": ["density", "--metric", "eigenfunction-bump",
                                              "--eps", "0.1", "--m-list", "20,30,40,50,60",
                                              "--grid", "0,0.5,1,2"],
    "density_eigenfunction-bump_eps0.1_m1060.csv": ["density", "--metric",
                                                    "eigenfunction-bump", "--eps", "0.1",
                                                    "--m-list", "1060", "--grid", "0,1,inf"],
    "density_fs_m20000_tol1e-13.csv": ["density", "--metric", "fs", "--m-list", "20000",
                                       "--grid", "0,1,inf", "--tol", "1e-13"],
    "density_fs_m20000_tol1e-14.csv": ["density", "--metric", "fs", "--m-list", "20000",
                                       "--grid", "0,1,inf", "--tol", "1e-14"],
    "density_eigenfunction-bump_eps0.45_m5000.csv": ["density", "--metric",
                                                     "eigenfunction-bump", "--eps", "0.45",
                                                     "--m-list", "5000", "--grid", "0,1,inf"],
    "density_rational-bump_eps0.2_m5000.csv": ["density", "--metric", "rational-bump",
                                               "--eps", "0.2", "--m-list", "5000",
                                               "--grid", "0,0.5,1,2,inf"],
    "density_fs_m1060-1120.csv": ["density", "--metric", "fs", "--m-list", "1060,1120",
                                  "--grid", "0,0.3,1,4,1000"],
    "density_rational-bump_eps0.2_m1060.csv": ["density", "--metric", "rational-bump",
                                               "--eps", "0.2", "--m-list", "1060",
                                               "--grid", "0,0.3,1,4,1000"],
    "fs-check_n2_mmax6.json": ["fs-check", "--n", "2", "--m-max", "6"],
    "center_gauge-diag_0.05.json": ["center", "--potential", "gauge-diag", "--scale", "0.05"],
    "center_eigenbasis-diag_0.05.json": ["center", "--potential", "eigenbasis-diag",
                                         "--scale", "0.05"],
    "center_gauge-diag_0.05_damping0.9.json": ["center", "--potential", "gauge-diag",
                                               "--scale", "0.05", "--damping", "0.9",
                                               "--max-iter", "200"],
    "center_gauge-diag_0.5.json": ["center", "--potential", "gauge-diag", "--scale", "0.5"],
    "first-variation_eigenfunction-bump_eps1_m20.json": ["first-variation", "--phi",
                                                         "eigenfunction-bump", "--eps", "1.0",
                                                         "--m", "20"],
    "first-variation_phi1-poly_0.3_-1.2_1.5_m50_s0.735.json": [
        "first-variation", "--phi", "phi1-poly", "--coeffs", "0.3,-1.2,1.5", "--m", "50",
        "--s", "0.735"],
    "first-variation_rational-bump_eps0.5_m30_s2.5.json": [
        "first-variation", "--phi", "rational-bump", "--eps", "0.5", "--m", "30", "--s", "2.5"],
    "density_eigenfunction-bump_eps0.1_m50-200.csv": [
        "density", "--metric", "eigenfunction-bump", "--eps", "0.1",
        "--m-list", "50,100,200", "--grid", "0,0.3,1,4,1000"],
    "density_phi1-poly_0.01_-0.03_0.005_0.002_m40-200.csv": [
        "density", "--metric", "phi1-poly", "--coeffs", "0.01,-0.03,0.005,0.002",
        "--m-list", "40,60,100,200", "--grid", "0,0.3,1,4,1000"],
    "density_phi1-poly_0_0.05_-0.02.csv": ["density", "--metric", "phi1-poly",
                                           "--coeffs", "0,0.05,-0.02", "--m-list", "20,40",
                                           "--grid", "0,1"],
    "density_rational-bump_eps0.2_m20-37.csv": [
        "density", "--metric", "rational-bump", "--eps", "0.2",
        "--m-list", "20,25,30,34,37", "--grid", "0,0.5,1,2,inf"],
    "density_phi1-poly_0.01_-0.03_0.005_0.002_m20-30.csv": [
        "density", "--metric", "phi1-poly", "--coeffs", "0.01,-0.03,0.005,0.002",
        "--m-list", "20,30", "--grid", "0,0.3,1,4,1000"],
    "density_rational-bump_eps0.2.csv": ["density", "--metric", "rational-bump",
                                         "--eps", "0.2", "--m-list", "20,40,60",
                                         "--grid", "0,0.5,1,2"],
    "fit_eigenfunction-bump_eps0.1_s0.5_K2.json": [
        "fit", "--samples", str(GOLDEN / "density_eigenfunction-bump_eps0.1.csv"),
        "--at-s", "0.5", "--K", "2"],
    "fit_eigenfunction-bump_eps0.1_s0.5_K2_vanishing1e-3.json": [
        "fit", "--samples", str(GOLDEN / "density_eigenfunction-bump_eps0.1.csv"),
        "--at-s", "0.5", "--K", "2", "--vanishing-tol", "1e-3"],
    "fit_exact_m10-30_K2_vanishing1e-8.json": [
        "fit", "--samples", str(GOLDEN / "fit_samples_m10-30_exact.csv"),
        "--n", "1", "--K", "2", "--vanishing-tol", "1e-8"],
}

# Console-script failure cases.  name: (args, contents of the file that "{file}" in
# args names, or None, exit code, error type).  Each exits with its code, its error
# JSON on stdout naming the error's type, and nothing on stderr.
FAILURES = {
    # a non-finite scale
    "center_scale_inf": (["center", "--potential", "gauge-diag", "--scale", "inf"],
                         None, 2, "ValueError"),
    # an infinite tol (it once reported convergence at iteration 0)
    "center_tol_inf": (["center", "--potential", "eigenbasis-diag", "--tol", "inf"],
                       None, 2, "ValueError"),
    # a sample value past float range (read as inf)
    "fit_inf": (["fit", "--samples", "{file}", "--K", "1"],
                "m,value\n10,1.0e400\n20,21.0\n30,31.0\n", 2, "ValueError"),
    # a sample m past float range, read exactly (each once exited 1 with an
    # OverflowError traceback, at float(m) and at m ** -1)
    "fit_m_1e400": (["fit", "--samples", "{file}", "--K", "1"],
                    "m,value\n1e400,2.0\n20,21.0\n30,31.0\n", 2, "ValueError"),
    "fit_m_1e-320": (["fit", "--samples", "{file}", "--K", "1"],
                     "m,value\n1e-320,2.0\n20,21.0\n30,31.0\n", 2, "ValueError"),
    # a sample with a zero denominator (it once exited 1 with a ZeroDivisionError traceback)
    "fit_zero_denominator": (["fit", "--samples", "{file}", "--K", "1"],
                             "m,value\n10,1/0\n20,21\n", 2, "ValueError"),
    # an empty samples CSV (it once exited 1 with a StopIteration traceback)
    "fit_empty": (["fit", "--samples", "{file}"], "", 2, "ValueError"),
    # a density CSV row shorter than its header (it once fitted the m values it had)
    "fit_ragged": (["fit", "--samples", "{file}", "--at-s", "0.5", "--K", "1"],
                   "s,Pi_m10,Pi_m20,Pi_m30\n0.5,11.0,21.0\n", 2, "ValueError"),
    # a density CSV without --at-s (it once exited 0, its s column fitted as m)
    "fit_wide": (["fit", "--samples", "{file}"],
                 "s,Pi_m10,Pi_m20,Pi_m30\n0.5,11.0,21.0,31.0\n1,11.5,21.0,31.0\n"
                 "2,12.0,21.0,31.0\n", 2, "ValueError"),
    # a one-m density CSV without --at-s (it once exited 0, its s column fitted as m)
    "fit_one_m": (["fit", "--samples", "{file}"],
                  "s,Pi_m10\n0.5,11.0\n1,11.5\n2,12.0\n", 2, "ValueError"),
    # a least-squares fit past float range (it once exited 0 and printed coefficients
    # -Infinity and Infinity and "residual": NaN, which is not JSON, with RuntimeWarnings)
    "fit_lstsq_overflow": (["fit", "--samples", "{file}", "--K", "2"],
                           "m,value\n10,1e308\n20,-1e308\n30,1e308\n40,-1e308\n",
                           2, "ValueError"),
    # a first variation whose Laplacian terms overflow (it once exited 0 and printed NaN)
    "first_variation_eps_1e308": (["first-variation", "--phi", "rational-bump",
                                   "--eps", "1e308", "--m", "5"], None, 2, "ValueError"),
    # a closed form past float range (it once exited 1 with an OverflowError traceback)
    "first_variation_coeffs_1e308": (["first-variation", "--phi", "phi1-poly",
                                      "--coeffs", "0,0,1e308", "--m", "1000"],
                                     None, 2, "ValueError"),
    # a zero denominator (it once exited 1 with a ZeroDivisionError traceback)
    "variation_lambda_1_0": (["variation", "--lambda", "1/0"], None, 2, "ValueError"),
    # a NaN scale for the zero potential, which never reads it (it once exited 0
    # and printed "scale": NaN, which is not JSON)
    "center_zero_scale_nan": (["center", "--potential", "zero", "--scale", "nan"],
                              None, 2, "ValueError"),
    # a row shift m u past float range (it once exited 0 with a RuntimeWarning, its
    # log norms -inf)
    "density_shift_overflow": (["density", "--metric", "phi1-poly", "--coeffs", "1e308",
                                "--m-list", "20", "--grid", "0,1"], None, 2, "ValueError"),
    # section norms past the stated domain (shifted rows overflow)
    "density_26000": (["density", "--metric", "eigenfunction-bump", "--eps", "0.45",
                       "--m-list", "26000", "--grid", "0"], None, 3, "QuadratureError"),
    # the centering solver out of iterations
    "center_max_iter": (["center", "--potential", "eigenbasis-diag", "--scale", "0.05",
                         "--max-iter", "1"], None, 4, "NonConvergenceError"),
}


def failure_outcome(command, name, directory):
    """(exit code, stderr, error type) of FAILURES[name] run as command + args, its
    "{file}" written under directory; the error type is None unless stdout is an
    error JSON."""
    args, text, _, _ = FAILURES[name]
    path = Path(directory) / f"{name}.csv"
    if text is not None:
        path.write_text(text)
    proc = subprocess.run([*command, *(a.replace("{file}", str(path)) for a in args)],
                          capture_output=True, timeout=300)
    try:
        kind = json.loads(proc.stdout)["error"]["type"]
    except (ValueError, KeyError, TypeError):
        kind = None
    return proc.returncode, proc.stderr, kind


def test_readme_table_counts_the_cases():
    counts = Counter(args[0] for args in CASES.values())
    rows = ["| command | cases |", "|---|---|"]
    rows += [f"| `{command}` | {n} |"
             for command, n in sorted(counts.items(), key=lambda item: (-item[1], item[0]))]
    table = "\n".join(rows + [f"| all | {len(CASES)} |"]) + "\n"
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    assert table in readme, "README's golden-case table should read:\n" + table


def _run(args):
    proc = subprocess.run([sys.executable, "-m", "cpnbergman", *args],
                          capture_output=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_matches_golden(name):
    assert _run(CASES[name]) == (GOLDEN / name).read_bytes()


def test_center_trace_out_matches_golden(tmp_path):
    trace = tmp_path / "trace.csv"
    stdout = _run(["center", "--potential", "gauge-diag", "--scale", "0.05",
                   "--trace-out", str(trace)])
    assert stdout == (GOLDEN / "center_gauge-diag_0.05.json").read_bytes()
    assert trace.read_bytes() == (GOLDEN / "center_gauge-diag_0.05_trace.csv").read_bytes()


def test_center_damped_trace_out_matches_golden(tmp_path):
    trace = tmp_path / "trace.csv"
    stdout = _run(["center", "--potential", "eigenbasis-diag", "--scale", "0.05",
                   "--damping", "0.25", "--trace-out", str(trace)])
    name = "center_eigenbasis-diag_0.05_damping0.25"
    assert stdout == (GOLDEN / f"{name}.json").read_bytes()
    assert trace.read_bytes() == (GOLDEN / f"{name}_trace.csv").read_bytes()


@pytest.mark.parametrize("name", sorted(FAILURES))
def test_failure_exits_with_its_code_and_type(name, tmp_path):
    _, _, code, kind = FAILURES[name]
    outcome = failure_outcome([sys.executable, "-m", "cpnbergman"], name, tmp_path)
    assert outcome == (code, b"", kind)
