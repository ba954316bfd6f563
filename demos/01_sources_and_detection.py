"""Joint photon statistics of the three benchmark sources, before and after
detection.

Builds the exact joint distributions at equal energy, detects them with
realistic quantum efficiencies in two ways (the detected table straight from
the source's generating function, and binomial thinning of the photon table),
and prints the detected-count moments next to their closed forms.
"""

import numpy as np

from photocorr import (
    EfficiencyPair,
    SourceSpec,
    analytic_moments,
    source_joint,
    thin_joint,
)

N_MEAN = 1.5
EFF = EfficiencyPair(0.67, 0.67)
TAIL_TOL = 1e-12

print(f"per-beam mean photon number N = {N_MEAN}, efficiencies {EFF.eta1}/{EFF.eta2}")
print()

for kind in ("twin_beam", "coherent_pair", "split_thermal"):
    src = SourceSpec(kind, N_MEAN)
    photons = source_joint(src, tail_tol=TAIL_TOL)
    print(f"--- {kind} (photon table cutoff {photons.cutoff})")

    # corners of the photon-number matrix and of the two detected-count matrices
    detected = source_joint(src, EFF, TAIL_TOL)
    thinned = thin_joint(photons, EFF)
    with np.printoptions(precision=4, suppress=True):
        print("photon numbers")
        print(photons.probs[:4, :4])
        print(f"detected, from the generating function (cutoff {detected.cutoff})")
        print(detected.probs[:4, :4])
        print(f"detected, by thinning the photon table (cutoff {thinned.cutoff})")
        print(thinned.probs[:4, :4])
    gap = np.abs(detected.probs[:4, :4] - thinned.probs[:4, :4]).max()
    print(f"largest difference in the corner: {gap:.1e}")

    # moments of the detected table, summed from its marginals and its cross term
    p, k = detected.probs, np.arange(detected.cutoff + 1)
    p1, p2 = p.sum(axis=1), p.sum(axis=0)
    mean1, mean2 = p1 @ k, p2 @ k
    var1, var2 = p1 @ k**2 - mean1**2, p2 @ k**2 - mean2**2
    cov = k @ p @ k - mean1 * mean2
    closed = analytic_moments(src, EFF)
    print(f"detected means     {mean1:.4f} / {mean2:.4f}   "
          f"(closed form {closed.mean1:.4f} / {closed.mean2:.4f})")
    print(f"detected variances {var1:.4f} / {var2:.4f}   "
          f"(closed form {closed.var1:.4f} / {closed.var2:.4f})")
    print(f"covariance         {cov:.4f}            (closed form {closed.cov:.4f})")
    print()

print("The twin beam keeps all its mass on the diagonal (identical photon")
print("numbers); splitting a thermal beam correlates the outputs classically;")
print("the coherent pair factorizes, so its covariance vanishes.")
