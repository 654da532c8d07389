"""Direct-transform reference for the estimator's non-uniform spectrum.

The Hann-windowed magnitude spectrum evaluated term by term, as
``|sum_j y_j w_j exp(-i f tau_j)|`` on ``oversample * n // 2 | 1``
angular frequencies spaced ``2 pi / (oversample * span)`` from zero.  At
the default ``oversample`` of 2 that is the grid
``hombeat.rotation_estimator._magnitude_spectrum`` returns on a non-uniform
delay grid: ``n + 1`` bins for even n and ``n`` for odd n.  Frequencies go
256 at a time; the cost is quadratic in the sample count.  Used only to
check the non-uniform FFT.
"""

import math

import numpy as np

BLOCK = 256


def magnitude_spectrum(tau, y, oversample=2):
    n = tau.size
    yw = y * np.hanning(n)
    span = float(tau[-1] - tau[0])
    df = 2.0 * math.pi / (oversample * span)
    n_freq = oversample * n // 2 | 1
    freqs = df * np.arange(n_freq)
    spectrum = np.empty(n_freq)
    for start in range(0, n_freq, BLOCK):
        f_block = freqs[start : start + BLOCK]
        phases = np.exp(-1j * np.outer(f_block, tau))
        spectrum[start : start + BLOCK] = np.abs(phases @ yw)
    return freqs, spectrum
