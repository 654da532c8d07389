"""Direct-transform reference for the estimator's non-uniform spectrum.

The Hann-windowed magnitude spectrum evaluated term by term, as
``|sum_j y_j w_j exp(-i f tau_j)|`` on the same ``2 pi / (8 span)`` grid of
``4 n + 1`` angular frequencies from zero that
``hombeat.rotation_estimator._magnitude_spectrum`` returns on a non-uniform
delay grid.  Frequencies go 256 at a time; the cost is quadratic in the
sample count.  Used only to check the non-uniform FFT.
"""

import math

import numpy as np

OVERSAMPLE = 8
BLOCK = 256


def magnitude_spectrum(tau, y):
    n = tau.size
    yw = y * np.hanning(n)
    span = float(tau[-1] - tau[0])
    df = 2.0 * math.pi / (OVERSAMPLE * span)
    n_freq = OVERSAMPLE * n // 2 + 1
    freqs = df * np.arange(n_freq)
    spectrum = np.empty(n_freq)
    for start in range(0, n_freq, BLOCK):
        f_block = freqs[start : start + BLOCK]
        phases = np.exp(-1j * np.outer(f_block, tau))
        spectrum[start : start + BLOCK] = np.abs(phases @ yw)
    return freqs, spectrum
