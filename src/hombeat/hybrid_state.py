"""Exact algebra for two-photon states in the rotating q-plate pipeline.

A state is a normalized superposition of labeled product terms.  Each photon
label carries either a linear polarization or a circular-polarization spin
value (never both at once), an integer orbital angular momentum charge and a
frequency detuning from the shared degenerate center.  Frequencies are
stored as detunings so that terahertz-scale shifts never get swallowed by
the optical carrier.

All operations are pure functions on immutable values; applying an element
returns a new state and leaves the input untouched.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from enum import Enum
from typing import Callable, Sequence

NORM_TOL = 1e-12

# Detunings closer than this (rad/s) denote the same physical label; keeps
# floating-point noise from splitting one term into two.
DETUNING_MERGE_TOL = 1e-6

_AMPLITUDE_EPS = 1e-15


class Pol(Enum):
    """Linear polarization label."""

    H = "H"
    V = "V"


class InvalidStateError(ValueError):
    """The state is not in the basis an optical element expects."""


class EmptyStateError(InvalidStateError):
    """An operation removed every term of the state."""


@dataclass(frozen=True)
class PhotonLabel:
    """Single-photon label: polarization or spin, OAM charge and detuning.

    ``sam`` is the spin angular momentum of circular polarization, +1 or -1.
    At most one of ``pol``/``sam`` may be set; a quarter-wave plate converts
    one into the other.  ``detuning`` is the offset (rad/s) from the
    degenerate signal center frequency.
    """

    pol: Pol | None = None
    sam: int | None = None
    oam: int = 0
    detuning: float = 0.0

    def __post_init__(self):
        if self.pol is not None and self.sam is not None:
            raise InvalidStateError("a label may carry polarization or spin, not both")
        if self.sam not in (None, +1, -1) or isinstance(self.sam, bool):
            raise ValueError(f"sam must be +1, -1 or None, got {self.sam!r}")
        if not isinstance(self.oam, int) or isinstance(self.oam, bool):
            raise ValueError(f"oam must be an integer, got {self.oam!r}")
        if not math.isfinite(self.detuning):
            raise ValueError("detuning must be finite")

    def matches(self, other: "PhotonLabel") -> bool:
        """True when both labels denote the same basis element."""
        return (
            self.pol is other.pol
            and self.sam == other.sam
            and self.oam == other.oam
            and abs(self.detuning - other.detuning) <= DETUNING_MERGE_TOL
        )

    def describe(self) -> str:
        parts = []
        if self.pol is not None:
            parts.append(self.pol.value)
        if self.sam is not None:
            parts.append("s+" if self.sam > 0 else "s-")
        parts.append(f"l={self.oam:+d}")
        parts.append(f"nu={self.detuning:+.6g}")
        return "|" + ", ".join(parts) + ">"


@dataclass(frozen=True)
class ProductTerm:
    """One product term ``amplitude * |photon1> |photon2>``."""

    amplitude: complex
    photon1: PhotonLabel
    photon2: PhotonLabel

    def labels_match(self, other: "ProductTerm") -> bool:
        return self.photon1.matches(other.photon1) and self.photon2.matches(other.photon2)


@dataclass(frozen=True)
class TwoPhotonState:
    """Normalized superposition of product terms sharing one center frequency."""

    terms: tuple[ProductTerm, ...]
    center_frequency: float

    def norm_squared(self) -> float:
        return sum(abs(t.amplitude) ** 2 for t in self.terms)

    def normalized(self) -> "TwoPhotonState":
        n = math.sqrt(self.norm_squared())
        if n <= 0.0:
            raise EmptyStateError("cannot normalize a zero state")
        return TwoPhotonState(
            tuple(replace(t, amplitude=t.amplitude / n) for t in self.terms),
            self.center_frequency,
        )

    def describe(self) -> str:
        lines = []
        for t in self.terms:
            a = t.amplitude
            if abs(a.imag) < 1e-15:
                amp = f"{a.real:+.8f}"
            else:
                amp = f"({a.real:+.8f}{a.imag:+.8f}j)"
            lines.append(f"{amp} {t.photon1.describe()} {t.photon2.describe()}")
        return "\n".join(lines)


def _merged(terms: Sequence[ProductTerm]) -> tuple[ProductTerm, ...]:
    """Combine terms with identical label pairs, dropping cancelled ones."""
    out: list[ProductTerm] = []
    for term in terms:
        for i, existing in enumerate(out):
            if existing.labels_match(term):
                out[i] = replace(existing, amplitude=existing.amplitude + term.amplitude)
                break
        else:
            out.append(term)
    return tuple(t for t in out if abs(t.amplitude) > _AMPLITUDE_EPS)


def _require_normalized(state: TwoPhotonState) -> None:
    if abs(state.norm_squared() - 1.0) > 1e-9:
        raise InvalidStateError("state must be normalized before applying an element")


def _labels(state: TwoPhotonState) -> list[PhotonLabel]:
    """Every photon label of the state, term by term."""
    return [p for t in state.terms for p in (t.photon1, t.photon2)]


def _map_labels(state: TwoPhotonState, f: Callable[[PhotonLabel], PhotonLabel]) -> TwoPhotonState:
    """Map both photon labels of every term through ``f`` and merge the terms that meet."""
    terms = [ProductTerm(t.amplitude, f(t.photon1), f(t.photon2)) for t in state.terms]
    return TwoPhotonState(_merged(terms), state.center_frequency)


def new_spdc_state(center_frequency: float) -> TwoPhotonState:
    """Polarization-entangled pair from type-II down-conversion.

    Returns ``(|H>|V> + |V>|H>) / sqrt(2)`` with both photons at zero
    detuning and zero OAM.  The relative phase from crystal birefringence
    and the overall phase are omitted.
    """
    if (isinstance(center_frequency, bool) or not center_frequency > 0.0
            or not math.isfinite(center_frequency)):
        raise ValueError("center_frequency must be a positive finite rad/s value")
    a = 1.0 / math.sqrt(2.0)
    h = PhotonLabel(pol=Pol.H)
    v = PhotonLabel(pol=Pol.V)
    return TwoPhotonState((ProductTerm(a, h, v), ProductTerm(a, v, h)), center_frequency)


def apply_qwp(state: TwoPhotonState) -> TwoPhotonState:
    """Quarter-wave plate on both photons.

    Forward direction maps H to spin +1 and V to spin -1; applied to a state
    already in the spin basis it inverts that map.  Amplitudes, OAM and
    detunings are untouched, so the norm is preserved exactly.
    """
    _require_normalized(state)
    labels = _labels(state)
    if all(p.pol is not None for p in labels):
        return _map_labels(state, lambda p: replace(p, pol=None, sam=1 if p.pol is Pol.H else -1))
    if all(p.sam is not None for p in labels):
        return _map_labels(state, lambda p: replace(p, pol=Pol.H if p.sam == 1 else Pol.V, sam=None))
    raise InvalidStateError(
        "quarter-wave plate needs every photon in the polarization basis "
        "or every photon in the spin basis"
    )


def apply_rotating_qplate(state: TwoPhotonState, l: int, omega_rot: float) -> TwoPhotonState:
    """Rotating q-plate: spin flip, OAM transfer, rotational Doppler shift.

    Per photon, spin s goes to -s, the OAM charge gains s*l, and the detuning
    gains s*l*omega_rot.  A photon therefore trades spin for orbital angular
    momentum and picks up the frequency shift of the rotating medium.
    """
    if not isinstance(l, int) or isinstance(l, bool):
        raise ValueError("topological charge l must be an integer")
    if not 0 <= l <= sys.float_info.max:
        raise ValueError("topological charge l must be >= 0 and within the float range")
    if not math.isfinite(omega_rot):
        raise ValueError("omega_rot must be finite")
    _require_normalized(state)
    if any(p.sam is None for p in _labels(state)):
        raise InvalidStateError("rotating q-plate needs every photon in the spin basis")

    def shift(p: PhotonLabel) -> PhotonLabel:
        return replace(p, sam=-p.sam, oam=p.oam + p.sam * l,
                       detuning=p.detuning + p.sam * l * omega_rot)

    return _map_labels(state, shift)


def apply_polarizer_projection(state: TwoPhotonState) -> TwoPhotonState:
    """Trace out polarization after the inverse quarter-wave plates.

    Strips the polarization labels and renormalizes, leaving the hybrid
    OAM-frequency state.  A state that already carries no polarization
    labels is returned unchanged.
    """
    _require_normalized(state)
    labels = _labels(state)
    if any(p.sam is not None for p in labels):
        raise InvalidStateError("polarizer acts on the polarization basis; apply the inverse quarter-wave plate first")
    if all(p.pol is None for p in labels):
        return state
    if any(p.pol is None for p in labels):
        raise InvalidStateError("mixed basis: some photons carry polarization labels and some do not")
    projected = _map_labels(state, lambda p: replace(p, pol=None))
    if not projected.terms:
        raise EmptyStateError("polarizer projection annihilated every term")
    return projected.normalized()


def run_pipeline(l: int, omega_rot: float, center_frequency: float) -> tuple[TwoPhotonState, ...]:
    """Propagate the source pair through the full element chain.

    Returns the four stages in order: the down-converted polarization pair,
    the spin-basis pair after the quarter-wave plates, the hybrid
    spin/OAM/frequency state after the rotating q-plate, and the pure
    OAM-frequency state after the inverse plates and polarizers.
    """
    source = new_spdc_state(center_frequency)
    spin = apply_qwp(source)
    hybrid = apply_rotating_qplate(spin, l, omega_rot)
    output = apply_polarizer_projection(apply_qwp(hybrid))
    return (source, spin, hybrid, output)


def state_overlap(s1: TwoPhotonState, s2: TwoPhotonState) -> complex:
    """Inner product <s1|s2> treating identical label pairs as orthonormal."""
    _require_normalized(s1)
    _require_normalized(s2)
    total = 0.0 + 0.0j
    for t1 in s1.terms:
        for t2 in s2.terms:
            if t1.labels_match(t2):
                total += t1.amplitude.conjugate() * t2.amplitude
    return total
