"""Parameter sets, radiation-pressure steady state, and unit reductions.

The laboratory description of the driven cavity with one oscillating mirror
is a nine-number `PhysicalParams` set in SI units.  Everything measurable at
zero sideband frequency collapses to the reduced triple
``(p_cal, t_cal, delta)`` held by `DimensionlessParams`:

    p_cal = 8 omega_0 delta P_in / (m L^2 omega_m^2 gamma_c^2 (1 + 4 delta^2))
    t_cal = 8 k_B T gamma_m delta / (hbar omega_m^2)

`steady_state` solves the radiation-pressure self-consistency: because the
mean mirror displacement is set by the intracavity intensity and the
intensity depends on the displacement-shifted detuning, the working point
satisfies the real cubic

    (delta - delta0) (1/4 + delta^2) = kappa,

with ``delta0`` the bare drive-cavity detuning in cavity linewidths and
``kappa`` the dimensionless drive strength (see `drive_kappa`).  The cubic has
one or three real roots; on the bistable branch structure the middle root is
flagged unstable by the sign of the cubic's derivative.

All frequencies are angular (rad/s); damping rates are field/momentum decay
rates in 1/s.  Every function here is pure and every type immutable.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .constants import C_LIGHT, HBAR, K_B
from .errors import ConvergenceError, NumericalError, ParameterError, require_finite

# Enforced upper bound on omega_m / omega_c; the model assumes the mechanical
# frequency is far below the optical one.
MAX_MECHANICAL_OPTICAL_RATIO = 1e-3

# Relative residual demanded of every steady-state root.
ROOT_RESIDUAL_TOL = 1e-12


@dataclass(frozen=True)
class PhysicalParams:
    """Laboratory-frame parameters of the driven two-mode cavity (SI).

    Attributes
    ----------
    mass : float
        Oscillating-mirror mass [kg].
    cavity_length : float
        Equilibrium cavity length [m].
    omega_m : float
        Mechanical resonance frequency [rad/s].
    gamma_m : float
        Mechanical damping rate [1/s] (the momentum decays at 2*gamma_m).
    omega_c : float
        Cavity resonance frequency [rad/s].
    omega_0 : float
        Drive (laser) frequency [rad/s].
    gamma_c : float
        Cavity field decay rate [1/s].
    temperature : float
        Mirror bath temperature [K].
    input_power : float
        Total input laser power over both modes [W].
    """

    mass: float
    cavity_length: float
    omega_m: float
    gamma_m: float
    omega_c: float
    omega_0: float
    gamma_c: float
    temperature: float
    input_power: float

    def __post_init__(self) -> None:
        require_finite(**vars(self))
        positive = {
            "mass": self.mass,
            "cavity_length": self.cavity_length,
            "omega_m": self.omega_m,
            "gamma_m": self.gamma_m,
            "omega_c": self.omega_c,
            "omega_0": self.omega_0,
            "gamma_c": self.gamma_c,
        }
        for name, value in positive.items():
            if value <= 0.0:
                raise ParameterError(f"{name} must be strictly positive, got {value!r}")
        for name, value in (("temperature", self.temperature),
                            ("input_power", self.input_power)):
            if value < 0.0:
                raise ParameterError(f"{name} must be >= 0, got {value!r}")
        ratio = self.omega_m / self.omega_c
        if ratio >= MAX_MECHANICAL_OPTICAL_RATIO:
            raise ParameterError(
                f"omega_m/omega_c = {ratio:.3e} violates omega_m << omega_c "
                f"(require < {MAX_MECHANICAL_OPTICAL_RATIO:g})")

    @property
    def detuning0(self) -> float:
        """Bare drive-cavity detuning (omega_0 - omega_c)/gamma_c."""
        return (self.omega_0 - self.omega_c) / self.gamma_c


@dataclass(frozen=True)
class DimensionlessParams:
    """Reduced power/temperature/detuning triple that fixes the criterion."""

    p_cal: float
    t_cal: float
    delta: float

    def __post_init__(self) -> None:
        require_finite(**vars(self))
        # The one detuning rule.  The criterion divides by 2 delta^2, so a
        # delta whose square is zero or subnormal (delta < ~1.5e-154) is out.
        if self.delta <= 0.0 or self.delta * self.delta < sys.float_info.min:
            raise ParameterError(
                f"delta must be finite and > 0 with a normal square, got {self.delta!r}")
        if self.p_cal < 0.0:
            raise ParameterError(f"p_cal must be >= 0, got {self.p_cal!r}")
        if self.t_cal < 0.0:
            raise ParameterError(f"t_cal must be >= 0, got {self.t_cal!r}")


@dataclass(frozen=True)
class SteadyState:
    """One working point of the radiation-pressure self-consistency.

    ``x`` is the mean mirror displacement [m], ``alpha`` the common
    intracavity amplitude of the two modes, ``alpha_in`` the classical input
    amplitude (real positive by phase convention), ``delta`` the
    self-consistent detuning in cavity linewidths, and ``stable`` the static
    stability of the branch.
    """

    x: float
    alpha: complex
    alpha_in: complex
    delta: float
    stable: bool = True


def input_amplitude_sq(params: PhysicalParams) -> float:
    """|alpha_in|^2 of each mode for equal pumping, P_in = 2 hbar omega_0 |alpha_in|^2."""
    return params.input_power / (2.0 * HBAR * params.omega_0)


def drive_kappa(params: PhysicalParams) -> float:
    """Dimensionless cubic coefficient kappa of the steady-state equation,
    2 hbar omega_c^2 |alpha_in|^2 / (m omega_m^2 L^2 gamma_c^2).

    Raises NumericalError where kappa is not finite, where a square
    overflows (OverflowError) or where the denominator underflows to 0, as
    gamma_c ** 2 does below ~1e-162 s^-2.
    """
    try:
        kappa = (2.0 * HBAR * params.omega_c ** 2 * input_amplitude_sq(params)
                 / (params.mass * params.omega_m ** 2
                    * params.cavity_length ** 2 * params.gamma_c ** 2))
    except (OverflowError, ZeroDivisionError) as exc:
        raise NumericalError(f"drive strength kappa is outside the double range "
                             f"({exc}) for {params}") from None
    if not math.isfinite(kappa):
        raise NumericalError(f"drive strength kappa is {kappa!r}, outside the "
                             f"double range, for {params}")
    return kappa


def to_dimensionless(params: PhysicalParams, delta: float) -> DimensionlessParams:
    """Reduce a physical parameter set at working detuning ``delta``.

    Raises
    ------
    ParameterError
        If ``delta`` breaks the detuning rule of `DimensionlessParams` (the
        reduced description is only defined for positive detuning).
    NumericalError
        Where p_cal or t_cal is not finite at a finite ``delta``, where a
        square in p_cal overflows (OverflowError) or where a denominator
        underflows to 0.
    """
    try:
        p_cal = (8.0 * params.omega_0 * delta * params.input_power
                 / (params.mass * params.cavity_length ** 2 * params.omega_m ** 2
                    * params.gamma_c ** 2 * (1.0 + 4.0 * delta * delta)))
        t_cal = (8.0 * K_B * params.temperature * params.gamma_m * delta
                 / (HBAR * params.omega_m ** 2))
    except (OverflowError, ZeroDivisionError) as exc:
        raise NumericalError(f"p_cal or t_cal is outside the double range ({exc}) "
                             f"for {params}") from None
    # The fields of params are finite, so at a finite delta only an overflow
    # leaves p_cal or t_cal inf or nan; DimensionlessParams refuses any other
    # delta itself.
    for name, value in (("p_cal", p_cal), ("t_cal", t_cal)):
        if math.isfinite(delta) and not math.isfinite(value):
            raise NumericalError(f"{name} is {value!r}, outside the double range, "
                                 f"for {params}")
    return DimensionlessParams(p_cal=p_cal, t_cal=t_cal, delta=delta)


def _cubic(delta: float, delta0: float, kappa: float) -> float:
    return (delta - delta0) * (0.25 + delta * delta) - kappa


def _cubic_deriv(delta: float, delta0: float) -> float:
    return 3.0 * delta * delta - 2.0 * delta0 * delta + 0.25


def _cubic_residual(delta: float, delta0: float, kappa: float) -> float:
    scale = max(abs(kappa), (abs(delta) + abs(delta0)) * (0.25 + delta * delta))
    value = abs(_cubic(delta, delta0, kappa))
    if scale == 0.0:
        return value
    return value / scale


def _polish(delta: float, delta0: float, kappa: float) -> float:
    """Newton refinement of a cubic root to machine precision."""
    for _ in range(60):
        f = _cubic(delta, delta0, kappa)
        fp = _cubic_deriv(delta, delta0)
        if fp == 0.0:
            break
        step = f / fp
        delta -= step
        if abs(step) <= 1e-16 * max(1.0, abs(delta)):
            break
    if _cubic_residual(delta, delta0, kappa) >= ROOT_RESIDUAL_TOL:
        raise ConvergenceError(
            f"cubic root polishing stalled at delta={delta!r} "
            f"(residual {_cubic_residual(delta, delta0, kappa):.3e})")
    return delta


def _bisect(lo: float, hi: float, delta0: float, kappa: float) -> float:
    flo = _cubic(lo, delta0, kappa)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fmid = _cubic(mid, delta0, kappa)
        if fmid == 0.0:
            return mid
        if (flo < 0.0) == (fmid < 0.0):
            lo, flo = mid, fmid
        else:
            hi = mid
        if hi - lo <= 1e-15 * max(1.0, abs(lo) + abs(hi)):
            break
    return 0.5 * (lo + hi)


def _real_roots(delta0: float, kappa: float) -> list[float]:
    """All real roots of (delta - delta0)(1/4 + delta^2) = kappa, ascending."""
    if kappa == 0.0:
        # The quadratic factor has no real zeros; the only root is delta0.
        return [delta0]
    span = 1.0 + abs(delta0) + abs(kappa) ** (1.0 / 3.0)
    cuts = []   # the extrema between three crossings
    disc = delta0 * delta0 - 0.75
    if disc > 0.0:
        sq = math.sqrt(disc)
        d_lo = (delta0 - sq) / 3.0   # local maximum
        d_hi = (delta0 + sq) / 3.0   # local minimum
        # A fold puts a double root at an extremum; each has its own scale.
        if (_cubic_residual(d_lo, delta0, kappa) <= 1e-12
                or _cubic_residual(d_hi, delta0, kappa) <= 1e-12):
            raise NumericalError(
                "degenerate double root of the steady-state cubic "
                f"(delta0={delta0!r}, kappa={kappa!r})")
        if not (_cubic(d_lo, delta0, kappa) < 0.0 or _cubic(d_hi, delta0, kappa) > 0.0):
            cuts = [d_lo, d_hi]   # f(d_lo) > 0 > f(d_hi): three crossings
    # Otherwise a single crossing: a monotone cubic, or one clear of the fold.
    # These edges need no widening.  kappa = drive_kappa >= 0, as
    # PhysicalParams refuses a negative power, so f(lo) < 0 at lo < delta0;
    # hi - delta0 >= kappa^(1/3) and |hi| > kappa^(1/3) give f(hi) > 0.
    lo = (cuts[0] if cuts else delta0) - span
    hi = (cuts[-1] if cuts else delta0) + span
    edges = [lo, *cuts, hi]
    return sorted(_polish(_bisect(a, b, delta0, kappa), delta0, kappa)
                  for a, b in zip(edges, edges[1:]))


def steady_state(params: PhysicalParams) -> list[SteadyState]:
    """Solve the radiation-pressure self-consistency cubic.

    Returns one `SteadyState` per real root, sorted ascending in delta.  The
    root count is 1 or 3; on a three-root (bistable) branch structure the
    middle root carries ``stable=False``.

    Raises
    ------
    ConvergenceError
        If root polishing cannot reach relative residual 1e-12.
    NumericalError
        On a degenerate double root (fold boundary), or when a root, its
        intracavity field or its displacement leaves the double range.
    """
    delta0 = params.detuning0
    kappa = drive_kappa(params)
    ain = math.sqrt(input_amplitude_sq(params))   # real positive by convention
    states = []
    for root in _real_roots(delta0, kappa):
        alpha = ain / (math.sqrt(params.gamma_c) * complex(0.5, -root))
        x = (2.0 * HBAR * params.omega_c * abs(alpha) ** 2
             / (params.mass * params.omega_m ** 2 * params.cavity_length))
        for name, value in (("detuning", root), ("intracavity field |alpha|", abs(alpha)),
                            ("mirror displacement", x)):
            if not math.isfinite(value):
                raise NumericalError(
                    f"steady-state {name} is {value!r}, outside the double range "
                    f"(detuning0={delta0!r}, kappa={kappa!r})")
        states.append(SteadyState(
            x=x, alpha=alpha, alpha_in=complex(ain, 0.0),
            delta=root, stable=_cubic_deriv(root, delta0) > 0.0))
    return states


def steady_state_residual(params: PhysicalParams, ss: SteadyState) -> float:
    """Largest relative residual of the steady-state relations at ``ss``."""
    delta0 = params.detuning0
    kappa = drive_kappa(params)
    r_cubic = _cubic_residual(ss.delta, delta0, kappa)
    # Detuning self-consistency: delta = delta0 + omega_c x / (L gamma_c).
    delta_back = delta0 + params.omega_c * ss.x / (params.cavity_length * params.gamma_c)
    r_delta = abs(delta_back - ss.delta) / max(1.0, abs(ss.delta))
    # Intracavity amplitude from the input field.
    denom = math.sqrt(params.gamma_c) * complex(0.5, -ss.delta)
    alpha_back = ss.alpha_in / denom
    scale = max(abs(ss.alpha), abs(alpha_back))
    r_alpha = abs(alpha_back - ss.alpha) / scale if scale > 0.0 else 0.0
    return max(r_cubic, r_delta, r_alpha)


def locality_check(tau: float, distance: float) -> bool:
    """True iff light cannot cross between detectors within the window.

    Checks the strict inequality c*tau/distance < 1 for measurement time
    ``tau`` [s] and detector separation ``distance`` [m].
    """
    if not (tau > 0.0) or not (distance > 0.0):
        raise ParameterError("tau and distance must be positive")
    return C_LIGHT * tau / distance < 1.0
