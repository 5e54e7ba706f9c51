"""Evaluate the EPR criterion at its best-known operating point.

Two orthogonally polarized cavity modes never interact directly; each pushes
the same oscillating end mirror, and the mirror motion writes correlations
between them.  Inferring mode 1's quadratures from homodyne records of
mode 2 then beats the Heisenberg bound whenever the left-hand side of the
product criterion drops below 1.
"""

from optoepr import (DimensionlessParams, PhysicalParams, epr_lhs,
                     to_dimensionless)

# Reduced operating point: dimensionless power, temperature, detuning.
point = DimensionlessParams(p_cal=0.17, t_cal=0.1, delta=0.18)
res = epr_lhs(point)

print("criterion at (p_cal, t_cal, delta) = (0.17, 0.1, 0.18)")
print(f"  eps(0)      = {res.eps0:+.6f}   (negative: amplitude correlations)")
print(f"  eps(pi/2)   = {res.eps_half_pi:+.6f}")
print(f"  var_x       = {res.var_x:.6f}  in units of gamma_c")
print(f"  var_y       = {res.var_y:.6f}")
print(f"  lhs         = {res.lhs:.6f}   (< 1 -> paradox: {res.paradox})")
print(f"  gains       = ({res.gain_x:+.4f}, {res.gain_y:+.4f})")

# The same point expressed through a laboratory parameter set.  Reducing the
# often-quoted experimental numbers gives p_cal ~ 0.159 and t_cal ~ 0.189
# (about 1.9x the usually stated 0.1); both values are reported as computed.
lab = PhysicalParams(mass=3e-5, cavity_length=1e-3, omega_m=2e6, gamma_m=1.0,
                     omega_c=2e15, omega_0=2e15, gamma_c=2e6, temperature=4.0,
                     input_power=0.03)
reduced = to_dimensionless(lab, 0.18)
print("\nreduction of the quoted laboratory set at delta = 0.18:")
print(f"  p_cal = {reduced.p_cal:.4f}   t_cal = {reduced.t_cal:.4f}")
print(f"  lhs   = {epr_lhs(reduced).lhs:.4f}  "
      f"(paradox: {epr_lhs(reduced).paradox})")
