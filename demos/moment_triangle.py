"""Three independent routes to the same matrix-entry moments.

A tabulated closed form, the exponential of the Casimir generator on
orbit indicators (``moment``), and a seeded Monte Carlo average must agree
(the first two to near machine precision, the third within a few standard
errors).
"""

from __future__ import annotations

from cutofflab import (SimulationConfig, closed_form_value, describe,
                       estimate, generator_moment, moment)

T = 0.8

print("E[g_11^2] on SO(5) at t =", T)
closed = closed_form_value("so", 5, "ii^2", T)
generator = complex(moment("so", 5, [(0, 0), (0, 0)], T)).real
print(f"  closed form        {closed:.12f}")
print(f"  generator exp      {generator:.12f}   (diff {abs(closed - generator):.2e})")

config = SimulationConfig(paths=4000, seed=17, threads=2)
mc = estimate(describe("SO", 5), "entry_sq", T, config)
dev = abs(complex(mc.mean).real - closed) / mc.std_error
print(f"  Monte Carlo        {complex(mc.mean).real:.6f} "
      f"+- {mc.std_error:.6f}   ({dev:.2f} standard errors off)")

print("\nE[|g_12|^2 |g_13|^2] on SU(4) at t =", T)
closed = closed_form_value("su", 4, "|ij|^2.|ik|^2", T)
generator = complex(generator_moment("su", 4, "|ij|^2.|ik|^2", T)).real
print(f"  closed form        {closed:.12f}")
print(f"  generator exp      {generator:.12f}   (diff {abs(closed - generator):.2e})")
