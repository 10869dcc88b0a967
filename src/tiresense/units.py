"""Unit conversions at the scenario boundary.

Scenario files keep the units of the tire test reports they mirror
(pounds-force, psi, millimetres); all physics runs in SI internally.
The conversion constants are fixed, not configurable.
"""

LBF_TO_N = 4.4482216
MM_TO_M = 1e-3
