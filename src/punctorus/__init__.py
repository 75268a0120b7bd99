"""Geometry of once-punctured tori built from ideal quadrilaterals.

Closed-form laws for random cross ratios and geodesic lengths, the
Fuchsian group and accessory-parameter machinery connecting a
quadrilateral's cross ratio to the modulus of the rectangular torus it
glues into, and Monte Carlo checks for all of it.

The package itself exports nothing but its version: import the layer a
task needs (``closedform``, ``hypgeom``, ``lame``, ``modmap``,
``torusgroup``, ``mc``, ``verify`` or ``cli``), so that each command
loads only its own.
"""

__version__ = "0.1.0"
