"""Curve diffusion flow of closed plane curves.

Semi-implicit solver for the fourth-order flow with normal velocity equal to
minus the second arclength derivative of curvature, plus the analysis layer
that certifies conservation identities, smallness conditions, and the
inequality toolbox around them.

Import each name from its module; the package itself loads none of them:
``geometry``, ``flow``, ``analysis``, ``intersections``, ``errors``, ``cli``.
"""

__version__ = "0.1.0"
