"""Exact-arithmetic toolkit for cluster scattering diagrams.

Subpackage map:

* :mod:`clusterscatter.lattice`     -- lattices, skew forms, Laurent/series arithmetic
* :mod:`clusterscatter.cluster`     -- seeds, matrix/seed mutation, g/c-vector duality
* :mod:`clusterscatter.quiver`      -- quiver representations, mesh translates, Grassmannian counts
* :mod:`clusterscatter.scattering`  -- walls, crossing automorphisms, rank-2 completion
* :mod:`clusterscatter.brokenlines` -- broken-line enumeration and theta functions
* :mod:`clusterscatter.hall`        -- quantum bend rule, strata of broken lines, stability phases
* :mod:`clusterscatter.cli`         -- command-line driver and SVG/DOT/TikZ emitters
"""

from __future__ import annotations

__version__ = "0.1.0"
