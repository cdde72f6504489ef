"""pearl_floer: desk-scale tools for exact graded Lagrangian immersions.

Modules
-------
geom
    Linear symplectic geometry of C^n: unitary frames for Lagrangian
    planes, Kahler angles, squared-determinant phases, intersection index.
gf2
    Exact linear algebra over GF(2): bit-packed matrices, graded cochain
    complexes, mapping cones, filtered complexes and their spectral pages.
floer
    Generator/differential data for immersed Floer-type complexes: datum
    validation, action discipline, positivity thresholds, action
    filtration, rank-inequality reports.
audit
    Degeneration-budget audits and the pattern files they read.
immersion
    Discretisation pipeline: chart meshes, primitive and grading
    propagation, double-point detection with Newton refinement.
models
    Small built-in immersions (flat plane, round circle, figure eight,
    cylinder) and the sphere model's registry entry.
sphere
    The immersed-sphere model with one transverse double point: chart
    atlas, holomorphic disc family, and the associated 4-generator datum.
fileformat
    The FLD v1 JSON interchange format.
cli
    The ``pearl-floer`` command line interface.
"""

from __future__ import annotations

__version__ = "0.1.0"
