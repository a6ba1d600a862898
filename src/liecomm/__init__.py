"""Invariants of spaces of commuting elements in compact Lie groups.

The library derives all root-system data from Cartan matrices, enumerates
Weyl groups as integer matrices, computes integral homology through exact
Smith normal forms, evaluates weighted-projective-space degrees, and realizes
the rank-1 sphere generator and its commutative cocycle numerically.  Every
headline value is cross-checked against an independent computation.
"""

__version__ = "0.1.0"

from .alcove import (
    AlcoveGeometry,
    alcove_geometry,
    barycenter,
)
from .geom import (
    beta,
    beta_check,
    cocycle_check,
    cocycle_s4,
    degree_to_s2,
    gamma,
    null_homotopy_h,
    rep_project_su2,
    triangulate_prism_boundary,
)
from .homology import (
    FinAbGroup,
    InvariantBreachError,
    chain_homology,
    smith_normal_form,
    snf_divisors,
)
from .invariants import (
    ExtensionReport,
    Pi2Report,
    bredon_e2_fragment,
    h2_extension_semisimple,
    pi2_hom_n,
    pi2_hom_pairs,
    pi4_commutative_classifying,
    spin_pi2_stability,
)
from .rootdata import (
    FaceIndex,
    LieType,
    LieTypeError,
    RootDatum,
    build_root_datum,
    dynkin_index,
    lattice_quotient,
    n_vee,
    zeta_class,
)
from .simplicial import (
    RegularityError,
    SimplicialComplex,
    barycentric_subdivide,
    quotient_by_involution,
    torus_inversion_quotient,
    torus_triangulation,
)
from .weyl import (
    StabilizerSubgroup,
    WeylCapError,
    WeylGroup,
    alcove_reduce,
    cell_census,
    double_cosets,
    euler_char_rep,
    face_stabilizer,
    generate,
    irreducibility_check,
    molien_poincare,
)
from .wps import (
    composite_su2_degree,
    inclusion_degree,
    kawasaki_homology,
    proj_degree,
    spin_stability_report,
)
