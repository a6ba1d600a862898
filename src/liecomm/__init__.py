"""Invariants of spaces of commuting elements in compact Lie groups.

The library derives all root-system data from Cartan matrices, enumerates
Weyl groups as integer matrices, computes integral homology through exact
Smith normal forms, evaluates weighted-projective-space degrees, and realizes
the rank-1 sphere generator and its commutative cocycle numerically.  Every
headline value is cross-checked against an independent computation.
"""

from importlib import import_module

__version__ = "0.1.0"

# exported name -> its submodule, imported on first access (PEP 562)
_EXPORTS = {
    "AlcoveGeometry": "alcove",
    "alcove_geometry": "alcove",
    "barycenter": "alcove",
    "beta": "geom",
    "beta_check": "geom",
    "cocycle_check": "geom",
    "cocycle_s4": "geom",
    "degree_to_s2": "geom",
    "gamma": "geom",
    "null_homotopy_h": "geom",
    "rep_project_su2": "geom",
    "triangulate_prism_boundary": "geom",
    "FinAbGroup": "homology",
    "InvariantBreachError": "homology",
    "chain_homology": "homology",
    "smith_normal_form": "homology",
    "snf_divisors": "homology",
    "ExtensionReport": "invariants",
    "Pi2Report": "invariants",
    "bredon_e2_fragment": "invariants",
    "h2_extension_semisimple": "invariants",
    "pi2_hom_n": "invariants",
    "pi2_hom_pairs": "invariants",
    "pi4_commutative_classifying": "invariants",
    "FaceIndex": "rootdata",
    "LieType": "rootdata",
    "LieTypeError": "rootdata",
    "RootDatum": "rootdata",
    "build_root_datum": "rootdata",
    "dynkin_index": "rootdata",
    "lattice_quotient": "rootdata",
    "n_vee": "rootdata",
    "zeta_class": "rootdata",
    "RegularityError": "simplicial",
    "SimplicialComplex": "simplicial",
    "barycentric_subdivide": "simplicial",
    "quotient_by_involution": "simplicial",
    "torus_inversion_quotient": "simplicial",
    "torus_triangulation": "simplicial",
    "StabilizerSubgroup": "weyl",
    "WeylCapError": "weyl",
    "WeylGroup": "weyl",
    "alcove_reduce": "weyl",
    "cell_census": "weyl",
    "double_cosets": "weyl",
    "euler_char_rep": "weyl",
    "face_stabilizer": "weyl",
    "generate": "weyl",
    "irreducibility_check": "weyl",
    "molien_poincare": "weyl",
    "inclusion_degree": "wps",
    "kawasaki_homology": "wps",
    "proj_degree": "wps",
    "spin_pi2_stability": "wps",
    "spin_stability_report": "wps",
}

_SUBMODULES = frozenset(_EXPORTS.values()) | {"cli", "verify"}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS and name not in _SUBMODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = import_module(f".{_EXPORTS.get(name, name)}", __name__)
    value = getattr(module, name) if name in _EXPORTS else module
    globals()[name] = value  # cached: later reads skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *_SUBMODULES})
