"""Generalized quadrangles from gain functions on incidence graphs.

A gain graph on a linear space expands into a candidate quadrangle; the
expansion is a generalized quadrangle exactly when every detour-gain
table is a bijection.  The package ships the affine-plane family that
realizes this over any field, the symplectic quadrangle and its Payne
derivation for cross-checks, verifiers for the structural consequences,
isomorphism tooling, and a search over gain assignments on small bases.
"""

from .fields import GF, Rationals, field_from_order
from .groups import AdditiveGroup, CyclicGroup, GroupAction, group_from_spec
from .geometry import (IncidenceStructure, Isomorphism, Verdict, census_ngon,
                       chain_census, compose_isomorphisms, count_shortest_chains,
                       distance, firmness, invert_isomorphism, is_chain,
                       is_generalized_ngon, is_generalized_quadrangle,
                       is_linear_space, is_ovoid, quadrangle_order,
                       steiner_parameters, structure_from_json, structure_to_json,
                       verify_isomorphism)
from .gains import (GainGraph, gains_from_json, gains_to_json, identity_gains,
                    spanning_tree_edges, spanning_tree_gauge, switch, walk_gain)
from .construction import (Expansion, bijective_pair_count, detour_gains, expand,
                           gq_criterion, gq_parameters, label_sweep, lift_chain,
                           switching_isomorphism)
from .catalog import (AffinePlane, SymplecticQuadrangle, affine_gains,
                      affine_plane, detour_formula, dual, payne_derivation,
                      symplectic_quadrangle)
from .iso import CanonicalForm, are_isomorphic, canonical_form, distinguishing_invariant
from .search import SearchReport, run_search, verify_known

__version__ = "0.1.0"
