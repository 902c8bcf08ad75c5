"""Workbench for rational proper holomorphic maps between complex unit balls.

Certifies properness exactly at the coefficient level, computes invariants
(degree, embedding dimension, norm equivalence), constructs and verifies
homotopy families, builds iterated tensor (Whitney) sequences, and analyzes
the fibers cut out by the homogenization matrix of a map.
"""

from .polyalg import (DEFAULT_TOL, HermitianForm, Polynomial, monomials_of_degree,
                      properness_form, reduce_mod_sphere, squared_norm_form)
from .ballmaps import (DenominatorVanishesError, DimensionMismatchError,
                       NormEquivalence, NormalizationError, PropernessCertificate,
                       RationalBallMap, Verdict, apply_linear, certify_maps, certify_proper,
                       coefficient_bound, compose, degree, degree_bound,
                       embedding_dimension, norm_equivalent)
from .constructors import (BallAutomorphism, BlaschkeProduct, NonIntegralWindingError,
                           TensorSubspaceError, WhitneyStep, WhitneyTerm,
                           automorphism_from_map, automorphism_map, blaschke_map,
                           boundary_constant_map, juxtapose, tensor_on_subspace,
                           whitney_extend, whitney_start, winding_degree,
                           winding_integral)
from .homotopy import (EndpointMismatchError, FamilyReport, HomotopyFamily,
                       NotTensorImageError, PropernessFailureError,
                       automorphism_contraction, blaschke_homotopy,
                       collapse_to_linear, concat_families, constant_family,
                       degree_drop_family, faran_families, faran_maps,
                       homotopy_to_monomial, juxtaposition_family,
                       verify_family)
from .xvariety import (EvaluationAtPoleError, FiberReport, GraphTestResult,
                       XMatrix, build_xmatrix, fiber_at, graph_test,
                       xmatrix_along_family)
from .documents import (MapDocumentError, dumps_map, load_map,
                        load_map_path, map_from_document, map_to_document)
from .corpus import Corpus, corpus

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
