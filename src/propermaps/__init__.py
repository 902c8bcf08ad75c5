"""Workbench for rational proper holomorphic maps between complex unit balls.

Certifies properness exactly at the coefficient level, computes invariants
(degree, embedding dimension, norm equivalence), constructs and verifies
homotopy families, builds iterated tensor (Whitney) sequences, and analyzes
the fibers cut out by the homogenization matrix of a map.  Exports load on first use.
"""

import sys
import types
from importlib import import_module

_EXPORTS = {
    "bounds": "DEFAULT_TOL coefficient_bound degree_bound",
    "polyalg": "HermitianForm Polynomial monomials_of_degree properness_form "
               "reduce_mod_sphere squared_norm_form",
    "ballmaps": "DenominatorVanishesError DimensionMismatchError NormEquivalence "
                "NormalizationError PropernessCertificate RationalBallMap Verdict apply_linear "
                "certify_maps certify_proper compose degree embedding_dimension norm_equivalent",
    "constructors": "BallAutomorphism BlaschkeProduct NonIntegralWindingError TensorSubspaceError "
                    "WhitneyStep WhitneyTerm automorphism_from_map automorphism_map blaschke_map "
                    "boundary_constant_map juxtapose tensor_on_subspace whitney_extend "
                    "whitney_start winding_degree winding_integral",
    "homotopy": "EndpointMismatchError FamilyReport HomotopyFamily NotTensorImageError "
                "automorphism_contraction blaschke_homotopy "
                "collapse_to_linear concat_families constant_family degree_drop_family "
                "faran_families homotopy_to_monomial juxtaposition_family verify_family",
    "xvariety": "EvaluationAtPoleError FiberReport GraphTestResult XMatrix build_xmatrix fiber_at "
                "graph_test xmatrix_along_family",
    "documents": "MapDocumentError dumps_map load_map load_map_path map_from_document "
                 "map_to_document",
    "corpus": "Corpus corpus faran_maps",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__version__ = "0.1.0"
__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))


class _Package(types.ModuleType):
    def __setattr__(self, name, value):  # the submodule corpus must not hide the export
        if not (isinstance(value, types.ModuleType) and name in _MODULE_OF):
            super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
