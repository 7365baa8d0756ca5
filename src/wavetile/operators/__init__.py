"""Bilinear operators: paraproducts, BHT, vector-valued wrappers, ranges."""

from .bht import BHTModelSpec, bht_kernel, bht_model, bht_spectral
from .leibniz import LeibnizExponents, leibniz_sides
from .paraproducts import (
    LocalizationSpec,
    ParaproductSpec,
    alpha_symbol_coefficients,
    discretized_paraproduct,
    localized_paraproduct,
    shifted_paraproduct,
    telescoping_decomposition,
    tensor_paraproduct,
    trilinear_form,
)
from .ranges import (
    RangeMembership,
    RangeQuery,
    bht_range_membership,
    format_range_query,
    parse_range_query,
    range_grid_mismatches,
    scalar_range_member,
)
from .vector import vector_valued_apply

__all__ = [
    "BHTModelSpec",
    "LeibnizExponents",
    "LocalizationSpec",
    "ParaproductSpec",
    "RangeMembership",
    "RangeQuery",
    "alpha_symbol_coefficients",
    "bht_kernel",
    "bht_model",
    "bht_spectral",
    "bht_range_membership",
    "discretized_paraproduct",
    "format_range_query",
    "leibniz_sides",
    "localized_paraproduct",
    "parse_range_query",
    "range_grid_mismatches",
    "scalar_range_member",
    "shifted_paraproduct",
    "telescoping_decomposition",
    "tensor_paraproduct",
    "trilinear_form",
    "vector_valued_apply",
]
