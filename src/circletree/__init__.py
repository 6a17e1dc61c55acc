"""Exact-arithmetic Hopf algebra of decorated rooted circle trees,
its coordinate-map twin, and the output-feedback group of series."""

from .coordmaps import CoordMap, antipode as coord_antipode, full_delta, tilde_delta
from .groupops import (
    Character,
    antipode_inverse,
    compose,
    convolve,
    group_inverse,
    group_product,
    hat_compose,
    mod_compose,
)
from .hopf import (
    antipode,
    antipode_forest,
    antipode_recursive,
    antipode_stats,
    coproduct,
    linearized_coproduct,
    reduced_coproduct,
)
from .lincomb import LinComb
from .prelie import lie_bracket, prelie_product
from .series import Series
from .trees import (
    Rct,
    degree,
    enumerate_admissible_extractions,
    enumerate_all_extractions,
    quotient,
    restrict,
    weight,
)
from .words import letter_weight, shuffle, word_degree

__all__ = [
    "CoordMap", "coord_antipode", "full_delta", "tilde_delta",
    "Character", "antipode_inverse", "compose", "convolve", "group_inverse", "group_product",
    "hat_compose", "mod_compose",
    "antipode", "antipode_forest", "antipode_recursive", "antipode_stats",
    "coproduct", "linearized_coproduct", "reduced_coproduct",
    "LinComb", "lie_bracket", "prelie_product",
    "Series",
    "Rct", "degree", "enumerate_admissible_extractions", "enumerate_all_extractions",
    "quotient", "restrict", "weight",
    "letter_weight", "shuffle", "word_degree",
]
