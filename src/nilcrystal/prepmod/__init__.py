"""Exact-linear-algebra engine for nilpotent preprojective-algebra modules."""

from .module import (
    Arrow,
    ModuleMap,
    PModule,
    Submodule,
    arrows_into,
    arrows_of,
    arrows_out_of,
    direct_power,
    direct_sum,
    quotient,
    reverse_arrow,
    semisimple,
    simple,
    soc_chain,
    soc_i_dim,
    socle_dims,
    top_i_dim,
    zero_module,
)
from .functors import sigma, sigma_on_map, sigma_star, sigma_star_on_map
from .families import (
    hat_graph,
    k_minus,
    m_module,
    n_hat,
    n_module,
    restrict_to_unprimed,
    v_module,
)
from .hom import (
    find_injective_hom,
    find_iso,
    find_surjective_hom,
    hom_space,
    is_iso,
    random_hom,
    retry_budget,
)
from .injectives import injective_module
from .strata import build_filtered, extension_maps, extract_datum, random_extension
