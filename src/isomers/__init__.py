"""Enumeration of substitution isomers via permutation-group orbits of tabloids."""

from .catalog import (
    GeneticDiagram,
    SkeletonSpec,
    builtin,
    emit_dot,
    genetic_diagram,
    kauffmann_count,
    korner_relations,
)
from .counting import (
    CountReport,
    build_report,
    check_scalar_cap,
    combinatorially_equivalent,
    count_brute,
    count_classes,
    count_ruch,
    count_scalar,
    count_types,
    cycle_index,
    monotonicity_check,
    scalar_product,
    young_character_index,
)
from .dissections import (
    Dissection,
    all_tabloids,
    is_cover_dissection,
    is_cover_tabloid,
    leq_dissection,
    lift_shape,
    parse_tabloid,
    raise_into,
    raising_moves,
    standard_tabloid,
    substitution_chain,
)
from .orbits import (
    ChiralReport,
    Orbit,
    OrbitSpace,
    check_tabloid_cap,
    check_theta_mask,
    classify_chiral,
    is_character_orbit,
    orbit_adjacent,
    orbit_cover,
    orbit_interval,
    orbit_leq,
    orbit_poset,
    orbit_space,
    reaction_pairs,
    refine,
    stabilizer,
)
from .partitions import (
    Partition,
    all_partitions,
    adjacent_raising_chain,
    centralizer_order,
    covers_above,
    dominance_leq,
    format_partition,
    is_cover_composition,
    is_cover_partition,
    parse_partition,
    raising_op,
    raising_pair,
)
from .perms import (
    CapExceeded,
    LinearCharacter,
    PermGroup,
    Permutation,
    generate,
    linear_characters,
    parse_cycles,
    relative_sign_character,
)

__version__ = "0.1.0"
