"""Desk-scale construction and exhaustive verification of rainbow Ramsey
certificates: pattern-avoiding sequences, doubling (stepped-up) edge
colourings, set-lifted colourings, body-and-spine hypergraphs, and the
brute-force oracles that check all of them.
"""

from .errors import (
    BudgetExceededError,
    FileFormatError,
    IncompleteSearchError,
    ParameterError,
    PreconditionError,
    RamseyKitError,
)
from .seqpat import (
    InterlacingResult,
    Witness,
    check_sequence_witness,
    contains_max_induced,
    contains_pattern,
    contains_separated_permutation,
    enumerate_left_property_perms,
    enumerate_right_property_perms,
    find_l_r_or_homogeneous,
    gen_sk,
    has_left_property,
    has_right_property,
    has_unique_local_minimum,
    is_homogeneous,
    is_max_induced,
    longest_homogeneous_max_induced,
    pattern_of,
    separated_interlacing,
    subsequence,
    unique_maximum_property,
)
# the delta *function* stays in its submodule (ramseykit.delta.delta);
# flat-exporting it would shadow the submodule attribute
from .delta import (
    BinVertex,
    DeltaSeq,
    check_unique_and_max,
    delta_sequence,
    delta_sequence_of_ints,
    realize_max_induced,
    realize_separated,
)
from .stepup import (
    Colouring,
    PatternClassPartition,
    TabulatedColouring,
    WitnessReport,
    lift_colouring,
    partition_patterns,
    random_colouring,
    step_up_1,
    step_up_1b,
    step_up_2,
    sweep_reachable_colours,
    tower_compose,
    witness_p_colours,
)
from .rainbow import (
    RainbowReport,
    exact_rainbow_exists,
    max_span,
    search_random_rainbow,
    verify_rainbow,
)
from .hedgehog import (
    Hedgehog,
    HedgehogEmbedding,
    Hypergraph,
    build_hedgehog,
    burr_erdos_pair,
    degeneracy,
    find_mono_hedgehog,
    piercing_number,
    verify_hedgehog_spread,
)

__version__ = "0.1.0"
