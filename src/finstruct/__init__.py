"""Finite relational structures: homomorphisms, amalgamation, consistency."""

from .core import (
    AmalgamResult,
    BudgetExceeded,
    DomainError,
    ElementMap,
    Signature,
    SignatureMismatch,
    Structure,
    StructureError,
    blowup,
    disjoint_union,
    free_amalgam,
    induced_substructure,
    is_connected,
    pullback,
    quotient,
    reduct,
    union,
)
from .morphisms import (
    EmbeddingSet,
    canonical_embeddings,
    check_morphism,
    check_partial_homomorphism,
    enumerate_embeddings,
    enumerate_homomorphisms,
    find_homomorphism,
    is_isomorphic,
    restriction_set,
)
from .consistency import (
    ConsistencyFamily,
    GameTrace,
    inverse_hom_transfer,
    is_consistent,
    kl_family,
    spoiler_trace,
    validate_trace,
)
from .families import (
    AbelianGroup,
    Coloring,
    Diagram,
    TreeShape,
    build_JC,
    build_template,
    diagram_Fn,
    diagram_G,
    diagram_lineq,
    gen_Fn,
    gen_G,
    gen_Pn,
    io_expansion,
    cplus_check,
    marking,
    tree_instance,
)
from .verifier import (
    ClassOracle,
    ConfusionReport,
    ExpansionSpec,
    antichain,
    check_confusion,
    collision_search,
    consistency_oracle,
    forbh_oracle,
    homogenization_probe,
    random_expansion,
    witnesses_failure,
)
from .bounds import BoundsParams, BoundsReport, condition_holds, minimal_m

__version__ = "0.1.0"
