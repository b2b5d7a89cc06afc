"""Primitive monoids of finite posets, their categorical surgery, graph
monoids of quivers, the localized path-style algebra as a rewriting
system, and its exact Toeplitz-type representation."""

__version__ = "0.1.0"

from .poset import (  # noqa: F401
    LabelledPoset,
    LowerSet,
    PosetError,
    Quiver,
    boundary,
    depth,
    down_set,
    enumerate_posets,
    fig2_poset,
    height,
    is_complete_hom,
    is_forest,
    lower_covers,
    lower_sets,
    make_poset,
    maximal_chains,
    parse_poset,
    quiver_T,
    to_dot,
)
from .primon import (  # noqa: F401
    INF,
    MonElem,
    MonoidError,
    OracleLimitError,
    OrderIdeal,
    PhiTuple,
    PrimePair,
    PrimitiveMonoid,
    apw_graph_shape,
    check_refinement,
    check_separative,
    check_strongly_separative,
    from_poset,
    monoid_iso,
    order_ideal,
    quotient,
)
from .constructions import (  # noqa: F401
    amalgam_pushout,
    assemble,
    build_F,
    crowned_pushout,
    pullback_primitive,
    reconstruct_down,
    verify_coequalizer,
    verify_pullback_universal,
)
from .graphmon import (  # noqa: F401
    build_Er,
    check_Er_equals_chain,
    graph_monoid,
    hereditary_saturated,
    parse_quiver,
    quotient_graph,
    restrict_graph,
)
from .leavitt import (  # noqa: F401
    AlgElement,
    AlgebraError,
    generator,
    grade,
    in_ideal,
    injectivity_probe,
    involute,
    parse_element,
    project_mod_ideal,
)
from .toeplitz import (  # noqa: F401
    RepVector,
    SigmaPoly,
    act,
    act_element,
    build_space,
    check_relation,
    invert_sigma,
    run_relation_suite,
)
