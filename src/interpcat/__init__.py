"""interpcat: exact diagram-algebra calculus for Rep(S_t), Rep(GL_t), Rep(O_t).

The library represents Hom spaces of the interpolation categories as sparse
linear combinations of combinatorial diagrams over the field Q(t), classifies
indecomposable objects through idempotents, recovers the classical categories
at integer t through the negligible-morphism quotient and an explicit matrix
oracle, and evaluates the symmetric-function multiplicities and central
character moments attached to Harish-Chandra bimodules.

Module map:

  ratfunc      exact rationals, polynomials in t, rational functions
  diagrams     partition / Brauer / walled diagram kernels; all per-flavor
               behaviour lives on these three classes, and tensor, braiding
               and identity merge rows color by color for all three
  homspaces    morphisms, composition, trace, duality, basis change
  karoubi      idempotents, promotion, decomposition, simple dimensions
  semisimplify Gram matrices of the trace pairing, negligible morphisms
  oracle       classical matrix realizations at integer t
  symfun       LR coefficients, stable multiplicities, character moments
  selftest     named invariant suites (also exposed via the CLI)
  cli          the `interpcat` command-line front end
"""

from interpcat.diagrams import (
    BrauerDiagram,
    PartitionDiagram,
    WalledDiagram,
    brauer_diagram,
    closure_components,
    coarsenings,
    compose_diagrams,
    enumerate_basis,
    flip,
    pairing_table,
    partition_diagram,
    refines,
    tensor_diagram,
    walled_diagram,
)
from interpcat.homspaces import (
    Morphism,
    ObjectSignature,
    coev,
    compose,
    delta_to_e,
    diagram_morphism,
    dimension,
    e_to_delta,
    ev,
    hom_basis,
    identity,
    sig_gl,
    sig_o,
    sig_s,
    sp_dimension,
    sp_trace,
    swap,
    tensor,
    trace,
)
from interpcat.karoubi import (
    KaroubiObject,
    bipartition_symmetrizer,
    decompose,
    dim_simple,
    is_idempotent,
    multiplicity,
    promote,
    special_p,
    young_symmetrizer,
)
from interpcat.oracle import (
    delta_matrix,
    e_matrix,
    functor_image_rank,
    hom_dim_classical,
    verify_structure_constants,
)
from interpcat.ratfunc import (
    PoleError,
    Poly,
    RatFunc,
    RF_ONE,
    RF_T,
    RF_ZERO,
    format_ratfunc,
    interpolate,
    parse_ratfunc,
    t_power,
)
from interpcat.selftest import run_selftest
from interpcat.semisimplify import (
    GramReport,
    annihilated_simples,
    gram,
    gram_determinant_symbolic,
    is_negligible,
    negligible_basis,
    quotient_dim,
)
from interpcat.symfun import (
    MomentSequence,
    ShiftData,
    TriplePartition,
    char_difference_forward,
    gl_mixed_multiplicity,
    lr_coefficient,
    osp_multiplicity,
    pbark,
    pk,
    search_decomposition,
    skew_schur_pairing,
    stable_hc_multiplicity,
    triple_decode,
    triple_encode,
    weight_moment_difference,
)

__version__ = "0.1.0"
