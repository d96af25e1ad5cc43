"""magiclab: stabilizer enumeration, magic monotones, and their cross-checks."""

__version__ = "0.1.0"

from .binlin import IRREDUCIBLE_POLY
from .boolfn import (
    BooleanFunction,
    anf_string,
    dmin_bound_from_chi,
    from_truth_table,
    hypergraph_state,
    nonquadraticity,
    overlap_from_weight,
    parse_anf,
    truth_table_hex,
    welch_function,
)
from .haar import (
    ExperimentConfig,
    dmin_bound_curve,
    dmin_distribution,
    haar_state,
    overlap_cdf_pvalue,
    sample_dmin,
)
from .lattice import (
    CellDecomposition,
    Lattice,
    build_lattice_state,
    cell_decompose,
    decomposition_bound,
    lattice_bound,
    lattice_centers,
    make_lattice,
    separable_bound,
    triangular_lattice,
    union_jack_lattice,
)
from .mbqc import (
    MeasurementLayout,
    outcome_distribution,
    pbound_check,
    planted_verifier,
    randomized_search,
    search_repetition_bound,
)
from .measures import (
    MagicReport,
    TOLERANCES,
    dmin,
    extent,
    free_robustness,
    golden_state,
    magic_report,
)
from .pauli import (
    InconsistentTableauError,
    PauliOperator,
    StabilizerTableau,
    hermitian_pauli,
    is_hermitian_involution,
    pauli_from_string,
    pauli_to_string,
    tableau_to_state,
    weyl_operator,
)
from .solvers import (
    SolverError,
    solve_extent,
    solve_lp,
)
from .stabdict import (
    ResourceLimitError,
    StabilizerDictionary,
    count_stabilizer_states,
    enumerate_stabilizer_states,
    iter_stabilizer_states,
)
from .wigner import (
    WignerFunction,
    mana,
    mana_lr_check,
    sum_negativity,
    wigner_function,
)
