"""Rainbow k-connection colorings of complete multipartite graphs.

Constructions achieving the known palette bounds, their explicit witness
path families, an exact verifier for arbitrary colorings, pigeonhole
lower-bound certificates, and a brute-force rc_k oracle for tiny instances.
"""

from .bounds import (
    certify_bipartite_lower,
    certify_multipartite_lower,
    f_formula,
    find_color_twins,
    random_coloring,
)
from .constructions import (
    color_2_4_16,
    color_bipartite4,
    color_ctk,
    color_extension,
    color_mnn,
    witness_paths,
)
from .core import (
    Coloring,
    InvariantError,
    PartitionSpec,
    SchemaError,
    VerificationReport,
    WitnessFamily,
    family_is_valid,
    is_rainbow_path,
    path_colors,
)
from .oracle import (
    BudgetExceeded,
    enumerate_colorings_canonical,
    rc_k_exact,
)
from .verifier import (
    PairQuery,
    enumerate_rainbow_paths,
    max_disjoint_rainbow,
    structural_connectivity,
    verify_rainbow_k_connected,
)

__version__ = "0.1.0"
