"""seqlimit: quasi-random words, word limits, and hereditary testing.

Exact-rational calculus for subsequence pattern densities of finite
words and their analytic limit objects (piecewise-polynomial functions
on [0, 1] and grid-measure permutons), plus uniformity diagnostics,
seeded sampling with concentration experiments, forcibility
certificates, a subsequence property tester, and weak regularity.
"""

from .words import (
    Word,
    AlphabetError,
    pattern_density,
    subsequence_count,
    density_table,
    hamming_d1,
    contains_pattern,
    random_subsequence,
)
from .streams import SeededStream, PRNG_ID
from .piecewise import (
    PiecewisePoly,
    LimitVector,
    t_density_limit,
    t_density_vector,
    d_box,
    d1_fn,
    prefix_sup_dist,
)
from .uniformity import (
    UniformityReport,
    best_uniformity,
    discrepancy,
    minimizer_residuals,
    exponential_sum,
    quasirandomness_report,
    CONVERSE_CONSTANT,
)
from .sampling import (
    f_random_word,
    f_random_word_vector,
    tail_experiment_dbox,
    subsequence_tail_experiment,
)
from .moments import (
    MomentCombination,
    moment_words,
    forcibility_certificate,
    check_forced,
    limit_densities,
)
from .hereditary import (
    ForbiddenFamily,
    d1_to_family,
    member_word,
    run_tester,
    completeness_soundness_curve,
)
from .permutons import (
    Permutation,
    GridMeasure,
    t_perm,
    t_grid,
    d_box_grid,
    sample_subperm,
)
from .regularity import (
    IntervalPartition,
    conditional_expectation,
    energy,
    extremal_interval,
    weak_regularity,
)

__version__ = "0.1.0"
