"""Design-space exploration over the content-addressed job cache.

``repro.dse`` turns the repo's simulation runtime into a search engine:
declare a :class:`DesignSpace` (typed axes + constraints over the
accelerator/NoC/mapping parameters), pick an optimizer
(:class:`RandomSearch`, :class:`HillClimb`, :class:`GeneticAlgorithm`,
:class:`SuccessiveHalving`), and a :class:`DSERunner` drives candidate
batches through ``run_jobs`` under evaluation and wall-clock budgets.
Because every candidate encodes to a content-addressed :class:`SimJob`,
repeated designs — within a search, across optimizers, across runs —
are served from the result cache instead of re-simulated.

Surfaces: the ``repro dse`` CLI command and ``POST /dse`` + ``GET
/dse/<id>`` on the serve layer; perfbench's ``design-search`` workload
measures it.
"""

from .artifacts import (
    TrajectoryWriter,
    read_trajectory,
    render_best,
    render_trajectory,
    summarize_trajectory,
)
from .grids import GRIDS, build_grid, list_grids
from .optimizers import (
    OPTIMIZERS,
    Candidate,
    GeneticAlgorithm,
    HillClimb,
    Optimizer,
    RandomSearch,
    SuccessiveHalving,
    build_optimizer,
    list_optimizers,
)
from .runner import (
    OBJECTIVES,
    DSERunner,
    SearchResult,
    SearchSpec,
    evaluate_grid,
)
from .service import DSEManager
from .space import (
    SPACES,
    Categorical,
    Constraint,
    DesignSpace,
    IntGrid,
    LogFloat,
    build_space,
    list_spaces,
)

__all__ = [
    "Categorical",
    "IntGrid",
    "LogFloat",
    "Constraint",
    "DesignSpace",
    "SPACES",
    "build_space",
    "list_spaces",
    "Candidate",
    "Optimizer",
    "RandomSearch",
    "HillClimb",
    "GeneticAlgorithm",
    "SuccessiveHalving",
    "OPTIMIZERS",
    "build_optimizer",
    "list_optimizers",
    "OBJECTIVES",
    "SearchSpec",
    "SearchResult",
    "DSERunner",
    "evaluate_grid",
    "GRIDS",
    "build_grid",
    "list_grids",
    "DSEManager",
    "TrajectoryWriter",
    "read_trajectory",
    "summarize_trajectory",
    "render_best",
    "render_trajectory",
]
