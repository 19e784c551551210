"""repro — Aurora: a versatile and flexible GNN accelerator, reproduced.

A full-system Python reproduction of *Aurora: A Versatile and Flexible
Accelerator for Graph Neural Networks* (Yang, Zheng, Louri — IPDPS 2024):
the reconfigurable PE array, the flexible NoC with bypass links, the
degree-aware mapping (Algorithm 1), the partition heuristic (Algorithm 2),
an analytical + cycle-level simulator, and behavioural models of the five
baseline accelerators the paper compares against.

Quickstart::

    from repro import AuroraAccelerator, get_model, load_dataset

    acc = AuroraAccelerator()
    result = acc.run(get_model("gcn"), load_dataset("cora"), hidden=64)
    print(result.total_seconds, result.energy.total)
"""

from .arrays import keep_large_temporaries_on_heap
from .baselines import (
    AWBGCN,
    BASELINE_CLASSES,
    GCNAX,
    BaselineAccelerator,
    BaselineTraits,
    FlowGNN,
    HyGCN,
    ReGNN,
    UnsupportedModelError,
    make_baseline,
)
from .config import (
    AcceleratorConfig,
    DRAMConfig,
    NoCConfig,
    default_config,
    small_config,
)
from .core import (
    AuroraAccelerator,
    AuroraSimulator,
    SimulationResult,
    layer_plan,
)
from .graphs import (
    CSRGraph,
    dataset_profile,
    from_edge_list,
    list_datasets,
    load_dataset,
    power_law_graph,
    rmat_graph,
    tile_graph,
)
from .models import (
    MODEL_ZOO,
    GNNModel,
    LayerDims,
    Phase,
    extract_workload,
    get_model,
    list_models,
    run_layer,
)
from .runtime import (
    FakeExecutor,
    ProcessExecutor,
    ResultCache,
    SerialExecutor,
    SimJob,
    job_key,
    run_job,
    run_jobs,
)

__version__ = "1.0.0"

keep_large_temporaries_on_heap()

__all__ = [
    "__version__",
    # configuration
    "AcceleratorConfig",
    "NoCConfig",
    "DRAMConfig",
    "default_config",
    "small_config",
    # graphs
    "CSRGraph",
    "from_edge_list",
    "load_dataset",
    "dataset_profile",
    "list_datasets",
    "power_law_graph",
    "rmat_graph",
    "tile_graph",
    # models
    "GNNModel",
    "MODEL_ZOO",
    "get_model",
    "list_models",
    "LayerDims",
    "Phase",
    "extract_workload",
    "run_layer",
    # core
    "AuroraAccelerator",
    "AuroraSimulator",
    "SimulationResult",
    "layer_plan",
    # baselines
    "BaselineAccelerator",
    "BaselineTraits",
    "UnsupportedModelError",
    "HyGCN",
    "AWBGCN",
    "GCNAX",
    "ReGNN",
    "FlowGNN",
    "BASELINE_CLASSES",
    "make_baseline",
    # runtime (parallel sweeps + result caching)
    "SimJob",
    "job_key",
    "run_job",
    "run_jobs",
    "ResultCache",
    "SerialExecutor",
    "ProcessExecutor",
    "FakeExecutor",
]
