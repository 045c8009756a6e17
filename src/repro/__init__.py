"""repro — Power-Aware Speedup, reproduced.

A library-quality reproduction of *Power-Aware Speedup* (Rong Ge &
Kirk W. Cameron, IPDPS 2007): an analytical model of the combined
effect of processor count and DVFS frequency on parallel execution
time, validated on a simulated 16-node power-aware cluster running
NAS-Parallel-Benchmark workload models.

The package splits into:

* the paper's contribution — :mod:`repro.core` (the model, both
  parameterizations, energy/EDP prediction, sweet-spot search);
* the substrates it needs — :mod:`repro.sim` (discrete-event engine),
  :mod:`repro.cluster` (DVFS cluster hardware models),
  :mod:`repro.mpi` (simulated message passing), :mod:`repro.npb`
  (benchmark workload models), :mod:`repro.proftools`
  (PAPI/LMBENCH/MPPTEST-style measurement), :mod:`repro.governor`
  (DVFS policies, offline schedules and online governors, run through
  one governed-run path) and :mod:`repro.sched` (schedule evaluation);
* the evaluation — :mod:`repro.experiments` (one driver per paper
  table/figure) and :mod:`repro.reporting`.

Quickstart
----------
>>> from repro import FTBenchmark, paper_cluster
>>> from repro.units import mhz
>>> ft = FTBenchmark()
>>> result = ft.run(paper_cluster(16, frequency_hz=mhz(1400)))
>>> result.elapsed_s > 0 and result.energy_j > 0
True

See ``examples/`` for complete walk-throughs and
``repro-experiments run-all`` for every reproduced table and figure.
"""

from repro.cluster import (
    PENTIUM_M_OPERATING_POINTS,
    Cluster,
    ClusterSpec,
    InstructionMix,
    OperatingPoint,
    OperatingPointTable,
    paper_cluster,
    paper_spec,
)
from repro.core import (
    EnergyModel,
    ErrorTable,
    ExecutionTimeModel,
    FineGrainParameterization,
    PowerAwareSpeedupModel,
    Predictor,
    SimplifiedParameterization,
    SweetSpotFinder,
    Workload,
    WorkloadRates,
    amdahl_speedup,
    generalized_amdahl_speedup,
    gustafson_speedup,
)
from repro.core.measurements import TimingCampaign
from repro.errors import (
    CampaignExecutionError,
    CellExecutionError,
    CellTimeoutError,
    ReproError,
)
from repro.experiments import measure_campaign, run_experiment
from repro.runtime import (
    FaultPlan,
    campaign_metrics,
    install_fault_plan,
    parse_fault_plan,
    reset_campaign_metrics,
)
from repro.runtime import configure as configure_runtime
from repro.mpi import RunResult, run_program
from repro.npb import (
    BENCHMARKS,
    BenchmarkModel,
    CGBenchmark,
    EPBenchmark,
    FTBenchmark,
    ISBenchmark,
    LUBenchmark,
    MGBenchmark,
    ProblemClass,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # cluster / platform
    "Cluster",
    "ClusterSpec",
    "paper_cluster",
    "paper_spec",
    "OperatingPoint",
    "OperatingPointTable",
    "PENTIUM_M_OPERATING_POINTS",
    "InstructionMix",
    # runtime
    "run_program",
    "RunResult",
    # benchmarks
    "ProblemClass",
    "BenchmarkModel",
    "EPBenchmark",
    "FTBenchmark",
    "LUBenchmark",
    "CGBenchmark",
    "MGBenchmark",
    "ISBenchmark",
    "BENCHMARKS",
    # the model
    "Workload",
    "WorkloadRates",
    "ExecutionTimeModel",
    "PowerAwareSpeedupModel",
    "SimplifiedParameterization",
    "FineGrainParameterization",
    "EnergyModel",
    "Predictor",
    "SweetSpotFinder",
    "ErrorTable",
    "TimingCampaign",
    "amdahl_speedup",
    "generalized_amdahl_speedup",
    "gustafson_speedup",
    # evaluation
    "measure_campaign",
    "run_experiment",
    # campaign runtime
    "configure_runtime",
    "campaign_metrics",
    "reset_campaign_metrics",
    # fault tolerance
    "ReproError",
    "CampaignExecutionError",
    "CellExecutionError",
    "CellTimeoutError",
    "FaultPlan",
    "install_fault_plan",
    "parse_fault_plan",
]
