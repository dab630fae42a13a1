"""SplitBeam reproduction: split-computing DNN beamforming feedback for Wi-Fi.

Reproduces Bahadori et al., "SplitBeam: Effective and Efficient
Beamforming in Wi-Fi Networks Through Split Computing" (ICDCS 2023).

Quickstart
----------
>>> from repro import build_dataset, dataset_spec, train_splitbeam, FAST
>>> dataset = build_dataset(dataset_spec("D1"), fidelity=FAST, seed=0)
>>> trained = train_splitbeam(dataset, compression=1 / 8, fidelity=FAST)
>>> trained.test_ber().ber  # doctest: +SKIP
0.02

Sub-packages
------------
- ``repro.nn`` -- NumPy neural-network training substrate;
- ``repro.phy`` -- MIMO-OFDM PHY (QAM, BCC/Viterbi, ZF, BER link sim);
- ``repro.standard`` -- IEEE 802.11 Givens-rotation feedback baseline;
- ``repro.channels`` -- TGn/TGac stochastic channel models (E1/E2);
- ``repro.datasets`` -- Table I dataset catalog, preprocessing, splits;
- ``repro.core`` -- the SplitBeam model, head/tail split, BOP solver;
- ``repro.baselines`` -- LB-SciFi and 802.11 feedback pipelines;
- ``repro.sounding`` -- channel-sounding protocol and delay model;
- ``repro.fpga`` -- FPGA latency model (Table III);
- ``repro.analysis`` -- experiment reporting helpers;
- ``repro.perf`` -- wall-clock benchmarks and profiling hooks;
- ``repro.runtime`` -- scenario registry, worker-pool experiment
  engine, and content-addressed result caching (``docs/runtime.md``);
- ``repro.obs`` -- run tracing, metrics, and the trace report
  (``docs/observability.md``);
- ``repro.lint`` -- the determinism and concurrency linter
  (``docs/static-analysis.md``).
"""

__version__ = "1.0.0"

from repro.errors import (
    ReproError,
    ConfigurationError,
    ShapeError,
    TrainingError,
    FeedbackError,
    ConstraintViolation,
    DatasetError,
)
from repro.config import Fidelity, PAPER, FAST, TRANSFER, SMOKE, fidelity
from repro.datasets import (
    DatasetSpec,
    CATALOG,
    dataset_spec,
    CsiDataset,
    build_dataset,
    save_dataset,
    load_dataset,
)
from repro.core import (
    SplitBeamNet,
    three_layer_widths,
    BottleneckQuantizer,
    SplitExecutor,
    train_splitbeam,
    TrainedSplitBeam,
    BopConstraints,
    BopResult,
    solve_bop,
    compare_schemes,
    NetworkConfiguration,
    ZooEntry,
    ModelZoo,
    ZooBuilder,
    ZooBuildResult,
    train_zoo,
    QosProfile,
    select_model,
    AdaptiveCompressionController,
)
from repro.core.pipeline import SplitBeamFeedback
from repro.baselines import Dot11Feedback, IdealSvdFeedback, LbSciFi, train_lbscifi
from repro.phy import LinkConfig, LinkSimulator
from repro.channels import Environment, E1, E2, SYNTHETIC, environment
from repro.core.network import (
    NetworkCampaign,
    NetworkCampaignResult,
    run_campaign,
)
from repro.sounding import (
    bm_reporting_delay,
    simulate_sounding,
    SoundingCampaign,
    feedback_overhead_rate_bps,
)
from repro.fpga import table3_latency_s, splitbeam_latency_s
from repro.runtime import (
    CheckpointStore,
    ExperimentEngine,
    NetworkCampaignSpec,
    ResultCache,
    Scenario,
    TrainingGrid,
    campaign_names,
    get_campaign,
    get_scenario,
    get_training_grid,
    scenario_names,
    training_grid_names,
)

__all__ = [
    "__version__",
    # errors
    "ReproError",
    "ConfigurationError",
    "ShapeError",
    "TrainingError",
    "FeedbackError",
    "ConstraintViolation",
    "DatasetError",
    # config
    "Fidelity",
    "PAPER",
    "FAST",
    "TRANSFER",
    "SMOKE",
    "fidelity",
    # datasets
    "DatasetSpec",
    "CATALOG",
    "dataset_spec",
    "CsiDataset",
    "build_dataset",
    "save_dataset",
    "load_dataset",
    # core
    "SplitBeamNet",
    "three_layer_widths",
    "BottleneckQuantizer",
    "SplitExecutor",
    "train_splitbeam",
    "TrainedSplitBeam",
    "BopConstraints",
    "BopResult",
    "solve_bop",
    "compare_schemes",
    "NetworkConfiguration",
    "ZooEntry",
    "ModelZoo",
    "ZooBuilder",
    "ZooBuildResult",
    "train_zoo",
    "QosProfile",
    "select_model",
    "AdaptiveCompressionController",
    "SplitBeamFeedback",
    # baselines
    "Dot11Feedback",
    "IdealSvdFeedback",
    "LbSciFi",
    "train_lbscifi",
    # phy
    "LinkConfig",
    "LinkSimulator",
    # channels
    "Environment",
    "E1",
    "E2",
    "SYNTHETIC",
    "environment",
    # campaigns / sounding / fpga
    "NetworkCampaign",
    "NetworkCampaignResult",
    "run_campaign",
    "bm_reporting_delay",
    "simulate_sounding",
    "SoundingCampaign",
    "feedback_overhead_rate_bps",
    "table3_latency_s",
    "splitbeam_latency_s",
    # runtime orchestration
    "CheckpointStore",
    "ExperimentEngine",
    "ResultCache",
    "Scenario",
    "TrainingGrid",
    "NetworkCampaignSpec",
    "get_scenario",
    "get_training_grid",
    "get_campaign",
    "scenario_names",
    "training_grid_names",
    "campaign_names",
]
