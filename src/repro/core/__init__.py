"""SplitBeam core: the paper's primary contribution.

- :mod:`repro.core.model` — the split DNN architecture (Sec. IV-A,
  Table II);
- :mod:`repro.core.split` — head/tail execution with bottleneck
  quantization (the over-the-air compressed feedback V');
- :mod:`repro.core.costs` — STA compute, feedback-size and delay cost
  models (Sec. IV-B/IV-E);
- :mod:`repro.core.training` — the supervised training recipe
  (Sec. IV-D) and BER-based checkpointing;
- :mod:`repro.core.bop` — the bottleneck optimization problem and the
  Sec. IV-C heuristic;
- :mod:`repro.core.pipeline` — end-to-end train/evaluate entry points
  used by the examples and benchmarks.
"""

from repro.core.model import SplitBeamNet, three_layer_widths
from repro.core.split import (
    BottleneckQuantizer,
    HeadModel,
    TailModel,
    SplitExecutor,
    QuantizationNoise,
)
from repro.core.costs import (
    CALIBRATED_NN_FLOP_FACTOR,
    splitbeam_feedback_bits,
    splitbeam_head_flops,
    analytical_splitbeam_flops,
    comp_load_ratio,
    feedback_size_ratio,
    StaCostModel,
)
from repro.core.training import (
    TrainedSplitBeam,
    train_splitbeam,
    splitbeam_training_config,
    predict_bf,
    ber_of_model,
)
from repro.core.bop import BopConstraints, BopTrial, BopResult, solve_bop
from repro.core.pipeline import SchemeEvaluation, evaluate_scheme, compare_schemes
from repro.core.zoo import NetworkConfiguration, ZooEntry, ModelZoo
from repro.core.zoo_builder import ZooBuilder, ZooBuildResult, train_zoo
from repro.core.adaptive import (
    QosProfile,
    SelectionOutcome,
    select_model,
    AdaptiveCompressionController,
)
from repro.core.network import (
    NetworkCampaign,
    NetworkCampaignResult,
    run_campaign,
)

__all__ = [
    "SplitBeamNet",
    "three_layer_widths",
    "BottleneckQuantizer",
    "HeadModel",
    "TailModel",
    "SplitExecutor",
    "QuantizationNoise",
    "CALIBRATED_NN_FLOP_FACTOR",
    "splitbeam_feedback_bits",
    "splitbeam_head_flops",
    "analytical_splitbeam_flops",
    "comp_load_ratio",
    "feedback_size_ratio",
    "StaCostModel",
    "TrainedSplitBeam",
    "train_splitbeam",
    "splitbeam_training_config",
    "predict_bf",
    "ber_of_model",
    "BopConstraints",
    "BopTrial",
    "BopResult",
    "solve_bop",
    "SchemeEvaluation",
    "evaluate_scheme",
    "compare_schemes",
    "NetworkConfiguration",
    "ZooEntry",
    "ModelZoo",
    "ZooBuilder",
    "ZooBuildResult",
    "train_zoo",
    "QosProfile",
    "SelectionOutcome",
    "select_model",
    "AdaptiveCompressionController",
    "NetworkCampaign",
    "NetworkCampaignResult",
    "run_campaign",
]
