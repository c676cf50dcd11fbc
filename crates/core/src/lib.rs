//! # yoloc-core
//!
//! The YOLoC framework itself (DAC 2022 reproduction): the ReBranch
//! structure, the four model-flexibility options of Fig. 6 with their
//! transfer-learning harness, the CiM weight mapper, the YOLO-style
//! detector for the Fig. 12 experiments, and the system-level evaluator
//! behind Fig. 13/14.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compiler;
pub mod detector;
pub mod engine;
pub mod mapping;
pub mod qconv;
pub mod rebranch;
pub mod serve;
pub mod strategies;
pub mod system;
pub mod tiny_models;
pub mod training_cost;

pub use compiler::{
    software_forward, CompileOptions, CompiledNetwork, ExecPlan, ExecutionReport, FaultConfig,
    MemDomain, MemoryParams, NetworkWeights,
};
pub use detector::{
    eval_map, pretrain_detector, train_detector, DetectionSuite, DetectorStrategy, TinyYoloDetector,
};
pub use engine::{sample_stream_seed, WorkerPool};
pub use mapping::{
    map_network, FaultMap, LayerPlacement, MapFaultError, MappingStrategy, NetworkMapping,
};
pub use rebranch::{ReBranchConv, ReBranchRatios};
pub use strategies::{evaluate_strategy, pretrain_base, Strategy, StrategyResult, TrainConfig};
pub use system::{
    evaluate, AreaBreakdown, EnergyBreakdown, SystemKind, SystemParams, SystemReport,
};
pub use tiny_models::{ConvBlock, ConvUnit, Family, SpwdConv, TinyCnn};
