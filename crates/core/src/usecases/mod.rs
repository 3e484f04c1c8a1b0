//! The paper's three use-cases of the ratio-quality model (§IV), and the
//! one session ([`TargetSession`]) that drives a field to a quality floor
//! or a size ceiling with them.

pub mod insitu;
pub mod memory_budget;
pub mod predictor_select;
pub mod target;

pub use insitu::{
    optimize_partitions, optimize_partitions_corrected, uniform_eb_for_target, PartitionPlan,
    PlanCorrection, PlanError,
};
pub use memory_budget::plan_budget;
pub use predictor_select::PredictorSelector;
pub use target::{measure_archive, Measured, Target, TargetError, TargetOutcome, TargetSession};
