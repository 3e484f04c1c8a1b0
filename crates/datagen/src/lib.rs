//! Synthetic stand-ins for the SDRBench datasets of the paper's Table I.
//!
//! The real datasets are multi-gigabyte downloads that are unavailable
//! offline, so each generator here reproduces the *statistical properties
//! the ratio-quality model is sensitive to* — smoothness spectrum (which
//! shapes the prediction-error distribution), value range, dimensionality
//! and sparsity — at laptop-friendly extents (see DESIGN.md §4).
//!
//! The inventory matches Table I's 10 datasets and 17 evaluated fields:
//!
//! | Dataset   | Fields                              | Kind            |
//! |-----------|-------------------------------------|-----------------|
//! | RTM       | snapshot-1000/2000/3000             | 3D wavefield    |
//! | CESM      | TS, TROP_Z                          | 2D climate      |
//! | Hurricane | U, TC                               | 3D weather      |
//! | Nyx       | dark-matter, temperature, velocity-z| 3D cosmology    |
//! | HACC      | xx, vx                              | 1D particles    |
//! | Brown     | pressure                            | 1D Brownian     |
//! | Miranda   | vx                                  | 3D turbulence   |
//! | QMCPACK   | einspline                           | 3D orbitals     |
//! | SCALE     | PRES                                | 3D climate      |
//! | EXAFEL    | raw                                 | 4D imaging      |

#![forbid(unsafe_code)]

pub mod catalog;
pub mod fields;
pub mod grf;
pub mod rng;
pub mod rtm;

pub use catalog::{all_datasets, DatasetSpec, FieldSpec};
pub use rtm::{rtm_steps, RtmSimulator, RTM_SNAPSHOT_STRIDE, RTM_WARMUP_STEPS};
