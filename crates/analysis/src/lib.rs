//! Post-hoc analysis kernels (paper §III-D).
//!
//! The paper models the impact of compression error on three analyses:
//! PSNR, SSIM, and FFT-based power spectra. This crate provides the
//! *measured* side of each — the ground truth the analytical model is
//! validated against — built entirely from scratch:
//!
//! * [`metrics`] — MSE, PSNR, NRMSE, maximum pointwise error,
//! * [`ssim`] — global and windowed structural similarity,
//! * [`fft`] — iterative radix-2 complex FFT (1D and along-axis N-D),
//! * [`spectrum`] — radially binned power spectra and the spectrum-ratio
//!   quality metric used for the Nyx-style FFT analysis (Fig. 8).

#![forbid(unsafe_code)]

pub mod fft;
pub mod metrics;
pub mod spectrum;
pub mod ssim;

pub use fft::Complex;
pub use metrics::{max_abs_error, mse, nrmse, psnr};
pub use spectrum::{power_spectrum_1d, power_spectrum_3d, spectrum_ratio};
pub use ssim::{global_ssim, windowed_ssim};
