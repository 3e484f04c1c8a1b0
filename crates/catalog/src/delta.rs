//! The keyframe/delta arithmetic every code path shares.
//!
//! Reconstruction of a delta step is `T(recon_prev + residual)`,
//! element-wise in `f64`. The writer's decoder mirror, the sequential
//! [`CatalogReader`](crate::CatalogReader) and the concurrent
//! [`DatasetReader`](crate::DatasetReader) (which backs `rq-serve`) all
//! fold residuals with [`add_residual`] (the two readers through
//! [`walk_chain`], the one chain walk), so a step decodes to
//! byte-identical values no matter which path produced it. The writer
//! folds the encoder's own reconstruction of each residual segment — bit
//! for bit what a reader decodes from it — so it decodes nothing.

use rq_grid::Scalar;

/// Residual `x - prev`, element-wise in `f64`, rounded back to `T`.
pub(crate) fn residual<T: Scalar>(x: &[T], prev: &[T]) -> Vec<T> {
    debug_assert_eq!(x.len(), prev.len());
    x.iter().zip(prev).map(|(x, p)| T::from_f64(x.to_f64() - p.to_f64())).collect()
}

/// Reconstruction `recon + resid` in place, element-wise in `f64`, rounded
/// back to `T`.
pub(crate) fn add_residual<T: Scalar>(recon: &mut [T], resid: &[T]) {
    debug_assert_eq!(recon.len(), resid.len());
    for (p, r) in recon.iter_mut().zip(resid) {
        *p = T::from_f64(p.to_f64() + r.to_f64());
    }
}

/// Walk a delta chain forward: `recon` holds the reconstruction of step
/// `from`, and each residual of steps `from + 1..=to`, decoded by
/// `residual_of` in step order, is folded into it in place, so it ends
/// holding step `to`. The first error stops the walk (and leaves `recon`
/// part-way along the chain).
pub(crate) fn walk_chain<T: Scalar, E>(
    recon: &mut [T],
    from: usize,
    to: usize,
    mut residual_of: impl FnMut(usize) -> Result<Vec<T>, E>,
) -> Result<(), E> {
    for t in from + 1..=to {
        add_residual(recon, &residual_of(t)?);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn residual_then_add_is_identity_for_f64() {
        let mut prev = vec![1.0f64, -2.5, 1e300, 0.0];
        let x = vec![1.5f64, -2.0, 1e300, -4.0];
        let r = residual(&x, &prev);
        add_residual(&mut prev, &r);
        assert_eq!(prev, x);
    }

    #[test]
    fn f32_roundtrip_error_is_sub_ulp() {
        let mut prev: Vec<f32> = (0..100).map(|i| (i as f32 * 0.37).sin() * 20.0).collect();
        let x: Vec<f32> = prev.iter().map(|v| v + 0.01).collect();
        let r = residual(&x, &prev);
        add_residual(&mut prev, &r);
        for (a, b) in prev.iter().zip(&x) {
            assert!((a - b).abs() <= b.abs() * 1e-6 + 1e-6);
        }
    }

    #[test]
    fn chain_walk_applies_the_residuals_after_its_start_in_order() {
        let resid = |t: usize| -> Result<Vec<f32>, usize> { Ok(vec![t as f32; 3]) };
        let mut recon = vec![0.5f32; 3];
        walk_chain(&mut recon, 2, 5, resid).unwrap();
        assert_eq!(recon, vec![0.5 + 3.0 + 4.0 + 5.0; 3]);
        // An empty chain leaves the start as it is.
        walk_chain(&mut recon, 5, 5, |_| -> Result<Vec<f32>, usize> { panic!() }).unwrap();
        assert_eq!(recon, vec![12.5; 3]);
        // The first error stops the walk.
        let mut asked = Vec::new();
        let err = walk_chain(&mut recon, 0, 4, |t| {
            asked.push(t);
            if t == 2 { Err(t) } else { resid(t) }
        });
        assert_eq!((err, asked), (Err(2), vec![1, 2]));
    }
}
