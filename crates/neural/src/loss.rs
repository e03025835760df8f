//! Loss functions.
//!
//! The paper's main loss (Eq. 12) is the summed squared error between
//! predicted and observed link speeds; the auxiliary losses (§IV-E) share
//! the same squared-error form over other quantities. Both reduce to
//! [`mse`] / [`sse`] here.

use crate::matrix::Matrix;
use crate::tensor3::Tensor3;

/// Mean squared error; returns `(loss, d loss / d pred)`.
pub fn mse(pred: &Matrix, target: &Matrix) -> (f64, Matrix) {
    let mut grad = Matrix::zeros(pred.rows(), pred.cols());
    let loss = mse_into(pred, target, &mut grad);
    (loss, grad)
}

/// [`mse`] writing the gradient into a caller-provided buffer, with no
/// allocation. `grad` must match `pred`'s shape.
// lint: hot — the zero-alloc training step's loss kernel
pub fn mse_into(pred: &Matrix, target: &Matrix, grad: &mut Matrix) -> f64 {
    assert_eq!(pred.shape(), target.shape(), "mse shape mismatch");
    assert_eq!(grad.shape(), pred.shape(), "mse gradient shape mismatch");
    let n = pred.len().max(1) as f64;
    grad.copy_from(pred);
    grad.sub_assign(target);
    let loss = grad.as_slice().iter().map(|v| v * v).sum::<f64>() / n;
    grad.scale(2.0 / n);
    loss
}

/// Summed squared error (the paper's Eq. 12 form); returns
/// `(loss, d loss / d pred)`.
pub fn sse(pred: &Matrix, target: &Matrix) -> (f64, Matrix) {
    assert_eq!(pred.shape(), target.shape(), "sse shape mismatch");
    let mut grad = pred.clone();
    grad.sub_assign(target);
    let loss = grad.as_slice().iter().map(|v| v * v).sum::<f64>();
    grad.scale(2.0);
    (loss, grad)
}

/// Huber loss (mean over cells, squared-error scaling): quadratic inside
/// `delta`, linear outside — robust to residuals the model cannot
/// represent. Returns `(loss, d loss / d pred)`.
pub fn huber(pred: &Matrix, target: &Matrix, delta: f64) -> (f64, Matrix) {
    assert_eq!(pred.shape(), target.shape(), "huber shape mismatch");
    assert!(delta > 0.0, "huber delta must be positive");
    let n = pred.len().max(1) as f64;
    let mut grad = Matrix::zeros(pred.rows(), pred.cols());
    let mut loss = 0.0;
    for ((g, &p), &t) in grad
        .as_mut_slice()
        .iter_mut()
        .zip(pred.as_slice())
        .zip(target.as_slice())
    {
        let r = p - t;
        if r.abs() <= delta {
            loss += r * r;
            *g = 2.0 * r / n;
        } else {
            loss += 2.0 * delta * r.abs() - delta * delta;
            *g = 2.0 * delta * r.signum() / n;
        }
    }
    (loss / n, grad)
}

/// MSE over sequence tensors; returns `(loss, d loss / d pred)`.
pub fn mse_seq(pred: &Tensor3, target: &Tensor3) -> (f64, Tensor3) {
    let (b, t, f) = pred.shape();
    let mut grad = Tensor3::zeros(b, t, f);
    let loss = mse_seq_into(pred, target, &mut grad);
    (loss, grad)
}

/// [`mse_seq`] writing the gradient into a caller-provided buffer, with
/// no allocation.
// lint: hot — the zero-alloc training step's loss kernel
pub fn mse_seq_into(pred: &Tensor3, target: &Tensor3, grad: &mut Tensor3) -> f64 {
    assert_eq!(pred.shape(), target.shape(), "mse_seq shape mismatch");
    assert_eq!(
        grad.shape(),
        pred.shape(),
        "mse_seq gradient shape mismatch"
    );
    let n = pred.as_slice().len().max(1) as f64;
    grad.as_mut_slice().copy_from_slice(pred.as_slice());
    for (g, &t) in grad.as_mut_slice().iter_mut().zip(target.as_slice()) {
        *g -= t;
    }
    let loss = grad.as_slice().iter().map(|v| v * v).sum::<f64>() / n;
    for g in grad.as_mut_slice() {
        *g *= 2.0 / n;
    }
    loss
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_loss_on_identical() {
        let a = Matrix::filled(2, 3, 1.5);
        let (l, g) = mse(&a, &a);
        assert_eq!(l, 0.0);
        assert_eq!(g.norm(), 0.0);
        let (l, _) = sse(&a, &a);
        assert_eq!(l, 0.0);
    }

    #[test]
    fn mse_known_value() {
        let p = Matrix::from_vec(1, 2, vec![1.0, 3.0]).unwrap();
        let t = Matrix::from_vec(1, 2, vec![0.0, 1.0]).unwrap();
        let (l, g) = mse(&p, &t);
        assert!((l - (1.0 + 4.0) / 2.0).abs() < 1e-12);
        assert_eq!(g.as_slice(), &[1.0, 2.0]); // 2/n * diff
    }

    #[test]
    fn sse_is_n_times_mse() {
        let p = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let t = Matrix::zeros(2, 2);
        let (lm, _) = mse(&p, &t);
        let (ls, _) = sse(&p, &t);
        assert!((ls - 4.0 * lm).abs() < 1e-12);
    }

    #[test]
    fn gradient_matches_finite_difference() {
        let p = Matrix::from_vec(1, 3, vec![0.3, -0.2, 0.9]).unwrap();
        let t = Matrix::from_vec(1, 3, vec![0.1, 0.1, 0.1]).unwrap();
        let (_, g) = mse(&p, &t);
        let eps = 1e-7;
        for i in 0..3 {
            let mut pp = p.clone();
            pp.as_mut_slice()[i] += eps;
            let mut pm = p.clone();
            pm.as_mut_slice()[i] -= eps;
            let num = (mse(&pp, &t).0 - mse(&pm, &t).0) / (2.0 * eps);
            assert!((num - g.as_slice()[i]).abs() < 1e-6);
        }
    }

    #[test]
    fn huber_matches_mse_inside_delta() {
        let p = Matrix::from_vec(1, 3, vec![0.5, -0.2, 0.9]).unwrap();
        let t = Matrix::zeros(1, 3);
        let (lh, gh) = huber(&p, &t, 10.0);
        let (lm, gm) = mse(&p, &t);
        assert!((lh - lm).abs() < 1e-12);
        for (a, b) in gh.as_slice().iter().zip(gm.as_slice()) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn huber_saturates_outside_delta() {
        let t = Matrix::zeros(1, 1);
        let (_, g_small) = huber(&Matrix::filled(1, 1, 5.0), &t, 1.0);
        let (_, g_large) = huber(&Matrix::filled(1, 1, 500.0), &t, 1.0);
        assert!(
            (g_small.get(0, 0) - g_large.get(0, 0)).abs() < 1e-12,
            "gradient magnitude is capped at 2*delta/n"
        );
    }

    #[test]
    fn huber_gradient_matches_finite_difference() {
        let p = Matrix::from_vec(1, 4, vec![0.3, -3.0, 1.2, 7.5]).unwrap();
        let t = Matrix::from_vec(1, 4, vec![0.1, 0.1, 0.1, 0.1]).unwrap();
        let delta = 1.5;
        let (_, g) = huber(&p, &t, delta);
        let eps = 1e-7;
        for i in 0..4 {
            let mut pp = p.clone();
            pp.as_mut_slice()[i] += eps;
            let mut pm = p.clone();
            pm.as_mut_slice()[i] -= eps;
            let num = (huber(&pp, &t, delta).0 - huber(&pm, &t, delta).0) / (2.0 * eps);
            assert!((num - g.as_slice()[i]).abs() < 1e-6);
        }
    }

    #[test]
    fn into_variants_are_bit_identical() {
        let p = Matrix::from_vec(2, 2, vec![0.9, -0.3, 2.5, 0.1]).unwrap();
        let t = Matrix::from_vec(2, 2, vec![0.1, 0.2, -1.0, 0.4]).unwrap();
        let (l, g) = mse(&p, &t);
        let mut g2 = Matrix::filled(2, 2, f64::NAN); // dirty buffer
        let l2 = mse_into(&p, &t, &mut g2);
        assert_eq!(l, l2);
        assert_eq!(g.as_slice(), g2.as_slice());

        let ps = Tensor3::from_vec(1, 2, 2, p.as_slice().to_vec()).unwrap();
        let ts = Tensor3::from_vec(1, 2, 2, t.as_slice().to_vec()).unwrap();
        let (ls, gs) = mse_seq(&ps, &ts);
        let mut gs2 = Tensor3::zeros(1, 2, 2);
        gs2.as_mut_slice().fill(f64::NAN);
        let ls2 = mse_seq_into(&ps, &ts, &mut gs2);
        assert_eq!(ls, ls2);
        assert_eq!(gs.as_slice(), gs2.as_slice());
    }

    #[test]
    fn seq_variant_agrees_with_flat() {
        let p = Tensor3::from_vec(1, 2, 2, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let t = Tensor3::zeros(1, 2, 2);
        let (l, g) = mse_seq(&p, &t);
        let pm = Matrix::from_vec(2, 2, p.as_slice().to_vec()).unwrap();
        let tm = Matrix::zeros(2, 2);
        let (lf, gf) = mse(&pm, &tm);
        assert!((l - lf).abs() < 1e-12);
        assert_eq!(g.as_slice(), gf.as_slice());
    }
}
