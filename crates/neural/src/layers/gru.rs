//! Gated recurrent unit with full backpropagation through time.
//!
//! Provided as a drop-in alternative to [`super::Lstm`] for the
//! Volume-Speed mapping and the sequence baselines (fewer parameters, a
//! common ablation choice). Formulation (Cho et al. 2014):
//!
//! ```text
//! z_t = sigmoid(x_t Wxz + h_{t-1} Whz + bz)      (update gate)
//! r_t = sigmoid(x_t Wxr + h_{t-1} Whr + br)      (reset gate)
//! n_t = tanh(x_t Wxn + (r_t .* h_{t-1}) Whn + bn)
//! h_t = (1 - z_t) .* n_t + z_t .* h_{t-1}
//! ```

use super::{xavier, SeqLayer};
use crate::matrix::Matrix;
use crate::rng::Rng64;
use crate::tensor3::Tensor3;
use crate::workspace::Workspace;
use serde::{Deserialize, Serialize};

/// A standard GRU: `(b, t, in) -> (b, t, hidden)`, zero initial state.
/// Gate blocks are ordered `[z, r, n]` inside the stacked weights.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Gru {
    input: usize,
    hidden: usize,
    /// `(in, 3H)`
    wx: Matrix,
    /// `(H, 3H)`
    wh: Matrix,
    /// `(1, 3H)`
    b: Matrix,
    dwx: Matrix,
    dwh: Matrix,
    db: Matrix,
    #[serde(skip)]
    cache: Option<GruCache>,
}

#[derive(Debug, Clone)]
struct GruCache {
    xs: Vec<Matrix>,
    h_prevs: Vec<Matrix>,
    /// Per step: (z, r, n).
    gates: Vec<(Matrix, Matrix, Matrix)>,
}

impl Gru {
    /// Creates a Xavier-initialised GRU.
    pub fn new(input: usize, hidden: usize, rng: &mut Rng64) -> Self {
        Self {
            input,
            hidden,
            wx: xavier(input, 3 * hidden, rng),
            wh: xavier(hidden, 3 * hidden, rng),
            b: Matrix::zeros(1, 3 * hidden),
            dwx: Matrix::zeros(input, 3 * hidden),
            dwh: Matrix::zeros(hidden, 3 * hidden),
            db: Matrix::zeros(1, 3 * hidden),
            cache: None,
        }
    }

    /// Hidden width.
    pub fn hidden_size(&self) -> usize {
        self.hidden
    }
}

fn sigmoid(x: f64) -> f64 {
    1.0 / (1.0 + (-x).exp())
}

impl SeqLayer for Gru {
    // lint: cold — allocating body that ignores `ws`: the GRU ablation backend is outside the zero-alloc contract
    fn forward_ws(&mut self, x: &Tensor3, _train: bool, _ws: &mut Workspace) -> Tensor3 {
        let (batch, time, feat) = x.shape();
        assert_eq!(feat, self.input, "GRU input width mismatch");
        let h = self.hidden;
        let mut out = Tensor3::zeros(batch, time, h);
        let mut h_t = Matrix::zeros(batch, h);
        let mut cache = GruCache {
            xs: Vec::with_capacity(time),
            h_prevs: Vec::with_capacity(time),
            gates: Vec::with_capacity(time),
        };
        for t in 0..time {
            let x_t = x.time_slice(t);
            // Pre-activations: x-part for all gates, h-part for z and r
            // directly; the n-block's h-part needs the reset gate first.
            let mut a = x_t.matmul(&self.wx);
            a.add_row_broadcast(&self.b);
            let hw = h_t.matmul(&self.wh); // (b, 3H), h-parts of z|r|n

            let mut z_g = Matrix::zeros(batch, h);
            let mut r_g = Matrix::zeros(batch, h);
            for bi in 0..batch {
                for hi in 0..h {
                    z_g.set(bi, hi, sigmoid(a.get(bi, hi) + hw.get(bi, hi)));
                    r_g.set(bi, hi, sigmoid(a.get(bi, h + hi) + hw.get(bi, h + hi)));
                }
            }
            // n pre-activation: a_n + (r .* h) Whn. Computing (r.*h) @ Whn
            // directly keeps the backward simple.
            let rh = r_g.hadamard(&h_t);
            let whn = self.wh.col_slice(2 * h, 3 * h); // (H, H)
            let nh = rh.matmul(&whn);
            let mut n_g = Matrix::zeros(batch, h);
            for bi in 0..batch {
                for hi in 0..h {
                    n_g.set(bi, hi, (a.get(bi, 2 * h + hi) + nh.get(bi, hi)).tanh());
                }
            }

            cache.h_prevs.push(h_t.clone());
            // h' = (1 - z) .* n + z .* h
            let mut h_new = Matrix::zeros(batch, h);
            for bi in 0..batch {
                for hi in 0..h {
                    let z = z_g.get(bi, hi);
                    h_new.set(bi, hi, (1.0 - z) * n_g.get(bi, hi) + z * h_t.get(bi, hi));
                }
            }
            out.set_time_slice(t, &h_new);
            cache.xs.push(x_t);
            cache.gates.push((z_g, r_g, n_g));
            h_t = h_new;
        }
        self.cache = Some(cache);
        out
    }

    // lint: cold — allocating body that ignores `ws`: the GRU ablation backend is outside the zero-alloc contract
    fn backward_ws(&mut self, dy: &Tensor3, _ws: &mut Workspace) -> Tensor3 {
        let cache = self.cache.as_ref().expect("backward called before forward");
        let time = cache.xs.len();
        let batch = dy.batch();
        let h = self.hidden;
        assert_eq!(dy.features(), h, "GRU upstream gradient width mismatch");
        let whn = self.wh.col_slice(2 * h, 3 * h);

        let mut dx = Tensor3::zeros(batch, time, self.input);
        let mut dh_next = Matrix::zeros(batch, h);

        let steps = cache
            .gates
            .iter()
            .zip(&cache.h_prevs)
            .zip(&cache.xs)
            .enumerate()
            .rev();
        for (t, ((gates, h_prev), x_t)) in steps {
            let (z_g, r_g, n_g) = gates;

            let mut dh = dy.time_slice(t);
            dh.add_assign(&dh_next);

            // h' = (1-z) n + z h_prev
            let mut dz = Matrix::zeros(batch, h);
            let mut dn = Matrix::zeros(batch, h);
            let mut dh_prev = Matrix::zeros(batch, h);
            for bi in 0..batch {
                for hi in 0..h {
                    let d = dh.get(bi, hi);
                    let z = z_g.get(bi, hi);
                    let n = n_g.get(bi, hi);
                    let hp = h_prev.get(bi, hi);
                    dz.set(bi, hi, d * (hp - n));
                    dn.set(bi, hi, d * (1.0 - z));
                    dh_prev.set(bi, hi, d * z);
                }
            }

            // n = tanh(a_n + (r.*h) Whn)
            let mut da_n = dn.clone();
            for (v, &n) in da_n.as_mut_slice().iter_mut().zip(n_g.as_slice()) {
                *v *= 1.0 - n * n;
            }
            // through (r .* h_prev) @ Whn
            let drh = da_n.matmul_a_bt(&whn); // (b, H)
            let mut dr = drh.hadamard(h_prev);
            dh_prev.add_assign(&drh.hadamard(r_g));
            // gate pre-activations
            let mut da_z = dz;
            for (v, &z) in da_z.as_mut_slice().iter_mut().zip(z_g.as_slice()) {
                *v *= z * (1.0 - z);
            }
            for (v, &r) in dr.as_mut_slice().iter_mut().zip(r_g.as_slice()) {
                *v *= r * (1.0 - r);
            }
            let da_r = dr;

            // Stack [da_z | da_r | da_n] -> (b, 3H).
            let da = da_z.hcat(&da_r).hcat(&da_n);

            // Parameter gradients. wx/b take the stacked form directly;
            // wh's z|r blocks see h_prev, the n block sees (r .* h_prev).
            self.dwx.add_assign(&x_t.matmul_at_b(&da));
            self.db.add_assign(&da.sum_rows());
            let da_zr = da.col_slice(0, 2 * h);
            let dwh_zr = h_prev.matmul_at_b(&da_zr); // (H, 2H)
            let rh = r_g.hadamard(h_prev);
            let dwh_n = rh.matmul_at_b(&da_n); // (H, H)
            for r_i in 0..h {
                for c in 0..2 * h {
                    let v = self.dwh.get(r_i, c) + dwh_zr.get(r_i, c);
                    self.dwh.set(r_i, c, v);
                }
                for c in 0..h {
                    let v = self.dwh.get(r_i, 2 * h + c) + dwh_n.get(r_i, c);
                    self.dwh.set(r_i, 2 * h + c, v);
                }
            }

            // Input and recurrent gradients.
            dx.set_time_slice(t, &da.matmul_a_bt(&self.wx));
            let wh_zr = self.wh.col_slice(0, 2 * h); // (H, 2H)
            dh_prev.add_assign(&da_zr.matmul_a_bt(&wh_zr));
            dh_next = dh_prev;
        }
        dx
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Matrix, &mut Matrix)) {
        f(&mut self.wx, &mut self.dwx);
        f(&mut self.wh, &mut self.dwh);
        f(&mut self.b, &mut self.db);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::{check_seq_layer_input, check_seq_layer_params};
    use crate::layers::SeqLayer;

    #[test]
    fn output_shape_and_range() {
        let mut rng = Rng64::new(0);
        let mut g = Gru::new(2, 5, &mut rng);
        let mut x = Tensor3::zeros(3, 6, 2);
        rng.fill_normal(x.as_mut_slice());
        let y = g.forward(&x, true);
        assert_eq!(y.shape(), (3, 6, 5));
        assert!(y.is_finite());
        // h is a convex mix of tanh values and previous h: stays in (-1, 1)
        assert!(y.as_slice().iter().all(|v| v.abs() < 1.0));
    }

    #[test]
    fn gradients_match_finite_difference() {
        let mut rng = Rng64::new(1);
        let mut g = Gru::new(2, 3, &mut rng);
        let mut x = Tensor3::zeros(2, 4, 2);
        rng.fill_normal(x.as_mut_slice());
        assert!(check_seq_layer_input(&mut g, &x, 1e-6, 1e-5));
        assert!(check_seq_layer_params(&mut g, &x, 1e-6, 1e-5));
    }

    #[test]
    fn memory_carries_information_forward() {
        let mut rng = Rng64::new(2);
        let mut g = Gru::new(1, 4, &mut rng);
        let mut x0 = Tensor3::zeros(1, 6, 1);
        let x1 = Tensor3::zeros(1, 6, 1);
        x0.set(0, 0, 0, 5.0);
        let y0 = g.forward(&x0, true);
        let y1 = g.forward(&x1, true);
        let diff_late: f64 = (0..4)
            .map(|hh| (y0.get(0, 5, hh) - y1.get(0, 5, hh)).abs())
            .sum();
        assert!(diff_late > 1e-6, "impulse must persist through memory");
    }

    #[test]
    fn fewer_params_than_lstm() {
        let mut rng = Rng64::new(3);
        let mut gru = Gru::new(4, 8, &mut rng);
        let mut lstm = crate::layers::Lstm::new(4, 8, &mut rng);
        assert!(SeqLayer::param_count(&mut gru) < SeqLayer::param_count(&mut lstm));
    }
}
