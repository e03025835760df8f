//! Volume-Speed mapping (paper §IV-D, Eqs. 9-11).
//!
//! Two LSTM layers plus a fully connected head, **shared across all
//! links**: each link's volume series is one batch row, so the module
//! learns a single nonlinear volume->speed response (the data-driven
//! replacement for a fundamental diagram) that transfers between links.
//! Volumes are normalised by `q_norm`; speed comes out of a sigmoid scaled
//! to `v_max`, matching Table IV's all-sigmoid head.
//!
//! The Table IX ablation [`OvsVariant::NoV2S`] swaps the LSTMs for a
//! time-distributed FC stack — each interval mapped independently, no
//! temporal carry-over of congestion.

use crate::config::{OvsConfig, OvsVariant, RnnKind};
use neural::layers::{
    ActKind, Dense, Gru, Lstm, SeqActivation, SeqLayer, SeqSequential, TimeDistributed,
};
use neural::matrix::Matrix;
use neural::rng::Rng64;
use neural::workspace::Workspace;

/// The volume -> speed module.
pub struct VolumeSpeedMapping {
    net: SeqSequential,
    q_norm: f64,
    v_max: f64,
}

impl VolumeSpeedMapping {
    /// Builds the module.
    pub fn new(cfg: &OvsConfig, rng: &mut Rng64) -> Self {
        let h = cfg.lstm_hidden;
        let net = if cfg.variant == OvsVariant::NoV2S {
            SeqSequential::new(vec![
                Box::new(TimeDistributed::new(Dense::new(1, h, rng))),
                Box::new(SeqActivation::new(ActKind::Sigmoid)),
                Box::new(TimeDistributed::new(Dense::new(h, h, rng))),
                Box::new(SeqActivation::new(ActKind::Sigmoid)),
                Box::new(TimeDistributed::new(Dense::new(h, 1, rng))),
                Box::new(SeqActivation::new(ActKind::Sigmoid)),
            ])
        } else {
            let rnn = |input: usize, rng: &mut neural::rng::Rng64| -> Box<dyn SeqLayer> {
                match cfg.rnn_kind {
                    RnnKind::Lstm => Box::new(Lstm::new(input, h, rng)),
                    RnnKind::Gru => Box::new(Gru::new(input, h, rng)),
                }
            };
            SeqSequential::new(vec![
                rnn(1, rng),
                rnn(h, rng),
                Box::new(TimeDistributed::new(Dense::new(h, 1, rng))),
                Box::new(SeqActivation::new(ActKind::Sigmoid)),
            ])
        };
        Self {
            net,
            q_norm: cfg.q_norm,
            v_max: cfg.v_max,
        }
    }

    /// Maps link volumes `(M, T)` to link speeds `(M, T)` in m/s.
    pub fn forward(&mut self, q: &Matrix, train: bool) -> Matrix {
        self.forward_ws(q, train, &mut Workspace::new())
    }

    /// Backpropagates `d loss / d speed` and returns `d loss / d volume`.
    pub fn backward(&mut self, dv: &Matrix) -> Matrix {
        self.backward_ws(dv, &mut Workspace::new())
    }

    /// [`forward`](Self::forward) through pooled buffers: no steady-state
    /// allocation. Return the result to `ws` when done.
    pub fn forward_ws(&mut self, q: &Matrix, train: bool, ws: &mut Workspace) -> Matrix {
        let (m, t) = q.shape();
        let inv_q = 1.0 / self.q_norm;
        let mut x = ws.take3(m, t, 1);
        // (M, T) and (M, T, 1) share the same row-major linear layout, so
        // the reshape is a scaled copy.
        for (o, &v) in x.as_mut_slice().iter_mut().zip(q.as_slice()) {
            *o = v * inv_q;
        }
        let y = self.net.forward_ws(&x, train, ws);
        ws.give3(x);
        let mut v = ws.take(m, t);
        v.as_mut_slice().copy_from_slice(y.as_slice());
        ws.give3(y);
        v.scale(self.v_max);
        v
    }

    /// [`backward`](Self::backward) through pooled buffers: no
    /// steady-state allocation. Return the result to `ws`.
    pub fn backward_ws(&mut self, dv: &Matrix, ws: &mut Workspace) -> Matrix {
        let (m, t) = dv.shape();
        let mut dy = ws.take3(m, t, 1);
        for (o, &v) in dy.as_mut_slice().iter_mut().zip(dv.as_slice()) {
            *o = v * self.v_max;
        }
        let dx = self.net.backward_ws(&dy, ws);
        ws.give3(dy);
        let mut dq = ws.take(m, t);
        dq.as_mut_slice().copy_from_slice(dx.as_slice());
        ws.give3(dx);
        dq.scale(1.0 / self.q_norm);
        dq
    }

    /// Visits `(param, grad)` pairs.
    pub fn visit_params(&mut self, f: &mut dyn FnMut(&mut Matrix, &mut Matrix)) {
        self.net.visit_params(f);
    }

    /// Clears accumulated gradients.
    pub fn zero_grad(&mut self) {
        self.net.zero_grad();
    }

    /// Total scalar parameter count.
    pub fn param_count(&mut self) -> usize {
        self.net.param_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neural::loss::mse;
    use neural::optim::{Adam, Optimizer};

    fn cfg(variant: OvsVariant) -> OvsConfig {
        OvsConfig::tiny().with_variant(variant)
    }

    #[test]
    fn output_bounded_by_v_max() {
        let mut rng = Rng64::new(0);
        let c = cfg(OvsVariant::Full);
        let mut m = VolumeSpeedMapping::new(&c, &mut rng);
        let q = Matrix::filled(5, 6, 100.0);
        let v = m.forward(&q, false);
        assert_eq!(v.shape(), (5, 6));
        assert!(v.as_slice().iter().all(|&s| s >= 0.0 && s <= c.v_max));
    }

    /// The module must be able to learn a decreasing volume->speed law —
    /// the macroscopic fundamental-diagram shape the simulator produces.
    fn learns_fundamental_diagram(variant: OvsVariant) -> f64 {
        let mut rng = Rng64::new(1);
        let c = cfg(variant);
        let mut m = VolumeSpeedMapping::new(&c, &mut rng);
        // synthetic law: v = v_max * exp(-q / 40)
        let q = Matrix::from_fn(8, 6, |r, t| (r * 6 + t) as f64 * 3.0);
        let target = q.map(|qv| c.v_max * (-qv / 40.0).exp());
        let mut opt = Adam::new(0.01);
        let mut last = f64::INFINITY;
        for _ in 0..400 {
            let pred = m.forward(&q, true);
            let (loss, grad) = mse(&pred, &target);
            m.backward(&grad);
            let mut slot = 0;
            opt.begin_step();
            m.visit_params(&mut |p, g| {
                opt.apply(slot, p, g);
                slot += 1;
            });
            m.zero_grad();
            last = loss;
        }
        last
    }

    #[test]
    fn lstm_variant_learns_decreasing_law() {
        let loss = learns_fundamental_diagram(OvsVariant::Full);
        assert!(loss < 1.0, "final loss {loss}");
    }

    #[test]
    fn fc_variant_learns_decreasing_law() {
        let loss = learns_fundamental_diagram(OvsVariant::NoV2S);
        assert!(loss < 1.0, "final loss {loss}");
    }

    #[test]
    fn gradcheck_through_module() {
        let mut rng = Rng64::new(2);
        let c = cfg(OvsVariant::Full);
        let mut m = VolumeSpeedMapping::new(&c, &mut rng);
        let q = Matrix::from_fn(2, 4, |r, t| 10.0 + (r + t) as f64 * 5.0);
        let v = m.forward(&q, false);
        let dq = m.backward(&v); // loss = 0.5 ||v||^2
        let eps = 1e-5;
        for &idx in &[0usize, 3, 7] {
            let mut qp = q.clone();
            qp.as_mut_slice()[idx] += eps;
            let mut qm = q.clone();
            qm.as_mut_slice()[idx] -= eps;
            let lp = 0.5
                * m.forward(&qp, false)
                    .as_slice()
                    .iter()
                    .map(|v| v * v)
                    .sum::<f64>();
            let lm = 0.5
                * m.forward(&qm, false)
                    .as_slice()
                    .iter()
                    .map(|v| v * v)
                    .sum::<f64>();
            let numeric = (lp - lm) / (2.0 * eps);
            let analytic = dq.as_slice()[idx];
            let denom = analytic.abs().max(numeric.abs()).max(1.0);
            assert!(
                ((analytic - numeric) / denom).abs() < 1e-5,
                "idx {idx}: analytic {analytic} vs numeric {numeric}"
            );
        }
    }

    #[test]
    fn gru_backend_works_and_is_smaller() {
        let mut rng = Rng64::new(4);
        let mut c = cfg(OvsVariant::Full);
        c.rnn_kind = crate::config::RnnKind::Gru;
        let mut gru = VolumeSpeedMapping::new(&c, &mut rng);
        let q = Matrix::filled(3, 4, 25.0);
        let v = gru.forward(&q, false);
        assert!(v.is_finite());
        assert!(v.as_slice().iter().all(|&s| s >= 0.0 && s <= c.v_max));
        let mut lstm = VolumeSpeedMapping::new(&cfg(OvsVariant::Full), &mut rng);
        assert!(gru.param_count() < lstm.param_count());
    }

    #[test]
    fn variants_have_different_parameterisations() {
        let mut rng = Rng64::new(3);
        let mut lstm = VolumeSpeedMapping::new(&cfg(OvsVariant::Full), &mut rng);
        let mut fc = VolumeSpeedMapping::new(&cfg(OvsVariant::NoV2S), &mut rng);
        assert_ne!(lstm.param_count(), fc.param_count());
    }
}
