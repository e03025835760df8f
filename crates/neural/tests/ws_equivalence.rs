//! A recycled workspace must yield the same bits as a fresh one. The
//! plain `forward`/`backward` run each layer's `_ws` body on a fresh
//! `Workspace`, while training loops reuse one across steps; callers mix
//! the two freely (e.g. warm-started restarts) and the golden-metrics
//! suite pins exact loss values.

use neural::layers::{
    ActKind, Activation, Dense, Layer, Lstm, SeqActivation, SeqLayer, SeqSequential, Sequential,
    TimeDistributed,
};
use neural::rng::Rng64;
use neural::{Matrix, Tensor3, Workspace};

fn flat_net(seed: u64) -> Sequential {
    let mut rng = Rng64::new(seed);
    Sequential::new(vec![
        Box::new(Dense::new(3, 8, &mut rng)),
        Box::new(Activation::new(ActKind::Tanh)),
        Box::new(Dense::new(8, 2, &mut rng)),
        Box::new(Activation::new(ActKind::Sigmoid)),
    ])
}

fn seq_net(seed: u64) -> SeqSequential {
    let mut rng = Rng64::new(seed);
    SeqSequential::new(vec![
        Box::new(Lstm::new(2, 6, &mut rng)),
        Box::new(Lstm::new(6, 5, &mut rng)),
        Box::new(TimeDistributed::new(Dense::new(5, 1, &mut rng))),
        Box::new(SeqActivation::new(ActKind::Sigmoid)),
    ])
}

fn collect_grads_flat(net: &mut Sequential) -> Vec<Vec<f64>> {
    let mut grads = Vec::new();
    net.visit_params(&mut |_, g| grads.push(g.as_slice().to_vec()));
    grads
}

fn collect_grads_seq(net: &mut SeqSequential) -> Vec<Vec<f64>> {
    let mut grads = Vec::new();
    net.visit_params(&mut |_, g| grads.push(g.as_slice().to_vec()));
    grads
}

#[test]
fn flat_ws_path_is_bit_identical_to_plain_path() {
    let mut plain = flat_net(7);
    let mut ws_net = flat_net(7);
    let mut ws = Workspace::new();
    let mut rng = Rng64::new(11);
    for step in 0..4 {
        let mut x = Matrix::zeros(5, 3);
        rng.fill_normal(x.as_mut_slice());
        let mut dy = Matrix::zeros(5, 2);
        rng.fill_normal(dy.as_mut_slice());

        let y_plain = plain.forward(&x, true);
        let dx_plain = plain.backward(&dy);

        let y_ws = ws_net.forward_ws(&x, true, &mut ws);
        let dx_ws = ws_net.backward_ws(&dy, &mut ws);

        assert_eq!(y_plain.as_slice(), y_ws.as_slice(), "forward, step {step}");
        assert_eq!(
            dx_plain.as_slice(),
            dx_ws.as_slice(),
            "backward, step {step}"
        );
        assert_eq!(
            collect_grads_flat(&mut plain),
            collect_grads_flat(&mut ws_net),
            "accumulated grads, step {step}"
        );
        ws.give(y_ws);
        ws.give(dx_ws);
    }
}

#[test]
fn seq_ws_path_is_bit_identical_to_plain_path() {
    let mut plain = seq_net(3);
    let mut ws_net = seq_net(3);
    let mut ws = Workspace::new();
    let mut rng = Rng64::new(13);
    for step in 0..4 {
        let mut x = Tensor3::zeros(4, 6, 2);
        rng.fill_normal(x.as_mut_slice());
        let mut dy = Tensor3::zeros(4, 6, 1);
        rng.fill_normal(dy.as_mut_slice());

        let y_plain = plain.forward(&x, true);
        let dx_plain = plain.backward(&dy);

        let y_ws = ws_net.forward_ws(&x, true, &mut ws);
        let dx_ws = ws_net.backward_ws(&dy, &mut ws);

        assert_eq!(y_plain.as_slice(), y_ws.as_slice(), "forward, step {step}");
        assert_eq!(
            dx_plain.as_slice(),
            dx_ws.as_slice(),
            "backward, step {step}"
        );
        assert_eq!(
            collect_grads_seq(&mut plain),
            collect_grads_seq(&mut ws_net),
            "accumulated grads, step {step}"
        );
        ws.give3(y_ws);
        ws.give3(dx_ws);
    }
}

#[test]
fn mixing_plain_and_ws_calls_on_one_model_is_consistent() {
    // The trainer may run eval passes through `forward` while the training
    // loop uses `forward_ws`; interleaving must not disturb either.
    let mut net = seq_net(21);
    let mut reference = seq_net(21);
    let mut ws = Workspace::new();
    let mut rng = Rng64::new(5);
    let mut x = Tensor3::zeros(3, 4, 2);
    rng.fill_normal(x.as_mut_slice());

    let y0 = net.forward_ws(&x, true, &mut ws);
    let y1 = net.forward(&x, false);
    let y2 = net.forward_ws(&x, false, &mut ws);
    let want = reference.forward(&x, true);
    assert_eq!(y0.as_slice(), want.as_slice());
    assert_eq!(y1.as_slice(), want.as_slice());
    assert_eq!(y2.as_slice(), want.as_slice());
}

#[test]
fn ws_gradients_pass_finite_difference_check() {
    // Gradcheck through the workspace path: central differences of the
    // ws-forward loss vs the ws-backward analytic gradient.
    let mut net = seq_net(9);
    let mut ws = Workspace::new();
    let mut rng = Rng64::new(17);
    let mut x = Tensor3::zeros(2, 4, 2);
    rng.fill_normal(x.as_mut_slice());

    // loss = sum(y); dL/dy = 1
    let dy = Tensor3::from_vec(2, 4, 1, vec![1.0; 8]).unwrap();
    net.forward_ws(&x, true, &mut ws);
    let dx = net.backward_ws(&dy, &mut ws);

    let eps = 1e-6;
    for idx in 0..x.as_slice().len() {
        let orig = x.as_slice()[idx];
        x.as_mut_slice()[idx] = orig + eps;
        let lp: f64 = net.forward_ws(&x, true, &mut ws).as_slice().iter().sum();
        x.as_mut_slice()[idx] = orig - eps;
        let lm: f64 = net.forward_ws(&x, true, &mut ws).as_slice().iter().sum();
        x.as_mut_slice()[idx] = orig;
        let numeric = (lp - lm) / (2.0 * eps);
        let analytic = dx.as_slice()[idx];
        assert!(
            (numeric - analytic).abs() < 1e-6,
            "input {idx}: numeric {numeric} vs analytic {analytic}"
        );
    }
}
