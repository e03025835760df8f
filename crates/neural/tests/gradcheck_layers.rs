//! Integration-level gradient checks for the layers the OVS model relies
//! on most: `Conv1d` (speed-pattern feature extraction) and `Lstm`
//! (temporal encoder). Each analytic backward pass is compared against
//! central finite differences of the scalar loss `L(y) = 0.5 * ||y||^2`.

use neural::gradcheck::{check_seq_layer_input, check_seq_layer_params};
use neural::layers::{Conv1d, Lstm};
use neural::rng::Rng64;
use neural::Tensor3;

const EPS: f64 = 1e-5;
const TOL: f64 = 1e-6;

fn random_tensor(b: usize, t: usize, f: usize, seed: u64) -> Tensor3 {
    let mut rng = Rng64::new(seed);
    let mut x = Tensor3::zeros(b, t, f);
    rng.fill_normal(x.as_mut_slice());
    x
}

#[test]
fn conv1d_input_gradient_matches_finite_differences() {
    let mut rng = Rng64::new(21);
    let mut layer = Conv1d::new(2, 3, 3, &mut rng);
    let x = random_tensor(2, 6, 2, 22);
    assert!(check_seq_layer_input(&mut layer, &x, EPS, TOL));
}

#[test]
fn conv1d_param_gradients_match_finite_differences() {
    let mut rng = Rng64::new(23);
    let mut layer = Conv1d::new(2, 3, 3, &mut rng);
    let x = random_tensor(2, 6, 2, 24);
    assert!(check_seq_layer_params(&mut layer, &x, EPS, TOL));
}

#[test]
fn lstm_input_gradient_matches_finite_differences() {
    let mut rng = Rng64::new(31);
    let mut layer = Lstm::new(3, 4, &mut rng);
    let x = random_tensor(2, 5, 3, 32);
    assert!(check_seq_layer_input(&mut layer, &x, EPS, TOL));
}

#[test]
fn lstm_param_gradients_match_finite_differences() {
    let mut rng = Rng64::new(33);
    let mut layer = Lstm::new(3, 4, &mut rng);
    let x = random_tensor(2, 5, 3, 34);
    assert!(check_seq_layer_params(&mut layer, &x, EPS, TOL));
}
