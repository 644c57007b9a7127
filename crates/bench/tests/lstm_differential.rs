//! Differential suite: the fused LSTM cell (`nn::lstm::Lstm`) against the
//! autograd cell it replaced (`bench::kernels::seed::Lstm`) — the forward,
//! one training step on either side of the clip threshold, and a 200-step
//! online trajectory — over every hidden width from 4 to 32, both input
//! widths the predictors use, one and two layers.

use lcasgd_bench::kernels::seed;
use lcasgd_nn::lstm::LstmState;
use lcasgd_nn::Lstm;
use lcasgd_tensor::{Rng, Tensor};

fn row(v: &[f32]) -> Tensor {
    Tensor::from_vec(v.to_vec(), &[1, v.len()])
}

fn max_abs_diff(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| (x - y).abs()).fold(0.0, f32::max)
}

fn assert_states_close(what: &str, a: &LstmState, b: &LstmState, tol: f32) {
    for ((ah, ac), (bh, bc)) in a.layers.iter().zip(&b.layers) {
        assert!(max_abs_diff(ah.data(), bh.data()) <= tol, "{what}: h diverged");
        assert!(max_abs_diff(ac.data(), bc.data()) <= tol, "{what}: c diverged");
    }
}

/// Every `(input, hidden, layers)` the suite covers, with a fused model
/// and its mirrored reference.
fn for_each_shape(mut f: impl FnMut(&str, Lstm, seed::Lstm)) {
    for hidden in 4..=32 {
        for input in [1, 3] {
            for layers in 1..=2 {
                let mut rng = Rng::seed_from_u64((hidden * 8 + input * 2 + layers) as u64);
                let fused = Lstm::new(input, hidden, layers, 1, &mut rng);
                let reference = seed::Lstm::mirror(&fused);
                f(&format!("i{input}_h{hidden}_l{layers}"), fused, reference);
            }
        }
    }
}

/// A bounded, non-periodic input series.
fn series(input: usize, step: usize) -> Vec<f32> {
    (0..input).map(|i| (0.37 * step as f32 + 1.3 * i as f32).sin() + 0.1 * i as f32).collect()
}

#[test]
fn forward_and_rollout_agree() {
    for_each_shape(|shape, mut fused, reference| {
        let mut state = fused.zero_state();
        for step in 0..3 {
            let x = series(fused.input_dim(), step);
            let (want, next) = reference.predict(&row(&x), &state);
            let got = fused.predict(&x, &state).to_vec();
            assert!(max_abs_diff(&got, want.data()) <= 1e-6, "{shape}: forward at step {step}");
            // `lr = 0` advances the fused state and leaves the weights.
            let mut advanced = state.clone();
            fused.train_step(&x, &[0.0], &mut advanced, 0.0);
            assert_states_close(shape, &advanced, &next, 1e-6);
            state = next;
        }
        if fused.input_dim() == 1 {
            let want: Vec<f32> =
                reference.rollout(&row(&[0.8]), &state, 4).iter().map(Tensor::item).collect();
            let mut got = Vec::new();
            fused.rollout(&[0.8], &state, 4, &mut got);
            assert!(max_abs_diff(&got, &want) <= 1e-6, "{shape}: rollout {got:?} vs {want:?}");
        }
    });
}

#[test]
fn one_train_step_agrees_on_both_sides_of_the_clip() {
    for_each_shape(|shape, mut fused, mut reference| {
        // A large error, so the gradient norm is far above the low clip
        // and far below the high one.
        for clip in [1e-2, 1e3] {
            fused.grad_clip = clip;
            reference.grad_clip = clip;
            let x = series(fused.input_dim(), 5);
            let mut state = fused.zero_state();
            let (want_loss, want_state) =
                reference.train_step(&row(&x), &row(&[3.0]), &state, 0.05);
            let loss = fused.train_step(&x, &[3.0], &mut state, 0.05);
            assert!((loss - want_loss).abs() <= 1e-5 * want_loss, "{shape} clip {clip}: loss");
            assert_states_close(shape, &state, &want_state, 1e-6);
            let diff = max_abs_diff(&fused.flat_params(), &reference.flat_params());
            assert!(diff <= 1e-6, "{shape} clip {clip}: parameters differ by {diff}");
        }
    });
}

#[test]
fn a_200_step_online_trajectory_agrees() {
    for_each_shape(|shape, mut fused, mut reference| {
        let mut state = fused.zero_state();
        let mut ref_state = fused.zero_state();
        for step in 0..200 {
            let x = series(fused.input_dim(), step);
            let target = [0.5 + 0.4 * (0.11 * step as f32).cos()];
            fused.train_step(&x, &target, &mut state, 0.02);
            ref_state = reference.train_step(&row(&x), &row(&target), &ref_state, 0.02).1;
            let got = fused.predict(&x, &state)[0];
            let want = reference.predict(&row(&x), &ref_state).0.item();
            assert!((got - want).abs() <= 1e-5, "{shape}: step {step}: {got} vs {want}");
        }
        let diff = max_abs_diff(&fused.flat_params(), &reference.flat_params());
        assert!(diff <= 1e-5, "{shape}: parameters differ by {diff} after 200 steps");
    });
}
