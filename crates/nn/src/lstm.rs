//! Multi-layer LSTM with an affine head — the architecture of both LC-ASGD
//! predictors ("two LSTM layers in the front of the network and a linear
//! layer at the end", paper §4.3–4.4).
//!
//! The predictors are trained *online*, one `(input, label)` pair at a
//! time (truncated BPTT of length 1), at batch size 1, on the parameter
//! server's thread. So the cell is fused and allocation-free: the four
//! gates are one `[4H × (I+H)]` row-dot product over the weights in place,
//! the backward of the one-step MSE loss is written out by hand, and every
//! intermediate lives in scratch the model owns. The autograd formulation
//! it replaced is kept as `lcasgd_bench::kernels::seed::Lstm`, the
//! reference the differential tests compare against.

use crate::layer::Linear;
use lcasgd_tensor::{init, Rng, Tensor};

fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

/// `tanh x = 1 − 2 / (e²ˣ + 1)`, within 2·10⁻⁷ of `f32::tanh` everywhere
/// and exact at both saturations. One `exp` is 3.9 ns here against
/// 18.5 ns for libm's `tanhf`, which was a third of a predictor call.
fn tanh(x: f32) -> f32 {
    1.0 - 2.0 / ((2.0 * x).exp() + 1.0)
}

/// `a · b` over eight independent partial sums, so the loop vectorizes
/// (a single running sum would pin the additions to program order).
fn dot(a: &[f32], b: &[f32]) -> f32 {
    const LANES: usize = 8;
    let (ac, bc) = (a.chunks_exact(LANES), b.chunks_exact(LANES));
    let tail: f32 = ac.remainder().iter().zip(bc.remainder()).map(|(x, y)| x * y).sum();
    let mut acc = [0.0f32; LANES];
    for (x, y) in ac.zip(bc) {
        for l in 0..LANES {
            acc[l] += x[l] * y[l];
        }
    }
    acc.iter().sum::<f32>() + tail
}

/// `dst += a · src`.
fn axpy(dst: &mut [f32], a: f32, src: &[f32]) {
    for (d, &s) in dst.iter_mut().zip(src) {
        *d += a * s;
    }
}

fn sum_sq(v: &[f32]) -> f64 {
    v.iter().map(|&x| f64::from(x) * f64::from(x)).sum()
}

/// One LSTM layer: weights packed as `W: [4h, in+h]`, `b: [4h]` with the
/// gate order `i, f, g, o`, plus what one forward leaves behind for the
/// backward of the same step.
pub struct LstmCell {
    pub weight: Tensor,
    pub bias: Tensor,
    input: usize,
    hidden: usize,
    /// `[x, h_prev]`, the row every gate is dotted with.
    xh: Vec<f32>,
    c_prev: Vec<f32>,
    /// Activated gates `σ(i), σ(f), tanh(g), σ(o)`.
    gates: Vec<f32>,
    tanh_c: Vec<f32>,
    /// ∂loss/∂(gate pre-activations).
    dgates: Vec<f32>,
    /// ∂loss/∂x: the upstream gradient of the layer below.
    dx: Vec<f32>,
}

impl LstmCell {
    fn new(input: usize, hidden: usize, rng: &mut Rng) -> Self {
        let mut bias = Tensor::zeros(&[4 * hidden]);
        // Forget-gate bias of 1: the standard trick so a fresh LSTM starts
        // by remembering rather than forgetting.
        for v in &mut bias.data_mut()[hidden..2 * hidden] {
            *v = 1.0;
        }
        LstmCell {
            weight: init::xavier_uniform(
                &[4 * hidden, input + hidden],
                input + hidden,
                4 * hidden,
                rng,
            ),
            bias,
            input,
            hidden,
            xh: vec![0.0; input + hidden],
            c_prev: vec![0.0; hidden],
            gates: vec![0.0; 4 * hidden],
            tanh_c: vec![0.0; hidden],
            dgates: vec![0.0; 4 * hidden],
            dx: vec![0.0; input],
        }
    }

    /// One recurrence step on `x`, advancing `(h, c)` in place.
    fn forward(&mut self, x: &[f32], h: &mut [f32], c: &mut [f32]) {
        let hid = self.hidden;
        self.xh[..self.input].copy_from_slice(x);
        self.xh[self.input..].copy_from_slice(h);
        self.c_prev.copy_from_slice(c);
        let rows = self.weight.data().chunks_exact(self.xh.len());
        for ((g, row), &b) in self.gates.iter_mut().zip(rows).zip(self.bias.data()) {
            *g = b + dot(row, &self.xh);
        }
        for j in 0..hid {
            let i = sigmoid(self.gates[j]);
            let f = sigmoid(self.gates[hid + j]);
            let g = tanh(self.gates[2 * hid + j]);
            let o = sigmoid(self.gates[3 * hid + j]);
            (self.gates[j], self.gates[hid + j]) = (i, f);
            (self.gates[2 * hid + j], self.gates[3 * hid + j]) = (g, o);
            c[j] = f * c[j] + i * g;
            self.tanh_c[j] = tanh(c[j]);
            h[j] = o * self.tanh_c[j];
        }
    }

    /// Backward of the last [`forward`](Self::forward) given `dh` =
    /// ∂loss/∂h'. The step is the whole history (truncated BPTT of length
    /// 1), so nothing arrives through `c'` and nothing leaves through
    /// `h_prev` / `c_prev`. Fills `dgates`, and `dx` when a layer below
    /// wants it.
    fn backward(&mut self, dh: &[f32], want_dx: bool) {
        let hid = self.hidden;
        assert_eq!(dh.len(), hid);
        for (j, &dh) in dh.iter().enumerate() {
            let (i, f) = (self.gates[j], self.gates[hid + j]);
            let (g, o) = (self.gates[2 * hid + j], self.gates[3 * hid + j]);
            let t = self.tanh_c[j];
            let dc = dh * o * (1.0 - t * t);
            self.dgates[j] = dc * g * i * (1.0 - i);
            self.dgates[hid + j] = dc * self.c_prev[j] * f * (1.0 - f);
            self.dgates[2 * hid + j] = dc * i * (1.0 - g * g);
            self.dgates[3 * hid + j] = dh * t * o * (1.0 - o);
        }
        if want_dx {
            self.dx.fill(0.0);
            let rows = self.weight.data().chunks_exact(self.xh.len());
            for (row, &d) in rows.zip(&self.dgates) {
                axpy(&mut self.dx, d, &row[..self.input]);
            }
        }
    }

    /// `‖dW‖² + ‖db‖²`: `dW` is the outer product `dgates ⊗ xh`, so its
    /// norm factors and the matrix is never formed.
    fn grad_sq(&self) -> f64 {
        sum_sq(&self.dgates) * (sum_sq(&self.xh) + 1.0)
    }

    /// `W -= step · dgates ⊗ xh`, `b -= step · dgates`.
    fn sgd_step(&mut self, step: f32) {
        let rows = self.weight.data_mut().chunks_exact_mut(self.xh.len());
        for ((row, b), &d) in rows.zip(self.bias.data_mut()).zip(&self.dgates) {
            axpy(row, -step * d, &self.xh);
            *b -= step * d;
        }
    }
}

/// Recurrent state: one `(h, c)` pair per layer, batch 1.
#[derive(Clone, Debug, Default)]
pub struct LstmState {
    pub layers: Vec<(Tensor, Tensor)>,
}

impl LstmState {
    /// All-zero initial state.
    pub fn zeros(hidden: usize, num_layers: usize) -> Self {
        LstmState {
            layers: (0..num_layers)
                .map(|_| (Tensor::zeros(&[1, hidden]), Tensor::zeros(&[1, hidden])))
                .collect(),
        }
    }

    /// Overwrites this state with `other`'s values (same architecture).
    pub fn copy_from(&mut self, other: &LstmState) {
        for ((h, c), (oh, oc)) in self.layers.iter_mut().zip(&other.layers) {
            h.data_mut().copy_from_slice(oh.data());
            c.data_mut().copy_from_slice(oc.data());
        }
    }
}

/// Stacked LSTM + linear head, batch size 1.
pub struct Lstm {
    cells: Vec<LstmCell>,
    head: Linear,
    input_dim: usize,
    hidden: usize,
    /// Gradient-norm clip applied in [`train_step`](Self::train_step);
    /// online training on raw loss series occasionally sees spikes.
    pub grad_clip: f32,
    /// The state [`predict`](Self::predict) and [`rollout`](Self::rollout)
    /// advance, so the caller's stays where it was.
    work: LstmState,
    out: Vec<f32>,
    dout: Vec<f32>,
    /// ∂loss/∂h' of the top layer.
    dh: Vec<f32>,
}

impl Lstm {
    /// `input_dim -> [hidden × num_layers] -> out_dim`.
    pub fn new(
        input_dim: usize,
        hidden: usize,
        num_layers: usize,
        out_dim: usize,
        rng: &mut Rng,
    ) -> Self {
        assert!(num_layers >= 1);
        let mut cells = Vec::with_capacity(num_layers);
        cells.push(LstmCell::new(input_dim, hidden, rng));
        for _ in 1..num_layers {
            cells.push(LstmCell::new(hidden, hidden, rng));
        }
        Lstm {
            cells,
            head: Linear::new_xavier(hidden, out_dim, rng),
            input_dim,
            hidden,
            grad_clip: 5.0,
            work: LstmState::zeros(hidden, num_layers),
            out: vec![0.0; out_dim],
            dout: vec![0.0; out_dim],
            dh: vec![0.0; hidden],
        }
    }

    /// Input dimensionality.
    pub fn input_dim(&self) -> usize {
        self.input_dim
    }

    /// Hidden width (the paper uses 64 for the loss predictor, 128 for the
    /// step predictor).
    pub fn hidden(&self) -> usize {
        self.hidden
    }

    /// Fresh zero state.
    pub fn zero_state(&self) -> LstmState {
        LstmState::zeros(self.hidden, self.cells.len())
    }

    /// One step through every layer and the head: advances `state` in
    /// place and leaves the output in `self.out`.
    fn forward(&mut self, x: &[f32], state: &mut LstmState) {
        assert_eq!(x.len(), self.input_dim, "input width mismatch");
        assert_eq!(state.layers.len(), self.cells.len(), "LSTM layer count mismatch");
        for (l, cell) in self.cells.iter_mut().enumerate() {
            let (below, at) = state.layers.split_at_mut(l);
            let input = below.last().map_or(x, |(h, _)| h.data());
            let (h, c) = &mut at[0];
            cell.forward(input, h.data_mut(), c.data_mut());
        }
        let top = state.layers[self.cells.len() - 1].0.data();
        let rows = self.head.weight.data().chunks_exact(self.hidden);
        for ((o, row), &b) in self.out.iter_mut().zip(rows).zip(self.head.bias.data()) {
            *o = b + dot(row, top);
        }
    }

    /// Forward-only step from `state` (left untouched) on `x`; returns the
    /// `out_dim` outputs.
    pub fn predict(&mut self, x: &[f32], state: &LstmState) -> &[f32] {
        let mut work = std::mem::take(&mut self.work);
        work.copy_from(state);
        self.forward(x, &mut work);
        self.work = work;
        &self.out
    }

    /// One online training step: forward from `state` on `x`, MSE against
    /// `target`, backward, clipped SGD update with rate `lr`. Advances
    /// `state` (detached: the next step does not differentiate through it)
    /// and returns the loss.
    pub fn train_step(&mut self, x: &[f32], target: &[f32], state: &mut LstmState, lr: f32) -> f32 {
        assert_eq!(target.len(), self.out.len(), "target width mismatch");
        self.forward(x, state);
        let n = self.out.len() as f32;
        let mut loss = 0.0;
        for ((d, &o), &t) in self.dout.iter_mut().zip(&self.out).zip(target) {
            loss += (o - t) * (o - t) / n;
            *d = 2.0 * (o - t) / n;
        }

        // Every gradient is taken against the pre-update weights: the head
        // first, then down the stack, each layer handing `dx` to the one
        // below.
        let top = state.layers[self.cells.len() - 1].0.data();
        self.dh.fill(0.0);
        for (row, &d) in self.head.weight.data().chunks_exact(self.hidden).zip(&self.dout) {
            axpy(&mut self.dh, d, row);
        }
        for l in (0..self.cells.len()).rev() {
            let (at, above) = self.cells[l..].split_at_mut(1);
            let dh = above.first().map_or(&self.dh, |cell| &cell.dx);
            at[0].backward(dh, l > 0);
        }

        // Global-norm clip over all parameters, then one rank-1 pass per
        // matrix.
        let head_sq = sum_sq(&self.dout) * (sum_sq(top) + 1.0);
        let norm = (self.cells.iter().map(LstmCell::grad_sq).sum::<f64>() + head_sq).sqrt() as f32;
        let scale = if norm > self.grad_clip { self.grad_clip / norm } else { 1.0 };
        let step = lr * scale;
        for cell in &mut self.cells {
            cell.sgd_step(step);
        }
        let rows = self.head.weight.data_mut().chunks_exact_mut(self.hidden);
        for ((row, b), &d) in rows.zip(self.head.bias.data_mut()).zip(&self.dout) {
            axpy(row, -step * d, top);
            *b -= step * d;
        }
        loss
    }

    /// Rolls the model forward `k` steps feeding each prediction back as
    /// the next input (requires `out_dim == input_dim`, true for the loss
    /// predictor). `out` is cleared and receives the `k` predicted outputs
    /// back to back. The entry state is not mutated.
    pub fn rollout(&mut self, x0: &[f32], state: &LstmState, k: usize, out: &mut Vec<f32>) {
        assert_eq!(self.out.len(), self.input_dim, "rollout feeds outputs back as inputs");
        out.clear();
        let mut work = std::mem::take(&mut self.work);
        work.copy_from(state);
        for step in 0..k {
            let x = if step == 0 { x0 } else { &out[out.len() - self.input_dim..] };
            self.forward(x, &mut work);
            out.extend_from_slice(&self.out);
        }
        self.work = work;
    }

    /// Visits parameters in checkpoint order: per-cell (weight, bias), then
    /// head (weight, bias).
    pub fn visit_params_mut(&mut self, f: &mut impl FnMut(&mut Tensor)) {
        for cell in &mut self.cells {
            f(&mut cell.weight);
            f(&mut cell.bias);
        }
        f(&mut self.head.weight);
        f(&mut self.head.bias);
    }

    /// Read-only parameter visit in the same fixed order as
    /// [`Lstm::visit_params_mut`].
    pub fn visit_params(&self, f: &mut impl FnMut(&Tensor)) {
        for cell in &self.cells {
            f(&cell.weight);
            f(&cell.bias);
        }
        f(&self.head.weight);
        f(&self.head.bias);
    }

    /// All parameters flattened in visit order — the predictor half of a
    /// full training checkpoint.
    pub fn flat_params(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.num_params());
        self.visit_params(&mut |t| out.extend_from_slice(t.data()));
        out
    }

    /// Installs a flat parameter vector captured by
    /// [`Lstm::flat_params`] from an identically shaped model. Panics on a
    /// length mismatch (an architecture incompatibility, not a recoverable
    /// condition).
    pub fn set_flat_params(&mut self, flat: &[f32]) {
        assert_eq!(flat.len(), self.num_params(), "flat parameter length mismatch");
        let mut off = 0;
        self.visit_params_mut(&mut |t| {
            let n = t.numel();
            t.data_mut().copy_from_slice(&flat[off..off + n]);
            off += n;
        });
    }

    /// Total parameter count (for overhead accounting).
    pub fn num_params(&self) -> usize {
        let mut n = 0;
        for cell in &self.cells {
            n += cell.weight.numel() + cell.bias.numel();
        }
        n + self.head.weight.numel() + self.head.bias.numel()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcasgd_autograd::gradcheck::assert_grad_matches;

    #[test]
    fn shapes_and_state_advance() {
        let mut rng = Rng::seed_from_u64(111);
        let mut lstm = Lstm::new(3, 8, 2, 1, &mut rng);
        let mut st = lstm.zero_state();
        let x = [0.1, 0.2, 0.3];
        assert_eq!(lstm.predict(&x, &st).len(), 1);
        assert!(st.layers[0].0.data().iter().all(|&v| v == 0.0), "predict leaves the state");
        lstm.train_step(&x, &[0.5], &mut st, 0.0);
        assert_eq!(st.layers.len(), 2);
        assert_eq!(st.layers[0].0.dims(), &[1, 8]);
        assert!(st.layers[0].0.data().iter().any(|&v| v != 0.0), "train_step advances it");
    }

    #[test]
    fn prediction_is_deterministic() {
        let mut rng = Rng::seed_from_u64(112);
        let mut lstm = Lstm::new(1, 4, 2, 1, &mut rng);
        let st = lstm.zero_state();
        let a = lstm.predict(&[0.5], &st).to_vec();
        let b = lstm.predict(&[0.5], &st).to_vec();
        assert_eq!(a, b);
    }

    #[test]
    fn online_training_learns_constant_series() {
        // Feeding a constant series, the predictor should converge to
        // predicting that constant.
        let mut rng = Rng::seed_from_u64(113);
        let mut lstm = Lstm::new(1, 8, 2, 1, &mut rng);
        let mut st = lstm.zero_state();
        let mut last = f32::INFINITY;
        for _ in 0..400 {
            last = lstm.train_step(&[0.7], &[0.7], &mut st, 0.05);
        }
        assert!(last < 1e-3, "final loss {last}");
    }

    #[test]
    fn online_training_tracks_slowly_decaying_series() {
        // A geometric decay mimics a loss curve; after online training the
        // one-step-ahead prediction error should be small.
        let mut rng = Rng::seed_from_u64(114);
        let mut lstm = Lstm::new(1, 16, 2, 1, &mut rng);
        let mut st = lstm.zero_state();
        let series: Vec<f32> = (0..300).map(|i| 2.0 * (0.99f32).powi(i) + 0.5).collect();
        let errs: Vec<f32> =
            series.windows(2).map(|w| lstm.train_step(&w[..1], &w[1..], &mut st, 0.02)).collect();
        let late: f32 = errs[250..].iter().sum::<f32>() / 49.0;
        assert!(late < 5e-3, "late avg one-step MSE {late}");
    }

    #[test]
    fn rollout_feeds_predictions_back_without_mutating_the_entry_state() {
        let mut rng = Rng::seed_from_u64(115);
        let mut lstm = Lstm::new(1, 4, 1, 1, &mut rng);
        let mut st = lstm.zero_state();
        lstm.train_step(&[0.3], &[0.4], &mut st, 0.02);
        let (mut preds, mut again) = (Vec::new(), Vec::new());
        lstm.rollout(&[1.0], &st, 5, &mut preds);
        assert_eq!(preds.len(), 5);
        lstm.rollout(&[1.0], &st, 5, &mut again);
        assert_eq!(preds, again, "same call, same state, same forecasts");
        // The same five steps by hand: predict, then advance a copy of the
        // state on the same input with a zero learning rate.
        let (mut x, mut walk) = (1.0, st.clone());
        for &p in &preds {
            assert_eq!(lstm.predict(&[x], &walk), &[p]);
            lstm.train_step(&[x], &[0.0], &mut walk, 0.0);
            x = p;
        }
    }

    #[test]
    fn grad_clip_bounds_update() {
        let mut rng = Rng::seed_from_u64(116);
        let mut lstm = Lstm::new(1, 4, 1, 1, &mut rng);
        lstm.grad_clip = 1e-6; // essentially freeze
        let mut st = lstm.zero_state();
        let before = lstm.flat_params();
        lstm.train_step(&[10.0], &[-10.0], &mut st, 1.0);
        let delta: f32 = before.iter().zip(lstm.flat_params()).map(|(a, b)| (a - b).abs()).sum();
        assert!(delta < 1e-4, "clip failed, total delta {delta}");
    }

    /// The hand-written backward against central finite differences of
    /// the loss in every parameter. With `lr = 1` and the clip out of
    /// reach, the gradient is what `train_step` subtracted.
    #[test]
    fn hand_backward_matches_finite_differences() {
        for (input, hidden, layers, out, seed) in
            [(1, 5, 1, 1, 1u64), (3, 4, 2, 1, 2), (2, 3, 2, 2, 3)]
        {
            let mut rng = Rng::seed_from_u64(400 + seed);
            let mut lstm = Lstm::new(input, hidden, layers, out, &mut rng);
            lstm.grad_clip = f32::INFINITY;
            // A warmed-up state, so `h_prev` and `c_prev` are not zero.
            let mut st = lstm.zero_state();
            let x: Vec<f32> = (0..input).map(|i| 0.3 - 0.2 * i as f32).collect();
            let target: Vec<f32> = (0..out).map(|i| 0.8 - 0.5 * i as f32).collect();
            lstm.train_step(&x, &target, &mut st, 0.0);

            let params = lstm.flat_params();
            let dims = [params.len()];
            let before = Tensor::from_vec(params, &dims);
            let mut advanced = st.clone();
            lstm.train_step(&x, &target, &mut advanced, 1.0);
            let after = Tensor::from_vec(lstm.flat_params(), &dims);
            let analytic = before.sub(&after);
            assert_grad_matches(
                |probe| {
                    lstm.set_flat_params(probe.data());
                    let y = lstm.predict(&x, &st);
                    y.iter().zip(&target).map(|(y, t)| (y - t) * (y - t)).sum::<f32>() / out as f32
                },
                &before,
                &analytic,
                1e-2,
                2e-3,
            );
        }
    }
}

#[cfg(test)]
mod sensitivity_tests {
    use super::*;

    #[test]
    fn output_depends_on_input() {
        let mut rng = Rng::seed_from_u64(301);
        let mut lstm = Lstm::new(2, 8, 2, 1, &mut rng);
        let st = lstm.zero_state();
        let a = lstm.predict(&[0.1, 0.0], &st).to_vec();
        let b = lstm.predict(&[0.9, 0.5], &st).to_vec();
        assert_ne!(a, b, "LSTM must react to its input");
    }

    #[test]
    fn output_depends_on_state_history() {
        // Same input, different histories → different outputs (memory).
        let mut rng = Rng::seed_from_u64(302);
        let mut lstm = Lstm::new(1, 8, 1, 1, &mut rng);
        let fresh = lstm.zero_state();
        let mut warmed = lstm.zero_state();
        lstm.train_step(&[5.0], &[0.0], &mut warmed, 0.0);
        let from_fresh = lstm.predict(&[0.3], &fresh).to_vec();
        let from_warmed = lstm.predict(&[0.3], &warmed).to_vec();
        assert_ne!(from_fresh, from_warmed);
    }

    #[test]
    fn num_params_matches_visit() {
        let mut rng = Rng::seed_from_u64(303);
        let mut lstm = Lstm::new(3, 16, 2, 1, &mut rng);
        let mut visited = 0;
        lstm.visit_params_mut(&mut |t| visited += t.numel());
        assert_eq!(visited, lstm.num_params());
        // 2×LSTM + head = 5 weight/bias pairs... (per-cell W/b + head W/b)
        let mut count = 0;
        lstm.visit_params_mut(&mut |_| count += 1);
        assert_eq!(count, 2 * 2 + 2);
    }
}
