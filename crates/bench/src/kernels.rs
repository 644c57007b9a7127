//! Kernel perf baseline: seed kernels vs the shipping kernels.
//!
//! The `kernel-baseline` binary times the hot tensor kernels twice — once
//! with byte-faithful copies of the *seed* implementations (the pre-packing
//! row-kernel matmul, the materializing im2col conv, the per-element
//! `channel_of` BatchNorm and the forking elementwise map, preserved in
//! [`seed`]) and once through the shipping `lcasgd-tensor` /
//! `lcasgd-autograd` entry points — and emits `BENCH_kernels.json`. The
//! committed copy of that file is the perf baseline: CI re-measures in
//! `--smoke` mode and fails when any kernel's *single-thread speedup over
//! its seed* falls more than [`GATE_TOLERANCE`] below the committed one
//! (see [`regression_gate`] for why that quantity). All timings are
//! min-of-samples (the minimum is the only estimator whose noise is
//! one-sided under scheduler interference).

use crate::baseline;
use lcasgd_autograd::{Graph, Var};
use lcasgd_nn::layer::Layer;
use lcasgd_nn::lstm::LstmState;
use lcasgd_nn::Network;
use lcasgd_tensor::ops::conv::{col2im, conv2d, conv2d_dw, conv2d_dx, im2col, Conv2dSpec};
use lcasgd_tensor::{Rng, Tensor};
use rayon::prelude::*;
use std::time::Instant;

/// Relative regression tolerance for the CI gate: fail when a kernel's
/// measured single-thread speedup over its seed is more than 20 % below
/// the committed baseline's.
pub const GATE_TOLERANCE: f64 = 0.20;

/// Absolute backstop of the gate: whatever the speedup says, an optimized
/// time more than this many times the committed one fails. Wide enough for
/// the sandbox's slow regimes, in which a forked kernel reads ≈ 2× slow.
pub const GATE_BACKSTOP: f64 = 3.0;

/// Schema tag written to (and required of) `BENCH_kernels.json`. v2 added
/// `speedup_1t`, the gated quantity.
pub const SCHEMA: &str = "kernel_baseline/v2";

/// Default output filename, written into the working directory (repo root
/// when invoked via `ci.sh` or the README quickstart).
pub const BASELINE_FILE: &str = "BENCH_kernels.json";

/// Byte-faithful copies of the seed kernels (commit `dfb689d`), kept here
/// so the harness always measures the same "before" no matter how the
/// library evolves. Do not modernize these.
pub mod seed {
    use super::*;

    const PAR_ROWS: usize = 8;
    const PAR_FLOPS: usize = 1 << 18;

    /// `Tensor::clone` as it was when these kernels were written: a copy
    /// of the buffer. (Today's shares it until one side writes.)
    fn copied(t: &Tensor) -> Tensor {
        Tensor::from_vec(t.data().to_vec(), t.dims())
    }

    /// One learner iteration on an MLP as commit `0cd55c6` ran it: install
    /// the pulled weights, put a *copy* of every parameter on the tape,
    /// backpropagate into a fresh tensor per parameter, gather those into
    /// a new flat vector. Returns the loss and the flat gradient.
    pub fn train_step(
        net: &mut Network,
        weights: &[f32],
        x: &Tensor,
        labels: &[usize],
    ) -> (f32, Vec<f32>) {
        net.set_flat_params(weights);
        let mut g = Graph::new();
        let mut h = g.input(copied(x));
        let mut leaves = Vec::new();
        for layer in net.layers() {
            h = match layer {
                Layer::Linear(l) => {
                    let (w, b) = (g.leaf(copied(&l.weight)), g.leaf(copied(&l.bias)));
                    leaves.extend([w, b]);
                    g.linear(h, w, b)
                }
                Layer::Relu => g.relu(h),
                _ => unreachable!("an MLP without BatchNorm is linear layers and ReLUs"),
            };
        }
        let loss = g.softmax_cross_entropy(h, labels);
        g.backward(loss);
        let mut grads = Vec::with_capacity(net.num_params());
        for v in leaves {
            grads.extend_from_slice(g.take_grad(v).expect("every parameter is reached").data());
        }
        (g.value(loss).item(), grads)
    }

    fn matmul_rows(out_rows: &mut [f32], a_rows: &[f32], b: &[f32], k: usize, n: usize) {
        for (out_row, a_row) in out_rows.chunks_exact_mut(n).zip(a_rows.chunks_exact(k)) {
            for (kk, &aik) in a_row.iter().enumerate() {
                if aik == 0.0 {
                    continue;
                }
                let b_row = &b[kk * n..kk * n + n];
                for (o, &bv) in out_row.iter_mut().zip(b_row) {
                    *o += aik * bv;
                }
            }
        }
    }

    /// The seed `Tensor::matmul`: i-k-j row kernel, rayon bands over rows.
    pub fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k) = (a.dims()[0], a.dims()[1]);
        let n = b.dims()[1];
        let mut out = Tensor::zeros(&[m, n]);
        let ad = a.data();
        let bd = b.data();
        let flops = m * n * k;
        if m >= PAR_ROWS && flops >= PAR_FLOPS {
            let band = (m / rayon::current_num_threads().max(1)).max(1);
            out.data_mut()
                .par_chunks_mut(band * n)
                .zip(ad.par_chunks(band * k))
                .for_each(|(out_band, a_band)| matmul_rows(out_band, a_band, bd, k, n));
        } else {
            matmul_rows(out.data_mut(), ad, bd, k, n);
        }
        out
    }

    /// The seed `Tensor::matmul_tn`: serial k-major accumulation.
    pub fn matmul_tn(a: &Tensor, b: &Tensor) -> Tensor {
        let (k, m) = (a.dims()[0], a.dims()[1]);
        let n = b.dims()[1];
        let ad = a.data();
        let bd = b.data();
        let mut out = Tensor::zeros(&[m, n]);
        let od = out.data_mut();
        for kk in 0..k {
            let a_row = &ad[kk * m..kk * m + m];
            let b_row = &bd[kk * n..kk * n + n];
            for (i, &aki) in a_row.iter().enumerate() {
                if aki == 0.0 {
                    continue;
                }
                let o = &mut od[i * n..i * n + n];
                for (ov, &bv) in o.iter_mut().zip(b_row) {
                    *ov += aki * bv;
                }
            }
        }
        out
    }

    /// The seed `Tensor::matmul_nt`: serial per-output dot products.
    pub fn matmul_nt(a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k) = (a.dims()[0], a.dims()[1]);
        let n = b.dims()[0];
        let ad = a.data();
        let bd = b.data();
        let mut out = Tensor::zeros(&[m, n]);
        for (i, out_row) in out.data_mut().chunks_mut(n).enumerate() {
            let a_row = &ad[i * k..i * k + k];
            for (j, o) in out_row.iter_mut().enumerate() {
                let b_row = &bd[j * k..j * k + k];
                let mut acc = 0.0f32;
                for (&x, &y) in a_row.iter().zip(b_row) {
                    acc += x * y;
                }
                *o = acc;
            }
        }
        out
    }

    /// The seed `conv2d`: materialized im2col, `cols × Wᵀ`, then an NCHW
    /// reorder scatter.
    pub fn conv2d(input: &Tensor, weight: &Tensor, spec: &Conv2dSpec) -> Tensor {
        let dims = input.dims();
        let (n, h, w) = (dims[0], dims[2], dims[3]);
        let (oh, ow) = spec.out_hw(h, w);
        let cols = im2col(input, spec);
        let wmat = weight.reshaped(&[spec.out_channels, spec.patch_len()]);
        let prod = matmul_nt(&cols, &wmat);
        let mut out = Tensor::zeros(&[n, spec.out_channels, oh, ow]);
        let pd = prod.data();
        let hw = oh * ow;
        out.data_mut().chunks_mut(spec.out_channels * hw).enumerate().for_each(|(img, dst)| {
            for p in 0..hw {
                let row =
                    &pd[(img * hw + p) * spec.out_channels..(img * hw + p + 1) * spec.out_channels];
                for (co, &v) in row.iter().enumerate() {
                    dst[co * hw + p] = v;
                }
            }
        });
        out
    }

    /// Pixel-row reorder of an NCHW gradient: `[n, c, h, w] -> [n·h·w, c]`.
    fn pixel_rows(dy: &Tensor) -> Tensor {
        let d = dy.dims();
        let (n, cout, hw) = (d[0], d[1], d[2] * d[3]);
        let mut dy_rows = Tensor::zeros(&[n * hw, cout]);
        let src = dy.data();
        let dst = dy_rows.data_mut();
        for img in 0..n {
            let base = img * cout * hw;
            for ch in 0..cout {
                for p in 0..hw {
                    dst[(img * hw + p) * cout + ch] = src[base + ch * hw + p];
                }
            }
        }
        dy_rows
    }

    /// The seed conv weight gradient: pixel-row reorder of dY, then
    /// `dYᵀ × cols` against the materialized im2col matrix (what
    /// `Conv2dBack` did before the fused `conv2d_dw`).
    pub fn conv2d_dw(dy: &Tensor, input: &Tensor, spec: &Conv2dSpec) -> Tensor {
        let dy_rows = pixel_rows(dy);
        let cols = im2col(input, spec);
        matmul_tn(&dy_rows, &cols).reshape(&[
            spec.out_channels,
            spec.in_channels,
            spec.kernel,
            spec.kernel,
        ])
    }

    /// The seed conv input gradient: `col2im(dY_rows × Wmat)` over the
    /// whole batch's materialized `dcols` (what `Conv2dBack` did before
    /// `conv2d_dx`).
    pub fn conv2d_dx(
        dy: &Tensor,
        weight: &Tensor,
        spec: &Conv2dSpec,
        h: usize,
        w: usize,
    ) -> Tensor {
        let wmat = weight.reshaped(&[spec.out_channels, spec.patch_len()]);
        col2im(&matmul(&pixel_rows(dy), &wmat), spec, dy.dims()[0], h, w)
    }

    /// The seed training-mode BatchNorm2d + ReLU, forward and backward
    /// under the loss `Σ relu(y)`: the per-element `channel_of` loops of
    /// `autograd::ops::norm` as they stood before the run-based rewrite
    /// (two integer divisions per element per pass), around the same
    /// `channel_mean`/`channel_var`/ReLU the tape runs. Returns
    /// `(relu(y), dx, dgamma, dbeta)`.
    pub fn bn2d_relu(
        x: &Tensor,
        gamma: &Tensor,
        beta: &Tensor,
        eps: f32,
    ) -> (Tensor, Tensor, Tensor, Tensor) {
        let d = x.dims();
        let (n, c, hw) = (d[0], d[1], d[2] * d[3]);
        let channel_of = |flat: usize| (flat / hw) % c;
        let mean = x.channel_mean();
        let var = x.channel_var(&mean);
        let inv_std = Tensor::from_vec(
            var.data().iter().map(|&v| 1.0 / (v + eps).sqrt()).collect(),
            var.dims(),
        );
        let mut xhat = x.clone();
        let (md, isd) = (mean.data(), inv_std.data());
        for (i, v) in xhat.data_mut().iter_mut().enumerate() {
            let ch = channel_of(i);
            *v = (*v - md[ch]) * isd[ch];
        }
        let mut y = xhat.clone();
        let (gd, bd) = (gamma.data(), beta.data());
        for (i, v) in y.data_mut().iter_mut().enumerate() {
            let ch = channel_of(i);
            *v = *v * gd[ch] + bd[ch];
        }
        let out = y.relu();

        // ReLU backward of an all-ones upstream gradient.
        let mut dy = Tensor::ones(out.dims());
        for (gv, &yv) in dy.data_mut().iter_mut().zip(out.data()) {
            if yv <= 0.0 {
                *gv = 0.0;
            }
        }
        let (dy, xh) = (dy.data(), xhat.data());
        let mut dbeta = vec![0.0f64; c];
        let mut dgamma = vec![0.0f64; c];
        for (i, (&g, &xh)) in dy.iter().zip(xh).enumerate() {
            let ch = channel_of(i);
            dbeta[ch] += g as f64;
            dgamma[ch] += (g * xh) as f64;
        }
        let m = (n * hw) as f32;
        let mut dx = Tensor::zeros_like(&xhat);
        for (i, o) in dx.data_mut().iter_mut().enumerate() {
            let ch = channel_of(i);
            let term = m * dy[i] - dbeta[ch] as f32 - xh[i] * dgamma[ch] as f32;
            *o = gd[ch] * isd[ch] / m * term;
        }
        (
            out,
            dx,
            Tensor::from_vec(dgamma.into_iter().map(|v| v as f32).collect(), &[c]),
            Tensor::from_vec(dbeta.into_iter().map(|v| v as f32).collect(), &[c]),
        )
    }

    /// The seed `Tensor::relu`: one thread below 16 K elements, a rayon
    /// fork over the elements from there on.
    pub fn relu(t: &Tensor) -> Tensor {
        const PAR_THRESHOLD: usize = 16 * 1024;
        let mut out = t.clone();
        if out.numel() >= PAR_THRESHOLD {
            out.data_mut().par_iter_mut().for_each(|x| *x = x.max(0.0));
        } else {
            out.data_mut().iter_mut().for_each(|x| *x = x.max(0.0));
        }
        out
    }

    /// The seed EMA update: two full passes (`scale_inplace` then
    /// `add_assign_scaled`).
    pub fn ema(dst: &mut Tensor, src: &Tensor, momentum: f32) {
        dst.scale_inplace(1.0 - momentum);
        dst.add_assign_scaled(src, momentum);
    }

    /// The predictors' LSTM as it ran until the fused cell replaced it
    /// (`nn::lstm::Lstm` at commit `e7efea8`): every step builds an
    /// autograd [`Graph`] over clones of the weights, and `train_step`
    /// backpropagates the one-step MSE through it. The one copy of that
    /// formulation left — what the fused cell is timed and tested against.
    pub struct Lstm {
        /// Per layer `W: [4h, in+h]` and `b: [4h]` (gates `i, f, g, o`),
        /// then the head's `W: [out, h]` and `b: [out]`.
        params: Vec<Tensor>,
        hidden: usize,
        pub grad_clip: f32,
    }

    impl Lstm {
        /// A reference model with `model`'s architecture and weights.
        pub fn mirror(model: &lcasgd_nn::Lstm) -> Self {
            let mut params = Vec::new();
            model.visit_params(&mut |t| params.push(t.clone()));
            Lstm { params, hidden: model.hidden(), grad_clip: model.grad_clip }
        }

        /// All parameters in `nn::lstm::Lstm::flat_params` order.
        pub fn flat_params(&self) -> Vec<f32> {
            self.params.iter().flat_map(|t| t.data().iter().copied()).collect()
        }

        /// Builds the one-step graph: the output var, the new `(h, c)` vars
        /// per layer, and one leaf per parameter in `params` order.
        fn build_step(
            &self,
            g: &mut Graph,
            x: Var,
            state: &LstmState,
        ) -> (Var, Vec<(Var, Var)>, Vec<Var>) {
            let leaves: Vec<Var> = self.params.iter().map(|p| g.leaf(copied(p))).collect();
            let hsz = self.hidden;
            let mut cur = x;
            let mut new_state = Vec::with_capacity(state.layers.len());
            for ((h, c), wb) in state.layers.iter().zip(leaves.chunks_exact(2)) {
                let (h, c) = (g.leaf(h.clone()), g.leaf(c.clone()));
                let xh = g.concat_cols(cur, h);
                let gates = g.linear(xh, wb[0], wb[1]); // [1, 4h]
                let i_pre = g.slice_cols(gates, 0, hsz);
                let f_pre = g.slice_cols(gates, hsz, hsz);
                let g_pre = g.slice_cols(gates, 2 * hsz, hsz);
                let o_pre = g.slice_cols(gates, 3 * hsz, hsz);
                let i = g.sigmoid(i_pre);
                let f = g.sigmoid(f_pre);
                let cand = g.tanh(g_pre);
                let o = g.sigmoid(o_pre);
                let fc = g.mul(f, c);
                let ig = g.mul(i, cand);
                let c_new = g.add(fc, ig);
                let c_act = g.tanh(c_new);
                let h_new = g.mul(o, c_act);
                new_state.push((h_new, c_new));
                cur = h_new;
            }
            let n = leaves.len();
            let out = g.linear(cur, leaves[n - 2], leaves[n - 1]);
            (out, new_state, leaves)
        }

        fn detach(g: &Graph, new_state: &[(Var, Var)]) -> LstmState {
            LstmState {
                layers: new_state
                    .iter()
                    .map(|&(h, c)| (g.value(h).clone(), g.value(c).clone()))
                    .collect(),
            }
        }

        /// Forward-only step: `x: [1, in]` to the output `[1, out]` and the
        /// advanced state.
        pub fn predict(&self, x: &Tensor, state: &LstmState) -> (Tensor, LstmState) {
            let mut g = Graph::new();
            let xv = g.leaf(x.clone());
            let (out, new_state, _) = self.build_step(&mut g, xv, state);
            (g.value(out).clone(), Self::detach(&g, &new_state))
        }

        /// One online training step: forward, MSE against `target`,
        /// backward, global-norm-clipped SGD update. Returns the loss and
        /// the advanced (detached) state.
        pub fn train_step(
            &mut self,
            x: &Tensor,
            target: &Tensor,
            state: &LstmState,
            lr: f32,
        ) -> (f32, LstmState) {
            let mut g = Graph::new();
            let xv = g.leaf(x.clone());
            let (out, new_state, leaves) = self.build_step(&mut g, xv, state);
            let loss = g.mse(out, target.clone());
            g.backward(loss);
            let grads: Vec<Option<Tensor>> = leaves.iter().map(|&p| g.take_grad(p)).collect();
            let total_sq: f64 = grads
                .iter()
                .flatten()
                .map(|t| t.data().iter().map(|&v| (v as f64) * (v as f64)).sum::<f64>())
                .sum();
            let norm = total_sq.sqrt() as f32;
            let scale = if norm > self.grad_clip { self.grad_clip / norm } else { 1.0 };
            for (p, grad) in self.params.iter_mut().zip(grads) {
                if let Some(grad) = grad {
                    p.add_assign_scaled(&grad, -lr * scale);
                }
            }
            (g.value(loss).item(), Self::detach(&g, &new_state))
        }

        /// `k` steps, each prediction fed back as the next input.
        pub fn rollout(&self, x0: &Tensor, state: &LstmState, k: usize) -> Vec<Tensor> {
            let mut out = Vec::with_capacity(k);
            let mut x = x0.clone();
            let mut st = state.clone();
            for _ in 0..k {
                let (y, next) = self.predict(&x, &st);
                st = next;
                x = y.clone();
                out.push(y);
            }
            out
        }
    }
}

/// One kernel's before/after measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelReport {
    pub name: String,
    pub shape: String,
    /// Seed and optimized time at the machine's thread count.
    pub seed_ms: f64,
    pub opt_ms: f64,
    /// `seed ÷ optimized` with both re-timed under
    /// `rayon::with_num_threads(1)`: what [`regression_gate`] compares.
    pub speedup_1t: f64,
}

impl KernelReport {
    pub fn speedup(&self) -> f64 {
        if self.opt_ms > 0.0 {
            self.seed_ms / self.opt_ms
        } else {
            f64::INFINITY
        }
    }
}

/// Minimum wall-clock of `seed` and of `opt` over `samples` rounds (after
/// one warmup), in ms. The two are sampled in alternation, so a burst of
/// interference longer than one round lands on both and the ratio of the
/// minima moves less than either minimum; and the faster side is run as
/// many times per round as fits in the slower side's time (up to 32), so
/// on a busy box a 5 ms kernel gets as many chances at a quiet moment as
/// the 100 ms seed it is compared with gets milliseconds.
fn time_pair_min_ms<A, B>(
    samples: usize,
    seed: &mut impl FnMut() -> A,
    opt: &mut impl FnMut() -> B,
) -> (f64, f64) {
    fn best_of<O>(runs: usize, f: &mut impl FnMut() -> O) -> f64 {
        (0..runs).fold(f64::INFINITY, |best, _| {
            let t = Instant::now();
            std::hint::black_box(f());
            best.min(t.elapsed().as_secs_f64() * 1e3)
        })
    }
    let (s0, o0) = (best_of(1, seed), best_of(1, opt));
    let per_round = |slow: f64, fast: f64| ((slow / fast.max(1e-9)) as usize).clamp(1, 32);
    let (seed_runs, opt_runs) = (per_round(o0, s0), per_round(s0, o0));
    (0..samples.max(1)).fold((f64::INFINITY, f64::INFINITY), |(s, o), _| {
        (s.min(best_of(seed_runs, seed)), o.min(best_of(opt_runs, opt)))
    })
}

/// Measures one row: `seed` and `opt`, min of `n` samples each, at the
/// machine's thread count, then both again with every fan-out pinned to
/// one thread (the ratio the gate compares).
fn row<A, B>(
    reports: &mut Vec<KernelReport>,
    name: &str,
    shape: String,
    n: usize,
    mut seed: impl FnMut() -> A,
    mut opt: impl FnMut() -> B,
) {
    let (seed_ms, opt_ms) = time_pair_min_ms(n, &mut seed, &mut opt);
    let (seed_1t, opt_1t) = rayon::with_num_threads(1, || time_pair_min_ms(n, &mut seed, &mut opt));
    let speedup_1t = seed_1t / opt_1t;
    reports.push(KernelReport { name: name.into(), shape, seed_ms, opt_ms, speedup_1t });
}

fn max_abs_diff(a: &Tensor, b: &Tensor) -> f32 {
    a.data().iter().zip(b.data()).map(|(x, y)| (x - y).abs()).fold(0.0, f32::max)
}

fn randn(dims: &[usize], seed: u64) -> Tensor {
    let mut rng = Rng::seed_from_u64(seed);
    Tensor::randn(dims, 1.0, &mut rng)
}

/// Measures every tracked kernel, seed vs optimized. Each pair is also
/// cross-checked for agreement (≤1e-3 absolute on unit-normal data) so the
/// harness cannot quietly benchmark two kernels computing different things.
pub fn measure_all(samples: usize) -> Vec<KernelReport> {
    let mut reports = Vec::new();

    // One learner iteration on the benchmark's wide MLP at its batch:
    // install weights → forward → backward → gradient handed over. The seed
    // side asks the heap for five model-sized blocks per iteration (two
    // weight copies, two `dW`s, the gathered vector), the shipping side
    // for none: the tape shares
    // the parameters, `backward` writes into one arena, and the arena
    // comes back once "sent". First of all rows, so neither side inherits
    // a heap — or an mmap threshold — another row's blocks have shaped.
    {
        let dims = [256, 1024, 1024, 10];
        let build = || lcasgd_nn::mlp::mlp(&dims, false, &mut Rng::seed_from_u64(30));
        let (mut seed_net, mut net) = (build(), build());
        let weights = net.flat_params();
        let x = randn(&[16, dims[0]], 31);
        let labels: Vec<usize> = (0..16).map(|i| (3 * i) % dims[3]).collect();
        // The shipping path; `spent` is the gradient vector of the step
        // before, back from wherever it was sent.
        let step = |net: &mut Network, spent: Vec<f32>| {
            net.set_flat_params(&weights);
            let mut g = Graph::new();
            let (logits, _) = net.forward(&mut g, x.clone(), true);
            let loss = g.softmax_cross_entropy(logits, &labels);
            g.set_grad_arena(spent);
            g.backward(loss);
            (g.value(loss).item(), net.flat_grads(&mut g))
        };
        // Same arithmetic in the same order: equal losses, equal gradients.
        let reference = seed::train_step(&mut seed_net, &weights, &x, &labels);
        assert!(reference == step(&mut net, Vec::new()), "train_step mismatch");
        let mut spent = Vec::new();
        let seed_step = || seed::train_step(&mut seed_net, &weights, &x, &labels).0;
        let opt_step = || {
            let (loss, grads) = step(&mut net, std::mem::take(&mut spent));
            spent = grads;
            loss
        };
        // Five times the samples: the seed side's time is mostly page faults,
        // whose cost wanders more than arithmetic's, and only the minimum of
        // many rounds is steady enough for the gate.
        row(&mut reports, "train_step", "mlp_w_b16".into(), samples * 5, seed_step, opt_step);
    }

    // Square GEMM at the paper's hidden sizes (acceptance target: >= 2x).
    {
        let (m, n, k) = (256, 256, 256);
        let a = randn(&[m, k], 1);
        let b = randn(&[k, n], 2);
        assert!(max_abs_diff(&seed::matmul(&a, &b), &a.matmul(&b)) < 1e-3, "matmul mismatch");
        row(
            &mut reports,
            "matmul",
            format!("{m}x{n}x{k}"),
            samples,
            || seed::matmul(&a, &b),
            || a.matmul(&b),
        );
    }
    // Transposed variants (linear-layer backward products).
    {
        let (m, n, k) = (256, 256, 256);
        let at = randn(&[k, m], 3);
        let b = randn(&[k, n], 4);
        assert!(max_abs_diff(&seed::matmul_tn(&at, &b), &at.matmul_tn(&b)) < 1e-3, "tn mismatch");
        row(
            &mut reports,
            "matmul_tn",
            format!("{m}x{n}x{k}"),
            samples,
            || seed::matmul_tn(&at, &b),
            || at.matmul_tn(&b),
        );
    }
    {
        let (m, n, k) = (256, 256, 256);
        let a = randn(&[m, k], 5);
        let bt = randn(&[n, k], 6);
        assert!(max_abs_diff(&seed::matmul_nt(&a, &bt), &a.matmul_nt(&bt)) < 1e-3, "nt mismatch");
        row(
            &mut reports,
            "matmul_nt",
            format!("{m}x{n}x{k}"),
            samples,
            || seed::matmul_nt(&a, &bt),
            || a.matmul_nt(&bt),
        );
    }
    // ResNet-18 CIFAR body conv: 3x3, 64->64 channels, 32x32 maps
    // (acceptance target: >= 1.5x).
    {
        let spec =
            Conv2dSpec { in_channels: 64, out_channels: 64, kernel: 3, stride: 1, padding: 1 };
        let x = randn(&[4, 64, 32, 32], 7);
        let w = randn(&[64, 64, 3, 3], 8);
        assert!(
            max_abs_diff(&seed::conv2d(&x, &w, &spec), &conv2d(&x, &w, &spec)) < 1e-2,
            "conv3x3 mismatch"
        );
        row(
            &mut reports,
            "conv3x3",
            "n4_c64-64_32x32_s1p1".into(),
            samples,
            || seed::conv2d(&x, &w, &spec),
            || conv2d(&x, &w, &spec),
        );
    }
    // ResNet downsample-style 1x1 conv.
    {
        let spec =
            Conv2dSpec { in_channels: 64, out_channels: 128, kernel: 1, stride: 1, padding: 0 };
        let x = randn(&[4, 64, 16, 16], 9);
        let w = randn(&[128, 64, 1, 1], 10);
        assert!(
            max_abs_diff(&seed::conv2d(&x, &w, &spec), &conv2d(&x, &w, &spec)) < 1e-2,
            "conv1x1 mismatch"
        );
        row(
            &mut reports,
            "conv1x1",
            "n4_c64-128_16x16_s1p0".into(),
            samples,
            || seed::conv2d(&x, &w, &spec),
            || conv2d(&x, &w, &spec),
        );
    }
    // Conv weight gradient at the 3x3 CIFAR shape.
    {
        let spec =
            Conv2dSpec { in_channels: 64, out_channels: 64, kernel: 3, stride: 1, padding: 1 };
        let x = randn(&[4, 64, 32, 32], 11);
        let dy = randn(&[4, 64, 32, 32], 12);
        assert!(
            max_abs_diff(&seed::conv2d_dw(&dy, &x, &spec), &conv2d_dw(&dy, &x, &spec)) < 2e-1,
            "conv_dw mismatch"
        );
        row(
            &mut reports,
            "conv3x3_dw",
            "n4_c64-64_32x32_s1p1".into(),
            samples,
            || seed::conv2d_dw(&dy, &x, &spec),
            || conv2d_dw(&dy, &x, &spec),
        );
    }
    // What the end-to-end benchmark trains: ResNet-tiny's dominant
    // convolution (8→8 3×3 on the 10×10 map) at batch 16, all three passes.
    {
        let spec = Conv2dSpec { in_channels: 8, out_channels: 8, kernel: 3, stride: 1, padding: 1 };
        let shape = "n16_c8-8_10x10_s1p1";
        let x = randn(&[16, 8, 10, 10], 17);
        let w = randn(&[8, 8, 3, 3], 18);
        let dy = randn(&[16, 8, 10, 10], 19);
        let close = |a: &Tensor, b: &Tensor| max_abs_diff(a, b) < 1e-2;
        assert!(close(&seed::conv2d(&x, &w, &spec), &conv2d(&x, &w, &spec)), "tiny conv mismatch");
        assert!(
            close(&seed::conv2d_dw(&dy, &x, &spec), &conv2d_dw(&dy, &x, &spec)),
            "tiny conv_dw mismatch"
        );
        assert!(
            close(&seed::conv2d_dx(&dy, &w, &spec, 10, 10), &conv2d_dx(&dy, &w, &spec, 10, 10)),
            "tiny conv_dx mismatch"
        );
        let n = samples * 20;
        row(
            &mut reports,
            "conv3x3",
            shape.into(),
            n,
            || seed::conv2d(&x, &w, &spec),
            || conv2d(&x, &w, &spec),
        );
        row(
            &mut reports,
            "conv3x3_dw",
            shape.into(),
            n,
            || seed::conv2d_dw(&dy, &x, &spec),
            || conv2d_dw(&dy, &x, &spec),
        );
        row(
            &mut reports,
            "conv3x3_dx",
            shape.into(),
            n,
            || seed::conv2d_dx(&dy, &w, &spec, 10, 10),
            || conv2d_dx(&dy, &w, &spec, 10, 10),
        );
    }
    // The BatchNorm + ReLU that follows it, forward and backward: the seed
    // loops standalone against the shipping ops on a tape (whose node
    // bookkeeping is therefore charged to the optimized side).
    {
        let x = randn(&[16, 8, 10, 10], 20);
        let gamma = randn(&[8], 21);
        let beta = randn(&[8], 22);
        let taped = || {
            let mut g = Graph::new();
            let (xv, gv, bv) = (g.leaf(x.clone()), g.leaf(gamma.clone()), g.leaf(beta.clone()));
            let (y, _) = g.batch_norm2d(xv, gv, bv, 1e-5);
            let out = g.relu(y);
            let loss = g.sum(out);
            g.backward(loss);
            let out = g.value(out).clone();
            let mut take = |v| g.take_grad(v).expect("gradient reached the leaf");
            (out, take(xv), take(gv), take(bv))
        };
        // Same arithmetic in the same order: the four tensors are equal.
        assert_eq!(seed::bn2d_relu(&x, &gamma, &beta, 1e-5), taped(), "bn2d_relu mismatch");
        let n = samples * 20;
        row(
            &mut reports,
            "bn2d_relu",
            "n16_c8_10x10_fwd+bwd".into(),
            n,
            || seed::bn2d_relu(&x, &gamma, &beta, 1e-5),
            taped,
        );
    }
    // Elementwise dispatch: the seed forks from 16 K elements on, the
    // shipping op never does. A speedup ≥ 1 at every size is what the
    // deletion of the forked branch rests on.
    for lg in [14usize, 18, 22] {
        let x = randn(&[1 << lg], 23);
        assert_eq!(seed::relu(&x), x.relu(), "relu mismatch");
        let n = if lg < 20 { samples * 20 } else { samples };
        row(&mut reports, "relu", format!("{}", 1usize << lg), n, || seed::relu(&x), || x.relu());
    }
    // The rayon shim's fork/join: a no-op parallel loop over 16 chunks —
    // the cost `tune::CONV_PAR_MACS` and `tune::PAR_FLOPS` are sized
    // against. There is no seed side: both columns time the same loop.
    {
        let fork_join = |chunks: &mut [f32]| {
            chunks.par_chunks_mut(1).for_each(|c| {
                std::hint::black_box(c);
            })
        };
        let (mut a, mut b) = ([0.0f32; 16], [0.0f32; 16]);
        let shape = format!("16_chunks_{}_threads", rayon::current_num_threads());
        row(
            &mut reports,
            "fork_join",
            shape,
            samples * 50,
            || fork_join(&mut a),
            || fork_join(&mut b),
        );
    }
    // The two predictors' per-arrival call at the paper's sizes: one online
    // train step, then the step predictor's forecast (`i3_h128`) or the
    // loss predictor's rollout (`i1_h64_k3`: horizon M − 1 at M = 4). The
    // seed side is the autograd cell they ran on until the fused one.
    for (shape, input, hidden, horizon) in
        [("i3_h128", 3, 128, None), ("i1_h64_k3", 1, 64, Some(3))]
    {
        let mut fused = lcasgd_nn::Lstm::new(input, hidden, 2, 1, &mut Rng::seed_from_u64(24));
        let mut reference = seed::Lstm::mirror(&fused);
        let x: Vec<f32> = (0..input).map(|i| 0.6 - 0.2 * i as f32).collect();
        let xt = Tensor::from_vec(x.clone(), &[1, input]);
        let target = Tensor::from_vec(vec![0.5], &[1, 1]);
        let mut ref_state = fused.zero_state();
        let mut seed_call = || {
            ref_state = reference.train_step(&xt, &target, &ref_state, 0.02).1;
            match horizon {
                None => reference.predict(&xt, &ref_state).0.item(),
                Some(k) => reference.rollout(&xt, &ref_state, k).iter().map(Tensor::item).sum(),
            }
        };
        let mut state = fused.zero_state();
        let mut preds = Vec::new();
        let mut opt_call = || {
            fused.train_step(&x, &[0.5], &mut state, 0.02);
            match horizon {
                None => fused.predict(&x, &state)[0],
                Some(k) => {
                    fused.rollout(&x, &state, k, &mut preds);
                    preds.iter().sum()
                }
            }
        };
        for step in 0..50 {
            let (a, b): (f32, f32) = (seed_call(), opt_call());
            assert!(
                (a - b).abs() < 1e-4,
                "lstm_online {shape} mismatch at step {step}: {a} vs {b}"
            );
        }
        row(&mut reports, "lstm_online", shape.into(), samples * 50, seed_call, opt_call);
    }
    // A one-row product at the predictors' width must stay on the cheap
    // serial path: this row documents that small matmuls did not regress.
    {
        let (m, n, k) = (1, 512, 128);
        let a = randn(&[m, k], 13);
        let b = randn(&[k, n], 14);
        row(
            &mut reports,
            "predictor_matmul",
            format!("{m}x{n}x{k}"),
            samples * 50,
            || seed::matmul(&a, &b),
            || a.matmul(&b),
        );
    }
    // Fused EMA vs the two-pass seed update (BN running stats).
    {
        let len = 1 << 18;
        let src = randn(&[len], 15);
        let base = randn(&[len], 16);
        row(
            &mut reports,
            "fused_ema",
            format!("{len}"),
            samples,
            || {
                let mut d = base.clone();
                seed::ema(&mut d, &src, 0.1);
                d
            },
            || {
                let mut d = base.clone();
                d.scale_add_inplace(0.9, &src, 0.1);
                d
            },
        );
    }
    reports
}

/// Renders the report list as the `BENCH_kernels.json` document.
pub fn to_json(reports: &[KernelReport], samples: usize) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str(&format!("  \"schema\": \"{SCHEMA}\",\n"));
    s.push_str(&format!("  \"samples\": {samples},\n"));
    s.push_str("  \"kernels\": [\n");
    for (i, r) in reports.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"shape\": \"{}\", \"seed_ms\": {:.4}, \"opt_ms\": {:.4}, \"speedup\": {:.2}, \"speedup_1t\": {:.2}}}{}\n",
            r.name,
            r.shape,
            r.seed_ms,
            r.opt_ms,
            r.speedup(),
            r.speedup_1t,
            if i + 1 < reports.len() { "," } else { "" }
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

/// A row parsed back from a committed baseline: a [`KernelReport`] as
/// [`to_json`] wrote it.
pub type BaselineEntry = KernelReport;

/// Parses (and schema-validates) a `BENCH_kernels.json` document, of the
/// exact shape [`to_json`] emits (see [`crate::baseline`]).
pub fn parse_baseline(json: &str) -> Result<Vec<BaselineEntry>, String> {
    let mut entries = Vec::new();
    for obj in baseline::objects(json, SCHEMA, "kernels")? {
        let name = baseline::string(obj, "name")
            .ok_or_else(|| format!("kernel object missing name: {obj}"))?;
        let shape =
            baseline::string(obj, "shape").ok_or_else(|| format!("kernel {name} missing shape"))?;
        let mut nums = [0.0; 3];
        for (v, key) in nums.iter_mut().zip(["seed_ms", "opt_ms", "speedup_1t"]) {
            *v =
                baseline::number(obj, key).ok_or_else(|| format!("kernel {name} missing {key}"))?;
            if !(v.is_finite() && *v >= 0.0) {
                return Err(format!("kernel {name} has invalid {key} {v}"));
            }
        }
        let [seed_ms, opt_ms, speedup_1t] = nums;
        entries.push(BaselineEntry { name, shape, seed_ms, opt_ms, speedup_1t });
    }
    Ok(entries)
}

/// Compares a fresh measurement against the committed baseline: an error
/// names every kernel that regressed. Kernels present on only one side are
/// ignored (new kernels are allowed; removed ones no longer gate).
///
/// The gated quantity is the *single-thread speedup*
/// ([`KernelReport::speedup_1t`]), not `opt_ms`. The sandbox has
/// minutes-long regimes in which the second core is mostly taken: a kernel
/// that forks then reads ≈ 2× slow (at about its own serial time) while
/// serial code is unmoved, so neither an absolute time nor a ratio of a
/// serial seed to a forked kernel holds still — measured on one smoke run
/// after another, `conv3x3` 31× → 16×, `matmul_nt` 23× → 14× against
/// 8.25× vs 8.50× for the serial rows. Pinned to one thread both sides of
/// the ratio are serial code timed moments apart in one process, which is
/// what a code regression moves and a regime does not. A kernel fails
/// when that ratio is more than `tolerance` below the baseline's — or
/// when its `opt_ms` exceeds [`GATE_BACKSTOP`] × the baseline's, which
/// catches what the ratio is blind to (a slowdown of seed and optimized
/// side alike, a dispatch rule that starts forking where forking loses).
pub fn regression_gate(
    current: &[KernelReport],
    baseline: &[BaselineEntry],
    tolerance: f64,
) -> Result<(), String> {
    let mut failures = Vec::new();
    for b in baseline {
        let Some(c) = current.iter().find(|c| c.name == b.name && c.shape == b.shape) else {
            continue;
        };
        if c.speedup_1t * (1.0 + tolerance) < b.speedup_1t {
            failures.push(format!(
                "{} [{}]: single-thread speedup {:.2}x vs baseline {:.2}x ({:.0}%)",
                b.name,
                b.shape,
                c.speedup_1t,
                b.speedup_1t,
                (c.speedup_1t / b.speedup_1t - 1.0) * 100.0
            ));
        } else if c.opt_ms > b.opt_ms * GATE_BACKSTOP {
            failures.push(format!(
                "{} [{}]: {:.4} ms vs baseline {:.4} ms (> {GATE_BACKSTOP}x)",
                b.name, b.shape, c.opt_ms, b.opt_ms
            ));
        }
    }
    if failures.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "kernel perf regression (single-thread speedup > {:.0}% below baseline, or > {GATE_BACKSTOP}x its time):\n  {}",
            tolerance * 100.0,
            failures.join("\n  ")
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_reports() -> Vec<KernelReport> {
        let report = |name: &str, shape: &str, seed_ms: f64, opt_ms: f64, speedup_1t: f64| {
            KernelReport { name: name.into(), shape: shape.into(), seed_ms, opt_ms, speedup_1t }
        };
        vec![report("matmul", "8x8x8", 2.0, 0.5, 3.0), report("conv3x3", "tiny", 3.0, 2.0, 1.5)]
    }

    #[test]
    fn json_roundtrips_through_parser() {
        let reports = sample_reports();
        let json = to_json(&reports, 5);
        let parsed = parse_baseline(&json).unwrap();
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].name, "matmul");
        assert_eq!(parsed[0].shape, "8x8x8");
        assert_eq!(parsed, reports);
    }

    #[test]
    fn parser_rejects_wrong_schema() {
        let bad = to_json(&sample_reports(), 3).replace(SCHEMA, "kernel_baseline/v1");
        assert!(parse_baseline(&bad).unwrap_err().contains("unsupported baseline schema"));
        assert!(parse_baseline("{}").is_err());
    }

    #[test]
    fn gate_passes_within_tolerance_and_fails_beyond() {
        let baseline = parse_baseline(&to_json(&sample_reports(), 3)).unwrap();
        let mut current = sample_reports();
        current[0].speedup_1t = 2.7; // -10% — within the 20% gate
        assert!(regression_gate(&current, &baseline, GATE_TOLERANCE).is_ok());
        current[0].speedup_1t = 2.3; // -23% — must fail and name the kernel
        let err = regression_gate(&current, &baseline, GATE_TOLERANCE).unwrap_err();
        assert!(err.contains("matmul") && !err.contains("conv3x3"), "{err}");
    }

    #[test]
    fn gate_is_on_the_single_thread_speedup_with_an_absolute_backstop() {
        let baseline = parse_baseline(&to_json(&sample_reports(), 3)).unwrap();
        // A slow regime: the forked kernel's wall time doubles, its seed's
        // does not, the single-thread ratio holds — passes, where a gate
        // on `opt_ms` or on `seed_ms / opt_ms` would not.
        let mut slow = sample_reports();
        slow[0].opt_ms *= 2.0;
        assert!(regression_gate(&slow, &baseline, GATE_TOLERANCE).is_ok());
        // The optimized code itself 30 % slower inside that regime — fails.
        slow[0].speedup_1t /= 1.3;
        let err = regression_gate(&slow, &baseline, GATE_TOLERANCE).unwrap_err();
        assert!(err.contains("matmul") && err.contains("single-thread speedup"), "{err}");
        // 3.5x the committed time with the ratio intact (both sides slowed,
        // or a dispatch rule forking where it loses): only the backstop sees it.
        let mut stalled = sample_reports();
        stalled[1].opt_ms *= 3.5;
        let err = regression_gate(&stalled, &baseline, GATE_TOLERANCE).unwrap_err();
        assert!(err.contains("conv3x3") && err.contains("3x"), "{err}");
    }

    #[test]
    fn gate_ignores_unmatched_kernels() {
        let baseline = parse_baseline(&to_json(&sample_reports(), 3)).unwrap();
        let current = vec![KernelReport {
            name: "brand_new".into(),
            shape: "1x1".into(),
            seed_ms: 1.0,
            opt_ms: 100.0,
            speedup_1t: 0.01,
        }];
        assert!(regression_gate(&current, &baseline, GATE_TOLERANCE).is_ok());
    }

    #[test]
    fn seed_kernels_agree_with_optimized_on_small_shapes() {
        let a = randn(&[9, 17], 100);
        let b = randn(&[17, 13], 101);
        assert!(max_abs_diff(&seed::matmul(&a, &b), &a.matmul(&b)) < 1e-4);
        let spec = Conv2dSpec { in_channels: 2, out_channels: 3, kernel: 3, stride: 2, padding: 1 };
        let x = randn(&[2, 2, 7, 7], 102);
        let w = randn(&[3, 2, 3, 3], 103);
        assert!(max_abs_diff(&seed::conv2d(&x, &w, &spec), &conv2d(&x, &w, &spec)) < 1e-4);
        let dy = randn(&[2, 3, 4, 4], 104);
        assert!(max_abs_diff(&seed::conv2d_dw(&dy, &x, &spec), &conv2d_dw(&dy, &x, &spec)) < 1e-4);
        let (dx_seed, dx) =
            (seed::conv2d_dx(&dy, &w, &spec, 7, 7), conv2d_dx(&dy, &w, &spec, 7, 7));
        assert!(max_abs_diff(&dx_seed, &dx) < 1e-4);
        let big = randn(&[20_000], 105);
        assert_eq!(seed::relu(&big), big.relu());
    }
}
