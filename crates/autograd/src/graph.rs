//! The tape: nodes, backward dispatch, gradient accumulation.

use lcasgd_tensor::Tensor;
use std::ops::Range;

/// Handle to a node on the tape. Cheap to copy; only valid for the graph
/// that created it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Var(pub(crate) usize);

/// Context handed to an op's backward implementation: the incoming output
/// gradient, read access to parent values, and gradient accumulation.
pub struct Ctx<'a> {
    /// Gradient of the final output with respect to this node's value.
    pub grad: &'a Tensor,
    /// Nodes strictly before the current one (parents always precede their
    /// consumers on the tape).
    nodes: &'a [Node],
    grads: &'a mut [Option<Tensor>],
    /// Each [`Graph::param`]'s window of `arena`, and whether it holds a
    /// gradient yet.
    windows: &'a mut [(Range<usize>, bool)],
    arena: &'a mut [f32],
}

impl<'a> Ctx<'a> {
    /// Value of parent node `v` as computed during the forward pass.
    pub fn value(&self, v: Var) -> &'a Tensor {
        &self.nodes[v.0].value
    }

    /// Whether anyone can read a gradient for `v`: false only for
    /// [`Graph::input`] nodes. An op may skip computing a gradient it would
    /// hand to such a node (a convolution's `dX` for the data batch).
    pub fn needs_grad(&self, v: Var) -> bool {
        self.nodes[v.0].needs_grad
    }

    /// Adds `g` to the gradient accumulator of parent node `v` (dropped
    /// when `v` [needs none](Self::needs_grad)). The first contribution a
    /// node receives is stored, not added to zeros, so it keeps its bits —
    /// `−0.0` included — whether the accumulator is the node's own tensor
    /// or a [`Graph::param`] window of the arena.
    pub fn accumulate(&mut self, v: Var, g: Tensor) {
        if !self.needs_grad(v) {
            return;
        }
        debug_assert_eq!(
            self.nodes[v.0].value.shape(),
            g.shape(),
            "gradient shape mismatch for node {}",
            v.0
        );
        if let Some((first, window)) = self.window(v) {
            if first {
                window.copy_from_slice(g.data());
            } else {
                window.iter_mut().zip(g.data()).for_each(|(acc, &x)| *acc += x);
            }
            return;
        }
        match &mut self.grads[v.0] {
            Some(acc) => acc.add_assign(&g),
            slot @ None => *slot = Some(g),
        }
    }

    /// [`accumulate`](Self::accumulate) for a contribution the caller
    /// builds by accumulating into zeros (a GEMM's `C += A·B`): `fill`
    /// receives a zeroed buffer of `v`'s size and leaves the contribution
    /// in it. When that is the first one to reach a [`Graph::param`] the
    /// buffer is the parameter's arena window itself and nothing is
    /// allocated or copied; in every other case it is a fresh tensor handed
    /// to `accumulate`. Either way the accumulator ends up with the bits
    /// `accumulate(v, contribution)` gives.
    pub fn accumulate_with(&mut self, v: Var, fill: impl FnOnce(&mut [f32])) {
        if !self.needs_grad(v) {
            return;
        }
        if let Some((true, window)) = self.window(v) {
            window.fill(0.0);
            fill(window);
            return;
        }
        let mut g = Tensor::zeros_like(&self.nodes[v.0].value);
        fill(g.data_mut());
        self.accumulate(v, g);
    }

    /// The arena window of parameter leaf `v` and whether this is the first
    /// contribution to reach it (which this call then counts as arrived);
    /// `None` for every other node.
    fn window(&mut self, v: Var) -> Option<(bool, &mut [f32])> {
        let (window, reached) = &mut self.windows[self.nodes[v.0].param?];
        let first = !std::mem::replace(reached, true);
        Some((first, &mut self.arena[window.clone()]))
    }
}

/// A differentiable operation's reverse pass. Implementations own their
/// parent handles and any saved forward context (e.g. im2col buffers,
/// max-pool indices, batch-norm statistics).
pub trait BackwardOp: Send {
    /// Propagates `ctx.grad` to this op's parents via `ctx.accumulate`.
    fn backward(&self, ctx: &mut Ctx<'_>);
}

struct Node {
    value: Tensor,
    /// `None` for leaves (parameters, constants): backward stops here.
    backward: Option<Box<dyn BackwardOp>>,
    /// False for [`Graph::input`] nodes only.
    needs_grad: bool,
    /// For [`Graph::param`] leaves: the parameter's ordinal.
    param: Option<usize>,
}

/// A single forward pass's computation tape.
///
/// Nodes are appended in execution order, so reverse iteration is a valid
/// reverse-topological order — no explicit sort is needed.
///
/// Parameters registered with [`param`](Self::param) do not get a gradient
/// tensor each: `backward` writes their gradients side by side, in
/// registration order, into one flat *arena* — the vector a trainer pushes
/// to the parameter server — which [`take_grad_arena`] hands over without
/// a gather. Give the graph a spent one with [`set_grad_arena`] and a
/// backward pass allocates nothing model-sized.
///
/// [`take_grad_arena`]: Self::take_grad_arena
/// [`set_grad_arena`]: Self::set_grad_arena
#[derive(Default)]
pub struct Graph {
    nodes: Vec<Node>,
    grads: Vec<Option<Tensor>>,
    /// Per [`param`](Self::param), in registration order: its window of
    /// the arena (they tile it), and whether the last `backward` reached it.
    windows: Vec<(Range<usize>, bool)>,
    arena: Vec<f32>,
}

impl Graph {
    /// An empty tape.
    pub fn new() -> Self {
        Graph::default()
    }

    /// Pre-sizes the tape (a ResNet forward pass appends hundreds of nodes).
    pub fn with_capacity(n: usize) -> Self {
        Graph { nodes: Vec::with_capacity(n), grads: Vec::with_capacity(n), ..Graph::default() }
    }

    /// Number of nodes on the tape.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the tape is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Adds a leaf node (parameter or constant input). Gradients accumulate
    /// here but do not propagate further.
    pub fn leaf(&mut self, value: Tensor) -> Var {
        self.push(value, None)
    }

    /// Adds a leaf nobody differentiates with respect to — a data batch.
    /// Its gradient stays `None`, and ops may skip the work of producing
    /// it (see [`Ctx::needs_grad`]). Use [`leaf`](Self::leaf) for anything
    /// whose gradient is read, gradient checks included.
    pub fn input(&mut self, value: Tensor) -> Var {
        let v = self.push(value, None);
        self.nodes[v.0].needs_grad = false;
        v
    }

    /// Adds a model parameter: a leaf whose gradient lives in the next
    /// `value.numel()` scalars of the gradient arena instead of in a tensor
    /// of its own ([`grad`](Self::grad) stays `None` for it). Register
    /// parameters in the order their flat serialization lists them.
    pub fn param(&mut self, value: Tensor) -> Var {
        let start = self.param_len();
        let v = self.push(value, None);
        let node = &mut self.nodes[v.0];
        node.param = Some(self.windows.len());
        self.windows.push((start..start + node.value.numel(), false));
        v
    }

    /// Gives the next `backward` a buffer to use as its gradient arena —
    /// typically the one an earlier [`take_grad_arena`] handed out, back
    /// from wherever the gradient went. Its contents are irrelevant.
    ///
    /// [`take_grad_arena`]: Self::take_grad_arena
    pub fn set_grad_arena(&mut self, buf: Vec<f32>) {
        self.arena = buf;
    }

    /// Hands over the gradients of all [`param`](Self::param)s after a
    /// `backward`: one vector, parameter after parameter in registration
    /// order, zeros where the pass reached none.
    pub fn take_grad_arena(&mut self) -> Vec<f32> {
        let mut arena = std::mem::take(&mut self.arena);
        arena.resize(self.param_len(), 0.0);
        for (window, _) in self.windows.iter().filter(|(_, reached)| !reached) {
            arena[window.clone()].fill(0.0);
        }
        arena
    }

    /// Scalars over all registered parameters: the arena's length.
    fn param_len(&self) -> usize {
        self.windows.last().map_or(0, |(window, _)| window.end)
    }

    pub(crate) fn push(&mut self, value: Tensor, backward: Option<Box<dyn BackwardOp>>) -> Var {
        self.nodes.push(Node { value, backward, needs_grad: true, param: None });
        self.grads.push(None);
        Var(self.nodes.len() - 1)
    }

    /// The forward value of `v`.
    pub fn value(&self, v: Var) -> &Tensor {
        &self.nodes[v.0].value
    }

    /// The accumulated gradient of the last `backward` call w.r.t. `v`,
    /// if any path reached it.
    pub fn grad(&self, v: Var) -> Option<&Tensor> {
        self.grads[v.0].as_ref()
    }

    /// Takes ownership of the gradient for `v` (leaves `None` behind).
    pub fn take_grad(&mut self, v: Var) -> Option<Tensor> {
        self.grads[v.0].take()
    }

    /// Runs the reverse pass from scalar node `out` with seed 1.
    pub fn backward(&mut self, out: Var) {
        self.backward_with_seed(out, 1.0);
    }

    /// Runs the reverse pass from scalar node `out`, seeding `∂out/∂out`
    /// with `seed` instead of 1. LC-ASGD's Literal compensation mode uses
    /// `seed = (ℓ_m + λ·ℓ_delay)/ℓ_m`; everything else uses [`backward`].
    ///
    /// [`backward`]: Self::backward
    pub fn backward_with_seed(&mut self, out: Var, seed: f32) {
        assert_eq!(
            self.nodes[out.0].value.numel(),
            1,
            "backward from non-scalar node of shape {:?}",
            self.nodes[out.0].value.shape()
        );
        for g in &mut self.grads {
            *g = None;
        }
        self.grads[out.0] = Some(Tensor::full(self.nodes[out.0].value.dims(), seed));
        self.windows.iter_mut().for_each(|(_, reached)| *reached = false);
        // In steady state the arena already has this length and nothing
        // happens; its stale contents are overwritten window by window.
        self.arena.resize(self.param_len(), 0.0);

        for i in (0..=out.0).rev() {
            // Take this node's accumulated gradient; skip unreached nodes.
            let Some(grad) = self.grads[i].take() else { continue };
            let (earlier, rest) = self.nodes.split_at(i);
            if let Some(op) = &rest[0].backward {
                let mut ctx = Ctx {
                    grad: &grad,
                    nodes: earlier,
                    grads: &mut self.grads[..i],
                    windows: &mut self.windows,
                    arena: &mut self.arena,
                };
                op.backward(&mut ctx);
            }
            // Restore so callers can also read gradients of interior nodes.
            self.grads[i] = Some(grad);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leaf_roundtrip() {
        let mut g = Graph::new();
        let t = Tensor::from_vec(vec![1.0, 2.0], &[2]);
        let v = g.leaf(t.clone());
        assert_eq!(g.value(v), &t);
        assert!(g.grad(v).is_none());
    }

    /// An `input` node gets no gradient, costs its consumers no `dX`
    /// product, and leaves every parameter gradient bitwise what a `leaf`
    /// gives.
    #[test]
    fn input_nodes_take_no_gradient_and_change_no_other() {
        use lcasgd_tensor::ops::conv::Conv2dSpec;
        use lcasgd_tensor::Rng;
        let mut rng = Rng::seed_from_u64(7);
        let spec = Conv2dSpec { in_channels: 2, out_channels: 3, kernel: 3, stride: 1, padding: 1 };
        let img = Tensor::randn(&[2, 2, 5, 5], 1.0, &mut rng);
        let kern = Tensor::randn(&[3, 2, 3, 3], 0.5, &mut rng);
        let w = Tensor::randn(&[4, 3], 0.5, &mut rng);
        let b = Tensor::randn(&[4], 0.5, &mut rng);
        let run = |as_input: bool| {
            let mut g = Graph::new();
            let x = if as_input { g.input(img.clone()) } else { g.leaf(img.clone()) };
            let (kv, wv, bv) = (g.leaf(kern.clone()), g.leaf(w.clone()), g.leaf(b.clone()));
            let conv = g.conv2d(x, kv, spec);
            let pooled = g.global_avg_pool(conv);
            let out = g.linear(pooled, wv, bv);
            let loss = g.mean(out);
            g.backward(loss);
            let params = [kv, wv, bv].map(|v| g.grad(v).expect("parameter gradient").clone());
            (g.grad(x).cloned(), params)
        };
        let (dx_leaf, params_leaf) = run(false);
        let (dx_input, params_input) = run(true);
        assert!(dx_leaf.is_some());
        assert!(dx_input.is_none());
        assert_eq!(params_leaf, params_input);

        // Directly under a linear layer, too (the MLPs' first layer).
        let mut g = Graph::new();
        let x = g.input(Tensor::randn(&[3, 3], 1.0, &mut rng));
        let (wv, bv) = (g.leaf(w), g.leaf(b));
        let out = g.linear(x, wv, bv);
        let loss = g.mean(out);
        g.backward(loss);
        assert!(g.grad(x).is_none() && g.grad(wv).is_some() && g.grad(bv).is_some());
    }

    #[test]
    fn backward_on_scalar_leaf_seeds_itself() {
        let mut g = Graph::new();
        let v = g.leaf(Tensor::scalar(3.0));
        g.backward(v);
        assert_eq!(g.grad(v).unwrap().item(), 1.0);
        g.backward_with_seed(v, 2.5);
        assert_eq!(g.grad(v).unwrap().item(), 2.5);
    }

    #[test]
    #[should_panic(expected = "non-scalar")]
    fn backward_from_vector_panics() {
        let mut g = Graph::new();
        let v = g.leaf(Tensor::zeros(&[3]));
        g.backward(v);
    }

    #[test]
    fn grads_reset_between_backward_calls() {
        let mut g = Graph::new();
        let x = g.leaf(Tensor::from_vec(vec![2.0], &[1]));
        let y = g.mul(x, x); // x^2, dy/dx = 2x = 4
        let s = g.sum(y);
        g.backward(s);
        let first = g.grad(x).unwrap().clone();
        g.backward(s);
        assert_eq!(g.grad(x).unwrap(), &first, "second backward must not double-accumulate");
    }
}

#[cfg(test)]
mod arena_tests {
    use super::*;
    use lcasgd_tensor::Rng;

    /// A small model with every case the arena has to get right: `w` is
    /// reached twice (two linear layers share it), `unused` not at all,
    /// `neg` receives a gradient of `−0.0`s (a zero upstream gradient
    /// through a product with −1), and the pass runs under a seed other than 1.
    /// Parameters are `param`s or plain `leaf`s; returns the flat gradient
    /// in registration order, gathered per leaf in the second case.
    fn flat_grads(as_params: bool, arena: Option<Vec<f32>>) -> Vec<f32> {
        let mut rng = Rng::seed_from_u64(77);
        let tensors = [
            Tensor::randn(&[6, 6], 0.5, &mut rng), // w
            Tensor::randn(&[6], 0.5, &mut rng),    // b
            Tensor::randn(&[3, 3], 0.5, &mut rng), // unused
            Tensor::full(&[6], 2.0),               // neg
        ];
        let mut g = Graph::new();
        let x = g.input(Tensor::randn(&[4, 6], 1.0, &mut rng));
        let vars = tensors.clone().map(|t| if as_params { g.param(t) } else { g.leaf(t) });
        let [w, b, _unused, neg] = vars;
        let h = g.linear(x, w, b);
        let h = g.relu(h);
        let h = g.linear(h, w, b);
        // relu(−neg) is all zeros with a zero gradient, which the product
        // with −1 hands on to `neg` as −0.0.
        let minus_one = g.input(Tensor::full(&[6], -1.0));
        let flipped = g.mul(neg, minus_one);
        let dead = g.relu(flipped);
        let h = g.add_rows(h, dead);
        let loss = g.mean(h);
        if let Some(arena) = arena {
            g.set_grad_arena(arena);
        }
        g.backward_with_seed(loss, 1.75);
        if as_params {
            assert!(
                vars.iter().all(|&v| g.grad(v).is_none()),
                "params have no tensor of their own"
            );
            return g.take_grad_arena();
        }
        let mut flat = Vec::new();
        for (v, t) in vars.into_iter().zip(&tensors) {
            match g.take_grad(v) {
                Some(grad) => flat.extend_from_slice(grad.data()),
                None => flat.extend(std::iter::repeat_n(0.0, t.numel())),
            }
        }
        flat
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn the_arena_holds_bit_for_bit_what_per_leaf_gradients_gather_to() {
        let gathered = flat_grads(false, None);
        let arena = flat_grads(true, None);
        assert_eq!(bits(&arena), bits(&gathered));
        // The cases are really there: a live doubly-reached window, zeros
        // for the unreached one, −0.0 kept as −0.0.
        assert!(arena[..36].iter().all(|&v| v != 0.0));
        assert_eq!(bits(&arena[42..51]), vec![0; 9]);
        assert_eq!(bits(&arena[51..]), vec![(-0.0f32).to_bits(); 6]);
    }

    #[test]
    fn a_spent_arena_of_any_content_and_length_gives_the_same_gradient() {
        let fresh = flat_grads(true, None);
        for spent in [vec![f32::NAN; fresh.len()], vec![7.0; 5], vec![-1.0; 4 * fresh.len()]] {
            assert_eq!(bits(&flat_grads(true, Some(spent))), bits(&fresh));
        }
    }

    #[test]
    fn a_second_backward_starts_the_windows_over() {
        let mut g = Graph::new();
        let x = g.param(Tensor::from_vec(vec![2.0, -3.0], &[2]));
        let y = g.mul(x, x);
        let s = g.sum(y);
        g.backward(s);
        let first = g.take_grad_arena();
        assert_eq!(first, vec![4.0, -6.0]);
        g.set_grad_arena(first);
        g.backward(s);
        assert_eq!(g.take_grad_arena(), vec![4.0, -6.0], "no double accumulation");
    }
}

#[cfg(test)]
mod diamond_tests {
    use super::*;

    /// Diamond-shaped graph: x feeds two branches that rejoin. The
    /// gradient must accumulate contributions from both paths.
    #[test]
    fn diamond_graph_accumulates_both_paths() {
        let mut g = Graph::new();
        let x = g.leaf(Tensor::from_vec(vec![2.0], &[1]));
        let a = g.add(x, x); // 2x
        let b = g.mul(x, x); // x²
        let y = g.add(a, b); // 2x + x²  → dy/dx = 2 + 2x = 6
        let s = g.sum(y);
        g.backward(s);
        assert!((g.grad(x).unwrap().data()[0] - 6.0).abs() < 1e-6);
    }

    /// Nodes on dead branches (not reachable from the loss) receive no
    /// gradient and do not disturb the live path.
    #[test]
    fn dead_branches_get_no_gradient() {
        let mut g = Graph::new();
        let x = g.leaf(Tensor::from_vec(vec![1.0], &[1]));
        let dead = g.relu(x);
        let live = g.add(x, x); // 2x
        let s = g.sum(live);
        g.backward(s);
        assert!(g.grad(dead).is_none());
        assert_eq!(g.grad(x).unwrap().data(), &[2.0]);
    }

    /// Interior node gradients are readable after backward (needed by
    /// diagnostic tooling).
    #[test]
    fn interior_gradients_are_retained() {
        let mut g = Graph::new();
        let x = g.leaf(Tensor::from_vec(vec![1.0, 2.0], &[2]));
        let y = g.add(x, x);
        let s = g.sum(y);
        g.backward(s);
        assert_eq!(g.grad(y).unwrap().data(), &[1.0, 1.0]);
        assert_eq!(g.grad(s).unwrap().data(), &[1.0]);
    }
}
