//! The reverse-mode backward pass.

use std::collections::{HashMap, HashSet};
use std::rc::Rc;

use crate::kernels;
use crate::ops::{Broadcast, Op};
use crate::tensor::Tensor;

impl Tensor {
    /// Backpropagates from this scalar, accumulating gradients into every
    /// reachable tensor with `requires_grad`.
    ///
    /// Gradients *accumulate*: call [`zero_grad`](Tensor::zero_grad) on the
    /// parameters (or rebuild them) between independent backward passes.
    ///
    /// # Panics
    ///
    /// Panics when the tensor is not `(1, 1)` or does not require
    /// gradients (no parameter is reachable).
    ///
    /// # Examples
    ///
    /// ```
    /// use nptsn_tensor::Tensor;
    ///
    /// let w = Tensor::param(1, 1, vec![3.0]);
    /// let loss = w.square().scale(0.5); // d/dw 0.5 w^2 = w
    /// loss.backward();
    /// assert_eq!(w.grad(), vec![3.0]);
    /// ```
    pub fn backward(&self) {
        assert_eq!(self.shape(), (1, 1), "backward starts from a scalar loss");
        assert!(
            self.requires_grad(),
            "backward requires a graph with at least one parameter"
        );
        let mut order = Vec::new();
        let mut visited = HashSet::new();
        topo_visit(self, &mut visited, &mut order);
        self.accumulate_grad(&[1.0]);
        let mut transposes = Transposes::default();
        for t in order.iter().rev() {
            // Borrowed, not cloned: `propagate` only writes the gradients
            // of `t`'s inputs, never of `t` itself.
            let grad = t.node.grad.borrow();
            if grad.is_empty() {
                continue;
            }
            propagate(t, &grad, &mut transposes);
        }
    }
}

/// Transposes of matmul right-hand operands, built once per
/// [`Tensor::backward`] call. A weight shared by every sample of a batch
/// feeds one `MatMul` node per sample; its `Bᵀ` is the same for all of
/// them, because no tensor's data changes while a backward pass runs.
/// The memo dies with the call, so an optimizer step or `set_data`
/// between two passes is never served a stale transpose.
#[derive(Default)]
struct Transposes(HashMap<usize, Vec<f32>>);

impl Transposes {
    /// `bᵀ` for a `(k, n)` tensor `b`.
    fn of(&mut self, b: &Tensor) -> &[f32] {
        let (k, n) = b.shape();
        self.0
            .entry(Rc::as_ptr(&b.node) as usize)
            .or_insert_with(|| kernels::transpose(&b.data(), k, n))
    }
}

fn topo_visit(t: &Tensor, visited: &mut HashSet<usize>, order: &mut Vec<Tensor>) {
    if !t.requires_grad() {
        return;
    }
    let key = Rc::as_ptr(&t.node) as usize;
    if !visited.insert(key) {
        return;
    }
    for child in t.node.op.children() {
        topo_visit(child, visited, order);
    }
    order.push(t.clone());
}

/// Sums `grad` (shaped like `lhs`) down to the broadcast shape of the rhs.
fn reduce_broadcast(grad: &[f32], lhs_cols: usize, broadcast: Broadcast) -> Vec<f32> {
    match broadcast {
        Broadcast::None => grad.to_vec(),
        Broadcast::Scalar => vec![grad.iter().sum()],
        Broadcast::Row => {
            let mut out = vec![0.0f32; lhs_cols];
            for (i, &g) in grad.iter().enumerate() {
                out[i % lhs_cols] += g;
            }
            out
        }
    }
}

/// Expands a broadcast rhs value to index `i` of the lhs layout.
fn rhs_at(rhs: &[f32], i: usize, lhs_cols: usize, broadcast: Broadcast) -> f32 {
    match broadcast {
        Broadcast::None => rhs[i],
        Broadcast::Scalar => rhs[0],
        Broadcast::Row => rhs[i % lhs_cols],
    }
}

fn propagate(t: &Tensor, grad: &[f32], transposes: &mut Transposes) {
    match &t.node.op {
        Op::Leaf => {}
        Op::Add(a, b, bc) => {
            if a.requires_grad() {
                a.accumulate_grad(grad);
            }
            if b.requires_grad() {
                b.accumulate_grad(&reduce_broadcast(grad, a.cols(), *bc));
            }
        }
        Op::Sub(a, b, bc) => {
            if a.requires_grad() {
                a.accumulate_grad(grad);
            }
            if b.requires_grad() {
                let mut r = reduce_broadcast(grad, a.cols(), *bc);
                for g in &mut r {
                    *g = -*g;
                }
                b.accumulate_grad(&r);
            }
        }
        Op::Mul(a, b, bc) => {
            if a.requires_grad() {
                let bd = b.data();
                let da: Vec<f32> = grad
                    .iter()
                    .enumerate()
                    .map(|(i, &g)| g * rhs_at(&bd, i, a.cols(), *bc))
                    .collect();
                drop(bd);
                a.accumulate_grad(&da);
            }
            if b.requires_grad() {
                let ad = a.data();
                let scaled: Vec<f32> =
                    grad.iter().zip(ad.iter()).map(|(&g, &x)| g * x).collect();
                drop(ad);
                b.accumulate_grad(&reduce_broadcast(&scaled, a.cols(), *bc));
            }
        }
        Op::MatMul(a, b) => {
            let (m, k) = a.shape();
            let n = b.cols();
            if a.requires_grad() {
                // da = g (m, n) @ bᵀ (n, k)
                let mut da = vec![0.0f32; m * k];
                kernels::matmul(grad, transposes.of(b), &mut da, m, n, k);
                a.accumulate_grad(&da);
            }
            if b.requires_grad() {
                // db = aᵀ @ g -> (k, n)
                let mut db = vec![0.0f32; k * n];
                kernels::matmul_at(&a.data(), grad, &mut db, m, k, n);
                b.accumulate_grad(&db);
            }
        }
        Op::Scale(a, f) => {
            if a.requires_grad() {
                let da: Vec<f32> = grad.iter().map(|&g| g * f).collect();
                a.accumulate_grad(&da);
            }
        }
        Op::AddScalar(a) => {
            if a.requires_grad() {
                a.accumulate_grad(grad);
            }
        }
        Op::Neg(a) => {
            if a.requires_grad() {
                let da: Vec<f32> = grad.iter().map(|&g| -g).collect();
                a.accumulate_grad(&da);
            }
        }
        Op::Relu(a) => {
            if a.requires_grad() {
                let ad = a.data();
                let da: Vec<f32> = grad
                    .iter()
                    .zip(ad.iter())
                    .map(|(&g, &x)| if x > 0.0 { g } else { 0.0 })
                    .collect();
                drop(ad);
                a.accumulate_grad(&da);
            }
        }
        Op::Tanh(a) => {
            if a.requires_grad() {
                let y = t.node.data.borrow();
                let da: Vec<f32> =
                    grad.iter().zip(y.iter()).map(|(&g, &y)| g * (1.0 - y * y)).collect();
                drop(y);
                a.accumulate_grad(&da);
            }
        }
        Op::Sigmoid(a) => {
            if a.requires_grad() {
                let y = t.node.data.borrow();
                let da: Vec<f32> =
                    grad.iter().zip(y.iter()).map(|(&g, &y)| g * y * (1.0 - y)).collect();
                drop(y);
                a.accumulate_grad(&da);
            }
        }
        Op::Exp(a) => {
            if a.requires_grad() {
                let y = t.node.data.borrow();
                let da: Vec<f32> = grad.iter().zip(y.iter()).map(|(&g, &y)| g * y).collect();
                drop(y);
                a.accumulate_grad(&da);
            }
        }
        Op::Sum(a) => {
            if a.requires_grad() {
                a.accumulate_grad(&vec![grad[0]; a.len()]);
            }
        }
        Op::Mean(a) => {
            if a.requires_grad() {
                a.accumulate_grad(&vec![grad[0] / a.len() as f32; a.len()]);
            }
        }
        Op::MeanRows(a) => {
            if a.requires_grad() {
                let (m, n) = a.shape();
                let mut da = vec![0.0f32; m * n];
                for i in 0..m {
                    for (j, &g) in grad.iter().enumerate() {
                        da[i * n + j] = g / m as f32;
                    }
                }
                a.accumulate_grad(&da);
            }
        }
        Op::LogSoftmaxRows(a) => {
            if a.requires_grad() {
                let (m, n) = a.shape();
                let y = t.node.data.borrow();
                let mut da = vec![0.0f32; m * n];
                for i in 0..m {
                    let gsum: f32 = grad[i * n..(i + 1) * n].iter().sum();
                    for j in 0..n {
                        let softmax = y[i * n + j].exp();
                        da[i * n + j] = grad[i * n + j] - softmax * gsum;
                    }
                }
                drop(y);
                a.accumulate_grad(&da);
            }
        }
        Op::GatherCols(a, indices) => {
            if a.requires_grad() {
                let (m, n) = a.shape();
                let mut da = vec![0.0f32; m * n];
                for (i, &j) in indices.iter().enumerate() {
                    da[i * n + j] = grad[i];
                }
                a.accumulate_grad(&da);
            }
        }
        Op::ConcatCols(parts) => {
            let m = t.node.rows;
            let total = t.node.cols;
            let mut offset = 0;
            for p in parts {
                let c = p.cols();
                if p.requires_grad() {
                    let mut dp = Vec::with_capacity(m * c);
                    for i in 0..m {
                        dp.extend_from_slice(&grad[i * total + offset..i * total + offset + c]);
                    }
                    p.accumulate_grad(&dp);
                }
                offset += c;
            }
        }
        Op::Clamp(a, lo, hi) => {
            if a.requires_grad() {
                let ad = a.data();
                let da: Vec<f32> = grad
                    .iter()
                    .zip(ad.iter())
                    .map(|(&g, &x)| if x >= *lo && x <= *hi { g } else { 0.0 })
                    .collect();
                drop(ad);
                a.accumulate_grad(&da);
            }
        }
        Op::Minimum(a, b) => {
            let ad = a.data();
            let bd = b.data();
            if a.requires_grad() {
                let da: Vec<f32> = grad
                    .iter()
                    .zip(ad.iter().zip(bd.iter()))
                    .map(|(&g, (&x, &y))| if x <= y { g } else { 0.0 })
                    .collect();
                a.accumulate_grad(&da);
            }
            if b.requires_grad() {
                let db: Vec<f32> = grad
                    .iter()
                    .zip(ad.iter().zip(bd.iter()))
                    .map(|(&g, (&x, &y))| if y < x { g } else { 0.0 })
                    .collect();
                b.accumulate_grad(&db);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashSet;

    use nptsn_rand::rngs::StdRng;
    use nptsn_rand::{Rng, SeedableRng};

    use super::{propagate, topo_visit, Transposes};
    use crate::numeric_gradient;
    use crate::ops::Op;
    use crate::tensor::Tensor;

    /// The scalar reverse pass of `MatMul` the kernels replaced: `da` as a
    /// dot product per element, `db` as a `p`/`i`/`j` loop skipping zero
    /// entries of `a`. The bitwise reference for the kernel-backed pass.
    fn reference_matmul_grads(a: &Tensor, b: &Tensor, grad: &[f32]) {
        let (m, k) = a.shape();
        let n = b.cols();
        if a.requires_grad() {
            let bd = b.data();
            let mut da = vec![0.0f32; m * k];
            for i in 0..m {
                for p in 0..k {
                    let mut acc = 0.0;
                    for j in 0..n {
                        acc += grad[i * n + j] * bd[p * n + j];
                    }
                    da[i * k + p] = acc;
                }
            }
            drop(bd);
            a.accumulate_grad(&da);
        }
        if b.requires_grad() {
            let ad = a.data();
            let mut db = vec![0.0f32; k * n];
            for p in 0..k {
                for i in 0..m {
                    let av = ad[i * k + p];
                    if av == 0.0 {
                        continue;
                    }
                    for j in 0..n {
                        db[p * n + j] += av * grad[i * n + j];
                    }
                }
            }
            drop(ad);
            b.accumulate_grad(&db);
        }
    }

    /// [`Tensor::backward`] with the reference `MatMul` gradients above and
    /// the cloned (not borrowed) node gradient of the scalar pass.
    fn reference_backward(loss: &Tensor) {
        let mut order = Vec::new();
        topo_visit(loss, &mut HashSet::new(), &mut order);
        loss.accumulate_grad(&[1.0]);
        let mut transposes = Transposes::default();
        for t in order.iter().rev() {
            let grad = t.node.grad.borrow().clone();
            if grad.is_empty() {
                continue;
            }
            match &t.node.op {
                Op::MatMul(a, b) => reference_matmul_grads(a, b, &grad),
                _ => propagate(t, &grad, &mut transposes),
            }
        }
    }

    fn bits(params: &[Tensor]) -> Vec<Vec<u32>> {
        params
            .iter()
            .map(|p| p.grad().iter().map(|g| g.to_bits()).collect())
            .collect()
    }

    /// Runs `passes` twice — once through [`reference_backward`], once
    /// through [`Tensor::backward`] — on fresh copies of `params`, and
    /// asserts every accumulated gradient is bitwise equal. `passes`
    /// receives the parameters and the backward to call on each loss.
    fn assert_matches_reference(
        what: &str,
        params: &[Tensor],
        passes: impl Fn(&[Tensor], &dyn Fn(&Tensor)),
    ) {
        let fresh = || -> Vec<Tensor> {
            params.iter().map(|p| Tensor::param(p.rows(), p.cols(), p.to_vec())).collect()
        };
        let reference = fresh();
        passes(&reference, &reference_backward);
        let kernel = fresh();
        passes(&kernel, &|loss: &Tensor| loss.backward());
        assert_eq!(bits(&kernel), bits(&reference), "{what}");
    }

    fn random_matrix(rng: &mut StdRng, len: usize, sparsity: f32) -> Vec<f32> {
        (0..len)
            .map(|_| {
                if rng.gen_range(0.0f32..1.0) < sparsity {
                    0.0
                } else {
                    rng.gen_range(-2.0f32..2.0)
                }
            })
            .collect()
    }

    #[test]
    fn matmul_backward_matches_scalar_reference_on_random_shapes() {
        let mut rng = StdRng::seed_from_u64(0xbac4_3a2d);
        for case in 0..60 {
            // Single-row lhs (the MLP's per-sample shape) every third case,
            // inner widths straddling the KC=64 panel boundary, and zero
            // densities up to all-zero operands.
            let m = if case % 3 == 0 { 1 } else { rng.gen_range(1usize..24) };
            let k = rng.gen_range(1usize..200);
            let n = rng.gen_range(1usize..24);
            let sparsity = [0.0f32, 0.5, 0.9, 1.0][case % 4];
            let a = Tensor::param(m, k, random_matrix(&mut rng, m * k, sparsity));
            let b = Tensor::param(k, n, random_matrix(&mut rng, k * n, sparsity));
            // The upstream gradient `g` reaches the matmul as exactly these
            // values through `mul(g).sum()`.
            let g = Tensor::from_vec(m, n, random_matrix(&mut rng, m * n, sparsity / 2.0));
            assert_matches_reference(
                &format!("case {case}: ({m},{k})x({k},{n}), sparsity {sparsity}"),
                &[a, b],
                |p, backward| backward(&p[0].matmul(&p[1]).mul(&g).sum()),
            );
        }
    }

    #[test]
    fn shared_weight_across_matmuls_matches_scalar_reference() {
        // One weight feeds a matmul per sample (the PPO batch shape), then
        // a second layer, and once more as the lhs of a product with
        // itself: the memoised transpose serves every node that reads it.
        let mut rng = StdRng::seed_from_u64(7);
        let (k, n, samples) = (70, 12, 9);
        let w = Tensor::param(k, n, random_matrix(&mut rng, k * n, 0.3));
        let w2 = Tensor::param(n, k, random_matrix(&mut rng, n * k, 0.3));
        let xs: Vec<Tensor> = (0..samples)
            .map(|_| Tensor::from_vec(1, k, random_matrix(&mut rng, k, 0.4)))
            .collect();
        assert_matches_reference("shared weight", &[w, w2], |p, backward| {
            let parts: Vec<Tensor> =
                xs.iter().map(|x| x.matmul(&p[0]).tanh().matmul(&p[1])).collect();
            let square = p[0].matmul(&p[1]).matmul(&p[0]).mean();
            backward(&Tensor::concat_cols(&parts).square().mean().add(&square));
        });
    }

    #[test]
    fn backward_twice_with_set_data_between_matches_scalar_reference() {
        // A transpose memoised in the first pass must not survive into the
        // second, which runs on overwritten weights.
        let mut rng = StdRng::seed_from_u64(11);
        let (k, n) = (66, 5);
        let w = Tensor::param(k, n, random_matrix(&mut rng, k * n, 0.2));
        let x = Tensor::param(3, k, random_matrix(&mut rng, 3 * k, 0.2));
        let replacement = random_matrix(&mut rng, k * n, 0.2);
        assert_matches_reference("set_data between passes", &[w, x], |p, backward| {
            backward(&p[1].matmul(&p[0]).square().mean());
            p[0].set_data(&replacement);
            backward(&p[1].matmul(&p[0]).square().mean());
        });
    }

    /// Checks the analytic gradient of `build` (a scalar function of a
    /// single parameter tensor) against central differences.
    fn gradcheck(rows: usize, cols: usize, x0: Vec<f32>, build: impl Fn(&Tensor) -> Tensor) {
        let p = Tensor::param(rows, cols, x0.clone());
        let loss = build(&p);
        loss.backward();
        let analytic = p.grad();
        let numeric = numeric_gradient(&x0, 1e-2, |x| {
            let q = Tensor::param(rows, cols, x.to_vec());
            build(&q).item()
        });
        for (i, (a, n)) in analytic.iter().zip(numeric.iter()).enumerate() {
            let tol = 1e-2 * (1.0 + n.abs());
            assert!(
                (a - n).abs() < tol,
                "grad mismatch at {i}: analytic {a}, numeric {n}"
            );
        }
    }

    #[test]
    fn gradcheck_add_mul_chain() {
        gradcheck(2, 2, vec![0.5, -1.0, 2.0, 0.1], |p| {
            let c = Tensor::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
            p.add(&c).mul(p).mean()
        });
    }

    #[test]
    fn gradcheck_broadcast_row() {
        gradcheck(1, 3, vec![0.3, -0.2, 0.9], |p| {
            let x = Tensor::from_vec(4, 3, (0..12).map(|i| i as f32 * 0.1).collect());
            x.add(p).square().mean()
        });
    }

    #[test]
    fn gradcheck_broadcast_scalar() {
        gradcheck(1, 1, vec![0.7], |p| {
            let x = Tensor::from_vec(2, 2, vec![1.0, -2.0, 3.0, -4.0]);
            x.mul(p).sum()
        });
    }

    #[test]
    fn gradcheck_matmul_lhs_and_rhs() {
        gradcheck(2, 3, vec![0.1, 0.2, -0.3, 0.4, 0.5, -0.6], |p| {
            let b = Tensor::from_vec(3, 2, vec![1.0, -1.0, 0.5, 2.0, -0.5, 1.5]);
            p.matmul(&b).square().mean()
        });
        gradcheck(3, 2, vec![0.1, 0.2, -0.3, 0.4, 0.5, -0.6], |p| {
            let a = Tensor::from_vec(2, 3, vec![1.0, -1.0, 0.5, 2.0, -0.5, 1.5]);
            a.matmul(p).square().mean()
        });
    }

    #[test]
    fn gradcheck_activations() {
        // Relu is kinked at 0; keep probes away from it.
        gradcheck(1, 4, vec![0.5, -0.7, 1.2, -0.1], |p| p.relu().sum());
        gradcheck(1, 4, vec![0.5, -0.7, 1.2, -0.1], |p| p.tanh().sum());
        gradcheck(1, 4, vec![0.5, -0.7, 1.2, -0.1], |p| p.sigmoid().sum());
        gradcheck(1, 4, vec![0.5, -0.7, 1.2, -0.1], |p| p.exp().mean());
    }

    #[test]
    fn gradcheck_log_softmax_gather() {
        gradcheck(2, 3, vec![0.1, 0.9, -0.4, 1.2, 0.0, -0.8], |p| {
            p.log_softmax_rows().gather_cols(&[1, 2]).mean()
        });
    }

    #[test]
    fn gradcheck_mean_rows_concat() {
        gradcheck(3, 2, vec![0.1, 0.2, 0.3, 0.4, 0.5, 0.6], |p| {
            let extra = Tensor::from_vec(3, 1, vec![1.0, 2.0, 3.0]);
            Tensor::concat_cols(&[p.clone(), extra]).mean_rows().square().sum()
        });
    }

    #[test]
    fn gradcheck_clamp_minimum() {
        // Probes away from the clamp boundaries and the min crossover.
        gradcheck(1, 4, vec![-0.8, 0.3, 0.7, 1.9], |p| p.clamp(0.0, 1.0).sum());
        gradcheck(1, 3, vec![0.2, 0.9, -0.5], |p| {
            let other = Tensor::from_vec(1, 3, vec![0.5, 0.5, 0.5]);
            p.minimum(&other).sum()
        });
    }

    #[test]
    fn gradcheck_ppo_like_objective() {
        // min(r * adv, clip(r, 1-eps, 1+eps) * adv) with r = exp(p - old).
        gradcheck(4, 1, vec![0.1, -0.2, 0.05, 0.3], |p| {
            let old = Tensor::from_vec(4, 1, vec![0.0, 0.0, 0.0, 0.0]);
            let adv = Tensor::from_vec(4, 1, vec![1.0, -1.0, 0.5, -2.0]);
            let ratio = p.sub(&old).exp();
            let clipped = ratio.clamp(0.8, 1.2);
            ratio.mul(&adv).minimum(&clipped.mul(&adv)).mean().neg()
        });
    }

    #[test]
    fn gradients_accumulate_across_backwards() {
        let p = Tensor::param(1, 1, vec![2.0]);
        p.square().scale(0.5).backward(); // grad = 2
        p.square().scale(0.5).backward(); // grad += 2
        assert_eq!(p.grad(), vec![4.0]);
        p.zero_grad();
        p.square().scale(0.5).backward();
        assert_eq!(p.grad(), vec![2.0]);
    }

    #[test]
    fn shared_subexpression_counted_once_per_use() {
        // loss = (p + p).sum() -> dp = 2.
        let p = Tensor::param(1, 1, vec![1.0]);
        p.add(&p).sum().backward();
        assert_eq!(p.grad(), vec![2.0]);
    }

    #[test]
    fn diamond_graph_gradient() {
        // y = p^2, loss = (y + y^2).sum(); dp = 2p + 4p^3 = 2 + 4 = 6 at p=1.
        let p = Tensor::param(1, 1, vec![1.0]);
        let y = p.square();
        y.add(&y.square()).sum().backward();
        assert_eq!(p.grad(), vec![6.0]);
    }

    #[test]
    #[should_panic(expected = "scalar")]
    fn backward_from_non_scalar_panics() {
        let p = Tensor::param(1, 2, vec![1.0, 2.0]);
        p.relu().backward();
    }

    #[test]
    fn constants_do_not_collect_gradients() {
        let p = Tensor::param(1, 1, vec![1.0]);
        let c = Tensor::scalar(5.0);
        p.mul(&c).backward();
        assert_eq!(c.grad(), vec![0.0]);
        assert_eq!(p.grad(), vec![5.0]);
    }
}
