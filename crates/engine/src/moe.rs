//! Feed-forward block: dense SwiGLU or a Mixture-of-Experts of them.
//!
//! Three execution paths produce bitwise-identical outputs: the
//! allocating per-token [`MoeFfn::forward`], the workspace-backed
//! [`MoeFfn::forward_ws`] (zero allocations in steady state), and the
//! batched [`MoeFfn::forward_batch`] (rows grouped by expert so each
//! selected expert's weights stream once per batch). All three
//! accumulate expert contributions in ascending expert-index order.

use crate::config::EngineConfig;
use crate::model::{Linear, Workspace};
use crate::quant::{QuantMode, QuantScratch};
use crate::tensor::{silu_mul_in_place, softmax_in_place, Matrix};

/// One SwiGLU expert: `w2 · (silu(w1·x) ⊙ (w3·x))`.
#[derive(Debug, Clone)]
struct Expert {
    w1: Linear,
    w2: Linear,
    w3: Linear,
}

impl Expert {
    fn new(hidden: usize, inter: usize, seed: u64, mode: QuantMode) -> Self {
        let scale = (6.0 / (hidden + inter) as f32).sqrt();
        Self {
            w1: Linear::random(inter, hidden, seed, scale, mode),
            w2: Linear::random(hidden, inter, seed.wrapping_add(1), scale, mode),
            w3: Linear::random(inter, hidden, seed.wrapping_add(2), scale, mode),
        }
    }

    fn forward(&self, x: &[f32]) -> Vec<f32> {
        let mut gate = self.w1.matmul_vec(x);
        let up = self.w3.matmul_vec(x);
        silu_mul_in_place(&mut gate, &up);
        self.w2.matmul_vec(&gate)
    }

    /// [`Expert::forward`] against caller-provided scratch buffers.
    fn forward_into(
        &self,
        x: &[f32],
        gate: &mut [f32],
        up: &mut [f32],
        out: &mut [f32],
        xq: &mut QuantScratch,
    ) {
        self.w1.matmul_vec_into(x, gate, xq);
        self.w3.matmul_vec_into(x, up, xq);
        silu_mul_in_place(gate, up);
        self.w2.matmul_vec_into(gate, out, xq);
    }

    /// [`Expert::forward`] over a batch of rows with one GEMM per weight
    /// matrix.
    fn forward_batch(&self, xs: &Matrix) -> Matrix {
        let mut gate = self.w1.matmul_mat(xs);
        let up = self.w3.matmul_mat(xs);
        for t in 0..gate.rows() {
            silu_mul_in_place(gate.row_mut(t), up.row(t));
        }
        self.w2.matmul_mat(&gate)
    }
}

/// Dense FFN (`num_experts == 1`) or a routed Mixture-of-Experts
/// (Fig. 26: "the usage of different experts is within the MLP block").
#[derive(Debug, Clone)]
pub struct MoeFfn {
    experts: Vec<Expert>,
    router: Option<Linear>,
    active: usize,
}

impl MoeFfn {
    /// Build with seeded random weights in the given precision.
    pub fn new(cfg: &EngineConfig, seed: u64, mode: QuantMode) -> Self {
        let experts = (0..cfg.num_experts)
            .map(|e| {
                Expert::new(
                    cfg.hidden,
                    cfg.intermediate,
                    seed.wrapping_add(100 * e as u64),
                    mode,
                )
            })
            .collect();
        let router = (cfg.num_experts > 1).then(|| {
            Linear::random(
                cfg.num_experts,
                cfg.hidden,
                seed.wrapping_add(7777),
                0.5,
                QuantMode::F32, // routers stay full precision even in quantized models
            )
        });
        Self {
            experts,
            router,
            active: cfg.active_experts,
        }
    }

    /// Top-k expert indices and renormalized routing weights for `x`,
    /// sorted by descending weight.
    pub fn route(&self, x: &[f32]) -> Vec<(usize, f32)> {
        match &self.router {
            None => vec![(0, 1.0)],
            Some(router) => {
                let mut logits = router.matmul_vec(x);
                softmax_in_place(&mut logits);
                let mut idx: Vec<usize> = (0..logits.len()).collect();
                idx.sort_by(|&a, &b| logits[b].total_cmp(&logits[a]));
                let top = &idx[..self.active];
                let denom: f32 = top.iter().map(|&i| logits[i]).sum();
                top.iter().map(|&i| (i, logits[i] / denom)).collect()
            }
        }
    }

    /// Forward through the routed experts. Contributions accumulate in
    /// ascending expert-index order (matching the batched path exactly).
    pub fn forward(&self, x: &[f32]) -> Vec<f32> {
        let mut routes = self.route(x);
        routes.sort_unstable_by_key(|r| r.0);
        let mut out = vec![0.0f32; x.len()];
        for (e, w) in routes {
            let y = self.experts[e].forward(x);
            for (o, v) in out.iter_mut().zip(&y) {
                *o += w * v;
            }
        }
        out
    }

    /// [`MoeFfn::forward`] against workspace buffers: reads `ws.normed`,
    /// leaves the result in `ws.ffn`, allocation free (routing reuses
    /// `ws.router`/`ws.route_idx`/`ws.routes`, expert evaluation reuses
    /// `ws.gate`/`ws.up`/`ws.expert`).
    pub(crate) fn forward_ws(&self, ws: &mut Workspace) {
        ws.routes.clear();
        match &self.router {
            None => ws.routes.push((0, 1.0)),
            Some(router) => {
                router.matmul_vec_into(&ws.normed, &mut ws.router, &mut ws.xq);
                softmax_in_place(&mut ws.router);
                // Stable insertion sort by descending probability: same
                // ordering as `route()`'s stable `sort_by`, no merge-sort
                // scratch allocation.
                ws.route_idx.clear();
                ws.route_idx.extend(0..ws.router.len());
                for i in 1..ws.route_idx.len() {
                    let mut j = i;
                    while j > 0
                        && ws.router[ws.route_idx[j - 1]].total_cmp(&ws.router[ws.route_idx[j]])
                            == std::cmp::Ordering::Less
                    {
                        ws.route_idx.swap(j - 1, j);
                        j -= 1;
                    }
                }
                let top = &ws.route_idx[..self.active];
                let denom: f32 = top.iter().map(|&i| ws.router[i]).sum();
                ws.routes
                    .extend(top.iter().map(|&i| (i, ws.router[i] / denom)));
            }
        }
        ws.routes.sort_unstable_by_key(|r| r.0);
        ws.ffn.fill(0.0);
        for ri in 0..ws.routes.len() {
            let (e, w) = ws.routes[ri];
            self.experts[e].forward_into(
                &ws.normed,
                &mut ws.gate,
                &mut ws.up,
                &mut ws.expert,
                &mut ws.xq,
            );
            for (o, v) in ws.ffn.iter_mut().zip(&ws.expert) {
                *o += w * v;
            }
        }
    }

    /// Forward a batch of rows, grouping them by routed expert so each
    /// selected expert's weights are streamed once for all rows that
    /// chose it. Row `t` of the result is bitwise equal to
    /// `self.forward(xs.row(t))`.
    pub fn forward_batch(&self, xs: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(xs.rows(), xs.cols());
        let row_routes: Vec<Vec<(usize, f32)>> =
            (0..xs.rows()).map(|t| self.route(xs.row(t))).collect();
        // Ascending expert order: each output row accumulates its
        // contributions in the same order as the per-token path.
        for e in 0..self.experts.len() {
            let members: Vec<(usize, f32)> = row_routes
                .iter()
                .enumerate()
                .filter_map(|(t, routes)| routes.iter().find(|r| r.0 == e).map(|r| (t, r.1)))
                .collect();
            if members.is_empty() {
                continue;
            }
            let mut sub = Matrix::zeros(members.len(), xs.cols());
            for (j, &(t, _)) in members.iter().enumerate() {
                sub.row_mut(j).copy_from_slice(xs.row(t));
            }
            let y = self.experts[e].forward_batch(&sub);
            for (j, &(t, w)) in members.iter().enumerate() {
                for (o, v) in out.row_mut(t).iter_mut().zip(y.row(j)) {
                    *o += w * v;
                }
            }
        }
        out
    }

    /// Number of stored experts.
    pub fn num_experts(&self) -> usize {
        self.experts.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_ffn_routes_to_single_expert() {
        let ffn = MoeFfn::new(&EngineConfig::tiny(), 1, QuantMode::F32);
        let x = vec![0.2f32; 32];
        assert_eq!(ffn.route(&x), vec![(0, 1.0)]);
        assert_eq!(ffn.num_experts(), 1);
    }

    #[test]
    fn moe_routes_exactly_topk_with_normalized_weights() {
        let cfg = EngineConfig::tiny_moe();
        let ffn = MoeFfn::new(&cfg, 1, QuantMode::F32);
        let x: Vec<f32> = (0..cfg.hidden).map(|i| (i as f32 * 0.3).cos()).collect();
        let routes = ffn.route(&x);
        assert_eq!(routes.len(), 2);
        let wsum: f32 = routes.iter().map(|(_, w)| w).sum();
        assert!((wsum - 1.0).abs() < 1e-5);
        // Distinct experts.
        assert_ne!(routes[0].0, routes[1].0);
        // Sorted by weight.
        assert!(routes[0].1 >= routes[1].1);
    }

    #[test]
    fn different_inputs_can_route_differently() {
        let cfg = EngineConfig::tiny_moe();
        let ffn = MoeFfn::new(&cfg, 5, QuantMode::F32);
        let mut seen = std::collections::HashSet::new();
        for s in 0..20 {
            let x: Vec<f32> = (0..cfg.hidden)
                .map(|i| ((i + s * 13) as f32 * 0.7).sin())
                .collect();
            let top = ffn.route(&x)[0].0;
            seen.insert(top);
        }
        assert!(seen.len() > 1, "router collapsed to one expert");
    }

    #[test]
    fn moe_output_is_convex_mix_of_expert_outputs() {
        let cfg = EngineConfig::tiny_moe();
        let ffn = MoeFfn::new(&cfg, 9, QuantMode::F32);
        let x: Vec<f32> = (0..cfg.hidden).map(|i| (i as f32 * 0.17).sin()).collect();
        let routes = ffn.route(&x);
        let mut manual = vec![0.0f32; cfg.hidden];
        for (e, w) in &routes {
            let y = ffn.experts[*e].forward(&x);
            for (m, v) in manual.iter_mut().zip(&y) {
                *m += w * v;
            }
        }
        let out = ffn.forward(&x);
        for (a, b) in out.iter().zip(&manual) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn ffn_deterministic_given_seed() {
        let cfg = EngineConfig::tiny();
        let a = MoeFfn::new(&cfg, 42, QuantMode::F32);
        let b = MoeFfn::new(&cfg, 42, QuantMode::F32);
        let x = vec![0.4f32; cfg.hidden];
        assert_eq!(a.forward(&x), b.forward(&x));
    }

    #[test]
    fn forward_batch_matches_per_token_bitwise() {
        for cfg in [EngineConfig::tiny(), EngineConfig::tiny_moe()] {
            let ffn = MoeFfn::new(&cfg, 31, QuantMode::F32);
            let rows = 7;
            let mut xs = Matrix::zeros(rows, cfg.hidden);
            for t in 0..rows {
                for (j, v) in xs.row_mut(t).iter_mut().enumerate() {
                    *v = ((t * 29 + j) as f32 * 0.13).sin();
                }
            }
            let batched = ffn.forward_batch(&xs);
            for t in 0..rows {
                assert_eq!(
                    batched.row(t),
                    ffn.forward(xs.row(t)).as_slice(),
                    "row {t} of {} experts",
                    ffn.num_experts()
                );
            }
        }
    }
}
