//! Data-parallel training building blocks.
//!
//! A data-parallel step splits one mini-batch into `N` contiguous row
//! shards, runs forward/backward per shard (each shard on its own tape, so
//! shards can execute on different pool workers), and combines the shard
//! gradients with a **deterministic pairwise tree all-reduce**: shard `2k`
//! adds shard `2k+1`, then the halved list repeats, always in shard-index
//! order. The reduction tree's shape depends only on the shard count —
//! never on which worker finished first — so a data-parallel run is
//! reproducible for a fixed `data_parallel` setting.
//!
//! Each shard scales its loss *inside the tape* by its share of the batch
//! (valid-target count for the next-item objective) before backward; the
//! summed shard gradients then equal the full-batch masked-mean gradient
//! exactly, up to the float re-association inherent in the tree sum — the
//! equivalence suite bounds that at ≤1e-6 relative.

use rayon::prelude::*;
use seqrec_data::batch::NextItemBatch;
use seqrec_tensor::init::{rng, TensorRng};
use seqrec_tensor::nn::{HasParams, Step};
use seqrec_tensor::{Gradients, Tensor, Var};

/// Splits `n_rows` into at most `shards` contiguous, near-equal,
/// non-empty ranges. Fewer ranges come back when there aren't enough rows.
pub fn shard_ranges(n_rows: usize, shards: usize) -> Vec<(usize, usize)> {
    let shards = shards.clamp(1, n_rows.max(1));
    let base = n_rows / shards;
    let extra = n_rows % shards;
    let mut out = Vec::with_capacity(shards);
    let mut lo = 0;
    for s in 0..shards {
        let hi = lo + base + usize::from(s < extra);
        if hi > lo {
            out.push((lo, hi));
        }
        lo = hi;
    }
    out
}

/// Clones every parameter gradient of `step` into a `visit`-order vector —
/// the shard-local half of the all-reduce, and the exact layout
/// [`seqrec_tensor::optim::Adam::step_with_stats_reduced`] consumes.
pub fn grads_in_visit_order<M: HasParams + ?Sized>(
    model: &M,
    step: &Step,
    grads: &Gradients,
) -> Vec<Option<Tensor>> {
    let mut out = Vec::new();
    model.visit(&mut |p| out.push(p.grad(step, grads).cloned()));
    out
}

/// Deterministic pairwise tree all-reduce over per-shard gradient vectors
/// (each in `visit` order). Parameters a shard never touched stay `None`
/// and merge as identity.
pub fn tree_reduce(mut shards: Vec<Vec<Option<Tensor>>>) -> Vec<Option<Tensor>> {
    while shards.len() > 1 {
        let mut next = Vec::with_capacity(shards.len().div_ceil(2));
        let mut it = shards.into_iter();
        while let Some(a) = it.next() {
            match it.next() {
                Some(b) => next.push(add_grad_vecs(a, b)),
                None => next.push(a),
            }
        }
        shards = next;
    }
    shards.pop().unwrap_or_default()
}

fn add_grad_vecs(a: Vec<Option<Tensor>>, b: Vec<Option<Tensor>>) -> Vec<Option<Tensor>> {
    assert_eq!(a.len(), b.len(), "shard gradient vectors must align");
    a.into_iter()
        .zip(b)
        .map(|pair| match pair {
            (Some(x), Some(y)) => {
                assert_eq!(x.shape(), y.shape(), "shard gradient shapes must align");
                let data = x.data().iter().zip(y.data()).map(|(p, q)| p + q).collect();
                Some(Tensor::from_vec(x.shape().clone(), data))
            }
            (Some(x), None) | (None, Some(x)) => Some(x),
            (None, None) => None,
        })
        .collect()
}

/// The row slice `[lo, hi)` of a next-item batch, as its own batch. The
/// negatives were sampled when the full batch was built, so the sharded
/// step consumes exactly the sampler stream the serial step would.
pub fn slice_batch(batch: &NextItemBatch, lo: usize, hi: usize) -> NextItemBatch {
    assert!(lo < hi && hi <= batch.b, "shard [{lo},{hi}) outside batch of {}", batch.b);
    let t = batch.t;
    NextItemBatch {
        inputs: batch.inputs[lo * t..hi * t].to_vec(),
        pos: batch.pos[lo * t..hi * t].to_vec(),
        neg: batch.neg[lo * t..hi * t].to_vec(),
        target_mask: batch.target_mask[lo * t..hi * t].to_vec(),
        valid: batch.valid[lo..hi].to_vec(),
        b: hi - lo,
        t,
    }
}

/// The effective shard count for a batch of `n_rows`: the configured
/// `data_parallel` degree, capped so every shard keeps at least two rows
/// (in-batch objectives need a pair), and 1 when the mode is off.
pub fn effective_shards(data_parallel: usize, n_rows: usize) -> usize {
    if data_parallel <= 1 {
        return 1;
    }
    data_parallel.min(n_rows / 2).max(1)
}

/// One data-parallel step over a batch of `n_rows` rows: splits the rows
/// into at most `shards` contiguous ranges and, for every range on its own
/// tape (on the pool when one is available), calls
/// `loss(step, (lo, hi), shard_rng)`, backpropagates the returned
/// objective and collects `model`'s gradients in `visit` order. Shard `s`
/// draws dropout from `rng(step_seed ^ s)`, so the step depends only on
/// `(step_seed, shards)`, never on worker scheduling.
///
/// `loss` returns `(objective, report_loss, weight)`: the objective is the
/// shard loss already scaled by the shard's share of the batch inside the
/// tape, so the shard gradients sum to the full-batch gradient. Returns
/// the batch loss `Σ weight × report_loss` and the tree-reduced gradients,
/// ready for [`seqrec_tensor::optim::Adam::step_with_stats_reduced`].
pub fn shard_step<M, F>(
    model: &M,
    n_rows: usize,
    shards: usize,
    step_seed: u64,
    loss: F,
) -> (f32, Vec<Option<Tensor>>)
where
    M: HasParams + Sync + ?Sized,
    F: Fn(&mut Step, (usize, usize), &mut TensorRng) -> (Var, f32, f32) + Sync,
{
    let ranges = shard_ranges(n_rows, shards);
    let per: Vec<(f32, f32, Vec<Option<Tensor>>)> = (0..ranges.len())
        .into_par_iter()
        .map(|s| {
            let mut shard_rng = rng(step_seed ^ s as u64);
            let mut step = Step::new();
            let (objective, report_loss, w) = loss(&mut step, ranges[s], &mut shard_rng);
            let grads = step.tape.backward(objective);
            (report_loss, w, grads_in_visit_order(model, &step, &grads))
        })
        .collect();
    let losses: Vec<f32> = per.iter().map(|(l, _, _)| *l).collect();
    observe_shard_spread(&losses);
    let loss = per.iter().map(|(l, w, _)| l * w).sum();
    let reduced = tree_reduce(per.into_iter().map(|(_, _, g)| g).collect());
    (loss, reduced)
}

/// Records the spread of per-shard losses (max − min, in milli-units) so
/// shard divergence is visible next to the per-group gradient norms.
fn observe_shard_spread(losses: &[f32]) {
    if losses.len() < 2 {
        return;
    }
    let (mut lo, mut hi) = (f32::INFINITY, f32::NEG_INFINITY);
    for &l in losses {
        lo = lo.min(l);
        hi = hi.max(l);
    }
    seqrec_obs::metrics::record_scaled(
        &seqrec_obs::metrics::DP_SHARD_LOSS_SPREAD_MILLI,
        f64::from(hi - lo),
        1e3,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_ranges_cover_and_balance() {
        assert_eq!(shard_ranges(10, 3), vec![(0, 4), (4, 7), (7, 10)]);
        assert_eq!(shard_ranges(4, 4), vec![(0, 1), (1, 2), (2, 3), (3, 4)]);
        assert_eq!(shard_ranges(3, 8), vec![(0, 1), (1, 2), (2, 3)]);
        assert_eq!(shard_ranges(7, 1), vec![(0, 7)]);
        assert!(shard_ranges(0, 4).is_empty());
    }

    #[test]
    fn tree_reduce_is_a_fixed_shape_sum() {
        let g = |v: f32| Some(Tensor::from_vec([2], vec![v, v * 10.0]));
        let shards = vec![vec![g(1.0), None], vec![g(2.0), g(5.0)], vec![g(3.0), None]];
        let r = tree_reduce(shards);
        assert_eq!(r[0].as_ref().unwrap().data(), &[6.0, 60.0]);
        assert_eq!(r[1].as_ref().unwrap().data(), &[5.0, 50.0]);
        assert!(tree_reduce(Vec::new()).is_empty());
    }

    #[test]
    fn effective_shards_respects_row_budget() {
        assert_eq!(effective_shards(4, 32), 4);
        assert_eq!(effective_shards(4, 6), 3); // ≥2 rows per shard
        assert_eq!(effective_shards(4, 3), 1);
        assert_eq!(effective_shards(1, 32), 1);
    }
}
