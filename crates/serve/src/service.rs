//! The scoring service: cache-aware batched scoring and top-K selection.

use seqrec_eval::StatefulScorer;
use seqrec_obs::metrics;
use seqrec_tensor::topk::top_k;

use crate::cache::UserStateCache;

/// One ranked recommendation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Recommendation {
    /// Item id (1-based; 0 is the pad id and is never recommended).
    pub item: u32,
    /// The model's score for the item.
    pub score: f32,
}

/// A [`StatefulScorer`] behind a per-user encoder-state cache.
///
/// Scoring a batch encodes only the cache-missing users (in one forward
/// pass), then scores every requested state in one catalog GEMM. The
/// serve-vs-eval parity contract — `score_batch` bit-identical to
/// [`seqrec_eval::SequenceScorer::score_full_catalog`] regardless of which
/// requests hit the cache or shared an encode batch — is pinned by
/// `tests/serve_parity.rs`.
pub struct ScoringService<M> {
    model: M,
    cache: UserStateCache,
}

impl<M: StatefulScorer> ScoringService<M> {
    /// Wraps `model` with an empty cache.
    pub fn new(model: M) -> Self {
        ScoringService { model, cache: UserStateCache::new() }
    }

    /// The wrapped model.
    pub fn model(&self) -> &M {
        &self.model
    }

    /// The user-state cache.
    pub fn cache(&self) -> &UserStateCache {
        &self.cache
    }

    /// Evicts one user's cached state (e.g. after an out-of-band profile
    /// rebuild). Regular history changes need no eviction: the cache keys
    /// states by a digest of the exact history.
    pub fn invalidate_user(&mut self, user: usize) {
        self.cache.invalidate(user);
    }

    /// Resolves every request's encoder state — cache lookups, then one
    /// forward pass over the misses — without scoring. The first stage of
    /// [`score_batch`]; split out so the serving worker can timestamp the
    /// encode/score boundary for request traces.
    ///
    /// [`score_batch`]: ScoringService::score_batch
    pub fn encode_batch(&mut self, users: &[usize], histories: &[&[u32]]) -> EncodedBatch {
        assert_eq!(users.len(), histories.len(), "one history per user");
        metrics::SERVE_REQUESTS.add(users.len() as u64);
        let d = self.model.state_dim();
        let mut states = vec![0.0f32; users.len() * d];
        let mut miss_rows: Vec<usize> = Vec::new();
        for (i, (&u, &h)) in users.iter().zip(histories).enumerate() {
            match self.cache.get(u, h) {
                Some(s) => states[i * d..(i + 1) * d].copy_from_slice(s),
                None => miss_rows.push(i),
            }
        }
        metrics::SERVE_CACHE_HITS.add((users.len() - miss_rows.len()) as u64);
        metrics::SERVE_CACHE_MISSES.add(miss_rows.len() as u64);
        if !miss_rows.is_empty() {
            let miss_users: Vec<usize> = miss_rows.iter().map(|&i| users[i]).collect();
            let miss_hists: Vec<&[u32]> = miss_rows.iter().map(|&i| histories[i]).collect();
            let encoded = self.model.encode_users(&miss_users, &miss_hists);
            debug_assert_eq!(encoded.len(), miss_rows.len() * d);
            for (j, &i) in miss_rows.iter().enumerate() {
                let row = &encoded[j * d..(j + 1) * d];
                states[i * d..(i + 1) * d].copy_from_slice(row);
                self.cache.put(users[i], histories[i], row.to_vec());
            }
        }
        EncodedBatch { states }
    }

    /// Scores an encoded batch against the full catalog — the second stage
    /// of [`score_batch`].
    ///
    /// [`score_batch`]: ScoringService::score_batch
    pub fn score_encoded(&mut self, batch: &EncodedBatch) -> Vec<Vec<f32>> {
        metrics::SERVE_BATCHES.incr();
        self.model.score_states(&batch.states)
    }

    /// Full catalog scores for each `(user, history)` request — the same
    /// layout as `score_full_catalog`: one `num_items() + 1` row per
    /// request, entry 0 scoring the pad id. Equivalent to
    /// [`encode_batch`] + [`score_encoded`] (same operations, same order).
    ///
    /// [`encode_batch`]: ScoringService::encode_batch
    /// [`score_encoded`]: ScoringService::score_encoded
    pub fn score_batch(&mut self, users: &[usize], histories: &[&[u32]]) -> Vec<Vec<f32>> {
        let encoded = self.encode_batch(users, histories);
        self.score_encoded(&encoded)
    }

    /// The `k` best items per request, scores descending, ties broken by
    /// the smaller item id. The pad id (0) is excluded; `k` above the
    /// catalog size returns the whole catalog ranked.
    pub fn recommend(
        &mut self,
        users: &[usize],
        histories: &[&[u32]],
        k: usize,
    ) -> Vec<Vec<Recommendation>> {
        rank(&self.score_batch(users, histories), k)
    }
}

/// Encoder states for one batch of requests, produced by
/// [`ScoringService::encode_batch`], row `i` holding request `i`'s state.
pub struct EncodedBatch {
    states: Vec<f32>,
}

impl EncodedBatch {
    /// The packed per-request state rows.
    pub fn states(&self) -> &[f32] {
        &self.states
    }
}

/// Top-`k` selection over full-catalog score rows (entry 0 = pad id,
/// excluded) — the ranking stage of [`ScoringService::recommend`].
pub fn rank(scores: &[Vec<f32>], k: usize) -> Vec<Vec<Recommendation>> {
    scores
        .iter()
        .map(|row| {
            // Skip the pad entry; `top_k` indices are then item_id - 1.
            top_k(&row[1..], k)
                .into_iter()
                .map(|e| Recommendation { item: e.index + 1, score: e.score })
                .collect()
        })
        .collect()
}
