//! Property-based tests on ranking metrics.

use proptest::prelude::*;
use seqrec_eval::{rank_of_target, MetricsAccumulator};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The computed rank equals the position of the target in a
    /// descending sort (ties counted against the target) of non-excluded
    /// candidates — the sort-based oracle.
    #[test]
    fn rank_matches_sort_oracle(
        scores in proptest::collection::vec(-10.0f32..10.0, 2..60),
        target_ix in 1usize..59,
        exclude in proptest::collection::vec(1u32..60, 0..10),
    ) {
        prop_assume!(target_ix < scores.len());
        let target = target_ix as u32;
        let rank = rank_of_target(&scores, target, &exclude);

        // oracle: sort candidate scores descending, count how many are >=
        // the target's score (excluding the target itself and exclusions)
        let mut excluded = vec![false; scores.len()];
        for &e in &exclude {
            if (e as usize) < scores.len() {
                excluded[e as usize] = true;
            }
        }
        excluded[target_ix] = false;
        let tscore = scores[target_ix];
        let better = scores
            .iter()
            .enumerate()
            .skip(1)
            .filter(|&(i, &s)| i != target_ix && !excluded[i] && s >= tscore)
            .count();
        prop_assert_eq!(rank, better);
    }

    /// Excluding more items can only improve (lower) the rank.
    #[test]
    fn exclusion_is_monotone(
        scores in proptest::collection::vec(-10.0f32..10.0, 3..40),
        target_ix in 1usize..39,
        extra in 1u32..40,
    ) {
        prop_assume!(target_ix < scores.len());
        prop_assume!((extra as usize) < scores.len());
        let target = target_ix as u32;
        let base = rank_of_target(&scores, target, &[]);
        let with = rank_of_target(&scores, target, &[extra]);
        prop_assert!(with <= base);
    }

    /// HR and NDCG are monotone in k, bounded in [0, 1], and NDCG ≤ HR.
    #[test]
    fn metric_bounds_and_monotonicity(
        ranks in proptest::collection::vec(0usize..100, 1..50),
    ) {
        let mut acc = MetricsAccumulator::new(&[1, 5, 10, 20]);
        for &r in &ranks {
            acc.push(r);
        }
        let m = acc.finish();
        let mut prev_hr = 0.0f64;
        let mut prev_ndcg = 0.0f64;
        for &k in &[1usize, 5, 10, 20] {
            let hr = m.hr_at(k);
            let ndcg = m.ndcg_at(k);
            prop_assert!((0.0..=1.0).contains(&hr));
            prop_assert!((0.0..=1.0).contains(&ndcg));
            prop_assert!(hr >= prev_hr, "HR not monotone in k");
            prop_assert!(ndcg >= prev_ndcg, "NDCG not monotone in k");
            prop_assert!(ndcg <= hr + 1e-12, "NDCG@{k} {ndcg} exceeds HR {hr}");
            prev_hr = hr;
            prev_ndcg = ndcg;
        }
        prop_assert!((0.0..=1.0).contains(&m.mrr));
    }

    /// Full-pipeline brute-force cross-check: metrics computed through
    /// `rank_of_target` + `MetricsAccumulator` must equal HR@k / NDCG@k / MRR
    /// re-derived from first principles — build each user's ranked
    /// recommendation list by sorting the catalog by score (ties placed
    /// above the target, matching the pessimistic convention) and read the
    /// definitions straight off the list.
    #[test]
    fn accumulator_matches_brute_force_definitions(
        users in proptest::collection::vec(
            (proptest::collection::vec(-5.0f32..5.0, 6..25), 1u32..5),
            1..20,
        ),
    ) {
        let ks = [1usize, 5, 10];
        let mut acc = MetricsAccumulator::new(&ks);
        let mut bf_hits = [0usize; 3];
        let mut bf_ndcg = [0.0f64; 3];
        let mut bf_mrr = 0.0f64;

        for (scores, target_raw) in &users {
            let target = 1 + (*target_raw as usize - 1) % (scores.len() - 1);

            // the production path
            acc.push(rank_of_target(scores, target as u32, &[]));

            // brute force: sort catalog ids 1.. by score descending, the
            // target losing every tie, then read its list position.
            let mut order: Vec<usize> = (1..scores.len()).collect();
            order.sort_by(|&a, &b| {
                scores[b]
                    .partial_cmp(&scores[a])
                    .unwrap()
                    .then_with(|| (a == target).cmp(&(b == target)))
            });
            let pos = order.iter().position(|&i| i == target).unwrap();
            bf_mrr += 1.0 / (pos + 1) as f64;
            for (i, &k) in ks.iter().enumerate() {
                if order.iter().take(k).any(|&i| i == target) {
                    bf_hits[i] += 1;
                    bf_ndcg[i] += 1.0 / ((pos + 2) as f64).log2();
                }
            }
        }

        let m = acc.finish();
        let n = users.len() as f64;
        for (i, &k) in ks.iter().enumerate() {
            let hr = bf_hits[i] as f64 / n;
            let ndcg = bf_ndcg[i] / n;
            prop_assert!((m.hr_at(k) - hr).abs() < 1e-12,
                         "HR@{k}: {} vs brute force {hr}", m.hr_at(k));
            prop_assert!((m.ndcg_at(k) - ndcg).abs() < 1e-12,
                         "NDCG@{k}: {} vs brute force {ndcg}", m.ndcg_at(k));
        }
        prop_assert!((m.mrr - bf_mrr / n).abs() < 1e-12);
    }

    /// MRR is bounded below by NDCG-at-infinity intuition: rank 0 users
    /// contribute 1.0 to all three; a rank beyond every k contributes only
    /// to MRR.
    #[test]
    fn perfect_ranks_maximise_everything(n in 1usize..30) {
        let mut acc = MetricsAccumulator::new(&[5]);
        for _ in 0..n {
            acc.push(0);
        }
        let m = acc.finish();
        prop_assert_eq!(m.hr_at(5), 1.0);
        prop_assert_eq!(m.ndcg_at(5), 1.0);
        prop_assert_eq!(m.mrr, 1.0);
        prop_assert_eq!(m.users, n);
    }
}
