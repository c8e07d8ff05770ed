//! Property-based tests on the tensor core: algebraic identities that must
//! hold for arbitrary shapes and values.

use proptest::prelude::*;
use seqrec_tensor::linalg;
use seqrec_tensor::Tensor;

/// Strategy: a tensor with the given number of elements, values in ±8
/// (bounded so f32 accumulation error stays well under the tolerances).
fn tensor_with(len: usize) -> impl Strategy<Value = Vec<f32>> {
    proptest::collection::vec(-8.0f32..8.0, len)
}

fn close(a: &Tensor, b: &Tensor, tol: f32) -> Result<(), TestCaseError> {
    prop_assert!(a.shape() == b.shape());
    let scale = a.max_abs().max(b.max_abs()).max(1.0);
    prop_assert!(a.max_diff(b) <= tol * scale, "diff {} (scale {scale})", a.max_diff(b));
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn matmul_matches_naive(
        m in 1usize..9, k in 1usize..9, n in 1usize..9,
        seed in 0u64..1000,
    ) {
        let mut r = seqrec_tensor::init::rng(seed);
        let a = seqrec_tensor::init::uniform([m, k], -2.0, 2.0, &mut r);
        let b = seqrec_tensor::init::uniform([k, n], -2.0, 2.0, &mut r);
        close(&linalg::matmul_nn(&a, &b), &linalg::matmul_naive(&a, &b), 1e-5)?;
    }

    #[test]
    fn matmul_transpose_identities(
        m in 1usize..7, k in 1usize..7, n in 1usize..7,
        seed in 0u64..1000,
    ) {
        let mut r = seqrec_tensor::init::rng(seed);
        let a = seqrec_tensor::init::uniform([m, k], -2.0, 2.0, &mut r);
        let b = seqrec_tensor::init::uniform([n, k], -2.0, 2.0, &mut r);
        // A·Bᵀ == (B·Aᵀ)ᵀ
        let lhs = linalg::matmul_nt(&a, &b);
        let rhs = linalg::matmul_nt(&b, &a).transpose2();
        close(&lhs, &rhs, 1e-5)?;
    }

    #[test]
    fn matmul_distributes_over_addition(
        m in 1usize..6, k in 1usize..6, n in 1usize..6,
        seed in 0u64..1000,
    ) {
        let mut r = seqrec_tensor::init::rng(seed);
        let a = seqrec_tensor::init::uniform([m, k], -2.0, 2.0, &mut r);
        let b = seqrec_tensor::init::uniform([k, n], -2.0, 2.0, &mut r);
        let c = seqrec_tensor::init::uniform([k, n], -2.0, 2.0, &mut r);
        let lhs = linalg::matmul_nn(&a, &b.add(&c));
        let rhs = linalg::matmul_nn(&a, &b).add(&linalg::matmul_nn(&a, &c));
        close(&lhs, &rhs, 1e-4)?;
    }

    #[test]
    fn add_commutes_and_sub_inverts(data_a in tensor_with(24), data_b in tensor_with(24)) {
        let a = Tensor::from_vec([4, 6], data_a);
        let b = Tensor::from_vec([4, 6], data_b);
        close(&a.add(&b), &b.add(&a), 1e-6)?;
        close(&a.add(&b).sub(&b), &a, 1e-5)?;
    }

    #[test]
    fn scale_is_linear(data in tensor_with(12), s in -4.0f32..4.0) {
        let a = Tensor::from_vec([12], data);
        close(&a.scale(s).scale(2.0), &a.scale(2.0 * s), 1e-4)?;
    }

    #[test]
    fn transpose_is_involutive(m in 1usize..10, n in 1usize..10, seed in 0u64..1000) {
        let mut r = seqrec_tensor::init::rng(seed);
        let a = seqrec_tensor::init::uniform([m, n], -2.0, 2.0, &mut r);
        close(&a.transpose2().transpose2(), &a, 0.0)?;
    }

    #[test]
    fn reshape_preserves_sum(data in tensor_with(24)) {
        let a = Tensor::from_vec([2, 3, 4], data);
        let b = a.reshape([6, 4]);
        prop_assert!((a.sum() - b.sum()).abs() < 1e-5);
    }

    #[test]
    fn norm_triangle_inequality(data_a in tensor_with(16), data_b in tensor_with(16)) {
        let a = Tensor::from_vec([16], data_a);
        let b = Tensor::from_vec([16], data_b);
        prop_assert!(a.add(&b).norm() <= a.norm() + b.norm() + 1e-4);
    }

    #[test]
    fn softmax_rows_form_a_distribution(rows in 1usize..5, cols in 1usize..8, seed in 0u64..1000) {
        let mut r = seqrec_tensor::init::rng(seed);
        let x = seqrec_tensor::init::uniform([rows, cols], -10.0, 10.0, &mut r);
        let mut out = vec![0.0; rows * cols];
        seqrec_tensor::ops::softmax_rows(x.data(), cols, &mut out);
        for row in out.chunks(cols) {
            let sum: f32 = row.iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-5);
            prop_assert!(row.iter().all(|&p| (0.0..=1.0).contains(&p)));
        }
    }

    #[test]
    fn cross_entropy_is_nonnegative_and_finite(
        rows in 1usize..5, cols in 2usize..6, seed in 0u64..1000,
    ) {
        let mut r = seqrec_tensor::init::rng(seed);
        let x = seqrec_tensor::init::uniform([rows, cols], -20.0, 20.0, &mut r);
        let targets: Vec<u32> = (0..rows).map(|i| (i % cols) as u32).collect();
        let mut step = seqrec_tensor::nn::Step::new();
        let v = step.tape.leaf(x);
        let l = step.tape.softmax_cross_entropy(v, &targets);
        let out = step.tape.value(l);
        prop_assert!(out.is_finite());
        prop_assert!(out.data().iter().all(|&v| v >= 0.0));
    }
}
