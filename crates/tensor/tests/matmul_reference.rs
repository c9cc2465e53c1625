//! `Matrix::matmul_into` against the definition its doc states, bit for bit:
//! each output element sums `a_ik · b_kj` over ascending `k`, starting from
//! `+0.0` and skipping every `a_ik` equal to zero.

use datawa_tensor::Matrix;
use proptest::prelude::*;

/// The documented contract as a plain triple loop.
fn reference(a: &Matrix, b: &Matrix) -> Vec<f64> {
    let mut out = Vec::with_capacity(a.rows() * b.cols());
    for i in 0..a.rows() {
        for j in 0..b.cols() {
            let mut sum = 0.0;
            for k in 0..a.cols() {
                let x = a.get(i, k);
                if x != 0.0 {
                    sum += x * b.get(k, j);
                }
            }
            out.push(sum);
        }
    }
    out
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// Fills a `rows × cols` matrix from a cycled value stream.
fn matrix(rows: usize, cols: usize, values: &[f64], offset: usize) -> Matrix {
    let data = values
        .iter()
        .copied()
        .cycle()
        .skip(offset)
        .take(rows * cols)
        .collect();
    Matrix::from_vec(rows, cols, data)
}

/// Fractions in (−4, 4) mixed with exact `0.0`, `−0.0`, `1.0` and
/// subnormals of either sign.
fn values_strategy() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec((-4.0f64..4.0, 0usize..8), 1..40).prop_map(|raw| {
        raw.into_iter()
            .map(|(v, kind)| match kind {
                0 => 0.0,
                1 => -0.0,
                2 => v * f64::MIN_POSITIVE / 8.0,
                3 => 1.0,
                _ => v,
            })
            .collect()
    })
}

/// Asserts `a·b` equals the reference bit for bit, through both entry
/// points, with `out` pre-filled with NaN.
fn check(a: &Matrix, b: &Matrix) {
    let expected = bits(&reference(a, b));
    let mut out = Matrix::filled(a.rows(), b.cols(), f64::NAN);
    a.matmul_into(b, &mut out);
    assert_eq!(bits(out.data()), expected, "{a} · {b}");
    assert_eq!(bits(a.matmul(b).data()), expected, "{a} · {b}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Up to 19 columns: every mix of the kernel's 8-, 4- and 1-wide column
    /// blocks.

    #[test]
    fn matmul_into_equals_the_triple_loop_bitwise(
        values in values_strategy(),
        rows in 0usize..6,
        inner in 0usize..6,
        cols in 0usize..20,
        offset in 0usize..40,
    ) {
        let a = matrix(rows, inner, &values, offset);
        let b = matrix(inner, cols, &values, offset + 7);
        check(&a, &b);
    }
}

#[test]
fn zero_width_shapes_are_handled() {
    let values = [1.5, -0.0, 2.0, 0.0, -3.25];
    for rows in [0, 3] {
        for inner in [0, 2] {
            for cols in [0, 4] {
                let a = matrix(rows, inner, &values, 0);
                let b = matrix(inner, cols, &values, 1);
                check(&a, &b);
                let product = a.matmul(&b);
                assert_eq!(product.shape(), (rows, cols));
                if inner == 0 {
                    assert!(product.data().iter().all(|v| v.to_bits() == 0));
                }
            }
        }
    }
}

#[test]
fn signed_zeros_and_subnormals_keep_their_bits() {
    let tiny = f64::MIN_POSITIVE / 4.0;
    // A row of skipped zeros leaves `+0.0`; `−0.0 · x` terms are skipped too.
    let a = Matrix::from_rows(&[&[-0.0, 0.0], &[tiny, -tiny], &[1.0, -0.0]]);
    let b = Matrix::from_rows(&[&[-1.0, 0.5], &[-0.0, 3.0]]);
    check(&a, &b);
    let product = a.matmul(&b);
    assert_eq!(product.row(0)[0].to_bits(), 0.0f64.to_bits());
    assert_eq!(product.row(2)[0].to_bits(), (-1.0f64).to_bits());
    assert!(product.row(1)[1].is_subnormal() || product.row(1)[1] == 0.0);
}
