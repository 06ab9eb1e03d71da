//! Non-separable 2-D valid convolution (correlation, torch5 semantics).

use rayon::prelude::*;

use crate::Tensor;

/// Valid 2-D convolution of `img` with `kernel`.
///
/// Output shape `(r - kr + 1, c - kc + 1)`; element `(i, j)` is
/// `Σ_{a,b} img[i+a, j+b] · kernel[a, b]` — cross-correlation, matching
/// torch5's `SpatialConvolution` (the paper builds its CNNs from torch5
/// primitives). Accumulation order is fixed (row-major over the kernel), so
/// results are bit-stable across thread counts. An output row takes one
/// kernel tap at a time across all its columns: every element still sums
/// its products in that order, and the inner loop runs over contiguous
/// columns, where it vectorises.
///
/// Panics if the image is smaller than the kernel.
pub fn conv2d_valid(img: &Tensor, kernel: &Tensor) -> Tensor {
    let (ir, ic) = (img.rows(), img.cols());
    let (kr, kc) = (kernel.rows(), kernel.cols());
    assert!(
        ir >= kr && ic >= kc,
        "image {ir}x{ic} smaller than kernel {kr}x{kc}"
    );
    let (or, oc) = (ir - kr + 1, ic - kc + 1);
    let mut out = vec![0.0f32; or * oc];
    out.par_chunks_mut(oc).enumerate().for_each(|(i, row)| {
        for a in 0..kr {
            let img_row = img.row(i + a);
            for (b, &k) in kernel.row(a).iter().enumerate() {
                for (slot, &x) in row.iter_mut().zip(&img_row[b..b + oc]) {
                    *slot += x * k;
                }
            }
        }
    });
    Tensor::from_vec(or, oc, out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The element-at-a-time loop the kernel replaced: the oracle for
    /// its summation order.
    fn conv2d_scalar(img: &Tensor, kernel: &Tensor) -> Tensor {
        let (kr, kc) = (kernel.rows(), kernel.cols());
        let (or, oc) = (img.rows() - kr + 1, img.cols() - kc + 1);
        Tensor::from_fn(or, oc, |i, j| {
            let mut acc = 0.0f32;
            for a in 0..kr {
                let img_row = img.row(i + a);
                for (b, &k) in kernel.row(a).iter().enumerate() {
                    acc += img_row[j + b] * k;
                }
            }
            acc
        })
    }

    /// Values of mixed sign and magnitude, so a changed summation order
    /// would change rounding.
    fn noise(rows: usize, cols: usize, seed: u64) -> Tensor {
        let mut state = seed | 1;
        Tensor::from_fn(rows, cols, |_, _| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            ((state % 20_001) as f32 - 10_000.0) / (1 + state % 97) as f32
        })
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Bit for bit the scalar loop's result, on odd and degenerate
        /// shapes (one-row, one-column and whole-image kernels included).
        #[test]
        fn matches_the_scalar_loop_bit_for_bit(
            rows in 1usize..37,
            cols in 1usize..37,
            kr in 1usize..12,
            kc in 1usize..12,
            seed in 1u64..100_000,
        ) {
            let img = noise(rows, cols, seed);
            let k = noise(kr.min(rows), kc.min(cols), seed + 1);
            prop_assert_eq!(bits(&conv2d_valid(&img, &k)), bits(&conv2d_scalar(&img, &k)));
        }
    }

    #[test]
    fn identity_kernel() {
        let img = Tensor::from_fn(4, 4, |r, c| (r * 4 + c) as f32);
        let k = Tensor::scalar(1.0);
        assert_eq!(conv2d_valid(&img, &k), img);
    }

    #[test]
    fn box_filter_sums_window() {
        let img = Tensor::from_fn(3, 3, |_, _| 1.0);
        let k = Tensor::from_fn(2, 2, |_, _| 1.0);
        let out = conv2d_valid(&img, &k);
        assert_eq!(out.shape(), gpuflow_graph::Shape::new(2, 2));
        assert!(out.as_slice().iter().all(|&v| v == 4.0));
    }

    #[test]
    fn known_small_case() {
        // img = [1 2; 3 4], k = [1 0; 0 1] -> single output 1*1 + 4*1 = 5.
        let img = Tensor::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let k = Tensor::from_vec(2, 2, vec![1.0, 0.0, 0.0, 1.0]);
        let out = conv2d_valid(&img, &k);
        assert_eq!(out.as_slice(), &[5.0]);
    }

    #[test]
    fn output_shape_matches_paper_example() {
        // §3.2: 100x100 convolved with 5x5 -> 96x96.
        let img = Tensor::zeros(100, 100);
        let k = Tensor::zeros(5, 5);
        assert_eq!(
            conv2d_valid(&img, &k).shape(),
            gpuflow_graph::Shape::new(96, 96)
        );
    }

    #[test]
    fn split_by_rows_with_halo_agrees_with_whole() {
        // The operator-splitting rule for convolutions: output rows [a,b)
        // need input rows [a, b + kr - 1). Verify numerically.
        let img = Tensor::from_fn(20, 11, |r, c| ((r * 31 + c * 7) % 13) as f32);
        let k = Tensor::from_fn(4, 3, |r, c| (r + c) as f32 - 2.0);
        let whole = conv2d_valid(&img, &k);
        let (or, kr) = (whole.rows(), k.rows());
        let half = or / 2;
        let top = conv2d_valid(&img.view(0, 0, half + kr - 1, 11), &k);
        let bot = conv2d_valid(&img.view(half, 0, (or - half) + kr - 1, 11), &k);
        let mut stitched = Tensor::zeros(whole.rows(), whole.cols());
        stitched.paste(&top, 0, 0);
        stitched.paste(&bot, half, 0);
        assert_eq!(stitched, whole);
    }

    #[test]
    #[should_panic(expected = "smaller than kernel")]
    fn rejects_small_image() {
        conv2d_valid(&Tensor::zeros(2, 2), &Tensor::zeros(3, 3));
    }
}
