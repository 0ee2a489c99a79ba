//! Property tests pinning every blocked/fused compute kernel to its
//! reference implementation — **bit-for-bit**, not approximately.
//!
//! The kernels and their invariants:
//!
//! * the blocked matmul ≡ the unblocked triple loop kept here as the
//!   reference, and the register-blocked `A·Bᵀ` ≡ [`kernel::matmul_rows`],
//!   for any shape (including 1×1, ragged edges and tall narrow
//!   products) and any zero density — blocking and tiling may only
//!   change *which* elements are in flight, never an element's
//!   ascending-`k` accumulation order;
//! * bounded-heap top-`k` selection ≡ stable full sort + truncate, with
//!   duplicate distances (the index tie rule), `k ≥ n`, and `k == 0`
//!   rejected;
//! * the column-sweep perturbation ≡ the staged two-pass dot-product
//!   path it replaced ([`perturb_records_staged`], kept here as the
//!   reference), and the column-sweep adaptation ≡ the monolithic
//!   [`SpaceAdaptor::apply`], both over rotations with exact zeros and
//!   records holding NaN and ±inf;
//! * the flat record-major `Dataset`: its checked constructor, its
//!   records view, its slice-copy reshapes and its wire encoding, which
//!   must stay the nested-vector bytes.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sap_repro::classify::topk::select_k_smallest;
use sap_repro::core::messages::encode_dataset;
use sap_repro::datasets::{Dataset, DatasetError};
use sap_repro::linalg::orthogonal::random_orthogonal;
use sap_repro::linalg::{kernel, Matrix};
use sap_repro::net::wire::Wire;
use sap_repro::perturb::noise::NoiseSpec;
use sap_repro::perturb::{GeometricPerturbation, Perturbation, SpaceAdaptor};
use std::ops::Range;

/// Deterministic pseudo-random matrix with exact `0.0` entries every
/// `zero_every`-th element (`0` disables zeros). The zero density matters
/// because the kernels' `A[i][k] == 0.0` skip is part of the pinned
/// accumulation order.
fn lcg_matrix(rows: usize, cols: usize, seed: u64, zero_every: usize) -> Matrix {
    let mut state = seed | 1;
    Matrix::from_fn(rows, cols, |r, c| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        if zero_every > 0 && (r * cols + c).is_multiple_of(zero_every) {
            0.0
        } else {
            (state % 2000) as f64 / 997.0 - 1.0
        }
    })
}

/// `lcg_matrix` with every `poison_every`-th element (`0` disables)
/// replaced by NaN, `+inf` or `−inf` in turn — records no session admits,
/// but the kernels must still treat them exactly like the reference.
fn poisoned_matrix(rows: usize, cols: usize, seed: u64, poison_every: usize) -> Matrix {
    let clean = lcg_matrix(rows, cols, seed, 0);
    Matrix::from_fn(rows, cols, |r, c| {
        let at = r * cols + c;
        if poison_every == 0 || !at.is_multiple_of(poison_every) {
            return clean[(r, c)];
        }
        [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][(at / poison_every) % 3]
    })
}

/// An orthogonal `d × d` rotation with exact zeros: two random
/// orthogonal diagonal blocks split at `split` (`0` means one dense
/// block), rows then cyclically shifted by `shift`.
fn sparse_rotation(d: usize, split: usize, shift: usize, rng: &mut StdRng) -> Matrix {
    let split = split % d;
    let blocks: Vec<(usize, Matrix)> = if split == 0 {
        vec![(0, random_orthogonal(d, rng))]
    } else {
        vec![
            (0, random_orthogonal(split, rng)),
            (split, random_orthogonal(d - split, rng)),
        ]
    };
    let mut dense = Matrix::zeros(d, d);
    for (at, block) in &blocks {
        for r in 0..block.rows() {
            for c in 0..block.cols() {
                dense[(at + r, at + c)] = block[(r, c)];
            }
        }
    }
    Matrix::from_fn(d, d, |r, c| dense[((r + shift) % d, c)])
}

/// The staged reference the column-sweep perturbation replaced: per
/// element an ascending-`k` dot product skipping zero rotation entries,
/// plus the translation; then a second pass adding the noise.
fn perturb_records_staged(
    g: &GeometricPerturbation,
    x: &Matrix,
    delta: &Matrix,
    cols: Range<usize>,
) -> Vec<f64> {
    let (d, n) = (x.rows(), x.cols());
    let (rotation, t) = (g.base().rotation(), g.base().translation());
    let data = x.as_slice();
    let mut out = Vec::with_capacity(cols.len() * d);
    for j in cols.clone() {
        for (i, &ti) in t.iter().enumerate() {
            let mut acc = 0.0;
            for (k, &a) in rotation.row(i).iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                acc += a * data[k * n + j];
            }
            out.push(acc + ti);
        }
    }
    let noise = delta.as_slice();
    for (pos, v) in out.iter_mut().enumerate() {
        let (rec, feat) = (pos / d, pos % d);
        *v += noise[feat * n + (cols.start + rec)];
    }
    out
}

/// The spec bounded-heap top-`k` is pinned to: every `(value, index)`
/// pair, stable-sorted by [`f64::total_cmp`] on the value, truncated.
fn stable_sort_top_k(values: &[f64], k: usize) -> Vec<(f64, usize)> {
    let mut pairs: Vec<(f64, usize)> = values.iter().copied().zip(0..).collect();
    pairs.sort_by(|a, b| a.0.total_cmp(&b.0));
    pairs.truncate(k);
    pairs
}

/// The spec the blocked matmul is pinned to: the unblocked i-k-j triple
/// loop, each output element accumulated from `0.0` over ascending `k`,
/// skipping zero left-factor entries.
fn triple_loop(a: &Matrix, b: &Matrix) -> Vec<f64> {
    let n = b.cols();
    let mut out = vec![0.0; a.rows() * n];
    for i in 0..a.rows() {
        for k in 0..a.cols() {
            let x = a[(i, k)];
            if x == 0.0 {
                continue;
            }
            for j in 0..n {
                out[i * n + j] += x * b[(k, j)];
            }
        }
    }
    out
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Bit equality, except that any two NaNs match: IEEE 754 leaves the
/// sign and payload of a NaN produced from NaN operands to the hardware
/// and to operand order, which the compiler may commute. A finite or
/// infinite value where the reference has NaN (or the reverse) still
/// fails — that is how a `0·inf` leak would show.
fn same_bits_or_nan(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()))
}

/// Record-major copy of a `d × N` column matrix.
fn record_major(x: &Matrix) -> Vec<f64> {
    x.transpose().into_vec()
}

/// Cuts `0..n` into consecutive blocks of pseudo-random sizes in
/// `1..=max_block`.
fn random_blocks(n: usize, max_block: usize, seed: u64) -> Vec<Range<usize>> {
    let mut state = seed | 1;
    let mut blocks = Vec::new();
    let mut start = 0;
    while start < n {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let end = (start + 1 + (state as usize) % max_block).min(n);
        blocks.push(start..end);
        start = end;
    }
    blocks
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The public entry points: `matmul`, and `matmul_into` over a
    /// buffer holding a previous product, match the triple loop bit for
    /// bit at every shape up to 40³.
    #[test]
    fn matmul_is_bit_identical_across_paths_and_workers(
        m in 1usize..40,
        k in 1usize..40,
        n in 1usize..40,
        seed in 0u64..(1 << 16),
        zero_every in 0usize..4,
    ) {
        let a = lcg_matrix(m, k, seed, zero_every);
        let b = lcg_matrix(k, n, seed ^ 0x5a5a, zero_every);

        let reference = triple_loop(&a, &b);
        let mut got = a.matmul(&b).expect("conforming shapes");
        prop_assert_eq!(bits(&reference), bits(got.as_slice()));
        a.matmul_into(&b, &mut got).expect("conforming shapes");
        prop_assert_eq!(bits(&reference), bits(got.as_slice()));
    }

    /// Tall row streams against a narrow right factor (`m ≥ 128`,
    /// `n ≤ 16`, `k ≤ 32`: record-block × small-rotation products) match
    /// the triple loop bit for bit.
    #[test]
    fn tall_narrow_matmul_is_bit_identical(
        m in 128usize..200,
        k in 8usize..33,
        n in 8usize..17,
        seed in 0u64..(1 << 16),
        zero_every in 0usize..4,
    ) {
        let a = lcg_matrix(m, k, seed, zero_every);
        let b = lcg_matrix(k, n, seed ^ 0x1111, zero_every);

        let got = a.matmul(&b).expect("conforming shapes");
        prop_assert_eq!(bits(&triple_loop(&a, &b)), bits(got.as_slice()));
    }

    /// Gram-style products: `A·Bᵀ` through the 4×4 transpose kernel
    /// equals the reference product against an explicitly transposed
    /// right factor.
    #[test]
    fn mul_transpose_matches_explicit_transpose(
        m in 1usize..20,
        k in 1usize..20,
        n in 1usize..20,
        seed in 0u64..(1 << 16),
        zero_every in 0usize..4,
    ) {
        let a = lcg_matrix(m, k, seed, zero_every);
        let b = lcg_matrix(n, k, seed ^ 0x77, zero_every);

        let bt = b.transpose();
        let mut reference = vec![0.0; m * n];
        kernel::matmul_rows(&a, &bt, &mut reference);

        let got = a.mul_transpose(&b).expect("conforming shapes");
        prop_assert_eq!(bits(&reference), bits(got.as_slice()));
    }

    /// Bounded-heap top-k ≡ stable sort + truncate, including duplicate
    /// distances (`dup_mod` collapses values onto a small grid so ties
    /// are common) and `k ≥ n` (the `k` range exceeds the `n` range).
    #[test]
    fn top_k_matches_stable_sort_reference(
        n in 1usize..200,
        k in 1usize..220,
        seed in 0u64..(1 << 16),
        dup_mod in 1u64..8,
    ) {
        let mut state = seed | 1;
        let values: Vec<f64> = (0..n)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state % dup_mod) as f64 / dup_mod as f64
            })
            .collect();

        let fast = select_k_smallest(values.iter().copied(), k);
        let reference = stable_sort_top_k(&values, k);

        prop_assert_eq!(fast.len(), reference.len());
        for (f, r) in fast.iter().zip(&reference) {
            prop_assert_eq!(f.0.to_bits(), r.0.to_bits());
            prop_assert_eq!(f.1, r.1);
        }
    }

    /// Column-sweep rotate+shift+noise ≡ the staged two-pass reference,
    /// for every block partition of the column range, over rotations with
    /// exact zeros and records holding NaN and ±inf.
    #[test]
    fn fused_perturbation_matches_staged(
        d in 1usize..10,
        n in 1usize..48,
        block in 1usize..48,
        seed in 0u64..(1 << 16),
        split in 0usize..10,
        poison_every in 0usize..7,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let rotation = sparse_rotation(d, split, seed as usize, &mut rng);
        let t = lcg_matrix(1, d, seed ^ 5, 0).into_vec();
        let base = Perturbation::new(rotation, t).expect("block-diagonal rotation");
        let g = GeometricPerturbation::new(base, NoiseSpec::new(0.1));
        let x = poisoned_matrix(d, n, seed ^ 3, poison_every);
        let delta = lcg_matrix(d, n, seed ^ 9, 0);

        let mut fused = Vec::new();
        let mut start = 0;
        while start < n {
            let end = (start + block).min(n);
            g.perturb_records_into(&x, &delta, start..end, &mut fused);
            let staged = perturb_records_staged(&g, &x, &delta, start..end);
            prop_assert!(same_bits_or_nan(&fused, &staged), "block {}..{}", start, end);
            start = end;
        }
    }

    /// Column-sweep `adapt_records` over a random block partition ≡ one
    /// monolithic `SpaceAdaptor::apply`, with zero rotation entries and
    /// NaN/±inf records.
    #[test]
    fn adapt_records_matches_apply(
        d in 1usize..12,
        n in 1usize..80,
        max_block in 1usize..40,
        seed in 0u64..(1 << 16),
        zero_every in 0usize..4,
        poison_every in 0usize..7,
    ) {
        let rotation = lcg_matrix(d, d, seed, zero_every);
        let translation = lcg_matrix(1, d, seed ^ 7, 0).into_vec();
        let adaptor = SpaceAdaptor::from_parts(rotation, translation).expect("square");
        let y = poisoned_matrix(d, n, seed ^ 11, poison_every);
        let reference = record_major(&adaptor.apply(&y));

        let records = record_major(&y);
        let mut adapted = vec![f64::NAN; records.len()];
        for block in random_blocks(n, max_block, seed ^ 13) {
            let span = block.start * d..block.end * d;
            adaptor.adapt_records(&records[span.clone()], &mut adapted[span]);
        }
        prop_assert!(same_bits_or_nan(&adapted, &reference));
    }

    /// `subset`, `concat` and the column-matrix round trip are exact, and
    /// the records view agrees with `record(i)` however it is walked.
    #[test]
    fn flat_dataset_reshapes_round_trip(
        d in 1usize..9,
        n in 2usize..40,
        seed in 0u64..(1 << 16),
        cut in 1usize..39,
    ) {
        let x = lcg_matrix(d, n, seed, 3);
        let labels: Vec<usize> = (0..n).map(|j| (j * 7 + seed as usize) % 3).collect();
        let data = Dataset::from_column_matrix(&x, labels.clone(), 3);
        prop_assert_eq!(data.len(), n);
        prop_assert_eq!(bits(data.to_column_matrix().as_slice()), bits(x.as_slice()));
        prop_assert_eq!(bits(data.values()), bits(&record_major(&x)));

        let records = data.records();
        prop_assert_eq!(records.iter().len(), n);
        for (i, record) in records.iter().enumerate() {
            prop_assert_eq!(record, data.record(i));
            prop_assert_eq!(&records[i], data.record(i));
            let column = x.column(i);
            prop_assert_eq!(record, column.as_slice());
        }
        let mut walked = 0;
        for record in data.records() {
            prop_assert_eq!(record.len(), d);
            walked += 1;
        }
        prop_assert_eq!(walked, n);

        let cut = cut.min(n - 1);
        let head: Vec<usize> = (0..cut).collect();
        let tail: Vec<usize> = (cut..n).collect();
        let parts = [data.subset(&head), data.subset(&tail)];
        prop_assert_eq!(&Dataset::concat(&parts), &data);
        let reversed: Vec<usize> = (0..n).rev().collect();
        let back = data.subset(&reversed).subset(&reversed);
        prop_assert_eq!(&back, &data);
        prop_assert_eq!(back.labels(), labels.as_slice());
    }

    /// The flat dataset's wire encoding is byte-for-byte the
    /// `records: Vec<Vec<f64>> ‖ labels ‖ dim ‖ num_classes` layout.
    #[test]
    fn flat_dataset_encodes_as_nested_vectors(
        d in 1usize..7,
        n in 1usize..20,
        seed in 0u64..(1 << 16),
    ) {
        let nested: Vec<Vec<f64>> = (0..n)
            .map(|j| lcg_matrix(1, d, seed ^ j as u64, 4).into_vec())
            .collect();
        let labels: Vec<usize> = (0..n).map(|j| j % 4).collect();
        let data = Dataset::with_num_classes(nested.clone(), labels.clone(), 5);

        let mut want = Vec::new();
        nested.encode(&mut want);
        labels.encode(&mut want);
        d.encode(&mut want);
        5usize.encode(&mut want);
        let mut got = Vec::new();
        encode_dataset(&data, &mut got);
        prop_assert_eq!(got, want);
    }
}

/// `Dataset::try_from_flat` reports each broken condition, first one
/// first, and takes a well-formed buffer as is.
#[test]
fn try_from_flat_reports_each_violation() {
    let ok = Dataset::try_from_flat(vec![1.0, 2.0, 3.0, 4.0], vec![0, 1], 2, 2).unwrap();
    assert_eq!((ok.len(), ok.dim(), ok.num_classes()), (2, 2, 2));
    assert_eq!(ok.record(1), &[3.0, 4.0]);
    for (values, labels, dim, classes, want) in [
        (vec![], vec![], 2, 1, DatasetError::Empty),
        (vec![], vec![0], 0, 1, DatasetError::ZeroDim),
        (
            vec![1.0, 2.0, 3.0],
            vec![0, 0],
            2,
            1,
            DatasetError::LengthMismatch,
        ),
        (vec![1.0; 4], vec![0], 2, 1, DatasetError::LengthMismatch),
        (
            vec![1.0],
            vec![0, 0],
            usize::MAX,
            1,
            DatasetError::LengthMismatch,
        ),
        (
            vec![1.0, 2.0],
            vec![0, 2],
            1,
            2,
            DatasetError::LabelOutOfRange,
        ),
    ] {
        assert_eq!(
            Dataset::try_from_flat(values, labels, dim, classes),
            Err(want)
        );
    }
}

/// The degenerate 1×1×1 product is exact.
#[test]
fn one_by_one_matmul_is_exact() {
    let a = Matrix::from_fn(1, 1, |_, _| 3.25);
    let b = Matrix::from_fn(1, 1, |_, _| -2.5);
    let got = a.matmul(&b).expect("1x1 product");
    assert_eq!(got.as_slice(), &[3.25 * -2.5]);
}

/// `k == 0` is a contract violation, not a silent empty result.
#[test]
#[should_panic(expected = "top-k selection needs k >= 1")]
fn top_k_rejects_k_zero() {
    let _ = select_k_smallest([1.0, 2.0], 0);
}

/// NaN distances order last (total order), they no longer panic.
#[test]
fn top_k_orders_nan_last_instead_of_panicking() {
    let got = select_k_smallest([f64::NAN, 1.0, 0.5], 3);
    assert_eq!(got[0], (0.5, 2));
    assert_eq!(got[1], (1.0, 1));
    assert!(got[2].0.is_nan());
    assert_eq!(got[2].1, 0);
}
