//! Everything the program under test is fed, derived from `--seed`:
//! provider datasets, per-session protocol seeds, arrival schedules.

use rand::rngs::StdRng;
use rand::{Rng, RngExt, SeedableRng};
use sap_datasets::generator::{generate, MixtureSpec};
use sap_datasets::normalize::min_max_normalize;
use sap_datasets::Dataset;
use std::time::Duration;

/// Held-out records generated alongside every session's data; the
/// mining-utility check classifies them.
pub const TEST_ROWS: usize = 200;

/// Seed streams, so that no two uses of `--seed` share random numbers.
pub const STREAM_DATA: u64 = 1;
pub const STREAM_SESSION: u64 = 2;
pub const STREAM_ARRIVALS: u64 = 3;

/// One SplitMix64 output step over a mixed state: decorrelates
/// `(seed, stream, index)` triples into independent 64-bit seeds.
pub fn derive(seed: u64, stream: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
        .wrapping_add(index.wrapping_mul(0x8CB9_2BA7_2F3D_8DD7))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Size of one session's input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shape {
    pub providers: usize,
    /// Records per provider.
    pub rows_each: usize,
    pub dim: usize,
}

impl Shape {
    /// Records the miner must end up with.
    pub fn rows(&self) -> usize {
        self.providers * self.rows_each
    }
}

/// One session's generated input.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// `locals[i]` is provider `i`'s private partition.
    pub locals: Vec<Dataset>,
    /// Records of the same distribution that no provider holds.
    pub test: Dataset,
}

/// Generates one session's data: a two-class Gaussian mixture normalised
/// to the unit box (the paper perturbs normalised data), cut into
/// equal provider partitions plus a held-out test set. The generator
/// shuffles records, so contiguous cuts are uniform random samples.
pub fn generate_inputs(shape: Shape, seed: u64) -> Inputs {
    let spec = MixtureSpec {
        dim: shape.dim,
        num_records: shape.rows() + TEST_ROWS,
        class_weights: vec![1.0, 1.0],
        // Far enough apart that a classifier has something to learn,
        // close enough that damaged geometry costs accuracy.
        separation: 2.5,
        spread: 0.1,
        binary_features: 0,
    };
    let (data, _) = min_max_normalize(&generate(&spec, seed));
    let cut = |start: usize, len: usize| {
        let idx: Vec<usize> = (start..start + len).collect();
        data.subset(&idx)
    };
    Inputs {
        test: cut(0, TEST_ROWS),
        locals: (0..shape.providers)
            .map(|p| cut(TEST_ROWS + p * shape.rows_each, shape.rows_each))
            .collect(),
    }
}

/// One open-loop arrival.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arrival {
    /// Due time, measured from the start of the run.
    pub at: Duration,
    /// Index into the workload's session classes.
    pub class: usize,
}

/// A Poisson arrival schedule at `rate_per_s` covering `seconds`,
/// conditioned on its count: exactly `rate_per_s × seconds` arrivals at
/// independent uniform times, which is what a Poisson process looks like
/// once its count is known. Every seed thus offers the same load.
/// Classes are stratified the same way: of every ten consecutive
/// arrivals exactly `second_class_per_ten` (at seed-drawn positions)
/// belong to class 1, the rest to class 0.
pub fn poisson_schedule(
    rate_per_s: f64,
    seconds: f64,
    second_class_per_ten: usize,
    seed: u64,
) -> Vec<Arrival> {
    assert!(
        rate_per_s > 0.0 && seconds > 0.0,
        "rate and span must be positive"
    );
    assert!(second_class_per_ten <= 10, "at most ten of ten");
    let mut rng = StdRng::seed_from_u64(seed);
    let count = (rate_per_s * seconds).round() as usize;
    let mut times: Vec<f64> = (0..count).map(|_| rng.next_f64() * seconds).collect();
    times.sort_by(f64::total_cmp);
    let mut block = [0usize; 10];
    times
        .into_iter()
        .enumerate()
        .map(|(i, t)| {
            if i % 10 == 0 {
                block = [0; 10];
                let mut placed = 0;
                while placed < second_class_per_ten {
                    let at = rng.random_range(0..10usize);
                    if block[at] == 0 {
                        block[at] = 1;
                        placed += 1;
                    }
                }
            }
            Arrival {
                at: Duration::from_secs_f64(t),
                class: block[i % 10],
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derive_separates_streams_and_indices() {
        let mut seen = std::collections::BTreeSet::new();
        for seed in 0..4 {
            for stream in 1..4 {
                for index in 0..16 {
                    assert!(seen.insert(derive(seed, stream, index)));
                }
            }
        }
        assert_eq!(derive(7, 2, 3), derive(7, 2, 3));
    }

    #[test]
    fn schedule_is_deterministic_in_the_seed() {
        let a = poisson_schedule(60.0, 5.0, 2, 11);
        assert_eq!(a, poisson_schedule(60.0, 5.0, 2, 11));
        assert_ne!(a, poisson_schedule(60.0, 5.0, 2, 12));
    }

    #[test]
    fn schedule_has_the_rate_the_order_and_the_mix() {
        let a = poisson_schedule(100.0, 20.0, 2, 3);
        assert_eq!(a.len(), 2_000);
        assert!(a.windows(2).all(|w| w[0].at <= w[1].at));
        assert!(a.iter().all(|x| x.at < Duration::from_secs(20)));
        for ten in a.chunks_exact(10) {
            assert_eq!(ten.iter().filter(|x| x.class == 1).count(), 2);
        }
    }

    #[test]
    fn inputs_have_the_requested_shape_and_repeat() {
        let shape = Shape {
            providers: 3,
            rows_each: 40,
            dim: 5,
        };
        let a = generate_inputs(shape, 9);
        assert_eq!(a.locals.len(), 3);
        assert!(a.locals.iter().all(|d| d.len() == 40 && d.dim() == 5));
        assert_eq!(a.test.len(), TEST_ROWS);
        let b = generate_inputs(shape, 9);
        assert_eq!(a.locals, b.locals);
        assert_ne!(a.locals, generate_inputs(shape, 10).locals);
    }
}
