//! Block-partition invariance of the streaming data plane: for any
//! dataset and session shape, the chunking grain `block_rows` is
//! invisible in the outcome. One row per block (the most frames), a
//! random grain, and one block larger than every partition produce
//! **byte-identical** [`SapOutcome`]s — same unified records (bitwise),
//! reports, forwarders and target space. Only the relayed block count,
//! which the grain determines, and the timing-dependent `stream`
//! statistics differ.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sap_repro::core::session::{run_session, SapConfig, SapOutcome};
use sap_repro::datasets::partition::{partition, PartitionScheme};
use sap_repro::datasets::Dataset;
use std::time::Duration;

fn random_locals(seed: u64, rows: usize, dim: usize, k: usize) -> Vec<Dataset> {
    let m = sap_repro::linalg::randn_matrix(dim, rows, &mut StdRng::seed_from_u64(seed));
    let labels = (0..rows).map(|i| i % 3).collect();
    let pooled = Dataset::from_column_matrix(&m, labels, 3);
    partition(&pooled, k, PartitionScheme::Uniform, seed ^ 0xA5)
}

fn config(seed: u64, block_rows: usize) -> SapConfig {
    SapConfig {
        seed,
        block_rows,
        timeout: Duration::from_secs(30),
        ..SapConfig::quick_test()
    }
}

/// Field-by-field bitwise comparison of everything the grain must not
/// change.
fn assert_outcomes_identical(a: &SapOutcome, b: &SapOutcome) {
    assert_eq!(a.unified, b.unified, "unified datasets differ");
    assert_eq!(
        a.forwarder_of_slot, b.forwarder_of_slot,
        "forwarder assignments differ"
    );
    assert_eq!(a.identifiability, b.identifiability);
    assert_eq!(a.target, b.target, "target spaces differ");
    assert_eq!(a.reports.len(), b.reports.len());
    for (x, y) in a.reports.iter().zip(&b.reports) {
        assert_eq!(x.provider, y.provider);
        assert_eq!(x.rho_local.to_bits(), y.rho_local.to_bits(), "rho_local");
        assert_eq!(
            x.rho_unified.to_bits(),
            y.rho_unified.to_bits(),
            "rho_unified"
        );
        assert_eq!(
            x.satisfaction.to_bits(),
            y.satisfaction.to_bits(),
            "satisfaction"
        );
        assert_eq!(x.optimizer_history.len(), y.optimizer_history.len());
        for (p, q) in x.optimizer_history.iter().zip(&y.optimizer_history) {
            assert_eq!(p.to_bits(), q.to_bits(), "optimizer history");
        }
    }
}

/// Runs the same session at one row per block, at `grain`, and in one
/// block per partition, and checks the three outcomes agree.
fn grains_agree(seed: u64, rows: usize, dim: usize, k: usize, grain: usize) {
    let locals = random_locals(seed, rows, dim, k);
    let mut first: Option<SapOutcome> = None;
    for block_rows in [1, grain, rows + 1] {
        let outcome = run_session(locals.clone(), &config(seed, block_rows))
            .unwrap_or_else(|e| panic!("block_rows {block_rows}: {e}"));
        // Every partition travels once through the relay hop, cut into
        // ceil(len / block_rows) blocks.
        let blocks: usize = locals.iter().map(|l| l.len().div_ceil(block_rows)).sum();
        assert_eq!(
            outcome.relayed_blocks, blocks as u64,
            "block_rows {block_rows}"
        );
        assert!(outcome.stream.blocks_streamed > 0);
        match &first {
            None => first = Some(outcome),
            Some(reference) => assert_outcomes_identical(reference, &outcome),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random datasets, session shapes, and block sizes: the grain must
    /// not change a single bit of the outcome.
    #[test]
    fn block_partitions_agree_on_random_sessions(
        seed in any::<u64>(),
        rows in 24usize..100,
        dim in 2usize..5,
        k in 3usize..5,
        grain in 1usize..40,
    ) {
        grains_agree(seed, rows, dim, k, grain);
    }
}

/// The degenerate chunking grains on a fixed session: one row per block
/// (maximum frame count), a small grain, and blocks larger than any
/// provider's partition (the whole dataset in a single block).
#[test]
fn edge_block_sizes_agree() {
    grains_agree(0xB10C, 40, 3, 3, 7);
    grains_agree(0xB10C, 40, 3, 3, 10_000);
}

/// The streaming plane must pipeline the relay hop when streams span
/// several blocks: blocks are forwarded while their stream is still
/// arriving.
#[test]
fn streaming_plane_actually_pipelines() {
    let outcome =
        run_session(random_locals(7, 96, 4, 4), &config(7, 4)).expect("streaming session");
    assert!(
        outcome.stream.pipelined_blocks > 0,
        "relay pump never forwarded a block in flight: {:?}",
        outcome.stream
    );
    assert!(outcome.stream.max_streams_in_flight >= 1);
}
