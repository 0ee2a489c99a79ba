//! End-to-end coverage for the ICA attack path: a full SAP session over
//! real localhost TCP, through the multi-session server runtime, with
//! `use_ica: true` — the configuration the engine made the default. Before the engine, ICA had no integration coverage at all
//! (it was off by default because it blew the per-candidate budget).

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use sap_repro::core::session::SapConfig;
use sap_repro::datasets::partition::{partition, PartitionScheme};
use sap_repro::datasets::Dataset;
use sap_repro::linalg::Matrix;
use sap_repro::privacy::OptimizerConfig;
use sap_repro::server::{SapServer, ServerConfig};
use std::time::Duration;

/// Independent non-Gaussian attributes — the case FastICA separates
/// best (on small correlated samples FastICA may legitimately diverge
/// and decline).
fn pooled_dataset() -> Dataset {
    let mut rng = StdRng::seed_from_u64(0x1CA);
    let n = 240;
    let m = Matrix::from_fn(3, n, |r, _| {
        let u: f64 = rng.random_range(0.0..1.0);
        u + 0.1 * r as f64
    });
    let labels = (0..n).map(|i| i % 2).collect();
    Dataset::from_column_matrix(&m, labels, 2)
}

#[test]
fn ica_enabled_session_over_tcp_through_server() {
    let server = SapServer::local_tcp(ServerConfig {
        max_parties: 3,
        ..ServerConfig::default()
    })
    .expect("bind TCP mesh");

    let pooled = pooled_dataset();
    let locals = partition(&pooled, 3, PartitionScheme::Uniform, 12);

    // Quick scale, but with the ICA attack on.
    let config = SapConfig {
        optimizer: OptimizerConfig {
            candidates: 6,
            eval_sample: 64,
            known_points: 4,
            use_ica: true,
            ..OptimizerConfig::default()
        },
        timeout: Duration::from_secs(60),
        ..SapConfig::quick_test()
    };

    let id = server.submit(locals, &config).expect("submit");
    let outcome = server
        .wait(id, Some(Duration::from_secs(120)))
        .expect("ICA-enabled session over TCP");

    assert_eq!(outcome.unified.len(), pooled.len());
    assert_eq!(outcome.reports.len(), 3);
    for report in &outcome.reports {
        let stats = &report.optimizer;
        assert!(stats.ica, "ICA must be on the attack ladder");
        assert_eq!(stats.candidates, 6);
        // The winner is fully scored, so ICA runs at least once; a fit may
        // still decline (no convergence), so `ica_applied` can be 0 here.
        assert!(stats.ica_fits >= 1, "ICA never ran on {stats:?}");
        assert!(stats.ica_applied <= stats.ica_fits, "{stats:?}");
        assert!(report.rho_local.is_finite() && report.rho_local >= 0.0);
    }

    // The session's engine telemetry flows into the server metrics.
    let summary = outcome.optimizer_summary();
    assert_eq!(summary.candidates_evaluated, 18);
    assert!(summary.candidates_pruned > 0);
    assert!(summary.wall_s > 0.0);

    let metrics = server.metrics();
    assert_eq!(metrics.sessions_completed, 1);
    assert_eq!(metrics.optimizer_candidates_evaluated, 18);
    assert_eq!(
        metrics.optimizer_candidates_pruned,
        summary.candidates_pruned
    );
    assert!(metrics.optimizer_wall_s > 0.0);
}
