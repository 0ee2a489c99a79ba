//! Backpressure with a sending consumer: in the SAP exchange each
//! provider streams its whole dataset to a peer before it reads its own
//! session queue, and the exchange plan always holds a cycle (a provider
//! mapped to itself, or a ring of providers). A provider whose incoming
//! stream outgrows its session queue must be paced until its role turns
//! to receiving — never made to wait on itself, never shed.

use sap_repro::core::session::SapConfig;
use sap_repro::datasets::generator::{generate, MixtureSpec};
use sap_repro::datasets::normalize::min_max_normalize;
use sap_repro::datasets::partition::{partition, PartitionScheme};
use sap_repro::datasets::registry::UciDataset;
use sap_repro::net::mux::DEFAULT_SESSION_QUEUE;
use sap_repro::net::transport::Transport;
use sap_repro::server::{SapServer, ServerConfig};
use std::time::Duration;

const K: usize = 3;

/// One-row blocks, so every provider streams more blocks than one
/// session queue holds.
fn run_overfull_session<T: Transport + 'static>(server: &SapServer<T>) {
    let rows = K * (DEFAULT_SESSION_QUEUE + 40);
    let spec = MixtureSpec {
        num_records: rows,
        ..UciDataset::Iris.spec()
    };
    let (pooled, _) = min_max_normalize(&generate(&spec, 11));
    let config = SapConfig {
        block_rows: 1,
        timeout: Duration::from_secs(120),
        ..SapConfig::quick_test()
    };
    let id = server
        .submit(partition(&pooled, K, PartitionScheme::Uniform, 12), &config)
        .unwrap();
    let outcome = server.wait(id, Some(Duration::from_secs(300))).unwrap();
    assert_eq!(outcome.unified.len(), rows);
    let m = server.metrics();
    assert_eq!(m.shed_frames, 0, "{m:?}");
    assert_eq!(m.sessions_failed, 0, "{m:?}");
}

fn config() -> ServerConfig {
    ServerConfig {
        max_parties: K,
        ..ServerConfig::default()
    }
}

#[test]
fn in_memory_provider_streaming_past_its_queue_completes_unshed() {
    run_overfull_session(&SapServer::in_memory(config()).unwrap());
}

#[test]
fn tcp_provider_streaming_past_its_queue_completes_unshed() {
    run_overfull_session(&SapServer::local_tcp(config()).unwrap());
}
