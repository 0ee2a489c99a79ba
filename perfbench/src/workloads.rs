//! The five workloads: what each sends, to what, and why it exists.
//!
//! Configurations name only the fields a workload sets and take the rest
//! from the crates' own defaults, so the benchmark follows whatever path
//! the repo ships as production and never selects a reference path.

use crate::front::Front;
use crate::inputs::Shape;
use sap_core::session::SapConfig;
use sap_core::QosClass;
use sap_fleet::{Fleet, FleetConfig};
use sap_net::sim::FaultConfig;
use sap_server::{SapServer, ServerConfig};
use std::time::Duration;

/// How sessions are offered.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Offer {
    /// Callers that each wait for a reply: `window` sessions are kept
    /// outstanding, the next is sent only when one completes.
    Closed { window: usize },
    /// Independent users: Poisson arrivals at a fixed rate, sent whether
    /// or not earlier sessions finished. `second_class_per_ten` of every
    /// ten arrivals are of the workload's second class.
    Open {
        rate_per_s: f64,
        second_class_per_ten: usize,
    },
}

/// One kind of session within a workload.
#[derive(Debug, Clone, Copy)]
pub struct Class {
    pub name: &'static str,
    pub shape: Shape,
    /// Distinct generated inputs the sessions of this class cycle
    /// through (each session still gets its own protocol seed). The
    /// privacy guarantee depends mostly on the data, so
    /// `rho_unified_mean` is only as steady across seeds as this many
    /// datasets make it.
    pub pool: usize,
    /// Latency limit a session of this class is held to, if any.
    pub limit_s: Option<f64>,
}

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub offer: Offer,
    /// Untimed sessions run before the clock starts.
    pub warmup: usize,
    pub classes: &'static [Class],
    /// Builds the service; `capacity` is the most sessions the generator
    /// will ever have registered at once.
    pub front: fn(capacity: usize) -> Result<Box<dyn Front>, String>,
    /// Protocol settings of one session of class `class`.
    pub config: fn(class: usize, seed: u64) -> SapConfig,
}

const fn one_class(shape: Shape, pool: usize) -> [Class; 1] {
    [Class {
        name: "interactive",
        shape,
        pool,
        limit_s: None,
    }]
}

// ---- bulk_stream -----------------------------------------------------

static BULK_CLASSES: [Class; 1] = one_class(
    Shape {
        providers: 4,
        rows_each: 10_000,
        dim: 16,
    },
    4,
);

fn tcp_front(capacity: usize) -> Result<Box<dyn Front>, String> {
    let server = SapServer::local_tcp(ServerConfig {
        max_parties: 4,
        max_concurrent: capacity,
        ..ServerConfig::default()
    })
    .map_err(|e| e.to_string())?;
    Ok(Box::new(server))
}

fn bulk_config(_class: usize, seed: u64) -> SapConfig {
    SapConfig {
        seed,
        block_rows: 256,
        timeout: Duration::from_secs(60),
        ..SapConfig::quick_test()
    }
}

// ---- optimize_heavy --------------------------------------------------

static OPTIMIZE_CLASSES: [Class; 1] = one_class(
    Shape {
        providers: 4,
        rows_each: 500,
        dim: 10,
    },
    32,
);

fn memory_front(capacity: usize) -> Result<Box<dyn Front>, String> {
    let server = SapServer::in_memory(ServerConfig {
        max_parties: 4,
        max_concurrent: capacity,
        ..ServerConfig::default()
    })
    .map_err(|e| e.to_string())?;
    Ok(Box::new(server))
}

fn optimize_config(_class: usize, seed: u64) -> SapConfig {
    SapConfig {
        seed,
        timeout: Duration::from_secs(60),
        ..SapConfig::default()
    }
}

// ---- wan_overlap and fleet_forward -----------------------------------

/// One-way link latency injected on every send of the two sleep-bound
/// closed loops.
const LINK_LATENCY: Duration = Duration::from_millis(5);

static WAN_CLASSES: [Class; 1] = one_class(
    Shape {
        providers: 4,
        rows_each: 600,
        dim: 12,
    },
    32,
);

/// Settings of both sleep-bound closed loops (`wan_overlap`,
/// `fleet_forward`).
fn wan_config(_class: usize, seed: u64) -> SapConfig {
    SapConfig {
        seed,
        block_rows: 32,
        timeout: Duration::from_secs(60),
        fault_config: Some(FaultConfig {
            send_latency: LINK_LATENCY,
            ..FaultConfig::default()
        }),
        ..SapConfig::quick_test()
    }
}

static FLEET_CLASSES: [Class; 1] = one_class(
    Shape {
        providers: 4,
        rows_each: 240,
        dim: 8,
    },
    32,
);

fn fleet_front(capacity: usize) -> Result<Box<dyn Front>, String> {
    let fleet = Fleet::in_memory(FleetConfig {
        nodes: 2,
        server: ServerConfig {
            max_parties: 4,
            max_concurrent: capacity,
            // One gang per node: the second node, not a bigger pool, is
            // what lets two sessions run at once.
            worker_threads: 5,
            ..ServerConfig::default()
        },
        ..FleetConfig::default()
    })
    .map_err(|e| e.to_string())?;
    Ok(Box::new(fleet))
}

// ---- mixed_open ------------------------------------------------------

/// Class indices of `mixed_open` (also the server's histogram order).
pub const INTERACTIVE: usize = 0;
pub const BATCH: usize = 1;

static MIXED_CLASSES: [Class; 2] = [
    Class {
        name: "interactive",
        shape: Shape {
            providers: 3,
            rows_each: 24,
            dim: 6,
        },
        pool: 64,
        limit_s: Some(0.050),
    },
    Class {
        name: "batch",
        shape: Shape {
            providers: 3,
            rows_each: 800,
            dim: 6,
        },
        pool: 16,
        limit_s: None,
    },
];

fn mixed_front(capacity: usize) -> Result<Box<dyn Front>, String> {
    let server = SapServer::in_memory(ServerConfig {
        max_parties: 3,
        // Server-level admission must never be the queue being
        // measured: that is the pool's gang queue.
        max_concurrent: capacity,
        max_queued: capacity,
        // The pool fits exactly one 3-provider gang: a single-server
        // queue, so waiting — not work — is the latency.
        worker_threads: 4,
        heartbeat_interval: Duration::ZERO,
        ..ServerConfig::default()
    })
    .map_err(|e| e.to_string())?;
    Ok(Box::new(server))
}

fn mixed_config(class: usize, seed: u64) -> SapConfig {
    let mut config = SapConfig {
        seed,
        timeout: Duration::from_secs(60),
        session_budget: Duration::from_secs(60),
        // A 0.5 ms link makes service time mostly sleep (about 8 ms
        // interactive, 35 ms batch — more rows, so more blocks to send):
        // what is left to vary is the queueing this workload is about,
        // not how fast the host's cores happen to be this minute.
        fault_config: Some(FaultConfig {
            send_latency: Duration::from_micros(500),
            ..FaultConfig::default()
        }),
        ..SapConfig::quick_test()
    };
    if class == BATCH {
        config.qos = QosClass::Batch;
    }
    config
}

// ---- the table -------------------------------------------------------

pub static WORKLOADS: [Workload; 5] = [
    Workload {
        name: "bulk_stream",
        why: "Data plane bound: 40 000 rows x 16 dims per session over localhost TCP with a 4-candidate optimizer; loads perturb, encode, seal, reactor, relay, decode, adapt.",
        offer: Offer::Closed { window: 2 },
        warmup: 4,
        classes: &BULK_CLASSES,
        front: tcp_front,
        config: bulk_config,
    },
    Workload {
        name: "optimize_heavy",
        why: "Optimizer bound: 2 000 rows x 10 dims in memory with the default 32-candidate ICA optimizer; loads privacy, ica and wide linalg while net idles. Mirror image of bulk_stream.",
        offer: Offer::Closed { window: 2 },
        warmup: 2,
        classes: &OPTIMIZE_CLASSES,
        front: memory_front,
        config: optimize_config,
    },
    Workload {
        name: "wan_overlap",
        why: "Sleep bound: 5 ms per send over TCP, 8 sessions outstanding, 32-row blocks; wall time is how well runtime, mux and relay overlap latency. CPU-only gains must leave it flat.",
        offer: Offer::Closed { window: 8 },
        warmup: 8,
        classes: &WAN_CLASSES,
        front: tcp_front,
        config: wan_config,
    },
    Workload {
        name: "mixed_open",
        why: "Queueing bound: open loop, Poisson 32 sessions/s, 80% interactive / 20% batch (33x the rows) over 0.5 ms links on a pool that fits one gang; admission, QoS priority and aging set the latency.",
        offer: Offer::Open {
            rate_per_s: 32.0,
            second_class_per_ten: 2,
        },
        warmup: 10,
        classes: &MIXED_CLASSES,
        front: mixed_front,
        config: mixed_config,
    },
    Workload {
        name: "fleet_forward",
        why: "Two-node fleet, one gang per node, round-robin gateways, 5 ms links: covers ring placement, the control-plane codec and cross-node registration forwarding.",
        offer: Offer::Closed { window: 4 },
        warmup: 4,
        classes: &FLEET_CLASSES,
        front: fleet_front,
        config: wan_config,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// Most sessions ever registered with the front at once, for a run
    /// measuring `seconds`.
    pub fn capacity(&self, seconds: f64) -> usize {
        match self.offer {
            Offer::Closed { window } => window.max(self.warmup),
            // Every arrival of the run: admission control is not what
            // this workload measures.
            Offer::Open { rate_per_s, .. } => (rate_per_s * seconds).round() as usize + self.warmup,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_fit_the_contract_and_are_unique() {
        let ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        assert!(names.iter().all(|n| ok(n)));
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), WORKLOADS.len());
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(find(w.name).is_some());
        }
    }

    #[test]
    fn open_loop_has_its_second_class_and_room_for_every_arrival() {
        for w in &WORKLOADS {
            match w.offer {
                Offer::Closed { window } => {
                    assert_eq!(w.classes.len(), 1, "{}", w.name);
                    assert!(w.capacity(20.0) >= window);
                }
                Offer::Open { rate_per_s, .. } => {
                    assert_eq!(w.classes.len(), 2, "{}", w.name);
                    assert!(w.capacity(20.0) as f64 >= rate_per_s * 20.0);
                }
            }
        }
    }
}
