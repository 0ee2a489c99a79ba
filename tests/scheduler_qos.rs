//! QoS gang-scheduler properties, pinned at two levels:
//!
//! * **Pool level** (proptest): under random gang sizes, classes, and
//!   arrival orders, the scheduler never runs more tasks than it has
//!   workers (`committed <= workers` — the invariant that keeps a fixed
//!   pool of blocking actors deadlock-free), never starves an aged batch
//!   gang behind a continuous interactive stream, and sheds exactly the
//!   gangs whose deadline budget provably cannot be met.
//! * **Server level**: an interactive session submitted behind a queued
//!   batch backlog overtakes it, and a queued session with a hopeless
//!   budget is shed with a typed [`SapError::AdmissionShed`] instead of
//!   burning pool time on a guaranteed `DeadlineExceeded`.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sap_repro::core::session::SapConfig;
use sap_repro::core::{
    ActorPool, Deadline, Gang, QosClass, SapError, SchedulerConfig, SessionStatus,
};
use sap_repro::datasets::partition::{partition, PartitionScheme};
use sap_repro::datasets::Dataset;
use sap_repro::linalg::randn_matrix;
use sap_repro::server::{SapServer, ServerConfig, ServerError};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Spins until `counter` reaches `target` (10s ceiling, far above any
/// schedule this file produces). Returns whether the target was reached.
fn wait_for(counter: &AtomicUsize, target: usize) -> bool {
    let deadline = Instant::now() + Duration::from_secs(10);
    while counter.load(Ordering::SeqCst) < target {
        if Instant::now() > deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    true
}

/// Tiny deterministic generator for gang shapes — keeps the property
/// cases reproducible from a single proptest-drawn seed.
fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state | 1;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The load-bearing invariant: however gangs arrive (random sizes,
    /// random classes, all three supported pool widths), the number of
    /// tasks running at any instant never exceeds the worker count, and
    /// every admitted gang still completes.
    #[test]
    fn committed_never_exceeds_workers(seed in any::<u64>(), gangs in 4usize..10) {
        for &workers in &[1usize, 2, 4] {
            let pool = ActorPool::with_config(workers, SchedulerConfig::default());
            let running = Arc::new(AtomicUsize::new(0));
            let high_water = Arc::new(AtomicUsize::new(0));
            let done = Arc::new(AtomicUsize::new(0));
            let mut state = seed ^ (workers as u64);
            let mut total_tasks = 0usize;

            for _ in 0..gangs {
                let size = (xorshift(&mut state) as usize % workers) + 1;
                let class = if xorshift(&mut state) & 1 == 0 {
                    QosClass::Interactive
                } else {
                    QosClass::Batch
                };
                let mut gang = Gang::new(class);
                for _ in 0..size {
                    total_tasks += 1;
                    let running = Arc::clone(&running);
                    let high_water = Arc::clone(&high_water);
                    let done = Arc::clone(&done);
                    gang.push(move || {
                        let now = running.fetch_add(1, Ordering::SeqCst) + 1;
                        high_water.fetch_max(now, Ordering::SeqCst);
                        std::thread::sleep(Duration::from_millis(1));
                        running.fetch_sub(1, Ordering::SeqCst);
                        done.fetch_add(1, Ordering::SeqCst);
                    });
                }
                pool.submit(gang).expect("gang fits the pool");
            }

            prop_assert!(wait_for(&done, total_tasks), "all gangs must finish");
            let peak = high_water.load(Ordering::SeqCst);
            prop_assert!(
                peak <= workers,
                "saw {} concurrent tasks on a {}-worker pool", peak, workers
            );
            let stats = pool.stats();
            prop_assert_eq!(stats.gangs_admitted, gangs as u64);
            prop_assert_eq!(stats.gangs_shed, 0);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Strict priority must not become starvation: a batch gang queued
    /// behind a continuous interactive stream is promoted once it ages
    /// past the threshold and completes while interactive work is still
    /// arriving.
    #[test]
    fn aged_batch_gang_is_never_starved(task_ms in 1u64..4, feedstream in 40usize..80) {
        let pool = Arc::new(ActorPool::with_config(
            1,
            SchedulerConfig {
                batch_aging: Duration::from_millis(25),
            },
        ));
        let batch_done = Arc::new(AtomicUsize::new(0));
        let interactive_done = Arc::new(AtomicUsize::new(0));

        // A blocker pins the lone worker past the aging threshold so the
        // batch gang genuinely queues; behind it, an interactive stream
        // long enough (feedstream × task_ms >> 25ms aging) that strict
        // priority alone would hold the batch gang back until the stream
        // ends.
        {
            let mut blocker = Gang::new(QosClass::Interactive);
            blocker.push(|| std::thread::sleep(Duration::from_millis(30)));
            pool.submit(blocker).expect("submit blocker gang");
        }
        {
            let done = Arc::clone(&batch_done);
            let mut gang = Gang::new(QosClass::Batch);
            gang.push(move || {
                done.fetch_add(1, Ordering::SeqCst);
            });
            pool.submit(gang).expect("submit batch gang");
        }
        let feeder = {
            let pool = Arc::clone(&pool);
            let interactive_done = Arc::clone(&interactive_done);
            let batch_done = Arc::clone(&batch_done);
            std::thread::spawn(move || {
                let mut fed = 0usize;
                while fed < feedstream && batch_done.load(Ordering::SeqCst) == 0 {
                    let done = Arc::clone(&interactive_done);
                    let mut gang = Gang::new(QosClass::Interactive);
                    gang.push(move || {
                        std::thread::sleep(Duration::from_millis(task_ms));
                        done.fetch_add(1, Ordering::SeqCst);
                    });
                    pool.submit(gang).expect("submit interactive gang");
                    fed += 1;
                    // Arrivals at half the service time: the interactive
                    // queue stays non-empty the whole run.
                    std::thread::sleep(Duration::from_micros(task_ms * 500));
                }
                fed
            })
        };

        prop_assert!(
            wait_for(&batch_done, 1),
            "batch gang starved behind the interactive stream"
        );
        let fed = feeder.join().expect("feeder thread");
        prop_assert!(
            interactive_done.load(Ordering::SeqCst) < fed || fed < feedstream,
            "batch completed only after the stream dried up"
        );
        prop_assert!(pool.stats().gangs_promoted >= 1, "aging must promote");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Admission sheds exactly the provably-unmeetable gangs: an already
    /// spent budget is shed without ever running a task, while generous
    /// and unbounded deadlines always survive to completion — whatever
    /// order the two kinds arrive in.
    #[test]
    fn sheds_only_provably_unmeetable_budgets(seed in any::<u64>(), gangs in 6usize..12) {
        let pool = ActorPool::new(2);
        let ran = Arc::new(AtomicUsize::new(0));
        let doomed_ran = Arc::new(AtomicUsize::new(0));
        let shed = Arc::new(AtomicUsize::new(0));
        let mut state = seed;
        let mut doomed = 0usize;
        let mut viable_tasks = 0usize;

        for _ in 0..gangs {
            let roll = xorshift(&mut state);
            let class = if roll & 1 == 0 { QosClass::Interactive } else { QosClass::Batch };
            let mut gang = Gang::new(class);
            if roll & 2 == 0 {
                // Hopeless: the budget is already exhausted at submit.
                doomed += 1;
                let doomed_ran = Arc::clone(&doomed_ran);
                gang.push(move || {
                    doomed_ran.fetch_add(1, Ordering::SeqCst);
                });
                gang.set_deadline(Deadline::after(Duration::ZERO));
                let shed = Arc::clone(&shed);
                gang.set_on_shed(move |info| {
                    assert_eq!(info.remaining, Duration::ZERO, "nothing left of the budget");
                    shed.fetch_add(1, Ordering::SeqCst);
                });
            } else {
                // Viable: generous or unbounded budget; must never shed.
                let size = (roll as usize >> 2) % 2 + 1;
                for _ in 0..size {
                    viable_tasks += 1;
                    let ran = Arc::clone(&ran);
                    gang.push(move || {
                        ran.fetch_add(1, Ordering::SeqCst);
                    });
                }
                gang.set_deadline(if roll & 4 == 0 {
                    Deadline::unbounded()
                } else {
                    Deadline::after(Duration::from_secs(600))
                });
                gang.set_on_shed(|_| panic!("viable gang shed"));
            }
            pool.submit(gang).expect("gang fits the pool");
        }

        prop_assert!(wait_for(&ran, viable_tasks), "every viable gang must run");
        prop_assert!(wait_for(&shed, doomed), "every doomed gang must shed");
        prop_assert_eq!(doomed_ran.load(Ordering::SeqCst), 0);
        let stats = pool.stats();
        prop_assert_eq!(stats.gangs_shed, doomed as u64);
        prop_assert_eq!(stats.gangs_admitted, (gangs - doomed) as u64);
    }
}

// ---------------------------------------------------------------------------
// Server level: QosClass threaded through SapConfig into real sessions.
// ---------------------------------------------------------------------------

const PROVIDERS: usize = 3;

fn locals(records: usize, seed: u64) -> Vec<Dataset> {
    let mut rng = StdRng::seed_from_u64(seed);
    let m = randn_matrix(6, records, &mut rng);
    let labels = (0..records).map(|i| i % 2).collect();
    let pooled = Dataset::from_column_matrix(&m, labels, 2);
    partition(&pooled, PROVIDERS, PartitionScheme::Uniform, seed ^ 0x77)
}

fn config(class: QosClass, seed: u64, budget: Duration) -> SapConfig {
    let mut cfg = SapConfig {
        seed,
        qos: class,
        session_budget: budget,
        timeout: Duration::from_secs(60),
        ..SapConfig::quick_test()
    };
    if class == QosClass::Batch {
        // Make batch sessions a genuine head-of-line block (~tens of ms
        // of optimizer work) so overtaking is observable.
        cfg.optimizer.candidates = 16;
        cfg.optimizer.eval_sample = 600;
    }
    cfg
}

/// One gang at a time (`worker_threads == PROVIDERS + 1`), so sessions
/// strictly serialize through the pool and queueing order is observable.
fn qos_server() -> SapServer<sap_repro::net::transport::Endpoint> {
    SapServer::in_memory(ServerConfig {
        max_parties: PROVIDERS,
        max_concurrent: 16,
        max_queued: 16,
        worker_threads: PROVIDERS + 1,
        heartbeat_interval: Duration::ZERO,
        scheduler: SchedulerConfig {
            // Aging out of scope here: keep it far above the test horizon.
            batch_aging: Duration::from_secs(600),
        },
        ..ServerConfig::default()
    })
    .expect("bind in-memory server")
}

const WAIT: Option<Duration> = Some(Duration::from_secs(120));

/// An interactive session submitted *last*, behind a batch backlog, must
/// finish before the backlog drains — the server-level face of strict
/// priority.
#[test]
fn interactive_session_overtakes_queued_batch_backlog() {
    let srv = qos_server();
    let batch_ids: Vec<_> = (0..3u64)
        .map(|i| {
            srv.submit(
                locals(2_400, 40 + i),
                &config(QosClass::Batch, 90 + i, Duration::from_secs(120)),
            )
            .expect("admit batch session")
        })
        .collect();
    let interactive = srv
        .submit(
            locals(72, 7),
            &config(QosClass::Interactive, 99, Duration::from_secs(120)),
        )
        .expect("admit interactive session");

    srv.wait(interactive, WAIT).expect("interactive session");
    let batch_done = batch_ids
        .iter()
        .filter(|&&id| matches!(srv.poll(id), Ok(SessionStatus::Complete)))
        .count();
    // FIFO would drain all three batch sessions first. Under QoS the
    // interactive session is admitted as soon as the *currently running*
    // batch gang finishes, so at least two batch sessions are still
    // outstanding the moment it completes.
    assert!(
        batch_done <= 1,
        "interactive session failed to overtake: {batch_done}/3 batch sessions already done"
    );

    for id in batch_ids {
        srv.wait(id, WAIT).expect("batch session");
    }
    let metrics = srv.metrics();
    assert_eq!(metrics.sessions_completed, 4);
    assert_eq!(metrics.sessions_shed, 0);
    assert_eq!(metrics.latency_histogram.interactive.queue_wait.count(), 1);
    assert_eq!(metrics.latency_histogram.batch.service.count(), 3);
}

/// A queued session whose budget is provably unmeetable is shed with the
/// typed error and counted, without consuming pool capacity.
#[test]
fn hopeless_budget_session_is_shed_with_typed_error() {
    let srv = qos_server();
    // Occupy the pool so the doomed session actually queues.
    let blocker = srv
        .submit(
            locals(2_400, 50),
            &config(QosClass::Batch, 80, Duration::from_secs(120)),
        )
        .expect("admit blocker");
    let doomed = srv
        .submit(
            locals(72, 8),
            &config(QosClass::Interactive, 81, Duration::ZERO),
        )
        .expect("admission accepts; the scheduler sheds");

    match srv.wait(doomed, WAIT) {
        Err(ServerError::Session(SapError::AdmissionShed { remaining, .. })) => {
            assert_eq!(remaining, Duration::ZERO);
        }
        other => panic!("expected AdmissionShed, got {other:?}"),
    }
    srv.wait(blocker, WAIT).expect("blocker session");

    let metrics = srv.metrics();
    assert_eq!(metrics.sessions_shed, 1);
    assert_eq!(metrics.sessions_completed, 1);
}
