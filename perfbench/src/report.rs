//! Turns a load's session records and the front's counters into metric
//! values.

use crate::front::Counters;
use crate::load::{Facts, LoadResult, SessionRecord, EXACT_SESSIONS};
use crate::procfs;
use crate::stats;
use crate::workloads::{Workload, BATCH, INTERACTIVE};

/// Metric values by name, in the order they were set.
#[derive(Debug, Default)]
pub struct Values(Vec<(&'static str, f64)>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(self.get(name).is_none(), "{name} set twice");
        self.0.push((name, value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }

    pub fn extend(&mut self, other: Values) {
        for (name, value) in other.0 {
            self.set(name, value);
        }
    }
}

/// `numerator / denominator`, or 0 when there is nothing to divide by.
pub fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator == 0.0 {
        0.0
    } else {
        numerator / denominator
    }
}

fn succeeded(load: &LoadResult) -> impl Iterator<Item = &SessionRecord> {
    load.records.iter().filter(|r| r.facts.is_ok())
}

fn latencies(load: &LoadResult, class: Option<usize>) -> Vec<f64> {
    let v: Vec<f64> = succeeded(load)
        .filter(|r| class.is_none_or(|c| r.class == c))
        .map(SessionRecord::latency_s)
        .collect();
    stats::sorted(&v)
}

/// Sessions whose outcome arrived within the measured window.
fn in_window(load: &LoadResult, seconds: f64) -> impl Iterator<Item = &SessionRecord> {
    succeeded(load).filter(move |r| r.done_s <= seconds)
}

/// Median latency of the workload's primary class: every session of a
/// closed loop, the interactive ones of the open loop.
pub fn primary_p50_s(load: &LoadResult) -> f64 {
    stats::percentile(&latencies(load, Some(0)), 0.50)
}

/// The end-to-end metrics of one untraced run.
pub fn end_to_end(load: &LoadResult, seconds: f64, setup_s: f64) -> Values {
    let mut v = Values::default();
    let completed = in_window(load, seconds).count() as f64;
    let rows: f64 = in_window(load, seconds).map(|r| r.rows as f64).sum();
    // Rates run to the last outcome inside the window, not to the
    // window's edge: the idle tail after it is the generator stopping,
    // not the service being slow.
    let span_s = in_window(load, seconds)
        .map(|r| r.done_s)
        .fold(0.0, f64::max);
    // Latency is reported for the primary class and, so that no class
    // can be starved unseen, as the median of whichever class has the
    // highest.
    let lat = latencies(load, Some(0));
    let worst_class_p50_s = (0..=load.records.iter().map(|r| r.class).max().unwrap_or(0))
        .map(|class| stats::percentile(&latencies(load, Some(class)), 0.50))
        .fold(0.0, f64::max);
    v.set("setup_s", setup_s);
    v.set("sessions_per_s", ratio(completed, span_s));
    v.set("rows_per_s", ratio(rows, span_s));
    v.set("session_p50_s", stats::percentile(&lat, 0.50));
    v.set("session_p90_s", stats::percentile(&lat, 0.90));
    v.set("worst_class_p50_s", worst_class_p50_s);
    v.set(
        "cpu_ms_per_session",
        ratio(load.window.cpu_s * 1e3, completed),
    );
    v.set("peak_rss_mib", procfs::peak_rss_mib());
    v.set(
        "rho_unified_mean",
        exact_mean(load, |f| f.rho_unified_sum, |f| f.providers as f64),
    );
    v
}

/// `Σ numerator / Σ denominator` over the sessions whose outcomes are a
/// function of the seed alone.
fn exact_mean(
    load: &LoadResult,
    numerator: impl Fn(&Facts) -> f64,
    denominator: impl Fn(&Facts) -> f64,
) -> f64 {
    let exact = || {
        load.records
            .iter()
            .take(EXACT_SESSIONS)
            .filter_map(|r| r.facts.as_ref().ok())
    };
    ratio(
        exact().map(&numerator).sum(),
        exact().map(&denominator).sum(),
    )
}

/// Everything sent through the front since it was built, warm-up
/// included: the front's counters cover exactly this.
#[derive(Debug, Clone, Copy, Default)]
pub struct Totals {
    pub sessions: f64,
    pub rows: f64,
}

/// The per-layer metrics that come out of a load (as opposed to the
/// replay): `traced` is the traced phase, `untraced_p50_s` the median
/// latency of the same load without spans, `before`/`after` the front's
/// counters around the traced phase.
pub fn load_layers(
    workload: &Workload,
    traced: &LoadResult,
    seconds: f64,
    untraced_p50_s: f64,
    before: &Counters,
    after: &Counters,
    totals: Totals,
) -> Values {
    let mut v = Values::default();
    v.set(
        "tracing_overhead_share",
        ratio(primary_p50_s(traced), untraced_p50_s) - 1.0,
    );

    let provider_runs: f64 = succeeded(traced)
        .filter_map(|r| r.facts.as_ref().ok())
        .map(|f| f.providers as f64)
        .sum();
    let sum = |field: fn(&Facts) -> f64| -> f64 {
        succeeded(traced)
            .filter_map(|r| r.facts.as_ref().ok())
            .map(field)
            .sum()
    };
    let sessions = succeeded(traced).count() as f64;
    v.set(
        "privacy.cheap_stage_s",
        ratio(sum(|f| f.cheap_stage_s), provider_runs),
    );
    v.set(
        "privacy.expensive_stage_s",
        ratio(sum(|f| f.expensive_stage_s), provider_runs),
    );
    v.set(
        "privacy.candidates_evaluated",
        exact_mean(traced, |f| f.candidates_evaluated as f64, |_| 1.0),
    );
    v.set(
        "privacy.candidates_pruned",
        exact_mean(traced, |f| f.candidates_pruned as f64, |_| 1.0),
    );
    v.set(
        "privacy.ica_applied",
        exact_mean(traced, |f| f.ica_applied as f64, |_| 1.0),
    );
    // Optimizer wall time is summed over a session's providers, which run
    // side by side: compare it with that many session times.
    let provider_session_s: f64 = succeeded(traced)
        .filter_map(|r| Some(r.facts.as_ref().ok()?.providers as f64 * r.latency_s()))
        .sum();
    v.set(
        "privacy.optimizer_wall_share",
        ratio(sum(|f| f.optimizer_wall_s), provider_session_s),
    );

    v.set(
        "net.bytes_sealed_per_row",
        ratio(after.bytes_sealed, totals.rows),
    );
    v.set(
        "net.frames_routed_per_session",
        ratio(after.frames_routed, totals.sessions),
    );
    v.set("net.shed_frames", after.shed_frames);
    v.set("net.unknown_session_dropped", after.unknown_session_dropped);

    v.set(
        "core.blocks_relayed_per_session",
        exact_mean(traced, |f| f.blocks_relayed as f64, |_| 1.0),
    );
    v.set(
        "core.blocks_pipelined_per_session",
        ratio(sum(|f| f.blocks_pipelined as f64), sessions),
    );
    v.set(
        "core.overlap_ratio",
        ratio(sum(|f| f.overlap_ratio), sessions),
    );
    v.set(
        "core.queue_wait_p50_s.interactive",
        after.queue_wait_p50_s[INTERACTIVE],
    );
    v.set("core.queue_wait_p50_s.batch", after.queue_wait_p50_s[BATCH]);
    v.set(
        "core.service_p50_s.interactive",
        after.service_p50_s[INTERACTIVE],
    );
    v.set("core.service_p50_s.batch", after.service_p50_s[BATCH]);
    v.set("core.gangs_promoted", after.gangs_promoted);
    v.set("core.task_steals", after.task_steals);

    let submits = stats::sorted(
        &traced
            .records
            .iter()
            .map(|r| r.submit_s)
            .collect::<Vec<_>>(),
    );
    let waits: Vec<f64> = succeeded(traced).map(|r| r.wait_s).collect();
    v.set("server.submit_s", stats::percentile(&submits, 0.50));
    v.set("server.submit_p99_s", stats::percentile(&submits, 0.99));
    v.set("server.wait_s", stats::median(&waits));
    v.set(
        "server.utilization",
        ratio(
            after.service_total_s - before.service_total_s,
            traced.drained_s,
        ),
    );
    let interactive = latencies(traced, Some(INTERACTIVE));
    let batch = latencies(traced, Some(BATCH));
    v.set(
        "server.interactive_p50_s",
        stats::percentile(&interactive, 0.50),
    );
    v.set(
        "server.interactive_p90_s",
        stats::percentile(&interactive, 0.90),
    );
    v.set(
        "server.interactive_p99_s",
        stats::percentile(&interactive, 0.99),
    );
    v.set("server.batch_p50_s", stats::percentile(&batch, 0.50));
    v.set("server.batch_p90_s", stats::percentile(&batch, 0.90));
    v.set("server.batch_p99_s", stats::percentile(&batch, 0.99));
    v.set(
        "server.interactive_slo_share",
        slo_share(workload, traced, INTERACTIVE),
    );
    v.set("server.gen_late_p90_s", gen_late_s(traced, 0.90));
    v.set("server.gen_late_p99_s", gen_late_s(traced, 0.99));
    v.set(
        "server.gen_late_max_s",
        traced.records.iter().map(|r| r.late_s).fold(0.0, f64::max),
    );
    v.set("server.sessions_rejected", after.sessions_rejected);
    v.set("server.sessions_shed", after.sessions_shed);
    v.set("server.sessions_failed", after.sessions_failed);

    v.set(
        "fleet.forwarded_share",
        ratio(after.registrations_forwarded, totals.sessions),
    );
    v.set(
        "fleet.frames_forwarded_per_session",
        ratio(after.frames_forwarded, totals.sessions),
    );

    let completed = in_window(traced, seconds).count() as f64;
    v.set(
        "proc.ctx_switches_per_session",
        ratio(traced.window.ctx_switches, completed),
    );
    v.set("proc.threads", traced.window.threads);
    v
}

/// Share of the sessions of `class` *sent* that came back within the
/// class's latency limit; a failed or refused session misses it. A class
/// without a limit is held to completing at all.
pub fn slo_share(workload: &Workload, load: &LoadResult, class: usize) -> f64 {
    let limit = workload
        .classes
        .get(class)
        .and_then(|c| c.limit_s)
        .unwrap_or(f64::INFINITY);
    let sent = load.records.iter().filter(|r| r.class == class).count() as f64;
    let met = succeeded(load)
        .filter(|r| r.class == class && r.latency_s() <= limit)
        .count() as f64;
    ratio(met, sent)
}

/// One line per session class: sample count, median, and the highest
/// percentile that still has ten samples beyond it.
pub fn latency_notes(workload: &Workload, load: &LoadResult) -> Vec<String> {
    workload
        .classes
        .iter()
        .enumerate()
        .map(|(class, spec)| {
            let lat = latencies(load, Some(class));
            let tail = stats::tail_percentile(lat.len());
            format!(
                "{} latency: n={} p50={:.6} s p{}={:.6} s",
                spec.name,
                lat.len(),
                stats::percentile(&lat, 0.50),
                tail * 100.0,
                stats::percentile(&lat, tail),
            )
        })
        .collect()
}

/// The `q`-quantile of how late the generator submitted.
pub fn gen_late_s(load: &LoadResult, q: f64) -> f64 {
    let late = stats::sorted(&load.records.iter().map(|r| r.late_s).collect::<Vec<_>>());
    stats::percentile(&late, q)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::load::WindowSample;
    use crate::workloads;

    fn record(index: usize, class: usize, start_s: f64, done_s: f64, ok: bool) -> SessionRecord {
        SessionRecord {
            index,
            class,
            rows: 100,
            start_s,
            late_s: 0.0,
            submit_s: 0.001,
            wait_s: 0.001,
            done_s,
            facts: if ok {
                Ok(Facts {
                    rho_unified_sum: 2.0,
                    providers: 4,
                    ..Facts::default()
                })
            } else {
                Err("boom".into())
            },
        }
    }

    fn load(records: Vec<SessionRecord>) -> LoadResult {
        LoadResult {
            records,
            first: None,
            window: WindowSample {
                cpu_s: 3.0,
                ctx_switches: 30.0,
                threads: 9.0,
            },
            drained_s: 10.5,
        }
    }

    #[test]
    fn throughput_counts_only_outcomes_inside_the_window() {
        let l = load(vec![
            record(0, 0, 0.0, 1.0, true),
            record(1, 0, 1.0, 9.0, true),
            record(2, 0, 9.0, 10.5, true), // finished during the drain
            record(3, 0, 9.5, 9.9, false), // failed
        ]);
        let v = end_to_end(&l, 10.0, 0.5);
        assert_eq!(v.get("sessions_per_s"), Some(2.0 / 9.0));
        assert_eq!(v.get("rows_per_s"), Some(200.0 / 9.0));
        assert_eq!(v.get("cpu_ms_per_session"), Some(1_500.0));
        // Latency covers every successful session, drained ones too.
        assert_eq!(v.get("session_p50_s"), Some(1.5));
        assert_eq!(v.get("rho_unified_mean"), Some(0.5));
        assert_eq!(v.get("setup_s"), Some(0.5));
    }

    #[test]
    fn a_failed_session_misses_the_latency_limit() {
        let mixed = workloads::find("mixed_open").unwrap();
        let l = load(vec![
            record(0, INTERACTIVE, 0.0, 0.010, true),
            record(1, INTERACTIVE, 0.0, 0.200, true), // over the latency limit
            record(2, INTERACTIVE, 0.0, 0.010, false),
            record(3, BATCH, 0.0, 5.0, true),
        ]);
        assert_eq!(slo_share(mixed, &l, INTERACTIVE), 1.0 / 3.0);
        // Batch has no limit: completing is enough.
        assert_eq!(slo_share(mixed, &l, BATCH), 1.0);
    }
}
