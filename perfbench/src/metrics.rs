//! The metric tables: every name the benchmark prints, with unit,
//! direction and — for end-to-end metrics — regression bound.
//! `BENCHMARK.json` repeats these tables; a unit test keeps the two
//! identical.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// before a change counts as a regression (end-to-end only).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

use Better::{Higher, Lower};

/// What a provider or the operator of the service sees. Every metric is
/// reported on every workload.
pub const END_TO_END: [Metric; 9] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("sessions_per_s", "1/s", Higher, 0.25),
    e2e("rows_per_s", "rows/s", Higher, 0.25),
    e2e("session_p50_s", "s", Lower, 0.25),
    e2e("session_p90_s", "s", Lower, 0.25),
    e2e("worst_class_p50_s", "s", Lower, 0.25),
    e2e("cpu_ms_per_session", "ms", Lower, 0.25),
    e2e("peak_rss_mib", "MiB", Lower, 0.25),
    e2e("rho_unified_mean", "ratio", Higher, 0.20),
];

/// One layer each (the crates are the layers). No bounds: these explain
/// an end-to-end movement, they do not gate.
pub const PER_LAYER: [Metric; 63] = [
    // Cost of the benchmark's own spans: traced over untraced p50, minus 1.
    layer("tracing_overhead_share", "ratio", Lower),
    // linalg: the two matmul regimes and the optimizer's decompositions.
    layer("linalg.matmul_tall_gflops", "gflop/s", Higher),
    layer("linalg.matmul_wide_gflops", "gflop/s", Higher),
    layer("linalg.covariance_s", "s", Lower),
    layer("linalg.eigen_s", "s", Lower),
    layer("ica.fastica_fit_s", "s", Lower),
    // privacy: one provider's optimizer run and what it did.
    layer("privacy.optimize_s", "s", Lower),
    layer("privacy.cheap_stage_s", "s", Lower),
    layer("privacy.expensive_stage_s", "s", Lower),
    layer("privacy.candidates_evaluated", "count", Lower),
    layer("privacy.candidates_pruned", "count", Higher),
    layer("privacy.ica_applied", "count", Lower),
    layer("privacy.optimizer_wall_share", "ratio", Lower),
    layer("perturb.perturb_rows_per_s", "rows/s", Higher),
    layer("perturb.adapt_rows_per_s", "rows/s", Higher),
    // net: frame sealing, stream transfer, small-message round trips.
    layer("net.seal_mibps", "MiB/s", Higher),
    layer("net.open_mibps", "MiB/s", Higher),
    layer("net.hub_stream_mibps", "MiB/s", Higher),
    layer("net.tcp_stream_mibps", "MiB/s", Higher),
    layer("net.small_msg_rtt_s", "s", Lower),
    layer("net.bytes_sealed_per_row", "bytes", Lower),
    layer("net.frames_routed_per_session", "count", Lower),
    layer("net.shed_frames", "count", Lower),
    layer("net.unknown_session_dropped", "count", Lower),
    // core: block codec, the miner's pipeline, relay, scheduler.
    layer("core.encode_rows_per_s", "rows/s", Higher),
    layer("core.decode_rows_per_s", "rows/s", Higher),
    layer("core.pipeline_rows_per_s", "rows/s", Higher),
    layer("core.blocks_relayed_per_session", "count", Lower),
    layer("core.blocks_pipelined_per_session", "count", Higher),
    layer("core.overlap_ratio", "ratio", Higher),
    layer("core.solo_session_s", "s", Lower),
    layer("core.stage_sum_share", "ratio", Higher),
    layer("core.queue_wait_p50_s.interactive", "s", Lower),
    layer("core.queue_wait_p50_s.batch", "s", Lower),
    layer("core.service_p50_s.interactive", "s", Lower),
    layer("core.service_p50_s.batch", "s", Lower),
    layer("core.gangs_promoted", "count", Lower),
    layer("core.task_steals", "count", Lower),
    // server: the submit call, load, per-class latency and its tails.
    layer("server.submit_s", "s", Lower),
    layer("server.submit_p99_s", "s", Lower),
    layer("server.wait_s", "s", Lower),
    layer("server.utilization", "ratio", Lower),
    layer("server.interactive_p50_s", "s", Lower),
    layer("server.interactive_p90_s", "s", Lower),
    layer("server.interactive_p99_s", "s", Lower),
    layer("server.interactive_slo_share", "ratio", Higher),
    layer("server.batch_p50_s", "s", Lower),
    layer("server.batch_p90_s", "s", Lower),
    layer("server.batch_p99_s", "s", Lower),
    layer("server.gen_late_p90_s", "s", Lower),
    layer("server.gen_late_p99_s", "s", Lower),
    layer("server.gen_late_max_s", "s", Lower),
    layer("server.sessions_rejected", "count", Lower),
    layer("server.sessions_shed", "count", Lower),
    layer("server.sessions_failed", "count", Lower),
    layer("fleet.forwarded_share", "ratio", Lower),
    layer("fleet.frames_forwarded_per_session", "count", Lower),
    // classify: mining on the unified data, after the session.
    layer("classify.knn_train_s", "s", Lower),
    layer("classify.knn_predict_rows_per_s", "rows/s", Higher),
    layer("classify.accuracy_original", "ratio", Higher),
    layer("classify.accuracy_delta", "ratio", Lower),
    layer("proc.ctx_switches_per_session", "count", Lower),
    layer("proc.threads", "count", Lower),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use crate::workloads::WORKLOADS;

    fn name_ok(s: &str) -> bool {
        s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.len() <= 64
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let mut names = Vec::new();
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(name_ok(m.name), "{}", m.name);
            assert!(unit_ok(m.unit), "{} unit {}", m.name, m.unit);
            names.push(m.name);
        }
        names.extend(WORKLOADS.iter().map(|w| w.name));
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
    }

    /// `BENCHMARK.json` is what the driver reads; these tables are what
    /// the program prints. They must say the same.
    #[test]
    fn benchmark_json_repeats_these_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc = json::parse(&text).expect("BENCHMARK.json parses");
        let keys: Vec<&str> = doc
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );

        let field =
            |v: &json::Value, k: &str| v.get(k).and_then(|x| x.as_str()).unwrap().to_owned();
        let listed = doc.get("workloads").unwrap().as_arr().unwrap();
        assert_eq!(listed.len(), WORKLOADS.len());
        for (entry, w) in listed.iter().zip(&WORKLOADS) {
            assert_eq!(field(entry, "name"), w.name);
            assert_eq!(field(entry, "why"), w.why);
        }
        let listed = doc.get("end_to_end").unwrap().as_arr().unwrap();
        assert_eq!(listed.len(), END_TO_END.len());
        for (entry, m) in listed.iter().zip(&END_TO_END) {
            assert_eq!(field(entry, "name"), m.name);
            assert_eq!(field(entry, "unit"), m.unit);
            assert_eq!(field(entry, "better"), m.better.as_str());
            assert_eq!(entry.get("bound").unwrap().as_f64(), Some(m.bound));
        }
        let listed = doc.get("per_layer").unwrap().as_arr().unwrap();
        assert_eq!(listed.len(), PER_LAYER.len());
        for (entry, m) in listed.iter().zip(&PER_LAYER) {
            assert_eq!(field(entry, "name"), m.name);
            assert_eq!(field(entry, "unit"), m.unit);
            assert_eq!(field(entry, "better"), m.better.as_str());
            assert!(entry.get("bound").is_none());
        }
    }
}
