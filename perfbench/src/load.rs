//! Set-up and the two load generators (closed and open loop), one
//! generator thread each, plus the span recorder of the traced run.

use crate::front::Front;
use crate::inputs::{self, Arrival, Inputs};
use crate::procfs;
use crate::workloads::{Offer, Workload};
use sap_core::session::SapOutcome;
use sap_net::SessionId;
use std::time::{Duration, Instant};

/// Sessions (by index) whose outcomes feed the metrics that must repeat
/// exactly for a seed. A run's sessions beyond these vary in number
/// with the machine's speed; these always complete.
pub const EXACT_SESSIONS: usize = 32;

/// Index offset of warm-up sessions in the session seed stream.
const WARMUP_BASE: u64 = 1 << 40;

// ---- spans -----------------------------------------------------------

/// One timed call made by the benchmark.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Session index the span belongs to.
    pub session: u64,
}

/// In-memory span store; recording is a no-op when tracing is off.
pub struct Tracer {
    origin: Instant,
    spans: Option<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            origin: Instant::now(),
            spans: enabled.then(Vec::new),
        }
    }

    /// Opens a span (its end is set by [`Tracer::close`]) and returns its
    /// index for children to name as parent.
    pub fn open(
        &mut self,
        name: &'static str,
        start: Instant,
        parent: Option<usize>,
        session: u64,
    ) -> Option<usize> {
        let start_ns = self.ns(start);
        let spans = self.spans.as_mut()?;
        spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            session,
        });
        Some(spans.len() - 1)
    }

    pub fn close(&mut self, span: Option<usize>, end: Instant) {
        let end_ns = self.ns(end);
        if let (Some(spans), Some(i)) = (self.spans.as_mut(), span) {
            spans[i].end_ns = end_ns;
        }
    }

    /// Records a finished span.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        session: u64,
    ) -> Option<usize> {
        let span = self.open(name, start, parent, session);
        self.close(span, end);
        span
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    pub fn spans(&self) -> &[Span] {
        self.spans.as_deref().unwrap_or(&[])
    }
}

// ---- set-up ----------------------------------------------------------

/// Generated inputs, one pool per session class.
pub struct Prepared {
    pub pools: Vec<Vec<Inputs>>,
}

impl Prepared {
    /// The input session `index` of class `class` is fed: a pure
    /// function of the seed and the index.
    pub fn inputs(&self, class: usize, index: usize) -> &Inputs {
        let pool = &self.pools[class];
        &pool[index % pool.len()]
    }
}

/// A service that is built, warm, and has its inputs ready.
pub struct Ready {
    pub prepared: Prepared,
    pub front: Box<dyn Front>,
    /// Records unified by the warm-up sessions (the front's counters
    /// include them).
    pub warmup_rows: usize,
}

/// Everything before the clock starts: generate inputs, bring the
/// service up, run the warm-up sessions.
pub fn set_up(workload: &Workload, seed: u64, seconds: f64) -> Result<Ready, String> {
    let pools = workload
        .classes
        .iter()
        .enumerate()
        .map(|(c, class)| {
            (0..class.pool)
                .map(|j| {
                    let data_seed =
                        inputs::derive(seed, inputs::STREAM_DATA, (c * 1_000 + j) as u64);
                    inputs::generate_inputs(class.shape, data_seed)
                })
                .collect()
        })
        .collect();
    let prepared = Prepared { pools };
    let front = (workload.front)(workload.capacity(seconds))?;

    let mut ids = Vec::with_capacity(workload.warmup);
    let mut warmup_rows = 0;
    for j in 0..workload.warmup {
        // Every fifth warm-up session is of the second class, if any.
        let class = usize::from(workload.classes.len() > 1 && j % 5 == 4);
        let session_seed = inputs::derive(seed, inputs::STREAM_SESSION, WARMUP_BASE + j as u64);
        let config = (workload.config)(class, session_seed);
        let locals = prepared.inputs(class, j).locals.clone();
        warmup_rows += workload.classes[class].shape.rows();
        ids.push(front.submit(locals, &config)?);
    }
    for id in ids {
        front.wait(id)?;
    }
    Ok(Ready {
        prepared,
        front,
        warmup_rows,
    })
}

// ---- results ---------------------------------------------------------

/// What is kept of a session's outcome once the outcome is dropped.
#[derive(Debug, Clone, Copy, Default)]
pub struct Facts {
    pub rho_unified_sum: f64,
    pub providers: usize,
    pub optimizer_wall_s: f64,
    pub cheap_stage_s: f64,
    pub expensive_stage_s: f64,
    pub candidates_evaluated: u64,
    pub candidates_pruned: u64,
    pub ica_applied: u64,
    pub blocks_relayed: u64,
    pub blocks_pipelined: u64,
    pub overlap_ratio: f64,
}

#[derive(Debug, Clone)]
pub struct SessionRecord {
    pub index: usize,
    pub class: usize,
    pub rows: usize,
    /// When the session was due (open loop) or submitted (closed loop),
    /// seconds from the start of the load: latency counts from here.
    pub start_s: f64,
    /// How long after its due time the generator submitted it.
    pub late_s: f64,
    /// Duration of the submit call.
    pub submit_s: f64,
    /// Duration of the wait call that handed the outcome over.
    pub wait_s: f64,
    /// When its outcome was in the client's hands.
    pub done_s: f64,
    /// `Err` carries why the session counts as failed.
    pub facts: Result<Facts, String>,
}

impl SessionRecord {
    pub fn latency_s(&self) -> f64 {
        self.done_s - self.start_s
    }
}

/// Process readings over the measured window.
#[derive(Debug, Clone, Copy, Default)]
pub struct WindowSample {
    pub cpu_s: f64,
    pub ctx_switches: f64,
    pub threads: f64,
}

pub struct LoadResult {
    pub records: Vec<SessionRecord>,
    /// Outcome of session 0, kept whole for the correctness gate and the
    /// replay.
    pub first: Option<SapOutcome>,
    pub window: WindowSample,
    /// Start of the load to the last outcome harvested.
    pub drained_s: f64,
}

/// Checks the invariants every outcome must satisfy and boils it down.
fn digest(outcome: &SapOutcome, rows: usize, providers: usize) -> Result<Facts, String> {
    if outcome.unified.len() != rows {
        return Err(format!(
            "unified {} records, {rows} went in",
            outcome.unified.len()
        ));
    }
    if outcome.reports.len() != providers {
        return Err(format!(
            "{} provider reports for {providers} providers",
            outcome.reports.len()
        ));
    }
    let identifiability = 1.0 / (providers as f64 - 1.0);
    if outcome.identifiability != identifiability {
        return Err(format!(
            "identifiability {} is not 1/(k-1) = {identifiability}",
            outcome.identifiability
        ));
    }
    let summary = outcome.optimizer_summary();
    let mut facts = Facts {
        providers,
        optimizer_wall_s: summary.wall_s,
        candidates_evaluated: summary.candidates_evaluated,
        candidates_pruned: summary.candidates_pruned,
        ica_applied: summary.ica_applied,
        blocks_relayed: outcome.relayed_blocks,
        blocks_pipelined: outcome.stream.pipelined_blocks,
        overlap_ratio: outcome.stream.overlap_ratio(),
        ..Facts::default()
    };
    for report in &outcome.reports {
        facts.rho_unified_sum += report.rho_unified;
        facts.cheap_stage_s += report.optimizer.cheap_stage_s;
        facts.expensive_stage_s += report.optimizer.expensive_stage_s;
    }
    Ok(facts)
}

// ---- the generators --------------------------------------------------

struct Outstanding {
    record: usize,
    /// The session's root span.
    root: Option<usize>,
    submitted: Instant,
}

/// State shared by both loops: everything about one run of the load.
struct Run<'a> {
    workload: &'a Workload,
    front: &'a dyn Front,
    prepared: &'a Prepared,
    seed: u64,
    start: Instant,
    tracer: &'a mut Tracer,
    ids: Vec<SessionId>,
    outstanding: Vec<Outstanding>,
    records: Vec<SessionRecord>,
    first: Option<SapOutcome>,
}

impl Run<'_> {
    fn since_start(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.start).as_secs_f64()
    }

    /// Submits the next session, timing it from `due` (now, for a
    /// closed loop). Input materialisation — the client's copy of its
    /// own data — happens before the clock of a closed-loop session
    /// starts.
    fn submit(&mut self, class: usize, due: Option<Instant>) {
        let index = self.records.len();
        let session_seed = inputs::derive(self.seed, inputs::STREAM_SESSION, index as u64);
        let config = (self.workload.config)(class, session_seed);
        let locals = self.prepared.inputs(class, index).locals.clone();
        let call = Instant::now();
        let due = due.unwrap_or(call);
        let submitted = self.front.submit(locals, &config);
        let returned = Instant::now();
        let root = self.tracer.open("session", due, None, index as u64);
        self.tracer
            .record("submit", call, returned, root, index as u64);
        let mut record = SessionRecord {
            index,
            class,
            rows: self.workload.classes[class].shape.rows(),
            start_s: self.since_start(due),
            late_s: call.saturating_duration_since(due).as_secs_f64(),
            submit_s: (returned - call).as_secs_f64(),
            wait_s: 0.0,
            done_s: self.since_start(returned),
            facts: Err(String::new()),
        };
        match submitted {
            Ok(id) => {
                self.ids.push(id);
                self.outstanding.push(Outstanding {
                    record: index,
                    root,
                    submitted: returned,
                });
            }
            Err(why) => {
                self.tracer.close(root, returned);
                record.facts = Err(format!("submit refused: {why}"));
            }
        }
        self.records.push(record);
    }

    /// Harvests outstanding session `slot`, known (or about) to be done.
    fn harvest(&mut self, slot: usize, observed: Instant) {
        let id = self.ids.remove(slot);
        let out = self.outstanding.remove(slot);
        let result = self.front.wait(id);
        let harvested = Instant::now();
        let session = out.record as u64;
        self.tracer.close(out.root, harvested);
        self.tracer
            .record("await_outcome", out.submitted, observed, out.root, session);
        self.tracer
            .record("wait", observed, harvested, out.root, session);
        let done_s = self.since_start(harvested);
        let record = &mut self.records[out.record];
        record.wait_s = (harvested - observed).as_secs_f64();
        record.done_s = done_s;
        let providers = self.workload.classes[record.class].shape.providers;
        record.facts = match result {
            Ok(outcome) => {
                let facts = digest(&outcome, record.rows, providers);
                if out.record == 0 {
                    self.first = Some(outcome);
                }
                facts
            }
            Err(why) => Err(why),
        };
    }

    /// Blocks for the next finished session (or until `until`) and
    /// harvests it. `false` when `until` passed first.
    fn harvest_next(&mut self, until: Option<Instant>) -> bool {
        match self.front.next_finished(&self.ids, until) {
            Some(slot) => {
                self.harvest(slot, Instant::now());
                true
            }
            None => false,
        }
    }

    fn closed(&mut self, window: usize, deadline: Instant) {
        loop {
            while self.outstanding.len() < window && Instant::now() < deadline {
                self.submit(0, None);
            }
            if self.outstanding.is_empty() {
                return;
            }
            self.harvest_next(None);
        }
    }

    fn open(&mut self, arrivals: &[Arrival]) {
        let mut next = 0;
        loop {
            let due = arrivals.get(next).map(|a| self.start + a.at);
            match due {
                Some(due) if Instant::now() >= due => {
                    self.submit(arrivals[next].class, Some(due));
                    next += 1;
                }
                None if self.outstanding.is_empty() => return,
                Some(due) if self.outstanding.is_empty() => {
                    std::thread::sleep(due.saturating_duration_since(Instant::now()));
                }
                _ => {
                    self.harvest_next(due);
                }
            }
        }
    }
}

/// Offers the workload's load to `front` for `seconds` and harvests
/// every session submitted in that window.
pub fn run_load(
    workload: &Workload,
    ready: &Ready,
    seed: u64,
    seconds: f64,
    tracer: &mut Tracer,
) -> LoadResult {
    let arrivals = match workload.offer {
        Offer::Closed { .. } => Vec::new(),
        Offer::Open {
            rate_per_s,
            second_class_per_ten,
        } => inputs::poisson_schedule(
            rate_per_s,
            seconds,
            second_class_per_ten,
            inputs::derive(seed, inputs::STREAM_ARRIVALS, 0),
        ),
    };
    let window_len = Duration::from_secs_f64(seconds);
    let cpu_before = procfs::cpu_seconds();
    let (ctx_before, _) = procfs::ctx_switches_and_threads();
    let start = Instant::now();
    let mut run = Run {
        workload,
        front: ready.front.as_ref(),
        prepared: &ready.prepared,
        seed,
        start,
        tracer,
        ids: Vec::new(),
        outstanding: Vec::new(),
        records: Vec::new(),
        first: None,
    };
    // The sampler sleeps through the window and reads the process
    // counters exactly at its end, wherever the generator is blocked.
    let window = std::thread::scope(|scope| {
        let sampler = scope.spawn(move || {
            std::thread::sleep((start + window_len).saturating_duration_since(Instant::now()));
            let (ctx, threads) = procfs::ctx_switches_and_threads();
            WindowSample {
                cpu_s: procfs::cpu_seconds() - cpu_before,
                ctx_switches: ctx - ctx_before,
                threads,
            }
        });
        match workload.offer {
            Offer::Closed { window } => run.closed(window, start + window_len),
            Offer::Open { .. } => run.open(&arrivals),
        }
        sampler.join().expect("window sampler panicked")
    });
    LoadResult {
        drained_s: start.elapsed().as_secs_f64(),
        records: run.records,
        first: run.first,
        window,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracer_records_only_when_on() {
        let mut off = Tracer::new(false);
        let mut on = Tracer::new(true);
        let t0 = Instant::now();
        assert_eq!(off.record("x", t0, t0, None, 0), None);
        assert!(off.spans().is_empty());

        let root = on.open("session", t0, None, 7);
        let child = on.record("wait", t0, t0 + Duration::from_millis(1), root, 7);
        on.close(root, t0 + Duration::from_millis(2));
        assert_eq!((root, child), (Some(0), Some(1)));
        let spans = on.spans();
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].session, 7);
        assert_eq!(spans[0].end_ns - spans[0].start_ns, 2_000_000);
    }
}
