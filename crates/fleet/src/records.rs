//! The fleet's registration and membership policy as one pure state
//! machine: [`Records::apply`] takes an [`Event`] and returns the
//! [`Effects`] its caller carries out, feeding each result back as an
//! event. A session's inputs ride along as an opaque `I` (`()` in the
//! model check). A timed-out wait changes nothing, so it is no event.
//!
//! Membership is shared memory on one host: `alive` is the view placement
//! runs over, `dead` the nodes the liveness plane declared dead, `leaving`
//! the graceful leavers, `stopped` every node killed or gone. A killed
//! node stays alive until a survivor's liveness plane reports it.

use crate::{FleetError, FleetMetrics};
use sap_core::placement::{self, node_point, session_point};
use sap_net::SessionId;
use std::collections::{BTreeMap, BTreeSet};

/// Where a session's registration stands with its owner.
#[derive(Clone, Debug, Default, PartialEq, Eq, Hash)]
pub(crate) enum Admission {
    /// Sent to the owner, no verdict yet: re-placeable if the owner dies.
    #[default]
    Unacked,
    Admitted,
    /// Refused, with the owner's admission error rendered.
    Rejected(String),
}

/// One session's registration, from submit until its verdict.
#[derive(Clone, Debug, Default, PartialEq, Eq, Hash)]
struct Record<I> {
    /// The node it was last sent to, or that settled it.
    owner: usize,
    /// The node that re-places it if the owner dies before settling.
    origin: usize,
    admission: Admission,
    /// Some owner admitted it: counted once in `sessions_started`.
    started: bool,
    inputs: I,
}

/// `(owner, origin, admission)` of a record as a waiter saw it.
pub(crate) type Seen = (usize, usize, Admission);

/// A registration to hand on from node `from` to node `to` (its own
/// server when `to == from`); `replace` unless a client's submission.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub(crate) struct Register {
    pub(crate) id: u64,
    pub(crate) from: usize,
    pub(crate) to: usize,
    pub(crate) replace: bool,
}

/// Something that happened to the fleet.
pub(crate) enum Event<I> {
    /// A client submits session `id` through node `via`, its gateway.
    Submit { id: u64, via: usize, inputs: I },
    /// The registration was handed on (`ok`), or not.
    Sent { reg: Register, ok: bool },
    /// Node `.1`'s server admitted session `.0` (`Ok`) or refused it.
    Settled(u64, usize, Result<(), String>),
    /// A client waits for `id`'s verdict.
    Wait { id: u64 },
    /// A waiter's harvest returned an outcome (`ok`) or an error.
    Verdict { id: u64, seen: Seen, ok: bool },
    /// Node `node` dies at once (`kill -9`).
    Kill { node: usize },
    /// Node `node` leaves; `running`: its sessions still running there.
    Leave { node: usize, running: Vec<u64> },
    /// Node `observer`'s liveness plane declared node `dead` dead.
    PeerDown { observer: usize, dead: usize },
}

/// A transition's answer to its caller.
#[derive(Debug, Default)]
pub(crate) enum Reply {
    #[default]
    Done,
    /// The call fails. For `Wait`, other than `UnknownSession`, this is
    /// the session's verdict, already counted.
    Err(FleetError),
    /// Wait: harvest from the owner `seen.0`, then apply `Verdict`.
    Harvest(Seen),
    /// Wait: no verdict yet, or the harvested one did not stand (the
    /// record changed meanwhile): block until woken, or look again.
    Pending,
}

/// What the caller of [`Records::apply`] must do, in this order: abort
/// `aborts` on the killed node (or abort and harvest them on the leaver),
/// and hand `registers` on.
#[derive(Debug, Default)]
pub(crate) struct Effects<I> {
    pub(crate) reply: Reply,
    pub(crate) aborts: Vec<u64>,
    pub(crate) registers: Vec<(Register, I)>,
}

/// Every session's registration record, the membership view and the
/// counters behind [`FleetMetrics`].
#[derive(Clone, Debug, Default, PartialEq, Eq, Hash)]
pub(crate) struct Records<I> {
    alive: BTreeSet<usize>,
    dead: BTreeSet<usize>,
    leaving: BTreeSet<usize>,
    stopped: BTreeSet<usize>,
    records: BTreeMap<u64, Record<I>>,
    deaths: u64,
    started: u64,
    completed: u64,
    failed: u64,
    forwarded: u64,
    replaced: u64,
}

impl<I: Clone + Default> Records<I> {
    /// `nodes` nodes, all alive, holding no session.
    pub(crate) fn new(nodes: usize) -> Self {
        Records {
            alive: (0..nodes).collect(),
            ..Records::default()
        }
    }

    pub(crate) fn alive(&self) -> &BTreeSet<usize> {
        &self.alive
    }

    /// The alive node that owns session `id`.
    pub(crate) fn owner_of(&self, id: u64) -> Option<usize> {
        placement::owner(session_point(SessionId(id)), self.alive.iter().copied())
    }

    /// The node that admitted `id`, while its record is held.
    pub(crate) fn placement(&self, id: u64) -> Option<usize> {
        let r = self.records.get(&id)?;
        (r.admission == Admission::Admitted).then_some(r.owner)
    }

    /// Whether `id`'s record waits for its owner's verdict.
    pub(crate) fn unacked(&self, id: u64) -> bool {
        matches!(self.records.get(&id), Some(r) if r.admission == Admission::Unacked)
    }

    pub(crate) fn metrics(&self) -> FleetMetrics {
        FleetMetrics {
            nodes_alive: self.alive.len(),
            node_deaths_detected: self.deaths,
            sessions_started: self.started,
            sessions_completed: self.completed,
            sessions_failed: self.failed,
            registrations_live: self.records.len(),
            registrations_forwarded: self.forwarded,
            registrations_replaced: self.replaced,
            frames_forwarded: 0,
        }
    }

    /// The one transition function: every change to a record, to the
    /// membership view or to a counter happens here.
    pub(crate) fn apply(&mut self, event: Event<I>) -> Effects<I> {
        let mut fx = Effects::default();
        match event {
            Event::Submit { id, via, inputs } => {
                if self.alive.contains(&via) && !self.stopped.contains(&via) {
                    self.records.entry(id).or_default().inputs = inputs;
                    self.place(id, via, false, &mut fx);
                } else {
                    fx.reply = Reply::Err(FleetError::NodeDown(via));
                }
            }
            // A re-placement counts once handed on; a submission that
            // could not be handed on leaves no record.
            Event::Sent { reg, ok } => match (reg.replace, ok) {
                (false, false) => drop(self.records.remove(&reg.id)),
                (false, true) if reg.from != reg.to => self.forwarded += 1,
                (true, true) => self.replaced += 1,
                _ => {}
            },
            // The owner settles the origin's record itself: an origin
            // that dies after sending can never strand an admitted session.
            Event::Settled(id, at, verdict) => {
                if let Some(r) = self.records.get_mut(&id) {
                    r.owner = at;
                    r.admission =
                        verdict.map_or_else(Admission::Rejected, |()| Admission::Admitted);
                    if r.admission == Admission::Admitted && !r.started {
                        r.started = true;
                        self.started += 1;
                    }
                }
            }
            Event::Wait { id } => fx.reply = self.wait(id),
            Event::Verdict { id, seen, ok } => {
                if self.records.get(&id).is_some_and(|r| r.seen() == seen) {
                    self.close(id, ok);
                } else {
                    fx.reply = Reply::Pending;
                }
            }
            // Every session the killed process admitted dies with it.
            // Survivors repair the membership when they notice.
            Event::Kill { node } if self.stop(node) => fx.aborts = self.admitted_by(node),
            Event::Kill { node } => fx.reply = Reply::Err(FleetError::NodeDown(node)),
            Event::Leave { node, running } => self.leave(node, running, &mut fx),
            Event::PeerDown { observer, dead } => self.peer_down(observer, dead, &mut fx),
        }
        fx
    }

    /// Marks `node` stopped: false when it already is, or is none.
    fn stop(&mut self, node: usize) -> bool {
        let known = self.alive.contains(&node) || self.dead.contains(&node);
        (known || self.leaving.contains(&node)) && self.stopped.insert(node)
    }

    fn ids_where(&self, keep: impl Fn(&Record<I>) -> bool) -> Vec<u64> {
        self.records
            .iter()
            .filter(|(_, r)| keep(r))
            .map(|(&id, _)| id)
            .collect()
    }

    /// The sessions `node` admitted.
    pub(crate) fn admitted_by(&self, node: usize) -> Vec<u64> {
        self.ids_where(|r| r.owner == node && r.admission == Admission::Admitted)
    }

    /// Removes `id`'s record at its verdict and counts the verdict.
    fn close(&mut self, id: u64, ok: bool) {
        self.records.remove(&id);
        let verdicts = if ok {
            &mut self.completed
        } else {
            &mut self.failed
        };
        *verdicts += 1;
    }

    fn wait(&mut self, id: u64) -> Reply {
        let session = SessionId(id);
        let Some(r) = self.records.get(&id) else {
            return Reply::Err(FleetError::UnknownSession(session));
        };
        let owner = r.owner;
        // Un-acked is re-placeable, unless its origin died too. A killed
        // owner fails the session fast; a leaver's husk still serves what
        // finished there.
        let lost = self.dead.contains(&owner) && self.dead.contains(&r.origin);
        let killed = self.stopped.contains(&owner) && !self.leaving.contains(&owner);
        let verdict = match &r.admission {
            Admission::Rejected(reason) => FleetError::Rejected {
                session,
                reason: reason.clone(),
            },
            Admission::Unacked if lost => FleetError::NodeDown(owner),
            Admission::Unacked => return Reply::Pending,
            Admission::Admitted if killed => FleetError::NodeDown(owner),
            Admission::Admitted => return Reply::Harvest(r.seen()),
        };
        self.close(id, false);
        Reply::Err(verdict)
    }

    /// The leaver leaves the view, hands over its running sessions (a
    /// record moves before the leaver's copy is aborted, so a waiter that
    /// harvests the abort sees it changed), and re-places the un-acked
    /// registrations it owns or originated, which nobody else would.
    fn leave(&mut self, node: usize, running: Vec<u64>, fx: &mut Effects<I>) {
        if self.alive.len() <= 1 {
            return fx.reply = Reply::Err(FleetError::NoNodes);
        }
        if !self.stop(node) {
            return fx.reply = Reply::Err(FleetError::NodeDown(node));
        }
        self.leaving.insert(node);
        self.alive.remove(&node);
        let owned = |r: &Record<I>| r.owner == node || r.origin == node;
        for id in self.ids_where(|r| r.admission == Admission::Unacked && owned(r)) {
            self.place(id, node, true, fx);
        }
        for id in running {
            if let Some(r) = self.records.get_mut(&id) {
                if r.owner == node && r.admission == Admission::Admitted {
                    r.admission = Admission::Unacked;
                    fx.aborts.push(id);
                    self.place(id, node, true, fx);
                }
            }
        }
    }

    /// `observer` saw `dead` die: repair the view and re-place the
    /// un-acked registrations `observer` sent the dead owner, plus those
    /// the dead node originated if `observer` owns the dead node's point
    /// (every survivor computes the same adopter). A stopped observer
    /// re-places nothing.
    fn peer_down(&mut self, observer: usize, dead: usize, fx: &mut Effects<I>) {
        if self.leaving.contains(&dead) {
            return;
        }
        if self.alive.remove(&dead) {
            self.dead.insert(dead);
            self.deaths += 1;
        }
        if self.stopped.contains(&observer) {
            return;
        }
        let adopter =
            placement::owner(node_point(dead), self.alive.iter().copied()) == Some(observer);
        let orphans = self.ids_where(|r| {
            r.admission == Admission::Unacked
                && ((r.owner == dead && r.origin == observer) || (adopter && r.origin == dead))
        });
        for id in orphans {
            self.place(id, observer, true, fx);
        }
    }

    /// Sends `id` from `from` to its owner under the current view. The
    /// sender becomes its re-placer, unless it is a leaver: then the new
    /// owner is.
    fn place(&mut self, id: u64, from: usize, replace: bool, fx: &mut Effects<I>) {
        let leaver = self.leaving.contains(&from);
        let (Some(to), Some(r)) = (self.owner_of(id), self.records.get_mut(&id)) else {
            return;
        };
        (r.owner, r.origin) = (to, if leaver { to } else { from });
        let reg = Register {
            id,
            from,
            to,
            replace,
        };
        fx.registers.push((reg, r.inputs.clone()));
    }
}

impl<I> Record<I> {
    fn seen(&self) -> Seen {
        (self.owner, self.origin, self.admission.clone())
    }
}

#[cfg(test)]
mod tests {
    //! The model check: every event sequence on 3 nodes × 2 session ids,
    //! breadth-first with deduplicated states, up to [`DEPTH`] steps. The
    //! steps are the fleet's own events plus the I/O they stand for (a
    //! registration handed on or lost, a server admitting or refusing, a
    //! session finishing, a harvest), each applied to `Records<()>` as the
    //! fleet applies it. Every reachable state must pass [`check`], and a
    //! state with no step left must have returned every submitted id's
    //! verdict. At most two of the three nodes are killed or leave.
    //!
    //! Measured on a 2-vCPU host: depth 7 in the debug build (`cargo
    //! test`) reaches 50 936 distinct states in 1.6 s (69 MiB peak RSS);
    //! depth 8 in release reaches 127 968 in 0.6 s (149 MiB). Each level
    //! multiplies the states by about 2.5.

    use super::*;
    use std::collections::hash_map::DefaultHasher;
    use std::collections::HashSet;
    use std::hash::{Hash, Hasher};
    use std::time::Instant;

    const NODES: usize = 3;
    const IDS: [u64; 2] = [1, 2];
    const DEPTH: usize = if cfg!(debug_assertions) { 7 } else { 8 };

    /// A session on a node's server.
    #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
    enum Run {
        Running,
        Finished(bool),
        Aborted,
    }

    /// Where a client stands with its session id.
    #[derive(Clone, Debug, PartialEq, Eq, Hash)]
    enum Client {
        Idle,
        /// Submitted; its registration is not handed on yet.
        Submitting,
        /// Holds the id, no verdict yet.
        Live,
        /// A harvest returned `ok`, from the record as `Seen`.
        Harvested(Seen, bool),
        /// Its verdict was returned (or its submission failed).
        Done,
    }

    #[derive(Clone, Debug, PartialEq, Eq, Hash)]
    struct World {
        records: Records<()>,
        /// Registrations to hand on, sorted.
        outbox: Vec<Register>,
        /// Registrations on the wire, `(to, id)`, sorted.
        inbox: Vec<(usize, u64)>,
        /// `servers[n][i]`: session `IDS[i]` on node `n`'s server.
        servers: [[Option<Run>; IDS.len()]; NODES],
        clients: [Client; IDS.len()],
        /// `observed[n][d]`: node `n` saw node `d`'s death.
        observed: [[bool; NODES]; NODES],
        /// Some owner admitted the id while its record was held.
        admitted: [bool; IDS.len()],
        /// Verdicts `wait` returned.
        waits: u64,
    }

    /// A state's 128-bit fingerprint (Holzmann's hash compaction): the
    /// visited set keeps these, not whole states, so the check stays small.
    fn fingerprint(w: &World) -> u128 {
        let mut a = DefaultHasher::new();
        let mut b = DefaultHasher::new();
        w.hash(&mut a);
        (0xA5u8, w).hash(&mut b);
        (u128::from(a.finish()) << 64) | u128::from(b.finish())
    }

    fn ix(id: u64) -> usize {
        IDS.iter().position(|&i| i == id).unwrap()
    }

    impl World {
        fn new() -> World {
            World {
                records: Records::new(NODES),
                outbox: Vec::new(),
                inbox: Vec::new(),
                servers: [[None; IDS.len()]; NODES],
                clients: [Client::Idle, Client::Idle],
                observed: [[false; NODES]; NODES],
                admitted: [false; IDS.len()],
                waits: 0,
            }
        }

        fn apply(&mut self, event: Event<()>) -> Reply {
            let fx = self.records.apply(event);
            for id in fx.aborts {
                for server in &mut self.servers {
                    if let Some(run @ Run::Running) = &mut server[ix(id)] {
                        *run = Run::Aborted;
                    }
                }
            }
            self.outbox
                .extend(fx.registers.into_iter().map(|(reg, ())| reg));
            self.outbox.sort();
            fx.reply
        }

        /// Node `at`'s server decides on `id`: a duplicate is admitted,
        /// a new one admitted (`admit`) or refused.
        fn settle(&mut self, id: u64, at: usize, admit: bool) {
            let run = &mut self.servers[at][ix(id)];
            let verdict = if run.is_some() || admit {
                run.get_or_insert(Run::Running);
                if self.records.records.contains_key(&id) {
                    self.admitted[ix(id)] = true;
                }
                Ok(())
            } else {
                Err("refused".to_string())
            };
            self.apply(Event::Settled(id, at, verdict));
        }

        fn stopped(&self, j: usize) -> bool {
            self.records.stopped.contains(&j)
        }

        /// Every state one step away.
        fn successors(&self) -> Vec<World> {
            let mut next = Vec::new();
            let mut step = |enabled: bool, f: &dyn Fn(&mut World) -> bool| {
                if enabled {
                    let mut w = self.clone();
                    if f(&mut w) {
                        next.push(w);
                    }
                }
            };
            for (i, &id) in IDS.iter().enumerate() {
                let idle = self.clients[i] == Client::Idle;
                for g in (0..NODES).filter(|&g| !self.stopped(g)) {
                    step(idle && self.records.alive.contains(&g), &|w| {
                        let submit = Event::Submit {
                            id,
                            via: g,
                            inputs: (),
                        };
                        assert!(matches!(w.apply(submit), Reply::Done));
                        w.clients[i] = Client::Submitting;
                        true
                    });
                }
                step(self.clients[i] == Client::Live, &|w| w.wait(id));
                if let Client::Harvested(seen, ok) = &self.clients[i] {
                    step(true, &|w| {
                        let (seen, ok) = (seen.clone(), *ok);
                        let reply = w.apply(Event::Verdict { id, seen, ok });
                        w.clients[i] = match reply {
                            Reply::Pending => Client::Live,
                            _ => {
                                w.waits += 1;
                                Client::Done
                            }
                        };
                        true
                    });
                }
                for n in 0..NODES {
                    for ok in [true, false] {
                        step(self.servers[n][i] == Some(Run::Running), &|w| {
                            w.servers[n][i] = Some(Run::Finished(ok));
                            true
                        });
                    }
                }
            }
            let mut outbox = self.outbox.clone();
            outbox.dedup();
            for reg in outbox {
                // A remote send does not depend on the server's choice.
                for admit in [true, false] {
                    step(admit || reg.to == reg.from, &|w| w.transmit(reg, admit));
                }
            }
            let mut inbox = self.inbox.clone();
            inbox.dedup();
            for (to, id) in inbox {
                for admit in [true, false] {
                    step(true, &|w| {
                        let k = w.inbox.iter().position(|&m| m == (to, id)).unwrap();
                        w.inbox.remove(k);
                        w.settle(id, to, admit);
                        true
                    });
                }
            }
            let may_stop = self.records.stopped.len() + 1 < NODES;
            for j in (0..NODES).filter(|&j| may_stop && !self.stopped(j)) {
                step(true, &|w| {
                    assert!(matches!(w.apply(Event::Kill { node: j }), Reply::Done));
                    w.inbox.retain(|&(to, _)| to != j);
                    true
                });
                step(true, &|w| w.leave(j));
            }
            for n in (0..NODES).filter(|&n| !self.stopped(n)) {
                for d in (0..NODES).filter(|&d| d != n && self.stopped(d)) {
                    let fresh = !self.observed[n][d] && !self.records.leaving.contains(&d);
                    step(fresh, &|w| {
                        w.observed[n][d] = true;
                        let (observer, dead) = (n, d);
                        w.apply(Event::PeerDown { observer, dead });
                        true
                    });
                }
            }
            next
        }

        /// Hands `reg` on, as `FleetNode::deliver` does; `admit` is the
        /// local server's choice for a new session.
        fn transmit(&mut self, reg: Register, admit: bool) -> bool {
            let k = self.outbox.iter().position(|&r| r == reg).unwrap();
            self.outbox.remove(k);
            let ok = if reg.to == reg.from {
                let fresh = self.servers[reg.to][ix(reg.id)].is_none();
                let handed = reg.replace || (admit && fresh);
                if handed {
                    self.settle(reg.id, reg.to, admit);
                }
                handed
            } else {
                let ok = self.records.alive.contains(&reg.to);
                if ok {
                    self.inbox.push((reg.to, reg.id));
                    self.inbox.sort();
                }
                ok
            };
            self.apply(Event::Sent { reg, ok });
            if !reg.replace {
                self.clients[ix(reg.id)] = if ok { Client::Live } else { Client::Done };
            }
            true
        }

        fn wait(&mut self, id: u64) -> bool {
            match self.apply(Event::Wait { id }) {
                Reply::Err(FleetError::UnknownSession(_)) => panic!("live id {id} has no record"),
                Reply::Err(_) => {
                    self.waits += 1;
                    self.clients[ix(id)] = Client::Done;
                    true
                }
                Reply::Harvest(seen) => match self.servers[seen.0][ix(id)].take() {
                    Some(Run::Running) => false,
                    run => {
                        let ok = run == Some(Run::Finished(true));
                        self.clients[ix(id)] = Client::Harvested(seen, ok);
                        true
                    }
                },
                _ => false,
            }
        }

        /// `Fleet::leave`: the running sessions are the leaver's admitted
        /// ones its server still runs; aborted ones are harvested.
        fn leave(&mut self, j: usize) -> bool {
            let server = self.servers[j];
            let running = self.records.admitted_by(j);
            let running = running
                .into_iter()
                .filter(|&id| server[ix(id)] == Some(Run::Running))
                .collect();
            if let Reply::Err(e) = self.apply(Event::Leave { node: j, running }) {
                assert!(matches!(e, FleetError::NoNodes), "leave({j}): {e}");
                return false;
            }
            for run in &mut self.servers[j] {
                if *run == Some(Run::Aborted) {
                    *run = None;
                }
            }
            self.inbox.retain(|&(to, _)| to != j);
            true
        }
    }

    /// The invariants every reachable state must hold.
    fn check(w: &World) {
        let r = &w.records;
        let m = r.metrics();
        let mut live = 0;
        for (&id, client) in IDS.iter().zip(&w.clients) {
            // A record is held from submit to the one verdict, and then
            // gone: a second wait finds nothing, and no placement.
            let held = !matches!(client, Client::Idle | Client::Done);
            assert_eq!(r.records.contains_key(&id), held, "id {id} {client:?}");
            live += usize::from(held);
        }
        assert_eq!(m.registrations_live, live);
        let admitted = w.admitted.iter().filter(|&&a| a).count();
        assert_eq!(m.sessions_started, admitted as u64);
        assert_eq!(m.sessions_completed + m.sessions_failed, w.waits);
        for (id, rec) in &r.records {
            if rec.admission != Admission::Unacked {
                continue;
            }
            // An un-acked record is settled by its alive owner, re-placed
            // by its origin once the owner's death is seen there, or
            // reported `NodeDown` once its origin is dead too.
            let (owner, origin) = (rec.owner, rec.origin);
            let replacer = !w.stopped(origin) && !w.observed[origin][owner];
            let doomed = r.dead.contains(&origin) || w.stopped(origin);
            let settles = r.alive.contains(&owner);
            let ok = settles || (r.dead.contains(&owner) && (replacer || doomed));
            assert!(ok, "id {id} stranded: {rec:?} in {w:?}");
        }
    }

    #[test]
    fn every_behaviour_up_to_the_depth_keeps_the_invariants() {
        let started = Instant::now();
        let mut frontier = vec![World::new()];
        let mut seen: HashSet<u128> = frontier.iter().map(fingerprint).collect();
        for _ in 0..DEPTH {
            let mut next = Vec::new();
            for w in &frontier {
                let successors = w.successors();
                if successors.is_empty() {
                    let open = w
                        .clients
                        .iter()
                        .any(|c| !matches!(c, Client::Idle | Client::Done));
                    assert!(!open, "a submitted id never gets its verdict: {w:?}");
                }
                for s in successors {
                    if seen.insert(fingerprint(&s)) {
                        check(&s);
                        next.push(s);
                    }
                }
            }
            frontier = next;
        }
        println!(
            "model check: depth {DEPTH}, {} distinct states, {:?}",
            seen.len(),
            started.elapsed()
        );
    }

    #[test]
    fn a_replacement_whose_send_fails_is_not_counted() {
        let mut r = Records::<()>::new(3);
        // An id gateway 0 forwards: owned by another node.
        let id = (1..).find(|&id| r.owner_of(id) != Some(0)).unwrap();
        let owner = r.owner_of(id).unwrap();
        let fx = r.apply(Event::Submit {
            id,
            via: 0,
            inputs: (),
        });
        let (reg, ()) = fx.registers[0];
        r.apply(Event::Sent { reg, ok: true });
        r.apply(Event::Kill { node: owner });
        let fx = r.apply(Event::PeerDown {
            observer: 0,
            dead: owner,
        });
        let (again, ()) = fx.registers[0];
        assert!(again.replace && again.from == 0);
        r.apply(Event::Sent {
            reg: again,
            ok: false,
        });
        assert_eq!(r.metrics().registrations_replaced, 0);
        r.apply(Event::Sent {
            reg: again,
            ok: true,
        });
        assert_eq!(r.metrics().registrations_replaced, 1);
        assert_eq!(r.metrics().registrations_forwarded, 1);
    }
}
