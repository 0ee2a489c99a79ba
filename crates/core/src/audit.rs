//! The who-saw-what audit ledger.
//!
//! SAP's privacy argument is an information-flow argument: the coordinator
//! never observes (perturbed) data, the miner never observes raw
//! perturbation parameters next to identified sources, and data reaches the
//! miner only through an anonymizing relay hop. Rather than trusting the
//! role implementations, every actor appends each delivery it *receives*
//! to a shared ledger (kind and endpoints only — never payloads), and
//! tests assert the flow properties over the ledger.
//!
//! Deliveries come in two shapes. Control messages ([`SapMessage`]) are
//! recorded whole and never carry record data. Datasets travel only as
//! row-block streams, recorded as `perturbed-data` or `relayed-data` the
//! moment their header arrives — before any block does, so a role that
//! must never see data (the coordinator) is on the ledger, and aborts,
//! without holding a single row.

use crate::messages::SapMessage;
use parking_lot::Mutex;
use sap_net::PartyId;
use std::sync::Arc;

/// One observed delivery.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditEvent {
    /// Sender.
    pub from: PartyId,
    /// Receiver (the party recording the event).
    pub to: PartyId,
    /// Delivery kind: [`SapMessage::kind`] for a control message,
    /// `perturbed-data` or `relayed-data` for a dataset stream.
    pub kind: &'static str,
    /// Whether the delivery carried record data (a dataset stream).
    pub carries_data: bool,
    /// Whether the payload carried perturbation parameters/adaptors.
    pub carries_parameters: bool,
}

/// A shared, append-only ledger of deliveries.
#[derive(Debug, Clone, Default)]
pub struct AuditLog {
    events: Arc<Mutex<Vec<AuditEvent>>>,
}

impl AuditLog {
    /// Creates an empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records the delivery of control message `msg` from `from` to `to`.
    /// No control message carries record data: datasets travel only as
    /// streams, recorded with [`AuditLog::record_kind`].
    pub fn record(&self, from: PartyId, to: PartyId, msg: &SapMessage) {
        self.record_kind(from, to, msg.kind(), false, msg.carries_parameters());
    }

    /// Records a delivery by its classification alone — used for dataset
    /// streams, which are recorded from their header the moment they open
    /// (relays never decode their blocks; the ledger stores kind and
    /// endpoints only, never payloads).
    pub fn record_kind(
        &self,
        from: PartyId,
        to: PartyId,
        kind: &'static str,
        carries_data: bool,
        carries_parameters: bool,
    ) {
        self.events.lock().push(AuditEvent {
            from,
            to,
            kind,
            carries_data,
            carries_parameters,
        });
    }

    /// Snapshot of all events so far.
    pub fn events(&self) -> Vec<AuditEvent> {
        self.events.lock().clone()
    }

    /// Number of recorded deliveries.
    pub fn len(&self) -> usize {
        self.events.lock().len()
    }

    /// `true` when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.lock().is_empty()
    }

    /// Information-flow check: did `party` ever receive record data?
    pub fn party_saw_data(&self, party: PartyId) -> bool {
        self.events
            .lock()
            .iter()
            .any(|e| e.to == party && e.carries_data)
    }

    /// Information-flow check: did `party` ever receive perturbation
    /// parameters or adaptors?
    pub fn party_saw_parameters(&self, party: PartyId) -> bool {
        self.events
            .lock()
            .iter()
            .any(|e| e.to == party && e.carries_parameters)
    }

    /// Verifies SAP's core information-flow invariants for a finished
    /// session; returns a description of the first violation, if any.
    ///
    /// * The coordinator never receives data.
    /// * The miner receives data only as `relayed-data` (anonymized hop),
    ///   never as direct `perturbed-data`.
    /// * No provider other than the coordinator receives adaptors.
    pub fn verify_flow(
        &self,
        coordinator: PartyId,
        miner: PartyId,
        providers: &[PartyId],
    ) -> Result<(), String> {
        for e in self.events.lock().iter() {
            if e.to == coordinator && e.carries_data {
                return Err(format!("coordinator received data ({})", e.kind));
            }
            if e.to == miner && e.kind == "perturbed-data" {
                return Err("miner received un-relayed perturbed data".into());
            }
            if e.kind == "adaptor" && e.to != coordinator {
                return Err(format!("adaptor sent to non-coordinator {}", e.to));
            }
            if e.kind == "adaptor-table" && e.to != miner {
                return Err(format!("adaptor table sent to non-miner {}", e.to));
            }
            if e.to != miner && e.kind == "relayed-data" {
                return Err(format!("relayed data sent to non-miner {}", e.to));
            }
            if e.carries_data && e.to != miner && !providers.contains(&e.to) {
                return Err(format!("data delivered outside the provider set: {}", e.to));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Records a dataset stream of `kind` as the roles do, from its header.
    fn record_data(log: &AuditLog, from: PartyId, to: PartyId, kind: &'static str) {
        log.record_kind(from, to, kind, true, false);
    }

    #[test]
    fn records_and_queries() {
        let log = AuditLog::new();
        assert!(log.is_empty());
        record_data(&log, PartyId(1), PartyId(2), "perturbed-data");
        assert_eq!(log.len(), 1);
        assert!(log.party_saw_data(PartyId(2)));
        assert!(!log.party_saw_data(PartyId(1)));
        let senders: Vec<PartyId> = log
            .events
            .lock()
            .iter()
            .filter(|e| e.to == PartyId(2) && e.kind == "perturbed-data")
            .map(|e| e.from)
            .collect();
        assert_eq!(senders, vec![PartyId(1)]);
        log.record(
            PartyId(3),
            PartyId(1),
            &SapMessage::MiningComplete { unified_records: 1 },
        );
        assert!(!log.party_saw_data(PartyId(1)));
    }

    #[test]
    fn flow_verification_catches_coordinator_data() {
        let log = AuditLog::new();
        let coord = PartyId(9);
        record_data(&log, PartyId(1), coord, "perturbed-data");
        let err = log
            .verify_flow(coord, PartyId(100), &[PartyId(1), PartyId(2), coord])
            .unwrap_err();
        assert!(err.contains("coordinator received data"));
    }

    #[test]
    fn flow_verification_catches_direct_to_miner() {
        let log = AuditLog::new();
        let miner = PartyId(100);
        record_data(&log, PartyId(1), miner, "perturbed-data");
        let err = log
            .verify_flow(PartyId(9), miner, &[PartyId(1)])
            .unwrap_err();
        assert!(err.contains("un-relayed"));
    }

    #[test]
    fn clean_flow_passes() {
        let log = AuditLog::new();
        let coord = PartyId(2);
        let miner = PartyId(100);
        let providers = [PartyId(0), PartyId(1), coord];
        record_data(&log, PartyId(0), PartyId(1), "perturbed-data");
        record_data(&log, PartyId(1), miner, "relayed-data");
        assert!(log.verify_flow(coord, miner, &providers).is_ok());
    }

    #[test]
    fn shared_across_clones() {
        let log = AuditLog::new();
        let log2 = log.clone();
        record_data(&log, PartyId(1), PartyId(2), "perturbed-data");
        assert_eq!(log2.len(), 1);
    }
}
