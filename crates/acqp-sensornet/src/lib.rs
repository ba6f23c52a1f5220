//! # acqp-sensornet — sensor-network execution substrate
//!
//! The paper's architecture (§2.5, Fig. 4): a well-provisioned
//! *basestation* collects historical readings, builds a conditional plan
//! off-line, and ships its compact encoding into the network; *motes*
//! execute the plan per epoch — a cheap binary-tree traversal — and
//! transmit passing tuples back. §2.4 adds the communication-aware
//! objective `argmin_P C(P) + α·ζ(P)`, and §7 the "complex acquisition
//! costs" extension where sensors share a board whose power-up is paid
//! once per tuple.
//!
//! All of that is built here:
//!
//! * [`energy`] — energy accounting: per-sensor µJ, shared-board
//!   power-up, radio per-byte costs.
//! * [`fault`] — deterministic seeded fault injection: lossy links with
//!   bounded retry + exponential backoff, mote dropout schedules,
//!   sensing failures (`sensornet.fault.*` taxonomy, `DESIGN.md` §9).
//! * [`interp`] — a byte-code interpreter that executes the *wire
//!   encoding* of a plan directly (no decoding, no heap) — what a mote
//!   would run, and the checked reference the verifier tests hold the
//!   prepared plans to.
//! * [`mote`] — a mote: a per-epoch trace with an energy ledger and the
//!   sensing charge for each epoch's acquisition chain.
//! * [`basestation`] — plan construction, the α-penalized plan-size
//!   choice, dissemination costing.
//! * [`sim`] — the epoch loop tying it together: one
//!   [`run_simulation`] whose [`SimOptions`] add faults, drift
//!   re-planning, crashes or a multihop [`Topology`], every option set
//!   run through batch windows, with a network-wide energy report.
//! * [`topology`] — multihop collection trees, the radio model of a
//!   multihop run.
//! * [`recovery`] — crash-safe basestation: checkpoint/WAL journaling
//!   through `acqp-persist`, seeded basestation crashes (the `crash`
//!   option of [`run_simulation`]), recovery with re-dissemination
//!   charged to the energy model (`recovery.*` taxonomy).
//! * [`service`] — the multi-query service loop: a schedule of
//!   concurrent queries over one fleet with per-epoch acquisition
//!   merging and a pluggable planning policy (`serve.*` taxonomy,
//!   `DESIGN.md` §14; the policy layer lives in `acqp-serve`).

#![warn(missing_docs)]
// Determinism tests assert bitwise-equal floats on purpose; the
// workspace-level `float_cmp` warning stays on for library code.
#![cfg_attr(test, allow(clippy::float_cmp))]
pub mod basestation;
pub mod energy;
pub mod fault;
pub mod interp;
pub mod mote;
pub mod recovery;
pub mod service;
pub mod sim;
pub mod topology;

pub use basestation::{Basestation, PlannedQuery, PlannerChoice, ReplanBudget, ReplanOutcome};
pub use energy::{EnergyLedger, EnergyModel};
pub use fault::{attempt_packet, Delivery, Dropout, FaultModel, FaultStats, FaultStream};
pub use interp::execute_wire;
pub use mote::Mote;
pub use recovery::{CrashConfig, CrashReport};
pub use service::{
    run_service_with, AdmittedPlan, QueryOutcome, ScheduleEntry, ServePlanner, ServePolicyState,
    ServeRobustReport, ServiceOptions, ServicePolicy, ServiceReport,
};
pub use sim::{
    result_packet_bytes, run_simulation, sample_packet_bytes, AdaptiveConfig, FaultReport,
    ReplanEvent, SimOptions, SimReport,
};
pub use topology::Topology;
