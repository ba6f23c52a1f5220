//! # acqp — correlation-aware acquisitional query processing
//!
//! Facade crate re-exporting the whole workspace: a reproduction of
//! *"Exploiting Correlated Attributes in Acquisitional Query Processing"*
//! (Deshpande, Guestrin, Hong, Madden — ICDE 2005).
//!
//! * [`core`] — the paper's contribution: conditional plans, cost model,
//!   probability estimation and all planners.
//! * [`data`] — dataset substrates: Lab, Garden and Babu-et-al synthetic
//!   sensor-trace generators, CSV I/O.
//! * [`gm`] — §7 extension: Chow–Liu tree graphical-model estimation.
//! * [`obs`] — observability: zero-dependency spans, counters and
//!   histograms recorded by the planners, executor and simulator.
//! * [`persist`] — crash safety: versioned, checksummed basestation
//!   snapshots plus a write-ahead log with idempotent replay.
//! * [`sensornet`] — execution substrate: motes, energy accounting,
//!   radio costs, basestation planning, plan byte-code interpreter.
//! * [`serve`] — the long-running multi-query service: concurrent
//!   admission over one fleet, shared acquisitions, signature-keyed
//!   plan caching with drift-triggered invalidation.
//! * [`stream`] — §7 extension: sliding-window statistics, drift
//!   detection and automatic re-planning over data streams.
//! * [`verify`] — static verification: structural, semantic and cost
//!   certification of plan wire bytes without executing them.
//!
//! See `examples/` for runnable end-to-end scenarios; start with
//! `cargo run --release --example quickstart`.

#![warn(missing_docs)]
// Determinism tests assert bitwise-equal floats on purpose; the
// workspace-level `float_cmp` warning stays on for library code.
#![cfg_attr(test, allow(clippy::float_cmp))]
pub use acqp_core as core;
pub use acqp_data as data;
pub use acqp_gm as gm;
pub use acqp_obs as obs;
pub use acqp_persist as persist;
pub use acqp_sensornet as sensornet;
pub use acqp_serve as serve;
pub use acqp_stream as stream;
pub use acqp_verify as verify;

/// Everything most programs need: the core prelude plus generators and
/// the sensornet front door.
pub mod prelude {
    pub use acqp_core::prelude::*;
    pub use acqp_data::garden::GardenConfig;
    pub use acqp_data::lab::LabConfig;
    pub use acqp_data::synthetic::SyntheticConfig;
    pub use acqp_data::Generated;
    pub use acqp_gm::{ChowLiuTree, GmEstimator};
    pub use acqp_obs::{MemorySink, NoopSink, Recorder, Snapshot};
    pub use acqp_sensornet::{Basestation, EnergyModel, PlannerChoice, Topology};
    pub use acqp_stream::SlidingWindow;
}
