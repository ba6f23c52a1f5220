//! Deterministic, seeded fault injection for the sensornet substrate.
//!
//! Real mote deployments (the paper's §2.5 setting) lose packets, lose
//! whole nodes, and mis-read sensors. This module models all three with
//! a *stateless* pseudo-random fault source: every fault decision is a
//! pure hash of `(seed, stream, mote, epoch, attempt, extra)`, so a run
//! is bit-reproducible for a fixed seed regardless of evaluation order,
//! and a `loss_rate` of exactly `0.0` takes the same code path as the
//! lossless simulator (the first attempt always succeeds).
//!
//! Recovery policy (see `DESIGN.md` §9): every unicast gets up to
//! [`FaultModel::max_attempts`] tries inside its epoch, with truncated
//! binary exponential backoff between tries ([`FaultModel::backoff_slots`]);
//! a packet that exhausts its attempts inside one epoch has *timed out*
//! and is dropped (results) or deferred to the next epoch
//! (dissemination). Every attempt — delivered or not — is charged to the
//! transmitter's [`crate::energy::EnergyLedger`], and counted under the
//! `sensornet.fault.*` metric taxonomy.

use acqp_core::AttrId;
use acqp_obs::{Counter, Recorder};

/// Which logical packet stream (or sensor read) a fault roll is for.
/// Separating streams keeps the hash inputs disjoint, so e.g. enabling
/// sensing failures cannot perturb which *radio* packets drop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultStream {
    /// Basestation → mote plan dissemination.
    Dissemination,
    /// Mote → basestation result report.
    Result,
    /// Mote → basestation full-tuple statistics sample.
    Sample,
    /// An on-board sensor acquisition.
    Sensing,
    /// A basestation process crash (crash-recovery simulations). Its
    /// own stream keeps crash scheduling from perturbing which packets
    /// drop: a crashy run with a zero crash rate consumes exactly the
    /// same rolls as a crash-free one.
    Crash,
}

impl FaultStream {
    fn tag(self) -> u64 {
        match self {
            FaultStream::Dissemination => 1,
            FaultStream::Result => 2,
            FaultStream::Sample => 3,
            FaultStream::Sensing => 4,
            FaultStream::Crash => 5,
        }
    }
}

/// A scheduled mote outage: the mote is unreachable (no radio, no
/// sensing) for epochs `from..until`, then rejoins.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Dropout {
    /// Affected mote id.
    pub mote: u16,
    /// First epoch of the outage (inclusive).
    pub from: usize,
    /// End of the outage (exclusive); the mote rejoins here.
    pub until: usize,
}

/// Deterministic fault source for one simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultModel {
    /// Seed for the per-decision hash; two runs with equal seeds and
    /// equal configurations behave identically.
    pub seed: u64,
    /// Default per-packet loss probability on every link, in `[0, 1]`.
    pub loss_rate: f64,
    /// Per-mote loss overrides (indexed by mote id); motes beyond the
    /// vector fall back to [`FaultModel::loss_rate`].
    pub link_loss: Vec<f64>,
    /// Probability a single sensor read fails and must be retried.
    pub sensing_fail_rate: f64,
    /// Scheduled mote outages.
    pub dropouts: Vec<Dropout>,
    /// Attempt cap per packet (or sensor read) per epoch; at least 1.
    pub max_attempts: u32,
    /// Backoff slots after the first failed attempt; doubles per retry.
    pub backoff_base: u32,
}

impl Default for FaultModel {
    /// The lossless model, [`FaultModel::none`].
    fn default() -> Self {
        FaultModel::none()
    }
}

impl FaultModel {
    /// The lossless model: what the simulator did before fault
    /// injection existed, and the default of
    /// [`crate::sim::SimOptions`].
    pub fn none() -> Self {
        FaultModel {
            seed: 0,
            loss_rate: 0.0,
            link_loss: Vec::new(),
            sensing_fail_rate: 0.0,
            dropouts: Vec::new(),
            max_attempts: 1,
            backoff_base: 1,
        }
    }

    /// A uniformly lossy radio with the default retry policy
    /// (4 attempts, backoff base 2).
    pub fn lossy(seed: u64, loss_rate: f64) -> Self {
        assert!((0.0..=1.0).contains(&loss_rate), "loss rate must be a probability");
        FaultModel { seed, loss_rate, max_attempts: 4, backoff_base: 2, ..Self::none() }
    }

    /// Sets the per-read sensing failure probability.
    pub fn with_sensing_failures(mut self, rate: f64) -> Self {
        assert!((0.0..=1.0).contains(&rate), "sensing failure rate must be a probability");
        self.sensing_fail_rate = rate;
        self
    }

    /// Overrides the loss probability of `mote`'s link.
    pub fn with_link_loss(mut self, mote: u16, loss: f64) -> Self {
        assert!((0.0..=1.0).contains(&loss), "link loss must be a probability");
        if self.link_loss.len() <= mote as usize {
            self.link_loss.resize(mote as usize + 1, self.loss_rate);
        }
        self.link_loss[mote as usize] = loss;
        self
    }

    /// Schedules an outage.
    pub fn with_dropout(mut self, mote: u16, from: usize, until: usize) -> Self {
        assert!(from < until, "dropout interval must be non-empty");
        self.dropouts.push(Dropout { mote, from, until });
        self
    }

    /// Sets the per-epoch attempt cap (clamped to at least 1).
    pub fn with_max_attempts(mut self, n: u32) -> Self {
        self.max_attempts = n.max(1);
        self
    }

    /// True when no fault of any kind can fire — the model degenerates
    /// to the lossless simulator.
    pub fn is_lossless(&self) -> bool {
        self.loss_rate == 0.0
            && self.sensing_fail_rate == 0.0
            && self.dropouts.is_empty()
            && self.link_loss.iter().all(|&l| l == 0.0)
    }

    /// Loss probability of `mote`'s link to the basestation.
    pub fn link_loss_of(&self, mote: u16) -> f64 {
        self.link_loss.get(mote as usize).copied().unwrap_or(self.loss_rate)
    }

    /// Whether `mote` is up during `epoch`.
    pub fn online(&self, mote: u16, epoch: usize) -> bool {
        !self.dropouts.iter().any(|d| d.mote == mote && d.from <= epoch && epoch < d.until)
    }

    /// The deterministic uniform variate in `[0, 1)` governing one
    /// fault decision. Pure in all arguments: evaluation order cannot
    /// change any outcome.
    pub fn roll(
        &self,
        stream: FaultStream,
        mote: u16,
        epoch: usize,
        attempt: u32,
        extra: u64,
    ) -> f64 {
        let mut h = self.seed ^ 0xA076_1D64_78BD_642F;
        for w in [stream.tag(), mote as u64, epoch as u64, attempt as u64, extra] {
            h = splitmix64(h ^ w);
        }
        (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Whether attempt `attempt` of a packet on `stream` from/to `mote`
    /// in `epoch` gets through. With a zero loss rate this is always
    /// true — no hash is even consulted, keeping the lossless path
    /// branch-identical to the pre-fault simulator.
    pub fn delivered(&self, stream: FaultStream, mote: u16, epoch: usize, attempt: u32) -> bool {
        let p = self.link_loss_of(mote);
        if p <= 0.0 {
            return true;
        }
        self.roll(stream, mote, epoch, attempt, 0) >= p
    }

    /// Whether one read of `attr` on `mote` succeeds.
    pub fn sensor_ok(&self, mote: u16, epoch: usize, attr: AttrId, attempt: u32) -> bool {
        if self.sensing_fail_rate <= 0.0 {
            return true;
        }
        self.roll(FaultStream::Sensing, mote, epoch, attempt, attr as u64 + 1)
            >= self.sensing_fail_rate
    }

    /// Truncated binary exponential backoff: slots waited before retry
    /// `retry` (1-based), `backoff_base · 2^(retry−1)`, capped at 1024
    /// slots so late retries cannot overflow.
    pub fn backoff_slots(&self, retry: u32) -> u64 {
        let exp = retry.saturating_sub(1).min(10);
        ((self.backoff_base.max(1) as u64) << exp).min(1024)
    }
}

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Outcome of pushing one packet through the retry loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Delivery {
    /// Transmission attempts made (each one is charged radio energy).
    pub attempts: u32,
    /// Whether any attempt got through before the cap.
    pub delivered: bool,
    /// Total backoff slots waited between attempts.
    pub backoff_slots: u64,
}

/// Pre-hoisted `sensornet.fault.*` instruments (see `DESIGN.md` §9).
#[derive(Debug)]
pub struct FaultStats {
    /// `sensornet.fault.diss.attempts` / `.lost` / `.timeouts`.
    pub diss_attempts: Counter,
    /// Dissemination attempts that were lost on air.
    pub diss_lost: Counter,
    /// Motes whose dissemination exhausted its per-epoch attempts.
    pub diss_timeouts: Counter,
    /// `sensornet.fault.result.attempts` / `.lost` / `.timeouts`.
    pub result_attempts: Counter,
    /// Result attempts lost on air.
    pub result_lost: Counter,
    /// Result packets dropped after exhausting the attempt cap.
    pub result_timeouts: Counter,
    /// `sensornet.fault.sample.attempts` / `.lost` / `.timeouts`.
    pub sample_attempts: Counter,
    /// Sample attempts lost on air.
    pub sample_lost: Counter,
    /// Sample packets dropped after exhausting the attempt cap.
    pub sample_timeouts: Counter,
    /// `sensornet.fault.sensing.failures` — individual failed reads.
    pub sensing_failures: Counter,
    /// `sensornet.fault.sensing.aborts` — tuples abandoned because one
    /// attribute could not be read within the attempt cap.
    pub sensing_aborts: Counter,
    /// `sensornet.fault.offline_epochs` — mote-epochs lost to dropouts.
    pub offline_epochs: Counter,
    /// `sensornet.fault.backoff_slots` — total CSMA slots waited.
    pub backoff_slots: Counter,
}

impl FaultStats {
    /// Registers the fault instruments on `rec`.
    pub fn new(rec: &Recorder) -> Self {
        FaultStats {
            diss_attempts: rec.counter("sensornet.fault.diss.attempts"),
            diss_lost: rec.counter("sensornet.fault.diss.lost"),
            diss_timeouts: rec.counter("sensornet.fault.diss.timeouts"),
            result_attempts: rec.counter("sensornet.fault.result.attempts"),
            result_lost: rec.counter("sensornet.fault.result.lost"),
            result_timeouts: rec.counter("sensornet.fault.result.timeouts"),
            sample_attempts: rec.counter("sensornet.fault.sample.attempts"),
            sample_lost: rec.counter("sensornet.fault.sample.lost"),
            sample_timeouts: rec.counter("sensornet.fault.sample.timeouts"),
            sensing_failures: rec.counter("sensornet.fault.sensing.failures"),
            sensing_aborts: rec.counter("sensornet.fault.sensing.aborts"),
            offline_epochs: rec.counter("sensornet.fault.offline_epochs"),
            backoff_slots: rec.counter("sensornet.fault.backoff_slots"),
        }
    }

    /// Registers the service-loop flavor of the fault instruments
    /// (`serve.fault.*`), so a faulty serve run and a faulty simulate
    /// run in the same recorder never alias each other's counters. The
    /// field shape is identical — [`attempt_packet`] and the per-slot
    /// sensing charge work against either flavor unchanged.
    pub fn serve(rec: &Recorder) -> Self {
        FaultStats {
            diss_attempts: rec.counter("serve.fault.diss.attempts"),
            diss_lost: rec.counter("serve.fault.diss.lost"),
            diss_timeouts: rec.counter("serve.fault.diss.timeouts"),
            result_attempts: rec.counter("serve.fault.result.attempts"),
            result_lost: rec.counter("serve.fault.result.lost"),
            result_timeouts: rec.counter("serve.fault.result.timeouts"),
            sample_attempts: rec.counter("serve.fault.sample.attempts"),
            sample_lost: rec.counter("serve.fault.sample.lost"),
            sample_timeouts: rec.counter("serve.fault.sample.timeouts"),
            sensing_failures: rec.counter("serve.fault.sensing.failures"),
            sensing_aborts: rec.counter("serve.fault.sensing.aborts"),
            offline_epochs: rec.counter("serve.fault.offline_epochs"),
            backoff_slots: rec.counter("serve.fault.backoff_slots"),
        }
    }

    fn stream(&self, s: FaultStream) -> (&Counter, &Counter, &Counter) {
        match s {
            FaultStream::Dissemination => {
                (&self.diss_attempts, &self.diss_lost, &self.diss_timeouts)
            }
            FaultStream::Result => {
                (&self.result_attempts, &self.result_lost, &self.result_timeouts)
            }
            FaultStream::Sample => {
                (&self.sample_attempts, &self.sample_lost, &self.sample_timeouts)
            }
            FaultStream::Sensing => {
                unreachable!("sensing faults are counted via the sensing_* instruments")
            }
            FaultStream::Crash => {
                unreachable!("crashes are counted via the recovery.* instruments, not retried")
            }
        }
    }
}

/// Runs the bounded retry + backoff loop for one packet, recording
/// attempts/losses/timeouts under `stream`'s taxonomy. The caller
/// charges radio energy once per returned attempt.
pub fn attempt_packet(
    faults: &FaultModel,
    stream: FaultStream,
    mote: u16,
    epoch: usize,
    stats: &FaultStats,
) -> Delivery {
    let (attempts_c, lost_c, timeout_c) = stats.stream(stream);
    let mut slots = 0u64;
    for attempt in 0..faults.max_attempts {
        attempts_c.incr(1);
        if faults.delivered(stream, mote, epoch, attempt) {
            return Delivery { attempts: attempt + 1, delivered: true, backoff_slots: slots };
        }
        lost_c.incr(1);
        if attempt + 1 < faults.max_attempts {
            let wait = faults.backoff_slots(attempt + 1);
            slots += wait;
            stats.backoff_slots.incr(wait);
        }
    }
    timeout_c.incr(1);
    Delivery { attempts: faults.max_attempts, delivered: false, backoff_slots: slots }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lossless_model_never_faults() {
        let f = FaultModel::none();
        assert!(f.is_lossless());
        for e in 0..50 {
            assert!(f.delivered(FaultStream::Result, 3, e, 0));
            assert!(f.sensor_ok(3, e, 1, 0));
            assert!(f.online(3, e));
        }
    }

    #[test]
    fn rolls_are_deterministic_and_seed_sensitive() {
        let a = FaultModel::lossy(42, 0.3);
        let b = FaultModel::lossy(42, 0.3);
        let c = FaultModel::lossy(43, 0.3);
        let mut diverged = false;
        for e in 0..64 {
            let ra = a.roll(FaultStream::Result, 1, e, 0, 0);
            assert_eq!(ra.to_bits(), b.roll(FaultStream::Result, 1, e, 0, 0).to_bits());
            assert!((0.0..1.0).contains(&ra));
            diverged |= ra.to_bits() != c.roll(FaultStream::Result, 1, e, 0, 0).to_bits();
        }
        assert!(diverged, "different seeds must behave differently");
    }

    #[test]
    fn loss_rate_is_roughly_honored() {
        let f = FaultModel::lossy(7, 0.25);
        let lost = (0..4000).filter(|&e| !f.delivered(FaultStream::Result, 0, e, 0)).count();
        let frac = lost as f64 / 4000.0;
        assert!((frac - 0.25).abs() < 0.03, "observed loss {frac}");
    }

    #[test]
    fn crash_stream_is_independent_of_packet_streams() {
        // Same (mote, epoch, attempt) inputs on different streams must
        // draw independent variates — enabling basestation crashes can
        // never change which packets a run drops.
        let f = FaultModel::lossy(99, 0.3);
        let mut differs = false;
        for e in 0..32 {
            let crash = f.roll(FaultStream::Crash, 0, e, 0, 0);
            let result = f.roll(FaultStream::Result, 0, e, 0, 0);
            assert!((0.0..1.0).contains(&crash));
            differs |= crash.to_bits() != result.to_bits();
        }
        assert!(differs, "crash stream must not alias the result stream");
    }

    #[test]
    fn dropout_schedule_and_link_overrides() {
        let f = FaultModel::lossy(1, 0.0).with_dropout(2, 5, 8).with_link_loss(1, 1.0);
        assert!(!f.is_lossless());
        assert!(f.online(2, 4) && !f.online(2, 5) && !f.online(2, 7) && f.online(2, 8));
        assert!(f.online(1, 6), "link loss is not an outage");
        assert!(!f.delivered(FaultStream::Result, 1, 0, 0), "loss 1.0 drops everything");
        assert!(f.delivered(FaultStream::Result, 0, 0, 0), "other links keep the base rate");
    }

    #[test]
    fn retry_respects_cap_and_backoff_doubles() {
        let f = FaultModel::lossy(9, 1.0).with_max_attempts(5);
        let rec = Recorder::disabled();
        let stats = FaultStats::new(&rec);
        let d = attempt_packet(&f, FaultStream::Result, 0, 0, &stats);
        assert!(!d.delivered);
        assert_eq!(d.attempts, 5);
        // base 2: retries wait 2 + 4 + 8 + 16 slots (no wait after the
        // final attempt).
        assert_eq!(d.backoff_slots, 2 + 4 + 8 + 16);
        assert_eq!(f.backoff_slots(1), 2);
        assert_eq!(f.backoff_slots(2), 4);
        assert_eq!(f.backoff_slots(30), 1024, "backoff is capped");
    }

    #[test]
    fn zero_loss_delivers_first_try() {
        let f = FaultModel::lossy(1234, 0.0);
        let rec = Recorder::disabled();
        let stats = FaultStats::new(&rec);
        let d = attempt_packet(&f, FaultStream::Dissemination, 6, 3, &stats);
        assert_eq!(d, Delivery { attempts: 1, delivered: true, backoff_slots: 0 });
    }
}
