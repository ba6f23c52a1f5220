//! A simulated mote: a per-epoch trace with energy accounting.

use std::sync::Arc;

use acqp_core::{AttrId, Dataset, Schema};

use crate::energy::{EnergyLedger, EnergyModel};
use crate::fault::{FaultModel, FaultStats};

/// One sensor node. Its "physical world" is a pre-generated trace: row
/// `e` of `trace` holds the values its sensors *would* read during epoch
/// `e`. Energy is only charged for attributes the executing plan
/// actually acquires. The trace is read-only and shared: motes that
/// observe the same rows hold one allocation (see
/// [`fleet_from_trace`](crate::sim::fleet_from_trace)).
#[derive(Debug)]
pub struct Mote {
    id: u16,
    trace: Arc<Dataset>,
    ledger: EnergyLedger,
}

impl Mote {
    /// Creates a mote from its per-epoch trace: an owned [`Dataset`],
    /// or an `Arc` another mote already holds.
    pub fn new(id: u16, trace: impl Into<Arc<Dataset>>) -> Self {
        Mote { id, trace: trace.into(), ledger: EnergyLedger::default() }
    }

    /// Node identifier.
    pub fn id(&self) -> u16 {
        self.id
    }

    /// Number of epochs of trace available.
    pub fn epochs(&self) -> usize {
        self.trace.len()
    }

    /// Energy spent so far.
    pub fn ledger(&self) -> &EnergyLedger {
        &self.ledger
    }

    /// Mutable ledger access for topology-level charging.
    pub(crate) fn ledger_mut(&mut self) -> &mut EnergyLedger {
        &mut self.ledger
    }

    /// Charges reception of `bytes` (plan dissemination).
    pub fn receive(&mut self, bytes: usize, model: &EnergyModel) {
        self.ledger.radio_rx_uj += bytes as f64 * model.radio_rx_uj_per_byte;
    }

    /// Charges transmission of `bytes` (result reporting).
    pub fn transmit(&mut self, bytes: usize, model: &EnergyModel) {
        self.ledger.radio_tx_uj += bytes as f64 * model.radio_tx_uj_per_byte;
    }

    /// Ground-truth reading (free of charge — used by the simulator to
    /// validate plan verdicts, never by plans).
    pub fn peek(&self, epoch: usize, attr: AttrId) -> u16 {
        self.trace.value(epoch, attr)
    }

    /// The mote's full trace — the batch executor and the serve
    /// engine's row walk read it directly; the chains they produce are
    /// charged through [`Mote::charge_slot`].
    pub(crate) fn trace(&self) -> &Dataset {
        &self.trace
    }

    /// Charges one slot's merged acquisition chain at `epoch`, in
    /// chain order, and returns the mask of attributes whose read
    /// aborted (bit `a` for attribute `a`, ids ≥ 64 folded onto bit 63).
    /// Each attempt at an attribute costs its sensing energy and powers
    /// its board up at most once per call (§7: one power-up per epoch);
    /// a read that fails [`FaultModel::sensor_ok`] is retried up to the
    /// attempt cap, each failure counted in `stats.sensing_failures`,
    /// and a read that exhausts the cap counts one
    /// `stats.sensing_aborts`. An aborted read still returns the trace
    /// value, so the rest of the chain is read and charged as usual.
    /// Under a lossless model every read succeeds on its first attempt.
    pub(crate) fn charge_slot(
        &mut self,
        chain: &[AttrId],
        epoch: usize,
        schema: &Schema,
        model: &EnergyModel,
        faults: &FaultModel,
        stats: &FaultStats,
    ) -> u64 {
        self.charge::<false>(chain.iter().copied(), epoch, schema, model, faults, stats)
    }

    /// Charges a statistics sample at `epoch`: every attribute of the
    /// schema that `acquired` (the slot's chain) did not read, in id
    /// order, through the same attempt loop as [`Mote::charge_slot`]
    /// with its own board power-ups. Stops after the first read that
    /// aborts and returns whether one did; the sample is then not sent.
    pub(crate) fn charge_sample(
        &mut self,
        acquired: &[AttrId],
        epoch: usize,
        schema: &Schema,
        model: &EnergyModel,
        faults: &FaultModel,
        stats: &FaultStats,
    ) -> bool {
        let rest = (0..schema.len()).filter(|a| !acquired.contains(a));
        self.charge::<true>(rest, epoch, schema, model, faults, stats) != 0
    }

    /// The attempt loop behind [`Mote::charge_slot`] and
    /// [`Mote::charge_sample`]. `STOP` ends the loop after the first
    /// aborted attribute.
    #[inline]
    fn charge<const STOP: bool>(
        &mut self,
        attrs: impl Iterator<Item = AttrId>,
        epoch: usize,
        schema: &Schema,
        model: &EnergyModel,
        faults: &FaultModel,
        stats: &FaultStats,
    ) -> u64 {
        let mut boards_on = 0u64;
        let mut aborted = 0u64;
        for attr in attrs {
            let mut attempt = 0u32;
            loop {
                self.ledger.sensing_uj += model.sense_uj(schema, attr);
                if let Some(b) = model.board_of(attr) {
                    let bit = 1u64 << b;
                    if boards_on & bit == 0 {
                        boards_on |= bit;
                        self.ledger.board_uj += model.board_powerup_uj;
                    }
                }
                if faults.sensor_ok(self.id, epoch, attr, attempt) {
                    break;
                }
                stats.sensing_failures.incr(1);
                attempt += 1;
                if attempt >= faults.max_attempts {
                    stats.sensing_aborts.incr(1);
                    aborted |= 1u64 << (attr as u32).min(63);
                    break;
                }
            }
            if STOP && aborted != 0 {
                break;
            }
        }
        aborted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acqp_core::Attribute;
    use acqp_obs::{NoopSink, Recorder};
    use std::sync::Arc;

    fn setup() -> (Schema, Mote, EnergyModel) {
        let schema = Schema::new(vec![
            Attribute::new("light", 8, 100.0),
            Attribute::new("temp", 8, 100.0),
            Attribute::new("hour", 8, 1.0),
        ])
        .unwrap();
        let trace = Dataset::from_rows(&schema, vec![vec![1, 2, 3], vec![4, 5, 6]]).unwrap();
        let model = EnergyModel::mica_like().with_board(vec![0, 1], 500.0);
        (schema.clone(), Mote::new(7, trace), model)
    }

    /// Sensing failure counters on an enabled recorder.
    fn stats() -> (Recorder, FaultStats) {
        let rec = Recorder::new(Arc::new(NoopSink));
        let stats = FaultStats::new(&rec);
        (rec, stats)
    }

    #[test]
    fn each_call_powers_a_board_up_once() {
        let (schema, mut mote, model) = setup();
        let (_rec, stats) = stats();
        let faults = FaultModel::none();
        // Cheap attribute (no board), then two on the same board.
        assert_eq!(mote.charge_slot(&[2, 0, 1], 0, &schema, &model, &faults, &stats), 0);
        let l = mote.ledger();
        assert_eq!(l.sensing_uj, 201.0);
        assert_eq!(l.board_uj, 500.0);

        // The next call (the next epoch) powers the board up again.
        mote.charge_slot(&[0], 1, &schema, &model, &faults, &stats);
        assert_eq!(mote.ledger().board_uj, 1000.0);
    }

    #[test]
    fn a_retry_charges_sensing_again_but_not_the_board() {
        let (schema, mut mote, model) = setup();
        let (rec, stats) = stats();
        let faults = FaultModel::lossy(5, 0.0).with_sensing_failures(0.5).with_max_attempts(3);
        // The first epoch whose first read of attribute 0 fails and
        // whose second succeeds.
        let e = (0..1000)
            .find(|&e| !faults.sensor_ok(7, e, 0, 0) && faults.sensor_ok(7, e, 0, 1))
            .unwrap();
        assert_eq!(mote.charge_slot(&[0], e, &schema, &model, &faults, &stats), 0);
        assert_eq!(mote.ledger().sensing_uj, 200.0);
        assert_eq!(mote.ledger().board_uj, 500.0);
        let snap = rec.drain();
        assert_eq!(snap.counter("sensornet.fault.sensing.failures"), 1);
        assert_eq!(snap.counter("sensornet.fault.sensing.aborts"), 0);
    }

    #[test]
    fn an_abort_at_the_attempt_cap_sets_the_attribute_bit() {
        let (schema, mut mote, model) = setup();
        let (rec, stats) = stats();
        // Every read fails; three attempts each.
        let faults = FaultModel::lossy(5, 0.0).with_sensing_failures(1.0).with_max_attempts(3);
        let mask = mote.charge_slot(&[2, 0], 0, &schema, &model, &faults, &stats);
        assert_eq!(mask, 1 << 2 | 1 << 0);
        // Both attributes are read to the cap: the chain goes on past an
        // aborted read.
        assert_eq!(mote.ledger().sensing_uj, 3.0 * 1.0 + 3.0 * 100.0);
        assert_eq!(mote.ledger().board_uj, 500.0);
        let snap = rec.drain();
        assert_eq!(snap.counter("sensornet.fault.sensing.failures"), 6);
        assert_eq!(snap.counter("sensornet.fault.sensing.aborts"), 2);
    }

    #[test]
    fn a_sample_reads_the_rest_of_the_row_and_stops_at_an_abort() {
        let (schema, mut mote, model) = setup();
        let (rec, stats) = stats();
        // Lossless: the sample reads attributes 0 and 2, which the slot
        // did not, and powers the board up on its own.
        let none = FaultModel::none();
        mote.charge_slot(&[1], 0, &schema, &model, &none, &stats);
        assert!(!mote.charge_sample(&[1], 0, &schema, &model, &none, &stats));
        assert_eq!(mote.ledger().sensing_uj, 100.0 + 100.0 + 1.0);
        assert_eq!(mote.ledger().board_uj, 1000.0);

        // Every read fails: attribute 0 aborts after two attempts and
        // attribute 2 is never charged.
        let (schema, mut mote, model) = setup();
        let faults = FaultModel::lossy(5, 0.0).with_sensing_failures(1.0).with_max_attempts(2);
        assert!(mote.charge_sample(&[1], 0, &schema, &model, &faults, &stats));
        assert_eq!(mote.ledger().sensing_uj, 200.0);
        assert_eq!(mote.ledger().board_uj, 500.0);
        assert_eq!(rec.drain().counter("sensornet.fault.sensing.aborts"), 1);
    }

    #[test]
    fn every_mote_of_a_fleet_shares_one_trace_allocation() {
        let (_, mote, _) = setup();
        let fleet = crate::sim::fleet_from_trace(mote.trace(), 5);
        assert_eq!(fleet.len(), 5);
        assert!(fleet.iter().all(|m| Arc::ptr_eq(&m.trace, &fleet[0].trace)));
        assert!(!Arc::ptr_eq(&fleet[0].trace, &mote.trace));
        assert_eq!(Arc::strong_count(&fleet[0].trace), 5);
        assert_eq!(fleet.iter().map(Mote::id).collect::<Vec<_>>(), [0, 1, 2, 3, 4]);
    }

    #[test]
    fn radio_charges() {
        let (_, mut mote, model) = setup();
        mote.receive(20, &model);
        mote.transmit(10, &model);
        assert_eq!(mote.ledger().radio_rx_uj, 15.0);
        assert_eq!(mote.ledger().radio_tx_uj, 10.0);
    }
}
