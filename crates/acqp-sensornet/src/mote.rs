//! A simulated mote: a trace-fed tuple source with energy accounting.

use acqp_core::{AttrId, Dataset, Schema, TupleSource};

use crate::energy::{EnergyLedger, EnergyModel};
use crate::fault::{FaultModel, FaultStats};

/// One sensor node. Its "physical world" is a pre-generated trace: row
/// `e` of `trace` holds the values its sensors *would* read during epoch
/// `e`. Energy is only charged for attributes the executing plan
/// actually acquires.
#[derive(Debug)]
pub struct Mote {
    id: u16,
    trace: Dataset,
    ledger: EnergyLedger,
}

impl Mote {
    /// Creates a mote from its per-epoch trace.
    pub fn new(id: u16, trace: Dataset) -> Self {
        Mote { id, trace, ledger: EnergyLedger::default() }
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
    /// engine's row walk read it directly instead of through metered
    /// sensor reads, and charge the resulting chains separately.
    pub(crate) fn trace(&self) -> &Dataset {
        &self.trace
    }

    /// Charges one slot's merged acquisition chain at `epoch`, in
    /// chain order, and returns the mask of attributes whose read
    /// aborted (bit `a` for attribute `a`, ids ≥ 64 folded onto bit 63).
    /// Each attempt at an attribute costs its sensing energy and powers
    /// its board up at most once per slot; a read that fails
    /// [`FaultModel::sensor_ok`] is retried up to the attempt cap, each
    /// failure counted in `stats.sensing_failures`, and a read that
    /// exhausts the cap counts one `stats.sensing_aborts`. These are the
    /// exact `f64` additions of a [`FaultySource`] over this mote's
    /// [`MeteredSource`] acquiring the same chain, so both execution
    /// modes keep bitwise-equal ledgers; under a lossless model every
    /// read succeeds on its first attempt.
    ///
    /// [`FaultySource`]: crate::fault::FaultySource
    pub(crate) fn charge_slot(
        &mut self,
        chain: &[AttrId],
        epoch: usize,
        schema: &Schema,
        model: &EnergyModel,
        faults: &FaultModel,
        stats: &FaultStats,
    ) -> u64 {
        let mut boards_on = 0u64;
        let mut aborted = 0u64;
        for &attr in chain {
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
        }
        aborted
    }

    /// Begins epoch `epoch`, returning a metered [`TupleSource`] that
    /// charges this mote's ledger for every acquisition.
    pub fn epoch_source<'m>(
        &'m mut self,
        epoch: usize,
        schema: &'m Schema,
        model: &'m EnergyModel,
    ) -> MeteredSource<'m> {
        assert!(epoch < self.trace.len());
        MeteredSource {
            trace: &self.trace,
            epoch,
            schema,
            model,
            ledger: &mut self.ledger,
            boards_on: 0,
        }
    }
}

/// A [`TupleSource`] that reads one trace row and charges sensing plus
/// board power-up energy (§7 complex costs: first use of a board in an
/// epoch powers it up).
pub struct MeteredSource<'m> {
    trace: &'m Dataset,
    epoch: usize,
    schema: &'m Schema,
    model: &'m EnergyModel,
    ledger: &'m mut EnergyLedger,
    boards_on: u64,
}

impl TupleSource for MeteredSource<'_> {
    fn acquire(&mut self, attr: AttrId) -> u16 {
        self.ledger.sensing_uj += self.model.sense_uj(self.schema, attr);
        if let Some(b) = self.model.board_of(attr) {
            let bit = 1u64 << b;
            if self.boards_on & bit == 0 {
                self.boards_on |= bit;
                self.ledger.board_uj += self.model.board_powerup_uj;
            }
        }
        self.trace.value(self.epoch, attr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acqp_core::Attribute;

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

    #[test]
    fn metered_acquisition_charges_sensing_and_board_once() {
        let (schema, mut mote, model) = setup();
        {
            let mut src = mote.epoch_source(0, &schema, &model);
            assert_eq!(src.acquire(2), 3); // cheap, no board
            assert_eq!(src.acquire(0), 1); // board powers up
            assert_eq!(src.acquire(1), 2); // same board, no second powerup
        }
        let l = mote.ledger();
        assert_eq!(l.sensing_uj, 201.0);
        assert_eq!(l.board_uj, 500.0);

        // A new epoch powers the board up again.
        {
            let mut src = mote.epoch_source(1, &schema, &model);
            assert_eq!(src.acquire(0), 4);
        }
        assert_eq!(mote.ledger().board_uj, 1000.0);
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
