//! The epoch-loop simulation (§2.5, Fig. 4): the basestation
//! disseminates a plan, every mote executes it once per epoch against
//! its own trace, passing tuples are reported back, and every step is
//! charged to per-mote energy ledgers.
//!
//! [`run_simulation`] is the one entry point and `Engine` the one loop.
//! [`SimOptions`] selects what the loop layers on top of its default,
//! the lossless single-hop run:
//!
//! * `faults` — lossy dissemination and reporting with bounded retry,
//!   sensing failures and mote dropouts ([`FaultModel`]);
//! * `adaptive` — drift-triggered re-planning ([`AdaptiveConfig`]);
//! * `crash` — basestation crashes with checkpoint/WAL recovery
//!   ([`CrashConfig`]);
//! * `topology` — a multihop collection tree as the radio model
//!   ([`Topology`]).
//!
//! Motes evaluate plans in batch windows of [`BATCH_ROWS`] epochs: the
//! batch executor runs the prepared plan of the version a mote holds
//! over its next rows and records each tuple's verdict and acquisition
//! chain, and each mote-epoch charges its chain through
//! `Mote::charge_slot`, which retries failed sensor reads and reports
//! aborted ones. That is sound under every option set because an
//! aborted read still returns the trace value: a tuple's verdict and
//! chain depend only on its plan and its trace row, and faults change
//! only what the chain costs and which tuples survive. A mote whose plan
//! version changes mid-window (an adopted re-plan reaching it, or a
//! crash recovery re-disseminating an older version) has the rest of
//! its window refilled with the new version's plan.
//!
//! Every option is a setting of the same loop, so the defaults are
//! transparent by construction: at zero loss every packet lands on its
//! first attempt, and an inactive crash config never crashes.
//!
//! Crash semantics: what each mote *actually holds* (`mote_has`)
//! survives a basestation crash; what the basestation *believes* it
//! holds (`bs_known`) is wiped, so a restart re-disseminates the
//! current plan to every mote it no longer knows about — real radio
//! energy, charged like any other dissemination.

use std::sync::Arc;

use acqp_core::drift::DriftMonitor;
use acqp_core::prelude::{estimated_selectivities, CountingEstimator, Ranges};
use acqp_core::{
    truth_columnar, BatchExecutor, BatchOutcome, ColumnBatch, CostModel, Dataset, DriftConfig,
    Error, Plan, PreparedPlan, Query, Result, Schema, BATCH_ROWS,
};
use acqp_obs::{Counter, FlightRecorder, Hist, Recorder, TraceValue};
use acqp_persist::{BasestationCheckpoint, PlanRecord, RecoveryOutcome, WalRecord};
use acqp_stream::SlidingWindow;

use crate::basestation::{Basestation, PlannedQuery, ReplanBudget};
use crate::energy::{EnergyLedger, EnergyModel};
use crate::fault::{attempt_packet, Delivery, FaultModel, FaultStats, FaultStream};
use crate::mote::Mote;
use crate::recovery::{core_err, CrashConfig, CrashReport, CrashRuntime, Journal};
use crate::topology::Topology;

/// Result of simulating one planned query over a fleet of motes.
#[derive(Debug, Clone, Default)]
pub struct SimReport {
    /// Epochs executed.
    pub epochs: usize,
    /// Tuples evaluated (mote-epochs that actually executed a plan).
    pub tuples: usize,
    /// Tuples that satisfied the query (the mote transmitted a result,
    /// delivered or not).
    pub results: usize,
    /// Whether every verdict matched ground truth.
    pub all_correct: bool,
    /// Aggregate energy over all motes.
    pub network: EnergyLedger,
    /// Per-mote energy ledgers.
    pub per_mote: Vec<EnergyLedger>,
    /// Mean per-tuple sensing energy (µJ) — the quantity conditional
    /// plans minimize. `0.0` when no tuple was evaluated (zero epochs
    /// or an empty fleet), never `NaN`.
    pub sensing_uj_per_tuple: f64,
}

/// On-air width of one attribute value: one byte for domains that fit,
/// two otherwise.
fn attr_width(domain: u16) -> usize {
    if domain as u32 <= 256 {
        1
    } else {
        2
    }
}

/// Size of one reported result packet: a two-byte header (mote id +
/// sequence) plus the values of the attributes the query selects, each
/// at its domain's width. Replaces the old fixed 8-byte packet, which
/// mischarged radio energy for narrow and wide queries alike.
pub fn result_packet_bytes(schema: &Schema, query: &Query) -> usize {
    2 + query.attrs().iter().map(|&a| attr_width(schema.domain(a))).sum::<usize>()
}

/// Size of one statistics-sample packet: header, every attribute of the
/// schema at its width, plus two bytes per predicate of piggybacked
/// evaluated/passed counter deltas.
pub fn sample_packet_bytes(schema: &Schema, query: &Query) -> usize {
    2 + schema.attrs().iter().map(|a| attr_width(a.domain())).sum::<usize>() + 2 * query.len()
}

/// One drift-triggered re-planning decision during an adaptive run.
#[derive(Debug, Clone)]
pub struct ReplanEvent {
    /// Epoch at whose end the check fired.
    pub epoch: usize,
    /// The monitor's max per-predicate divergence at that point.
    pub divergence: f64,
    /// Whether the candidate plan was adopted and re-disseminated.
    pub adopted: bool,
    /// Whether the budgeted exhaustive search truncated.
    pub truncated: bool,
    /// Whether the candidate came from the `GreedySeq` fallback.
    pub fell_back: bool,
    /// Expected cost of continuing the stale plan under the window.
    pub stale_cost: f64,
    /// Expected cost of the candidate under the window.
    pub new_cost: f64,
}

/// A [`SimReport`] extended with fault-path accounting.
#[derive(Debug, Clone, Default)]
pub struct FaultReport {
    /// The core simulation report.
    pub sim: SimReport,
    /// Passing tuples whose result packet reached the basestation.
    pub delivered_results: usize,
    /// Passing tuples whose result packet timed out (all attempts lost).
    pub lost_results: usize,
    /// Tuples abandoned because a sensor read failed past the cap.
    pub aborted_tuples: usize,
    /// Mote-epochs lost to dropout schedules.
    pub offline_epochs: usize,
    /// Mote-epochs skipped because the mote never received any plan.
    pub undisseminated_epochs: usize,
    /// Statistics samples that reached the basestation (adaptive runs).
    pub samples_delivered: usize,
    /// Basestation transmit energy spent on (re-)dissemination.
    pub bs_tx_uj: f64,
    /// Drift checks that ran a re-plan (adaptive runs only).
    pub replans: Vec<ReplanEvent>,
}

impl FaultReport {
    /// Fraction of passing tuples whose results actually arrived
    /// (`1.0` when nothing passed — nothing was lost).
    pub fn delivery_rate(&self) -> f64 {
        if self.sim.results > 0 {
            self.delivered_results as f64 / self.sim.results as f64
        } else {
            1.0
        }
    }
}

/// Knobs for the adaptive (drift-triggered re-planning) loop.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptiveConfig {
    /// Divergence threshold / sample gating (see [`DriftConfig`]).
    pub drift: DriftConfig,
    /// Epochs between drift checks at the basestation.
    pub check_every: usize,
    /// Every `sample_every` epochs each mote uploads one full tuple for
    /// the statistics window (paying sensing + radio for it).
    pub sample_every: usize,
    /// Sliding-window capacity (tuples) behind the re-plan estimator.
    pub window: usize,
    /// Minimum window fill before a re-plan is attempted.
    pub min_window: usize,
    /// Planning budget for each re-plan.
    pub budget: ReplanBudget,
    /// §2.4 plan-size penalty applied to re-planned candidates.
    pub alpha: f64,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        AdaptiveConfig {
            drift: DriftConfig::default(),
            check_every: 8,
            sample_every: 4,
            window: 256,
            min_window: 32,
            budget: ReplanBudget::default(),
            alpha: 0.0,
        }
    }
}

/// Everything optional about a simulation run. [`Default`] is the
/// lossless single-hop run: no faults, no re-planning, no crashes, no
/// topology. Every option set runs the same epoch loop.
#[derive(Debug, Clone, Default)]
pub struct SimOptions {
    /// Seeded fault model ([`FaultModel::none`] = lossless).
    pub faults: FaultModel,
    /// Drift-triggered re-planning (`None` keeps the first plan).
    pub adaptive: Option<AdaptiveConfig>,
    /// Crash/checkpoint configuration (inactive by default).
    pub crash: CrashConfig,
    /// Multihop collection tree over the fleet. `None` links every
    /// mote straight to the basestation.
    pub topology: Option<Topology>,
}

impl SimOptions {
    /// Rejects the option sets the engine has no semantics for: the
    /// tree radio model has no loss or recovery semantics, and a
    /// topology must place exactly the fleet's motes.
    fn validate(&self, motes: usize) -> Result<()> {
        let reject = |flag: &str, value: String, why| {
            Err(Error::InvalidFlag { flag: flag.into(), value, why })
        };
        let perturbed =
            !self.faults.is_lossless() || self.crash.is_active() || self.adaptive.is_some();
        match &self.topology {
            Some(t) if t.len() != motes => reject(
                "topology",
                format!("{} motes", t.len()),
                "the topology must place exactly the fleet's motes",
            ),
            Some(_) if perturbed => reject(
                "topology",
                "multihop".into(),
                "the tree radio model has no loss, crash or re-planning semantics; \
                 multihop runs are lossless",
            ),
            _ => Ok(()),
        }
    }
}

/// Runs `planned` for `epochs` epochs on the given motes under `opts`,
/// recording `sensornet.*`, `sensornet.fault.*` and `recovery.*`
/// metrics (`DESIGN.md` §8).
///
/// The plan is certified first: its wire must pass the certificate
/// [`Basestation::plan_query`] applies, and its tree, which the batch
/// executor runs, must encode to exactly that wire. A crashed
/// basestation recovers from its checkpoint directory and
/// re-disseminates, the radio energy totalled in
/// [`CrashReport::recovery_rediss_uj`]; corrupt snapshots and a torn
/// WAL are absorbed and counted. Errors: an uncertifiable or mismatched
/// plan, an option set [`SimOptions`] cannot combine, a drift config
/// the monitor rejects, and persistence I/O failures.
#[allow(clippy::too_many_arguments)]
pub fn run_simulation(
    bs: &Basestation<'_>,
    query: &Query,
    planned: &PlannedQuery,
    motes: &mut [Mote],
    model: &EnergyModel,
    epochs: usize,
    rec: &Recorder,
    opts: &SimOptions,
) -> Result<CrashReport> {
    bs.certify(query, planned)?;
    planned.check_tree_matches_wire()?;
    opts.validate(motes.len())?;
    let adaptive = match &opts.adaptive {
        Some(cfg) => Some(AdaptiveState::new(bs, query, cfg, motes.len())?),
        None => None,
    };
    let crash = CrashRuntime::new(&opts.crash, rec).map_err(core_err)?;
    let schema = bs.schema();
    // Piggybacked counter deltas ride on result packets only when the
    // adaptive loop is on.
    let piggyback = if adaptive.is_some() { 2 * query.len() } else { 0 };
    let mut pred_of: Vec<Option<usize>> = vec![None; schema.len()];
    for (j, &a) in query.attrs().iter().enumerate() {
        pred_of[a] = Some(j);
    }
    let n = motes.len();
    let relay = opts
        .topology
        .as_ref()
        .map(|topo| Relay { topo, ledgers: motes.iter().map(|m| *m.ledger()).collect() });
    let mut eng = Engine {
        schema,
        query,
        motes,
        model,
        faults: &opts.faults,
        rec,
        adaptive,
        crash,
        windows: Windows {
            prepared: vec![prepare(&planned.plan, query, schema)],
            exec: BatchExecutor::new(),
            out: BatchOutcome::default(),
            truth: Vec::new(),
            slots: Vec::new(),
            held: Vec::new(),
            from: 0,
            end: 0,
        },
        relay,
        tuples_c: rec.counter("sensornet.tuples"),
        results_c: rec.counter("sensornet.results"),
        radio_c: rec.counter("sensornet.radio.msgs"),
        acq_hist: rec.hist("sensornet.acquisitions_per_tuple"),
        replan_trig_c: rec.counter("sensornet.replan.triggered"),
        replan_adopt_c: rec.counter("sensornet.replan.adopted"),
        stats: FaultStats::new(rec),
        flight: rec.flight().clone(),
        start_seq: 0,
        ep_tuples: 0,
        ep_results: 0,
        ep_acq: 0,
        last_energy: 0.0,
        sample_bytes: sample_packet_bytes(schema, query),
        uplink_bytes: result_packet_bytes(schema, query) + piggyback,
        pred_of,
        plans: vec![planned.clone()],
        cur: 0,
        mote_has: vec![None; n],
        bs_known: vec![None; n],
        rep: FaultReport {
            sim: SimReport { all_correct: true, ..SimReport::default() },
            ..FaultReport::default()
        },
    };
    let fault = eng.run(epochs)?;
    eng.crash.into_report(fault).map_err(core_err)
}

/// The basestation control loop of an adaptive run: motes piggyback
/// per-predicate evaluated/passed counters on their uplinks and
/// periodically upload full statistics samples; the [`DriftMonitor`]
/// compares actual selectivities against the plan's estimates, and when
/// divergence crosses the threshold the basestation re-plans under the
/// planning budget (falling back to `GreedySeq` on truncation), adopting
/// and re-disseminating the candidate only if it beats the stale plan
/// under the drifted window.
struct AdaptiveState<'a> {
    bs: &'a Basestation<'a>,
    cfg: &'a AdaptiveConfig,
    /// The basestation's warm history estimator. Arming the monitor
    /// computes the query's truth masks once, and checkpoints carry that
    /// mask cache so a recovery can skip re-paying the dataset pass.
    hist_est: CountingEstimator<'a>,
    monitor: DriftMonitor,
    window: SlidingWindow,
    /// Per-mote per-predicate counter deltas not yet flushed to the
    /// basestation (they ride on the next *delivered* uplink). These
    /// buffers live at the motes, so a basestation crash does not lose
    /// them — they arrive with the next successful uplink as usual.
    pend_eval: Vec<Vec<u64>>,
    pend_pass: Vec<Vec<u64>>,
}

impl<'a> AdaptiveState<'a> {
    /// Arms the control loop for `query` over a fleet of `motes`. The
    /// monitor starts from the history estimator's selectivities — the
    /// values [`Basestation::estimated_selectivities`] computes.
    fn new(
        bs: &'a Basestation<'a>,
        query: &Query,
        cfg: &'a AdaptiveConfig,
        motes: usize,
    ) -> Result<Self> {
        let hist_est = CountingEstimator::with_ranges(bs.history(), Ranges::root(bs.schema()));
        let monitor = DriftMonitor::new(estimated_selectivities(query, &hist_est), cfg.drift)?;
        Ok(AdaptiveState {
            bs,
            cfg,
            hist_est,
            monitor,
            window: SlidingWindow::new(bs.schema(), cfg.window.max(1)),
            pend_eval: vec![vec![0; query.len()]; motes],
            pend_pass: vec![vec![0; query.len()]; motes],
        })
    }

    /// Flushes mote `i`'s pending predicate counters into the monitor —
    /// called only when an uplink from `i` was actually delivered.
    /// Journaling runs record each flushed delta before applying it, so
    /// a crash replays exactly the counts the monitor had absorbed.
    fn flush_counters(&mut self, i: usize, mut journal: Option<&mut Journal>) {
        for j in 0..self.pend_eval[i].len() {
            let (e, p) = (self.pend_eval[i][j], self.pend_pass[i][j]);
            if e > 0 {
                if let Some(jr) = journal.as_deref_mut() {
                    jr.append(&WalRecord::Observe { pred: j as u16, evaluated: e, passed: p });
                }
                self.monitor.observe_counts(j, e, p);
                self.pend_eval[i][j] = 0;
                self.pend_pass[i][j] = 0;
            }
        }
    }
}

/// Emits a `fault.retry` flight event for any packet needing more than
/// one attempt or lost outright. Lossless runs (first attempt always
/// delivers) emit none.
pub(crate) fn emit_retry(
    flight: &FlightRecorder,
    cause: u64,
    e: usize,
    stream: &str,
    mote: u16,
    d: &Delivery,
) {
    if d.attempts > 1 || !d.delivered {
        flight.emit(
            e as u64,
            cause,
            "fault.retry",
            &[
                ("stream", stream.into()),
                ("mote", u64::from(mote).into()),
                ("attempts", u64::from(d.attempts).into()),
                ("delivered", d.delivered.into()),
            ],
        );
    }
}

/// The batch window: one prepared plan per plan version (parallel to
/// `Engine::plans`), one batch executor, and the current window of at
/// most [`BATCH_ROWS`] epochs for every mote, laid out epoch-major —
/// mote `i`'s slot at epoch `e` sits at `(e - from) * motes + i` — so
/// each epoch of the loop reads one contiguous run of slots.
struct Windows {
    prepared: Vec<PreparedPlan>,
    exec: BatchExecutor,
    out: BatchOutcome,
    truth: Vec<bool>,
    slots: Vec<Slot>,
    /// `held[i]`: the plan version mote `i`'s slots were filled with;
    /// `None` until the mote's first tuple in this window.
    held: Vec<Option<usize>>,
    /// The window's epochs, `from..end`.
    from: usize,
    end: usize,
}

/// One mote-epoch of a window: the batch executor's verdict and
/// acquisition-chain span (into the prepared plan's arena) and the
/// columnar ground truth.
#[derive(Clone, Copy, Default)]
struct Slot {
    verdict: bool,
    truth: bool,
    start: u32,
    len: u32,
}

impl Windows {
    /// Opens the window of epochs `from..end` for `motes` motes; each
    /// mote's slots are filled at its first tuple.
    fn open(&mut self, motes: usize, from: usize, end: usize) {
        self.slots.resize((end - from) * motes, Slot::default());
        self.held.clear();
        self.held.resize(motes, None);
        (self.from, self.end) = (from, end);
    }

    /// Fills mote `i`'s slots from epoch `e` to the window's end,
    /// clipped to its trace, with plan version `ver`. Out of line: it
    /// runs about once per mote per window, so it stays out of the
    /// per-epoch loop's body.
    #[inline(never)]
    fn fill(&mut self, query: &Query, m: &Mote, i: usize, n: usize, ver: usize, e: usize) {
        self.held[i] = Some(ver);
        let rows = self.end.min(m.epochs()).saturating_sub(e);
        let batch = ColumnBatch::slice(m.trace(), e, rows);
        self.exec.execute_batch(&self.prepared[ver], &batch, None, &mut self.out);
        truth_columnar(query, &batch, &mut self.truth);
        let base = e - self.from;
        for (s, &truth) in self.truth.iter().enumerate() {
            let (start, len) = self.out.chain_span(s);
            self.slots[(base + s) * n + i] =
                Slot { verdict: self.out.verdict(s), truth, start, len };
        }
    }
}

/// The batch executor's form of `plan`.
fn prepare(plan: &Plan, query: &Query, schema: &Schema) -> PreparedPlan {
    PreparedPlan::new(plan, query, schema, &CostModel::PerAttribute)
}

/// The multihop radio model: the collection tree and the radio ledgers
/// it charges. Sensing and board energy stay in each mote's own ledger;
/// [`Relay::sync`] copies the tree's radio totals back into the motes
/// after every charging round.
struct Relay<'a> {
    topo: &'a Topology,
    ledgers: Vec<EnergyLedger>,
}

impl Relay<'_> {
    fn sync(&self, motes: &mut [Mote]) {
        for (m, l) in motes.iter_mut().zip(&self.ledgers) {
            let ml = m.ledger_mut();
            ml.radio_rx_uj = l.radio_rx_uj;
            ml.radio_tx_uj = l.radio_tx_uj;
        }
    }
}

/// The one simulation loop, stepped one epoch at a time so crashes
/// land at epoch boundaries.
struct Engine<'a> {
    schema: &'a Schema,
    query: &'a Query,
    motes: &'a mut [Mote],
    model: &'a EnergyModel,
    faults: &'a FaultModel,
    rec: &'a Recorder,
    adaptive: Option<AdaptiveState<'a>>,
    crash: CrashRuntime<'a>,
    windows: Windows,
    /// The collection tree (multihop runs only).
    relay: Option<Relay<'a>>,

    // Pre-hoisted instruments.
    tuples_c: Counter,
    results_c: Counter,
    radio_c: Counter,
    acq_hist: Hist,
    replan_trig_c: Counter,
    replan_adopt_c: Counter,
    stats: FaultStats,

    // Flight recorder (DESIGN.md §13): causal control events plus the
    // per-epoch time series. Disabled unless the recorder carries one.
    flight: FlightRecorder,
    /// `seq` of this run's `sim.start` event — the causal root every
    /// engine event points back to.
    start_seq: u64,
    // Per-epoch tick accumulators, reset by `epoch_tick`.
    ep_tuples: u64,
    ep_results: u64,
    ep_acq: u64,
    /// Fleet energy total at the previous tick (for per-epoch deltas).
    last_energy: f64,

    // Packet wiring.
    sample_bytes: usize,
    uplink_bytes: usize,
    /// `pred_of[a]` = index of the predicate on attribute `a`, if any.
    pred_of: Vec<Option<usize>>,

    /// Every plan version ever disseminated; `plans[0]` is the genesis
    /// plan the basestation can always recompute from history.
    plans: Vec<PlannedQuery>,
    /// The version the basestation currently wants the fleet to run.
    cur: usize,
    /// Ground truth: the version mote `i` actually holds. Physical
    /// state at the motes — survives basestation crashes.
    mote_has: Vec<Option<usize>>,
    /// The basestation's belief about `mote_has`. Process memory —
    /// wiped to `None` by a crash, which is exactly what forces the
    /// recovery re-dissemination.
    bs_known: Vec<Option<usize>>,

    /// The report, accumulated as the run goes; `finish` adds the
    /// ledgers.
    rep: FaultReport,
}

impl Engine<'_> {
    /// Drives the full run: initial dissemination, `epochs` stepped
    /// epochs (crash checks, re-dissemination, execution, drift check,
    /// journaling, tick), and the final report.
    fn run(&mut self, epochs: usize) -> Result<FaultReport> {
        let span = self.rec.span("sensornet.simulate");
        self.start_seq = self.flight.emit(
            0,
            0,
            "sim.start",
            &[("motes", self.motes.len().into()), ("epochs", epochs.into())],
        );
        // The initial round runs even for a zero-epoch simulation.
        self.disseminate(0);
        if self.flight.enabled() {
            let delivered = self.mote_has.iter().filter(|v| v.is_some()).count();
            self.last_energy = self.fleet_total_uj();
            self.flight.emit(
                0,
                self.start_seq,
                "sim.disseminate",
                &[("delivered", delivered.into()), ("bs_tx_uj", self.rep.bs_tx_uj.into())],
            );
        }
        for e in 0..epochs {
            // Crashes land at epoch *boundaries*: the process dies and
            // restarts between epochs, never mid-tuple. Epoch 0 cannot
            // crash — before the initial dissemination there is no
            // state to lose.
            if e > 0 && self.crash_scheduled(e) {
                self.crash_and_recover(e)?;
                let (tx0, rx0) = (self.rep.bs_tx_uj, self.mote_rx_total());
                self.disseminate(e);
                let delta = (self.rep.bs_tx_uj - tx0) + (self.mote_rx_total() - rx0);
                self.crash.recovery_rediss_uj += delta;
            } else if e > 0 {
                self.disseminate(e);
            }
            if e % BATCH_ROWS == 0 {
                self.windows.open(self.motes.len(), e, epochs.min(e + BATCH_ROWS));
            }
            self.run_motes(e);
            self.drift_check(e)?;
            self.journal_epoch_end(e);
            self.epoch_tick(e);
        }
        let report = self.finish(epochs);
        drop(span);
        Ok(report)
    }

    /// One dissemination round at epoch `e`: every online mote the
    /// basestation believes to lag the current plan gets a fresh
    /// attempt window — the whole fleet at epoch 0. Single-hop runs
    /// charge every attempt to the basestation and every delivery to
    /// its mote; a multihop run floods the plan down its tree instead.
    fn disseminate(&mut self, e: usize) {
        if self.bs_known.iter().all(|k| *k == Some(self.cur)) {
            return;
        }
        let flight = self.flight.clone();
        let root = self.start_seq;
        let bytes = self.plans[self.cur].wire.len();
        let mut flooded = false;
        for (i, m) in self.motes.iter_mut().enumerate() {
            if self.bs_known[i] == Some(self.cur) || !self.faults.online(m.id(), e) {
                continue;
            }
            let d = attempt_packet(self.faults, FaultStream::Dissemination, m.id(), e, &self.stats);
            emit_retry(&flight, root, e, "diss", m.id(), &d);
            self.radio_c.incr(d.attempts as u64);
            if self.relay.is_none() {
                self.rep.bs_tx_uj +=
                    (d.attempts as usize * bytes) as f64 * self.model.radio_tx_uj_per_byte;
            }
            if d.delivered {
                if self.relay.is_none() {
                    m.receive(bytes, self.model);
                }
                flooded = true;
                self.mote_has[i] = Some(self.cur);
                self.bs_known[i] = Some(self.cur);
            }
        }
        if let Some(r) = self.relay.as_mut().filter(|_| flooded) {
            self.rep.bs_tx_uj += r.topo.charge_dissemination(bytes, self.model, &mut r.ledgers);
            r.sync(self.motes);
        }
    }

    /// One epoch of plan execution and uplinks across the fleet. A mote
    /// whose slots were filled with another plan version than the one it
    /// now holds has the rest of its window refilled first.
    fn run_motes(&mut self, e: usize) {
        let n = self.motes.len();
        let w = &mut self.windows;
        let base = (e - w.from) * n;
        let flight = self.flight.clone();
        let root = self.start_seq;
        for (i, m) in self.motes.iter_mut().enumerate() {
            if e >= m.epochs() {
                continue;
            }
            let id = m.id();
            if !self.faults.online(id, e) {
                self.stats.offline_epochs.incr(1);
                self.rep.offline_epochs += 1;
                continue;
            }
            let Some(ver) = self.mote_has[i] else {
                self.rep.undisseminated_epochs += 1;
                continue;
            };
            if w.held[i] != Some(ver) {
                w.fill(self.query, m, i, n, ver, e);
            }
            self.rep.sim.tuples += 1;
            self.ep_tuples += 1;
            let s = w.slots[base + i];
            let acquired = w.prepared[ver].chain(s.start, s.len);
            let aborted =
                m.charge_slot(acquired, e, self.schema, self.model, self.faults, &self.stats) != 0;
            self.acq_hist.observe(acquired.len() as u64);
            self.ep_acq += acquired.len() as u64;
            if aborted {
                self.rep.aborted_tuples += 1;
                continue;
            }
            self.rep.sim.all_correct &= s.verdict == s.truth;

            // Every acquired attribute with a predicate yields one
            // evaluated/held observation for the drift monitor,
            // buffered until an uplink actually gets through.
            if let Some(st) = self.adaptive.as_mut() {
                for &a in acquired {
                    if let Some(j) = self.pred_of[a] {
                        st.pend_eval[i][j] += 1;
                        st.pend_pass[i][j] += u64::from(self.query.pred(j).eval(m.peek(e, a)));
                    }
                }
            }

            if s.verdict {
                self.rep.sim.results += 1;
                self.ep_results += 1;
                let d = attempt_packet(self.faults, FaultStream::Result, id, e, &self.stats);
                emit_retry(&flight, root, e, "result", id, &d);
                let bytes = d.attempts as usize * self.uplink_bytes;
                match self.relay.as_mut() {
                    None => m.transmit(bytes, self.model),
                    Some(r) => r.topo.charge_result(i, bytes, self.model, &mut r.ledgers),
                }
                self.radio_c.incr(d.attempts as u64);
                if d.delivered {
                    self.rep.delivered_results += 1;
                    if let Some(st) = self.adaptive.as_mut() {
                        st.flush_counters(i, self.crash.journal.as_mut());
                    }
                } else {
                    self.rep.lost_results += 1;
                }
            }

            // Periodic statistics sample: read out the rest of the
            // tuple (sensing charged by the same attempt loop) and
            // upload the full row for the re-plan window.
            if let Some(st) = self.adaptive.as_mut() {
                let k = st.cfg.sample_every.max(1);
                if e % k == k - 1 {
                    let (schema, model) = (self.schema, self.model);
                    if !m.charge_sample(acquired, e, schema, model, self.faults, &self.stats) {
                        let d =
                            attempt_packet(self.faults, FaultStream::Sample, id, e, &self.stats);
                        emit_retry(&flight, root, e, "sample", id, &d);
                        m.transmit(d.attempts as usize * self.sample_bytes, self.model);
                        self.radio_c.incr(d.attempts as u64);
                        if d.delivered {
                            self.rep.samples_delivered += 1;
                            let row: Vec<u16> =
                                (0..self.schema.len()).map(|a| m.peek(e, a)).collect();
                            let mut journal = self.crash.journal.as_mut();
                            if let Some(jr) = journal.as_deref_mut() {
                                jr.append(&WalRecord::WindowPush { row: row.clone() });
                            }
                            st.window.push(row);
                            st.flush_counters(i, journal);
                        }
                    }
                }
            }
        }
        if let Some(r) = &self.relay {
            r.sync(self.motes);
        }
    }

    /// Basestation drift check at epoch end.
    fn drift_check(&mut self, e: usize) -> Result<()> {
        let Some(st) = self.adaptive.as_mut() else { return Ok(()) };
        let k = st.cfg.check_every.max(1);
        if !((e + 1).is_multiple_of(k)
            && st.monitor.drifted()
            && st.window.len() >= st.cfg.min_window.max(1))
        {
            return Ok(());
        }
        self.replan_trig_c.incr(1);
        let divergence = st.monitor.max_divergence();
        let window = st.window.snapshot(self.schema)?;
        let outcome = st.bs.replan(
            self.query,
            &window,
            &st.cfg.budget,
            st.cfg.alpha,
            &self.plans[self.cur],
        )?;
        self.rep.replans.push(ReplanEvent {
            epoch: e,
            divergence,
            adopted: outcome.adopted,
            truncated: outcome.truncated,
            fell_back: outcome.fell_back,
            stale_cost: outcome.stale_cost,
            new_cost: outcome.new_cost,
        });
        self.flight.emit(
            e as u64,
            self.start_seq,
            "plan.replan",
            &[
                ("divergence", divergence.into()),
                ("adopted", outcome.adopted.into()),
                ("truncated", outcome.truncated.into()),
                ("fell_back", outcome.fell_back.into()),
                ("stale_cost", outcome.stale_cost.into()),
                ("new_cost", outcome.new_cost.into()),
            ],
        );
        // Either way the monitor is re-armed with the window's
        // estimates — they are the basestation's current belief.
        st.monitor.reset(outcome.est_selectivities.clone());
        if outcome.adopted {
            self.replan_adopt_c.incr(1);
            self.windows.prepared.push(prepare(&outcome.planned.plan, self.query, self.schema));
            self.plans.push(outcome.planned);
            self.cur = self.plans.len() - 1;
            // Every mote now lags; re-dissemination starts at the top
            // of the next epoch. Journal the adoption so a crash
            // restores this version, not the genesis plan.
            if let Some(jr) = self.crash.journal.as_mut() {
                jr.append(&WalRecord::PlanAdopted {
                    plan: plan_record(self.cur, &self.plans[self.cur]),
                    est_selectivities: outcome.est_selectivities,
                });
            }
        }
        Ok(())
    }

    /// Journals the epoch boundary and writes a snapshot when the
    /// checkpoint cadence is due.
    fn journal_epoch_end(&mut self, e: usize) {
        let cr = &mut self.crash;
        let Some(journal) = cr.journal.as_mut() else { return };
        journal.append(&WalRecord::EpochEnd { epoch: e as u64 });
        let every = cr.cfg.checkpoint_every;
        if every == 0 || !(e + 1).is_multiple_of(every) {
            return;
        }
        let cp = BasestationCheckpoint {
            epoch: e as u64,
            last_seq: journal.folded_seq(),
            plan: plan_record(self.cur, &self.plans[self.cur]),
            drift: self.adaptive.as_ref().map(|st| (st.cfg.drift, st.monitor.state())),
            window: self.adaptive.as_ref().map(|st| st.window.state()),
            mask_cache: self.adaptive.as_ref().and_then(|st| st.hist_est.cached_masks()),
            ledgers: self
                .motes
                .iter()
                .map(|m| {
                    let l = m.ledger();
                    [l.sensing_uj, l.board_uj, l.radio_tx_uj, l.radio_rx_uj]
                })
                .collect(),
        };
        let last_seq = cp.last_seq;
        if journal.write_snapshot(&cp) {
            cr.checkpoints_written += 1;
            cr.counters.checkpoints.incr(1);
            self.flight.emit(
                e as u64,
                self.start_seq,
                "recovery.checkpoint",
                &[("last_seq", last_seq.into()), ("plan_version", self.cur.into())],
            );
        }
    }

    /// Whether a crash is injected at the start of epoch `e`: scheduled
    /// explicitly, or drawn from the seeded crash stream.
    fn crash_scheduled(&self, e: usize) -> bool {
        let cfg = self.crash.cfg;
        cfg.crash_epochs.contains(&e)
            || (cfg.crash_rate > 0.0
                && self.faults.roll(FaultStream::Crash, 0, e, 0, 0) < cfg.crash_rate)
    }

    /// Kills and restarts the basestation: wipes its process memory
    /// (fleet beliefs, monitor, window, warm estimator, current plan),
    /// then rebuilds from the checkpoint directory — newest valid
    /// snapshot, idempotent WAL replay beyond it, genesis cold start
    /// when nothing validates. Mote-side state (`mote_has`, energy
    /// ledgers, pending piggyback counters) survives untouched: those
    /// live in the field, not in the crashed process.
    fn crash_and_recover(&mut self, e: usize) -> Result<()> {
        let down_seq = self.flight.emit(e as u64, self.start_seq, "crash.down", &[]);
        for v in self.bs_known.iter_mut() {
            *v = None;
        }
        let cr = &mut self.crash;
        let recovered = match cr.journal.as_mut() {
            Some(j) => j.recover(),
            None => RecoveryOutcome::genesis(),
        };
        let (rec_cold, rec_corrupt, rec_replayed, rec_scanned) = (
            recovered.cold_start,
            recovered.corrupt_snapshots,
            recovered.replayed.len(),
            recovered.snapshots_scanned,
        );
        let rec_cp_epoch = recovered.checkpoint.as_ref().map(|cp| cp.epoch);
        cr.count_recovery(rec_cold, rec_corrupt, rec_replayed);

        // Plan version from the checkpoint, genesis otherwise. Clamped
        // defensively: a version beyond what this run ever disseminated
        // cannot index the plan table.
        self.cur = recovered
            .checkpoint
            .as_ref()
            .map(|cp| (cp.plan.version as usize).min(self.plans.len() - 1))
            .unwrap_or(0);

        if let Some(st) = self.adaptive.as_mut() {
            // Rebuild the history estimator the restarted basestation
            // needs, seeding its mask cache from the checkpoint when it
            // matches this query — recovery then skips the full dataset
            // pass the cold path would re-pay.
            st.hist_est =
                CountingEstimator::with_ranges(st.bs.history(), Ranges::root(self.schema));
            if let Some((q, masks)) =
                recovered.checkpoint.as_ref().and_then(|cp| cp.mask_cache.clone())
            {
                if &q == self.query && st.hist_est.seed_masks(q, masks) {
                    cr.counters.masks_seeded.incr(1);
                }
            }

            // Monitor and window: checkpoint state when it validates and
            // matches this query's shape, genesis otherwise. The pending
            // piggyback buffers are mote-side and survive as-is.
            let from_cp = recovered
                .checkpoint
                .as_ref()
                .and_then(|cp| cp.drift.clone())
                .and_then(|(cfg, state)| DriftMonitor::from_state(state, cfg).ok())
                .filter(|m| m.len() == self.query.len());
            st.monitor = match from_cp {
                Some(m) => m,
                None => DriftMonitor::new(
                    estimated_selectivities(self.query, &st.hist_est),
                    st.cfg.drift,
                )?,
            };
            st.window = recovered
                .checkpoint
                .as_ref()
                .and_then(|cp| cp.window.clone())
                .filter(|w| w.width == self.schema.len())
                .and_then(|w| SlidingWindow::from_state(w).ok())
                .unwrap_or_else(|| SlidingWindow::new(self.schema, st.cfg.window.max(1)));
        }

        // Fold the WAL tail back in, in order. Every record is
        // shape-checked — a checksum collision on hostile bytes must
        // degrade to a skipped record, never an out-of-bounds panic.
        for r in recovered.replayed {
            let (preds, width) = (self.query.len(), self.schema.len());
            match (r, self.adaptive.as_mut()) {
                (WalRecord::Observe { pred, evaluated, passed }, Some(st))
                    if usize::from(pred) < preds && passed <= evaluated =>
                {
                    st.monitor.observe_counts(usize::from(pred), evaluated, passed);
                }
                (WalRecord::WindowPush { row }, Some(st)) if row.len() == width => {
                    st.window.push(row);
                }
                (WalRecord::PlanAdopted { plan, est_selectivities }, st) => {
                    self.cur = (plan.version as usize).min(self.plans.len() - 1);
                    if let Some(st) = st.filter(|_| est_selectivities.len() == preds) {
                        st.monitor.reset(est_selectivities);
                    }
                }
                // Epoch marks carry nothing to fold; serve records in a
                // single-query directory are stale bytes from another
                // run flavor. Both are skipped.
                _ => {}
            }
        }
        self.flight.emit(
            e as u64,
            down_seq,
            "crash.recover",
            &[
                ("cold_start", rec_cold.into()),
                ("plan_version", self.cur.into()),
                ("wal_replayed", rec_replayed.into()),
                ("corrupt_snapshots", rec_corrupt.into()),
                ("snapshots_scanned", rec_scanned.into()),
                (
                    "checkpoint_epoch",
                    rec_cp_epoch.and_then(|v| i64::try_from(v).ok()).unwrap_or(-1).into(),
                ),
            ],
        );
        Ok(())
    }

    /// Fleet energy total in mote-index order.
    fn fleet_total_uj(&self) -> f64 {
        self.motes.iter().fold(0.0, |acc, m| acc + m.ledger().total_uj())
    }

    /// Closes epoch `e`: flushes the epoch's tuple and result counts
    /// into their counters, emits the `epoch.tick` time-series event,
    /// and resets the epoch accumulators. No wall clock anywhere: every
    /// field is a deterministic function of the seeded run.
    fn epoch_tick(&mut self, e: usize) {
        self.tuples_c.incr(self.ep_tuples);
        self.results_c.incr(self.ep_results);
        if self.flight.enabled() {
            self.emit_tick(e);
        }
        self.ep_tuples = 0;
        self.ep_results = 0;
        self.ep_acq = 0;
    }

    fn emit_tick(&mut self, e: usize) {
        let fleet = self.fleet_total_uj();
        let mut fields: Vec<(String, TraceValue)> = vec![
            ("tuples".to_string(), self.ep_tuples.into()),
            ("results".to_string(), self.ep_results.into()),
            ("acquisitions".to_string(), self.ep_acq.into()),
            ("energy_uj".to_string(), fleet.into()),
            ("denergy_uj".to_string(), (fleet - self.last_energy).into()),
        ];
        for m in self.motes.iter() {
            fields.push((format!("mote{}_uj", m.id()), m.ledger().total_uj().into()));
        }
        if let Some(st) = &self.adaptive {
            fields.push(("drift".to_string(), st.monitor.max_divergence().into()));
            for j in 0..self.query.len() {
                fields.push((format!("p{j}_est"), st.monitor.estimated(j).into()));
                if let Some(a) = st.monitor.actual(j) {
                    fields.push((format!("p{j}_act"), a.into()));
                }
            }
        }
        self.flight.emit_owned(e as u64, self.start_seq, "epoch.tick", fields);
        self.last_energy = fleet;
    }

    /// Total radio receive energy across the fleet — used to attribute
    /// the recovery re-dissemination tax.
    fn mote_rx_total(&self) -> f64 {
        self.motes.iter().map(|m| m.ledger().radio_rx_uj).sum()
    }

    /// Emits per-mote gauges and completes the report with the ledgers.
    fn finish(&mut self, epochs: usize) -> FaultReport {
        let per_mote: Vec<EnergyLedger> = self.motes.iter().map(|m| *m.ledger()).collect();
        if self.rec.enabled() {
            for (m, l) in self.motes.iter().zip(&per_mote) {
                let id = m.id();
                self.rec.gauge(&format!("sensornet.mote{id}.sensing_uj"), l.sensing_uj);
                self.rec
                    .gauge(&format!("sensornet.mote{id}.radio_uj"), l.radio_tx_uj + l.radio_rx_uj);
                self.rec.gauge(&format!("sensornet.mote{id}.total_uj"), l.total_uj());
            }
        }
        let mut rep = std::mem::take(&mut self.rep);
        self.flight.emit(
            epochs as u64,
            self.start_seq,
            "sim.end",
            &[
                ("tuples", rep.sim.tuples.into()),
                ("results", rep.sim.results.into()),
                ("all_correct", rep.sim.all_correct.into()),
            ],
        );
        let sim = &mut rep.sim;
        for l in &per_mote {
            sim.network.absorb(l);
        }
        // Degenerate runs (zero epochs, empty fleet) report 0.0, never NaN.
        if sim.tuples > 0 {
            sim.sensing_uj_per_tuple = sim.network.sensing_uj / sim.tuples as f64;
        }
        sim.epochs = epochs;
        sim.per_mote = per_mote;
        rep
    }
}

/// The journaled form of plan version `version`.
fn plan_record(version: usize, p: &PlannedQuery) -> PlanRecord {
    PlanRecord {
        version: version as u64,
        wire: p.wire.clone(),
        expected_cost: p.expected_cost,
        objective: p.objective,
    }
}

/// Builds a fleet of `n` motes that all observe the given trace: in the
/// Garden model every mote evaluates the *network-wide* tuple, so each
/// mote is handed the same epoch rows. The trace is cloned once and
/// shared by the whole fleet.
pub fn fleet_from_trace(trace: &Dataset, n: u16) -> Vec<Mote> {
    let shared = Arc::new(trace.clone());
    (0..n).map(|id| Mote::new(id, Arc::clone(&shared))).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::basestation::{Basestation, PlannerChoice};
    use acqp_core::{Attribute, Pred};
    use acqp_obs::{FlightRecorder, NoopSink};
    use std::sync::Arc;

    fn setup() -> (Schema, Dataset, Query) {
        let schema = Schema::new(vec![
            Attribute::new("a", 2, 100.0),
            Attribute::new("b", 2, 100.0),
            Attribute::new("t", 2, 1.0),
        ])
        .unwrap();
        let data = Dataset::from_rows(&schema, rows(400)).unwrap();
        let query = Query::new(vec![Pred::in_range(0, 1, 1), Pred::in_range(1, 1, 1)]).unwrap();
        (schema, data, query)
    }

    fn rows(n: u16) -> Vec<Vec<u16>> {
        (0..n)
            .map(|i| {
                let t = i % 2;
                let a = if i % 10 == 0 { 1 - t } else { t };
                let b = if i % 12 == 0 { t } else { 1 - t };
                vec![a, b, t]
            })
            .collect()
    }

    /// A run with a disabled recorder under `opts`.
    fn sim(
        bs: &Basestation<'_>,
        query: &Query,
        planned: &PlannedQuery,
        motes: &mut [Mote],
        model: &EnergyModel,
        epochs: usize,
        opts: &SimOptions,
    ) -> FaultReport {
        let rec = Recorder::disabled();
        run_simulation(bs, query, planned, motes, model, epochs, &rec, opts).unwrap().fault
    }

    fn lossy(faults: FaultModel) -> SimOptions {
        SimOptions { faults, ..SimOptions::default() }
    }

    #[test]
    fn simulation_accounts_and_validates() {
        let (schema, data, query) = setup();
        let (train, live) = data.split_at(0.5);
        let bs = Basestation::new(schema.clone(), &train);
        let planned = bs.plan_query(&query, PlannerChoice::Heuristic(4), 0.0).unwrap();

        let mut motes = fleet_from_trace(&live, 3);
        let model = EnergyModel::mica_like();
        let report =
            sim(&bs, &query, &planned, &mut motes, &model, live.len(), &SimOptions::default()).sim;
        assert!(report.all_correct);
        assert_eq!(report.tuples, 3 * live.len());
        // Dissemination was charged to every mote.
        assert!(report.network.radio_rx_uj > 0.0);
        assert_eq!(report.per_mote.len(), 3);
        // Sensing energy per tuple sits between the single- and
        // two-sensor cost.
        assert!(report.sensing_uj_per_tuple >= 1.0);
        assert!(report.sensing_uj_per_tuple <= 201.0);
    }

    #[test]
    fn recorded_simulation_reports_network_metrics() {
        let (schema, data, query) = setup();
        let (train, live) = data.split_at(0.5);
        let bs = Basestation::new(schema.clone(), &train);
        let planned = bs.plan_query(&query, PlannerChoice::Heuristic(4), 0.0).unwrap();
        let mut motes = fleet_from_trace(&live, 2);
        let rec = Recorder::new(Arc::new(NoopSink));
        let report = run_simulation(
            &bs,
            &query,
            &planned,
            &mut motes,
            &EnergyModel::mica_like(),
            live.len(),
            &rec,
            &SimOptions::default(),
        )
        .unwrap()
        .fault
        .sim;
        let snap = rec.drain();
        assert_eq!(snap.counter("sensornet.tuples"), report.tuples as u64);
        assert_eq!(snap.counter("sensornet.results"), report.results as u64);
        // Radio messages = one dissemination rx per mote + one tx per result.
        assert_eq!(snap.counter("sensornet.radio.msgs"), 2 + report.results as u64);
        assert_eq!(snap.hists["sensornet.acquisitions_per_tuple"].1, report.tuples as u64);
        for (m, l) in motes.iter().zip(&report.per_mote) {
            let g = snap.value(&format!("sensornet.mote{}.total_uj", m.id()));
            assert!((g - l.total_uj()).abs() < 1e-9);
        }
        assert_eq!(snap.spans["sensornet.simulate"].count, 1);
        // The lossless path never touches the fault taxonomy beyond
        // first-attempt successes, and never the recovery taxonomy.
        assert_eq!(snap.counter("sensornet.fault.result.lost"), 0);
        assert_eq!(snap.counter("sensornet.fault.diss.timeouts"), 0);
        assert_eq!(snap.counter("recovery.attempted"), 0);
    }

    #[test]
    fn conditional_plan_saves_network_energy_vs_naive() {
        let (schema, data, query) = setup();
        let (train, live) = data.split_at(0.5);
        let bs = Basestation::new(schema.clone(), &train);
        let model = EnergyModel::mica_like();

        let run = |choice: PlannerChoice| {
            let planned = bs.plan_query(&query, choice, 0.0).unwrap();
            let mut motes = fleet_from_trace(&live, 2);
            sim(&bs, &query, &planned, &mut motes, &model, live.len(), &SimOptions::default()).sim
        };
        let naive = run(PlannerChoice::Naive);
        let cond = run(PlannerChoice::Heuristic(4));
        assert!(naive.all_correct && cond.all_correct);
        assert!(
            cond.network.sensing_uj < naive.network.sensing_uj,
            "conditional {} vs naive {}",
            cond.network.sensing_uj,
            naive.network.sensing_uj
        );
    }

    #[test]
    fn board_powerup_charged_in_simulation() {
        let (schema, data, query) = setup();
        let (train, live) = data.split_at(0.5);
        let bs = Basestation::new(schema.clone(), &train);
        let model = EnergyModel::mica_like().with_board(vec![0, 1], 300.0);
        let planned = bs.plan_query(&query, PlannerChoice::Naive, 0.0).unwrap();
        let mut motes = fleet_from_trace(&live, 1);
        let report =
            sim(&bs, &query, &planned, &mut motes, &model, live.len(), &SimOptions::default()).sim;
        assert!(report.network.board_uj > 0.0);
        // At most one power-up per tuple.
        assert!(report.network.board_uj <= 300.0 * report.tuples as f64);
    }

    #[test]
    fn result_packet_scales_with_selected_attribute_widths() {
        let (schema, _, query) = setup();
        // Two selected attributes with 2-value domains: 2-byte header +
        // 1 byte each.
        assert_eq!(result_packet_bytes(&schema, &query), 4);
        // A wide-domain attribute costs two bytes on air.
        let wide = Schema::new(vec![Attribute::new("w", 1000, 10.0), Attribute::new("n", 4, 10.0)])
            .unwrap();
        let q1 = Query::new(vec![Pred::in_range(0, 0, 500)]).unwrap();
        assert_eq!(result_packet_bytes(&wide, &q1), 2 + 2);
        let q2 = Query::new(vec![Pred::in_range(0, 0, 500), Pred::in_range(1, 0, 1)]).unwrap();
        assert_eq!(result_packet_bytes(&wide, &q2), 2 + 2 + 1);
        // Sample packets carry the whole schema plus counter deltas.
        assert_eq!(sample_packet_bytes(&wide, &q2), 2 + 3 + 2 * 2);
    }

    #[test]
    fn result_radio_energy_uses_computed_packet_size() {
        let (schema, data, query) = setup();
        let (train, live) = data.split_at(0.5);
        let bs = Basestation::new(schema.clone(), &train);
        let model = EnergyModel::mica_like();
        let planned = bs.plan_query(&query, PlannerChoice::Naive, 0.0).unwrap();
        let mut motes = fleet_from_trace(&live, 1);
        let report =
            sim(&bs, &query, &planned, &mut motes, &model, live.len(), &SimOptions::default()).sim;
        let expected_tx = report.results as f64
            * result_packet_bytes(&schema, &query) as f64
            * model.radio_tx_uj_per_byte;
        assert!(report.results > 0);
        assert!((report.network.radio_tx_uj - expected_tx).abs() < 1e-9);
    }

    #[test]
    fn degenerate_configs_report_zero_not_nan() {
        let (schema, data, query) = setup();
        let (train, live) = data.split_at(0.5);
        let bs = Basestation::new(schema.clone(), &train);
        let planned = bs.plan_query(&query, PlannerChoice::Naive, 0.0).unwrap();
        let model = EnergyModel::mica_like();
        let opts = SimOptions::default();

        // Zero epochs: dissemination still happens, no tuples run.
        let mut motes = fleet_from_trace(&live, 2);
        let r = sim(&bs, &query, &planned, &mut motes, &model, 0, &opts).sim;
        assert_eq!(r.tuples, 0);
        assert_eq!(r.sensing_uj_per_tuple, 0.0);
        assert!(r.sensing_uj_per_tuple.is_finite());
        assert!(r.network.radio_rx_uj > 0.0, "plan was still disseminated");

        // Empty fleet: nothing at all.
        let mut none: Vec<Mote> = Vec::new();
        let r = sim(&bs, &query, &planned, &mut none, &model, 50, &opts).sim;
        assert_eq!(r.tuples, 0);
        assert_eq!(r.sensing_uj_per_tuple, 0.0);
        assert!(r.sensing_uj_per_tuple.is_finite());

        // Same edges over a multihop tree.
        let tree = SimOptions { topology: Some(Topology::line(2)), ..SimOptions::default() };
        let mut motes = fleet_from_trace(&live, 2);
        let r = sim(&bs, &query, &planned, &mut motes, &model, 0, &tree).sim;
        assert_eq!(r.sensing_uj_per_tuple, 0.0);
        assert!(r.sensing_uj_per_tuple.is_finite());
    }

    #[test]
    fn zero_loss_faulty_run_is_bitwise_identical_to_lossless() {
        let (schema, data, query) = setup();
        let (train, live) = data.split_at(0.5);
        let bs = Basestation::new(schema.clone(), &train);
        let planned = bs.plan_query(&query, PlannerChoice::Heuristic(4), 0.0).unwrap();
        let model = EnergyModel::mica_like();

        let mut base_motes = fleet_from_trace(&live, 3);
        let base =
            sim(&bs, &query, &planned, &mut base_motes, &model, live.len(), &SimOptions::default())
                .sim;

        // A zero-loss model, and one whose only lossy link belongs to no
        // mote of the fleet: both must land every packet on its first
        // attempt.
        for faults in [
            FaultModel::lossy(0xDEAD_BEEF, 0.0),
            FaultModel::lossy(0xDEAD_BEEF, 0.0).with_link_loss(9, 0.5),
        ] {
            let mut faulty_motes = fleet_from_trace(&live, 3);
            let opts = lossy(faults);
            let rep = sim(&bs, &query, &planned, &mut faulty_motes, &model, live.len(), &opts);
            assert_eq!(rep.sim.tuples, base.tuples);
            assert_eq!(rep.sim.results, base.results);
            assert_eq!(rep.sim.all_correct, base.all_correct);
            assert_eq!(rep.sim.per_mote, base.per_mote, "energy must match to the bit");
            assert_eq!(rep.sim.sensing_uj_per_tuple.to_bits(), base.sensing_uj_per_tuple.to_bits());
            assert_eq!(rep.delivered_results, rep.sim.results);
            assert_eq!(rep.lost_results, 0);
            assert_eq!(rep.delivery_rate(), 1.0);
        }
    }

    /// FNV-1a over `bytes`: a stable digest for pinned golden values.
    fn fnv(bytes: &[u8]) -> u64 {
        bytes
            .iter()
            .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
    }

    /// Everything a golden case pins about one run.
    #[derive(Debug, PartialEq)]
    struct Golden {
        tuples: usize,
        results: usize,
        delivered: usize,
        lost: usize,
        aborted: usize,
        offline: usize,
        undisseminated: usize,
        samples: usize,
        replans: usize,
        adopted: usize,
        crashes: usize,
        cold_starts: usize,
        wal_replayed: usize,
        checkpoints: usize,
        /// `f64` bits of the basestation's transmit energy.
        bs_tx_uj: u64,
        /// `f64` bits of the recovery re-dissemination energy.
        rediss_uj: u64,
        /// Per-mote `[sensing, board, radio tx, radio rx]` `f64` bits.
        ledgers: Vec<[u64; 4]>,
        /// Digest of the drained counters, histograms, gauges and span
        /// counts.
        metrics: u64,
        /// Digest of the flight recorder's Chrome JSON and epoch JSONL.
        flight: u64,
    }

    /// Trace rows, one `Vec` per epoch.
    type Rows = Vec<Vec<u16>>;

    /// Rows where the predicate on `a` passes 90% of tuples and the one
    /// on `b` one in seven; from row `flip` on the two swap roles, which
    /// makes an adaptive run re-plan.
    fn regime(n: u16, flip: u16) -> Rows {
        (0..n)
            .map(|i| {
                let (a, b) = (i % 10 != 0, i % 7 == 0);
                let (a, b) = if i < flip { (a, b) } else { (!a, !b) };
                vec![u16::from(a), u16::from(b), i % 2]
            })
            .collect()
    }

    /// The inputs of golden case `name`: planning history, one trace per
    /// mote and the options. `dir` is the case's checkpoint directory.
    fn golden_inputs(name: &str, dir: &std::path::Path) -> (Rows, Vec<Rows>, SimOptions) {
        let adaptive = || {
            Some(AdaptiveConfig {
                drift: DriftConfig { threshold: 0.2, min_samples: 16 },
                check_every: 4,
                sample_every: 2,
                window: 64,
                min_window: 8,
                ..AdaptiveConfig::default()
            })
        };
        let crash =
            |dir: Option<&std::path::Path>, crash_epochs: Vec<usize>, crash_rate| CrashConfig {
                checkpoint_dir: dir.map(|d| d.to_path_buf()),
                checkpoint_every: if dir.is_some() { 50 } else { 0 },
                crash_epochs,
                crash_rate,
            };
        let long = 2 * BATCH_ROWS as u16 + 300;
        match name {
            // Three motes over two full windows; mote 2's trace ends
            // inside the second window, so its slots run short, then out.
            "lossless_star" => (
                rows(200),
                vec![rows(long), rows(long), rows(BATCH_ROWS as u16 + 100)],
                SimOptions::default(),
            ),
            "multihop" => (
                rows(200),
                vec![rows(1100); 4],
                SimOptions { topology: Some(Topology::balanced(4, 2)), ..SimOptions::default() },
            ),
            // The dropout straddles the first window boundary.
            "loss_sensing_dropout" => (
                rows(200),
                vec![rows(1300); 3],
                lossy(
                    FaultModel::lossy(17, 0.25)
                        .with_sensing_failures(0.1)
                        .with_max_attempts(2)
                        .with_dropout(1, 1000, 1100),
                ),
            ),
            // Two attempts per packet and a bad link to mote 1: adopted
            // plans reach the motes at different epochs.
            "adaptive_under_loss" => (
                regime(200, u16::MAX),
                vec![regime(1200, 100); 3],
                SimOptions {
                    faults: FaultModel::lossy(13, 0.3)
                        .with_link_loss(1, 0.85)
                        .with_sensing_failures(0.05)
                        .with_max_attempts(2),
                    adaptive: adaptive(),
                    ..SimOptions::default()
                },
            ),
            "crash_checkpoint_wal" => (
                rows(200),
                vec![rows(1200); 3],
                SimOptions {
                    faults: FaultModel::lossy(21, 0.1),
                    crash: crash(Some(dir), vec![100, 1030], 0.0),
                    ..SimOptions::default()
                },
            ),
            // No persistence: each crash cold-starts to the genesis plan
            // and re-disseminates it over the adopted one.
            "cold_start" => (
                regime(200, u16::MAX),
                vec![regime(1200, 100); 3],
                SimOptions {
                    faults: FaultModel::lossy(9, 0.1),
                    adaptive: adaptive(),
                    crash: crash(None, vec![300, 1050], 0.0),
                    ..SimOptions::default()
                },
            ),
            "combined" => (
                regime(200, u16::MAX),
                vec![regime(1200, 100); 3],
                SimOptions {
                    faults: FaultModel::lossy(31, 0.2)
                        .with_link_loss(0, 0.8)
                        .with_sensing_failures(0.1)
                        .with_max_attempts(2)
                        .with_dropout(2, 500, 560),
                    adaptive: adaptive(),
                    crash: crash(Some(dir), vec![100, 700, 1030], 0.002),
                    topology: None,
                },
            ),
            _ => unreachable!("unknown golden case {name}"),
        }
    }

    /// Runs golden case `name` with a board model and a flight recorder.
    fn golden_run(name: &str) -> Golden {
        let (schema, _, query) = setup();
        let dir =
            std::env::temp_dir().join(format!("acqp_sim_golden_{name}_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let (history, traces, opts) = golden_inputs(name, &dir);
        let history = Dataset::from_rows(&schema, history).unwrap();
        let bs = Basestation::new(schema.clone(), &history);
        let planned = bs.plan_query(&query, PlannerChoice::Heuristic(4), 0.0).unwrap();
        let model = EnergyModel::mica_like().with_board(vec![0, 1], 500.0);
        let epochs = traces.iter().map(Vec::len).max().unwrap_or(0);
        let mut motes: Vec<Mote> = traces
            .into_iter()
            .enumerate()
            .map(|(i, t)| Mote::new(i as u16, Dataset::from_rows(&schema, t).unwrap()))
            .collect();
        let rec = Recorder::new(Arc::new(NoopSink)).with_flight(FlightRecorder::new(1 << 16));
        let rep =
            run_simulation(&bs, &query, &planned, &mut motes, &model, epochs, &rec, &opts).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        assert!(rep.fault.sim.all_correct, "{name}: a verdict disagreed with ground truth");
        let snap = rec.drain();
        let mut metrics = String::new();
        for (k, v) in &snap.counters {
            metrics += &format!("{k}={v}\n");
        }
        for (k, (buckets, count, sum)) in &snap.hists {
            metrics += &format!("{k}={buckets:?}/{count}/{sum}\n");
        }
        for (k, v) in &snap.values {
            metrics += &format!("{k}={:#x}\n", v.to_bits());
        }
        for (k, v) in &snap.spans {
            metrics += &format!("{k}={}\n", v.count);
        }
        let flight = rec.flight().to_chrome_json() + &rec.flight().to_epoch_jsonl();
        let f = &rep.fault;
        Golden {
            tuples: f.sim.tuples,
            results: f.sim.results,
            delivered: f.delivered_results,
            lost: f.lost_results,
            aborted: f.aborted_tuples,
            offline: f.offline_epochs,
            undisseminated: f.undisseminated_epochs,
            samples: f.samples_delivered,
            replans: f.replans.len(),
            adopted: f.replans.iter().filter(|r| r.adopted).count(),
            crashes: rep.crashes,
            cold_starts: rep.cold_starts,
            wal_replayed: rep.wal_replayed,
            checkpoints: rep.checkpoints_written,
            bs_tx_uj: f.bs_tx_uj.to_bits(),
            rediss_uj: rep.recovery_rediss_uj.to_bits(),
            ledgers: f
                .sim
                .per_mote
                .iter()
                .map(|l| [l.sensing_uj, l.board_uj, l.radio_tx_uj, l.radio_rx_uj].map(f64::to_bits))
                .collect(),
            metrics: fnv(metrics.as_bytes()),
            flight: fnv(flight.as_bytes()),
        }
    }

    /// Every option set against values recorded from the per-tuple wire
    /// interpreter engine the batch window replaced, before it was
    /// deleted: reports, ledgers, metrics and flight traces must match
    /// to the bit.
    #[test]
    fn every_option_set_reproduces_its_golden_run() {
        let expected: Vec<(&str, Golden)> = vec![
            (
                "lossless_star",
                Golden {
                    tuples: 5820,
                    results: 484,
                    delivered: 484,
                    lost: 0,
                    aborted: 0,
                    offline: 0,
                    undisseminated: 0,
                    samples: 0,
                    replans: 0,
                    adopted: 0,
                    crashes: 0,
                    cold_starts: 0,
                    wal_replayed: 0,
                    checkpoints: 0,
                    bs_tx_uj: 0x4042000000000000,
                    rediss_uj: 0x0000000000000000,
                    ledgers: vec![
                        [
                            0x410fd14000000000,
                            0x4131e9f000000000,
                            0x4088600000000000,
                            0x4022000000000000,
                        ],
                        [
                            0x410fd14000000000,
                            0x4131e9f000000000,
                            0x4088600000000000,
                            0x4022000000000000,
                        ],
                        [
                            0x40fe798000000000,
                            0x412126a000000000,
                            0x4077800000000000,
                            0x4022000000000000,
                        ],
                    ],
                    metrics: 0x85b3ad53bd0bbac2,
                    flight: 0xe2df91af1cec74f3,
                },
            ),
            (
                "multihop",
                Golden {
                    tuples: 4400,
                    results: 364,
                    delivered: 364,
                    lost: 0,
                    aborted: 0,
                    offline: 0,
                    undisseminated: 0,
                    samples: 0,
                    replans: 0,
                    adopted: 0,
                    crashes: 0,
                    cold_starts: 0,
                    wal_replayed: 0,
                    checkpoints: 0,
                    bs_tx_uj: 0x4028000000000000,
                    rediss_uj: 0x0000000000000000,
                    ledgers: vec![
                        [
                            0x40fdcf4000000000,
                            0x4120c8e000000000,
                            0x4091400000000000,
                            0x4081580000000000,
                        ],
                        [
                            0x40fdcf4000000000,
                            0x4120c8e000000000,
                            0x4076c00000000000,
                            0x4022000000000000,
                        ],
                        [
                            0x40fdcf4000000000,
                            0x4120c8e000000000,
                            0x4076c00000000000,
                            0x4022000000000000,
                        ],
                        [
                            0x40fdcf4000000000,
                            0x4120c8e000000000,
                            0x4076c00000000000,
                            0x4022000000000000,
                        ],
                    ],
                    metrics: 0xd83efa50e9b459e0,
                    flight: 0x069c380de2659841,
                },
            ),
            (
                "loss_sensing_dropout",
                Golden {
                    tuples: 3800,
                    results: 304,
                    delivered: 291,
                    lost: 13,
                    aborted: 94,
                    offline: 100,
                    undisseminated: 0,
                    samples: 0,
                    replans: 0,
                    adopted: 0,
                    crashes: 0,
                    cold_starts: 0,
                    wal_replayed: 0,
                    checkpoints: 0,
                    bs_tx_uj: 0x4042000000000000,
                    rediss_uj: 0x0000000000000000,
                    ledgers: vec![
                        [
                            0x410347f800000000,
                            0x4123d62000000000,
                            0x407fc00000000000,
                            0x4022000000000000,
                        ],
                        [
                            0x4102147000000000,
                            0x41224f8000000000,
                            0x407c800000000000,
                            0x4022000000000000,
                        ],
                        [
                            0x4103957000000000,
                            0x4123d62000000000,
                            0x4080600000000000,
                            0x4022000000000000,
                        ],
                    ],
                    metrics: 0xb106e4166421ca16,
                    flight: 0xfba1c9380e8cc9e6,
                },
            ),
            (
                "adaptive_under_loss",
                Golden {
                    tuples: 3597,
                    results: 319,
                    delivered: 227,
                    lost: 92,
                    aborted: 10,
                    offline: 0,
                    undisseminated: 3,
                    samples: 1254,
                    replans: 7,
                    adopted: 1,
                    crashes: 0,
                    cold_starts: 0,
                    wal_replayed: 0,
                    checkpoints: 0,
                    bs_tx_uj: 0x405a000000000000,
                    rediss_uj: 0x0000000000000000,
                    ledgers: vec![
                        [
                            0x410893c800000000,
                            0x412b198000000000,
                            0x40c0168000000000,
                            0x4018000000000000,
                        ],
                        [
                            0x4108bc0000000000,
                            0x412b09e000000000,
                            0x40c66f8000000000,
                            0x4018000000000000,
                        ],
                        [
                            0x4108ead800000000,
                            0x412b215000000000,
                            0x40bfbb0000000000,
                            0x4018000000000000,
                        ],
                    ],
                    metrics: 0x55ca1f60d728615a,
                    flight: 0x0bddfff0f164c923,
                },
            ),
            (
                "crash_checkpoint_wal",
                Golden {
                    tuples: 3600,
                    results: 300,
                    delivered: 300,
                    lost: 0,
                    aborted: 0,
                    offline: 0,
                    undisseminated: 0,
                    samples: 0,
                    replans: 0,
                    adopted: 0,
                    crashes: 2,
                    cold_starts: 0,
                    wal_replayed: 30,
                    checkpoints: 24,
                    bs_tx_uj: 0x4060800000000000,
                    rediss_uj: 0x405f800000000000,
                    ledgers: vec![
                        [
                            0x4100428000000000,
                            0x41224f8000000000,
                            0x407c400000000000,
                            0x403b000000000000,
                        ],
                        [
                            0x4100428000000000,
                            0x41224f8000000000,
                            0x407d000000000000,
                            0x403b000000000000,
                        ],
                        [
                            0x4100428000000000,
                            0x41224f8000000000,
                            0x407b800000000000,
                            0x403b000000000000,
                        ],
                    ],
                    metrics: 0xbf580b13ccfd3771,
                    flight: 0x187468472eae2720,
                },
            ),
            (
                "cold_start",
                Golden {
                    tuples: 3600,
                    results: 321,
                    delivered: 321,
                    lost: 0,
                    aborted: 0,
                    offline: 0,
                    undisseminated: 0,
                    samples: 1800,
                    replans: 7,
                    adopted: 3,
                    crashes: 2,
                    cold_starts: 2,
                    wal_replayed: 0,
                    checkpoints: 0,
                    bs_tx_uj: 0x4055000000000000,
                    rediss_uj: 0x4049000000000000,
                    ledgers: vec![
                        [
                            0x4107a20000000000,
                            0x412b1d6800000000,
                            0x40bb530000000000,
                            0x4032000000000000,
                        ],
                        [
                            0x4107a20000000000,
                            0x412b1d6800000000,
                            0x40bb7d0000000000,
                            0x4032000000000000,
                        ],
                        [
                            0x4107a20000000000,
                            0x412b1d6800000000,
                            0x40bb1e0000000000,
                            0x4032000000000000,
                        ],
                    ],
                    metrics: 0x55c6fdcb4b4329c2,
                    flight: 0x74354352f95d2a3b,
                },
            ),
            (
                "combined",
                Golden {
                    tuples: 3536,
                    results: 313,
                    delivered: 231,
                    lost: 82,
                    aborted: 38,
                    offline: 60,
                    undisseminated: 4,
                    samples: 1296,
                    replans: 6,
                    adopted: 1,
                    crashes: 3,
                    cold_starts: 0,
                    wal_replayed: 116,
                    checkpoints: 24,
                    bs_tx_uj: 0x4061800000000000,
                    rediss_uj: 0x4051400000000000,
                    ledgers: vec![
                        [
                            0x41097b5800000000,
                            0x412af27000000000,
                            0x40c54b8000000000,
                            0x402e000000000000,
                        ],
                        [
                            0x4109e8a800000000,
                            0x412b159800000000,
                            0x40bcbc0000000000,
                            0x402e000000000000,
                        ],
                        [
                            0x4108bef800000000,
                            0x4129aa5000000000,
                            0x40bb320000000000,
                            0x402e000000000000,
                        ],
                    ],
                    metrics: 0xe350c87b6e0efec2,
                    flight: 0x2311a5f58530e61e,
                },
            ),
        ];
        for (name, want) in expected {
            assert_eq!(golden_run(name), want, "golden case {name}");
        }
    }

    #[test]
    fn lossy_run_is_deterministic_and_loses_results() {
        let (schema, data, query) = setup();
        let (train, live) = data.split_at(0.5);
        let bs = Basestation::new(schema.clone(), &train);
        let planned = bs.plan_query(&query, PlannerChoice::Heuristic(4), 0.0).unwrap();
        let model = EnergyModel::mica_like();
        let opts = lossy(FaultModel::lossy(7, 0.4));

        let run = || {
            let mut motes = fleet_from_trace(&live, 3);
            sim(&bs, &query, &planned, &mut motes, &model, live.len(), &opts)
        };
        let a = run();
        let b = run();
        assert_eq!(a.sim.per_mote, b.sim.per_mote);
        assert_eq!(a.delivered_results, b.delivered_results);
        assert_eq!(a.lost_results, b.lost_results);
        assert!(a.lost_results > 0, "40% loss with 4 attempts must lose something");
        assert!(a.delivery_rate() < 1.0);
        // Retransmissions cost strictly more tx energy than a lossless
        // run of the same plan.
        let mut lossless = fleet_from_trace(&live, 3);
        let base =
            sim(&bs, &query, &planned, &mut lossless, &model, live.len(), &SimOptions::default());
        assert!(a.sim.network.radio_tx_uj > base.sim.network.radio_tx_uj);
    }

    #[test]
    fn dropout_epochs_do_not_execute_or_charge() {
        let (schema, data, query) = setup();
        let (train, live) = data.split_at(0.5);
        let bs = Basestation::new(schema.clone(), &train);
        let planned = bs.plan_query(&query, PlannerChoice::Naive, 0.0).unwrap();
        let model = EnergyModel::mica_like();
        let epochs = live.len();
        // Mote 1 is down for 10 epochs mid-run.
        let opts = lossy(FaultModel::lossy(3, 0.0).with_dropout(1, 20, 30));
        let mut motes = fleet_from_trace(&live, 2);
        let rep = sim(&bs, &query, &planned, &mut motes, &model, epochs, &opts);
        assert_eq!(rep.offline_epochs, 10);
        assert_eq!(rep.sim.tuples, 2 * epochs - 10);
        assert!(rep.sim.all_correct);
        // The dropped mote spent strictly less sensing energy.
        assert!(rep.sim.per_mote[1].sensing_uj < rep.sim.per_mote[0].sensing_uj);
    }

    #[test]
    fn sensing_failures_abort_tuples_but_charge_retries() {
        let (schema, data, query) = setup();
        let (train, live) = data.split_at(0.5);
        let bs = Basestation::new(schema.clone(), &train);
        let planned = bs.plan_query(&query, PlannerChoice::Naive, 0.0).unwrap();
        let model = EnergyModel::mica_like();
        let faults = FaultModel::lossy(11, 0.0).with_sensing_failures(0.2).with_max_attempts(2);
        let mut motes = fleet_from_trace(&live, 2);
        let rep = sim(&bs, &query, &planned, &mut motes, &model, live.len(), &lossy(faults));
        assert!(rep.aborted_tuples > 0, "20% failure with cap 2 must abort some tuples");
        // Verdict checking skips aborted tuples, so the run stays correct.
        assert!(rep.sim.all_correct);
        // Failed reads still drew sensor power: more sensing energy
        // than the lossless run.
        let mut lossless = fleet_from_trace(&live, 2);
        let base =
            sim(&bs, &query, &planned, &mut lossless, &model, live.len(), &SimOptions::default());
        assert!(rep.sim.network.sensing_uj > base.sim.network.sensing_uj);
    }

    #[test]
    fn adaptive_replans_when_distribution_flips() {
        let (schema, _, query) = setup();
        // History: pred on `a` passes 90% of tuples, pred on `b` only
        // 10% — the planner fronts `b` for cheap rejections.
        let mut hist_rows = Vec::new();
        for i in 0..200u16 {
            let (a, b) = (u16::from(i % 10 != 0), u16::from(i % 10 == 0));
            hist_rows.push(vec![a, b, i % 2]);
        }
        let hist = Dataset::from_rows(&schema, hist_rows).unwrap();
        // Live: the selectivities flipped — `b` now passes 90% and the
        // stale b-first plan acquires both sensors almost every epoch.
        let mut live_rows = Vec::new();
        for i in 0..240u16 {
            let (a, b) = (u16::from(i % 10 == 0), u16::from(i % 10 != 0));
            live_rows.push(vec![a, b, i % 2]);
        }
        let live = Dataset::from_rows(&schema, live_rows).unwrap();

        let bs = Basestation::new(schema.clone(), &hist);
        let planned = bs.plan_query(&query, PlannerChoice::Heuristic(4), 0.0).unwrap();
        let model = EnergyModel::mica_like();
        let rec = Recorder::new(Arc::new(NoopSink));
        let opts = SimOptions {
            faults: FaultModel::lossy(5, 0.05),
            adaptive: Some(AdaptiveConfig {
                drift: DriftConfig { threshold: 0.2, min_samples: 16 },
                check_every: 4,
                sample_every: 2,
                window: 64,
                min_window: 8,
                ..AdaptiveConfig::default()
            }),
            ..SimOptions::default()
        };
        let mut motes = fleet_from_trace(&live, 2);
        let rep =
            run_simulation(&bs, &query, &planned, &mut motes, &model, live.len(), &rec, &opts)
                .unwrap()
                .fault;
        assert!(rep.sim.all_correct, "re-planning must never corrupt verdicts");
        assert!(!rep.replans.is_empty(), "flipped correlation must trigger a re-plan");
        let adopted: Vec<_> = rep.replans.iter().filter(|r| r.adopted).collect();
        assert!(!adopted.is_empty(), "a strictly cheaper plan exists and must be adopted");
        for r in &rep.replans {
            if r.adopted {
                assert!(r.new_cost < r.stale_cost);
            }
        }
        let snap = rec.drain();
        assert_eq!(snap.counter("sensornet.replan.triggered"), rep.replans.len() as u64);
        assert_eq!(snap.counter("sensornet.replan.adopted"), adopted.len() as u64);
        assert!(rep.samples_delivered > 0);
    }

    #[test]
    fn crashes_recover_and_charge_rediss_energy() {
        let (schema, data, query) = setup();
        let (train, live) = data.split_at(0.5);
        let bs = Basestation::new(schema.clone(), &train);
        let planned = bs.plan_query(&query, PlannerChoice::Heuristic(4), 0.0).unwrap();
        let model = EnergyModel::mica_like();
        let faults = FaultModel::lossy(21, 0.0);
        let dir = std::env::temp_dir().join("acqp_sim_crash_test");
        std::fs::remove_dir_all(&dir).ok();

        let opts = SimOptions {
            faults: faults.clone(),
            crash: CrashConfig {
                checkpoint_dir: Some(dir.clone()),
                checkpoint_every: 8,
                crash_epochs: vec![10, 30],
                crash_rate: 0.0,
            },
            ..SimOptions::default()
        };
        let mut motes = fleet_from_trace(&live, 3);
        let rep = run_simulation(
            &bs,
            &query,
            &planned,
            &mut motes,
            &model,
            live.len(),
            &Recorder::disabled(),
            &opts,
        )
        .unwrap();
        assert_eq!(rep.crashes, 2);
        assert_eq!(rep.cold_starts, 0, "checkpoints were on disk for both crashes");
        assert!(rep.checkpoints_written > 0);
        assert!(rep.recovery_rediss_uj > 0.0, "recovery must re-pay dissemination radio");
        assert!(rep.fault.sim.all_correct, "crashes must never corrupt verdicts");
        // Same run without crashes: strictly less dissemination energy.
        std::fs::remove_dir_all(&dir).ok();
        let mut base_motes = fleet_from_trace(&live, 3);
        let base = sim(&bs, &query, &planned, &mut base_motes, &model, live.len(), &lossy(faults));
        assert!(rep.fault.bs_tx_uj > base.bs_tx_uj);
        assert_eq!(rep.fault.sim.tuples, base.sim.tuples, "crashes cost energy, not tuples");
    }

    #[test]
    fn crash_without_persistence_cold_starts_to_genesis() {
        let (schema, data, query) = setup();
        let (train, live) = data.split_at(0.5);
        let bs = Basestation::new(schema.clone(), &train);
        let planned = bs.plan_query(&query, PlannerChoice::Heuristic(4), 0.0).unwrap();
        let model = EnergyModel::mica_like();
        let opts = SimOptions {
            crash: CrashConfig {
                checkpoint_dir: None,
                checkpoint_every: 0,
                crash_epochs: vec![5],
                crash_rate: 0.0,
            },
            ..SimOptions::default()
        };
        let mut motes = fleet_from_trace(&live, 2);
        let rep = run_simulation(
            &bs,
            &query,
            &planned,
            &mut motes,
            &model,
            20,
            &Recorder::disabled(),
            &opts,
        )
        .unwrap();
        assert_eq!(rep.crashes, 1);
        assert_eq!(rep.cold_starts, 1, "no checkpoint directory means every crash is cold");
        assert_eq!(rep.checkpoints_written, 0);
        assert!(rep.fault.sim.all_correct);
    }

    /// Runs `planned` under `opts`, returning only the error.
    fn rejection(planned: &PlannedQuery, fleet: u16, opts: &SimOptions) -> acqp_core::Error {
        let (schema, data, query) = setup();
        let bs = Basestation::new(schema, &data);
        let mut motes = fleet_from_trace(&data, fleet);
        let model = EnergyModel::mica_like();
        let rec = Recorder::disabled();
        match run_simulation(&bs, &query, planned, &mut motes, &model, 16, &rec, opts) {
            Ok(_) => panic!("the run must be rejected"),
            Err(e) => e,
        }
    }

    fn heuristic_plan() -> PlannedQuery {
        let (schema, data, query) = setup();
        Basestation::new(schema, &data)
            .plan_query(&query, PlannerChoice::Heuristic(4), 0.0)
            .unwrap()
    }

    #[test]
    fn rejects_a_truncated_wire() {
        let mut planned = heuristic_plan();
        planned.wire.pop();
        let err = rejection(&planned, 2, &SimOptions::default());
        assert!(matches!(err, Error::BadWireFormat { .. }), "{err:?}");
    }

    #[test]
    fn rejects_a_plan_that_does_not_encode_to_its_wire() {
        let (schema, data, query) = setup();
        let bs = Basestation::new(schema, &data);
        let mut planned = heuristic_plan();
        let naive = bs.plan_query(&query, PlannerChoice::Naive, 0.0).unwrap();
        assert_ne!(naive.wire, planned.wire, "the two plans must differ");
        // The wire still certifies; only the tree the batch executor
        // would run disagrees with it.
        planned.plan = naive.plan;
        let err = rejection(&planned, 2, &SimOptions::default());
        assert!(
            matches!(err, Error::BadWireFormat { what, .. } if what.contains("does not encode")),
            "{err:?}"
        );
    }

    #[test]
    fn rejects_a_topology_of_the_wrong_length() {
        let opts = SimOptions { topology: Some(Topology::line(3)), ..SimOptions::default() };
        let err = rejection(&heuristic_plan(), 2, &opts);
        assert!(
            matches!(err, Error::InvalidFlag { ref flag, .. } if flag == "topology"),
            "{err:?}"
        );
    }

    #[test]
    fn rejects_a_multihop_tree_with_loss() {
        let opts = SimOptions {
            faults: FaultModel::lossy(1, 0.2),
            topology: Some(Topology::balanced(4, 2)),
            ..SimOptions::default()
        };
        // A star relays nothing, but its packets go through the same
        // tree radio model, which has no loss semantics either.
        let star = SimOptions { topology: Some(Topology::star(4)), ..opts.clone() };
        for opts in [opts, star] {
            let err = rejection(&heuristic_plan(), 4, &opts);
            assert!(
                matches!(err, Error::InvalidFlag { ref flag, .. } if flag == "topology"),
                "{err:?}"
            );
        }
    }
}
