//! The multi-query basestation service loop (`DESIGN.md` §14).
//!
//! [`run_service_with`] admits a *schedule* of queries over one fleet
//! and runs them concurrently, merging their acquisition demands per
//! epoch: within one `(epoch, mote)` slot the first query to demand an
//! attribute pays for the sensor read and every later live query reads
//! it for free. Each live query executes its certified plan in its
//! [`PreparedPlan`] form, and the slot charges the merged chain once
//! ([`Mote::charge_slot`]). Planning is delegated to a
//! [`ServePlanner`] hook so the policy layer (`acqp-serve`) can cache
//! plans and invalidate them on drift without this engine knowing
//! about either.
//!
//! One epoch loop serves every [`ServiceOptions`]. Faults, crash
//! recovery, admission policy, deadlines and row collection are values
//! the loop reads, not separate code paths: at their defaults every
//! packet lands on its first attempt, every read succeeds and nothing
//! is shed, so the lossless service is this loop with the fault rates
//! at zero.
//!
//! Determinism: queries are admitted in schedule order, executed in
//! admission order within every slot, and motes are visited in index
//! order — the *arbitration order* is a pure function of the schedule,
//! so fixed seeds reproduce runs bit-for-bit. A default-options service
//! run with a single scheduled query performs exactly the `f64` ledger
//! additions of [`crate::sim::run_simulation`] per accumulator, in
//! the same order, and is therefore bitwise identical to it (pinned by
//! `tests/serve_equivalence.rs`). Latency is measured in **epochs**,
//! never wall-clock time.

use std::collections::BTreeMap;

use acqp_core::{
    AttrId, CostModel, Error, ExecMode, Plan, PreparedPlan, Query, QueryStatus, Result, Schema,
};
use acqp_obs::{Counter, FlightRecorder, Hist, Recorder};
use acqp_persist::{
    PlanRecord, RecoveryOutcome, ServeCheckpoint, ServeLiveRecord, ServePlanEntry, WalRecord,
};
use acqp_verify::verify_wire;

use crate::basestation::PlannedQuery;
use crate::energy::{EnergyLedger, EnergyModel};
use crate::fault::{attempt_packet, FaultModel, FaultStats, FaultStream};
use crate::mote::Mote;
use crate::recovery::{core_err, CrashConfig, CrashRuntime};
use crate::sim::{emit_retry, result_packet_bytes};

/// One entry of a service schedule: `query` is admitted at epoch
/// `admit` and runs for `window` epochs (a zero window is treated as
/// one epoch). Entries are admitted in schedule order — ties at the
/// same admission epoch keep their relative order, which is the
/// service's deterministic arbitration order.
#[derive(Debug, Clone)]
pub struct ScheduleEntry {
    /// The query to run.
    pub query: Query,
    /// Epoch at which the query is admitted.
    pub admit: usize,
    /// Number of epochs the query stays live.
    pub window: usize,
    /// Optional deadline: the query must terminate within `deadline`
    /// epochs of its *scheduled* admission (queueing time counts).
    /// Crossing it while running degrades to a partial, typed
    /// [`QueryStatus::TimedOut`] outcome; crossing it while queued
    /// sheds the query. `None` — the lossless default — never binds.
    pub deadline: Option<usize>,
}

impl ScheduleEntry {
    /// A deadline-free entry: `query` admitted at `admit` for `window`
    /// epochs.
    pub fn new(query: Query, admit: usize, window: usize) -> Self {
        ScheduleEntry { query, admit, window, deadline: None }
    }

    /// Sets the entry's deadline (epochs from scheduled admission).
    pub fn with_deadline(mut self, deadline: usize) -> Self {
        self.deadline = Some(deadline);
        self
    }
}

/// What the planning layer decided for an admitted query.
#[derive(Debug, Clone)]
pub struct AdmittedPlan {
    /// The plan to disseminate and execute.
    pub planned: PlannedQuery,
    /// True when the plan came out of a cache rather than a search.
    pub cache_hit: bool,
    /// Plan-search subproblems expanded to produce it (zero on a hit).
    pub subproblems: u64,
}

/// The planning policy behind [`run_service_with`]: the engine calls
/// [`ServePlanner::plan_admitted`] once per admission and
/// [`ServePlanner::query_completed`] once per completion (handing over
/// the query's observed per-predicate counts so the policy can track
/// drift and invalidate cached plans).
pub trait ServePlanner {
    /// Produces the plan for `query`, admitted at `epoch`.
    fn plan_admitted(&mut self, query: &Query, epoch: usize) -> Result<AdmittedPlan>;

    /// Notifies the policy that `query` completed at `epoch` with the
    /// given cumulative `(evaluated, passed)` counts per predicate.
    /// Returns how many cached plans this completion invalidated.
    fn query_completed(&mut self, query: &Query, epoch: usize, pred_counts: &[(u64, u64)]) -> u64;

    /// The policy's current statistics epoch (bumped on invalidation).
    fn stats_epoch(&self) -> u64;

    /// Snapshot of the policy's cached state for crash checkpoints.
    /// Policies without durable state (the default) return `None`; the
    /// engine then checkpoints live-query progress alone.
    fn policy_state(&self) -> Option<ServePolicyState> {
        None
    }

    /// Restores the policy after a basestation crash: `Some(state)`
    /// from a recovered checkpoint, `None` for a cold start (the policy
    /// must reset to genesis). The default does nothing.
    fn restore_policy_state(&mut self, state: Option<ServePolicyState>) {
        let _ = state;
    }
}

/// The serializable face of a [`ServePlanner`]'s cached state: the
/// stats epoch plus every cached plan as `(query, cache-key epoch,
/// plan)`. The query rides along because restoring a drift monitor
/// needs the predicates, not just the plan bytes.
#[derive(Debug, Clone)]
pub struct ServePolicyState {
    /// The policy's statistics epoch.
    pub stats_epoch: u64,
    /// Cached plans in deterministic key order.
    pub plans: Vec<(Query, u64, PlannedQuery)>,
}

/// Per-query accounting for one schedule entry.
#[derive(Debug, Clone)]
pub struct QueryOutcome {
    /// Whether the query was admitted at all (entries whose admission
    /// epoch falls beyond the run are never admitted).
    pub admitted: bool,
    /// Epoch the query was admitted at.
    pub admit: usize,
    /// Epoch the query completed at (one past its last live epoch).
    pub completed_at: usize,
    /// Mote-epochs this query evaluated.
    pub tuples: usize,
    /// Tuples that satisfied the query.
    pub results: usize,
    /// Whether every verdict matched ground truth.
    pub all_correct: bool,
    /// Whether the plan came from the cache.
    pub cache_hit: bool,
    /// Plan-search subproblems expanded on admission.
    pub subproblems: u64,
    /// Admission-to-first-result latency in epochs (`None` when the
    /// query produced no result).
    pub latency_epochs: Option<u64>,
    /// Cached plans invalidated when this query's completion stats
    /// were absorbed.
    pub invalidated: u64,
    /// Typed terminal outcome: `Complete`, `Partial` when the window
    /// lost tuples or results, `TimedOut` at a deadline, or `Shed` for
    /// entries dropped by admission control or scheduled beyond the run.
    pub status: QueryStatus,
    /// Epoch admission control dropped the query, if it was shed by
    /// policy rather than scheduled beyond the run.
    pub shed_at: Option<usize>,
    /// Delivered result rows as `(epoch, mote)` pairs in delivery
    /// order, when [`ServiceOptions::collect_rows`] is on (the
    /// partial-result prefix guarantee is stated over these); empty
    /// otherwise.
    pub rows: Vec<(usize, u16)>,
}

/// Result of one service run.
#[derive(Debug, Clone)]
pub struct ServiceReport {
    /// Epochs the service ran for.
    pub epochs: usize,
    /// One outcome per schedule entry, in schedule order.
    pub queries: Vec<QueryOutcome>,
    /// Aggregate energy over all motes.
    pub network: EnergyLedger,
    /// Per-mote energy ledgers.
    pub per_mote: Vec<EnergyLedger>,
    /// Basestation transmit energy spent on dissemination.
    pub bs_tx_uj: f64,
    /// Sensor reads physically performed (after cross-query merging).
    pub performed_acquisitions: u64,
    /// Sensor reads the live queries demanded (before merging) — the
    /// gap to `performed_acquisitions` is the sharing win.
    pub demanded_acquisitions: u64,
    /// Fault, crash and policy accounting. Every run fills it (all
    /// zeros on a default run); the `Option` keeps existing callers
    /// compiling.
    pub robustness: Option<ServeRobustReport>,
}

impl ServiceReport {
    /// Total query-tuples evaluated across the schedule.
    pub fn tuples(&self) -> usize {
        self.queries.iter().map(|q| q.tuples).sum()
    }

    /// Total results across the schedule.
    pub fn results(&self) -> usize {
        self.queries.iter().map(|q| q.results).sum()
    }

    /// Whether every verdict of every query matched ground truth.
    pub fn all_correct(&self) -> bool {
        self.queries.iter().all(|q| q.all_correct)
    }

    /// Queries that terminated with the given status.
    pub fn count_status(&self, status: QueryStatus) -> usize {
        self.queries.iter().filter(|q| q.status == status).count()
    }
}

/// Robustness accounting for one service run (`DESIGN.md` §14.5); all
/// zeros when nothing faults, crashes or is shed.
#[derive(Debug, Clone, Default)]
pub struct ServeRobustReport {
    /// Result packets that reached the basestation.
    pub delivered_results: usize,
    /// Result packets dropped after exhausting the attempt cap.
    pub lost_results: usize,
    /// Tuples abandoned because a sensor read aborted.
    pub aborted_tuples: usize,
    /// Mote-epochs lost to dropout schedules.
    pub offline_epochs: usize,
    /// Queries shed by admission control.
    pub shed: usize,
    /// Queries terminated at their deadline.
    pub timed_out: usize,
    /// Admissions deferred because the epoch budget was full.
    pub budget_deferrals: u64,
    /// Admissions deferred by the fairness rule (hot signature at its
    /// fair share yielding to a waiting different signature).
    pub fairness_deferrals: u64,
    /// Live queries re-planned onto a new stats epoch after drift.
    pub readmissions: u64,
    /// Basestation crashes injected.
    pub crashes: usize,
    /// Recoveries that found no usable snapshot.
    pub cold_starts: usize,
    /// Snapshot files that failed validation across recoveries.
    pub corrupt_snapshots: usize,
    /// WAL records replayed across recoveries.
    pub wal_replayed: usize,
    /// Serve snapshots written during the run.
    pub checkpoints_written: usize,
    /// Radio energy (µJ, bs tx + mote rx) spent re-disseminating plans
    /// after crashes.
    pub recovery_rediss_uj: f64,
}

/// Admission-control and degradation policy for the service loop. The
/// default is a no-op: admit everything immediately, never shed, never
/// re-admit.
#[derive(Debug, Clone, PartialEq)]
pub struct ServicePolicy {
    /// Per-epoch budget on the summed expected per-tuple cost of live
    /// plans. Admissions that would exceed it wait in the queue (in
    /// strict schedule order); `None` admits unconditionally.
    pub epoch_cost_budget: Option<f64>,
    /// Epochs an entry may wait in the admission queue before it is
    /// shed (only enforced when a budget is set).
    pub max_queue_epochs: usize,
    /// Fairness bound: once a signature has this many live instances,
    /// further admissions of it yield to waiting entries of *other*
    /// signatures — one hot signature cannot starve the tail.
    pub fair_share: usize,
    /// Re-plan in-flight queries onto the new stats epoch when a
    /// completion's drift firing invalidates the plan cache, instead of
    /// letting them finish on stale plans.
    pub readmit_on_drift: bool,
}

impl Default for ServicePolicy {
    fn default() -> Self {
        ServicePolicy {
            epoch_cost_budget: None,
            max_queue_epochs: 8,
            fair_share: 2,
            readmit_on_drift: false,
        }
    }
}

impl ServicePolicy {
    /// Validates the knobs: a budget must be a positive finite µJ
    /// figure and the fair share at least one.
    pub fn validate(&self) -> Result<()> {
        if let Some(b) = self.epoch_cost_budget {
            if !b.is_finite() || b <= 0.0 {
                return Err(Error::InvalidFlag {
                    flag: "epoch-budget".into(),
                    value: format!("{b}"),
                    why: "the per-epoch cost budget must be a positive finite number",
                });
            }
        }
        if self.fair_share == 0 {
            return Err(Error::InvalidFlag {
                flag: "fair-share".into(),
                value: "0".into(),
                why: "the fairness bound must admit at least one instance per signature",
            });
        }
        Ok(())
    }
}

/// Everything optional about a service run: fault injection, crash
/// recovery, admission policy, row collection. [`Default`] is the
/// lossless service: no faults, no crashes, a no-op policy, no rows.
/// Every option set runs the same epoch loop.
#[derive(Debug, Clone, Default)]
pub struct ServiceOptions {
    /// Seeded fault model ([`FaultModel::none`] = lossless).
    pub faults: FaultModel,
    /// Crash/checkpoint configuration (inactive by default).
    pub crash: CrashConfig,
    /// Admission-control policy (no-op by default).
    pub policy: ServicePolicy,
    /// Collect delivered `(epoch, mote)` rows per query into
    /// [`QueryOutcome::rows`]. Row collection only: it changes no count
    /// and no ledger.
    pub collect_rows: bool,
}

/// One admitted, still-running query.
struct LiveQuery {
    /// Index into the schedule (also the arbitration key).
    idx: usize,
    /// Query signature (the fairness key).
    sig: u64,
    planned: PlannedQuery,
    admit: usize,
    /// One past the query's last live epoch.
    end: usize,
    /// Absolute deadline epoch (scheduled admission + deadline).
    deadline_at: Option<usize>,
    cache_hit: bool,
    subproblems: u64,
    /// The executable form of `planned.plan`, the tree that encodes to
    /// the certified wire; every slot reads its chains from this arena.
    prepared: PreparedPlan,
    /// Which motes physically hold the current plan.
    mote_has: Vec<bool>,
    /// The basestation's belief about `mote_has` — process memory,
    /// wiped to all-false by a crash (which is what forces the
    /// recovery re-dissemination).
    bs_known: Vec<bool>,
    /// How many entries of `bs_known` are false: the motes the
    /// re-dissemination pass still has to reach. Zero skips the query.
    unvouched: usize,
    tally: Tally,
}

impl LiveQuery {
    /// Wipes the basestation's belief about which motes hold the plan,
    /// so the re-dissemination pass reaches every mote again.
    fn unvouch_all(&mut self) {
        self.bs_known.fill(false);
        self.unvouched = self.bs_known.len();
    }
}

/// A live query's per-slot accounting, kept apart from its plan state
/// so a slot can borrow the plan's chain arena while it tallies.
struct Tally {
    uplink_bytes: usize,
    /// `pred_of[a]` = index of the predicate on attribute `a`, if any.
    pred_of: Vec<Option<usize>>,
    /// Cumulative per-predicate `(evaluated, passed)` counts.
    pend: Vec<(u64, u64)>,
    tuples: usize,
    results: usize,
    all_correct: bool,
    first_result: Option<usize>,
    /// Passing tuples whose result packet timed out.
    lost_results: usize,
    /// Tuples discarded because their chain hit an aborted sensor.
    aborted_tuples: usize,
    /// Mote-epochs this query could not execute (offline mote or plan
    /// not yet disseminated).
    missed_epochs: usize,
    /// Delivered `(epoch, mote)` rows (opt-in).
    rows: Vec<(usize, u16)>,
}

impl Tally {
    /// Whether any tuple or result was lost — a window-end termination
    /// then reports [`QueryStatus::Partial`] instead of `Complete`.
    fn is_degraded(&self) -> bool {
        self.lost_results > 0 || self.aborted_tuples > 0 || self.missed_epochs > 0
    }
}

/// Pre-hoisted `serve.*` instruments (see `DESIGN.md` §8).
struct ServeMetrics {
    admitted: Counter,
    completed: Counter,
    tuples: Counter,
    results: Counter,
    radio: Counter,
    demanded: Counter,
    performed: Counter,
    cache_hits: Counter,
    cache_misses: Counter,
    invalidations: Counter,
    subproblems: Counter,
    latency: Hist,
}

impl ServeMetrics {
    fn new(rec: &Recorder) -> ServeMetrics {
        ServeMetrics {
            admitted: rec.counter("serve.queries.admitted"),
            completed: rec.counter("serve.queries.completed"),
            tuples: rec.counter("serve.tuples"),
            results: rec.counter("serve.results"),
            radio: rec.counter("serve.radio.msgs"),
            demanded: rec.counter("serve.acquisitions.demanded"),
            performed: rec.counter("serve.acquisitions.performed"),
            cache_hits: rec.counter("serve.cache.hits"),
            cache_misses: rec.counter("serve.cache.misses"),
            invalidations: rec.counter("serve.cache.invalidations"),
            subproblems: rec.counter("serve.plan.subproblems"),
            latency: rec.hist("serve.latency_epochs"),
        }
    }
}

/// Pre-hoisted `verify.*` instruments (see `DESIGN.md` §8): the static
/// plan-verification gates the service loop runs in front of every
/// dissemination and every checkpoint restore.
struct VerifyMetrics {
    checked: Counter,
    rejected: Counter,
    demoted: Counter,
    clamped: Counter,
    wire_bytes: Hist,
}

impl VerifyMetrics {
    fn new(rec: &Recorder) -> VerifyMetrics {
        VerifyMetrics {
            checked: rec.counter("verify.checked"),
            rejected: rec.counter("verify.rejected"),
            demoted: rec.counter("verify.recovery.demoted"),
            clamped: rec.counter("verify.cost.clamped"),
            wire_bytes: rec.hist("verify.wire_bytes"),
        }
    }

    /// Gate in front of every admission: the wire bytes must pass the
    /// structural and semantic passes (a failure is a hard typed error
    /// — malformed bytes never reach the radio), and the planner's
    /// claimed expected cost is replaced by its certified clamp when it
    /// falls outside the cost pass's bound, so admission control only
    /// ever budgets on numbers the verifier stands behind. For honest
    /// planners the clamp is the identity. The engine executes the plan
    /// tree, so the tree must be the one the certificate covers: a tree
    /// that does not encode to the verified wire is rejected too.
    fn admit(&self, plan: &mut AdmittedPlan, query: &Query, schema: &Schema) -> Result<()> {
        self.checked.incr(1);
        let wire = &plan.planned.wire;
        self.wire_bytes.observe(wire.len() as u64);
        let cert = match verify_wire(wire, query, schema) {
            Ok(cert) => cert,
            Err(err) => {
                self.rejected.incr(1);
                return Err(err.into());
            }
        };
        if let Err(err) = plan.planned.check_tree_matches_wire() {
            self.rejected.incr(1);
            return Err(err);
        }
        if cert.check_claim(plan.planned.expected_cost).is_err() {
            self.clamped.incr(1);
            let claimed = plan.planned.expected_cost;
            plan.planned.expected_cost = if claimed.is_finite() {
                claimed.clamp(cert.bound.best_case, cert.bound.worst_case)
            } else {
                cert.bound.worst_case
            };
        }
        Ok(())
    }
}

/// Runs `schedule` as a concurrent multi-query service over the fleet
/// for `epochs` epochs. Plans come from `planner`; every admission is
/// disseminated to the fleet (radio energy charged like the
/// single-query engine's), every live query executes once per
/// `(epoch, mote)` slot with acquisitions merged across queries, and
/// every passing tuple transmits that query's result packet. On top of
/// that, `opts` may:
///
/// - push every dissemination and result packet through the bounded
///   retry + backoff of [`attempt_packet`], charging each attempt;
/// - fail sensor reads, which retry within the attempt cap and, once
///   exhausted, abort only the tuples whose chains touched them;
/// - apply the [`ServicePolicy`] in schedule order: per-epoch budget
///   admission with a fairness bound, queue-age and deadline shedding;
/// - degrade gracefully: deadline crossings yield a typed
///   [`QueryStatus::TimedOut`] outcome with the rows delivered so far,
///   lossy windows end as [`QueryStatus::Partial`];
/// - journal admissions/completions/epochs to the WAL and snapshot
///   serve state on the checkpoint cadence, so an injected basestation
///   crash recovers the plan cache, stats epoch and live-query
///   progress instead of cold-starting.
///
/// With [`ServiceOptions::default`] none of that can fire: every packet
/// lands on its first attempt and every read succeeds, so the run is
/// the lossless service.
///
/// Every slot runs one kernel: each holder's verdict and chain come
/// from a one-row walk of its query's prepared plan
/// ([`PreparedPlan::walk_row`]), the chains merge in first-demand
/// order, and the mote is charged for the merged chain once. `mode` is
/// accepted for existing callers and ignored: the service runs the same
/// kernel in either [`ExecMode`], so the reports, ledgers and counters
/// are bitwise equal.
///
/// Returns one [`QueryOutcome`] per schedule entry, in schedule order.
#[allow(clippy::too_many_arguments)]
pub fn run_service_with(
    schema: &Schema,
    schedule: &[ScheduleEntry],
    planner: &mut dyn ServePlanner,
    motes: &mut [Mote],
    model: &EnergyModel,
    epochs: usize,
    _mode: ExecMode,
    rec: &Recorder,
    opts: &ServiceOptions,
) -> Result<ServiceReport> {
    opts.policy.validate()?;

    let span = rec.span("serve.run");
    let flight = rec.flight().clone();
    let start_seq = flight.emit(
        0,
        0,
        "serve.start",
        &[
            ("queries", schedule.len().into()),
            ("motes", motes.len().into()),
            ("epochs", epochs.into()),
        ],
    );
    let cr = CrashRuntime::new(&opts.crash, rec).map_err(core_err)?;
    // Entries that are never admitted keep their pending row.
    let outcomes: Vec<QueryOutcome> = schedule
        .iter()
        .map(|s| QueryOutcome {
            admitted: false,
            admit: s.admit,
            completed_at: s.admit,
            tuples: 0,
            results: 0,
            all_correct: true,
            cache_hit: false,
            subproblems: 0,
            latency_epochs: None,
            invalidated: 0,
            status: QueryStatus::Shed,
            shed_at: None,
            rows: Vec::new(),
        })
        .collect();
    // Arrivals by admission epoch; the sort is stable, so schedule
    // order (the arbitration order) holds within an epoch.
    let mut arrivals: Vec<usize> =
        (0..schedule.len()).filter(|&i| schedule[i].admit < epochs).collect();
    arrivals.sort_by_key(|&i| schedule[i].admit);
    let engine = ServeEngine {
        schema,
        schedule,
        planner,
        motes,
        model,
        epochs,
        rec,
        opts,
        flight,
        start_seq,
        m: ServeMetrics::new(rec),
        rm: RobustMetrics::new(rec),
        vm: VerifyMetrics::new(rec),
        fstats: FaultStats::serve(rec),
        cr,
        outcomes,
        arrivals,
        next_arrival: 0,
        live: Vec::new(),
        queue: Vec::new(),
        slot_outs: Vec::new(),
        merged: Vec::new(),
        bs_tx_uj: 0.0,
        demanded: 0,
        performed: 0,
        rob: ServeRobustReport::default(),
    };
    let report = engine.run()?;
    drop(span);
    Ok(report)
}

/// Fault, shed and degradation instruments (`serve.shed.*`,
/// `serve.degraded.*`, `serve.readmit.*`). Registered on every run; a
/// default run leaves them at zero.
struct RobustMetrics {
    /// `serve.shed.queries` — queries dropped by admission control.
    shed: Counter,
    /// `serve.shed.deferrals.budget` — admission passes stopped by a
    /// full epoch budget.
    defer_budget: Counter,
    /// `serve.shed.deferrals.fairness` — hot-signature entries that
    /// yielded to a waiting different signature.
    defer_fair: Counter,
    /// `serve.degraded.partial` — window-end terminations that lost
    /// tuples or results along the way.
    partial: Counter,
    /// `serve.degraded.timeouts` — deadline terminations.
    timeouts: Counter,
    /// `serve.degraded.lost_results` — result packets dropped after
    /// exhausting the attempt cap.
    lost_results: Counter,
    /// `serve.degraded.aborted_tuples` — tuples discarded on sensing
    /// aborts.
    aborted: Counter,
    /// `serve.readmit.queries` — live queries re-planned onto a new
    /// stats epoch after drift invalidation.
    readmitted: Counter,
    /// `serve.latency.degraded` — epochs spent by shed and timed-out
    /// queries, kept out of the completion latency histogram.
    degraded_latency: Hist,
}

impl RobustMetrics {
    fn new(rec: &Recorder) -> RobustMetrics {
        RobustMetrics {
            shed: rec.counter("serve.shed.queries"),
            defer_budget: rec.counter("serve.shed.deferrals.budget"),
            defer_fair: rec.counter("serve.shed.deferrals.fairness"),
            partial: rec.counter("serve.degraded.partial"),
            timeouts: rec.counter("serve.degraded.timeouts"),
            lost_results: rec.counter("serve.degraded.lost_results"),
            aborted: rec.counter("serve.degraded.aborted_tuples"),
            readmitted: rec.counter("serve.readmit.queries"),
            degraded_latency: rec.hist("serve.latency.degraded"),
        }
    }
}

/// A schedule entry waiting in the admission queue.
struct Pending {
    /// Index into the schedule.
    idx: usize,
    /// The entry's query signature (fairness key).
    sig: u64,
    /// Plan computed on first consideration and reused across
    /// deferrals. Basestation memory: wiped by crashes and by cache
    /// invalidations, so a later admission re-plans on fresh state.
    plan: Option<AdmittedPlan>,
}

/// The service's epoch loop. One instance per [`run_service_with`]
/// call.
struct ServeEngine<'a> {
    schema: &'a Schema,
    schedule: &'a [ScheduleEntry],
    planner: &'a mut dyn ServePlanner,
    motes: &'a mut [Mote],
    model: &'a EnergyModel,
    epochs: usize,
    rec: &'a Recorder,
    opts: &'a ServiceOptions,
    flight: FlightRecorder,
    start_seq: u64,
    m: ServeMetrics,
    rm: RobustMetrics,
    vm: VerifyMetrics,
    fstats: FaultStats,
    cr: CrashRuntime<'a>,
    outcomes: Vec<QueryOutcome>,
    /// Schedule indices ordered by arrival epoch, in schedule order
    /// within an epoch.
    arrivals: Vec<usize>,
    /// The first entry of `arrivals` not yet queued.
    next_arrival: usize,
    live: Vec<LiveQuery>,
    /// Admission queue, in schedule order.
    queue: Vec<Pending>,
    /// Per-slot buffers, reused across slots: per live query whose plan
    /// the mote holds (in live order) its verdict and chain span, and
    /// the slot's merged chain.
    slot_outs: Vec<(bool, (u32, u32))>,
    merged: Vec<AttrId>,
    bs_tx_uj: f64,
    demanded: u64,
    performed: u64,
    rob: ServeRobustReport,
}

/// The run-wide configuration and instruments one slot's accounting
/// reads.
struct SlotEnv<'a> {
    model: &'a EnergyModel,
    faults: &'a FaultModel,
    collect_rows: bool,
    m: &'a ServeMetrics,
    rm: &'a RobustMetrics,
    fstats: &'a FaultStats,
    flight: &'a FlightRecorder,
    start_seq: u64,
}

impl ServeEngine<'_> {
    fn run(mut self) -> Result<ServiceReport> {
        let epochs = self.epochs;
        for e in 0..epochs {
            // Crashes fire at epoch starts only; epoch 0 cannot crash
            // (there is nothing to recover before the first
            // admissions) — the same clock the single-query crashy
            // simulator uses.
            let crashed = e > 0 && self.crash_scheduled(e);
            if crashed {
                self.crash_and_recover(e);
            }
            self.redisseminate(e, crashed);
            self.admissions(e)?;
            self.exec_motes(e);
            self.terminations(e)?;
            self.journal_epoch(e);
        }
        // Entries still queued when the run ends never got capacity.
        for p in std::mem::take(&mut self.queue) {
            self.shed(p.idx, epochs);
        }
        // `end` is clamped to `epochs`, so nothing should still be
        // live here; drain defensively all the same.
        for q in std::mem::take(&mut self.live) {
            self.finish(q, epochs, false);
        }
        if let Some(err) = self.cr.take_error() {
            return Err(core_err(err));
        }
        Ok(self.report())
    }

    /// Whether the basestation crashes at the start of epoch `e`:
    /// explicitly scheduled, or drawn from the crash stream (which is
    /// hash-disjoint from every packet stream, so enabling crashes
    /// never changes which packets drop).
    fn crash_scheduled(&self, e: usize) -> bool {
        self.cr.cfg.crash_epochs.contains(&e)
            || (self.cr.cfg.crash_rate > 0.0
                && self.opts.faults.roll(FaultStream::Crash, 0, e, 0, 0) < self.cr.cfg.crash_rate)
    }

    /// Kills and restarts the basestation process: belief state and
    /// staged plans are wiped (physical mote state survives), then the
    /// serve checkpoint + WAL tail are read back to restore the
    /// policy's plan cache, stats epoch and live-query drift counters.
    fn crash_and_recover(&mut self, e: usize) {
        let down_seq = self.flight.emit(e as u64, self.start_seq, "crash.down", &[]);
        for q in self.live.iter_mut() {
            q.unvouch_all();
        }
        for p in self.queue.iter_mut() {
            p.plan = None;
        }
        let recovered = match self.cr.journal.as_mut() {
            Some(j) => j.recover_serve(),
            None => RecoveryOutcome::genesis(),
        };
        let (cold, replayed, corrupt, scanned) = (
            recovered.cold_start,
            recovered.replayed.len(),
            recovered.corrupt_snapshots,
            recovered.snapshots_scanned,
        );
        self.cr.count_recovery(cold, corrupt, replayed);
        let cp_epoch = recovered.checkpoint.as_ref().map_or(-1, |c| c.epoch as i64);
        match recovered.checkpoint {
            Some(cp) => {
                // Rebuild the policy's plan cache from the snapshot.
                // Every recovered plan must re-earn a full verification
                // certificate against its own query — the bytes sat on
                // disk, and the checksum layer only covers whole-record
                // corruption. A plan that fails any pass (or whose
                // claimed cost falls outside the certified bound) is
                // demoted: dropped from the cache so the policy
                // re-plans it on demand, instead of disseminating
                // corrupt bytes to the fleet.
                let mut plans = Vec::new();
                for entry in &cp.plans {
                    self.vm.checked.incr(1);
                    self.vm.wire_bytes.observe(entry.plan.wire.len() as u64);
                    let cert = verify_wire(&entry.plan.wire, &entry.query, self.schema)
                        .and_then(|c| c.check_claim(entry.plan.expected_cost).map(|()| c));
                    match (cert, Plan::decode(&entry.plan.wire)) {
                        (Ok(_), Ok(plan)) => plans.push((
                            entry.query.clone(),
                            entry.key_epoch,
                            PlannedQuery {
                                plan,
                                wire: entry.plan.wire.clone(),
                                expected_cost: entry.plan.expected_cost,
                                objective: entry.plan.objective,
                            },
                        )),
                        _ => {
                            self.vm.rejected.incr(1);
                            self.vm.demoted.incr(1);
                        }
                    }
                }
                self.planner.restore_policy_state(Some(ServePolicyState {
                    stats_epoch: cp.stats_epoch,
                    plans,
                }));
                // Live-query drift counters recover to their
                // checkpointed values; deltas since the snapshot are
                // lost. (The report's tuple/result tallies are ground
                // truth about what physically happened — a basestation
                // restart does not rewrite them.)
                for q in self.live.iter_mut() {
                    match cp.live.iter().find(|l| l.idx == q.idx as u64) {
                        Some(l) if l.pend.len() == q.tally.pend.len() => {
                            q.tally.pend = l.pend.clone()
                        }
                        _ => q.tally.pend.iter_mut().for_each(|p| *p = (0, 0)),
                    }
                }
            }
            None => {
                self.planner.restore_policy_state(None);
                for q in self.live.iter_mut() {
                    q.tally.pend.iter_mut().for_each(|p| *p = (0, 0));
                }
            }
        }
        self.flight.emit(
            e as u64,
            down_seq,
            "crash.recover",
            &[
                ("cold_start", cold.into()),
                ("stats_epoch", (self.planner.stats_epoch() as i64).into()),
                ("wal_replayed", replayed.into()),
                ("corrupt_snapshots", corrupt.into()),
                ("snapshots_scanned", scanned.into()),
                ("checkpoint_epoch", cp_epoch.into()),
            ],
        );
    }

    /// Fresh per-epoch dissemination attempts for every live query the
    /// basestation believes some mote is missing — covers lossy
    /// admissions, post-crash belief wipes and drift readmissions. The
    /// energy of a post-crash round is additionally tallied as the
    /// recovery tax.
    fn redisseminate(&mut self, e: usize, crashed: bool) {
        let Self { live, motes, opts, fstats, flight, m, model, bs_tx_uj, cr, start_seq, .. } =
            self;
        let faults = &opts.faults;
        for q in live.iter_mut().filter(|q| q.unvouched > 0) {
            let wire_len = q.planned.wire.len();
            for (mi, mote) in motes.iter_mut().enumerate() {
                if q.bs_known[mi] || !faults.online(mote.id(), e) {
                    continue;
                }
                let d = attempt_packet(faults, FaultStream::Dissemination, mote.id(), e, fstats);
                emit_retry(flight, *start_seq, e, "diss", mote.id(), &d);
                let tx = (d.attempts as usize * wire_len) as f64 * model.radio_tx_uj_per_byte;
                *bs_tx_uj += tx;
                m.radio.incr(d.attempts as u64);
                let mut delta = tx;
                if d.delivered {
                    mote.receive(wire_len, model);
                    delta += wire_len as f64 * model.radio_rx_uj_per_byte;
                    q.mote_has[mi] = true;
                    q.bs_known[mi] = true;
                    q.unvouched -= 1;
                }
                if crashed {
                    cr.recovery_rediss_uj += delta;
                }
            }
        }
    }

    /// Queues this epoch's arrivals, sheds entries that can no longer
    /// run, and admits from the queue in schedule order under the
    /// policy's budget and fairness rules.
    fn admissions(&mut self, e: usize) -> Result<()> {
        while let Some(&idx) = self.arrivals.get(self.next_arrival) {
            if self.schedule[idx].admit > e {
                break;
            }
            self.next_arrival += 1;
            let sig = self.schedule[idx].query.signature();
            self.queue.push(Pending { idx, sig, plan: None });
        }
        if self.queue.is_empty() {
            return Ok(());
        }
        let budget = self.opts.policy.epoch_cost_budget;
        let max_wait = self.opts.policy.max_queue_epochs;
        let fair_share = self.opts.policy.fair_share;

        // Shed pass: entries whose deadline already passed while
        // queued, and (under a budget) entries past the queueing cap.
        let queue = std::mem::take(&mut self.queue);
        let mut kept: Vec<Pending> = Vec::with_capacity(queue.len());
        for p in queue {
            let s = &self.schedule[p.idx];
            let expired = s.deadline.is_some_and(|d| e >= s.admit + d)
                || (budget.is_some() && e > s.admit + max_wait);
            if expired {
                self.shed(p.idx, e);
            } else {
                kept.push(p);
            }
        }

        // Admission pass. Fairness first (before planning, so a
        // deferred hot entry costs nothing), then the budget check in
        // strict FIFO order: the first entry that does not fit stops
        // the pass, except that an oversized entry facing an *empty*
        // service is admitted anyway — it could otherwise never run.
        let sigs: Vec<u64> = kept.iter().map(|p| p.sig).collect();
        let other_behind: Vec<bool> =
            (0..sigs.len()).map(|i| sigs[i + 1..].iter().any(|&s| s != sigs[i])).collect();
        let mut sig_live: BTreeMap<u64, usize> = BTreeMap::new();
        for q in &self.live {
            *sig_live.entry(q.sig).or_insert(0) += 1;
        }
        let mut live_cost: f64 = self.live.iter().map(|q| q.planned.expected_cost).sum();
        let mut admitted_any = false;
        let mut deferred: Vec<Pending> = Vec::new();
        let mut iter = kept.into_iter().enumerate();
        while let Some((pos, mut p)) = iter.next() {
            if budget.is_some()
                && sig_live.get(&p.sig).copied().unwrap_or(0) >= fair_share
                && other_behind[pos]
            {
                self.rm.defer_fair.incr(1);
                self.rob.fairness_deferrals += 1;
                deferred.push(p);
                continue;
            }
            let plan = match p.plan.take() {
                Some(plan) => plan,
                None => self.plan(p.idx, e)?,
            };
            if let Some(b) = budget {
                let cost = plan.planned.expected_cost;
                if live_cost + cost > b && (admitted_any || !self.live.is_empty()) {
                    self.rm.defer_budget.incr(1);
                    self.rob.budget_deferrals += 1;
                    p.plan = Some(plan);
                    deferred.push(p);
                    deferred.extend(iter.map(|(_, rest)| rest));
                    break;
                }
                live_cost += cost;
            }
            *sig_live.entry(p.sig).or_insert(0) += 1;
            admitted_any = true;
            self.admit_now(p.idx, p.sig, plan, e);
        }
        self.queue = deferred;
        Ok(())
    }

    /// Plans schedule entry `idx` at epoch `e` through the policy,
    /// gates the plan with the verifier, and counts the search.
    fn plan(&mut self, idx: usize, e: usize) -> Result<AdmittedPlan> {
        let query = &self.schedule[idx].query;
        let mut plan = self.planner.plan_admitted(query, e)?;
        self.vm.admit(&mut plan, query, self.schema)?;
        self.m.subproblems.incr(plan.subproblems);
        if plan.cache_hit {
            self.m.cache_hits.incr(1);
        } else {
            self.m.cache_misses.incr(1);
        }
        Ok(plan)
    }

    /// The executable form of `planned`, the plan of entry `idx`.
    fn prepare(&self, planned: &PlannedQuery, idx: usize) -> PreparedPlan {
        let query = &self.schedule[idx].query;
        PreparedPlan::new(&planned.plan, query, self.schema, &CostModel::PerAttribute)
    }

    /// Appends `record` to the WAL when the run journals.
    fn journal(&mut self, record: &WalRecord) {
        if let Some(j) = self.cr.journal.as_mut() {
            j.append(record);
        }
    }

    /// Admits one entry at epoch `e`: counters, fleet dissemination
    /// through the retry loop, WAL record, and the live-query state.
    fn admit_now(&mut self, idx: usize, sig: u64, plan: AdmittedPlan, e: usize) {
        let entry = &self.schedule[idx];
        self.m.admitted.incr(1);
        let wire_len = plan.planned.wire.len();
        let faults = &self.opts.faults;
        let mut mote_has = vec![false; self.motes.len()];
        for (mi, mote) in self.motes.iter_mut().enumerate() {
            if !faults.online(mote.id(), e) {
                continue;
            }
            let d = attempt_packet(faults, FaultStream::Dissemination, mote.id(), e, &self.fstats);
            emit_retry(&self.flight, self.start_seq, e, "diss", mote.id(), &d);
            self.bs_tx_uj +=
                (d.attempts as usize * wire_len) as f64 * self.model.radio_tx_uj_per_byte;
            self.m.radio.incr(d.attempts as u64);
            if d.delivered {
                mote.receive(wire_len, self.model);
                mote_has[mi] = true;
            }
        }
        self.flight.emit(
            e as u64,
            self.start_seq,
            "serve.admit",
            &[
                ("query", idx.into()),
                ("cache_hit", plan.cache_hit.into()),
                ("subproblems", plan.subproblems.into()),
                ("wire_bytes", wire_len.into()),
            ],
        );
        self.journal(&WalRecord::ServeAdmit {
            idx: idx as u64,
            epoch: e as u64,
            sig,
            cache_hit: plan.cache_hit,
        });
        let mut pred_of: Vec<Option<usize>> = vec![None; self.schema.len()];
        for (j, &a) in entry.query.attrs().iter().enumerate() {
            pred_of[a] = Some(j);
        }
        let end = (e + entry.window.max(1)).min(self.epochs);
        let tally = Tally {
            uplink_bytes: result_packet_bytes(self.schema, &entry.query),
            pred_of,
            pend: vec![(0, 0); entry.query.len()],
            tuples: 0,
            results: 0,
            all_correct: true,
            first_result: None,
            lost_results: 0,
            aborted_tuples: 0,
            missed_epochs: 0,
            rows: Vec::new(),
        };
        let deadline_at = entry.deadline.map(|d| entry.admit + d);
        let prepared = self.prepare(&plan.planned, idx);
        self.live.push(LiveQuery {
            idx,
            sig,
            planned: plan.planned,
            admit: e,
            end,
            deadline_at,
            cache_hit: plan.cache_hit,
            subproblems: plan.subproblems,
            prepared,
            bs_known: mote_has.clone(),
            unvouched: mote_has.iter().filter(|&&has| !has).count(),
            mote_has,
            tally,
        });
    }

    /// One merged execution pass per online mote, in index order. Each
    /// live query whose plan the mote holds gives its verdict and chain
    /// for the slot from a one-row walk of its prepared plan; both
    /// depend only on the plan and the trace row, since an aborted read
    /// still returns the trace value. The chains merge in first-demand
    /// order (live order, then chain order) and the mote is charged for
    /// the merged chain once, with sensing retries; per-query
    /// accounting and result uplinks follow with the slot's
    /// aborted-attribute mask. Offline motes and motes still missing a
    /// plan count as missed epochs. The tuple and acquisition counters
    /// are added once per epoch.
    fn exec_motes(&mut self, e: usize) {
        if self.live.is_empty() {
            return;
        }
        let Self {
            schema,
            schedule,
            motes,
            model,
            opts,
            m,
            rm,
            fstats,
            flight,
            start_seq,
            live,
            slot_outs,
            merged,
            rob,
            demanded,
            performed,
            ..
        } = self;
        let faults = &opts.faults;
        let env = SlotEnv {
            model,
            faults,
            collect_rows: opts.collect_rows,
            m,
            rm,
            fstats,
            flight,
            start_seq: *start_seq,
        };
        let (mut tuples, mut epoch_demanded, mut epoch_performed) = (0u64, 0u64, 0u64);
        for (mi, mote) in motes.iter_mut().enumerate() {
            if e >= mote.epochs() {
                continue;
            }
            let id = mote.id();
            if !faults.online(id, e) {
                fstats.offline_epochs.incr(1);
                rob.offline_epochs += 1;
                for q in live.iter_mut() {
                    q.tally.missed_epochs += 1;
                }
                continue;
            }
            let mut seen = 0u64;
            merged.clear();
            slot_outs.clear();
            for q in live.iter().filter(|q| q.mote_has[mi]) {
                let row = q.prepared.walk_row(mote.trace(), e);
                let span = row.chain;
                for &a in q.prepared.chain(span.0, span.1) {
                    let bit = 1u64 << a;
                    if seen & bit == 0 {
                        seen |= bit;
                        merged.push(a);
                    }
                }
                slot_outs.push((row.verdict, span));
            }
            let aborted_mask = mote.charge_slot(merged, e, schema, model, faults, fstats);
            let holders = live.iter_mut().filter(|q| q.mote_has[mi]);
            for (q, &(verdict, (start, len))) in holders.zip(slot_outs.iter()) {
                let chain = q.prepared.chain(start, len);
                let query = &schedule[q.idx].query;
                account_slot(&mut q.tally, query, mote, e, verdict, chain, aborted_mask, &env);
                epoch_demanded += u64::from(len);
            }
            for q in live.iter_mut().filter(|q| !q.mote_has[mi]) {
                q.tally.missed_epochs += 1;
            }
            tuples += slot_outs.len() as u64;
            epoch_performed += merged.len() as u64;
        }
        m.tuples.incr(tuples);
        m.demanded.incr(epoch_demanded);
        m.performed.incr(epoch_performed);
        *demanded += epoch_demanded;
        *performed += epoch_performed;
    }

    /// Window-end and deadline terminations, then (when enabled) drift
    /// readmission of the surviving live queries.
    fn terminations(&mut self, e: usize) -> Result<()> {
        // Terminating queries leave `live` in place; the survivors keep
        // their order (the arbitration order) and are not moved.
        let mut invalidated_total = 0u64;
        let mut i = 0;
        while i < self.live.len() {
            let q = &self.live[i];
            let due_window = q.end == e + 1;
            if due_window || q.deadline_at.is_some_and(|d| e + 1 >= d) {
                let q = self.live.remove(i);
                invalidated_total += self.finish(q, e + 1, !due_window);
            } else {
                i += 1;
            }
        }
        if invalidated_total > 0 {
            // Plans staged for queued entries were built against the
            // invalidated statistics; drop them so admission re-plans.
            for p in self.queue.iter_mut() {
                p.plan = None;
            }
            if self.opts.policy.readmit_on_drift && !self.live.is_empty() {
                self.readmit(e)?;
            }
        }
        Ok(())
    }

    /// Finalizes one terminated query: a deadline crossing
    /// (`timed_out`) is [`QueryStatus::TimedOut`], a window end is
    /// `Complete`, or `Partial` when the query lost tuples or results.
    /// Hands the drift counts to the planner, records the outcome row
    /// and returns how many cached plans the completion invalidated.
    fn finish(&mut self, q: LiveQuery, at: usize, timed_out: bool) -> u64 {
        let t = q.tally;
        let status = if timed_out {
            QueryStatus::TimedOut
        } else if t.is_degraded() {
            QueryStatus::Partial
        } else {
            QueryStatus::Complete
        };
        let invalidated = self.planner.query_completed(&self.schedule[q.idx].query, at, &t.pend);
        self.m.invalidations.incr(invalidated);
        let latency = t.first_result.map(|f| (f - q.admit) as u64 + 1);
        if timed_out {
            self.rm.timeouts.incr(1);
            self.rob.timed_out += 1;
            self.rm.degraded_latency.observe((at - q.admit) as u64);
            self.flight.emit(
                at as u64,
                self.start_seq,
                "serve.timeout",
                &[("query", q.idx.into()), ("results", t.results.into())],
            );
        } else {
            self.m.completed.incr(1);
            if let Some(l) = latency {
                self.m.latency.observe(l);
            }
            if status == QueryStatus::Partial {
                self.rm.partial.incr(1);
            }
        }
        self.rob.delivered_results += t.results - t.lost_results;
        self.rob.lost_results += t.lost_results;
        self.rob.aborted_tuples += t.aborted_tuples;
        let lat_field = latency.map(i64::try_from).and_then(std::result::Result::ok).unwrap_or(-1);
        self.flight.emit(
            at as u64,
            self.start_seq,
            "serve.complete",
            &[
                ("query", q.idx.into()),
                ("results", t.results.into()),
                ("latency", lat_field.into()),
                ("invalidated", invalidated.into()),
                ("status", status.label().into()),
            ],
        );
        self.journal(&WalRecord::ServeComplete {
            idx: q.idx as u64,
            epoch: at as u64,
            status: status.to_u8(),
        });
        self.outcomes[q.idx] = QueryOutcome {
            admitted: true,
            admit: q.admit,
            completed_at: at,
            tuples: t.tuples,
            results: t.results,
            all_correct: t.all_correct,
            cache_hit: q.cache_hit,
            subproblems: q.subproblems,
            latency_epochs: latency,
            invalidated,
            status,
            shed_at: None,
            rows: t.rows,
        };
        invalidated
    }

    /// Drift invalidated the plan cache: re-plan every in-flight query
    /// onto the new statistics epoch instead of letting it finish on a
    /// stale plan. The new plans reach the fleet through the next
    /// epoch's re-dissemination pass (belief state is reset here), so
    /// no query is dropped by the invalidation.
    fn readmit(&mut self, e: usize) -> Result<()> {
        for qi in 0..self.live.len() {
            let (idx, sig) = (self.live[qi].idx, self.live[qi].sig);
            let plan = self.plan(idx, e + 1)?;
            self.rm.readmitted.incr(1);
            self.rob.readmissions += 1;
            self.flight.emit(
                (e + 1) as u64,
                self.start_seq,
                "serve.readmit",
                &[
                    ("query", idx.into()),
                    ("cache_hit", plan.cache_hit.into()),
                    ("subproblems", plan.subproblems.into()),
                ],
            );
            self.journal(&WalRecord::ServeAdmit {
                idx: idx as u64,
                epoch: (e + 1) as u64,
                sig,
                cache_hit: plan.cache_hit,
            });
            let prepared = self.prepare(&plan.planned, idx);
            let q = &mut self.live[qi];
            q.planned = plan.planned;
            q.prepared = prepared;
            q.mote_has.fill(false);
            q.unvouch_all();
        }
        Ok(())
    }

    /// Sheds one queued entry at epoch `e`: typed outcome, degraded
    /// latency observation, WAL record.
    fn shed(&mut self, idx: usize, e: usize) {
        self.rm.shed.incr(1);
        self.rob.shed += 1;
        let waited = (e - self.schedule[idx].admit) as u64;
        self.rm.degraded_latency.observe(waited);
        self.flight.emit(
            e as u64,
            self.start_seq,
            "serve.shed",
            &[("query", idx.into()), ("waited", waited.into())],
        );
        self.journal(&WalRecord::ServeComplete {
            idx: idx as u64,
            epoch: e as u64,
            status: QueryStatus::Shed.to_u8(),
        });
        let o = &mut self.outcomes[idx];
        o.status = QueryStatus::Shed;
        o.shed_at = Some(e);
        o.completed_at = e;
    }

    /// Journals the epoch boundary and, on the checkpoint cadence,
    /// snapshots the serve state: the policy's plan cache and stats
    /// epoch plus every live query's progress record.
    fn journal_epoch(&mut self, e: usize) {
        let every = self.cr.cfg.checkpoint_every;
        let state = if self.cr.journal.is_some() && every != 0 && (e + 1).is_multiple_of(every) {
            Some(self.planner.policy_state())
        } else {
            None
        };
        let stats_epoch_now = self.planner.stats_epoch();
        let Some(journal) = self.cr.journal.as_mut() else { return };
        journal.append(&WalRecord::EpochEnd { epoch: e as u64 });
        let Some(state) = state else { return };
        let (stats_epoch, plans) = match state {
            Some(st) => (
                st.stats_epoch,
                st.plans
                    .into_iter()
                    .map(|(query, key_epoch, planned)| ServePlanEntry {
                        query,
                        key_epoch,
                        plan: PlanRecord {
                            version: key_epoch,
                            wire: planned.wire,
                            expected_cost: planned.expected_cost,
                            objective: planned.objective,
                        },
                    })
                    .collect(),
            ),
            None => (stats_epoch_now, Vec::new()),
        };
        let live: Vec<ServeLiveRecord> = self
            .live
            .iter()
            .map(|q| ServeLiveRecord {
                idx: q.idx as u64,
                admit: q.admit as u64,
                end: q.end as u64,
                pend: q.tally.pend.clone(),
            })
            .collect();
        let cp = ServeCheckpoint {
            epoch: e as u64,
            last_seq: journal.folded_seq(),
            stats_epoch,
            plans,
            live,
        };
        let last_seq = cp.last_seq;
        if journal.write_serve_snapshot(&cp) {
            self.cr.checkpoints_written += 1;
            self.cr.counters.checkpoints.incr(1);
            self.flight.emit(
                e as u64,
                self.start_seq,
                "recovery.checkpoint",
                &[("last_seq", last_seq.into()), ("stats_epoch", stats_epoch.into())],
            );
        }
    }

    /// Final gauges, ledgers and the assembled [`ServiceReport`].
    fn report(mut self) -> ServiceReport {
        self.rob.crashes = self.cr.crashes;
        self.rob.cold_starts = self.cr.cold_starts;
        self.rob.corrupt_snapshots = self.cr.corrupt_snapshots;
        self.rob.wal_replayed = self.cr.wal_replayed;
        self.rob.checkpoints_written = self.cr.checkpoints_written;
        self.rob.recovery_rediss_uj = self.cr.recovery_rediss_uj;
        self.rec.gauge("serve.stats_epoch", self.planner.stats_epoch() as f64);
        let per_mote: Vec<EnergyLedger> = self.motes.iter().map(|mt| *mt.ledger()).collect();
        if self.rec.enabled() {
            for (mt, l) in self.motes.iter().zip(&per_mote) {
                let id = mt.id();
                self.rec.gauge(&format!("sensornet.mote{id}.sensing_uj"), l.sensing_uj);
                self.rec
                    .gauge(&format!("sensornet.mote{id}.radio_uj"), l.radio_tx_uj + l.radio_rx_uj);
                self.rec.gauge(&format!("sensornet.mote{id}.total_uj"), l.total_uj());
            }
        }
        let mut network = EnergyLedger::default();
        for l in &per_mote {
            network.absorb(l);
        }
        let report = ServiceReport {
            epochs: self.epochs,
            queries: self.outcomes,
            network,
            per_mote,
            bs_tx_uj: self.bs_tx_uj,
            performed_acquisitions: self.performed,
            demanded_acquisitions: self.demanded,
            robustness: Some(self.rob),
        };
        self.flight.emit(
            self.epochs as u64,
            self.start_seq,
            "serve.end",
            &[
                ("results", report.results().into()),
                ("all_correct", report.all_correct().into()),
                ("performed", report.performed_acquisitions.into()),
                ("demanded", report.demanded_acquisitions.into()),
            ],
        );
        report
    }
}

/// Per-query slot accounting shared by both exec modes: tuple and
/// result tallies, sensing-abort discards, drift observations over the
/// query's own acquisition chain, ground-truth verification and the
/// result uplink through the retry loop. At a lossless fault model the
/// uplink is one delivered attempt, the same `f64` charge as a plain
/// transmit. The caller adds the slot's `serve.tuples` and
/// `serve.acquisitions.demanded` counts once per epoch.
#[allow(clippy::too_many_arguments)]
fn account_slot(
    t: &mut Tally,
    query: &Query,
    mote: &mut Mote,
    e: usize,
    verdict: bool,
    chain: &[AttrId],
    aborted_mask: u64,
    env: &SlotEnv<'_>,
) {
    t.tuples += 1;
    if aborted_mask != 0 {
        let mask = chain.iter().fold(0u64, |acc, &a| acc | (1u64 << (a as u32).min(63)));
        if mask & aborted_mask != 0 {
            // A sensor this tuple's own chain touched could not be read
            // within the attempt cap: discard the tuple. Queries that
            // never demanded the failed sensor keep their epoch.
            t.aborted_tuples += 1;
            env.rm.aborted.incr(1);
            return;
        }
    }
    // Per-query drift observations use the query's own acquisition
    // chain — identical to what an independent run would observe.
    for &a in chain {
        if let Some(j) = t.pred_of[a] {
            t.pend[j].0 += 1;
            t.pend[j].1 += u64::from(query.pred(j).eval(mote.peek(e, a)));
        }
    }
    let truth = query.eval_with(|a| mote.peek(e, a));
    t.all_correct &= verdict == truth;
    if verdict {
        t.results += 1;
        env.m.results.incr(1);
        t.first_result.get_or_insert(e);
        let d = attempt_packet(env.faults, FaultStream::Result, mote.id(), e, env.fstats);
        emit_retry(env.flight, env.start_seq, e, "result", mote.id(), &d);
        mote.transmit(d.attempts as usize * t.uplink_bytes, env.model);
        env.m.radio.incr(d.attempts as u64);
        if !d.delivered {
            t.lost_results += 1;
            env.rm.lost_results.incr(1);
        } else if env.collect_rows {
            t.rows.push((e, mote.id()));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::basestation::Basestation;
    use crate::interp::execute_wire;
    use crate::sim::{fleet_from_trace, run_simulation, SimOptions};
    use acqp_core::{Attribute, Dataset, Pred, BATCH_ROWS};

    /// A minimal cache-free policy for engine tests: plans every
    /// admission from scratch via the reported sweep.
    struct PlainPlanner<'h> {
        bs: Basestation<'h>,
        alpha: f64,
    }

    impl ServePlanner for PlainPlanner<'_> {
        fn plan_admitted(&mut self, query: &Query, _epoch: usize) -> Result<AdmittedPlan> {
            let (_, planned, subproblems) =
                self.bs.plan_query_sized_reported(query, self.alpha, &[0, 1, 2, 4])?;
            Ok(AdmittedPlan { planned, cache_hit: false, subproblems })
        }

        fn query_completed(&mut self, _: &Query, _: usize, _: &[(u64, u64)]) -> u64 {
            0
        }

        fn stats_epoch(&self) -> u64 {
            0
        }
    }

    /// A [`PlainPlanner`] on which every completion invalidates one
    /// cached plan, so `readmit_on_drift` re-plans the survivors.
    struct DriftingPlanner<'h>(PlainPlanner<'h>);

    impl ServePlanner for DriftingPlanner<'_> {
        fn plan_admitted(&mut self, query: &Query, epoch: usize) -> Result<AdmittedPlan> {
            self.0.plan_admitted(query, epoch)
        }

        fn query_completed(&mut self, _: &Query, _: usize, _: &[(u64, u64)]) -> u64 {
            1
        }

        fn stats_epoch(&self) -> u64 {
            0
        }
    }

    fn setup() -> (Schema, Dataset, Query) {
        let schema = Schema::new(vec![
            Attribute::new("a", 2, 100.0),
            Attribute::new("b", 2, 100.0),
            Attribute::new("t", 2, 1.0),
        ])
        .unwrap();
        let data = Dataset::from_rows(&schema, rows(240)).unwrap();
        let query = Query::new(vec![Pred::in_range(0, 1, 1), Pred::in_range(1, 1, 1)]).unwrap();
        (schema, data, query)
    }

    fn rows(n: usize) -> Vec<Vec<u16>> {
        (0..n)
            .map(|i| {
                let t = (i % 2) as u16;
                let a = if i % 10 == 0 { 1 - t } else { t };
                let b = if i % 12 == 0 { t } else { 1 - t };
                vec![a, b, t]
            })
            .collect()
    }

    /// Serves `schedule` for `epochs` epochs on a fresh `motes`-mote
    /// fleet with a fresh [`PlainPlanner`] and a disabled recorder.
    fn serve(
        schema: &Schema,
        data: &Dataset,
        schedule: &[ScheduleEntry],
        motes: u16,
        epochs: usize,
        mode: ExecMode,
        opts: &ServiceOptions,
    ) -> ServiceReport {
        let mut planner = PlainPlanner { bs: Basestation::new(schema.clone(), data), alpha: 0.01 };
        let mut fleet = fleet_from_trace(data, motes);
        let model = EnergyModel::mica_like();
        let rec = Recorder::disabled();
        run_service_with(
            schema,
            schedule,
            &mut planner,
            &mut fleet,
            &model,
            epochs,
            mode,
            &rec,
            opts,
        )
        .unwrap()
    }

    #[test]
    fn single_query_service_matches_engine_bitwise() {
        let (schema, data, query) = setup();
        let bs = Basestation::new(schema.clone(), &data);
        let model = EnergyModel::mica_like();
        let epochs = 64usize;
        // Reference: the single-query engine.
        let planned = bs.plan_query_sized(&query, 0.01, &[0, 1, 2, 4]).unwrap().1;
        let mut ref_fleet = fleet_from_trace(&data, 3);
        let sim = run_simulation(
            &bs,
            &query,
            &planned,
            &mut ref_fleet,
            &model,
            epochs,
            &Recorder::disabled(),
            &SimOptions::default(),
        )
        .unwrap()
        .fault
        .sim;

        // The service with one scheduled query covering the run.
        let schedule = [ScheduleEntry::new(query.clone(), 0, epochs)];
        let opts = ServiceOptions::default();
        let rep = serve(&schema, &data, &schedule, 3, epochs, ExecMode::Scalar, &opts);

        assert_eq!(rep.tuples(), sim.tuples);
        assert_eq!(rep.results(), sim.results);
        assert!(rep.all_correct() && sim.all_correct);
        assert_eq!(rep.per_mote.len(), sim.per_mote.len());
        for (a, b) in rep.per_mote.iter().zip(&sim.per_mote) {
            assert_eq!(a.sensing_uj.to_bits(), b.sensing_uj.to_bits());
            assert_eq!(a.board_uj.to_bits(), b.board_uj.to_bits());
            assert_eq!(a.radio_tx_uj.to_bits(), b.radio_tx_uj.to_bits());
            assert_eq!(a.radio_rx_uj.to_bits(), b.radio_rx_uj.to_bits());
        }
        assert_eq!(rep.network.total_uj().to_bits(), sim.network.total_uj().to_bits());
        // With one query nothing can be shared.
        assert_eq!(rep.performed_acquisitions, rep.demanded_acquisitions);
    }

    #[test]
    fn overlapping_queries_share_acquisitions() {
        let (schema, data, query) = setup();
        let q2 = Query::new(vec![Pred::in_range(0, 1, 1), Pred::in_range(2, 0, 0)]).unwrap();
        let model = EnergyModel::mica_like();
        let epochs = 48usize;
        let schedule = [
            ScheduleEntry::new(query.clone(), 0, epochs),
            ScheduleEntry::new(q2.clone(), 0, epochs),
        ];

        let opts = ServiceOptions::default();
        let shared = serve(&schema, &data, &schedule, 2, epochs, ExecMode::Scalar, &opts);
        assert!(shared.performed_acquisitions < shared.demanded_acquisitions);

        // N-independent-runs baseline: each query on its own fleet.
        let mut independent = 0.0;
        for entry in &schedule {
            let bs = Basestation::new(schema.clone(), &data);
            let planned = bs.plan_query_sized(&entry.query, 0.01, &[0, 1, 2, 4]).unwrap().1;
            let mut f = fleet_from_trace(&data, 2);
            let sim = run_simulation(
                &bs,
                &entry.query,
                &planned,
                &mut f,
                &model,
                epochs,
                &Recorder::disabled(),
                &SimOptions::default(),
            )
            .unwrap()
            .fault
            .sim;
            independent += sim.network.total_uj();
        }
        assert!(
            shared.network.total_uj() < independent,
            "shared {} !< independent {independent}",
            shared.network.total_uj()
        );
        // Both queries ran to completion with correct verdicts.
        assert!(shared.all_correct());
        assert_eq!(shared.queries.len(), 2);
        assert!(shared.queries.iter().all(|q| q.admitted && q.tuples == 2 * epochs));
    }

    #[test]
    fn service_runs_are_exact_across_windows_and_faults() {
        let (schema, data, query) = setup();
        let q2 = Query::new(vec![Pred::in_range(1, 1, 1), Pred::in_range(2, 1, 1)]).unwrap();
        let q3 = Query::new(vec![Pred::in_range(0, 0, 0), Pred::in_range(2, 1, 1)]).unwrap();
        // Each input runs once; its report must be exact and its
        // ledgers and counters consistent. Input 1: two queries inside
        // one short window. Input 2: more than two batch windows' worth of
        // epochs, admissions at unaligned epochs, mote 2's trace ending
        // mid-run, and q2's completion at 1377 re-admitting the other
        // two queries (every completion invalidates). Input 3: every
        // fault at once — lossy radio (lossier on mote 2's link), sensing
        // failures, a dropout window and a scheduled crash recovered
        // from checkpoints.
        let long = Dataset::from_rows(&schema, rows(2 * BATCH_ROWS + 400)).unwrap();
        let short = Dataset::from_rows(&schema, rows(BATCH_ROWS + 100)).unwrap();
        let faulty = FaultModel::lossy(11, 0.1)
            .with_sensing_failures(0.05)
            .with_max_attempts(2)
            .with_link_loss(2, 0.5)
            .with_dropout(1, 20, 35);
        let inputs = [
            (
                vec![&data; 2],
                40,
                vec![
                    ScheduleEntry::new(query.clone(), 0, 30),
                    ScheduleEntry::new(q2.clone(), 8, 40),
                ],
                false,
                None,
            ),
            (
                vec![&long, &long, &short],
                long.len(),
                vec![
                    ScheduleEntry::new(query.clone(), 5, long.len()),
                    ScheduleEntry::new(q2.clone(), 777, 600),
                    ScheduleEntry::new(q3.clone(), 1100, long.len()),
                ],
                true,
                None,
            ),
            (
                vec![&data; 3],
                data.len(),
                vec![
                    ScheduleEntry::new(query, 0, 200),
                    ScheduleEntry::new(q2, 8, 160),
                    ScheduleEntry::new(q3, 30, 120),
                ],
                false,
                Some(faulty),
            ),
        ];
        for (traces, epochs, schedule, readmit_on_drift, faults) in inputs {
            let (s, counters, gauges) = {
                let mut planner = DriftingPlanner(PlainPlanner {
                    bs: Basestation::new(schema.clone(), &data),
                    alpha: 0.01,
                });
                let mut fleet: Vec<Mote> = traces
                    .iter()
                    .enumerate()
                    .map(|(i, t)| Mote::new(i as u16, (*t).clone()))
                    .collect();
                let rec = Recorder::new(std::sync::Arc::new(acqp_obs::NoopSink));
                let crash = match faults {
                    Some(_) => {
                        let dir = std::env::temp_dir()
                            .join(format!("acqp_serve_exact_{}", std::process::id()));
                        std::fs::remove_dir_all(&dir).ok();
                        CrashConfig {
                            checkpoint_dir: Some(dir),
                            checkpoint_every: 10,
                            crash_epochs: vec![50],
                            crash_rate: 0.0,
                        }
                    }
                    None => CrashConfig::default(),
                };
                let opts = ServiceOptions {
                    faults: faults.clone().unwrap_or_default(),
                    crash,
                    policy: ServicePolicy { readmit_on_drift, ..ServicePolicy::default() },
                    ..ServiceOptions::default()
                };
                let rep = run_service_with(
                    &schema,
                    &schedule,
                    &mut planner,
                    &mut fleet,
                    &EnergyModel::mica_like(),
                    epochs,
                    ExecMode::Scalar,
                    &rec,
                    &opts,
                )
                .unwrap();
                if let Some(dir) = &opts.crash.checkpoint_dir {
                    std::fs::remove_dir_all(dir).ok();
                }
                let snap = rec.drain();
                (rep, snap.counters, snap.values)
            };
            assert!(s.all_correct() && s.results() > 0);
            let rob = s.robustness.as_ref().expect("every run reports robustness");
            assert_eq!(rob.readmissions, if readmit_on_drift { 2 } else { 0 });
            if faults.is_some() {
                assert_eq!(rob.crashes, 1);
                assert!(rob.checkpoints_written > 0);
                assert!(
                    rob.lost_results > 0 && rob.aborted_tuples > 0 && rob.offline_epochs > 0,
                    "{rob:?}"
                );
                assert!(s.queries.iter().any(|q| q.status == QueryStatus::Partial));
            }
            // Merging never performs more reads than were demanded, and
            // the recorder counted exactly what the report says.
            assert!(s.performed_acquisitions <= s.demanded_acquisitions);
            assert_eq!(counters["serve.acquisitions.performed"], s.performed_acquisitions);
            assert_eq!(counters["serve.acquisitions.demanded"], s.demanded_acquisitions);
            assert_eq!(counters["serve.results"], s.results() as u64);
            assert!(s.bs_tx_uj > 0.0);
            let mut network = EnergyLedger::default();
            for (i, l) in s.per_mote.iter().enumerate() {
                assert_eq!(
                    gauges[&format!("sensornet.mote{i}.sensing_uj")].to_bits(),
                    l.sensing_uj.to_bits()
                );
                network.absorb(l);
            }
            assert_eq!(format!("{:?}", s.network), format!("{network:?}"));
        }
    }

    /// A policy whose plan tree does not encode to the wire it hands
    /// over is refused at admission: the verifier
    /// certifies the wire, so the tree the engine would execute must be
    /// that wire's tree.
    #[test]
    fn admission_rejects_a_tree_that_is_not_the_certified_wire() {
        struct Mismatched<'h>(PlainPlanner<'h>);

        impl ServePlanner for Mismatched<'_> {
            fn plan_admitted(&mut self, query: &Query, epoch: usize) -> Result<AdmittedPlan> {
                let mut plan = self.0.plan_admitted(query, epoch)?;
                plan.planned.plan = Plan::pass();
                Ok(plan)
            }

            fn query_completed(&mut self, _: &Query, _: usize, _: &[(u64, u64)]) -> u64 {
                0
            }

            fn stats_epoch(&self) -> u64 {
                0
            }
        }

        let (schema, data, query) = setup();
        let schedule = [ScheduleEntry::new(query, 0, 16)];
        let mut planner =
            Mismatched(PlainPlanner { bs: Basestation::new(schema.clone(), &data), alpha: 0.01 });
        let mut fleet = fleet_from_trace(&data, 2);
        let rec = Recorder::new(std::sync::Arc::new(acqp_obs::NoopSink));
        let err = run_service_with(
            &schema,
            &schedule,
            &mut planner,
            &mut fleet,
            &EnergyModel::mica_like(),
            16,
            ExecMode::Scalar,
            &rec,
            &ServiceOptions::default(),
        )
        .expect_err("a tree that is not the certified wire must not run");
        assert!(matches!(err, Error::BadWireFormat { .. }), "{err:?}");
        assert_eq!(rec.drain().counter("verify.rejected"), 1);
        assert!(fleet.iter().all(|m| m.ledger().total_uj() == 0.0), "nothing ran");
    }

    /// The serve engine's one-row walk of a prepared plan yields
    /// exactly the checked wire interpreter's verdict, cost bits and
    /// chain on every live mote-epoch, on a full and a short trace.
    #[test]
    fn row_walk_matches_the_interpreter() {
        let (schema, data, query) = setup();
        let planned = Basestation::new(schema.clone(), &data)
            .plan_query_sized(&query, 0.01, &[0, 1, 2, 4])
            .unwrap()
            .1;
        let long = Dataset::from_rows(&schema, rows(3 * BATCH_ROWS)).unwrap();
        let short = Dataset::from_rows(&schema, rows(BATCH_ROWS + 100)).unwrap();
        let motes = [Mote::new(0, long), Mote::new(1, short)];
        let prepared = PreparedPlan::new(&planned.plan, &query, &schema, &CostModel::PerAttribute);
        let mut st = acqp_core::TupleState::new(schema.len());
        for mote in &motes {
            for e in 0..mote.epochs() {
                let mut src = acqp_core::RowSource::new(mote.trace(), e);
                let verdict =
                    execute_wire(&planned.wire, &query, &schema, &mut st, &mut src).unwrap();
                let at = format!("mote {} epoch {e}", mote.id());
                let row = prepared.walk_row(mote.trace(), e);
                assert_eq!(row.verdict, verdict, "{at}");
                assert_eq!(row.cost.to_bits(), st.cost().to_bits(), "{at}");
                assert_eq!(prepared.chain(row.chain.0, row.chain.1), st.acquired(), "{at}");
            }
        }
    }

    #[test]
    fn schedule_edges_are_handled() {
        let (schema, data, query) = setup();
        let model = EnergyModel::mica_like();
        let schedule = [
            // Zero window is clamped to one epoch.
            ScheduleEntry::new(query.clone(), 2, 0),
            // Admission beyond the run: never admitted.
            ScheduleEntry::new(query.clone(), 100, 5),
        ];
        let mut planner = PlainPlanner { bs: Basestation::new(schema.clone(), &data), alpha: 0.0 };
        let mut fleet = fleet_from_trace(&data, 2);
        let rep = run_service_with(
            &schema,
            &schedule,
            &mut planner,
            &mut fleet,
            &model,
            10,
            ExecMode::Scalar,
            &Recorder::disabled(),
            &ServiceOptions::default(),
        )
        .unwrap();
        assert!(rep.queries[0].admitted);
        assert_eq!(rep.queries[0].tuples, 2);
        assert_eq!(rep.queries[0].completed_at, 3);
        assert!(!rep.queries[1].admitted);
        assert_eq!(rep.queries[1].tuples, 0);

        // A zero-epoch run admits nothing and spends nothing.
        let mut fleet = fleet_from_trace(&data, 2);
        let rep = run_service_with(
            &schema,
            &schedule,
            &mut planner,
            &mut fleet,
            &model,
            0,
            ExecMode::Scalar,
            &Recorder::disabled(),
            &ServiceOptions::default(),
        )
        .unwrap();
        assert!(rep.queries.iter().all(|q| !q.admitted));
        assert_eq!(rep.network.total_uj(), 0.0);
    }

    /// Entries sharing an admission epoch but listed out of order
    /// among other epochs' entries reach the policy in schedule order,
    /// epoch by epoch.
    #[test]
    fn same_epoch_arrivals_are_admitted_in_schedule_order() {
        /// A [`PlainPlanner`] that logs every admission it plans.
        struct Logged<'h>(PlainPlanner<'h>, Vec<(u64, usize)>);

        impl ServePlanner for Logged<'_> {
            fn plan_admitted(&mut self, query: &Query, epoch: usize) -> Result<AdmittedPlan> {
                self.1.push((query.signature(), epoch));
                self.0.plan_admitted(query, epoch)
            }

            fn query_completed(&mut self, _: &Query, _: usize, _: &[(u64, u64)]) -> u64 {
                0
            }

            fn stats_epoch(&self) -> u64 {
                0
            }
        }

        let (schema, data, query) = setup();
        let queries = [
            query,
            Query::new(vec![Pred::in_range(0, 1, 1)]).unwrap(),
            Query::new(vec![Pred::in_range(1, 1, 1)]).unwrap(),
            Query::new(vec![Pred::in_range(2, 0, 0)]).unwrap(),
            Query::new(vec![Pred::in_range(0, 0, 0)]).unwrap(),
        ];
        let mut sigs: Vec<u64> = queries.iter().map(Query::signature).collect();
        sigs.sort_unstable();
        sigs.dedup();
        assert_eq!(sigs.len(), queries.len(), "the log tells the entries apart by signature");
        let admits = [5, 2, 5, 2, 5];
        let schedule: Vec<ScheduleEntry> = queries
            .iter()
            .zip(admits)
            .map(|(q, admit)| ScheduleEntry::new(q.clone(), admit, 3))
            .collect();
        let mut planner = Logged(
            PlainPlanner { bs: Basestation::new(schema.clone(), &data), alpha: 0.0 },
            vec![],
        );
        let mut fleet = fleet_from_trace(&data, 2);
        let rep = run_service_with(
            &schema,
            &schedule,
            &mut planner,
            &mut fleet,
            &EnergyModel::mica_like(),
            10,
            ExecMode::Scalar,
            &Recorder::disabled(),
            &ServiceOptions::default(),
        )
        .unwrap();
        assert!(rep.queries.iter().all(|q| q.admitted));
        let expected: Vec<(u64, usize)> =
            [1, 3, 0, 2, 4].iter().map(|&i| (queries[i].signature(), admits[i])).collect();
        assert_eq!(planner.1, expected);
    }

    /// A zero-rate fault model with its own seed, plus `collect_rows`,
    /// leaves every count and every ledger of a default run bitwise
    /// unchanged, in both exec modes; the rows it collects are exactly
    /// the results.
    #[test]
    fn robust_path_at_loss_zero_is_bitwise_transparent() {
        let (schema, data, query) = setup();
        let q2 = Query::new(vec![Pred::in_range(0, 1, 1), Pred::in_range(2, 0, 0)]).unwrap();
        let epochs = 32usize;
        let schedule =
            [ScheduleEntry::new(query.clone(), 0, epochs), ScheduleEntry::new(q2.clone(), 4, 20)];
        let opts = ServiceOptions {
            faults: FaultModel { seed: 99, ..FaultModel::none() },
            collect_rows: true,
            ..ServiceOptions::default()
        };
        for mode in [ExecMode::Scalar, ExecMode::Vectorized] {
            let lossless =
                serve(&schema, &data, &schedule, 3, epochs, mode, &ServiceOptions::default());
            let robust = serve(&schema, &data, &schedule, 3, epochs, mode, &opts);
            let rob = robust.robustness.as_ref().expect("every run reports robustness");
            assert_eq!(rob.shed, 0);
            assert_eq!(rob.lost_results, 0);
            assert_eq!(rob.aborted_tuples, 0);

            assert_eq!(robust.bs_tx_uj.to_bits(), lossless.bs_tx_uj.to_bits());
            assert_eq!(robust.performed_acquisitions, lossless.performed_acquisitions);
            assert_eq!(robust.demanded_acquisitions, lossless.demanded_acquisitions);
            for (a, b) in robust.per_mote.iter().zip(&lossless.per_mote) {
                assert_eq!(a.sensing_uj.to_bits(), b.sensing_uj.to_bits());
                assert_eq!(a.board_uj.to_bits(), b.board_uj.to_bits());
                assert_eq!(a.radio_tx_uj.to_bits(), b.radio_tx_uj.to_bits());
                assert_eq!(a.radio_rx_uj.to_bits(), b.radio_rx_uj.to_bits());
            }
            for (a, b) in robust.queries.iter().zip(&lossless.queries) {
                assert_eq!(a.tuples, b.tuples);
                assert_eq!(a.results, b.results);
                assert_eq!(a.latency_epochs, b.latency_epochs);
                assert_eq!(a.completed_at, b.completed_at);
                assert_eq!(a.status, QueryStatus::Complete);
                assert_eq!(a.rows.len(), a.results, "every lossless result is a delivered row");
            }
        }
    }

    /// A default run registers the fault and degradation instruments
    /// like any other run and leaves them at zero: nothing is lost,
    /// timed out, degraded or shed, and every result took exactly one
    /// uplink attempt.
    #[test]
    fn default_run_reads_zero_fault_and_degradation_counters() {
        let (schema, data, query) = setup();
        let q2 = Query::new(vec![Pred::in_range(0, 1, 1), Pred::in_range(2, 0, 0)]).unwrap();
        let schedule = [ScheduleEntry::new(query, 0, 24), ScheduleEntry::new(q2, 4, 20)];
        let rec = Recorder::new(std::sync::Arc::new(acqp_obs::NoopSink));
        let mut planner = PlainPlanner { bs: Basestation::new(schema.clone(), &data), alpha: 0.01 };
        let mut fleet = fleet_from_trace(&data, 3);
        let rep = run_service_with(
            &schema,
            &schedule,
            &mut planner,
            &mut fleet,
            &EnergyModel::mica_like(),
            32,
            ExecMode::Scalar,
            &rec,
            &ServiceOptions::default(),
        )
        .unwrap();
        let snap = rec.drain();
        let zero = |name: &str| {
            assert!(snap.counters.contains_key(name), "{name} is not registered");
            assert_eq!(snap.counter(name), 0, "{name}");
        };
        for stream in ["diss", "result", "sample"] {
            zero(&format!("serve.fault.{stream}.lost"));
            zero(&format!("serve.fault.{stream}.timeouts"));
        }
        for what in ["partial", "timeouts", "lost_results", "aborted_tuples"] {
            zero(&format!("serve.degraded.{what}"));
        }
        zero("serve.shed.queries");
        assert!(rep.results() > 0);
        assert_eq!(snap.counter("serve.results"), rep.results() as u64);
        assert_eq!(snap.counter("serve.fault.result.attempts"), snap.counter("serve.results"));
        assert_eq!(rep.robustness.as_ref().map(|r| r.delivered_results), Some(rep.results()));
    }

    #[test]
    fn budget_admission_is_fair_and_sheds_expired_entries() {
        let (schema, data, query) = setup();
        let q2 = Query::new(vec![Pred::in_range(0, 1, 1), Pred::in_range(2, 0, 0)]).unwrap();
        let bs = Basestation::new(schema.clone(), &data);
        let ca = bs.plan_query_sized(&query, 0.01, &[0, 1, 2, 4]).unwrap().1.expected_cost;
        let cb = bs.plan_query_sized(&q2, 0.01, &[0, 1, 2, 4]).unwrap().1.expected_cost;
        // Room for either query alone but never for two at once: the
        // service serializes, one admission per window.
        let budget = ca.max(cb) + 0.5 * ca.min(cb);
        assert!(budget < ca + cb);
        let schedule = [
            ScheduleEntry::new(query.clone(), 0, 2),
            ScheduleEntry::new(query.clone(), 0, 2),
            ScheduleEntry::new(q2.clone(), 0, 2),
            ScheduleEntry::new(query.clone(), 0, 2).with_deadline(2),
        ];
        let opts = ServiceOptions {
            policy: ServicePolicy {
                epoch_cost_budget: Some(budget),
                max_queue_epochs: 8,
                fair_share: 1,
                readmit_on_drift: false,
            },
            ..ServiceOptions::default()
        };
        let rep = serve(&schema, &data, &schedule, 2, 8, ExecMode::Scalar, &opts);
        let rob = rep.robustness.as_ref().unwrap();

        // First instance runs immediately; the duplicate yields to the
        // different signature... but strict FIFO budget order still
        // runs the duplicate before q2 once capacity frees up.
        assert_eq!(rep.queries[0].admit, 0);
        assert_eq!(rep.queries[0].status, QueryStatus::Complete);
        assert_eq!(rep.queries[1].admit, 2);
        assert_eq!(rep.queries[1].status, QueryStatus::Complete);
        // The lone q2 is not starved by the hot signature.
        assert!(rep.queries[2].admitted);
        assert_eq!(rep.queries[2].status, QueryStatus::Complete);
        // The deadlined duplicate expires in the queue and is shed.
        assert_eq!(rep.queries[3].status, QueryStatus::Shed);
        assert_eq!(rep.queries[3].shed_at, Some(2));
        assert!(!rep.queries[3].admitted);

        assert_eq!(rob.shed, 1);
        assert!(rob.fairness_deferrals >= 2, "fairness deferrals: {}", rob.fairness_deferrals);
        assert!(rob.budget_deferrals >= 2, "budget deferrals: {}", rob.budget_deferrals);
        assert_eq!(rep.count_status(QueryStatus::Complete), 3);
    }

    #[test]
    fn deadline_crossing_degrades_to_partial_prefix() {
        let (schema, data, _) = setup();
        // A predicate on `t` alone: passes on every odd epoch, so both
        // runs deliver rows from the start.
        let query = Query::new(vec![Pred::in_range(2, 1, 1)]).unwrap();
        let epochs = 10usize;
        let opts = ServiceOptions { collect_rows: true, ..ServiceOptions::default() };
        let run = |schedule: &[ScheduleEntry]| {
            serve(&schema, &data, schedule, 2, epochs, ExecMode::Scalar, &opts)
        };
        let full = run(&[ScheduleEntry::new(query.clone(), 0, epochs)]);
        let timed = run(&[ScheduleEntry::new(query.clone(), 0, epochs).with_deadline(3)]);

        let f = &full.queries[0];
        let t = &timed.queries[0];
        assert_eq!(f.status, QueryStatus::Complete);
        assert_eq!(t.status, QueryStatus::TimedOut);
        assert_eq!(t.completed_at, 3);
        assert_eq!(timed.robustness.as_ref().unwrap().timed_out, 1);
        // Graceful degradation: the timed-out query's delivered rows
        // are exactly the prefix of the unconstrained run's rows.
        assert!(t.rows.len() < f.rows.len());
        assert_eq!(t.rows[..], f.rows[..t.rows.len()]);
        assert!(t.rows.iter().all(|&(e, _)| e < 3));
    }
}
