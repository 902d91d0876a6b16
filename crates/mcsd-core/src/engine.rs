//! The unified offload scheduling engine.
//!
//! One decision engine owns the full per-call state machine the paper's
//! framework describes — profile → [`OffloadDecision`] via memory-budget
//! admission ([`plan_admission`]) + per-SD [`CircuitBreaker`]s +
//! heartbeat-load steering → dispatch → bounded retry/re-dispatch → host
//! fallback → stats/trace/decision-log recording — and both front-ends
//! are thin shells over it: [`crate::framework::McsdFramework`] drives
//! [`Engine::run_calls`] (typed calls against the live SD node) and
//! [`crate::multisd::MultiSdRunner`] drives [`Engine::run_span`] (one
//! input span against a pool of modelled SD nodes). A single-SD
//! `MultiSdRunner` and a `McsdFramework` therefore make *identical*
//! decisions — the engine-parity test asserts exactly that.
//!
//! For rack scale the engine additionally grows [`ShardQueue`]: the
//! per-shard run queue (shard = one SD or host node, serial within a
//! shard, no locks shared across shards) that the discrete-event loop in
//! [`crate::des`] schedules thousands of concurrent jobs through
//! (DESIGN.md §17).
//!
//! The engine is also the sole owner of the scheduler-side overload
//! counters ([`OverloadStats`]: steered spans, re-partitions, breaker
//! opens and probes); the daemon keeps owning sheds, expiries and
//! replay/quarantine/skip accounting, merged at read time by
//! [`Engine::resilience_report`]. DESIGN.md §13 has the state-machine
//! diagram and the counter-ownership table; tidy rule MCSD007 keeps the
//! policy primitives from re-leaking into the front-ends.

use crate::admission::plan_admission;
use crate::breaker::{Admission, BreakerConfig, BreakerState, CircuitBreaker};
use crate::error::McsdError;
use crate::offload::{JobProfile, OffloadDecision, Offloader};
use mcsd_cluster::TimeBreakdown;
use mcsd_obs::names::{
    EVENT_MCSD_BREAKER_OPEN, EVENT_MCSD_BREAKER_PROBE, EVENT_MCSD_FALLBACK, EVENT_MCSD_OFFLOAD,
    EVENT_MCSD_REPARTITION, EVENT_MCSD_STEER, SPAN_MCSD_CALL,
};
use mcsd_obs::{ClockDomain, SpanId, Tracer, TrackId};
use mcsd_phoenix::MemoryModel;
use mcsd_smartfam::{BatchStats, DaemonStats, OverloadStats, ResilienceStats};
use parking_lot::Mutex;
use std::time::Duration;

/// Logical-clock quantum ticked per scheduling decision (see
/// [`crate::breaker`]: the breakers run on decision counts, not wall
/// time, so seeded runs replay their open/probe/close transitions
/// exactly).
const BREAKER_QUANTUM: Duration = Duration::from_millis(1);

/// Trace track carrying the engine's placement decisions (`mcsd.*`
/// events and [`SPAN_MCSD_CALL`] spans; DESIGN.md §12).
pub const MCSD_TRACE_TRACK: &str = "mcsd";

/// Trace track carrying analytic data-movement spans (stage/fetch spans,
/// widths in virtual µs of network+disk time).
pub const CLUSTER_TRACE_TRACK: &str = "cluster";

/// Scheduling knobs the engine needs from its front-end's configuration.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Circuit-breaker tuning applied to every SD slot.
    pub breaker: BreakerConfig,
    /// Degrade to host execution when the SD path fails for good; when
    /// `false`, SD errors surface to the caller.
    pub fallback_to_host: bool,
    /// Steer offloads to the host when the daemon heartbeat reports at
    /// least this many queued requests.
    pub steer_queue_depth: u64,
    /// Floor for memory-budget admission re-partitioning.
    pub min_fragment_bytes: u64,
    /// Deterministic tracer for the engine's decision events.
    pub tracer: Tracer,
}

/// Memory-budget admission request for one SD offload.
#[derive(Debug, Clone)]
pub struct MemoryAdmission {
    /// Memory model of the target SD node.
    pub model: MemoryModel,
    /// Caller-supplied partition parameter, honoured verbatim when
    /// present (no planning happens).
    pub caller_partition: Option<String>,
    /// Bytes of input the job reads.
    pub input_bytes: u64,
    /// Working-set-to-input ratio of the job.
    pub footprint_factor: f64,
}

/// The host-side outcome of one SD dispatch: payload + virtual cost (or
/// the terminal error), alongside the recovery counters its attempts
/// accumulated.
pub type SdDispatch = (Result<(Vec<u8>, TimeBreakdown), McsdError>, ResilienceStats);

/// Job-specific hooks [`Engine::run_calls`] drives. A front-end implements
/// one spec per typed call (Word Count, String Match, MM…); the engine
/// owns the placement pipeline around the hooks.
pub trait OffloadCall {
    /// Final output type of the call.
    type Output;

    /// Job (and module) name used in decision logs, trace events, and
    /// degradation strings.
    fn job(&self) -> &'static str;

    /// Placement profile the offload policy decides on.
    fn profile(&self) -> JobProfile;

    /// Memory-budget admission request for the SD path; `None` (the
    /// default) for jobs that stage their operands in
    /// [`OffloadCall::prepare`] instead of reading already-staged input.
    fn admission(&self) -> Option<MemoryAdmission> {
        None
    }

    /// Stage operands and build the module invocation parameters (the
    /// engine appends the admission-planned partition parameter last).
    /// The returned [`TimeBreakdown`] is the staging cost, added to the
    /// dispatch cost on success.
    fn prepare(&mut self) -> Result<(Vec<String>, TimeBreakdown), McsdError>;

    /// Decode the module's response payload into the typed output.
    fn decode(&self, payload: &[u8]) -> Result<Self::Output, McsdError>;

    /// Run the job on the host — a planned host placement or a failover
    /// after the SD path failed for good.
    fn run_host(&mut self) -> Result<(Self::Output, TimeBreakdown), McsdError>;
}

/// How one input span eventually produced its output.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpanOutcome {
    /// Clean first run on the span's primary SD node.
    Ok {
        /// Node that ran the span.
        node: String,
    },
    /// The first run failed; a retry on the same node succeeded.
    Retried {
        /// Node that ran the span.
        node: String,
    },
    /// The span left its primary node and was re-run elsewhere.
    Redispatched {
        /// Failed runs before the successful one.
        attempts: u32,
        /// Node (surviving SD or the host) that finally ran the span.
        node: String,
    },
    /// The span never ran on its primary node: the primary's circuit
    /// breaker was open, so the span was steered elsewhere *before* any
    /// attempt was wasted on it.
    Steered {
        /// Node (surviving SD or the host) that ran the span.
        node: String,
    },
    /// The span's module work completed, but its primary log replica
    /// failed during the quorum round. Instead of re-dispatching the
    /// whole span, the most-advanced acknowledged replica was promoted
    /// (deterministic tiebreak by lowest node id) and the completed
    /// output stands — recovery cost one promotion, not a recompute
    /// (DESIGN.md §15).
    Promoted {
        /// Node holding the promoted authoritative log copy.
        node: String,
        /// Group epoch after the promotion; appends from the deposed
        /// primary carry the old epoch and are fenced.
        epoch: u64,
    },
}

impl SpanOutcome {
    /// The node that produced this span's output (for a promoted span:
    /// the node now holding the authoritative log copy).
    pub fn node(&self) -> &str {
        match self {
            SpanOutcome::Ok { node }
            | SpanOutcome::Retried { node }
            | SpanOutcome::Redispatched { node, .. }
            | SpanOutcome::Steered { node }
            | SpanOutcome::Promoted { node, .. } => node,
        }
    }
}

/// How one multi-SD span eventually produced its output; the raw
/// classification [`Engine::run_span`] hands back to the front-end.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanDisposition {
    /// Slot (SD index, or the host slot = SD count) that ran the span.
    pub slot: usize,
    /// Failed runs before the successful one.
    pub failures: u32,
    /// Whether the span's primary node rejected it at its breaker gate.
    pub steered: bool,
}

impl SpanDisposition {
    /// Whether the span never ran on `primary` because the breaker
    /// steered it away before any attempt.
    pub fn left_primary(&self, primary: usize) -> bool {
        self.steered && self.slot != primary
    }

    /// Classify this disposition as the caller-facing [`SpanOutcome`],
    /// naming the node that finally ran the span.
    pub fn outcome(&self, primary: usize, node: String) -> SpanOutcome {
        if self.failures == 0 && self.left_primary(primary) {
            SpanOutcome::Steered { node }
        } else if self.failures == 0 {
            SpanOutcome::Ok { node }
        } else if self.slot == primary {
            SpanOutcome::Retried { node }
        } else {
            SpanOutcome::Redispatched {
                attempts: self.failures,
                node,
            }
        }
    }

    /// Whether the span's output came from a re-dispatch (failed runs
    /// followed by success away from the primary).
    pub fn redispatched(&self, primary: usize) -> bool {
        self.failures > 0 && self.slot != primary
    }

    /// Per-span recovery counters for the span's report: the successful
    /// run plus every failed one, counted as retries, with the
    /// re-dispatch flagged.
    pub fn span_stats(&self, primary: usize) -> ResilienceStats {
        ResilienceStats {
            attempts: u64::from(self.failures) + 1,
            retries: u64::from(self.failures),
            redispatches: u64::from(self.redispatched(primary)),
            ..ResilienceStats::default()
        }
    }
}

/// One shard's run queue in the rack-scale model (DESIGN.md §17): a
/// fixed number of execution slots plus a bounded FIFO backlog. Each
/// shard is owned by exactly one node (SD or host) and is driven
/// serially by the discrete-event loop, so the type needs no interior
/// locking — determinism comes from the event order, not from
/// synchronization.
#[derive(Debug, Clone)]
pub struct ShardQueue {
    slots: u32,
    busy: u32,
    depth: usize,
    waiting: std::collections::VecDeque<u64>,
}

impl ShardQueue {
    /// A queue with `slots` concurrent execution slots and room for
    /// `depth` waiting jobs behind them (both clamped to at least 1).
    pub fn new(slots: u32, depth: usize) -> ShardQueue {
        ShardQueue {
            slots: slots.max(1),
            busy: 0,
            depth: depth.max(1),
            waiting: std::collections::VecDeque::new(),
        }
    }

    /// Accept job `id` into the backlog, or refuse it (shed) when the
    /// backlog is at `depth`.
    pub fn try_enqueue(&mut self, id: u64) -> bool {
        if self.waiting.len() >= self.depth {
            return false;
        }
        self.waiting.push_back(id);
        true
    }

    /// Pop the oldest waiting job into a free slot; `None` when every
    /// slot is busy or nothing is waiting.
    pub fn try_start(&mut self) -> Option<u64> {
        if self.busy >= self.slots {
            return None;
        }
        let id = self.waiting.pop_front()?;
        self.busy += 1;
        Some(id)
    }

    /// Release the slot held by a finished job.
    pub fn finish(&mut self) {
        self.busy = self.busy.saturating_sub(1);
    }

    /// Jobs waiting in the backlog.
    pub fn queued(&self) -> usize {
        self.waiting.len()
    }

    /// Jobs currently occupying execution slots.
    pub fn running(&self) -> u32 {
        self.busy
    }

    /// Whether no job is running or waiting on this shard.
    pub fn is_idle(&self) -> bool {
        self.busy == 0 && self.waiting.is_empty()
    }
}

/// The unified offload scheduler: decision state shared by every
/// front-end path (see the module docs).
pub struct Engine {
    offloader: Mutex<Offloader>,
    /// One breaker per SD slot, persistent across calls/runs so a node
    /// that failed stays avoided until it proves itself.
    breakers: Mutex<Vec<CircuitBreaker>>,
    /// Logical clock driving the breakers (one quantum per decision).
    clock: Mutex<Duration>,
    /// Scheduler-owned overload counters (steers, re-partitions); breaker
    /// opens/probes live in the breakers and are merged at read time.
    overload: Mutex<OverloadStats>,
    /// Host-side recovery counters absorbed from dispatch outcomes.
    stats: Mutex<ResilienceStats>,
    /// Window-side batch counters absorbed from pipelined dispatches
    /// (the daemon owns the commit-side fields; merged at read time by
    /// [`Engine::batch_report`]).
    batch: Mutex<BatchStats>,
    degradations: Mutex<Vec<String>>,
    decision_log: Mutex<Vec<(String, OffloadDecision)>>,
    config: EngineConfig,
}

impl Engine {
    /// An engine over `offloader` with `sd_slots` breaker-gated SD slots
    /// (the framework gates its single live SD node with one slot; the
    /// multi-SD runner gives every modelled SD node its own).
    pub fn new(offloader: Offloader, sd_slots: usize, config: EngineConfig) -> Engine {
        Engine {
            offloader: Mutex::new(offloader),
            breakers: Mutex::new(vec![CircuitBreaker::new(config.breaker); sd_slots.max(1)]),
            clock: Mutex::new(Duration::ZERO),
            overload: Mutex::new(OverloadStats::default()),
            stats: Mutex::new(ResilienceStats::default()),
            batch: Mutex::new(BatchStats::default()),
            degradations: Mutex::new(Vec::new()),
            decision_log: Mutex::new(Vec::new()),
            config,
        }
    }

    /// Ask the policy where a job should run.
    pub fn decide(&self, profile: &JobProfile) -> OffloadDecision {
        self.offloader.lock().decide(profile)
    }

    /// Current state of each SD slot's circuit breaker, in slot order.
    pub fn breaker_states(&self) -> Vec<BreakerState> {
        self.breakers.lock().iter().map(|b| b.state()).collect()
    }

    /// Current state of one slot's breaker (clamped to the last slot).
    pub fn breaker_state(&self, slot: usize) -> BreakerState {
        let breakers = self.breakers.lock();
        breakers[slot.min(breakers.len() - 1)].state()
    }

    /// Human-readable record of every graceful degradation, in order.
    pub fn degradations(&self) -> Vec<String> {
        self.degradations.lock().clone()
    }

    /// Where each call actually ran, in call order — including
    /// [`OffloadDecision::FallbackToHost`] entries for degraded runs.
    pub fn decision_log(&self) -> Vec<(String, OffloadDecision)> {
        self.decision_log.lock().clone()
    }

    /// Scheduler-side overload totals: the engine's own counters plus the
    /// breakers' cumulative opens and half-open probes.
    pub fn overload_totals(&self) -> OverloadStats {
        let mut totals = *self.overload.lock();
        let breakers = self.breakers.lock();
        totals.breaker_opens += breakers.iter().map(CircuitBreaker::opens).sum::<u64>();
        totals.half_open_probes += breakers
            .iter()
            .map(CircuitBreaker::half_open_probes)
            .sum::<u64>();
        totals
    }

    /// Overload counters accumulated since `baseline` (a prior
    /// [`Engine::overload_totals`] snapshot) — how a front-end scopes the
    /// engine's cumulative counters to one run's report.
    pub fn overload_delta(&self, baseline: &OverloadStats) -> OverloadStats {
        let totals = self.overload_totals();
        OverloadStats {
            shed: totals.shed - baseline.shed,
            expired: totals.expired - baseline.expired,
            breaker_opens: totals.breaker_opens - baseline.breaker_opens,
            half_open_probes: totals.half_open_probes - baseline.half_open_probes,
            repartitions: totals.repartitions - baseline.repartitions,
            steered_spans: totals.steered_spans - baseline.steered_spans,
        }
    }

    /// Recovery counters merged for a caller-facing report: the engine's
    /// dispatch/overload counters plus the daemon-owned replay, quarantine,
    /// skip, shed and expiry counts (owned there so they are never
    /// double-counted; DESIGN.md §13).
    pub fn resilience_report(&self, daemon: &DaemonStats) -> ResilienceStats {
        let mut stats = *self.stats.lock();
        stats.replayed += daemon.replayed;
        stats.quarantines += daemon.quarantined;
        stats.corrupt_skipped_bytes += daemon.corrupt_skipped_bytes;
        stats.overload.absorb(&self.overload_totals());
        stats.overload.shed += daemon.shed;
        stats.overload.expired += daemon.expired;
        stats
    }

    /// Absorb the window-side [`BatchStats`] of one pipelined dispatch
    /// (occupancy, shrinks, reordered completions). The commit-side
    /// fields are daemon-owned and must stay zero in `stats` — mixing
    /// them in here would double-count them in [`Engine::batch_report`].
    pub fn absorb_batch(&self, stats: &BatchStats) {
        self.batch.lock().absorb(stats);
    }

    /// Batched-mode counters merged for a caller-facing report: the
    /// window-side fields the engine absorbed from pipelined dispatches
    /// plus the daemon-owned batch-commit fields (batches, coalesced
    /// appends, fsyncs, fsyncs saved), merged at read time exactly like
    /// [`Engine::resilience_report`] so neither side is double-counted.
    pub fn batch_report(&self, daemon: &BatchStats) -> BatchStats {
        let mut stats = *self.batch.lock();
        stats.absorb(daemon);
        stats
    }

    /// The engine's decision trace track.
    pub fn trace_track(&self) -> TrackId {
        self.config
            .tracer
            .track(MCSD_TRACE_TRACK, ClockDomain::Decision)
    }

    /// Open the end-to-end span for one typed call; `None` when tracing
    /// is off.
    pub fn open_call_span(&self, job: &str) -> Option<(TrackId, SpanId)> {
        if !self.config.tracer.is_enabled() {
            return None;
        }
        let track = self.trace_track();
        let span = self
            .config
            .tracer
            .open(track, SPAN_MCSD_CALL, &[("job", job)]);
        Some((track, span))
    }

    /// Close a span opened by [`Engine::open_call_span`].
    pub fn close_call_span(&self, span: Option<(TrackId, SpanId)>) {
        if let Some((track, span)) = span {
            self.config.tracer.close(track, span);
        }
    }

    /// Record an analytic data-movement span on the cluster track; its
    /// width is the virtual network+disk time in microseconds.
    pub fn record_transfer(
        &self,
        name: &'static str,
        file: &str,
        bytes: u64,
        cost: &TimeBreakdown,
    ) {
        if !self.config.tracer.is_enabled() {
            return;
        }
        let track = self
            .config
            .tracer
            .track(CLUSTER_TRACE_TRACK, ClockDomain::Cluster);
        let ticks = (cost.network + cost.disk).as_micros() as u64;
        self.config.tracer.leaf(
            track,
            name,
            ticks,
            &[("file", file), ("bytes", &bytes.to_string())],
        );
    }

    fn tick(&self) -> Duration {
        let mut clock = self.clock.lock();
        *clock += BREAKER_QUANTUM;
        *clock
    }

    fn now(&self) -> Duration {
        *self.clock.lock()
    }

    fn note_decision(&self, job: &str, decision: OffloadDecision) {
        if matches!(decision, OffloadDecision::SmartStorage { .. }) {
            self.config
                .tracer
                .event(self.trace_track(), EVENT_MCSD_OFFLOAD, &[("job", job)]);
        }
        self.decision_log.lock().push((job.to_string(), decision));
    }

    /// Overload gate for one offload: consult the slot's circuit breaker
    /// and the daemon's heartbeat-reported load. Returns `false` (and
    /// counts a steered span) when the job must go to the host instead.
    fn sd_admitted(
        &self,
        job: &str,
        slot: usize,
        queued_load: impl FnOnce() -> Option<u64>,
    ) -> bool {
        let now = self.tick();
        let admission = {
            let mut breakers = self.breakers.lock();
            let slot = slot.min(breakers.len() - 1);
            breakers[slot].admission(now)
        };
        if matches!(admission, Admission::Probe) {
            self.config.tracer.event(
                self.trace_track(),
                EVENT_MCSD_BREAKER_PROBE,
                &[("job", job)],
            );
        }
        let admitted = match admission {
            Admission::Reject => false,
            Admission::Allow | Admission::Probe => true,
        };
        // Even a closed breaker defers to a saturated daemon: a queue at
        // the steering threshold means the request would mostly wait (or
        // be shed), so the host is the faster and kinder choice.
        let saturated =
            admitted && queued_load().is_some_and(|queued| queued >= self.config.steer_queue_depth);
        if admitted && !saturated {
            return true;
        }
        self.overload.lock().steered_spans += 1;
        let reason = if saturated {
            "daemon queue saturated"
        } else {
            "circuit breaker open"
        };
        self.config.tracer.event(
            self.trace_track(),
            EVENT_MCSD_STEER,
            &[("job", job), ("reason", reason)],
        );
        self.degradations
            .lock()
            .push(format!("{job}: steered to host ({reason})"));
        false
    }

    /// Memory-budget admission for an SD offload: decide the partition
    /// parameter. A caller-supplied partition parameter is honoured
    /// verbatim; otherwise an over-footprint job is re-partitioned
    /// adaptively (the halvings are counted) and a job that cannot fit
    /// even at the floor fragment is refused with the typed error.
    fn admit_memory(
        &self,
        job: &str,
        request: &MemoryAdmission,
    ) -> Result<Option<String>, McsdError> {
        if let Some(p) = &request.caller_partition {
            return Ok(Some(p.clone()));
        }
        let plan = plan_admission(
            &request.model,
            request.input_bytes,
            request.footprint_factor,
            self.config.min_fragment_bytes,
        )
        .map_err(|refusal| McsdError::MemoryOverflow {
            input_bytes: refusal.input_bytes,
            limit_bytes: refusal.limit_bytes,
            min_fragment_bytes: refusal.min_fragment_bytes,
        })?;
        if plan.repartitions > 0 {
            self.config.tracer.event(
                self.trace_track(),
                EVENT_MCSD_REPARTITION,
                &[("job", job), ("halvings", &plan.repartitions.to_string())],
            );
        }
        self.overload.lock().repartitions += plan.repartitions;
        Ok(plan.partition_param())
    }

    /// Report one dispatch outcome to a slot's breaker (at the current
    /// clock, without ticking: the decision already paid its quantum) and
    /// trace a trip when it opens.
    fn breaker_feedback(&self, module: &str, slot: usize, ok: bool) {
        let now = self.now();
        let mut breakers = self.breakers.lock();
        let slot = slot.min(breakers.len() - 1);
        let opens_before = breakers[slot].opens();
        if ok {
            breakers[slot].on_success(now);
        } else {
            breakers[slot].on_failure(now);
        }
        if breakers[slot].opens() > opens_before {
            self.config.tracer.event(
                self.trace_track(),
                EVENT_MCSD_BREAKER_OPEN,
                &[("module", module)],
            );
        }
    }

    /// The SD path failed for good. Either degrade to host execution
    /// (recording the failover) or surface the error, per configuration.
    fn degrade(&self, job: &str, err: McsdError) -> Result<OffloadDecision, McsdError> {
        if !self.config.fallback_to_host {
            return Err(err);
        }
        self.stats.lock().failovers += 1;
        // The event carries the stable error *kind*, not the rendered
        // message — Display output can embed request ids, which would
        // break byte-identical traces.
        self.config.tracer.event(
            self.trace_track(),
            EVENT_MCSD_FALLBACK,
            &[("job", job), ("error", err.kind())],
        );
        self.degradations
            .lock()
            .push(format!("{job}: {err}; degraded to host execution"));
        Ok(OffloadDecision::FallbackToHost)
    }

    /// Drive typed offload calls through the full per-call state machine:
    /// decide → breaker/load gate → memory admission → stage + dispatch →
    /// breaker feedback → decode, degrading to [`OffloadCall::run_host`]
    /// on steer, host placement, or terminal SD failure. A single call is
    /// a one-element batch.
    ///
    /// Every gate applies **per request inside the batch**; a call that
    /// fails its gate is steered to the host, and a call whose dispatch
    /// fails degrades (or surfaces its error), without disturbing its
    /// neighbours. Only the transport is batched: `dispatch_window`
    /// receives the `(module, params)` pairs of every SD-admitted call, in
    /// submit order, and must return exactly one [`SdDispatch`] per pair,
    /// in the same order — the framework backs it with the host client's
    /// pipelined window (DESIGN.md §18). `queued_load` reads the daemon
    /// heartbeat's queued-request count (`None` when no heartbeat is
    /// available). Results come back in call order.
    pub fn run_calls<C: OffloadCall>(
        &self,
        calls: &mut [C],
        queued_load: impl Fn() -> Option<u64>,
        dispatch_window: impl FnOnce(&[(String, Vec<String>)]) -> Vec<SdDispatch>,
    ) -> Vec<Result<(C::Output, TimeBreakdown), McsdError>> {
        /// Where one call of the batch is headed after its gates ran.
        enum Plan {
            /// SD-admitted: entry `wx` of the window, on breaker `slot`.
            Windowed {
                slot: usize,
                staging: TimeBreakdown,
                wx: usize,
            },
            /// Host-placed (policy or steer): run in phase 3, in order.
            Host(OffloadDecision),
            /// Gate error (admission/prepare): result already recorded.
            Failed,
        }

        type Slot<T> = Option<Result<(T, TimeBreakdown), McsdError>>;
        let mut results: Vec<Slot<C::Output>> = calls.iter().map(|_| None).collect();
        let mut window: Vec<(String, Vec<String>)> = Vec::new();
        let mut plans: Vec<Plan> = Vec::with_capacity(calls.len());

        // Phase 1 — per-request gating, in submit order: decide →
        // breaker/load gate → memory admission → prepare.
        for (i, call) in calls.iter_mut().enumerate() {
            let job = call.job();
            let profile = call.profile();
            let mut decision = self.decide(&profile);
            if let OffloadDecision::SmartStorage { sd_index } = decision {
                if !self.sd_admitted(job, sd_index, &queued_load) {
                    decision = OffloadDecision::SteeredToHost;
                }
            }
            let OffloadDecision::SmartStorage { sd_index } = decision else {
                plans.push(Plan::Host(decision));
                continue;
            };
            let partition = match call.admission() {
                Some(request) => match self.admit_memory(job, &request) {
                    Ok(partition) => partition,
                    Err(e) => {
                        results[i] = Some(Err(e));
                        plans.push(Plan::Failed);
                        continue;
                    }
                },
                None => None,
            };
            match call.prepare() {
                Ok((mut params, staging)) => {
                    // Protocol rule, one copy here: the admission-planned
                    // partition parameter always rides as the final module
                    // parameter.
                    params.extend(partition);
                    let wx = window.len();
                    window.push((job.to_string(), params));
                    plans.push(Plan::Windowed {
                        slot: sd_index,
                        staging,
                        wx,
                    });
                }
                Err(e) => {
                    results[i] = Some(Err(e));
                    plans.push(Plan::Failed);
                }
            }
        }

        // Phase 2 — one pipelined window over every admitted request.
        let mut dispatched: Vec<Option<SdDispatch>> = if window.is_empty() {
            Vec::new()
        } else {
            dispatch_window(&window).into_iter().map(Some).collect()
        };
        assert_eq!(
            dispatched.len(),
            window.len(),
            "dispatch_window must answer every admitted request"
        );

        // Phase 3 — per-request completion, in submit order: stats,
        // breaker feedback, decode / degrade.
        for (i, call) in calls.iter_mut().enumerate() {
            let job = call.job();
            match plans[i] {
                Plan::Failed => {}
                Plan::Host(decision) => {
                    self.note_decision(job, decision);
                    results[i] = Some(call.run_host());
                }
                Plan::Windowed { slot, staging, wx } => {
                    let (outcome, mut stats) =
                        // tidy:allow(MCSD002) -- construction invariant: each windowed plan owns exactly one dispatch slot, assigned a few lines up; a double-take is a planner bug that must fail loudly
                        dispatched[wx].take().expect("window entry consumed once");
                    // The daemon owns corrupt-skip accounting (DESIGN.md
                    // §10/§12): the host's recovering reader skips the same
                    // corrupt bytes in the same shared log the daemon's
                    // scan skips, and `resilience_report` merges the
                    // daemon's count at read time — absorbing the host's
                    // count here would double it. Per-call outcomes still
                    // carry the host-side count for direct `HostClient`
                    // callers.
                    stats.corrupt_skipped_bytes = 0;
                    self.stats.lock().absorb(&stats);
                    self.breaker_feedback(job, slot, outcome.is_ok());
                    results[i] = Some(match outcome {
                        Ok((payload, cost)) => {
                            self.note_decision(
                                job,
                                OffloadDecision::SmartStorage { sd_index: slot },
                            );
                            call.decode(&payload).map(|out| (out, staging + cost))
                        }
                        Err(e) => match self.degrade(job, e) {
                            Ok(decision) => {
                                self.note_decision(job, decision);
                                call.run_host()
                            }
                            Err(e) => Err(e),
                        },
                    });
                }
            }
        }
        results
            .into_iter()
            // tidy:allow(MCSD002) -- construction invariant: the planning loop above fills every slot (Failed/Host/Windowed all write results[i]); a hole is a planner bug that must fail loudly
            .map(|r| r.expect("every call planned exactly once"))
            .collect()
    }

    /// Drive the re-dispatch chain for one multi-SD input span: primary
    /// slot, in-place retry, surviving SD slots in order, finally the
    /// host slot (= SD count), which is never breaker-gated and so
    /// terminates every chain.
    ///
    /// `attempt(slot)` runs the span once on `slot` and reports whether
    /// an *injected* failure ate the output (`true` loses the run and
    /// moves down the chain; real errors propagate and abort the run).
    /// Consecutive gates of the same slot (the in-place retry) re-check
    /// the breaker at the current clock without ticking it, so one span
    /// costs exactly one decision quantum on its primary — the same
    /// budget a framework call pays, which is what keeps the two
    /// front-ends' breaker timelines aligned.
    pub fn run_span<T>(
        &self,
        span_index: usize,
        primary: usize,
        mut attempt: impl FnMut(usize) -> Result<(bool, T), McsdError>,
    ) -> Result<(SpanDisposition, T), McsdError> {
        let host_slot = self.breakers.lock().len();
        let mut candidates = vec![primary, primary];
        candidates.extend((0..host_slot).filter(|&j| j != primary));
        candidates.push(host_slot);

        let mut failures: u32 = 0;
        let mut steered = false;
        let mut gated: Option<usize> = None;
        for &slot in &candidates {
            // An SD candidate must get past its circuit breaker; the host
            // terminates every chain and is never gated.
            if slot != host_slot {
                let now = if gated == Some(slot) {
                    self.now()
                } else {
                    self.tick()
                };
                gated = Some(slot);
                if self.breakers.lock()[slot].admission(now) == Admission::Reject {
                    if slot == primary {
                        steered = true;
                    }
                    continue;
                }
            }
            let (injected, out) = attempt(slot)?;
            if injected {
                failures += 1;
                self.breakers.lock()[slot].on_failure(self.now());
                continue;
            }
            if slot != host_slot {
                self.breakers.lock()[slot].on_success(self.now());
            }
            let disposition = SpanDisposition {
                slot,
                failures,
                steered,
            };
            if disposition.left_primary(primary) {
                self.overload.lock().steered_spans += 1;
            }
            return Ok((disposition, out));
        }
        // Unreachable: the host terminates every attempt chain.
        Err(McsdError::BadScenario {
            detail: format!("span {span_index} exhausted its re-dispatch chain"),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::offload::OffloadPolicy;

    fn engine(slots: usize) -> Engine {
        Engine::new(
            Offloader::new(OffloadPolicy::AlwaysSd, slots),
            slots,
            EngineConfig {
                breaker: BreakerConfig {
                    failure_threshold: 1,
                    cooldown: Duration::from_millis(4),
                    probe_quota: 1,
                },
                fallback_to_host: true,
                steer_queue_depth: 64,
                min_fragment_bytes: 4096,
                tracer: Tracer::disabled(),
            },
        )
    }

    #[test]
    fn span_chain_walks_primary_retry_others_host() {
        let e = engine(3);
        let mut visited = Vec::new();
        // Every SD attempt reports an injected failure; the host ends it.
        let (d, ()) = e
            .run_span(0, 1, |slot| {
                visited.push(slot);
                Ok((slot != 3, ()))
            })
            .unwrap();
        // Primary fails, its breaker (threshold 1) opens, the in-place
        // retry is rejected at the gate, the survivors fail, host runs.
        assert_eq!(visited, vec![1, 0, 2, 3]);
        assert_eq!(d.slot, 3);
        assert_eq!(d.failures, 3);
        assert!(
            d.steered,
            "post-failure re-gate rejection counts as a steer"
        );
    }

    #[test]
    fn clean_span_costs_one_quantum_and_no_steer() {
        let e = engine(2);
        let (d, ()) = e.run_span(0, 0, |_| Ok((false, ()))).unwrap();
        assert_eq!((d.slot, d.failures, d.steered), (0, 0, false));
        assert!(!d.left_primary(0));
        assert_eq!(e.overload_totals(), OverloadStats::default());
        assert_eq!(e.now(), Duration::from_millis(1));
    }

    #[test]
    fn open_primary_steers_without_attempting() {
        let e = engine(2);
        // Trip slot 0: one failed attempt at threshold 1.
        let _ = e.run_span(0, 0, |slot| Ok((slot == 0, ())));
        // Next span never attempts slot 0.
        let (d, ()) = e
            .run_span(1, 0, |slot| {
                assert_ne!(slot, 0, "open breaker must gate the primary");
                Ok((false, ()))
            })
            .unwrap();
        assert!(d.left_primary(0));
        assert_eq!(e.overload_totals().steered_spans, 2);
        assert_eq!(e.breaker_state(0), BreakerState::Open);
    }

    #[test]
    fn shard_queue_bounds_backlog_and_slots() {
        let mut q = ShardQueue::new(2, 3);
        assert!(q.is_idle());
        // Backlog accepts up to `depth` jobs, then sheds.
        assert!(q.try_enqueue(1));
        assert!(q.try_enqueue(2));
        assert!(q.try_enqueue(3));
        assert!(!q.try_enqueue(4), "fourth arrival must be refused");
        assert_eq!(q.queued(), 3);
        // Starts drain FIFO into the two slots.
        assert_eq!(q.try_start(), Some(1));
        assert_eq!(q.try_start(), Some(2));
        assert_eq!(q.try_start(), None, "both slots busy");
        assert_eq!((q.running(), q.queued()), (2, 1));
        // Finishing frees a slot; the backlog has room again.
        q.finish();
        assert!(q.try_enqueue(4));
        assert_eq!(q.try_start(), Some(3));
        q.finish();
        q.finish();
        assert_eq!(q.try_start(), Some(4));
        q.finish();
        assert!(q.is_idle());
    }

    #[test]
    fn shard_queue_clamps_degenerate_parameters() {
        let mut q = ShardQueue::new(0, 0);
        assert!(q.try_enqueue(7), "depth clamps to 1");
        assert_eq!(q.try_start(), Some(7), "slots clamp to 1");
        // finish() below zero saturates rather than underflowing.
        q.finish();
        q.finish();
        assert!(q.is_idle());
    }

    #[test]
    fn batch_report_merges_window_and_daemon_sides_at_read_time() {
        let e = engine(1);
        // The engine absorbs window-side counters from two pipelined
        // dispatches; the daemon-side snapshot arrives at read time.
        e.absorb_batch(&BatchStats {
            window_occupancy: 12,
            window_shrinks: 1,
            reordered_completions: 2,
            ..BatchStats::default()
        });
        e.absorb_batch(&BatchStats {
            window_occupancy: 8,
            ..BatchStats::default()
        });
        let daemon = BatchStats {
            batches: 3,
            coalesced_appends: 12,
            fsyncs: 3,
            fsyncs_saved: 9,
            ..BatchStats::default()
        };
        let merged = e.batch_report(&daemon);
        assert_eq!(merged.batches, 3);
        assert_eq!(merged.coalesced_appends, 12);
        assert_eq!(merged.fsyncs_saved, 9);
        assert_eq!(merged.window_occupancy, 20);
        assert_eq!(merged.window_shrinks, 1);
        assert_eq!(merged.reordered_completions, 2);
        // Reading the report twice never double-counts either side.
        assert_eq!(e.batch_report(&daemon), merged);
    }

    #[test]
    fn overload_delta_scopes_cumulative_counters_to_one_run() {
        let e = engine(1);
        let _ = e.run_span(0, 0, |slot| Ok((slot == 0, ())));
        let baseline = e.overload_totals();
        assert_eq!(baseline.breaker_opens, 1);
        let _ = e.run_span(1, 0, |_| Ok((false, ())));
        let delta = e.overload_delta(&baseline);
        assert_eq!(delta.breaker_opens, 0);
        assert_eq!(delta.steered_spans, 1);
    }
}
