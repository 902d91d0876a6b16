//! The versioned catalog of every span name, event type, and metric key
//! the stack may emit.
//!
//! Emission sites across `phoenix`, `smartfam`, `mcsd-core`, and `bench`
//! must reference these constants instead of string literals, and DESIGN.md
//! §12 must list every entry — a test in this crate cross-checks the two so
//! the documentation can never drift from the code (the same sync idea as
//! `mcsd-tidy`'s waiver budget).

/// Version of the exported trace format. Bump on any change to the JSONL
/// line schema, the Chrome mapping, or the semantics of a catalogued name.
pub const TRACE_FORMAT_VERSION: u32 = 1;

// ---------------------------------------------------------------- spans

/// Out-of-core Partition→Merge wrapper around per-fragment jobs (work).
pub const SPAN_PHOENIX_PARTITIONED: &str = "phoenix.partitioned";
/// One Phoenix MapReduce job (work).
pub const SPAN_PHOENIX_JOB: &str = "phoenix.job";
/// Input splitting phase; width = map tasks produced (work).
pub const SPAN_PHOENIX_SPLIT: &str = "phoenix.split";
/// Map phase; width = input bytes mapped (work).
pub const SPAN_PHOENIX_MAP: &str = "phoenix.map";
/// Partition/sort/reduce phase; width = pairs entering reduce (work).
pub const SPAN_PHOENIX_REDUCE: &str = "phoenix.reduce";
/// Final merge/sort phase; width = output pairs (work).
pub const SPAN_PHOENIX_MERGE: &str = "phoenix.merge";
/// One typed framework call (wordcount/stringmatch/matmul) end to end
/// (decision).
pub const SPAN_MCSD_CALL: &str = "mcsd.call";
/// Staging data onto the SD node; width = analytic network+disk µs
/// (cluster).
pub const SPAN_CLUSTER_STAGE: &str = "cluster.stage";
/// Host fetching staged data over NFS; width = analytic network+disk µs
/// (cluster).
pub const SPAN_CLUSTER_FETCH: &str = "cluster.fetch";
/// Background re-protection pass rebuilding a replication group back to
/// full redundancy; width = re-protect steps performed (decision).
pub const SPAN_MCSD_REPROTECT: &str = "mcsd.reprotect";
/// One coalesced daemon append batch from formation to its single-fsync
/// commit; width = requests in the batch (decision).
pub const SPAN_SD_BATCH: &str = "sd.batch";

/// Every span name the stack may emit.
pub const ALL_SPANS: [&str; 11] = [
    SPAN_PHOENIX_PARTITIONED,
    SPAN_PHOENIX_JOB,
    SPAN_PHOENIX_SPLIT,
    SPAN_PHOENIX_MAP,
    SPAN_PHOENIX_REDUCE,
    SPAN_PHOENIX_MERGE,
    SPAN_MCSD_CALL,
    SPAN_CLUSTER_STAGE,
    SPAN_CLUSTER_FETCH,
    SPAN_MCSD_REPROTECT,
    SPAN_SD_BATCH,
];

// --------------------------------------------------------------- events

/// Host wrote a request frame into a module's log file.
pub const EVENT_HOST_SUBMIT: &str = "host.submit";
/// Host started one attempt of a call (`attempt` attr, from 1).
pub const EVENT_HOST_ATTEMPT: &str = "host.attempt";
/// Host scheduled a retry after a failed attempt.
pub const EVENT_HOST_RETRY: &str = "host.retry";
/// Final outcome of a call, after its last attempt (`status` attr:
/// ok/error).
pub const EVENT_HOST_OUTCOME: &str = "host.outcome";
/// Daemon scanned a fresh request from a log file.
pub const EVENT_SD_REQUEST: &str = "sd.request";
/// Daemon re-processed an already-seen request during startup replay.
pub const EVENT_SD_REPLAY: &str = "sd.replay";
/// Daemon dispatched a request to its module.
pub const EVENT_SD_DISPATCH: &str = "sd.dispatch";
/// Daemon admitted a request into its batch queue.
pub const EVENT_SD_QUEUE: &str = "sd.queue";
/// Daemon shed a request with a typed `Overloaded` reply.
pub const EVENT_SD_SHED: &str = "sd.shed";
/// Daemon dropped a request whose deadline had expired at dequeue.
pub const EVENT_SD_EXPIRED: &str = "sd.expired";
/// A module crossed its failure threshold and entered quarantine.
pub const EVENT_SD_QUARANTINE: &str = "sd.quarantine";
/// Daemon refused a request because its module is quarantined.
pub const EVENT_SD_QUARANTINE_REJECTED: &str = "sd.quarantine_rejected";
/// Daemon received a request for a module it does not know.
pub const EVENT_SD_UNKNOWN_MODULE: &str = "sd.unknown_module";
/// A dispatched request completed (`status` attr: ok/error).
pub const EVENT_SD_COMPLETE: &str = "sd.complete";
/// Daemon heartbeat write (volatile: wall-cadenced).
pub const EVENT_SD_HEARTBEAT: &str = "sd.heartbeat";
/// Daemon log-file poll (volatile: wall-cadenced).
pub const EVENT_SD_POLL: &str = "sd.poll";
/// Framework placed a job on the SD node.
pub const EVENT_MCSD_OFFLOAD: &str = "mcsd.offload";
/// Framework steered a job to the host before any SD attempt.
pub const EVENT_MCSD_STEER: &str = "mcsd.steer";
/// Framework degraded a failed SD call to host execution.
pub const EVENT_MCSD_FALLBACK: &str = "mcsd.fallback";
/// Memory-budget admission re-partitioned an over-footprint job.
pub const EVENT_MCSD_REPARTITION: &str = "mcsd.repartition";
/// The SD circuit breaker tripped open.
pub const EVENT_MCSD_BREAKER_OPEN: &str = "mcsd.breaker_open";
/// The SD circuit breaker admitted a half-open probe.
pub const EVENT_MCSD_BREAKER_PROBE: &str = "mcsd.breaker_probe";
/// One replication-group member crashed during an append round.
pub const EVENT_SD_REPLICA_CRASH: &str = "sd.replica_crash";
/// A quorum-append round aborted: too few verified acknowledgements.
pub const EVENT_SD_QUORUM_LOST: &str = "sd.quorum_lost";
/// Promote-time recovery merged frames from a mirror onto a primary log.
pub const EVENT_SD_REPLICA_MERGE: &str = "sd.replica_merge";
/// The engine promoted the most-advanced acknowledged replica after a
/// primary failure (`node` and `epoch` attrs).
pub const EVENT_MCSD_PROMOTE: &str = "mcsd.promote";
/// A stale primary's append was fenced by the group epoch.
pub const EVENT_MCSD_EPOCH_FENCE: &str = "mcsd.epoch_fence";
/// A correlated failure took down several replicas of one group at once.
pub const EVENT_MCSD_GROUP_CRASH: &str = "mcsd.group_crash";
/// Chaos discovery run counted one scenario segment's injection points
/// (`segment` and `points` attrs).
pub const EVENT_CHAOS_DISCOVER: &str = "chaos.discover";
/// Chaos sweep re-ran a scenario with one fault injected (`site`,
/// `occurrence`, and `action` attrs).
pub const EVENT_CHAOS_INJECT: &str = "chaos.inject";
/// A chaos run violated a safety invariant (`invariant` attr).
pub const EVENT_CHAOS_VIOLATION: &str = "chaos.violation";
/// A job entered the rack-scale discrete-event loop (`job` attr).
pub const EVENT_DES_ARRIVE: &str = "des.arrive";
/// The DES dispatched a queued job onto a free shard slot (`job` and
/// `shard` attrs).
pub const EVENT_DES_DISPATCH: &str = "des.dispatch";
/// A DES job finished on its shard (`job` and `shard` attrs).
pub const EVENT_DES_COMPLETE: &str = "des.complete";
/// The DES shed an arrival because its shard's run queue was full
/// (`job` and `shard` attrs).
pub const EVENT_DES_SHED: &str = "des.shed";
/// The daemon committed a coalesced append batch with one fsync (`size`
/// and `fsyncs_saved` attrs).
pub const EVENT_SD_BATCH_COMMIT: &str = "sd.batch_commit";
/// A torn batch tail was retried — only the frames past the durable
/// prefix were re-appended (`retried` attr).
pub const EVENT_SD_BATCH_RETRY: &str = "sd.batch_retry";
/// The host halved its pipelined in-flight window after an `Overloaded`
/// reply (`depth` attr: the new, smaller depth).
pub const EVENT_HOST_WINDOW_SHRINK: &str = "host.window_shrink";
/// The host grew its pipelined window by one slot after a full window
/// of clean completions (`depth` attr).
pub const EVENT_HOST_WINDOW_REFILL: &str = "host.window_refill";

/// Every event type the stack may emit.
pub const ALL_EVENTS: [&str; 39] = [
    EVENT_HOST_SUBMIT,
    EVENT_HOST_ATTEMPT,
    EVENT_HOST_RETRY,
    EVENT_HOST_OUTCOME,
    EVENT_SD_REQUEST,
    EVENT_SD_REPLAY,
    EVENT_SD_DISPATCH,
    EVENT_SD_QUEUE,
    EVENT_SD_SHED,
    EVENT_SD_EXPIRED,
    EVENT_SD_QUARANTINE,
    EVENT_SD_QUARANTINE_REJECTED,
    EVENT_SD_UNKNOWN_MODULE,
    EVENT_SD_COMPLETE,
    EVENT_SD_HEARTBEAT,
    EVENT_SD_POLL,
    EVENT_MCSD_OFFLOAD,
    EVENT_MCSD_STEER,
    EVENT_MCSD_FALLBACK,
    EVENT_MCSD_REPARTITION,
    EVENT_MCSD_BREAKER_OPEN,
    EVENT_MCSD_BREAKER_PROBE,
    EVENT_SD_REPLICA_CRASH,
    EVENT_SD_QUORUM_LOST,
    EVENT_SD_REPLICA_MERGE,
    EVENT_MCSD_PROMOTE,
    EVENT_MCSD_EPOCH_FENCE,
    EVENT_MCSD_GROUP_CRASH,
    EVENT_CHAOS_DISCOVER,
    EVENT_CHAOS_INJECT,
    EVENT_CHAOS_VIOLATION,
    EVENT_DES_ARRIVE,
    EVENT_DES_DISPATCH,
    EVENT_DES_COMPLETE,
    EVENT_DES_SHED,
    EVENT_SD_BATCH_COMMIT,
    EVENT_SD_BATCH_RETRY,
    EVENT_HOST_WINDOW_SHRINK,
    EVENT_HOST_WINDOW_REFILL,
];

// -------------------------------------------------------------- metrics

/// Requests the daemon scanned (owner: `smartfam.daemon`).
pub const METRIC_SD_REQUESTS: &str = "sd.requests";
/// Module runs that succeeded (owner: `smartfam.daemon`).
pub const METRIC_SD_OK: &str = "sd.ok";
/// Module runs that failed (owner: `smartfam.daemon`).
pub const METRIC_SD_MODULE_ERRORS: &str = "sd.module_errors";
/// Requests for unregistered modules (owner: `smartfam.daemon`).
pub const METRIC_SD_UNKNOWN_MODULE: &str = "sd.unknown_module";
/// Requests re-processed by startup replay (owner: `smartfam.daemon`).
pub const METRIC_SD_REPLAYED: &str = "sd.replayed";
/// Modules quarantined (owner: `smartfam.daemon`).
pub const METRIC_SD_QUARANTINED: &str = "sd.quarantined";
/// Requests refused on a quarantined module (owner: `smartfam.daemon`).
pub const METRIC_SD_QUARANTINE_REJECTED: &str = "sd.quarantine_rejected";
/// Corrupt log bytes the daemon's scan skipped (owner: `smartfam.daemon`).
pub const METRIC_SD_CORRUPT_SKIPPED_BYTES: &str = "sd.corrupt_skipped_bytes";
/// Requests shed by admission control (owner: `smartfam.daemon`).
pub const METRIC_SD_SHED: &str = "sd.shed";
/// Requests dropped expired at dequeue (owner: `smartfam.daemon`).
pub const METRIC_SD_EXPIRED: &str = "sd.expired";

/// Invocation attempts (owner: `mcsd.framework`).
pub const METRIC_RESILIENCE_ATTEMPTS: &str = "resilience.attempts";
/// Retries after failed attempts (owner: `mcsd.framework`).
pub const METRIC_RESILIENCE_RETRIES: &str = "resilience.retries";
/// Degradations to host execution (owner: `mcsd.framework`).
pub const METRIC_RESILIENCE_FAILOVERS: &str = "resilience.failovers";
/// Quarantines, merged from the daemon (owner: `mcsd.framework`).
pub const METRIC_RESILIENCE_QUARANTINES: &str = "resilience.quarantines";
/// Replays, merged from the daemon (owner: `mcsd.framework`).
pub const METRIC_RESILIENCE_REPLAYED: &str = "resilience.replayed";
/// Multi-SD re-dispatches (owner: `mcsd.framework`).
pub const METRIC_RESILIENCE_REDISPATCHES: &str = "resilience.redispatches";
/// Corrupt log bytes skipped, daemon-owned count (owner: `mcsd.framework`).
pub const METRIC_RESILIENCE_CORRUPT_SKIPPED_BYTES: &str = "resilience.corrupt_skipped_bytes";

/// Requests shed (owner: `mcsd.framework`).
pub const METRIC_OVERLOAD_SHED: &str = "overload.shed";
/// Requests expired (owner: `mcsd.framework`).
pub const METRIC_OVERLOAD_EXPIRED: &str = "overload.expired";
/// Breaker open transitions (owner: `mcsd.framework`).
pub const METRIC_OVERLOAD_BREAKER_OPENS: &str = "overload.breaker_opens";
/// Half-open probes admitted (owner: `mcsd.framework`).
pub const METRIC_OVERLOAD_HALF_OPEN_PROBES: &str = "overload.half_open_probes";
/// Admission re-partitionings (owner: `mcsd.framework`).
pub const METRIC_OVERLOAD_REPARTITIONS: &str = "overload.repartitions";
/// Spans steered to the host (owner: `mcsd.framework`).
pub const METRIC_OVERLOAD_STEERED_SPANS: &str = "overload.steered_spans";

/// Input bytes processed (owner: `phoenix`).
pub const METRIC_PHOENIX_INPUT_BYTES: &str = "phoenix.input_bytes";
/// Map tasks run (owner: `phoenix`).
pub const METRIC_PHOENIX_MAP_TASKS: &str = "phoenix.map_tasks";
/// Intermediate pairs emitted by map (owner: `phoenix`).
pub const METRIC_PHOENIX_EMITTED_PAIRS: &str = "phoenix.emitted_pairs";
/// Intermediate pairs after combining (owner: `phoenix`).
pub const METRIC_PHOENIX_COMBINED_PAIRS: &str = "phoenix.combined_pairs";
/// Distinct keys reduced (owner: `phoenix`).
pub const METRIC_PHOENIX_DISTINCT_KEYS: &str = "phoenix.distinct_keys";
/// Final output pairs (owner: `phoenix`).
pub const METRIC_PHOENIX_OUTPUT_PAIRS: &str = "phoenix.output_pairs";
/// Out-of-core fragments run (owner: `phoenix`).
pub const METRIC_PHOENIX_FRAGMENTS: &str = "phoenix.fragments";
/// Bytes the memory model says would swap (owner: `phoenix`).
pub const METRIC_PHOENIX_SWAPPED_BYTES: &str = "phoenix.swapped_bytes";

/// Quorum-append rounds committed (owner: `mcsd.replication`).
pub const METRIC_REPLICATION_QUORUM_APPENDS: &str = "replication.quorum_appends";
/// Verified per-replica acknowledgements (owner: `mcsd.replication`).
pub const METRIC_REPLICATION_REPLICA_ACKS: &str = "replication.replica_acks";
/// Individual replica crashes observed (owner: `mcsd.replication`).
pub const METRIC_REPLICATION_REPLICA_CRASHES: &str = "replication.replica_crashes";
/// Correlated whole-group crash events (owner: `mcsd.replication`).
pub const METRIC_REPLICATION_GROUP_CRASHES: &str = "replication.group_crashes";
/// Replica promotions after a primary failure (owner: `mcsd.replication`).
pub const METRIC_REPLICATION_PROMOTIONS: &str = "replication.promotions";
/// Stale-epoch appends fenced (owner: `mcsd.replication`).
pub const METRIC_REPLICATION_FENCED_APPENDS: &str = "replication.fenced_appends";
/// Re-protect copy steps performed (owner: `mcsd.replication`).
pub const METRIC_REPLICATION_REPROTECT_COPIES: &str = "replication.reprotect_copies";
/// Bytes copied onto fresh members by re-protection (owner:
/// `mcsd.replication`).
pub const METRIC_REPLICATION_REPROTECT_BYTES: &str = "replication.reprotect_bytes";

/// Injection points the chaos sweep enumerated (owner: `mcsd.chaos`).
pub const METRIC_CHAOS_POINTS: &str = "chaos.points";
/// Fault-injected scenario runs the chaos sweep executed (owner:
/// `mcsd.chaos`).
pub const METRIC_CHAOS_CASES: &str = "chaos.cases";
/// Invariant violations the chaos sweep detected (owner: `mcsd.chaos`).
pub const METRIC_CHAOS_VIOLATIONS: &str = "chaos.violations";

/// Jobs injected into the rack-scale DES loop (owner: `mcsd.des`).
pub const METRIC_DES_ARRIVALS: &str = "des.arrivals";
/// DES jobs run to completion (owner: `mcsd.des`).
pub const METRIC_DES_COMPLETED_JOBS: &str = "des.completed_jobs";
/// DES jobs shed on a full shard run queue (owner: `mcsd.des`).
pub const METRIC_DES_SHED_JOBS: &str = "des.shed_jobs";
/// Virtual microseconds shards spent executing (owner: `mcsd.des`).
pub const METRIC_DES_BUSY_US: &str = "des.busy_us";
/// Transfers crossing a top-of-rack uplink (owner: `mcsd.des`).
pub const METRIC_DES_CROSS_RACK_TRANSFERS: &str = "des.cross_rack_transfers";
/// Bytes moved across top-of-rack uplinks (owner: `mcsd.des`).
pub const METRIC_DES_CROSS_RACK_BYTES: &str = "des.cross_rack_bytes";

/// Coalesced append batches committed (owner: `smartfam.batch`).
pub const METRIC_BATCH_BATCHES: &str = "batch.batches";
/// Response appends coalesced into batches (owner: `smartfam.batch`).
pub const METRIC_BATCH_COALESCED_APPENDS: &str = "batch.coalesced_appends";
/// fsyncs actually issued by batch commits (owner: `smartfam.batch`).
pub const METRIC_BATCH_FSYNCS: &str = "batch.fsyncs";
/// fsyncs avoided relative to one-per-append (owner: `smartfam.batch`).
pub const METRIC_BATCH_FSYNCS_SAVED: &str = "batch.fsyncs_saved";
/// Sum of in-flight window depth sampled at each pipelined submit
/// (owner: `smartfam.batch`).
pub const METRIC_BATCH_WINDOW_OCCUPANCY: &str = "batch.window_occupancy";
/// Pipelined-window shrink steps on overload/breaker signals (owner:
/// `smartfam.batch`).
pub const METRIC_BATCH_WINDOW_SHRINKS: &str = "batch.window_shrinks";
/// Pipelined completions that arrived out of submit order (owner:
/// `smartfam.batch`).
pub const METRIC_BATCH_REORDERED_COMPLETIONS: &str = "batch.reordered_completions";

/// Every metric key the stack may register.
pub const ALL_METRICS: [&str; 55] = [
    METRIC_SD_REQUESTS,
    METRIC_SD_OK,
    METRIC_SD_MODULE_ERRORS,
    METRIC_SD_UNKNOWN_MODULE,
    METRIC_SD_REPLAYED,
    METRIC_SD_QUARANTINED,
    METRIC_SD_QUARANTINE_REJECTED,
    METRIC_SD_CORRUPT_SKIPPED_BYTES,
    METRIC_SD_SHED,
    METRIC_SD_EXPIRED,
    METRIC_RESILIENCE_ATTEMPTS,
    METRIC_RESILIENCE_RETRIES,
    METRIC_RESILIENCE_FAILOVERS,
    METRIC_RESILIENCE_QUARANTINES,
    METRIC_RESILIENCE_REPLAYED,
    METRIC_RESILIENCE_REDISPATCHES,
    METRIC_RESILIENCE_CORRUPT_SKIPPED_BYTES,
    METRIC_OVERLOAD_SHED,
    METRIC_OVERLOAD_EXPIRED,
    METRIC_OVERLOAD_BREAKER_OPENS,
    METRIC_OVERLOAD_HALF_OPEN_PROBES,
    METRIC_OVERLOAD_REPARTITIONS,
    METRIC_OVERLOAD_STEERED_SPANS,
    METRIC_PHOENIX_INPUT_BYTES,
    METRIC_PHOENIX_MAP_TASKS,
    METRIC_PHOENIX_EMITTED_PAIRS,
    METRIC_PHOENIX_COMBINED_PAIRS,
    METRIC_PHOENIX_DISTINCT_KEYS,
    METRIC_PHOENIX_OUTPUT_PAIRS,
    METRIC_PHOENIX_FRAGMENTS,
    METRIC_PHOENIX_SWAPPED_BYTES,
    METRIC_REPLICATION_QUORUM_APPENDS,
    METRIC_REPLICATION_REPLICA_ACKS,
    METRIC_REPLICATION_REPLICA_CRASHES,
    METRIC_REPLICATION_GROUP_CRASHES,
    METRIC_REPLICATION_PROMOTIONS,
    METRIC_REPLICATION_FENCED_APPENDS,
    METRIC_REPLICATION_REPROTECT_COPIES,
    METRIC_REPLICATION_REPROTECT_BYTES,
    METRIC_CHAOS_POINTS,
    METRIC_CHAOS_CASES,
    METRIC_CHAOS_VIOLATIONS,
    METRIC_DES_ARRIVALS,
    METRIC_DES_COMPLETED_JOBS,
    METRIC_DES_SHED_JOBS,
    METRIC_DES_BUSY_US,
    METRIC_DES_CROSS_RACK_TRANSFERS,
    METRIC_DES_CROSS_RACK_BYTES,
    METRIC_BATCH_BATCHES,
    METRIC_BATCH_COALESCED_APPENDS,
    METRIC_BATCH_FSYNCS,
    METRIC_BATCH_FSYNCS_SAVED,
    METRIC_BATCH_WINDOW_OCCUPANCY,
    METRIC_BATCH_WINDOW_SHRINKS,
    METRIC_BATCH_REORDERED_COMPLETIONS,
];

/// Whether `name` is a catalogued span or event name.
pub fn is_cataloged(name: &str) -> bool {
    ALL_SPANS.contains(&name) || ALL_EVENTS.contains(&name)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Spans and events share the trace-record namespace and must never
    /// collide. Metric keys live in their own namespace (a counter may
    /// legitimately mirror the event it counts, e.g. `sd.shed`), but must
    /// be unique among themselves.
    #[test]
    fn catalog_has_no_duplicates_per_namespace() {
        let mut records: Vec<&str> = ALL_SPANS.iter().chain(ALL_EVENTS.iter()).copied().collect();
        let n = records.len();
        records.sort_unstable();
        records.dedup();
        assert_eq!(records.len(), n, "span/event names must be unique");

        let mut metrics: Vec<&str> = ALL_METRICS.to_vec();
        let n = metrics.len();
        metrics.sort_unstable();
        metrics.dedup();
        assert_eq!(metrics.len(), n, "metric keys must be unique");
    }

    #[test]
    fn is_cataloged_covers_spans_and_events() {
        assert!(is_cataloged("phoenix.map"));
        assert!(is_cataloged("sd.shed"));
        assert!(!is_cataloged("made.up"));
    }
}
