//! `mcsd-experiments` — regenerate every table and figure of the McSD
//! paper's evaluation (§V), plus the DESIGN.md ablations.
//!
//! ```text
//! mcsd-experiments [all|table1|fig8a|fig8b|fig8c|fig9|fig10|smb|ablations|faults|overload|trace|failover|throughput|chaos|rack|batched]
//!                  [--scale N] [--seed N] [--racks N] [--jobs N] [--quick] [--csv] [--json]
//! ```
//!
//! `faults` (not part of `all`) drives seeded fault schedules through the
//! live SD path and prints the recovery counters — the interactive
//! counterpart of `crates/mcsd-core/tests/faults.rs`.
//!
//! `overload` (not part of `all` either) runs the breaker and admission
//! segments of the shared four-phase scenario
//! (`mcsd_core::chaos::FourPhaseScenario`, seed 40) — circuit-breaker
//! steering and memory-budget re-partitioning — and prints the decision
//! log plus the `OverloadStats` counters, the interactive counterpart of
//! `crates/mcsd-core/tests/overload.rs`.
//!
//! `trace` (not part of `all` either) runs all four segments of that
//! scenario with the DESIGN.md §12 virtual-clock tracer on and writes
//! `trace-<seed>.jsonl` plus `trace-<seed>.chrome.json` — two runs with
//! the same `--seed` on hosts with the same core count produce
//! byte-identical files, which CI asserts with a plain `diff`. Both
//! subcommands exit non-zero if a segment violates a §16 invariant.
//!
//! `failover` (not part of `all` either) walks the DESIGN.md §15
//! replication story on a live three-node group: the leader replica is
//! killed mid-round, the span is promoted instead of re-dispatched,
//! background re-protection restores full redundancy, and a seeded
//! sweep shows exact counter replay — the interactive counterpart of
//! `crates/mcsd-core/tests/replication.rs`.
//!
//! `throughput` (not part of `all` either) times the §15 degraded mode
//! (replicated group of three, one replica killed per run), the §16
//! chaos discovery pass over the shared four-phase scenario (probing
//! counters on versus off), the §17 rack-scale DES run (104 nodes, 1200
//! concurrent jobs), and the §18 batched-daemon call rate at pipelined
//! window depths 1/4/16; `throughput --json` additionally writes
//! `BENCH_10.json` into the working directory.
//!
//! `rack` (not part of `all` either) runs the DESIGN.md §17 rack-scale
//! discrete-event scheduler — `--racks R` racks of (4 hosts + 9 SDs)
//! behind 4:1-oversubscribed uplinks, `--jobs J` seeded concurrent jobs
//! placed by the engine's balanced policy onto per-shard run queues —
//! and writes the arrival/dispatch/completion trace plus the `mcsd.des`
//! counters to `rack-<seed>.jsonl`. Same seed, same bytes, which CI
//! asserts with a plain `diff`.
//!
//! `chaos` (not part of `all` either) runs the DESIGN.md §16
//! deterministic fault-space sweep: discover every counter-deterministic
//! `(site, occurrence)` injection point the replication-rounds, shared
//! four-phase and batched-echo scenarios cross, re-run once per point ×
//! action, audit the invariant catalog (output, durability,
//! at-most-once, fencing, conservation, convergence), and write
//! `chaos-<seed>.json`. Exits non-zero on any invariant violation; same
//! seed, same report bytes, which CI asserts with a plain `diff`.
//!
//! `batched` (not part of `all` either) pre-stages twelve echo requests
//! and drives them through the DESIGN.md §18 batched executor — three
//! coalesced four-request commits off the seeded multi-worker pool —
//! then writes the `sd.*` timeline and `batch.*` counters to
//! `batched-<seed>.jsonl`. Same seed, same bytes, which CI asserts with
//! a plain `diff` of two release-mode runs.
//!
//! Run in release mode: debug builds inflate per-byte compute cost ~25x
//! and distort the compute/IO balance the figures depend on.

use mcsd_bench::table::TextTable;
use mcsd_bench::{ablation, fig8, pairs, ExperimentConfig};
use mcsd_cluster::{paper_testbed, SandiaMicroBenchmark, Scale, SmbPattern};
use mcsd_core::FourPhaseScenario;

fn usage() -> ! {
    eprintln!(
        "usage: mcsd-experiments [all|table1|fig8a|fig8b|fig8c|fig9|fig10|smb|ablations|faults|overload|trace|failover|throughput|chaos|rack|batched] \
         [--scale N] [--seed N] [--racks N] [--jobs N] [--quick] [--csv] [--json]"
    );
    std::process::exit(2);
}

/// Seeded fault sweep through the live framework: one Word Count offload
/// per seed, with the seed's fault schedule disturbing the daemon, the
/// log files, or the heartbeat. Prints the plan, the outcome, and the
/// exact `ResilienceStats` the run produced (replaying a seed reproduces
/// the same counters).
fn fault_sweep(seeds: &[u64]) {
    use mcsd_apps::{seq, TextGen};
    use mcsd_core::{FaultInjector, FaultPlan, McsdFramework, OffloadPolicy, ResilienceConfig};
    use std::time::Duration;

    for &seed in seeds {
        let plan = FaultPlan::from_seed(seed);
        let mut resilience = ResilienceConfig {
            injector: FaultInjector::from_seed(seed),
            ..ResilienceConfig::default()
        };
        resilience.retry.heartbeat_max_age = Duration::from_millis(800);
        resilience.retry.probe_interval = Duration::from_millis(25);
        resilience.call_timeout = Duration::from_secs(6);

        let mut cluster = paper_testbed(Scale::default_experiment());
        for n in &mut cluster.nodes {
            n.memory_bytes = 256 << 20;
        }
        let fw = McsdFramework::start_with(cluster, OffloadPolicy::AlwaysSd, resilience)
            .expect("framework boot");
        let text = TextGen::with_seed(1234).generate(20_000);
        fw.stage_data_local("wc.txt", &text).expect("stage");
        let oracle = seq::wordcount(&text);
        // Two invocations so schedules targeting the second request
        // (`nth == 1`) fire too.
        let mut verdict = "output correct";
        for _ in 0..2 {
            verdict = match fw.wordcount("wc.txt", None) {
                Ok((pairs, _)) if pairs == oracle => verdict,
                Ok(_) => "OUTPUT WRONG",
                Err(_) => "typed error",
            };
        }
        let stats = fw.resilience_stats();
        println!("seed {seed:>3}  wordcount: {verdict:<15} {stats}");
        for f in plan.faults() {
            println!(
                "          scheduled: {:?} #{} {:?}",
                f.site, f.nth, f.action
            );
        }
        for d in fw.degradations() {
            println!("          degraded: {d}");
        }
        fw.stop();
    }
    println!();
}

/// Run `segments` of the shared four-phase scenario, each under its
/// baked fault plan, and narrate every segment's decisions, degradations
/// and counters. Exits non-zero if a segment errs or violates a §16
/// invariant, so a broken clean run cannot pass for a demo or a trace.
/// Returns the segments' summed counters.
fn narrate_segments(
    scenario: &FourPhaseScenario,
    segments: &[usize],
) -> (mcsd_smartfam::DaemonStats, mcsd_core::ResilienceStats) {
    use mcsd_core::{chaos, ChaosScenario, FaultInjector};

    let names = scenario.segment_names();
    let mut daemon = mcsd_smartfam::DaemonStats::default();
    let mut resilience = mcsd_core::ResilienceStats::default();
    for &segment in segments {
        let name = &names[segment];
        println!("### Phase {} — {name}\n", char::from(b'A' + segment as u8));
        let injector = FaultInjector::new(scenario.baked_plan(segment));
        let run = scenario.run(segment, &injector).unwrap_or_else(|e| {
            eprintln!("segment {name} failed: {e}");
            std::process::exit(1);
        });
        for (job, decision) in &run.decisions {
            println!("{job}: {decision:?}");
        }
        for d in &run.degradations {
            println!("degraded: {d}");
        }
        println!("{}", run.resilience);
        let violations = chaos::evaluate(&run.observation);
        for (invariant, detail) in &violations {
            eprintln!("VIOLATION [{}] {name}: {detail}", invariant.label());
        }
        if !violations.is_empty() {
            std::process::exit(1);
        }
        println!("all outputs correct\n");
        daemon.absorb(&run.daemon);
        resilience.absorb(&run.resilience);
    }
    (daemon, resilience)
}

/// Deterministic observability walkthrough (DESIGN.md §12): one shared
/// virtual-clock tracer follows the four-phase scenario's segments, then
/// exports the whole run as JSON-lines and Chrome `trace_event` files.
/// Same seed and host core count, same bytes: CI runs this twice and
/// diffs the outputs.
fn trace_run(seed: u64) {
    use mcsd_obs::export::{chrome, jsonl_with, JsonlOptions};
    use mcsd_obs::{MetricsRegistry, Tracer};

    let tracer = Tracer::enabled();
    let scenario = FourPhaseScenario::new(seed).with_tracer(tracer.clone());
    let (daemon, resilience) = narrate_segments(&scenario, &[0, 1, 2, 3]);

    // One unified registry for the whole run, filled through the typed
    // single-owner publish methods.
    let registry = MetricsRegistry::new();
    daemon.publish(&registry).expect("publish daemon counters");
    resilience
        .publish(&registry)
        .expect("publish resilience counters");
    let jsonl = jsonl_with(
        &tracer,
        JsonlOptions {
            include_volatile: false,
            metrics: Some(&registry),
        },
    );
    let chrome_json = chrome(&tracer);
    let jsonl_path = format!("trace-{seed}.jsonl");
    let chrome_path = format!("trace-{seed}.chrome.json");
    std::fs::write(&jsonl_path, &jsonl).expect("write jsonl trace");
    std::fs::write(&chrome_path, &chrome_json).expect("write chrome trace");
    println!(
        "wrote {jsonl_path} ({} lines) and {chrome_path} — same seed, same bytes",
        jsonl.lines().count()
    );
    println!();
}

/// A live replicated group of three SD nodes (256 MiB each) — the §15
/// failover topology shared by `failover` and `throughput`.
fn group_of_three() -> mcsd_core::MultiSdRunner {
    let mut cluster = mcsd_cluster::multi_sd_testbed(Scale::default_experiment(), 3);
    for n in &mut cluster.nodes {
        n.memory_bytes = 256 << 20;
    }
    mcsd_core::MultiSdRunner::new(cluster).expect("runner boot")
}

/// The §15 kill-one-replica run: a replicated Word Count over `text`
/// whose leader replica crashes mid-run, traced onto `tracer`. The span
/// finishes as a promotion, not a re-dispatch.
fn kill_leader_run(
    runner: &mcsd_core::MultiSdRunner,
    text: &[u8],
    dir: &std::path::Path,
    tracer: &mcsd_obs::Tracer,
) -> mcsd_core::MultiSdReport<String, u64> {
    use mcsd_apps::WordCount;
    use mcsd_core::{ExecMode, FaultAction, FaultInjector, FaultPlan, FaultSite, ReplicationSetup};

    // Replica-site occurrences advance once per (entry, member) pair, so
    // occurrence 9 is the leader copy of span 1's response round — the
    // crash lands after the module work is already durable on a mirror.
    let plan = FaultPlan::none().with(FaultSite::Replica, 9, FaultAction::CrashBefore);
    runner
        .run_replicated(
            &WordCount,
            &WordCount::merger(),
            text,
            ExecMode::Parallel,
            &FaultInjector::new(plan),
            &ReplicationSetup::new(dir).with_tracer(tracer.clone()),
        )
        .expect("replicated run")
}

/// Failover walkthrough (DESIGN.md §15): a live three-member log group
/// loses its leader replica mid-round — after the module already ran —
/// so the span finishes as a promotion of the most-advanced
/// acknowledged mirror instead of a re-dispatch, and background
/// re-protection restores full redundancy before the run returns. A
/// seeded sweep over `FaultPlan::replication_from_seed` then replays
/// each schedule twice and shows the `ReplicationStats` match exactly.
///
/// The kill-one-replica run traces onto the §12 virtual clock and is
/// exported to `failover-<seed>.jsonl` in the working directory — same
/// seed, same bytes, which CI asserts with a plain `diff`.
fn failover_demo(seed: u64) {
    use mcsd_apps::{seq, TextGen, WordCount};
    use mcsd_core::{ExecMode, FaultInjector, FaultPlan, ReplicationSetup};
    use mcsd_obs::export::{jsonl_with, JsonlOptions};
    use mcsd_obs::{MetricsRegistry, Tracer};

    let log_dir = |tag: &str| {
        let dir = std::env::temp_dir().join(format!("mcsd-failover-{}-{tag}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("log dir");
        dir
    };
    let text = TextGen::with_seed(seed).generate(60_000);
    let oracle = seq::wordcount(&text);

    println!("### Kill one replica mid-run: promotion, not re-execution\n");
    let dir = log_dir("kill");
    let tracer = Tracer::enabled();
    let out = kill_leader_run(&group_of_three(), &text, &dir, &tracer);
    let verdict = if out.pairs == oracle {
        "output correct"
    } else {
        "OUTPUT WRONG"
    };
    for (i, outcome) in out.outcomes.iter().enumerate() {
        println!("span {i}: {outcome:?}");
    }
    println!(
        "{verdict}; retries={} redispatches={}; {}",
        out.resilience.retries, out.resilience.redispatches, out.replication
    );
    let _ = std::fs::remove_dir_all(&dir);
    let registry = MetricsRegistry::new();
    out.replication
        .publish(&registry)
        .expect("publish replication counters");
    let jsonl = jsonl_with(
        &tracer,
        JsonlOptions {
            include_volatile: false,
            metrics: Some(&registry),
        },
    );
    let jsonl_path = format!("failover-{seed}.jsonl");
    std::fs::write(&jsonl_path, &jsonl).expect("write failover trace");
    println!(
        "wrote {jsonl_path} ({} lines) — same seed, same bytes",
        jsonl.lines().count()
    );

    println!("\n### Seeded failover sweep — exact counter replay\n");
    for s in seed..seed + 4 {
        let plan = FaultPlan::replication_from_seed(s);
        let mut runs = Vec::new();
        for pass in 0..2 {
            let dir = log_dir(&format!("sweep-{s}-{pass}"));
            let out = group_of_three()
                .run_replicated(
                    &WordCount,
                    &WordCount::merger(),
                    &text,
                    ExecMode::Parallel,
                    &FaultInjector::new(plan.clone()),
                    &ReplicationSetup::new(&dir),
                )
                .expect("replicated run");
            let _ = std::fs::remove_dir_all(&dir);
            runs.push(out);
        }
        let verdict = if runs.iter().all(|r| r.pairs == oracle) {
            "output correct"
        } else {
            "OUTPUT WRONG"
        };
        let replay =
            if runs[0].replication == runs[1].replication && runs[0].outcomes == runs[1].outcomes {
                "replayed exactly"
            } else {
                "REPLAY DIVERGED"
            };
        println!(
            "seed {s:>3}  wordcount: {verdict:<15} {replay:<16} {}",
            runs[0].replication
        );
        for f in plan.faults() {
            println!(
                "          scheduled: {:?} #{} {:?}",
                f.site, f.nth, f.action
            );
        }
    }
    println!();
}

/// Degraded-mode rate for the §15 baseline: repeated replicated runs on
/// a three-member group, each losing one replica mid-run (a promotion,
/// not a re-dispatch). Returns `(jobs, wall_clock_secs)` where a job is
/// one completed span.
fn degraded_throughput(seed: u64) -> (u64, f64) {
    use mcsd_apps::{seq, TextGen};
    use mcsd_core::SpanOutcome;
    use mcsd_obs::Tracer;
    use std::time::Instant;

    const RUNS: u64 = 8;
    let text = TextGen::with_seed(seed).generate(60_000);
    let oracle = seq::wordcount(&text);
    let runner = group_of_three();
    let t0 = Instant::now();
    let mut jobs = 0u64;
    for run in 0..RUNS {
        let dir = std::env::temp_dir().join(format!("mcsd-degraded-{}-{run}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("log dir");
        let out = kill_leader_run(&runner, &text, &dir, &Tracer::disabled());
        assert_eq!(out.pairs, oracle, "degraded run produced wrong output");
        assert!(
            out.outcomes
                .iter()
                .any(|o| matches!(o, SpanOutcome::Promoted { .. })),
            "degraded run never promoted a replica"
        );
        jobs += out.outcomes.len() as u64;
        let _ = std::fs::remove_dir_all(&dir);
    }
    (jobs, t0.elapsed().as_secs_f64())
}

/// Batched-daemon call rate (DESIGN.md §18): one echo daemon in batched
/// mode (multi-worker pool, coalesced one-fsync commits), one host
/// pushing `calls` invocations through a pipelined window of `depth`.
/// Returns `(calls_per_sec, merged BatchStats)` — window-side fields
/// from the host run, commit-side fields from the daemon.
fn batched_call_rate(seed: u64, depth: usize, calls: usize) -> (f64, mcsd_smartfam::BatchStats) {
    use mcsd_smartfam::module::FnModule;
    use mcsd_smartfam::{
        BatchConfig, Daemon, DaemonConfig, HostClient, ModuleRegistry, WindowConfig,
    };
    use std::sync::Arc;
    use std::time::Instant;

    let dir = std::env::temp_dir().join(format!(
        "mcsd-batchrate-{}-{depth}-{seed}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).expect("log dir");
    let registry = ModuleRegistry::new();
    registry.register(Arc::new(FnModule::new("echo", |p: &[String]| {
        Ok(p.join("|").into_bytes())
    })));
    let config = DaemonConfig::new(&dir).with_batching(BatchConfig {
        seed,
        ..BatchConfig::default()
    });
    let mut daemon = Daemon::new(config, registry).spawn().expect("daemon spawn");
    let client = HostClient::new(&dir);
    let params: Vec<Vec<String>> = (0..calls).map(|i| vec![format!("c{i}")]).collect();
    let cfg = WindowConfig::with_depth(depth);
    let t0 = Instant::now();
    let run = client.invoke_window("echo", &params, &cfg);
    let wall = t0.elapsed().as_secs_f64();
    assert!(run.all_ok(), "batched window left calls unanswered");
    daemon.stop();
    let mut stats = run.stats;
    stats.absorb(&daemon.batch_stats());
    let _ = std::fs::remove_dir_all(&dir);
    (calls as f64 / wall, stats)
}

/// Timing baselines: the §15 degraded mode (group of three, one replica
/// killed per run), the §16 chaos discovery pass's clean-run overhead
/// (probing counters on versus off over the four-phase segments), the
/// §17 rack-scale DES run (104 nodes, 1200 concurrent jobs), and the §18
/// batched-daemon call rate at pipelined window depths 1/4/16. With
/// `--json`, also write `BENCH_10.json` into the working directory. The
/// single-shot wall-clock rates are a trajectory marker, not a peak-rate
/// claim; the CI guard reads only the window-16 : window-1 ratio.
fn throughput_run(seed: u64, json: bool) {
    use std::time::Instant;

    let (degraded_jobs, degraded_wall) = degraded_throughput(seed);
    let degraded_jobs_per_sec = degraded_jobs as f64 / degraded_wall;
    println!(
        "degraded mode (one replica killed per run): {degraded_jobs} spans \
         ({degraded_jobs_per_sec:.2}/s); wall-clock: {degraded_wall:.3}s"
    );
    let (plain_wall, _) = chaos_clean_pass(seed, false);
    let (probe_wall, probe_points) = chaos_clean_pass(seed, true);
    println!(
        "chaos discovery (probing counters over the four-phase segments): \
         {probe_points} points; clean pass {plain_wall:.3}s, probed pass {probe_wall:.3}s"
    );
    let rack_cfg = mcsd_core::des::DesConfig::default_experiment(1200, seed);
    let rt0 = Instant::now();
    let rack = mcsd_core::des::run(&rack_cfg, &mcsd_obs::Tracer::disabled());
    let rack_wall = rt0.elapsed().as_secs_f64();
    let rack_jobs_per_sec = rack.report.stats.completed_jobs as f64 / rack_wall;
    println!(
        "rack scale ({} nodes, {} concurrent jobs): {} completed, {} shed \
         ({rack_jobs_per_sec:.0} jobs/s wall-clock, {:.1} jobs/s virtual); wall-clock: {rack_wall:.3}s",
        rack.report.nodes,
        rack_cfg.jobs,
        rack.report.stats.completed_jobs,
        rack.report.stats.shed_jobs,
        rack.report.jobs_per_virtual_sec(),
    );
    // Batched-daemon call rate (DESIGN.md §18): the same 96 echo calls
    // at three pipelined window depths. Depth 1 is the lockstep
    // baseline; the depth-16 : depth-1 ratio is the tentpole claim CI
    // guards (>= 3x).
    const BATCHED_CALLS: usize = 96;
    let (rate1, _) = batched_call_rate(seed, 1, BATCHED_CALLS);
    let (rate4, _) = batched_call_rate(seed, 4, BATCHED_CALLS);
    let (rate16, stats16) = batched_call_rate(seed, 16, BATCHED_CALLS);
    let fsyncs_per_1k = stats16.fsyncs_per_1k_calls().unwrap_or(0);
    println!(
        "batched daemon ({BATCHED_CALLS} echo calls): {rate1:.0}/s at window 1, \
         {rate4:.0}/s at window 4, {rate16:.0}/s at window 16 \
         ({:.1}x over lockstep); {fsyncs_per_1k} fsyncs per 1k calls at depth 16",
        rate16 / rate1
    );
    if json {
        let body = format!(
            "{{\n  \"bench\": \"throughput\",\n  \"pr\": 10,\n  \"seed\": {seed},\n  \
             \"degraded_scenario\": \"replicated group of 3, leader replica killed mid-run (DESIGN.md section 15)\",\n  \
             \"degraded_jobs\": {degraded_jobs},\n  \
             \"degraded_wall_clock_secs\": {degraded_wall:.3},\n  \
             \"degraded_jobs_per_sec\": {degraded_jobs_per_sec:.2},\n  \
             \"chaos_scenario\": \"four-phase segments, clean pass (DESIGN.md section 16)\",\n  \
             \"chaos_points\": {probe_points},\n  \
             \"chaos_clean_wall_clock_secs\": {plain_wall:.3},\n  \
             \"chaos_probed_wall_clock_secs\": {probe_wall:.3},\n  \
             \"rack_scenario\": \"rack-scale DES, 8 racks x (4 hosts + 9 SDs), balanced placement (DESIGN.md section 17)\",\n  \
             \"rack_nodes\": {},\n  \
             \"rack_sds\": {},\n  \
             \"rack_concurrent_jobs\": {},\n  \
             \"rack_completed_jobs\": {},\n  \
             \"rack_shed_jobs\": {},\n  \
             \"rack_wall_clock_secs\": {rack_wall:.3},\n  \
             \"rack_jobs_per_sec\": {rack_jobs_per_sec:.2},\n  \
             \"rack_makespan_virtual_secs\": {:.3},\n  \
             \"rack_jobs_per_virtual_sec\": {:.2},\n  \
             \"batched_scenario\": \"batched daemon, {BATCHED_CALLS} echo calls through a pipelined host window (DESIGN.md section 18)\",\n  \
             \"batched_calls\": {BATCHED_CALLS},\n  \
             \"batched_calls_per_sec_window1\": {rate1:.2},\n  \
             \"batched_calls_per_sec_window4\": {rate4:.2},\n  \
             \"batched_calls_per_sec_window16\": {rate16:.2},\n  \
             \"batched_speedup_window16_over_window1\": {:.2},\n  \
             \"batched_fsyncs_per_1k_calls_window16\": {fsyncs_per_1k}\n}}\n",
            rack.report.nodes,
            rack.report.sds,
            rack_cfg.jobs,
            rack.report.stats.completed_jobs,
            rack.report.stats.shed_jobs,
            rack.report.makespan_us as f64 / 1e6,
            rack.report.jobs_per_virtual_sec(),
            rate16 / rate1,
        );
        std::fs::write("BENCH_10.json", body).expect("write BENCH_10.json");
        println!("wrote BENCH_10.json");
    }
    println!();
}

/// Rack-scale run (DESIGN.md §17): `racks` racks of (4 hosts + 9 SDs)
/// behind 4:1-oversubscribed top-of-rack uplinks, `jobs` seeded
/// concurrent jobs through the deterministic discrete-event loop. The
/// arrival/dispatch/completion/shed timeline (§12 `des` track) and the
/// `mcsd.des` counters are exported to `rack-<seed>.jsonl` — same seed,
/// same bytes, which CI asserts with a plain `diff` of two runs.
fn rack_run(racks: u32, jobs: u64, seed: u64) {
    use mcsd_core::des::{self, DesConfig};
    use mcsd_obs::export::{jsonl_with, JsonlOptions};
    use mcsd_obs::{MetricsRegistry, Tracer};
    use std::time::Instant;

    let mut cfg = DesConfig::default_experiment(jobs, seed);
    cfg.spec.racks = racks.max(1);
    println!(
        "topology: {} racks x ({} hosts + {} SDs) = {} nodes; uplink {}:1 oversubscribed",
        cfg.spec.racks,
        cfg.spec.hosts_per_rack,
        cfg.spec.sds_per_rack,
        cfg.spec.total_nodes(),
        cfg.spec.uplink_oversubscription,
    );
    let tracer = Tracer::enabled();
    let t0 = Instant::now();
    let run = des::run(&cfg, &tracer);
    let wall = t0.elapsed().as_secs_f64();
    let registry = MetricsRegistry::new();
    run.report
        .stats
        .publish(&registry)
        .expect("publish DES counters");
    let jsonl = jsonl_with(
        &tracer,
        JsonlOptions {
            include_volatile: false,
            metrics: Some(&registry),
        },
    );
    let path = format!("rack-{seed}.jsonl");
    std::fs::write(&path, &jsonl).expect("write rack trace");
    println!("{}", run.report);
    assert!(
        run.report.stats.is_conserved(),
        "DES run must conserve jobs (arrivals == completed + shed)"
    );
    println!(
        "wall-clock: {wall:.3}s ({:.0} completed jobs/sec)",
        run.report.stats.completed_jobs as f64 / wall
    );
    println!(
        "wrote {path} ({} lines) — same seed, same bytes",
        jsonl.lines().count()
    );
    println!();
}

/// Time one clean pass of every four-phase segment. `probe` selects a
/// counting (probing) injector versus a plain one — the difference is
/// the discovery pass's overhead, recorded in `BENCH_8.json`.
fn chaos_clean_pass(seed: u64, probe: bool) -> (f64, u64) {
    use mcsd_core::{chaos, ChaosScenario, FaultInjector, FaultSite};
    use std::time::Instant;

    let scenario = FourPhaseScenario::new(seed);
    let t0 = Instant::now();
    let mut points = 0u64;
    for segment in 0..scenario.segment_names().len() {
        let baked = scenario.baked_plan(segment);
        let injector = if probe {
            FaultInjector::probing(baked)
        } else {
            FaultInjector::new(baked)
        };
        let obs = scenario
            .run_segment(segment, &injector)
            .expect("clean four-phase segment");
        assert!(
            chaos::evaluate(&obs).is_empty(),
            "clean segment {segment} violated an invariant"
        );
        for site in FaultSite::ALL {
            if site.counter_deterministic() {
                points += injector.occurrences(site);
            }
        }
    }
    (t0.elapsed().as_secs_f64(), points)
}

/// The §16 chaos sweep: enumerate every counter-deterministic fault
/// point the replication-rounds and four-phase scenarios cross, inject
/// every applicable action at each, audit the invariant catalog, and
/// write both reports to `chaos-<seed>.json`. Exits non-zero on any
/// invariant violation; two consecutive runs produce byte-identical
/// reports, which CI asserts with a plain `diff`.
fn chaos_run(seed: u64) {
    use mcsd_core::chaos::{self, BatchedEchoScenario, ReplicationRoundsScenario};
    use mcsd_obs::Tracer;

    let tracer = Tracer::disabled();
    let dir = std::env::temp_dir().join(format!("mcsd-chaos-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("chaos scratch dir");
    let replication = chaos::run_sweep(&ReplicationRoundsScenario::new(seed, &dir), seed, &tracer)
        .expect("replication sweep");
    println!("{}", replication.render_table());
    let four =
        chaos::run_sweep(&FourPhaseScenario::new(seed), seed, &tracer).expect("four-phase sweep");
    println!("{}", four.render_table());
    let batched = chaos::run_sweep(&BatchedEchoScenario::new(seed, &dir), seed, &tracer)
        .expect("batched sweep");
    let _ = std::fs::remove_dir_all(&dir);
    println!("{}", batched.render_table());

    let path = format!("chaos-{seed}.json");
    let body = format!(
        "[\n{},\n{},\n{}\n]\n",
        replication.to_json(),
        four.to_json(),
        batched.to_json()
    );
    std::fs::write(&path, body).expect("write chaos report");
    println!("wrote {path}");

    let violations =
        replication.violations.len() + four.violations.len() + batched.violations.len();
    if violations > 0 {
        eprintln!("chaos: {violations} invariant violation(s)");
        std::process::exit(1);
    }
    println!();
}

/// Deterministic batched-dispatch walkthrough (DESIGN.md §18): twelve
/// echo requests are pre-staged into the module log *before* the daemon
/// starts, so the replay scan queues them all and the multi-worker
/// batched executor forms exactly three four-request batches — batch
/// formation, worker assignment, completion order, and the coalesced
/// commits are all a pure function of the request sequence and the
/// `BatchConfig` seed. The `sd.*` timeline and the `batch.*` counters
/// are exported to `batched-<seed>.jsonl`; same seed, same bytes, which
/// CI asserts with a plain `diff` of two release-mode runs.
fn batched_run(seed: u64) {
    use mcsd_obs::export::{jsonl_with, JsonlOptions};
    use mcsd_obs::{MetricsRegistry, Tracer};
    use mcsd_smartfam::module::FnModule;
    use mcsd_smartfam::{BatchConfig, Daemon, DaemonConfig, HostClient, ModuleRegistry};
    use std::sync::Arc;
    use std::time::Duration;

    const REQUESTS: usize = 12;
    let dir = std::env::temp_dir().join(format!("mcsd-batched-{}-{seed}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("log dir");
    let registry = ModuleRegistry::new();
    registry.register(Arc::new(FnModule::new("echo", |p: &[String]| {
        Ok(p.join("|").into_bytes())
    })));
    let client = HostClient::new(&dir);
    let pendings: Vec<_> = (0..REQUESTS)
        .map(|i| {
            client
                .submit("echo", &[format!("r{i}-{seed}")])
                .expect("submit request")
        })
        .collect();
    let tracer = Tracer::enabled();
    let config = DaemonConfig::new(&dir)
        .with_tracer(tracer.clone())
        .with_batching(BatchConfig {
            workers: 4,
            max_batch: 4,
            seed,
        });
    let mut daemon = Daemon::new(config, registry).spawn().expect("daemon spawn");
    for (i, pending) in pendings.into_iter().enumerate() {
        let out = pending.wait(Duration::from_secs(60)).expect("response");
        assert_eq!(
            out.payload,
            format!("r{i}-{seed}").into_bytes(),
            "batched response diverged"
        );
    }
    daemon.stop();
    let batch = daemon.batch_stats();
    let stats = daemon.stats();
    println!(
        "{REQUESTS} pre-staged echo calls through the batched executor: ok={}; {batch}",
        stats.ok
    );

    let metrics = MetricsRegistry::new();
    stats.publish(&metrics).expect("publish daemon counters");
    batch.publish(&metrics).expect("publish batch counters");
    let jsonl = jsonl_with(
        &tracer,
        JsonlOptions {
            include_volatile: false,
            metrics: Some(&metrics),
        },
    );
    let path = format!("batched-{seed}.jsonl");
    std::fs::write(&path, &jsonl).expect("write batched trace");
    let _ = std::fs::remove_dir_all(&dir);
    println!(
        "wrote {path} ({} lines) — same seed, same bytes",
        jsonl.lines().count()
    );
    println!();
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut which: Vec<String> = Vec::new();
    let mut cfg = ExperimentConfig::default_run();
    let mut csv = false;
    let mut json = false;
    let mut seed: u64 = 42;
    let mut racks: u32 = 8;
    let mut rack_jobs: u64 = 1200;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => cfg = ExperimentConfig::quick(),
            "--csv" => csv = true,
            "--json" => json = true,
            "--scale" => {
                i += 1;
                let divisor = args
                    .get(i)
                    .and_then(|s| s.parse::<u64>().ok())
                    .unwrap_or_else(|| usage());
                cfg.scale = Scale {
                    divisor: divisor.max(1),
                };
            }
            "--seed" => {
                i += 1;
                seed = args
                    .get(i)
                    .and_then(|s| s.parse::<u64>().ok())
                    .unwrap_or_else(|| usage());
            }
            "--racks" => {
                i += 1;
                racks = args
                    .get(i)
                    .and_then(|s| s.parse::<u32>().ok())
                    .unwrap_or_else(|| usage());
            }
            "--jobs" => {
                i += 1;
                rack_jobs = args
                    .get(i)
                    .and_then(|s| s.parse::<u64>().ok())
                    .unwrap_or_else(|| usage());
            }
            flag if flag.starts_with('-') => usage(),
            name => which.push(name.to_string()),
        }
        i += 1;
    }
    if which.is_empty() {
        which.push("all".to_string());
    }
    let all = which.iter().any(|w| w == "all");
    let want = |name: &str| all || which.iter().any(|w| w == name);
    let show = |t: &TextTable| if csv { t.render_csv() } else { t.render() };

    println!("# McSD experiment harness");
    println!(
        "# scale: 1/{} (paper bytes per experiment byte); build: {}",
        cfg.scale.divisor,
        if cfg!(debug_assertions) {
            "DEBUG (numbers distorted; use --release)"
        } else {
            "release"
        }
    );
    println!();

    if want("table1") {
        println!("## Table I — testbed configuration\n");
        println!("{}", paper_testbed(cfg.scale).table1());
    }
    if want("fig8a") {
        println!("## Fig. 8(a) — single-application speedups (partition-enabled vs original vs sequential)\n");
        let rows = fig8::fig8a(&cfg).expect("fig8a sweep");
        println!("{}", show(&fig8::fig8a_table(&rows)));
    }
    if want("fig8b") {
        println!("## Fig. 8(b) — Word Count growth curve (elapsed vs size)\n");
        let points = fig8::fig8_growth(&cfg, fig8::AppKind::WordCount).expect("fig8b sweep");
        println!(
            "{}",
            show(&fig8::growth_table(fig8::AppKind::WordCount, &points))
        );
    }
    if want("fig8c") {
        println!("## Fig. 8(c) — String Match growth curve (elapsed vs size)\n");
        let points = fig8::fig8_growth(&cfg, fig8::AppKind::StringMatch).expect("fig8c sweep");
        println!(
            "{}",
            show(&fig8::growth_table(fig8::AppKind::StringMatch, &points))
        );
    }
    if want("fig9") {
        println!("## Fig. 9 — MM/WC pair: speedup of McSD over each scenario\n");
        let results = pairs::run_pair_figure(&cfg, pairs::PairKind::MmWc).expect("fig9 runs");
        println!(
            "{}",
            show(&pairs::pair_table(pairs::PairKind::MmWc, &results))
        );
    }
    if want("fig10") {
        println!("## Fig. 10 — MM/SM pair: speedup of McSD over each scenario\n");
        let results = pairs::run_pair_figure(&cfg, pairs::PairKind::MmSm).expect("fig10 runs");
        println!(
            "{}",
            show(&pairs::pair_table(pairs::PairKind::MmSm, &results))
        );
    }
    if want("smb") {
        println!("## SMB — modelled routine-work traffic (§V-A)\n");
        let smb = SandiaMicroBenchmark::new(paper_testbed(cfg.scale).network);
        for (name, pattern) in [
            (
                "pingpong 1KB x100",
                SmbPattern::PingPong {
                    message_bytes: 1024,
                    rounds: 100,
                },
            ),
            (
                "pingpong 1MB x10",
                SmbPattern::PingPong {
                    message_bytes: 1 << 20,
                    rounds: 10,
                },
            ),
            (
                "allreduce 4 nodes 64KB x10",
                SmbPattern::AllReduce {
                    participants: 4,
                    message_bytes: 64 << 10,
                    rounds: 10,
                },
            ),
            (
                "broadcast 4 nodes 1MB x5",
                SmbPattern::Broadcast {
                    participants: 4,
                    message_bytes: 1 << 20,
                    rounds: 5,
                },
            ),
        ] {
            let r = smb.run(pattern);
            println!(
                "{name:<28} elapsed={:>12?}  goodput={:>8.1} MB/s",
                r.elapsed,
                r.goodput_bytes_per_sec / 1e6
            );
        }
        println!();
    }
    if want("ablations") {
        println!("## Ablation: partition size (WC @ 1G, duo SD)\n");
        println!(
            "{}",
            show(&ablation::partition_size_table(
                &ablation::partition_size_sweep(&cfg).expect("partition sweep")
            ))
        );
        println!("## Ablation: SD core count (WC @ 1G, partitioned)\n");
        println!(
            "{}",
            show(&ablation::worker_table(
                &ablation::worker_sweep(&cfg).expect("worker sweep")
            ))
        );
        println!("## Ablation: interconnect fabric (cost of moving a 1G input)\n");
        println!(
            "{}",
            show(&ablation::network_table(
                &ablation::network_sweep(&cfg).expect("network sweep")
            ))
        );
        println!("## Ablation: multi-SD scale-out (WC @ 2G, §VI future work)\n");
        println!(
            "{}",
            show(&ablation::multisd_table(
                &ablation::multisd_sweep(&cfg).expect("multi-SD sweep")
            ))
        );
        println!("## Ablation: integrity check (Fig. 7)\n");
        let (correct, broken, differing) =
            ablation::integrity_ablation(&cfg).expect("integrity ablation");
        println!(
            "with integrity check: {correct} distinct words (correct)\n\
             without (raw byte cuts): {broken} distinct words, {differing} words with corrupted counts\n"
        );
    }
    // Deliberately excluded from `all`: fault seeds stall the real clock
    // (crash detection, heartbeat probes) and would slow the figure run.
    if which.iter().any(|w| w == "faults") {
        println!("## Fault matrix — seeded injection through the live SD path\n");
        fault_sweep(&[0, 3, 12, 17]);
    }
    // Same exclusion from `all`: breaker cooldowns and live daemons make
    // this a demo, not a figure.
    if which.iter().any(|w| w == "overload") {
        println!("## Overload protection — breaker steering and memory admission\n");
        narrate_segments(&FourPhaseScenario::new(40), &[1, 3]);
    }
    // Excluded from `all`: writes trace files into the working directory.
    if which.iter().any(|w| w == "trace") {
        println!("## Deterministic trace — four-phase observability walkthrough (seed {seed})\n");
        trace_run(seed);
    }
    // Excluded from `all`: live log groups and seeded crashes make this
    // a §15 resilience demo, not a figure.
    if which.iter().any(|w| w == "failover") {
        println!("## Failover — replicated log groups, promotion, re-protection (seed {seed})\n");
        failover_demo(seed);
    }
    // Excluded from `all`: a timing baseline, not a paper figure.
    if which.iter().any(|w| w == "throughput") {
        println!("## Throughput baseline — degraded mode, chaos pass, rack, batched daemon (seed {seed})\n");
        throughput_run(seed, json);
    }
    // Excluded from `all`: an exhaustive robustness audit (tens of
    // injected re-runs), not a figure. Exits non-zero on violations.
    if which.iter().any(|w| w == "chaos") {
        println!("## Chaos sweep — exhaustive fault-space exploration (seed {seed})\n");
        chaos_run(seed);
    }
    // Excluded from `all`: writes a trace file into the working
    // directory, and its scale is driven by --racks/--jobs, not --scale.
    if which.iter().any(|w| w == "rack") {
        println!("## Rack scale — discrete-event scheduler, DESIGN.md section 17 (seed {seed})\n");
        rack_run(racks, rack_jobs, seed);
    }
    // Excluded from `all`: writes a trace file into the working
    // directory; the §18 determinism demo, not a figure.
    if which.iter().any(|w| w == "batched") {
        println!("## Batched dispatch — coalesced commits and the multi-worker pool, DESIGN.md section 18 (seed {seed})\n");
        batched_run(seed);
    }
}
