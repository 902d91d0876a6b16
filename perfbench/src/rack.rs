//! The rack simulator's probe: back-to-back discrete-event simulations,
//! plus the placement, shard-queue and transfer-model ladder on the same
//! job stream. Every traced run measures it; it is not a workload of its
//! own (see README.md).

use crate::gen::{rack_config, rack_config_sized, LONG_RACK_JOBS};
use crate::stats::median;
use crate::trace::Spans;
use crate::{ms_since, Metrics, Tally};
use mcsd_cluster::RackTopology;
use mcsd_core::offload::Offloader;
use mcsd_core::{des, synthesize_workload, DesConfig, DesJob, RackReport, ShardQueue};
use mcsd_obs::Tracer;
use std::hint::black_box;
use std::time::Instant;

/// Syntheses timed for `mcsd_core.des.synthesize_ms`.
const SYNTH_REPS: usize = 3;
/// Simulations per run at the least: the same-seed rerun check needs two.
const MIN_SIMS: u64 = 2;

pub struct RackRun {
    synthesize_ms: Vec<f64>,
    sim_ms: Vec<f64>,
    pub tally: Tally,
    cfg: DesConfig,
    topo: RackTopology,
    jobs: Vec<DesJob>,
    report: Option<RackReport>,
}

/// Simulate the seed's configuration back to back for `secs`, tracing
/// every simulation, and check each one.
pub fn run(seed: u64, secs: f64, spans: &Spans) -> RackRun {
    let cfg = rack_config(seed);
    let topo = cfg.spec.build(cfg.scale);
    let mut synthesize_ms = Vec::new();
    let mut jobs = Vec::new();
    for _ in 0..SYNTH_REPS {
        let t0 = Instant::now();
        jobs = synthesize_workload(&cfg, &topo);
        synthesize_ms.push(ms_since(t0));
    }
    let mut run = RackRun {
        synthesize_ms,
        sim_ms: Vec::new(),
        tally: Tally::default(),
        cfg,
        topo,
        jobs,
        report: None,
    };
    let tracer = Tracer::disabled();
    let start = Instant::now();
    let mut op = 0u64;
    spans.set_enabled(true);
    while op < MIN_SIMS || start.elapsed().as_secs_f64() < secs {
        let t0 = Instant::now();
        let sim = spans.span("des.run", op, || des::run(&run.cfg, &tracer));
        let ms = ms_since(t0);
        let report = sim.report;
        let stats = report.stats;
        let conserved = stats.is_conserved()
            && stats.arrivals == run.cfg.jobs
            && stats.completed_jobs + stats.shed_jobs == run.cfg.jobs;
        let repeats = run.report.is_none_or(|first| first == report);
        if run
            .tally
            .check(Ok::<bool, String>(conserved && repeats), &true)
        {
            run.sim_ms.push(ms);
        }
        run.report.get_or_insert(report);
        op += 1;
    }
    spans.set_enabled(false);
    run
}

impl RackRun {
    /// Placement, shard queue and transfer model replayed on the run's own
    /// job stream, what of the event loop they leave unexplained, and the
    /// rate of one long simulation.
    pub fn ladder(&mut self, out: &mut Metrics) {
        const REPS: usize = 3;
        let n = self.jobs.len() as f64;
        let per_job_ns = |f: &mut dyn FnMut()| {
            let reps: Vec<f64> = (0..REPS)
                .map(|_| {
                    let t0 = Instant::now();
                    f();
                    t0.elapsed().as_nanos() as f64 / n
                })
                .collect();
            median(&reps)
        };
        let decide_ns = per_job_ns(&mut || {
            let mut offloader = Offloader::for_nodes(self.cfg.policy, &self.topo.cluster.nodes);
            for job in &self.jobs {
                black_box(offloader.decide(black_box(&job.profile)));
            }
        });
        let cycle_ns = per_job_ns(&mut || {
            let mut queue = ShardQueue::new(2, self.cfg.queue_depth);
            for job in &self.jobs {
                black_box(queue.try_enqueue(job.id));
                black_box(queue.try_start());
                queue.finish();
            }
        });
        let sd_ids = self.topo.sd_ids();
        let transfer_ns = per_job_ns(&mut || {
            for job in &self.jobs {
                let same = self.topo.same_rack(sd_ids[job.data_sd], job.source);
                black_box(
                    self.topo
                        .network
                        .transfer_time(same, black_box(job.profile.input_bytes)),
                );
            }
        });
        out.push("mcsd_core.offload.decide_ns", decide_ns);
        out.push("mcsd_core.shard_queue.cycle_ns", cycle_ns);
        out.push("cluster.rack.transfer_ns", transfer_ns);
        let synthesize_ms = median(&self.synthesize_ms);
        let run_ms = median(&self.sim_ms);
        out.push("mcsd_core.des.synthesize_ms", synthesize_ms);
        out.push("mcsd_core.des.run_ms", run_ms);
        // Each job is placed once, cycles its queue once and moves its
        // input at most once.
        let layers_ms = (decide_ns + cycle_ns + transfer_ns) * n / 1e6;
        out.push(
            "mcsd_core.des.loop_unattributed_ms",
            run_ms - synthesize_ms - layers_ms,
        );
        let long = rack_config_sized(self.cfg.seed, LONG_RACK_JOBS);
        let t0 = Instant::now();
        let stats = des::run(&long, &Tracer::disabled()).report.stats;
        let secs = t0.elapsed().as_secs_f64();
        let conserved = stats.is_conserved() && stats.arrivals == LONG_RACK_JOBS;
        self.tally.check(Ok::<bool, String>(conserved), &true);
        out.push(
            "mcsd_core.des.long_run_jobs_per_s",
            LONG_RACK_JOBS as f64 / secs,
        );
        let report = self.report.expect("at least one simulation");
        out.push(
            "mcsd_core.des.completed",
            report.stats.completed_jobs as f64,
        );
        out.push("mcsd_core.des.shed", report.stats.shed_jobs as f64);
        out.push(
            "mcsd_core.des.cross_rack_transfers",
            report.stats.cross_rack_transfers as f64,
        );
        out.push(
            "mcsd_core.des.makespan_virtual_s",
            report.makespan_us as f64 / 1e6,
        );
    }
}
