//! `offload-jobs`: closed-loop Word Count, String Match and Matrix
//! Multiply jobs through `McsdFramework`, plus the Phoenix, framework and
//! engine ladder.

use crate::gen::{job_pool, App, JobPlan, PoolInput};
use crate::stats::{mean, median};
use crate::trace::Spans;
use crate::{ms_since, Metrics, Tally, TraceMode};
use mcsd_apps::{datagen, seq, Matrix, StringMatch, TextGen, WordCount};
use mcsd_cluster::{paper_testbed, Scale};
use mcsd_core::modules::{StringMatchModule, WordCountModule};
use mcsd_core::{JobProfile, McsdFramework, OffloadPolicy};
use mcsd_phoenix::{Job, JobStats, PartitionSpec, PartitionedRuntime, PhoenixConfig, Runtime};
use mcsd_smartfam::Frame;
use std::hint::black_box;
use std::time::Instant;

const SETUP_REPS: usize = 7;
/// Isolated Phoenix runs per in-memory input.
const PHOENIX_REPS: usize = 2;
const MIB: f64 = 1024.0 * 1024.0;

enum Data {
    Text(Vec<u8>),
    Match { encrypt: Vec<u8>, keys: Vec<String> },
    Matrices(Matrix, Matrix),
}

enum Expect {
    Counts(Vec<(String, u64)>),
    Matches(Vec<(u64, u32)>),
    Product(Matrix),
}

struct Input {
    spec: PoolInput,
    data: Data,
    expect: Expect,
}

impl Input {
    fn generate(spec: PoolInput) -> Input {
        let seed = spec.content_seed;
        let (data, expect) = match spec.app {
            App::WordCount => {
                let text = TextGen::with_seed(seed).generate(spec.size);
                let counts = seq::wordcount(&text);
                (Data::Text(text), Expect::Counts(counts))
            }
            App::StringMatch => {
                let keys = datagen::keys_file(8, 8, seed);
                let encrypt = datagen::encrypt_file(spec.size, &keys, 0.05, seed ^ 1);
                let matches = seq::stringmatch(&keys, &encrypt);
                (Data::Match { encrypt, keys }, Expect::Matches(matches))
            }
            App::MatMul => {
                let (a, b) = datagen::matrix_pair(spec.size, spec.size, spec.size, seed);
                let c = seq::matmul(&a, &b);
                (Data::Matrices(a, b), Expect::Product(c))
            }
        };
        Input { spec, data, expect }
    }

    fn bytes(&self) -> usize {
        match &self.data {
            Data::Text(t) => t.len(),
            Data::Match { encrypt, .. } => encrypt.len(),
            Data::Matrices(a, b) => a.byte_len() + b.byte_len(),
        }
    }

    fn keys_file(&self) -> String {
        format!("{}.keys", self.spec.file)
    }

    fn partition(&self) -> Option<&'static str> {
        self.spec.partitioned.then_some("auto")
    }
}

pub struct JobsRun {
    pub setup_s: Vec<f64>,
    stage_mb_per_s: Vec<f64>,
    /// Per job: pool index, latency in ms, whether it was traced.
    pub job_ms: Vec<(usize, f64, bool)>,
    pub job_secs: f64,
    pub job_bytes: u64,
    pub tally: Tally,
    inputs: Vec<Input>,
    fw: McsdFramework,
}

fn stage(fw: &McsdFramework, inputs: &[Input]) -> Result<u64, String> {
    let mut staged = 0u64;
    for input in inputs {
        let name = &input.spec.file;
        let result = match &input.data {
            Data::Text(text) => fw.stage_data_local(name, text),
            Data::Match { encrypt, keys } => fw
                .stage_data_local(name, encrypt)
                .and_then(|_| fw.stage_data_local(&input.keys_file(), keys.join("\n").as_bytes())),
            Data::Matrices(..) => continue,
        };
        result.map_err(|e| format!("staging {name}: {e}"))?;
        staged += input.bytes() as u64;
    }
    Ok(staged)
}

pub fn run(seed: u64, secs: f64, spans: &Spans, mode: TraceMode) -> Result<JobsRun, String> {
    let pool = job_pool(seed);
    let inputs: Vec<Input> = pool.iter().cloned().map(Input::generate).collect();
    let mut setup_s = Vec::new();
    let mut stage_mb_per_s = Vec::new();
    let mut booted: Option<McsdFramework> = None;
    for _ in 0..SETUP_REPS {
        if let Some(old) = booted.take() {
            old.stop();
        }
        let t0 = Instant::now();
        let fw = McsdFramework::start(
            paper_testbed(Scale::default_experiment()),
            OffloadPolicy::DataIntensiveToSd,
        )
        .map_err(|e| format!("framework start: {e}"))?;
        let t_stage = Instant::now();
        let staged = stage(&fw, &inputs)?;
        stage_mb_per_s.push(staged as f64 / MIB / t_stage.elapsed().as_secs_f64());
        setup_s.push(t0.elapsed().as_secs_f64());
        booted = Some(fw);
    }
    let fw = booted.expect("at least one set-up");
    let mut run = JobsRun {
        setup_s,
        stage_mb_per_s,
        job_ms: Vec::new(),
        job_secs: 0.0,
        job_bytes: 0,
        tally: Tally::default(),
        inputs,
        fw,
    };
    let mut plan = JobPlan::new(seed, &pool);
    let per_cycle = plan.cycle_len() as u64;
    let start = Instant::now();
    let mut op = 0u64;
    while op < per_cycle || start.elapsed().as_secs_f64() < secs {
        let idx = plan.next_job();
        let traced = mode.traces(op);
        spans.set_enabled(traced);
        let t0 = Instant::now();
        let ok = run.job(idx, op, spans);
        let ms = ms_since(t0);
        if ok {
            run.job_ms.push((idx, ms, traced));
            run.job_secs += ms / 1e3;
            run.job_bytes += run.inputs[idx].bytes() as u64;
        }
        op += 1;
    }
    spans.set_enabled(false);
    Ok(run)
}

impl JobsRun {
    /// Run pool input `idx` as one job and check its output.
    fn job(&mut self, idx: usize, op: u64, spans: &Spans) -> bool {
        let input = &self.inputs[idx];
        let fw = &self.fw;
        let file = &input.spec.file;
        match (&input.data, &input.expect) {
            (Data::Text(_), Expect::Counts(want)) => {
                let got = spans.span("framework.wordcount", op, || {
                    fw.wordcount(file, input.partition())
                });
                self.tally.check(got.map(|(counts, _)| counts), want)
            }
            (Data::Match { .. }, Expect::Matches(want)) => {
                let got = spans.span("framework.stringmatch", op, || {
                    fw.stringmatch(file, &input.keys_file(), input.partition())
                });
                self.tally.check(got.map(|(matches, _)| matches), want)
            }
            (Data::Matrices(a, b), Expect::Product(want)) => {
                let got = spans.span("framework.matmul", op, || fw.matmul(a, b));
                let close = got.map(|(c, _)| c.max_abs_diff(want) < 1e-9);
                self.tally.check(close, &true)
            }
            _ => unreachable!("data and oracle are generated together"),
        }
    }

    pub fn latencies_ms(&self) -> Vec<f64> {
        self.job_ms.iter().map(|&(_, ms, _)| ms).collect()
    }

    /// Request and response frames of every staged job, as the framework
    /// sends them.
    pub fn frames(&self) -> Vec<Frame> {
        let mut frames = Vec::new();
        for (i, input) in self.inputs.iter().enumerate() {
            let id = i as u64;
            let mut params = vec![input.spec.file.clone()];
            let payload = match &input.expect {
                Expect::Counts(c) => WordCountModule::encode(c),
                Expect::Matches(m) => {
                    params.push(input.keys_file());
                    StringMatchModule::encode(m)
                }
                Expect::Product(_) => continue,
            };
            params.extend(input.partition().map(str::to_string));
            frames.push(Frame::request(id, params));
            frames.push(Frame::response_ok(id, payload));
        }
        frames
    }

    /// Phoenix per phase on the workload's own inputs, the framework's
    /// overhead over it, and the engine's placement decision.
    pub fn ladder(&mut self, out: &mut Metrics) -> Result<(), String> {
        out.push(
            "mcsd_core.framework.degraded_jobs",
            self.fw.degradations().len() as f64,
        );
        let profiles: Vec<JobProfile> = self
            .inputs
            .iter()
            .map(|input| JobProfile {
                name: match input.spec.app {
                    App::WordCount => "wordcount",
                    App::StringMatch => "stringmatch",
                    App::MatMul => "matmul",
                }
                .into(),
                input_bytes: input.bytes() as u64,
                compute_per_byte: match input.spec.app {
                    App::WordCount => 10.0,
                    App::StringMatch => 20.0,
                    App::MatMul => 5_000.0,
                },
                data_on_sd: input.spec.app != App::MatMul,
            })
            .collect();
        const DECISIONS: usize = 20_000;
        let t0 = Instant::now();
        for i in 0..DECISIONS {
            black_box(self.fw.decide(black_box(&profiles[i % profiles.len()])));
        }
        out.push(
            "mcsd_core.engine.decide_ns",
            t0.elapsed().as_nanos() as f64 / DECISIONS as f64,
        );
        out.push(
            "mcsd_core.framework.stage_mb_per_s",
            median(&self.stage_mb_per_s),
        );

        let sd = self.fw.cluster().sd().clone();
        let config = PhoenixConfig::with_workers(sd.cores).memory(sd.memory_model());
        let mut phases: [Vec<JobStats>; 2] = [Vec::new(), Vec::new()];
        let mut isolated_ms = vec![Vec::new(); self.inputs.len()];
        let (mut part_ms, mut fragments) = (Vec::new(), Vec::new());
        for (i, input) in self.inputs.iter().enumerate() {
            if input.spec.app == App::MatMul {
                continue;
            }
            let reps = if input.spec.partitioned {
                1
            } else {
                PHOENIX_REPS
            };
            for _ in 0..reps {
                let t0 = Instant::now();
                let (stats, ok) = phoenix_run(input, &config, sd.memory_model())?;
                let ms = ms_since(t0);
                self.tally.check(Ok::<bool, String>(ok), &true);
                if input.spec.partitioned {
                    part_ms.push(ms);
                    fragments.push(stats.fragments as f64);
                } else {
                    isolated_ms[i].push(ms);
                    phases[usize::from(input.spec.app == App::StringMatch)].push(stats);
                }
            }
        }
        for (app, runs) in ["wc", "sm"].iter().zip(&phases) {
            let per_run: Vec<[f64; 4]> = runs
                .iter()
                .map(|s| {
                    let t = &s.timings;
                    [t.split, t.map, t.reduce, t.merge].map(|d| d.as_secs_f64() * 1e3)
                })
                .collect();
            for (k, phase) in ["split", "map", "reduce", "merge"].iter().enumerate() {
                let ms: Vec<f64> = per_run.iter().map(|p| p[k]).collect();
                out.push(format!("phoenix.{app}.{phase}_ms"), median(&ms));
            }
        }
        let wc = &phases[0];
        out.push(
            "phoenix.combine_ratio",
            mean(&wc.iter().map(JobStats::combine_ratio).collect::<Vec<_>>()),
        );
        out.push(
            "phoenix.wc.mb_per_s",
            median(
                &wc.iter()
                    .map(|s| s.throughput_bytes_per_sec() / MIB)
                    .collect::<Vec<_>>(),
            ),
        );
        out.push("phoenix.partition.run_ms", median(&part_ms));
        out.push("phoenix.partition.fragments", mean(&fragments));

        let overhead: Vec<f64> = self
            .job_ms
            .iter()
            .filter(|(idx, _, _)| !isolated_ms[*idx].is_empty())
            .map(|&(idx, ms, _)| ms - median(&isolated_ms[idx]))
            .collect();
        out.push("mcsd_core.framework.overhead_ms", median(&overhead));
        Ok(())
    }
}

/// Run `input` on Phoenix alone, configured as the SD node's module
/// configures it; returns the stats and whether the output matched.
fn phoenix_run(
    input: &Input,
    config: &PhoenixConfig,
    memory: mcsd_phoenix::MemoryModel,
) -> Result<(JobStats, bool), String> {
    let runtime = Runtime::new(config.clone());
    let partition = |footprint: f64| PartitionSpec::auto(&memory, footprint);
    let err = |e: mcsd_phoenix::PhoenixError| e.to_string();
    Ok(match (&input.data, &input.expect) {
        (Data::Text(text), Expect::Counts(want)) => {
            let out = if input.spec.partitioned {
                PartitionedRuntime::new(runtime, partition(WordCount.footprint_factor())).run(
                    &WordCount,
                    text,
                    &WordCount::merger(),
                )
            } else {
                runtime.run(&WordCount, text)
            }
            .map_err(err)?;
            (out.stats, &out.pairs == want)
        }
        (Data::Match { encrypt, keys }, Expect::Matches(want)) => {
            let job = StringMatch::new(keys);
            let out = if input.spec.partitioned {
                PartitionedRuntime::new(runtime, partition(job.footprint_factor())).run(
                    &job,
                    encrypt,
                    &StringMatch::merger(),
                )
            } else {
                runtime.run(&job, encrypt)
            }
            .map_err(err)?;
            (out.stats, &out.pairs == want)
        }
        _ => unreachable!("only Word Count and String Match run on Phoenix here"),
    })
}
