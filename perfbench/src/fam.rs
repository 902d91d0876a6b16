//! `fam-rpc`: closed-loop smartFAM calls against a batched daemon serving
//! four trivial modules, plus the smartFAM layer ladder.

use crate::gen::{FamModule, FamPlan};
use crate::stats::{mean, median};
use crate::trace::Spans;
use crate::{ms_since, Metrics, Tally, TraceMode};
use mcsd_smartfam::codec::decode_stream;
use mcsd_smartfam::module::FnModule;
use mcsd_smartfam::{
    BatchConfig, BatchStats, Daemon, DaemonConfig, DaemonHandle, FileWatcher, Frame, HostClient,
    LogFile, ModuleRegistry, WindowConfig,
};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

const LOCKSTEP_PER_ROUND: usize = 32;
const WINDOW_CALLS: usize = 64;
const WINDOW_DEPTH: usize = 16;
const SETUP_REPS: usize = 9;
const CALL_TIMEOUT: Duration = Duration::from_secs(10);
/// Calls of the seed's plan whose frames the ladder replays.
const REPLAY_CALLS: usize = 256;

pub struct FamRun {
    pub setup_s: Vec<f64>,
    /// Lockstep call latencies in ms, with whether the call was traced.
    pub lockstep_ms: Vec<(f64, bool)>,
    pub window_calls: u64,
    pub window_secs: f64,
    pub window_bytes: u64,
    pub tally: Tally,
    window_stats: BatchStats,
    retries: u64,
    seed: u64,
    tmp: PathBuf,
    handle: DaemonHandle,
    client: HostClient,
    registry: ModuleRegistry,
}

fn registry() -> ModuleRegistry {
    let registry = ModuleRegistry::new();
    for m in FamModule::ALL {
        registry.register(Arc::new(FnModule::new(
            m.name(),
            move |params: &[String]| Ok(m.apply(params.first().map_or("", String::as_str))),
        )));
    }
    registry
}

/// Spawn the daemon and make one call per module, which creates its log.
fn boot(dir: &Path) -> Result<(DaemonHandle, HostClient, ModuleRegistry), String> {
    let registry = registry();
    let config = DaemonConfig::new(dir).with_batching(BatchConfig::default());
    let handle = Daemon::new(config, registry.clone())
        .spawn()
        .map_err(|e| format!("daemon spawn: {e}"))?;
    let client = HostClient::new(dir);
    for m in FamModule::ALL {
        let out = client
            .invoke(m.name(), &["ready".to_string()], CALL_TIMEOUT)
            .map_err(|e| format!("first {} call: {e}", m.name()))?;
        if out.payload != m.apply("ready") {
            return Err(format!("first {} call: wrong reply", m.name()));
        }
    }
    Ok((handle, client, registry))
}

pub fn run(
    tmp: &Path,
    seed: u64,
    secs: f64,
    spans: &Spans,
    mode: TraceMode,
) -> Result<FamRun, String> {
    let mut setup_s = Vec::new();
    let mut booted = None;
    for rep in 0..SETUP_REPS {
        let dir = tmp.join(format!("fam-{rep}"));
        std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
        let t0 = Instant::now();
        let up = boot(&dir)?;
        setup_s.push(t0.elapsed().as_secs_f64());
        // Earlier daemons stop here, when `booted` is overwritten.
        booted = Some(up);
    }
    let (handle, client, registry) = booted.expect("at least one set-up");
    let mut run = FamRun {
        setup_s,
        lockstep_ms: Vec::new(),
        window_calls: 0,
        window_secs: 0.0,
        window_bytes: 0,
        tally: Tally::default(),
        window_stats: BatchStats::default(),
        retries: 0,
        seed,
        tmp: tmp.to_path_buf(),
        handle,
        client,
        registry,
    };
    let mut plan = FamPlan::new(seed);
    let window = WindowConfig::with_depth(WINDOW_DEPTH);
    let start = Instant::now();
    let mut op = 0u64;
    let mut round = 0u64;
    while round == 0 || start.elapsed().as_secs_f64() < secs {
        let traced = mode.traces(round);
        spans.set_enabled(traced);
        for _ in 0..LOCKSTEP_PER_ROUND {
            let module = plan.next_module();
            let params = vec![plan.next_param()];
            let t0 = Instant::now();
            let result = spans.span("fam.call", op, || {
                let pending = spans.span("host.submit", op, || {
                    run.client.submit(module.name(), &params)
                })?;
                spans.span("host.wait", op, || pending.wait(CALL_TIMEOUT))
            });
            let ms = ms_since(t0);
            if let Ok(out) = &result {
                run.retries += out.resilience.retries;
            }
            if run
                .tally
                .check(result.map(|o| o.payload), &module.apply(&params[0]))
            {
                run.lockstep_ms.push((ms, traced));
            }
            op += 1;
        }
        let module = FamModule::ALL[(round % 4) as usize];
        let calls: Vec<Vec<String>> = (0..WINDOW_CALLS).map(|_| vec![plan.next_param()]).collect();
        let t0 = Instant::now();
        let burst = spans.span("host.invoke_window", op, || {
            run.client.invoke_window(module.name(), &calls, &window)
        });
        run.window_secs += t0.elapsed().as_secs_f64();
        run.window_stats.absorb(&burst.stats);
        for (call, outcome) in calls.iter().zip(burst.outcomes) {
            let want = module.apply(&call[0]);
            if let Ok(out) = &outcome {
                run.retries += out.resilience.retries;
            }
            if run.tally.check(outcome.map(|o| o.payload), &want) {
                run.window_calls += 1;
                run.window_bytes += (call[0].len() + want.len()) as u64;
            }
        }
        op += 1;
        round += 1;
    }
    spans.set_enabled(false);
    Ok(run)
}

impl FamRun {
    pub fn lockstep_all_ms(&self) -> Vec<f64> {
        self.lockstep_ms.iter().map(|&(ms, _)| ms).collect()
    }

    pub fn calls(&self) -> u64 {
        self.lockstep_ms.len() as u64 + self.window_calls
    }

    /// The isolated smartFAM layers plus the live-path and counter
    /// metrics. Stops the daemon.
    pub fn ladder(&mut self, spans: &Spans, out: &mut Metrics) -> Result<(), String> {
        let load_us: Vec<f64> = (0..200)
            .map(|_| time_us(|| black_box(self.client.daemon_load())).1)
            .collect();
        out.push("smartfam.host.daemon_load_us", median(&load_us));
        let daemon = self.handle.stats();
        let batch = self.handle.batch_stats();
        self.handle.stop();

        let dir = self.tmp.join("fam-ladder");
        std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
        let mut plan = FamPlan::new(self.seed);
        let calls: Vec<(FamModule, String)> = (0..REPLAY_CALLS)
            .map(|_| (plan.next_module(), plan.next_param()))
            .collect();
        let requests: Vec<Frame> = calls
            .iter()
            .enumerate()
            .map(|(i, (_, p))| Frame::request(i as u64, vec![p.clone()]))
            .collect();
        let responses: Vec<Frame> = calls
            .iter()
            .enumerate()
            .map(|(i, (m, p))| Frame::response_ok(i as u64, m.apply(p)))
            .collect();
        let frames: Vec<Frame> = requests.iter().chain(&responses).cloned().collect();
        let decode_ns = codec_metrics(&frames, out);

        let io = |e: mcsd_smartfam::SmartFamError| e.to_string();
        let log = LogFile::attach_at_end(dir.join("append.log")).map_err(io)?;
        let append_us: Vec<f64> = requests
            .iter()
            .map(|f| time_us(|| log.append(f)).1)
            .collect();
        out.push("smartfam.log_file.append_us", median(&append_us));

        let log = LogFile::attach_at_end(dir.join("commit1.log")).map_err(io)?;
        let commit_one_us: Vec<f64> = responses[..64]
            .iter()
            .map(|f| time_us(|| log.append_batch(std::slice::from_ref(f))).1)
            .collect();
        out.push("smartfam.log_file.commit_one_us", median(&commit_one_us));

        let log = LogFile::attach_at_end(dir.join("commit16.log")).map_err(io)?;
        let batch_us: Vec<f64> = responses
            .chunks(WINDOW_DEPTH)
            .chain(requests.chunks(WINDOW_DEPTH))
            .map(|chunk| time_us(|| log.append_batch(chunk)).1)
            .collect();
        out.push("smartfam.log_file.batch_commit_us", median(&batch_us));

        // Poll a copy of the longest module log, as the run left it.
        let longest = FamModule::ALL
            .iter()
            .map(|m| self.client.log_path(m.name()))
            .max_by_key(|p| std::fs::metadata(p).map_or(0, |m| m.len()))
            .expect("four module logs");
        let copy = dir.join("poll.log");
        std::fs::copy(&longest, &copy).map_err(|e| e.to_string())?;
        let mut reader = LogFile::attach_at_end(&copy).map_err(io)?;
        let writer = LogFile::attach_at_end(&copy).map_err(io)?;
        let (mut read_bytes, mut new_bytes, mut poll_us) = (0u64, 0u64, Vec::new());
        for f in &responses[..64] {
            new_bytes += writer.append(f).map_err(io)?;
            read_bytes += writer.len().map_err(io)?;
            let (got, us) = time_us(|| reader.poll());
            if got.map_err(io)?.len() != 1 {
                return Err("ladder poll did not return the appended frame".into());
            }
            poll_us.push(us);
        }
        out.push("smartfam.log_file.poll_us", median(&poll_us));
        out.push(
            "smartfam.log_file.poll_read_amplification",
            read_bytes as f64 / new_bytes as f64,
        );

        let detect_us = detect_latency_us(&dir.join("watch"), &responses[..40])?;
        out.push("smartfam.watch.detect_us", median(&detect_us));

        let module_us: Vec<f64> = calls
            .iter()
            .map(|(m, p)| {
                let module = self.registry.get(m.name()).expect("registered module");
                let params = [p.clone()];
                time_us(|| black_box(module.invoke(&params))).1
            })
            .collect();
        let module_run = median(&module_us);
        out.push("smartfam.module.run_us", module_run);

        let submit_us = median(&spans.micros("host.submit"));
        let wait_us = median(&spans.micros("host.wait"));
        out.push("smartfam.host.submit_us", submit_us);
        out.push("smartfam.host.wait_us", wait_us);
        // One lockstep call: host append, daemon detect + poll + decode,
        // module run, one-frame commit, host poll + decode.
        let poll = median(&poll_us);
        let layers = median(&append_us)
            + median(&detect_us)
            + 2.0 * (poll + decode_ns / 1e3)
            + module_run
            + median(&commit_one_us);
        let call_us = median(&self.lockstep_all_ms()) * 1e3;
        out.push("smartfam.host.unattributed_us", call_us - layers);
        out.push("smartfam.ladder_coverage", layers / call_us);

        let coalesced = batch.coalesced_appends.max(1) as f64;
        out.push(
            "smartfam.batch.fsyncs_per_1k_calls",
            batch.fsyncs as f64 * 1000.0 / coalesced,
        );
        out.push(
            "smartfam.batch.mean_size",
            batch.coalesced_appends as f64 / batch.batches.max(1) as f64,
        );
        out.push(
            "smartfam.batch.window_shrinks",
            self.window_stats.window_shrinks as f64,
        );
        out.push("smartfam.daemon.shed", daemon.shed as f64);
        out.push("smartfam.host.retries", self.retries as f64);
        Ok(())
    }
}

/// Encode and decode every frame in isolation; report the medians and
/// the mean encoded size. Returns the decode median.
pub fn codec_metrics(frames: &[Frame], out: &mut Metrics) -> f64 {
    const REPS: u32 = 8;
    let encoded: Vec<Vec<u8>> = frames.iter().map(Frame::encode).collect();
    let encode_ns: Vec<f64> = frames
        .iter()
        .map(|f| {
            let t0 = Instant::now();
            for _ in 0..REPS {
                black_box(black_box(f).encode());
            }
            t0.elapsed().as_nanos() as f64 / f64::from(REPS)
        })
        .collect();
    let decode_ns: Vec<f64> = encoded
        .iter()
        .map(|bytes| {
            let t0 = Instant::now();
            for _ in 0..REPS {
                let decoded = decode_stream(black_box(bytes), 0).expect("a frame it encoded");
                black_box(decoded);
            }
            t0.elapsed().as_nanos() as f64 / f64::from(REPS)
        })
        .collect();
    let sizes: Vec<f64> = encoded.iter().map(|b| b.len() as f64).collect();
    let decode = median(&decode_ns);
    out.push("smartfam.codec.encode_ns", median(&encode_ns));
    out.push("smartfam.codec.decode_ns", decode);
    out.push("smartfam.codec.frame_bytes", mean(&sizes));
    decode
}

/// Time from an append returning to the watcher delivering its event,
/// with the watcher configured as the daemon configures it.
fn detect_latency_us(dir: &Path, frames: &[Frame]) -> Result<Vec<f64>, String> {
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    let path = dir.join("watched.log");
    let writer = LogFile::attach_at_end(&path).map_err(|e| e.to_string())?;
    let watcher = FileWatcher::spawn(dir, DaemonConfig::new(dir).watch);
    let mut out = Vec::with_capacity(frames.len());
    for f in frames {
        while watcher.events().try_recv().is_ok() {}
        writer.append(f).map_err(|e| e.to_string())?;
        let t0 = Instant::now();
        loop {
            match watcher.next_event(Duration::from_secs(2)) {
                Some(ev) if ev.path == path => break,
                Some(_) => continue,
                None => return Err("watcher missed an append".into()),
            }
        }
        out.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    Ok(out)
}

fn time_us<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64() * 1e6)
}
