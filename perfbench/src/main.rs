//! McSD benchmark: runs one named workload for a fixed time, checks every
//! output, and prints every metric by name with its unit. The last line of
//! standard output is the JSON result.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload fam-rpc --seed 1 --seconds 30 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics. `--trace 1` records a span
//! around every call the benchmark makes into a layer, writes them to
//! `.bench_out/`, and prints the per-layer metrics. `--benchmark-json`
//! prints the `BENCHMARK.json` this catalog defines.

mod catalog;
mod fam;
mod gen;
mod jobs;
mod machine;
mod rack;
mod stats;
mod trace;

use catalog::{END_TO_END, PER_LAYER, WORKLOADS};
use stats::{median, summarize};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;
use trace::Spans;

/// Seconds each workload other than the traced one runs in a traced run,
/// so that every layer of the ladder is measured.
const PROBE_SECONDS: f64 = 2.0;
const MIB: f64 = 1024.0 * 1024.0;

/// Which operations of a run record spans.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceMode {
    On,
    /// Every other operation, so traced and untraced operations of one
    /// run give the tracing overhead.
    Alternate,
    Off,
}

impl TraceMode {
    pub fn traces(self, op: u64) -> bool {
        match self {
            TraceMode::On => true,
            TraceMode::Alternate => op.is_multiple_of(2),
            TraceMode::Off => false,
        }
    }
}

/// Outcome counts of checked operations.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tally {
    pub attempted: u64,
    /// Operations that returned an error.
    pub failed: u64,
    /// Operations whose output differed from the oracle.
    pub wrong: u64,
}

impl Tally {
    /// Count one operation; true when it returned `want`.
    pub fn check<T: PartialEq, E: std::fmt::Display>(
        &mut self,
        got: Result<T, E>,
        want: &T,
    ) -> bool {
        self.attempted += 1;
        match got {
            Ok(v) if v == *want => true,
            Ok(_) => {
                self.wrong += 1;
                eprintln!("perfbench: wrong output on operation {}", self.attempted);
                false
            }
            Err(e) => {
                self.failed += 1;
                eprintln!("perfbench: operation {} failed: {e}", self.attempted);
                false
            }
        }
    }

    fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.wrong += other.wrong;
    }

    fn error_rate(&self) -> f64 {
        (self.failed + self.wrong) as f64 / self.attempted.max(1) as f64
    }
}

/// Named metric values; a later value for a name replaces the earlier.
#[derive(Default)]
pub struct Metrics(Vec<(String, f64)>);

impl Metrics {
    pub fn push(&mut self, name: impl Into<String>, value: f64) {
        let name = name.into();
        self.0.retain(|(n, _)| *n != name);
        self.0.push((name, value));
    }
}

pub fn ms_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, catalog::RUN_SECONDS, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?,
            "--trace" => trace = number()? != 0,
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.iter().any(|w| w.name == workload) {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        return Err(format!("unknown workload {workload}; one of {names:?}"));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() {
    if std::env::args().nth(1).as_deref() == Some("--benchmark-json") {
        print!("{}", catalog::benchmark_json());
        return;
    }
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    // Every file the system under test creates stays in the working
    // directory: the SD node's share is made under the temp dir.
    let tmp = std::env::current_dir()
        .expect("a working directory")
        .join(".bench_tmp")
        .join(format!("run-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&tmp) {
        eprintln!("perfbench: creating {}: {e}", tmp.display());
        std::process::exit(2);
    }
    std::env::set_var("TMPDIR", &tmp);
    let result = run(&args, &tmp);
    let _ = std::fs::remove_dir_all(&tmp);
    // Removes `.bench_tmp` too unless another run is still using it.
    let _ = tmp.parent().map(std::fs::remove_dir);
    match result {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}

/// Run the workload and print its result; false when any output was wrong.
fn run(args: &Args, tmp: &Path) -> Result<bool, String> {
    let machine = machine::describe(tmp, &args.workload, args.seed, args.seconds);
    println!("# machine {machine}");
    let secs = args.seconds as f64;
    let spans = Spans::new();
    let mut out = Metrics::default();
    let (tally, defs) = if args.trace {
        (traced(args, tmp, &spans, &mut out)?, &PER_LAYER[..])
    } else {
        (
            untraced(args, tmp, secs, &spans, &mut out)?,
            &END_TO_END[..],
        )
    };
    for m in defs {
        if let Some((_, v)) = out.0.iter().find(|(n, _)| n == m.name) {
            let label = if args.trace {
                format!(" [{:?}]", m.label).to_lowercase()
            } else {
                String::new()
            };
            println!("# {} = {v:.6} {}{label}", m.name, m.unit);
        }
    }
    println!(
        "# error_rate = {} ({} failed, {} wrong of {} attempted)",
        tally.error_rate(),
        tally.failed,
        tally.wrong,
        tally.attempted
    );
    if args.trace {
        let dir = Path::new(".bench_out");
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
        let path = dir.join(format!("trace-{}-{}.jsonl", args.workload, args.seed));
        spans
            .write_jsonl(&path, &machine)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!("# {} spans written to {}", spans.len(), path.display());
    }
    let values: Vec<(&str, f64)> = out.0.iter().map(|(n, v)| (n.as_str(), *v)).collect();
    let correct = tally.wrong == 0;
    println!(
        "{}",
        catalog::result_json(
            correct,
            tally.attempted,
            tally.failed + tally.wrong,
            defs,
            &values
        )
    );
    Ok(correct)
}

fn latency_metrics(out: &mut Metrics, what: &str, samples_ms: &[f64]) {
    let s = summarize(samples_ms);
    println!(
        "# {what}: p50 {:.4} ms, p90 {:.4} ms, p{} {:.4} ms, n={}",
        s.p50, s.p90, s.tail_pct, s.tail, s.samples
    );
    out.push("p50_ms", s.p50);
    out.push("p90_ms", s.p90);
}

fn untraced(
    args: &Args,
    tmp: &Path,
    secs: f64,
    spans: &Spans,
    out: &mut Metrics,
) -> Result<Tally, String> {
    let tally = match args.workload.as_str() {
        "fam-rpc" => {
            let run = fam::run(tmp, args.seed, secs, spans, TraceMode::Off)?;
            out.push("setup_s", median(&run.setup_s));
            latency_metrics(out, "lockstep call", &run.lockstep_all_ms());
            println!(
                "# depth-16 windows: {} calls in {:.3} s",
                run.window_calls, run.window_secs
            );
            out.push("ops_per_s", run.window_calls as f64 / run.window_secs);
            out.push(
                "input_mb_per_s",
                run.window_bytes as f64 / MIB / run.window_secs,
            );
            run.tally
        }
        _ => {
            let run = jobs::run(args.seed, secs, spans, TraceMode::Off)?;
            out.push("setup_s", median(&run.setup_s));
            latency_metrics(out, "job", &run.latencies_ms());
            out.push("ops_per_s", run.job_ms.len() as f64 / run.job_secs);
            out.push("input_mb_per_s", run.job_bytes as f64 / MIB / run.job_secs);
            run.tally
        }
    };
    Ok(tally)
}

/// Traced run: the named workload for the full time with every other
/// operation traced, then the other workload and the rack simulator as
/// short fully traced probes, each followed by its layer ladder. The peak
/// memory is read after the named workload, before any probe.
fn traced(args: &Args, tmp: &Path, spans: &Spans, out: &mut Metrics) -> Result<Tally, String> {
    let mut tally = Tally::default();
    let mut order: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    order.sort_by_key(|w| *w != args.workload);
    order.push("rack-sim");
    let mut job_frames = None;
    for name in order {
        let main = name == args.workload;
        let (secs, mode) = if main {
            (args.seconds as f64, TraceMode::Alternate)
        } else {
            (PROBE_SECONDS, TraceMode::On)
        };
        match name {
            "fam-rpc" => {
                let mut run = fam::run(tmp, args.seed, secs, spans, mode)?;
                if main {
                    out.push("bench.peak_rss_mb", machine::peak_rss_mb());
                    out.push("bench.tail_ms", summarize(&run.lockstep_all_ms()).tail);
                    let ops: Vec<_> = run.lockstep_ms.iter().map(|&(ms, t)| (0, ms, t)).collect();
                    out.push("bench.trace_overhead_pct", trace_overhead_pct(&ops));
                }
                out.push("bench.fam_calls", run.calls() as f64);
                run.ladder(spans, out)?;
                tally.absorb(run.tally);
            }
            "offload-jobs" => {
                let mut run = jobs::run(args.seed, secs, spans, mode)?;
                if main {
                    out.push("bench.peak_rss_mb", machine::peak_rss_mb());
                    out.push("bench.tail_ms", summarize(&run.latencies_ms()).tail);
                    out.push("bench.trace_overhead_pct", trace_overhead_pct(&run.job_ms));
                    job_frames = Some(run.frames());
                }
                out.push("bench.jobs", run.job_ms.len() as f64);
                run.ladder(out)?;
                tally.absorb(run.tally);
            }
            _ => {
                let mut run = rack::run(args.seed, PROBE_SECONDS, spans);
                run.ladder(out);
                tally.absorb(run.tally);
            }
        }
    }
    // On offload-jobs the codec is measured on the jobs' own frames.
    if let Some(frames) = job_frames {
        fam::codec_metrics(&frames, out);
    }
    out.push("bench.spans", spans.len() as f64);
    Ok(tally)
}

/// Tracing overhead in percent from (input, ms, traced) operations: per
/// input, the traced median over the untraced median, then the median of
/// those ratios, so that a mix of job sizes does not bias it.
fn trace_overhead_pct(ops: &[(usize, f64, bool)]) -> f64 {
    let mut by_input: BTreeMap<usize, [Vec<f64>; 2]> = BTreeMap::new();
    for &(input, ms, traced) in ops {
        by_input.entry(input).or_default()[usize::from(traced)].push(ms);
    }
    let ratios: Vec<f64> = by_input
        .values()
        .filter(|[off, on]| !off.is_empty() && !on.is_empty())
        .map(|[off, on]| median(on) / median(off))
        .collect();
    (median(&ratios) - 1.0) * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_overhead_compares_each_input_with_itself() {
        // Input 0 is fast, input 1 slow; tracing adds 10% to each.
        let ops = [
            (0, 1.0, false),
            (0, 1.1, true),
            (1, 10.0, false),
            (1, 11.0, true),
            (1, 10.0, false),
        ];
        assert!((trace_overhead_pct(&ops) - 10.0).abs() < 1e-9);
    }
}
