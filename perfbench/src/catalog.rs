//! The metric catalog: every metric the benchmark prints, its unit, which
//! direction is better, and — for per-layer metrics — whether two runs of
//! the same code on the same seed repeat it exactly. `BENCHMARK.json` is
//! rendered from this table (see the test at the bottom).

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// Whether a per-layer value repeats exactly on a same-seed rerun.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Label {
    /// A pure function of the seed.
    Deterministic,
    /// Depends on timing: a wall-clock measurement, or a count shaped by
    /// thread interleaving or by how much work fit in the run.
    Timing,
}

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// End-to-end metrics: the share of the parent's median by which the
    /// metric may worsen before a change counts as a regression.
    pub bound: Option<f64>,
    pub label: Label,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
        label: Label::Timing,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better, label: Label) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
        label,
    }
}

use Better::{Higher, Lower};
use Label::{Deterministic, Timing};

/// Seconds one run measures.
pub const RUN_SECONDS: u64 = 30;

pub struct WorkloadDef {
    pub name: &'static str,
    pub why: &'static str,
}

/// The rack simulator is not a workload: its single-threaded simulations
/// swung between a fast and a slow mode of the shared machine (p50 spread
/// up to 0.19 over ten seeds, where these two stayed at or below 0.08), so
/// every traced run measures its layers with a short probe instead (see
/// README.md).
pub const WORKLOADS: [WorkloadDef; 2] = [
    WorkloadDef {
        name: "fam-rpc",
        why: "closed-loop smartFAM calls to four trivial modules, lockstep then depth-16 windows: stresses codec, log append, fsync, watcher and poll pacing, no Phoenix",
    },
    WorkloadDef {
        name: "offload-jobs",
        why: "closed-loop Word Count, String Match and Matrix Multiply jobs through McsdFramework, in- and out-of-memory bands: stresses Phoenix and Partition/Merge",
    },
];

/// End-to-end metrics, printed by every workload with `--trace 0`. The
/// operation is a lockstep call on `fam-rpc` and a job on `offload-jobs`;
/// throughput on `fam-rpc` is that of the depth-16 windows. The CPU speed of a shared 2-core machine swings
/// by a quarter from second to second, so every bound is the widest the
/// contract allows. The tail is p90: the `fam-rpc` p99 spread 31% across
/// ten seeds, so the tail the sample count supports is the per-layer
/// `bench.tail_ms`.
pub const END_TO_END: [MetricDef; 5] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("p50_ms", "ms", Lower, 0.25),
    e2e("p90_ms", "ms", Lower, 0.25),
    e2e("ops_per_s", "1/s", Higher, 0.25),
    e2e("input_mb_per_s", "MB/s", Higher, 0.25),
];

/// Per-layer metrics, printed by every workload with `--trace 1`.
pub const PER_LAYER: [MetricDef; 53] = [
    layer("smartfam.codec.encode_ns", "ns", Lower, Timing),
    layer("smartfam.codec.decode_ns", "ns", Lower, Timing),
    layer("smartfam.codec.frame_bytes", "bytes", Lower, Deterministic),
    layer("smartfam.log_file.append_us", "us", Lower, Timing),
    layer("smartfam.log_file.commit_one_us", "us", Lower, Timing),
    layer("smartfam.log_file.batch_commit_us", "us", Lower, Timing),
    layer("smartfam.log_file.poll_us", "us", Lower, Timing),
    layer(
        "smartfam.log_file.poll_read_amplification",
        "ratio",
        Lower,
        Timing,
    ),
    layer("smartfam.watch.detect_us", "us", Lower, Timing),
    layer("smartfam.module.run_us", "us", Lower, Timing),
    layer("smartfam.host.daemon_load_us", "us", Lower, Timing),
    layer("smartfam.host.submit_us", "us", Lower, Timing),
    layer("smartfam.host.wait_us", "us", Lower, Timing),
    layer("smartfam.host.unattributed_us", "us", Lower, Timing),
    layer("smartfam.ladder_coverage", "ratio", Higher, Timing),
    layer("smartfam.batch.fsyncs_per_1k_calls", "count", Lower, Timing),
    layer("smartfam.batch.mean_size", "count", Higher, Timing),
    layer("smartfam.batch.window_shrinks", "count", Lower, Timing),
    layer("smartfam.daemon.shed", "count", Lower, Timing),
    layer("smartfam.host.retries", "count", Lower, Timing),
    layer("phoenix.wc.split_ms", "ms", Lower, Timing),
    layer("phoenix.wc.map_ms", "ms", Lower, Timing),
    layer("phoenix.wc.reduce_ms", "ms", Lower, Timing),
    layer("phoenix.wc.merge_ms", "ms", Lower, Timing),
    layer("phoenix.sm.split_ms", "ms", Lower, Timing),
    layer("phoenix.sm.map_ms", "ms", Lower, Timing),
    layer("phoenix.sm.reduce_ms", "ms", Lower, Timing),
    layer("phoenix.sm.merge_ms", "ms", Lower, Timing),
    layer("phoenix.partition.run_ms", "ms", Lower, Timing),
    layer("phoenix.partition.fragments", "count", Lower, Deterministic),
    layer("phoenix.combine_ratio", "ratio", Higher, Deterministic),
    layer("phoenix.wc.mb_per_s", "MB/s", Higher, Timing),
    layer("mcsd_core.framework.stage_mb_per_s", "MB/s", Higher, Timing),
    layer("mcsd_core.framework.overhead_ms", "ms", Lower, Timing),
    layer("mcsd_core.framework.degraded_jobs", "count", Lower, Timing),
    layer("mcsd_core.engine.decide_ns", "ns", Lower, Timing),
    layer("mcsd_core.offload.decide_ns", "ns", Lower, Timing),
    layer("mcsd_core.shard_queue.cycle_ns", "ns", Lower, Timing),
    layer("cluster.rack.transfer_ns", "ns", Lower, Timing),
    layer("mcsd_core.des.synthesize_ms", "ms", Lower, Timing),
    layer("mcsd_core.des.run_ms", "ms", Lower, Timing),
    layer("mcsd_core.des.loop_unattributed_ms", "ms", Lower, Timing),
    layer("mcsd_core.des.long_run_jobs_per_s", "1/s", Higher, Timing),
    layer("mcsd_core.des.completed", "count", Higher, Deterministic),
    layer("mcsd_core.des.shed", "count", Lower, Deterministic),
    layer(
        "mcsd_core.des.cross_rack_transfers",
        "count",
        Lower,
        Deterministic,
    ),
    layer(
        "mcsd_core.des.makespan_virtual_s",
        "s",
        Lower,
        Deterministic,
    ),
    layer("bench.trace_overhead_pct", "%", Lower, Timing),
    layer("bench.peak_rss_mb", "MB", Lower, Timing),
    layer("bench.tail_ms", "ms", Lower, Timing),
    layer("bench.spans", "count", Higher, Timing),
    layer("bench.fam_calls", "count", Higher, Timing),
    layer("bench.jobs", "count", Higher, Timing),
];

/// `BENCHMARK.json`: the command, workloads and metrics a harness reads.
pub fn benchmark_json() -> String {
    let metric = |m: &MetricDef| {
        let better = match m.better {
            Lower => "lower",
            Higher => "higher",
        };
        let bound = m
            .bound
            .map_or(String::new(), |b| format!(", \"bound\": {b}"));
        format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{better}\"{bound}}}",
            m.name, m.unit
        )
    };
    let list = |defs: &[MetricDef]| defs.iter().map(metric).collect::<Vec<_>>().join(",\n");
    let workloads = WORKLOADS
        .iter()
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect::<Vec<_>>()
        .join(",\n");
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--quiet\", \"--release\", \"--offline\", \"--manifest-path\", \"perfbench/Cargo.toml\", \"--\"],\n  \"paths\": [\"perfbench\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{workloads}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        list(&END_TO_END),
        list(&PER_LAYER)
    )
}

/// The result line, printed as the last line of standard output.
pub fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    defs: &[MetricDef],
    values: &[(&str, f64)],
) -> String {
    let metrics = defs
        .iter()
        .map(|m| {
            let value = values
                .iter()
                .find(|(n, _)| *n == m.name)
                .map(|&(_, v)| v)
                .unwrap_or_else(|| panic!("metric {} was not measured", m.name));
            assert!(value.is_finite(), "metric {} is {value}", m.name);
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{metrics}}}}}"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_is_rendered_from_the_catalog() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(on_disk, benchmark_json());
    }

    #[test]
    fn printed_metric_names_match_the_catalog() {
        for defs in [&END_TO_END[..], &PER_LAYER[..]] {
            let values: Vec<(&str, f64)> = defs.iter().map(|m| (m.name, 1.5)).collect();
            let line = result_json(true, 1, 0, defs, &values);
            let chunks: Vec<&str> = line.split("\": {\"value\"").collect();
            let printed: Vec<&str> = chunks[..chunks.len() - 1]
                .iter()
                .map(|chunk| chunk.rsplit('"').next().expect("a quoted name"))
                .collect();
            let names: Vec<&str> = defs.iter().map(|m| m.name).collect();
            assert_eq!(printed, names);
            for m in defs {
                let entry = format!("{{\"name\": \"{}\", \"unit\": \"{}\"", m.name, m.unit);
                assert!(benchmark_json().contains(&entry), "{entry}");
            }
        }
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut seen = std::collections::HashSet::new();
        let all = END_TO_END.iter().chain(PER_LAYER.iter());
        for m in all {
            assert!(seen.insert(m.name), "duplicate metric {}", m.name);
            assert!(m.name.len() <= 64 && m.unit.len() <= 16);
            assert!(m
                .name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric()));
        }
        for w in &WORKLOADS {
            assert!(seen.insert(w.name) && w.why.len() <= 200);
        }
        assert!(END_TO_END
            .iter()
            .all(|m| m.bound.is_some_and(|b| b <= 0.25)));
        assert!(END_TO_END.iter().any(|m| m.name == "setup_s"));
    }

    #[test]
    #[should_panic(expected = "was not measured")]
    fn a_missing_metric_is_a_bug() {
        result_json(true, 1, 0, &END_TO_END, &[("setup_s", 1.0)]);
    }
}
