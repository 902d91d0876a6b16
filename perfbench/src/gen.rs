//! Seeded workload generators. Every input the benchmark hands to the
//! system under test is a pure function of the `--seed` argument.

use mcsd_smartfam::faults::SplitMix64;

/// One of the four trivial smartFAM modules `fam-rpc` serves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FamModule {
    Echo,
    Reverse,
    ByteSum,
    Upper,
}

impl FamModule {
    pub const ALL: [FamModule; 4] = [
        FamModule::Echo,
        FamModule::Reverse,
        FamModule::ByteSum,
        FamModule::Upper,
    ];

    pub fn name(self) -> &'static str {
        match self {
            FamModule::Echo => "echo",
            FamModule::Reverse => "reverse",
            FamModule::ByteSum => "bytesum",
            FamModule::Upper => "upper",
        }
    }

    /// The module's reply to `param`: both the module body the daemon runs
    /// and the oracle every reply is checked against.
    pub fn apply(self, param: &str) -> Vec<u8> {
        let bytes = param.as_bytes();
        match self {
            FamModule::Echo => bytes.to_vec(),
            FamModule::Reverse => bytes.iter().rev().copied().collect(),
            FamModule::ByteSum => bytes
                .iter()
                .map(|&b| u64::from(b))
                .sum::<u64>()
                .to_le_bytes()
                .to_vec(),
            FamModule::Upper => bytes.to_ascii_uppercase(),
        }
    }
}

/// Smallest and largest `fam-rpc` parameter, in bytes.
pub const FAM_PARAM_MIN: usize = 16;
pub const FAM_PARAM_MAX: usize = 4096;

/// The endless `fam-rpc` call stream: modules uniform over the four,
/// parameter lengths log-uniform over 16 B–4 KiB, bytes from a
/// lowercase-and-digit alphabet (so `upper` changes them).
pub struct FamPlan {
    rng: SplitMix64,
}

impl FamPlan {
    pub fn new(seed: u64) -> FamPlan {
        FamPlan {
            rng: SplitMix64::new(seed ^ 0xfa11_0000_0000_0001),
        }
    }

    pub fn next_module(&mut self) -> FamModule {
        FamModule::ALL[(self.rng.next_u64() % 4) as usize]
    }

    pub fn next_param(&mut self) -> String {
        let span = (FAM_PARAM_MAX as f64 / FAM_PARAM_MIN as f64).ln();
        let u = unit(self.rng.next_u64());
        let len = ((FAM_PARAM_MIN as f64) * (span * u).exp()).round() as usize;
        const ALPHABET: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789";
        (0..len.clamp(FAM_PARAM_MIN, FAM_PARAM_MAX))
            .map(|_| ALPHABET[(self.rng.next_u64() % ALPHABET.len() as u64) as usize] as char)
            .collect()
    }
}

/// Application of an `offload-jobs` input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum App {
    WordCount,
    StringMatch,
    MatMul,
}

/// One staged input of the `offload-jobs` pool.
#[derive(Debug, Clone, PartialEq)]
pub struct PoolInput {
    pub app: App,
    /// Staged file name (the encrypt file for String Match).
    pub file: String,
    /// Input bytes (for Matrix Multiply, the dimension `n` of `n × n`).
    pub size: usize,
    /// Whether the job runs through Partition/Merge (`Some("auto")`).
    pub partitioned: bool,
    /// Seed of the input's content.
    pub content_seed: u64,
}

/// The `offload-jobs` input pool: Word Count and String Match inputs in a
/// band that fits the SD node's modelled 8 MiB memory, a band that
/// Partition/Merge must split, and small dense matrices.
pub fn job_pool(seed: u64) -> Vec<PoolInput> {
    const MIB: f64 = 1024.0 * 1024.0;
    // (app, count, min MiB, max MiB, partitioned)
    const BANDS: [(App, usize, f64, f64, bool); 4] = [
        (App::WordCount, 6, 0.5, 2.5, false),
        (App::StringMatch, 4, 0.5, 3.5, false),
        (App::WordCount, 2, 4.0, 5.0, true),
        (App::StringMatch, 2, 6.0, 7.0, true),
    ];
    let mut rng = SplitMix64::new(seed ^ 0x0ff1_0ad0_0000_0002);
    let mut pool = Vec::new();
    for (app, count, lo, hi, partitioned) in BANDS {
        for i in 0..count {
            // One size per equal slice of the band, jittered within 5% of
            // the slice, so every seed covers the band alike.
            let at = (i as f64 + 0.45 + 0.1 * unit(rng.next_u64())) / count as f64;
            let size = ((lo + (hi - lo) * at) * MIB) as usize;
            let prefix = if app == App::WordCount { "wc" } else { "sm" };
            pool.push(PoolInput {
                app,
                file: format!("{prefix}{}.dat", pool.len()),
                size,
                partitioned,
                content_seed: rng.next_u64(),
            });
        }
    }
    for _ in 0..2 {
        pool.push(PoolInput {
            app: App::MatMul,
            file: format!("mm{}", pool.len()),
            size: 48 + (rng.next_u64() % 33) as usize,
            partitioned: false,
            content_seed: rng.next_u64(),
        });
    }
    pool
}

/// Jobs per cycle of the `offload-jobs` mix, as (app, partitioned, runs
/// of each input of that kind). Every cycle runs the same jobs in a seeded
/// order, so the latency distribution does not drift with the seed.
pub const JOB_CYCLE: [(App, bool, usize); 5] = [
    (App::WordCount, false, 2),
    (App::StringMatch, false, 2),
    (App::WordCount, true, 1),
    (App::StringMatch, true, 1),
    (App::MatMul, false, 1),
];

/// The endless `offload-jobs` job stream: indices into [`job_pool`].
pub struct JobPlan {
    rng: SplitMix64,
    by_kind: Vec<Vec<usize>>,
    queue: Vec<usize>,
}

impl JobPlan {
    pub fn new(seed: u64, pool: &[PoolInput]) -> JobPlan {
        let by_kind = JOB_CYCLE
            .iter()
            .map(|&(app, part, _)| {
                (0..pool.len())
                    .filter(|&i| pool[i].app == app && pool[i].partitioned == part)
                    .collect()
            })
            .collect();
        JobPlan {
            rng: SplitMix64::new(seed ^ 0x0ff1_0ad0_0000_0003),
            by_kind,
            queue: Vec::new(),
        }
    }

    /// Jobs in one cycle of the mix.
    pub fn cycle_len(&self) -> usize {
        JOB_CYCLE
            .iter()
            .zip(&self.by_kind)
            .map(|(&(_, _, runs), inputs)| runs * inputs.len())
            .sum()
    }

    pub fn next_job(&mut self) -> usize {
        if self.queue.is_empty() {
            for (kind, &(_, _, runs)) in JOB_CYCLE.iter().enumerate() {
                for _ in 0..runs {
                    self.queue.extend(&self.by_kind[kind]);
                }
            }
            // Fisher–Yates, popped from the back.
            for i in (1..self.queue.len()).rev() {
                let j = (self.rng.next_u64() % (i as u64 + 1)) as usize;
                self.queue.swap(i, j);
            }
        }
        self.queue.pop().expect("a refilled cycle is never empty")
    }
}

/// Jobs per simulation of the rack probe. Large simulations are
/// memory-bound and swing with memory-bandwidth contention from other
/// tenants of the machine; at this size many simulations fit in a probe.
pub const RACK_JOBS: u64 = 60_000;

/// Jobs of the one long simulation the traced run adds, which shows the
/// per-event cost that grows with the length of a run.
pub const LONG_RACK_JOBS: u64 = 600_000;

/// Virtual microseconds of arrival spread per simulated job: arrivals
/// spread in proportion to the job count keep shedding near zero.
pub const RACK_SPREAD_US_PER_JOB: u64 = 40_000;

/// The rack probe's configuration for `seed`.
pub fn rack_config(seed: u64) -> mcsd_core::DesConfig {
    rack_config_sized(seed, RACK_JOBS)
}

/// A rack configuration of `jobs` jobs, arrivals spread in
/// proportion.
pub fn rack_config_sized(seed: u64, jobs: u64) -> mcsd_core::DesConfig {
    let mut cfg = mcsd_core::DesConfig::default_experiment(jobs, seed);
    cfg.arrival_spread_us = jobs * RACK_SPREAD_US_PER_JOB;
    cfg
}

fn unit(x: u64) -> f64 {
    (x >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fam_plan_is_a_pure_function_of_the_seed() {
        let draw = |seed| {
            let mut plan = FamPlan::new(seed);
            (0..300)
                .map(|_| (plan.next_module(), plan.next_param()))
                .collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
        for (_, p) in draw(7) {
            assert!((FAM_PARAM_MIN..=FAM_PARAM_MAX).contains(&p.len()));
        }
    }

    #[test]
    fn job_pool_and_plan_are_pure_functions_of_the_seed() {
        assert_eq!(job_pool(3), job_pool(3));
        assert_ne!(job_pool(3), job_pool(4));
        let draw = |seed| {
            let pool = job_pool(seed);
            let mut plan = JobPlan::new(seed, &pool);
            (0..100).map(|_| plan.next_job()).collect::<Vec<_>>()
        };
        assert_eq!(draw(3), draw(3));
        assert_ne!(draw(3), draw(4));
    }

    #[test]
    fn every_job_cycle_has_the_same_mix() {
        let pool = job_pool(11);
        let mut plan = JobPlan::new(11, &pool);
        let per_cycle = plan.cycle_len();
        for _ in 0..3 {
            let mut cycle: Vec<usize> = (0..per_cycle).map(|_| plan.next_job()).collect();
            cycle.sort();
            let mut want: Vec<usize> = JOB_CYCLE
                .iter()
                .flat_map(|&(app, part, runs)| {
                    let kind: Vec<usize> = (0..pool.len())
                        .filter(|&i| pool[i].app == app && pool[i].partitioned == part)
                        .collect();
                    std::iter::repeat_n(kind, runs).flatten()
                })
                .collect();
            want.sort();
            assert_eq!(cycle, want);
        }
    }

    #[test]
    fn pool_sizes_cover_each_band_alike_for_every_seed() {
        let (a, b) = (job_pool(1), job_pool(2));
        for (x, y) in a.iter().zip(&b) {
            assert_eq!((x.app, x.partitioned), (y.app, y.partitioned));
            let (x, y) = (x.size as f64, y.size as f64);
            assert!((x - y).abs() / x < 0.1, "{x} vs {y}");
        }
    }

    #[test]
    fn rack_config_is_a_pure_function_of_the_seed() {
        assert_eq!(rack_config(5), rack_config(5));
        assert_ne!(rack_config(5), rack_config(6));
    }

    #[test]
    fn modules_match_their_definitions() {
        assert_eq!(FamModule::Echo.apply("ab1"), b"ab1");
        assert_eq!(FamModule::Reverse.apply("ab1"), b"1ba");
        assert_eq!(FamModule::ByteSum.apply("ab"), 195u64.to_le_bytes());
        assert_eq!(FamModule::Upper.apply("ab1"), b"AB1");
    }
}
