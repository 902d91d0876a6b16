//! Disk model.
//!
//! Used for two costs the paper's testbed pays physically:
//!
//! * **swap/thrash penalties** — when a non-partitioned job's working set
//!   exceeds node memory, the OS pages the excess to disk. Each spilled
//!   byte crosses the disk several times (page-out, page-in, and repeated
//!   eviction as map and reduce re-touch the working set), which is where
//!   the paper's strongly non-linear elapsed-time blowups come from
//!   (Fig. 8(b), Fig. 9);
//! * **local sequential I/O** — reading the input from the SD node's SATA
//!   drive.

use crate::clock::TimeBreakdown;
use std::time::Duration;

/// A simple disk throughput/latency model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiskModel {
    /// Sequential bandwidth in bytes per second.
    pub bytes_per_sec: u64,
    /// Average access latency per operation.
    pub access_latency: Duration,
    /// Effective disk crossings per swapped byte during a thrashing
    /// MapReduce run. Swap traffic is page-granular and far from
    /// sequential, so the *effective* count is much higher than the 2–3
    /// logical round trips: 12 passes at the sequential rate models
    /// random-access paging at ~6–7 MB/s, which lands the non-partitioned
    /// blowups in the paper's 6.8×–17.4× band (Fig. 9).
    pub thrash_passes: f64,
}

impl DiskModel {
    /// A paper-era 7200 rpm SATA drive: ~80 MB/s sequential, ~8 ms access.
    pub fn paper_sata() -> Self {
        DiskModel {
            bytes_per_sec: 80_000_000,
            access_latency: Duration::from_millis(8),
            thrash_passes: 12.0,
        }
    }

    /// Time for one sequential transfer of `bytes`.
    pub fn sequential_time(&self, bytes: u64) -> Duration {
        if bytes == 0 {
            return Duration::ZERO;
        }
        self.access_latency + Duration::from_secs_f64(bytes as f64 / self.bytes_per_sec as f64)
    }

    /// Swap penalty for a run whose working set exceeded memory by
    /// `swapped_bytes` (from
    /// [`MemoryVerdict::swapped_bytes`](mcsd_phoenix::MemoryVerdict)).
    pub fn thrash_penalty(&self, swapped_bytes: u64) -> Duration {
        if swapped_bytes == 0 {
            return Duration::ZERO;
        }
        let bytes = swapped_bytes as f64 * self.thrash_passes;
        self.access_latency + Duration::from_secs_f64(bytes / self.bytes_per_sec as f64)
    }

    /// [`TimeBreakdown`] for a swap penalty.
    pub fn charge_thrash(&self, swapped_bytes: u64) -> TimeBreakdown {
        TimeBreakdown::disk(self.thrash_penalty(swapped_bytes))
    }

    /// [`TimeBreakdown`] for a sequential read/write.
    pub fn charge_sequential(&self, bytes: u64) -> TimeBreakdown {
        TimeBreakdown::disk(self.sequential_time(bytes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_bytes_cost_nothing() {
        let d = DiskModel::paper_sata();
        assert_eq!(d.sequential_time(0), Duration::ZERO);
        assert_eq!(d.thrash_penalty(0), Duration::ZERO);
    }

    #[test]
    fn thrash_is_much_slower_than_sequential() {
        let d = DiskModel::paper_sata();
        let bytes = 100_000_000;
        assert!(d.thrash_penalty(bytes) > d.sequential_time(bytes) * 3);
    }

    #[test]
    fn thrash_grows_linearly_in_swapped_bytes() {
        let d = DiskModel::paper_sata();
        let t1 = (d.thrash_penalty(50_000_000) - d.access_latency).as_secs_f64();
        let t2 = (d.thrash_penalty(100_000_000) - d.access_latency).as_secs_f64();
        assert!((t2 / t1 - 2.0).abs() < 0.01);
    }

    #[test]
    fn gigabyte_thrash_is_minutes() {
        // Sanity: paging ~1 GB of excess working set costs minutes at the
        // effective random-access rate — the scale of the paper's Fig. 9
        // blowups relative to its multi-second base times.
        let d = DiskModel::paper_sata();
        let t = d.thrash_penalty(1 << 30);
        assert!(
            t > Duration::from_secs(60) && t < Duration::from_secs(400),
            "{t:?}"
        );
    }

    #[test]
    fn charges_fill_disk_category() {
        let d = DiskModel::paper_sata();
        let c = d.charge_thrash(1000);
        assert_eq!(c.network, Duration::ZERO);
        assert!(c.disk > Duration::ZERO);
        let s = d.charge_sequential(1000);
        assert!(s.disk > Duration::ZERO);
    }
}
