//! Paper-size ↔ experiment-size scaling.
//!
//! The paper's workloads are 500 MB–2 GB against 2 GB nodes. Running those
//! sizes for every figure would make the harness take hours, so every byte
//! quantity (inputs, node memory, partition size) is divided by a single
//! constant. Because the memory model, the network model and the disk
//! model are all linear in bytes, this leaves every *ratio* — and therefore
//! every reported speedup — unchanged (see the
//! `verdict_scales_with_input_invariantly` test in `mcsd-phoenix`).

/// A byte-scale divisor applied uniformly to all paper sizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Paper bytes per experiment byte.
    pub divisor: u64,
}

impl Scale {
    /// Identity scale (paper sizes; only sensible on a big machine).
    pub fn full() -> Self {
        Scale { divisor: 1 }
    }

    /// The default experiment scale: 1/256 of paper sizes. "500 MB"
    /// becomes ~2 MB, the 2 GB node memory becomes 8 MB.
    pub fn default_experiment() -> Self {
        Scale { divisor: 256 }
    }

    /// A coarser scale for quick smoke tests: 1/2048.
    pub fn smoke() -> Self {
        Scale { divisor: 2048 }
    }

    /// Scale a paper-space byte count down to experiment space.
    pub fn bytes(&self, paper_bytes: u64) -> u64 {
        (paper_bytes / self.divisor).max(1)
    }

    /// Parse the paper's size labels ("500M", "750M", "1G", "1.25G",
    /// "1.5G", "2G") into paper-space bytes.
    pub fn parse_label(label: &str) -> Option<u64> {
        let label = label.trim();
        let (num, mult): (&str, u64) = if let Some(n) = label.strip_suffix('G') {
            (n, 1024 * 1024 * 1024)
        } else if let Some(n) = label.strip_suffix('M') {
            (n, 1024 * 1024)
        } else if let Some(n) = label.strip_suffix('K') {
            (n, 1024)
        } else {
            (label, 1)
        };
        let value: f64 = num.parse().ok()?;
        if value < 0.0 {
            return None;
        }
        Some((value * mult as f64) as u64)
    }

    /// Scaled bytes for a paper label, e.g. `scaled("1.25G")`.
    pub fn scaled(&self, label: &str) -> Option<u64> {
        Scale::parse_label(label).map(|b| self.bytes(b))
    }
}

impl Default for Scale {
    fn default() -> Self {
        Scale::default_experiment()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_labels() {
        assert_eq!(Scale::parse_label("500M"), Some(500 * 1024 * 1024));
        assert_eq!(Scale::parse_label("1G"), Some(1024 * 1024 * 1024));
        assert_eq!(
            Scale::parse_label("1.25G"),
            Some((1.25 * 1024.0 * 1024.0 * 1024.0) as u64)
        );
        assert_eq!(Scale::parse_label("2048"), Some(2048));
        assert_eq!(Scale::parse_label("64K"), Some(65536));
    }

    #[test]
    fn parse_rejects_garbage() {
        assert_eq!(Scale::parse_label("abcM"), None);
        assert_eq!(Scale::parse_label("-5G"), None);
        assert_eq!(Scale::parse_label(""), None);
    }

    #[test]
    fn scaling_divides() {
        let s = Scale { divisor: 256 };
        assert_eq!(s.bytes(256_000), 1000);
        assert_eq!(s.scaled("1G"), Some(1024 * 1024 * 1024 / 256));
    }

    #[test]
    fn scaling_never_reaches_zero() {
        let s = Scale { divisor: 1_000_000 };
        assert_eq!(s.bytes(10), 1);
    }

    #[test]
    fn default_is_256th() {
        assert_eq!(Scale::default().divisor, 256);
    }

    #[test]
    fn paper_memory_scales_to_8mb() {
        let s = Scale::default_experiment();
        assert_eq!(s.scaled("2G"), Some(8 * 1024 * 1024));
    }
}
