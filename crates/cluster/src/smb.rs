//! Sandia Micro Benchmark (SMB) emulation.
//!
//! The paper runs SMB "among all the nodes except the McSD smart-storage
//! node" to "emulate the routine work" of a production cluster (§V-A). SMB
//! itself measures network/protocol performance with message-passing
//! patterns; here we model its traffic analytically against the cluster's
//! [`NetworkModel`], and expose the steady background load the experiments
//! apply to the interconnect while jobs run.

use crate::clock::TimeBreakdown;
use crate::network::NetworkModel;
use std::time::Duration;

/// Fraction of interconnect bandwidth the SMB routine work consumes in the
/// multi-application experiments.
pub const ROUTINE_LOAD: f64 = 0.10;

/// An SMB message pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SmbPattern {
    /// Two nodes exchange a message `rounds` times (latency/bandwidth
    /// probe).
    PingPong {
        /// Message payload in bytes.
        message_bytes: u64,
        /// Number of round trips.
        rounds: u64,
    },
    /// A tree all-reduce among `participants` nodes, repeated `rounds`
    /// times: up the tree and back down, `2·⌈log₂ p⌉` message steps per
    /// round.
    AllReduce {
        /// Number of participating nodes.
        participants: u64,
        /// Message payload in bytes.
        message_bytes: u64,
        /// Number of repetitions.
        rounds: u64,
    },
    /// A tree broadcast from one root to `participants - 1` receivers,
    /// `⌈log₂ p⌉` message steps per round.
    Broadcast {
        /// Number of participating nodes.
        participants: u64,
        /// Message payload in bytes.
        message_bytes: u64,
        /// Number of repetitions.
        rounds: u64,
    },
}

impl SmbPattern {
    /// Serial message steps on the critical path.
    pub fn critical_steps(&self) -> u64 {
        match self {
            SmbPattern::PingPong { rounds, .. } => rounds * 2,
            SmbPattern::AllReduce {
                participants,
                rounds,
                ..
            } => rounds * 2 * log2_ceil(*participants),
            SmbPattern::Broadcast {
                participants,
                rounds,
                ..
            } => rounds * log2_ceil(*participants),
        }
    }

    /// Total bytes placed on the wire (all links, not just the critical
    /// path).
    pub fn total_bytes(&self) -> u64 {
        match self {
            SmbPattern::PingPong {
                message_bytes,
                rounds,
            } => message_bytes * rounds * 2,
            SmbPattern::AllReduce {
                participants,
                message_bytes,
                rounds,
            } => message_bytes * rounds * 2 * (participants.saturating_sub(1)),
            SmbPattern::Broadcast {
                participants,
                message_bytes,
                rounds,
            } => message_bytes * rounds * (participants.saturating_sub(1)),
        }
    }

    /// Message payload size.
    pub fn message_bytes(&self) -> u64 {
        match self {
            SmbPattern::PingPong { message_bytes, .. }
            | SmbPattern::AllReduce { message_bytes, .. }
            | SmbPattern::Broadcast { message_bytes, .. } => *message_bytes,
        }
    }
}

fn log2_ceil(n: u64) -> u64 {
    if n <= 1 {
        0
    } else {
        64 - (n - 1).leading_zeros() as u64
    }
}

/// Result of one modelled SMB run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SmbReport {
    /// The pattern that ran.
    pub pattern: SmbPattern,
    /// Virtual elapsed time of the critical path.
    pub elapsed: Duration,
    /// Bytes placed on the wire.
    pub bytes_moved: u64,
    /// Achieved goodput on the critical path, bytes/sec.
    pub goodput_bytes_per_sec: f64,
}

/// The SMB benchmark driver.
#[derive(Debug, Clone, Copy)]
pub struct SandiaMicroBenchmark {
    network: NetworkModel,
}

impl SandiaMicroBenchmark {
    /// Run against the given interconnect model.
    pub fn new(network: NetworkModel) -> Self {
        SandiaMicroBenchmark { network }
    }

    /// Model one pattern run.
    pub fn run(&self, pattern: SmbPattern) -> SmbReport {
        let steps = pattern.critical_steps();
        let per_step = self.network.transfer_time(pattern.message_bytes());
        let elapsed = per_step * steps as u32;
        let bytes = pattern.total_bytes();
        let goodput = if elapsed.is_zero() {
            0.0
        } else {
            bytes as f64 / elapsed.as_secs_f64()
        };
        SmbReport {
            pattern,
            elapsed,
            bytes_moved: bytes,
            goodput_bytes_per_sec: goodput,
        }
    }

    /// The virtual-time charge of running `pattern` as foreground work.
    pub fn charge(&self, pattern: SmbPattern) -> TimeBreakdown {
        TimeBreakdown::network(self.run(pattern).elapsed)
    }

    /// The steady background-load fraction the paper's "routine work"
    /// places on the interconnect during the evaluation runs.
    pub fn routine_load() -> f64 {
        ROUTINE_LOAD
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smb() -> SandiaMicroBenchmark {
        SandiaMicroBenchmark::new(NetworkModel::paper_testbed())
    }

    #[test]
    fn log2_ceil_values() {
        assert_eq!(log2_ceil(1), 0);
        assert_eq!(log2_ceil(2), 1);
        assert_eq!(log2_ceil(3), 2);
        assert_eq!(log2_ceil(4), 2);
        assert_eq!(log2_ceil(5), 3);
        assert_eq!(log2_ceil(8), 3);
    }

    #[test]
    fn pingpong_steps_and_bytes() {
        let p = SmbPattern::PingPong {
            message_bytes: 1024,
            rounds: 10,
        };
        assert_eq!(p.critical_steps(), 20);
        assert_eq!(p.total_bytes(), 20 * 1024);
    }

    #[test]
    fn allreduce_scales_with_participants() {
        let small = SmbPattern::AllReduce {
            participants: 2,
            message_bytes: 1024,
            rounds: 1,
        };
        let large = SmbPattern::AllReduce {
            participants: 8,
            message_bytes: 1024,
            rounds: 1,
        };
        assert!(large.critical_steps() > small.critical_steps());
        assert!(large.total_bytes() > small.total_bytes());
    }

    #[test]
    fn larger_messages_take_longer() {
        let s = smb();
        let small = s.run(SmbPattern::PingPong {
            message_bytes: 1024,
            rounds: 5,
        });
        let large = s.run(SmbPattern::PingPong {
            message_bytes: 1024 * 1024,
            rounds: 5,
        });
        assert!(large.elapsed > small.elapsed);
    }

    #[test]
    fn goodput_approaches_line_rate_for_big_messages() {
        let s = smb();
        let r = s.run(SmbPattern::PingPong {
            message_bytes: 64 * 1024 * 1024,
            rounds: 2,
        });
        let line = NetworkModel::paper_testbed().effective_bytes_per_sec();
        assert!(r.goodput_bytes_per_sec > 0.9 * line, "{r:?}");
    }

    #[test]
    fn goodput_is_latency_bound_for_tiny_messages() {
        let s = smb();
        let r = s.run(SmbPattern::PingPong {
            message_bytes: 8,
            rounds: 100,
        });
        let line = NetworkModel::paper_testbed().effective_bytes_per_sec();
        assert!(r.goodput_bytes_per_sec < 0.01 * line, "{r:?}");
    }

    #[test]
    fn broadcast_charge_is_network_only() {
        let s = smb();
        let c = s.charge(SmbPattern::Broadcast {
            participants: 4,
            message_bytes: 4096,
            rounds: 3,
        });
        assert!(c.network > Duration::ZERO);
        assert_eq!(c.compute, Duration::ZERO);
    }

    #[test]
    fn routine_load_is_sane() {
        let l = SandiaMicroBenchmark::routine_load();
        assert!(l > 0.0 && l < 0.5);
    }
}
