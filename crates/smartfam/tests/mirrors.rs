//! Replica ordering: a host that holds its reply can count on the
//! replica group already holding it (DESIGN.md §15).
//!
//! The daemon writes each batch's mirror copies before the primary
//! commit. Were it the other way round, a host polling the primary log
//! could read its response while a mirror still lacks it, and a
//! promotion at that moment would lose an answer the host already acted
//! on.

use mcsd_smartfam::module::FnModule;
use mcsd_smartfam::{
    Daemon, DaemonConfig, HostClient, ModuleRegistry, ReplicaConfig, ReplicatedLog,
};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

const TIMEOUT: Duration = Duration::from_secs(120);
const CALLS: usize = 300;

fn temp_dir() -> PathBuf {
    let d = std::env::temp_dir().join(format!("mcsd-fam-mirrors-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn contains(haystack: &[u8], needle: &[u8]) -> bool {
    haystack.windows(needle.len()).any(|w| w == needle)
}

#[test]
fn every_reply_is_mirrored_before_the_host_reads_it() {
    let dir = temp_dir();
    let registry = ModuleRegistry::new();
    registry.register(Arc::new(FnModule::new("echo", |p: &[String]| {
        Ok(p.join("|").into_bytes())
    })));
    let replication = ReplicaConfig::default();
    let mut daemon = Daemon::new(
        DaemonConfig::new(&dir).with_replication(replication),
        registry,
    )
    .spawn()
    .unwrap();
    let client = HostClient::new(&dir);
    let mirrors: Vec<PathBuf> = (1..replication.group_size)
        .map(|r| ReplicatedLog::replica_path(&dir, "echo", r))
        .collect();
    assert_eq!(mirrors.len(), 2);
    let mut misses = Vec::new();
    for i in 0..CALLS {
        let key = format!("mirror-key-{i:04}");
        let out = client
            .invoke("echo", std::slice::from_ref(&key), TIMEOUT)
            .unwrap();
        assert_eq!(out.payload, key.as_bytes());
        for mirror in &mirrors {
            let bytes = std::fs::read(mirror).unwrap_or_default();
            if !contains(&bytes, key.as_bytes()) {
                misses.push(format!("{key} missing from {}", mirror.display()));
            }
        }
    }
    daemon.stop();
    std::fs::remove_dir_all(&dir).unwrap();
    assert!(
        misses.is_empty(),
        "{} of {} checks found a reply the host held but a mirror lacked: {:?}",
        misses.len(),
        CALLS * 2,
        &misses[..misses.len().min(5)]
    );
}
