//! The warm-state cache: memoized post-warmup machine checkpoints.
//!
//! Sweeping a parameter grid re-simulates the same warmup prefix for
//! every variant of the *measured* remainder. The cache memoizes the
//! post-warmup [`Machine`] as `nwckpt-v1` bytes, content-addressed by
//! [`nwcache::checkpoint::warm_key`] — the FNV-1a 64 of the canonical
//! CONFIG bytes, the workload spec, the warmup event count and the
//! engine's event-accounting version — so a cached state is only ever replayed into a run whose config,
//! workload, and warmup prefix are all bit-equal to the run that
//! produced it.
//!
//! Because checkpoint restore is bit-exact (restore → identical
//! remainder, asserted by the checkpoint suites), a warm-started run
//! is *provably* identical to a cold one; [`warm_start`] can even
//! re-prove it per hit (`verify = true`): the warmup is re-run cold
//! and the cached checkpoint must be `ckpt-diff`-clean against the
//! fresh one, else the hit is rejected as drift.
//!
//! Entries live in memory behind one mutex, bounded by an LRU list;
//! with a cache directory configured each entry is also persisted as
//! `warm-<key:016x>.nwckpt` (atomic temp + rename), so a restarted
//! server re-warms from disk instead of re-simulating.

use nwcache::checkpoint;
use nwcache::config::MachineConfig;
use nwcache::error::SimError;
use nwcache::machine::{Machine, RunOutcome};
use nwcache::metrics::RunMetrics;
use nwcache::workload::AppSel;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

struct Inner {
    map: HashMap<u64, Vec<u8>>,
    /// Keys from least- to most-recently used.
    lru: Vec<u64>,
}

/// Bounded, optionally disk-backed store of post-warmup checkpoints.
pub struct WarmCache {
    dir: Option<PathBuf>,
    capacity: usize,
    inner: Mutex<Inner>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl WarmCache {
    /// An empty cache holding at most `capacity` in-memory entries,
    /// persisting each entry under `dir` when set.
    pub fn new(dir: Option<PathBuf>, capacity: usize) -> WarmCache {
        WarmCache {
            dir,
            capacity: capacity.max(1),
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                lru: Vec::new(),
            }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    fn entry_path(dir: &Path, key: u64) -> PathBuf {
        dir.join(format!("warm-{key:016x}.nwckpt"))
    }

    /// Checkpoint bytes for `key`, consulting memory then disk. A disk
    /// hit is promoted into memory. Counts a hit or a miss.
    pub fn lookup(&self, key: u64) -> Option<Vec<u8>> {
        let mut inner = self.inner.lock().unwrap();
        if let Some(bytes) = inner.map.get(&key).cloned() {
            inner.lru.retain(|&k| k != key);
            inner.lru.push(key);
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Some(bytes);
        }
        drop(inner);
        if let Some(dir) = &self.dir {
            if let Ok(bytes) = std::fs::read(Self::entry_path(dir, key)) {
                // Only structurally valid files count — a torn or
                // foreign file is treated as a miss, not an error.
                if checkpoint::validate_bytes(&bytes).is_ok() {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    self.insert_mem(key, bytes.clone());
                    return Some(bytes);
                }
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        None
    }

    fn insert_mem(&self, key: u64, bytes: Vec<u8>) {
        let mut inner = self.inner.lock().unwrap();
        inner.lru.retain(|&k| k != key);
        inner.lru.push(key);
        inner.map.insert(key, bytes);
        while inner.lru.len() > self.capacity {
            let evict = inner.lru.remove(0);
            inner.map.remove(&evict);
        }
    }

    /// Store `bytes` under `key` (memory + disk). Disk write failures
    /// are non-fatal — the cache is an optimization, not a store of
    /// record.
    pub fn insert(&self, key: u64, bytes: Vec<u8>) {
        if let Some(dir) = &self.dir {
            let _ = std::fs::create_dir_all(dir);
            let _ = nw_sim::atomic_write::write_atomic(&Self::entry_path(dir, key), &bytes);
        }
        self.insert_mem(key, bytes);
    }

    /// In-memory entry count.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().map.len()
    }

    /// Whether the cache holds no in-memory entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lookups answered from the cache.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that had to warm up cold.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }
}

/// Outcome of [`warm_start`].
pub enum WarmStart {
    /// A machine positioned exactly `warmup_events` events into the
    /// run, ready for the measured remainder.
    Ready {
        /// The warmed machine.
        machine: Box<Machine>,
        /// Whether the warm cache supplied the state (vs a cold warmup
        /// that was then cached).
        hit: bool,
    },
    /// The whole run finished inside the warmup budget; there is no
    /// remainder to measure.
    Finished(Box<RunMetrics>),
}

/// Errors out of [`warm_start`].
#[derive(Debug)]
pub enum WarmError {
    /// The underlying simulation or checkpoint machinery failed.
    Sim(SimError),
    /// `verify` found the cached checkpoint differs from a cold warmup
    /// — the run must not proceed from it.
    Drift {
        /// Names of the differing `nwckpt` sections.
        sections: Vec<&'static str>,
    },
}

impl std::fmt::Display for WarmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WarmError::Sim(e) => write!(f, "{e}"),
            WarmError::Drift { sections } => write!(
                f,
                "warm-state cache drift: cached checkpoint differs from a cold warmup in [{}]",
                sections.join(", ")
            ),
        }
    }
}

impl From<SimError> for WarmError {
    fn from(e: SimError) -> Self {
        WarmError::Sim(e)
    }
}

fn cold_warmup(cfg: &MachineConfig, spec: &str, warmup_events: u64) -> Result<WarmStart, SimError> {
    let sel = AppSel::parse(spec)?;
    cfg.validate().map_err(SimError::BadConfig)?;
    let build = sel.build(cfg)?;
    let mut m = Machine::try_from_build(cfg.clone(), build)?;
    match m.try_run_events(warmup_events)? {
        RunOutcome::Done(metrics) => Ok(WarmStart::Finished(metrics)),
        RunOutcome::Paused => Ok(WarmStart::Ready {
            machine: Box::new(m),
            hit: false,
        }),
    }
}

/// Produce a machine warmed by exactly `warmup_events` events of
/// `spec` on `cfg`, via the cache when possible.
///
/// * miss → run the warmup cold, cache the post-warmup checkpoint,
///   return the live machine;
/// * hit → restore the cached checkpoint; with `verify`, first re-run
///   the warmup cold and require the cached bytes to be
///   `ckpt-diff`-clean against the fresh checkpoint ([`WarmError::Drift`]
///   otherwise).
///
/// A run that completes within the warmup budget short-circuits to
/// [`WarmStart::Finished`] without touching the cache.
pub fn warm_start(
    cache: &WarmCache,
    cfg: &MachineConfig,
    spec: &str,
    warmup_events: u64,
    verify: bool,
) -> Result<WarmStart, WarmError> {
    let key = checkpoint::warm_key(cfg, spec, warmup_events);
    if let Some(cached) = cache.lookup(key) {
        if verify {
            match cold_warmup(cfg, spec, warmup_events)? {
                WarmStart::Finished(_) => {
                    // The cached entry claims the run pauses at the
                    // warmup mark, a cold run finishes before it:
                    // unambiguous drift.
                    return Err(WarmError::Drift {
                        sections: vec!["META"],
                    });
                }
                WarmStart::Ready { mut machine, .. } => {
                    let fresh = machine.checkpoint(spec);
                    let diffs = checkpoint::diff_bytes(&cached, &fresh).map_err(|e| {
                        WarmError::Sim(SimError::CheckpointCorrupt {
                            path: "<warm-cache>".into(),
                            detail: e.to_string(),
                        })
                    })?;
                    let bad: Vec<&'static str> = diffs
                        .iter()
                        .filter(|d| !d.is_same())
                        .map(|d| checkpoint::sections::name(d.id()))
                        .collect();
                    if !bad.is_empty() {
                        return Err(WarmError::Drift { sections: bad });
                    }
                }
            }
        }
        let (_meta, machine) = checkpoint::machine_from_bytes(&cached)?;
        return Ok(WarmStart::Ready {
            machine: Box::new(machine),
            hit: true,
        });
    }
    let mut started = cold_warmup(cfg, spec, warmup_events)?;
    if let WarmStart::Ready { machine, .. } = &mut started {
        cache.insert(key, machine.checkpoint(spec));
    }
    Ok(started)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nwcache::config::{MachineKind, PrefetchMode};

    fn cfg() -> MachineConfig {
        MachineConfig::scaled_paper(MachineKind::NwCache, PrefetchMode::Naive, 0.05)
    }

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "nwserve-cache-{name}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn miss_then_hit_and_counters() {
        let cache = WarmCache::new(None, 4);
        let c = cfg();
        let first = warm_start(&cache, &c, "sor", 500, false).unwrap();
        assert!(matches!(first, WarmStart::Ready { hit: false, .. }));
        assert_eq!((cache.hits(), cache.misses()), (0, 1));
        let second = warm_start(&cache, &c, "sor", 500, false).unwrap();
        assert!(matches!(second, WarmStart::Ready { hit: true, .. }));
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn warm_equals_cold_bit_identical_remainder() {
        let cache = WarmCache::new(None, 4);
        let c = cfg();
        // Cold reference: run straight through.
        let cold = nwcache::try_run_app(&c, nw_apps::AppId::Sor).unwrap();
        // Warm path twice: miss (cold warmup + cache) and hit (restore).
        for _ in 0..2 {
            match warm_start(&cache, &c, "sor", 500, false).unwrap() {
                WarmStart::Ready { mut machine, .. } => {
                    let got = match machine.try_run_events(u64::MAX).unwrap() {
                        RunOutcome::Done(m) => *m,
                        RunOutcome::Paused => panic!("unbounded run paused"),
                    };
                    assert_eq!(got, cold);
                }
                WarmStart::Finished(_) => panic!("run finished inside warmup"),
            }
        }
    }

    #[test]
    fn verify_accepts_honest_entries_and_rejects_drift() {
        let cache = WarmCache::new(None, 4);
        let c = cfg();
        let _ = warm_start(&cache, &c, "sor", 500, false).unwrap();
        // Honest entry passes verification.
        match warm_start(&cache, &c, "sor", 500, true).unwrap() {
            WarmStart::Ready { hit, .. } => assert!(hit),
            WarmStart::Finished(_) => panic!("run finished inside warmup"),
        }
        // Poison the cached entry with a checkpoint from a *different*
        // warmup length under the 500-event key: structurally valid,
        // semantically wrong.
        let key = checkpoint::warm_key(&c, "sor", 500);
        let poisoned = match cold_warmup(&c, "sor", 700).unwrap() {
            WarmStart::Ready { mut machine, .. } => machine.checkpoint("sor"),
            WarmStart::Finished(_) => panic!("run finished inside warmup"),
        };
        cache.insert(key, poisoned);
        match warm_start(&cache, &c, "sor", 500, true) {
            Err(WarmError::Drift { sections }) => {
                assert!(!sections.is_empty());
                assert!(sections.contains(&"ENGINE"), "{sections:?}");
            }
            Err(WarmError::Sim(e)) => panic!("wrong error: {e}"),
            Ok(_) => panic!("verification accepted a poisoned entry"),
        }
    }

    #[test]
    fn lru_evicts_oldest_beyond_capacity() {
        let cache = WarmCache::new(None, 2);
        cache.insert(1, vec![1]);
        cache.insert(2, vec![2]);
        // Touch 1 so 2 becomes the LRU victim.
        let mut inner = cache.inner.lock().unwrap();
        inner.lru.retain(|&k| k != 1);
        inner.lru.push(1);
        drop(inner);
        cache.insert(3, vec![3]);
        let inner = cache.inner.lock().unwrap();
        assert_eq!(inner.map.len(), 2);
        assert!(inner.map.contains_key(&1) && inner.map.contains_key(&3));
        assert!(!inner.map.contains_key(&2));
    }

    #[test]
    fn disk_persistence_survives_a_new_cache_instance() {
        let dir = scratch("persist");
        let c = cfg();
        {
            let cache = WarmCache::new(Some(dir.clone()), 4);
            let _ = warm_start(&cache, &c, "sor", 500, false).unwrap();
        }
        // Fresh instance, empty memory: the disk entry must satisfy
        // the lookup (and still verify clean).
        let cache = WarmCache::new(Some(dir.clone()), 4);
        assert!(cache.is_empty());
        match warm_start(&cache, &c, "sor", 500, true).unwrap() {
            WarmStart::Ready { hit, .. } => assert!(hit),
            WarmStart::Finished(_) => panic!("run finished inside warmup"),
        }
        assert_eq!(cache.misses(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_disk_entry_is_a_miss_not_an_error() {
        let dir = scratch("corrupt");
        let c = cfg();
        let key = checkpoint::warm_key(&c, "sor", 500);
        std::fs::write(WarmCache::entry_path(&dir, key), b"not a checkpoint").unwrap();
        let cache = WarmCache::new(Some(dir.clone()), 4);
        match warm_start(&cache, &c, "sor", 500, false).unwrap() {
            WarmStart::Ready { hit, .. } => assert!(!hit),
            WarmStart::Finished(_) => panic!("run finished inside warmup"),
        }
        assert_eq!(cache.misses(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn warm_states_keyed_by_older_event_accounting_are_misses() {
        // The key the first event accounting (one queue entry per
        // flush check) gave: no accounting version folded in.
        fn v1_key(cfg: &MachineConfig, spec: &str, warmup_events: u64) -> u64 {
            let mut bytes = checkpoint::config_to_bytes(cfg);
            bytes.extend_from_slice(spec.as_bytes());
            bytes.extend_from_slice(&warmup_events.to_le_bytes());
            nw_sim::ckpt::fnv1a(&bytes)
        }
        let dir = scratch("v1-key");
        let c = MachineConfig::scaled_paper(MachineKind::Standard, PrefetchMode::Naive, 0.05);
        assert_ne!(v1_key(&c, "sor", 500), checkpoint::warm_key(&c, "sor", 500));
        // An older binary's state for "500 events" cut the run at a
        // different point than 500 events cut it now.
        let stale = match cold_warmup(&c, "sor", 700).unwrap() {
            WarmStart::Ready { mut machine, .. } => machine.checkpoint("sor"),
            WarmStart::Finished(_) => panic!("run finished inside warmup"),
        };
        std::fs::write(WarmCache::entry_path(&dir, v1_key(&c, "sor", 500)), stale).unwrap();
        let cache = WarmCache::new(Some(dir.clone()), 4);
        // Verify mode sees a miss, not a spurious drift.
        match warm_start(&cache, &c, "sor", 500, true).unwrap() {
            WarmStart::Ready { hit, .. } => assert!(!hit),
            WarmStart::Finished(_) => panic!("run finished inside warmup"),
        }
        assert_eq!((cache.hits(), cache.misses()), (0, 1));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn run_finishing_inside_warmup_short_circuits() {
        let cache = WarmCache::new(None, 4);
        match warm_start(&cache, &cfg(), "sor", u64::MAX, false).unwrap() {
            WarmStart::Finished(m) => assert!(m.exec_time > 0),
            WarmStart::Ready { .. } => panic!("u64::MAX warmup did not finish the run"),
        }
        assert!(cache.is_empty());
    }
}
