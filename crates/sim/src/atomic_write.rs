//! Atomic output-file writes shared by every artifact emitter.
//!
//! Every durable artifact the workspace produces — checkpoints, sweep
//! JSON reports, Perfetto traces, recorded `nwtrace` files,
//! warm-state cache entries — is written through [`write_atomic`]: the
//! bytes land in a sibling temp file first and are renamed over the
//! target. `rename(2)` within one directory is atomic on every
//! platform we care about, so a concurrent reader (or a crash mid-
//! write) can only ever observe the previous complete file or the new
//! complete file, never a truncated hybrid. The `nwsim` and
//! `reproduce` binaries and the server's checkpoint cache all funnel
//! through this one helper instead of carrying private copies.

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

/// Per-process counter distinguishing temp files when several threads
/// write the same target concurrently (two autosaving jobs, say): each
/// in-flight write gets its own temp name, so one thread's rename can
/// never ship another thread's half-written bytes.
static WRITE_SEQ: AtomicU64 = AtomicU64::new(0);

/// Write `bytes` to `path` atomically: the data lands in a sibling
/// temp file first and is renamed over the target, so a crash mid-write
/// can never leave a truncated artifact at `path`, and concurrent
/// writers of the same path never interleave partial contents.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let file_name = path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| "out".to_string());
    let seq = WRITE_SEQ.fetch_add(1, Ordering::Relaxed);
    let tmp = path.with_file_name(format!(
        ".{file_name}.tmp.{}.{seq}",
        std::process::id()
    ));
    std::fs::write(&tmp, bytes)?;
    match std::fs::rename(&tmp, path) {
        Ok(()) => Ok(()),
        Err(e) => {
            let _ = std::fs::remove_file(&tmp);
            Err(e)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replaces_and_leaves_no_temp() {
        let dir = std::env::temp_dir().join(format!("nw-atomic-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let target = dir.join("out.bin");
        write_atomic(&target, b"first").unwrap();
        write_atomic(&target, b"second").unwrap();
        assert_eq!(std::fs::read(&target).unwrap(), b"second");
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
            .collect();
        assert!(leftovers.is_empty(), "temp files left behind");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn concurrent_writers_never_tear() {
        let dir = std::env::temp_dir().join(format!("nw-atomic-race-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let target = dir.join("contested.bin");
        let a: Vec<u8> = vec![0xAA; 64 * 1024];
        let b: Vec<u8> = vec![0xBB; 48 * 1024];
        std::thread::scope(|s| {
            let ta = s.spawn(|| {
                for _ in 0..50 {
                    write_atomic(&target, &a).unwrap();
                }
            });
            let tb = s.spawn(|| {
                for _ in 0..50 {
                    write_atomic(&target, &b).unwrap();
                }
            });
            // Reads racing the writers must always see one complete
            // payload, never a mix or a truncation.
            for _ in 0..200 {
                if let Ok(got) = std::fs::read(&target) {
                    assert!(got == a || got == b, "torn read: {} bytes", got.len());
                }
            }
            ta.join().unwrap();
            tb.join().unwrap();
        });
        let got = std::fs::read(&target).unwrap();
        assert!(got == a || got == b);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
