//! Host ceilings and process memory.
//!
//! The traced run measures what this host can do at best — warm memcpy,
//! memcpy into fresh pages, CRC-32 through the program's own checksum,
//! and a small fsync — so each restart layer can be read as a fraction of
//! its ceiling and host drift told apart from a regression.

use std::hint::black_box;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use crate::stats::median;

/// Bytes moved per ceiling trial.
const CEILING_BYTES: usize = 32 << 20;
/// Trials per ceiling; the median is reported.
const TRIALS: usize = 7;

/// Measured host ceilings.
#[derive(Debug, Clone, Copy)]
pub struct Ceilings {
    /// Copy between two already-touched buffers, GB/s.
    pub memcpy_gbps: f64,
    /// Copy into freshly allocated (never touched) pages, GB/s.
    pub first_touch_gbps: f64,
    /// `scuba::shmem::crc32` over a warm buffer, GB/s.
    pub crc_gbps: f64,
    /// Write 4 KiB and `sync_all`, milliseconds.
    pub fsync_ms: f64,
}

/// Run every ceiling probe; `scratch` is a directory for the fsync file.
pub fn ceilings(scratch: &Path) -> std::io::Result<Ceilings> {
    let src: Vec<u8> = (0..CEILING_BYTES).map(|i| (i * 31 % 251) as u8).collect();
    let gbps = |secs: f64| CEILING_BYTES as f64 / secs / 1e9;

    let mut dst = vec![0u8; CEILING_BYTES];
    dst.copy_from_slice(&src);
    let warm: Vec<f64> = (0..TRIALS)
        .map(|_| {
            let t = Instant::now();
            dst.copy_from_slice(black_box(&src));
            black_box(&dst);
            gbps(t.elapsed().as_secs_f64())
        })
        .collect();

    let fresh: Vec<f64> = (0..TRIALS)
        .map(|_| {
            let t = Instant::now();
            let mut v: Vec<u8> = Vec::with_capacity(CEILING_BYTES);
            v.extend_from_slice(black_box(&src));
            black_box(&v);
            gbps(t.elapsed().as_secs_f64())
        })
        .collect();

    let crc: Vec<f64> = (0..TRIALS)
        .map(|_| {
            let t = Instant::now();
            black_box(scuba::shmem::crc32(black_box(&src)));
            gbps(t.elapsed().as_secs_f64())
        })
        .collect();

    let path = scratch.join("fsync_probe");
    let mut fsync = Vec::with_capacity(TRIALS);
    let mut file = std::fs::File::create(&path)?;
    for i in 0..TRIALS {
        let t = Instant::now();
        file.write_all(&[i as u8; 4096])?;
        file.sync_all()?;
        fsync.push(t.elapsed().as_secs_f64() * 1e3);
    }
    drop(file);
    std::fs::remove_file(&path)?;

    Ok(Ceilings {
        memcpy_gbps: median(&warm),
        first_touch_gbps: median(&fresh),
        crc_gbps: median(&crc),
        fsync_ms: median(&fsync),
    })
}

/// Peak resident set (`VmHWM`) in MiB. Mapped shared memory counts while
/// it is mapped and touched.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// Reset the `VmHWM` high-water mark to the current resident set, so the
/// peak covers only what follows (input generation and set-up excluded).
pub fn reset_peak_rss() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5").map_err(|e| format!("reset VmHWM: {e}"))
}
