//! Restart benchmark for the scuba fast-restart reproduction.
//!
//! ```sh
//! cargo run --release --manifest-path restartbench/Cargo.toml -- \
//!     --workload restart_planned --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Drives the public API (`LeafServer`, `HostedCluster`, `scuba::obs`
//! readers) through one of four seeded workloads, checks every answer,
//! and prints one JSON line last: `correct`, `attempted`, `failed` and the
//! metrics. `--trace 0` prints the end-to-end metrics; `--trace 1` runs
//! the workload untraced and then traced, and prints the per-layer
//! metrics, host ceilings and the tracing overhead. See `README.md`.

mod common;
mod host;
mod leafloop;
mod serve;
mod stats;
mod trace;

use std::path::PathBuf;
use std::time::Instant;

use common::{Ctx, Metrics, Outcome, OUT_DIR, SETUPS};
use leafloop::Kind;

/// Workload names, in `BENCHMARK.json` order.
const WORKLOADS: [&str; 4] = [
    "restart_planned",
    "restart_crash",
    "serve_rollover",
    "scan_tiered",
];

/// End-to-end metrics every untraced run prints, with units.
const END_TO_END: [(&str, &str); 12] = [
    ("setup_s", "s"),
    ("success_ratio", "ratio"),
    ("peak_rss_mib", "MiB"),
    ("ttfq_ms_p50", "ms"),
    ("ttfq_ms_p90", "ms"),
    ("ttfs_ms_p50", "ms"),
    ("query_ms_p50", "ms"),
    ("query_ms_p90", "ms"),
    ("ingest_ms_p50", "ms"),
    ("ingest_rows_per_s", "rows/s"),
    ("coverage", "ratio"),
    ("write_amp", "ratio"),
];

/// Per-layer metrics every traced run prints, with units. A layer a
/// workload does not exercise reports 0: it did no work.
const PER_LAYER: [(&str, &str); 62] = [
    ("host.memcpy_gbps", "GB/s"),
    ("host.first_touch_gbps", "GB/s"),
    ("host.crc_gbps", "GB/s"),
    ("host.fsync_ms", "ms"),
    ("leaf.shutdown_ms", "ms"),
    ("leaf.start_ms", "ms"),
    ("leaf.hydrate_ms", "ms"),
    ("leaf.checkpoint_ms", "ms"),
    ("leaf.add_rows_ms", "ms"),
    ("leaf.restore_peak_footprint_mib", "MiB"),
    ("leaf.copy_threads_used", "count"),
    ("leaf.service_ms_p50", "ms"),
    ("leaf.service_ms_p99", "ms"),
    ("leaf.demotions_per_1k_queries", "count"),
    ("leaf.promotions_per_1k_queries", "count"),
    ("leaf.residency_faults_per_1k_queries", "count"),
    ("restart.backup.prepare_ms", "ms"),
    ("restart.backup.extract_ms", "ms"),
    ("restart.backup.encode_ms", "ms"),
    ("restart.backup.crc_ms", "ms"),
    ("restart.backup.shm_write_ms", "ms"),
    ("restart.backup.commit_ms", "ms"),
    ("restart.restore.open_ms", "ms"),
    ("restart.restore.crc_ms", "ms"),
    ("restart.restore.heap_copy_ms", "ms"),
    ("restart.restore.decode_ms", "ms"),
    ("restart.restore.install_ms", "ms"),
    ("restart.phase_coverage", "ratio"),
    ("restart.backup_gbps", "GB/s"),
    ("restart.restore_gbps", "GB/s"),
    ("restart.backup_ceiling_frac", "ratio"),
    ("restart.restore_ceiling_frac", "ratio"),
    ("restart.wal_replay_ms", "ms"),
    ("restart.wal_records_replayed", "count"),
    ("shmem.crc_gbps", "GB/s"),
    ("shmem.crc_ceiling_frac", "ratio"),
    ("shmem.segments_created", "count"),
    ("shmem.segments_unlinked", "count"),
    ("query.probe_first_ms", "ms"),
    ("query.probe_steady_ms", "ms"),
    ("query.scan_ns_per_row", "ns"),
    ("query.zonemap_pruned_ratio", "ratio"),
    ("columnstore.unsealed_rows_at_query", "count"),
    ("columnstore.encoded_bytes_per_row", "B"),
    ("diskstore.sync_ms", "ms"),
    ("diskstore.synced_bytes", "B"),
    ("diskstore.cold_bytes_written", "B"),
    ("cluster.fanout_ms_p50", "ms"),
    ("cluster.fanout_ms_p99", "ms"),
    ("cluster.add_rows_ms", "ms"),
    ("cluster.wave_ms", "ms"),
    ("cluster.legs_shed_ratio", "ratio"),
    ("cluster.legs_unavailable_ratio", "ratio"),
    ("cluster.ingest_retries", "count"),
    ("bench.ingest_ms_p90", "ms"),
    ("bench.query_ms_p99", "ms"),
    ("bench.ingest_ms_p99", "ms"),
    ("bench.gen_late_ms_p99", "ms"),
    ("bench.gen_late_ratio", "ratio"),
    ("obs.trace_overhead_pct", "%"),
    ("obs.untraced_s", "s"),
    ("obs.traced_s", "s"),
];

struct Args {
    workload: String,
    seed: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut trace) = (None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: std::num::ParseIntError| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(bad)?),
            // Accepted for the benchmark runner's command line; the work is
            // a fixed count of cycles and requests (noise rule N4).
            "--seconds" => {
                value.parse::<u64>().map_err(bad)?;
            }
            "--trace" => trace = Some(value.parse::<u8>().map_err(bad)? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; one of {WORKLOADS:?}"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn run_workload(
    name: &str,
    ctx: &Ctx,
    setups: usize,
    traced: bool,
    epoch: Instant,
) -> Result<Outcome, String> {
    match name {
        "restart_planned" => leafloop::run(Kind::Planned, ctx, setups, traced, epoch),
        "restart_crash" => leafloop::run(Kind::Crash, ctx, setups, traced, epoch),
        "scan_tiered" => leafloop::run(Kind::Tiered, ctx, setups, traced, epoch),
        "serve_rollover" => serve::run(ctx, setups, traced, epoch),
        other => Err(format!("unknown workload {other}")),
    }
}

/// The untraced run: end-to-end metrics only.
fn end_to_end(args: &Args, ctx: &Ctx) -> Result<(Outcome, Metrics), String> {
    let mut out = run_workload(&args.workload, ctx, SETUPS, false, Instant::now())?;
    out.e2e.put("success_ratio", out.success_ratio(), "ratio");
    out.e2e.put("peak_rss_mib", host::peak_rss_mib()?, "MiB");
    let metrics = select(&out.e2e, &END_TO_END, false)?;
    Ok((out, metrics))
}

/// The traced run: an untraced pass, then a traced pass over the same
/// inputs, the host ceilings, and every per-layer metric.
fn traced(args: &Args, ctx: &Ctx) -> Result<(Outcome, Metrics), String> {
    scuba::obs::set_enabled(true);
    let ceilings = host::ceilings(&ctx.out).map_err(|e| format!("host ceilings: {e}"))?;
    let plain = run_workload(&args.workload, ctx, 1, false, Instant::now())?;
    let mut out = run_workload(&args.workload, ctx, 1, true, Instant::now())?;
    out.attempted += plain.attempted;
    out.failed += plain.failed;
    out.errors.extend(plain.errors);

    let l = &mut out.layer;
    l.put("host.memcpy_gbps", ceilings.memcpy_gbps, "GB/s");
    l.put("host.first_touch_gbps", ceilings.first_touch_gbps, "GB/s");
    l.put("host.crc_gbps", ceilings.crc_gbps, "GB/s");
    l.put("host.fsync_ms", ceilings.fsync_ms, "ms");
    let frac = |l: &Metrics, name: &str, ceiling: f64| {
        l.0.iter()
            .find(|(n, _, _)| *n == name)
            .map_or(0.0, |m| m.1 / ceiling)
    };
    let backup = frac(l, "restart.backup_gbps", ceilings.first_touch_gbps);
    let restore = frac(l, "restart.restore_gbps", ceilings.first_touch_gbps);
    let crc = frac(l, "shmem.crc_gbps", ceilings.crc_gbps);
    l.put("restart.backup_ceiling_frac", backup, "ratio");
    l.put("restart.restore_ceiling_frac", restore, "ratio");
    l.put("shmem.crc_ceiling_frac", crc, "ratio");
    l.put(
        "obs.trace_overhead_pct",
        (out.measured_s / plain.measured_s - 1.0) * 100.0,
        "%",
    );
    l.put("obs.untraced_s", plain.measured_s, "s");
    l.put("obs.traced_s", out.measured_s, "s");

    if let Some(tr) = out.trace.as_ref() {
        let path = ctx
            .out
            .join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
        tr.write_jsonl(&path)
            .map_err(|e| format!("write spans: {e}"))?;
        eprintln!("spans written to {}", path.display());
        for (name, ms) in tr.self_ms() {
            eprintln!("  self time {name:<28} {ms:>12.3} ms");
        }
    }
    let metrics = select(&out.layer, &PER_LAYER, true)?;
    Ok((out, metrics))
}

/// Pick `wanted` out of `have` in order. Missing per-layer metrics read 0
/// (the layer did no work); a missing end-to-end metric is an error.
fn select(
    have: &Metrics,
    wanted: &[(&'static str, &'static str)],
    zero_if_missing: bool,
) -> Result<Metrics, String> {
    let mut out = Metrics::default();
    for &(name, unit) in wanted {
        let value = match have.0.iter().find(|(n, _, _)| *n == name) {
            Some((_, v, u)) if *u == unit => *v,
            Some((_, _, u)) => return Err(format!("{name} measured in {u}, declared in {unit}")),
            None if zero_if_missing => 0.0,
            None => return Err(format!("workload did not measure {name}")),
        };
        if !value.is_finite() {
            return Err(format!("{name} is not finite: {value}"));
        }
        out.put(name, value, unit);
    }
    Ok(out)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("restartbench: {e}");
            eprintln!(
                "usage: restartbench --workload <name> --seed <n> [--seconds <s>] [--trace 0|1]"
            );
            std::process::exit(2);
        }
    };
    let out = PathBuf::from(OUT_DIR);
    if let Err(e) = std::fs::create_dir_all(&out) {
        eprintln!("restartbench: create {}: {e}", out.display());
        std::process::exit(2);
    }
    let ctx = Ctx {
        seed: args.seed,
        out,
    };
    let result = if args.trace {
        traced(&args, &ctx)
    } else {
        end_to_end(&args, &ctx)
    };
    let (outcome, metrics) = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("restartbench: {}: {e}", args.workload);
            std::process::exit(1);
        }
    };
    for e in &outcome.errors {
        eprintln!("restartbench: FAILED: {e}");
    }
    let body: Vec<String> = metrics
        .0
        .iter()
        .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed,
        body.join(", ")
    );
}
