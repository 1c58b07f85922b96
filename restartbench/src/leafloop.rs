//! The single-leaf workloads: `restart_planned`, `restart_crash` and
//! `scan_tiered`.
//!
//! All three run the same fixed cycle against one `LeafServer`, with a
//! different leaf configuration and input shape:
//!
//! 1. ingest a fixed number of batches, routed to tables by the seed
//!    (crash: a `checkpoint_and_wait` every `ckpt_rows` rows and a
//!    `sync_disk` every `sync_every` batches, timed as part of the batch
//!    that triggers them);
//! 2. run the workload's single dashboard query class a fixed number of
//!    times, every answer checked against an oracle kept by the benchmark;
//! 3. planned and tiered: one `sync_disk` (crash syncs inside its batches);
//! 4. answer one steady probe;
//! 5. restart: `shutdown_to_shm` (crash: `crash()`), `LeafServer::start`,
//!    first probe (time to first query), then hydration and a second probe
//!    when the restart attached instead of copying (time to full speed).

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use scuba::columnstore::{Row, Value};
use scuba::ingest::{WorkloadKind, WorkloadSpec};
use scuba::leaf::{
    HydrationMode, LeafConfig, LeafServer, RecoveryOutcome, RestoreMode, TieringMode,
};
use scuba::obs::{Phase, RestartReport, BACKUP_PHASES, RESTORE_PHASES};
use scuba::query::{AggSpec, GroupKey, LeafQueryResult, Query};

use crate::common::{
    dense_rows, ms_since, probe_ok, probe_query, probe_rows, row_bytes, Ctx, Metrics, Outcome,
    Registry, Rig, Rng, PROBE_TABLE,
};
use crate::stats::{median, Series};
use crate::trace::Trace;

/// The three paper tables (§2), in input order.
const PAPER: [WorkloadKind; 3] = [
    WorkloadKind::ErrorLogs,
    WorkloadKind::Requests,
    WorkloadKind::AdsMetrics,
];
/// Index of the requests table in [`PAPER`]; the dashboard query reads it.
const REQUESTS: usize = 1;
/// The bulk high-entropy table: never queried, it sizes the leaf.
const DENSE: &str = "dense";

/// Which single-leaf workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Planned restarts: Full copy-back restore, checkpointer off.
    Planned,
    /// Crash restarts: checkpoints + WAL, two-phase attach, eager hydration.
    Crash,
    /// SIEVE tiering under a memory budget of about a quarter of the data.
    Tiered,
}

/// Fixed work of one workload.
#[derive(Debug, Clone, Copy)]
struct Params {
    setup_rows: [usize; 3],
    dense_rows: usize,
    route: &'static [usize],
    cycles: usize,
    batches_per_cycle: usize,
    rows_per_batch: usize,
    queries_per_cycle: usize,
    ckpt_rows: usize,
    sync_every: usize,
    budget_bytes: usize,
}

impl Kind {
    fn tag(self) -> &'static str {
        match self {
            Kind::Planned => "planned",
            Kind::Crash => "crash",
            Kind::Tiered => "tiered",
        }
    }

    fn params(self) -> Params {
        match self {
            Kind::Planned => Params {
                setup_rows: [60_000, 60_000, 60_000],
                dense_rows: 150_000,
                route: &[0, 1, 2],
                cycles: 100,
                batches_per_cycle: 12,
                rows_per_batch: 64,
                queries_per_cycle: 10,
                ckpt_rows: 0,
                sync_every: 0,
                budget_bytes: 0,
            },
            Kind::Crash => Params {
                setup_rows: [40_000, 40_000, 40_000],
                dense_rows: 20_000,
                route: &[0, 1, 2],
                cycles: 100,
                batches_per_cycle: 12,
                rows_per_batch: 256,
                queries_per_cycle: 10,
                ckpt_rows: 2048,
                sync_every: 12,
                budget_bytes: 0,
            },
            Kind::Tiered => Params {
                setup_rows: [0, 200_000, 0],
                dense_rows: 20_000,
                route: &[REQUESTS],
                cycles: 100,
                batches_per_cycle: 10,
                rows_per_batch: 128,
                queries_per_cycle: 10,
                ckpt_rows: 0,
                sync_every: 0,
                budget_bytes: 512 << 10,
            },
        }
    }

    fn config(self, rig: &Rig, p: &Params) -> LeafConfig {
        let mut cfg = LeafConfig::new(0, &rig.prefix, &rig.dir);
        match self {
            Kind::Planned => {}
            Kind::Crash => {
                cfg.checkpoint_enabled = true;
                cfg.restore_mode = RestoreMode::TwoPhase;
                cfg.hydration = HydrationMode::Eager;
            }
            Kind::Tiered => {
                cfg.tiering = TieringMode::Sieve;
                cfg.memory_budget_bytes = p.budget_bytes;
            }
        }
        cfg
    }
}

/// Everything generated from the seed before any timer starts.
struct Inputs {
    /// Set-up rows per paper table; dropped once set-up is done.
    setup: Vec<Vec<Row>>,
    /// Set-up row counts per paper table and requests rows by status.
    setup_counts: [u64; 3],
    setup_statuses: BTreeMap<i64, u64>,
    dense: Vec<Row>,
    probe: Vec<Row>,
    probe_sum: f64,
    /// (paper table index, rows, row-format bytes) in ingest order.
    batches: Vec<(usize, Vec<Row>, u64)>,
    dashboard: Query,
}

fn inputs(p: &Params, ctx: &Ctx) -> Inputs {
    let cycles = p.cycles;
    // Every cycle sends the same number of batches to each table, in a
    // seeded order: table sizes at each restart do not depend on the seed.
    let mut rng = Rng::new(ctx.seed, 1);
    let mut route = Vec::with_capacity(cycles * p.batches_per_cycle);
    for _ in 0..cycles {
        let mut cycle: Vec<usize> = (0..p.batches_per_cycle)
            .map(|b| p.route[b % p.route.len()])
            .collect();
        for i in (1..cycle.len()).rev() {
            cycle.swap(i, rng.below(i + 1));
        }
        route.extend(cycle);
    }
    let mut setup = Vec::new();
    let mut tails = Vec::new();
    for (i, kind) in PAPER.iter().enumerate() {
        let tail = route.iter().filter(|&&t| t == i).count() * p.rows_per_batch;
        let mut rows = WorkloadSpec::new(*kind, ctx.seed.wrapping_mul(31).wrapping_add(i as u64))
            .rows(p.setup_rows[i] + tail);
        let tail_rows = rows.split_off(p.setup_rows[i]);
        setup.push(rows);
        tails.push(tail_rows.into_iter());
    }
    let batches = route
        .iter()
        .map(|&t| {
            let rows: Vec<Row> = tails[t].by_ref().take(p.rows_per_batch).collect();
            let bytes = row_bytes(&rows);
            (t, rows, bytes)
        })
        .collect();
    let dense = dense_rows(p.dense_rows, ctx.seed.wrapping_add(1));
    let (probe, probe_sum) = probe_rows(ctx.seed);
    let mut setup_statuses = BTreeMap::new();
    status_counts(&setup[REQUESTS], &mut setup_statuses);
    Inputs {
        setup_counts: [0, 1, 2].map(|i| setup[i].len() as u64),
        setup_statuses,
        setup,
        dense,
        probe,
        probe_sum,
        batches,
        dashboard: Query::new(PAPER[REQUESTS].table_name(), i64::MIN, i64::MAX)
            .group_by("status")
            .aggregates(vec![AggSpec::Count]),
    }
}

/// Rows per status in the requests table: the dashboard oracle.
fn status_counts(rows: &[Row], into: &mut BTreeMap<i64, u64>) {
    for r in rows {
        if let Some(Value::Int(s)) = r.get("status") {
            *into.entry(*s).or_insert(0) += 1;
        }
    }
}

fn dashboard_counts(r: &LeafQueryResult) -> BTreeMap<i64, u64> {
    r.groups
        .iter()
        .filter_map(|(k, states)| match (k, states[0].finish()) {
            (GroupKey::Int(s), Value::Int(n)) => Some((*s, n as u64)),
            _ => None,
        })
        .collect()
}

/// A booted, loaded leaf plus what set-up cost.
struct Loaded {
    rig: Rig,
    cfg: LeafConfig,
    leaf: LeafServer,
    secs: f64,
}

fn set_up(kind: Kind, p: &Params, inputs: &Inputs, out: &Path) -> Result<Loaded, String> {
    let rig = Rig::new(out, kind.tag(), 1);
    let cfg = kind.config(&rig, p);
    let err = |what: &str, e: &dyn std::fmt::Display| format!("set-up {what}: {e}");
    let t = Instant::now();
    let mut leaf = LeafServer::new(cfg.clone()).map_err(|e| err("boot", &e))?;
    for (i, rows) in inputs.setup.iter().enumerate() {
        for chunk in rows.chunks(50_000) {
            leaf.add_rows(PAPER[i].table_name(), chunk, chunk[0].time())
                .map_err(|e| err("ingest", &e))?;
        }
    }
    for chunk in inputs.dense.chunks(50_000) {
        leaf.add_rows(DENSE, chunk, chunk[0].time())
            .map_err(|e| err("ingest", &e))?;
    }
    leaf.add_rows(PROBE_TABLE, &inputs.probe, 0)
        .map_err(|e| err("ingest", &e))?;
    leaf.store_mut_for_bench()
        .seal_all(0)
        .map_err(|e| err("seal", &e))?;
    leaf.sync_disk().map_err(|e| err("sync", &e))?;
    match kind {
        Kind::Crash => {
            leaf.checkpoint_and_wait()
                .map_err(|e| err("checkpoint", &e))?;
        }
        Kind::Tiered => leaf.poll_tiering().map_err(|e| err("tiering", &e))?,
        Kind::Planned => {}
    }
    let secs = t.elapsed().as_secs_f64();
    Ok(Loaded {
        rig,
        cfg,
        leaf,
        secs,
    })
}

/// Bytes in the leaf's cold-tier files (append-only, so growth = bytes
/// written).
fn cold_file_bytes(rig: &Rig) -> u64 {
    std::fs::read_dir(rig.dir.join("cold"))
        .map(|dir| {
            dir.flatten()
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

fn leaf_gauge(name: &str, key: &str) -> Option<i64> {
    scuba::obs::gauge_value(&scuba::obs::labeled_name(name, &[("leaf", key)]))
}

/// `sync_disk` as its own span; returns the bytes it flushed.
fn sync(leaf: &mut LeafServer, tr: &mut Trace, out: &mut Outcome, cycle: u64) -> u64 {
    let s = tr.begin("diskstore.sync", cycle);
    let synced = leaf.sync_disk();
    tr.end(s);
    synced.unwrap_or_else(|e| {
        out.fail(format!("sync_disk: {e}"));
        0
    })
}

/// Per-restart layer samples collected by traced passes.
#[derive(Default)]
struct LayerSamples {
    stop_ms: Vec<f64>,
    start_ms: Vec<f64>,
    backup: BTreeMap<&'static str, Vec<f64>>,
    restore: BTreeMap<&'static str, Vec<f64>>,
    backup_bytes: u64,
    backup_ms: f64,
    restore_bytes: u64,
    restore_ms: f64,
    peak_footprint: usize,
    copy_threads: Vec<f64>,
    wal_replay_ms: Vec<f64>,
    wal_records: Vec<f64>,
    probe_first_ms: Vec<f64>,
    probe_steady_ms: Vec<f64>,
    unsealed_at_query: Vec<f64>,
    pruned_blocks: u64,
    visited_blocks: u64,
}

impl LayerSamples {
    fn capture_restart(&mut self, outcome: &RecoveryOutcome) {
        let report = RestartReport::capture();
        if let Some(b) = report
            .backup
            .as_ref()
            .filter(|_| !matches!(outcome, RecoveryOutcome::MemoryAttached(_)))
        {
            for &phase in BACKUP_PHASES.iter() {
                self.backup
                    .entry(phase.name())
                    .or_default()
                    .push(b.phase(phase).as_secs_f64() * 1e3);
            }
            self.backup_bytes += b.bytes;
            self.backup_ms += b.total.as_secs_f64() * 1e3;
        }
        match outcome {
            RecoveryOutcome::Memory(r) => {
                if let Some(rb) = report.restore.as_ref() {
                    for &phase in RESTORE_PHASES.iter() {
                        self.restore
                            .entry(phase.name())
                            .or_default()
                            .push(rb.phase(phase).as_secs_f64() * 1e3);
                    }
                    self.restore_bytes += rb.bytes;
                    self.restore_ms += rb.total.as_secs_f64() * 1e3;
                }
                self.peak_footprint = self.peak_footprint.max(r.peak_footprint);
                self.copy_threads.push(r.threads as f64);
            }
            RecoveryOutcome::MemoryAttached(a) => {
                self.peak_footprint = self.peak_footprint.max(a.peak_footprint);
                self.copy_threads.push(0.0);
            }
            RecoveryOutcome::Disk { .. } => {}
        }
    }
}

fn phase_ms(map: &BTreeMap<&'static str, Vec<f64>>, phase: Phase) -> f64 {
    map.get(phase.name()).map_or(0.0, |v| median(v))
}

/// One measured pass over an already-loaded leaf.
fn measure(
    kind: Kind,
    p: &Params,
    inputs: &Inputs,
    loaded: Loaded,
    traced: bool,
    epoch: Instant,
) -> Result<Outcome, String> {
    let Loaded {
        rig, cfg, mut leaf, ..
    } = loaded;
    let mut out = Outcome::default();
    let mut tr = Trace::new(traced, epoch);
    let mut ttfq = Series::new("restart_probe");
    let mut ttfs = Series::new("restart_probe");
    let mut query_ms = Series::new("dashboard_status_counts");
    let mut ingest_ms = Series::new("ingest_batch");
    let mut layer = LayerSamples::default();
    let registry_before = if traced {
        Some(Registry::capture())
    } else {
        None
    };

    // Oracle state: acknowledged rows per table and requests by status.
    let mut acked = inputs.setup_counts;
    let mut statuses = inputs.setup_statuses.clone();
    let fixed_rows = (inputs.dense.len() + inputs.probe.len()) as u64;
    let probe = probe_query();

    let mut ingest_busy_s = 0.0;
    let mut rows_ingested = 0u64;
    let mut bytes_ingested = 0u64;
    let mut bytes_written = 0u64;
    let mut synced = 0u64;
    let mut since_ckpt = 0usize;
    let mut wal_base = leaf.wal_bytes();
    let cold_before = cold_file_bytes(&rig);
    let mut now = 0i64;
    let mut batches = inputs.batches.iter().enumerate();
    let cycles = inputs.batches.len() / p.batches_per_cycle;

    let started = Instant::now();
    for cycle in 0..cycles as u64 {
        let cyc = tr.begin("cycle", cycle);
        for _ in 0..p.batches_per_cycle {
            let Some((b, (table, rows, bytes))) = batches.next() else {
                break;
            };
            out.op();
            now = rows[0].time();
            let t = Instant::now();
            let s = tr.begin("leaf.add_rows", b as u64);
            let added = leaf.add_rows(PAPER[*table].table_name(), rows, now);
            tr.end(s);
            if let Err(e) = added {
                out.fail(format!("add_rows: {e}"));
                continue;
            }
            acked[*table] += rows.len() as u64;
            if *table == REQUESTS {
                status_counts(rows, &mut statuses);
            }
            rows_ingested += rows.len() as u64;
            bytes_ingested += bytes;
            since_ckpt += rows.len();
            if p.ckpt_rows > 0 && since_ckpt >= p.ckpt_rows {
                bytes_written += leaf.wal_bytes().saturating_sub(wal_base);
                let s = tr.begin("leaf.checkpoint", b as u64);
                let ck = leaf.checkpoint_and_wait();
                tr.end(s);
                match ck {
                    Ok(stats) => bytes_written += stats.bytes_written,
                    Err(e) => out.fail(format!("checkpoint: {e}")),
                }
                wal_base = leaf.wal_bytes();
                since_ckpt = 0;
            }
            if p.sync_every > 0 && (b + 1) % p.sync_every == 0 {
                synced += sync(&mut leaf, &mut tr, &mut out, cycle);
            }
            let ms = ms_since(t);
            ingest_ms.push(ms);
            ingest_busy_s += ms / 1e3;
            if kind == Kind::Tiered {
                let gauges = leaf_gauge("leaf_heap_bytes", leaf.obs_key())
                    .zip(leaf_gauge("leaf_shm_bytes", leaf.obs_key()))
                    .map(|(h, s)| (h + s) as usize);
                let resident = leaf.memory_used() + leaf.shm_resident();
                let seen = gauges.unwrap_or(resident).max(resident);
                out.check(seen <= p.budget_bytes, || {
                    format!("resident {seen} B over the {} B budget", p.budget_bytes)
                });
            }
        }

        for q in 0..p.queries_per_cycle {
            out.op();
            if traced {
                if let Some(t) = leaf.store().map().get(PAPER[REQUESTS].table_name()) {
                    layer.unsealed_at_query.push(t.unsealed_rows() as f64);
                }
            }
            let t = Instant::now();
            let s = tr.begin("leaf.query", cycle * 100 + q as u64);
            let r = leaf.query(&inputs.dashboard);
            tr.end(s);
            let ms = ms_since(t);
            match r {
                Ok(r) => {
                    query_ms.push(ms);
                    layer.pruned_blocks += r.blocks_zonemap_pruned;
                    layer.visited_blocks += r.blocks_zonemap_pruned + r.blocks_scanned;
                    let ok = r.rows_matched == acked[REQUESTS] && dashboard_counts(&r) == statuses;
                    out.check(ok, || {
                        format!(
                            "dashboard answered {} rows, {} acknowledged",
                            r.rows_matched, acked[REQUESTS]
                        )
                    });
                }
                Err(e) => out.fail(format!("query: {e}")),
            }
        }

        if p.sync_every == 0 {
            // One sync per cycle outside the ingest timings, so the
            // shutdown's own sync finds little dirty and fsync latency
            // does not ride on time to first query.
            out.op();
            synced += sync(&mut leaf, &mut tr, &mut out, cycle);
        }

        // Steady probe, then the restart.
        out.op();
        let t = Instant::now();
        let s = tr.begin("query.probe_steady", cycle);
        let r = leaf.query(&probe);
        tr.end(s);
        layer.probe_steady_ms.push(ms_since(t));
        match r {
            Ok(r) => out.check(probe_ok(&r, inputs.probe_sum), || {
                "steady probe answer changed".into()
            }),
            Err(e) => out.fail(format!("probe: {e}")),
        }

        out.op();
        let rows_before = leaf.total_rows() as u64;
        let expected = acked.iter().sum::<u64>() + fixed_rows;
        out.check(rows_before == expected, || {
            format!("leaf holds {rows_before} rows, {expected} acknowledged")
        });
        if kind == Kind::Crash {
            bytes_written += leaf.wal_bytes().saturating_sub(wal_base);
        }
        let t0 = Instant::now();
        let s = tr.begin("leaf.stop", cycle);
        if kind == Kind::Crash {
            leaf.crash();
        } else {
            match leaf.shutdown_to_shm(now) {
                Ok(summary) => {
                    bytes_written += summary.backup.bytes_copied;
                    synced += summary.disk_synced_bytes;
                }
                Err(e) => out.fail(format!("shutdown_to_shm: {e}")),
            }
        }
        drop(leaf);
        tr.end(s);
        let stop_ms = ms_since(t0);
        let s = tr.begin("leaf.start", cycle);
        let started_leaf = LeafServer::start(cfg.clone(), now, None);
        tr.end(s);
        let start_ms = ms_since(t0) - stop_ms;
        let (restarted, outcome) = started_leaf.map_err(|e| format!("restart {cycle}: {e}"))?;
        leaf = restarted;
        out.check(outcome.is_memory(), || {
            format!("restart {cycle} fell back to disk: {outcome:?}")
        });

        let t = Instant::now();
        let s = tr.begin("query.probe_first", cycle);
        let first = leaf.query(&probe);
        tr.end(s);
        let first_ms = ms_since(t);
        let mut ttfq_ms = ms_since(t0);
        match first {
            Ok(r) => out.check(probe_ok(&r, inputs.probe_sum), || {
                "probe after restart changed".into()
            }),
            Err(e) => {
                out.fail(format!("first probe: {e}"));
                ttfq_ms = f64::NAN;
            }
        }
        let mut ttfs_ms = ttfq_ms;
        if leaf.is_hydrating() {
            let s = tr.begin("leaf.hydrate", cycle);
            let hydrated = leaf.finish_hydration();
            tr.end(s);
            if let Err(e) = hydrated {
                out.fail(format!("hydration: {e}"));
            }
            out.op();
            let s = tr.begin("query.probe_hydrated", cycle);
            let r = leaf.query(&probe);
            tr.end(s);
            ttfs_ms = ms_since(t0);
            match r {
                Ok(r) => out.check(probe_ok(&r, inputs.probe_sum), || {
                    "probe after hydration changed".into()
                }),
                Err(e) => out.fail(format!("hydrated probe: {e}")),
            }
        }
        if ttfq_ms.is_finite() {
            ttfq.push(ttfq_ms);
            ttfs.push(ttfs_ms);
        }
        let rows_after = leaf.total_rows() as u64;
        out.check(rows_after == expected, || {
            format!("restart {cycle}: {rows_after} rows after, {expected} acknowledged")
        });
        wal_base = leaf.wal_bytes();
        if traced {
            layer.stop_ms.push(stop_ms);
            layer.start_ms.push(start_ms);
            layer.probe_first_ms.push(first_ms);
            layer.capture_restart(&outcome);
            if kind == Kind::Crash {
                layer.wal_records.push(leaf.wal_replayed_records() as f64);
                if let Some(ns) = leaf_gauge("leaf_wal_replay_ns", leaf.obs_key()) {
                    layer.wal_replay_ms.push(ns as f64 / 1e6);
                }
            }
        }
        tr.end(cyc);
    }
    out.measured_s = started.elapsed().as_secs_f64();
    let cold_written = cold_file_bytes(&rig).saturating_sub(cold_before);
    bytes_written += cold_written + synced;

    let e2e = &mut out.e2e;
    e2e.put("ttfq_ms_p50", ttfq.percentile(0.5)?, "ms");
    e2e.put("ttfq_ms_p90", ttfq.percentile(0.9)?, "ms");
    e2e.put("ttfs_ms_p50", ttfs.percentile(0.5)?, "ms");
    e2e.put("query_ms_p50", query_ms.percentile(0.5)?, "ms");
    e2e.put("query_ms_p90", query_ms.percentile(0.9)?, "ms");
    e2e.put("ingest_ms_p50", ingest_ms.percentile(0.5)?, "ms");
    // Tails too unsteady between runs to gate on (see README noise rule
    // N2): reported, ungated, by the traced run.
    out.layer
        .put("bench.ingest_ms_p90", ingest_ms.percentile(0.9)?, "ms");
    out.layer
        .put("bench.query_ms_p99", query_ms.percentile(0.99)?, "ms");
    out.layer
        .put("bench.ingest_ms_p99", ingest_ms.percentile(0.99)?, "ms");
    e2e.put(
        "ingest_rows_per_s",
        rows_ingested as f64 / ingest_busy_s,
        "rows/s",
    );
    // One leaf: every query is one leg, and every leg is answered.
    let legs = query_ms.len() as f64;
    e2e.put(
        "coverage",
        legs / (p.queries_per_cycle * cycles) as f64,
        "ratio",
    );
    e2e.put(
        "write_amp",
        bytes_written as f64 / bytes_ingested.max(1) as f64,
        "ratio",
    );

    if let Some(before) = registry_before {
        let after = Registry::capture();
        let total_rows = leaf.total_rows().max(1) as f64;
        layer_metrics(&mut out.layer, &layer, &before, &after, query_ms.len());
        let l = &mut out.layer;
        let resident = leaf.memory_used() + leaf.shm_resident() + leaf.cold_bytes();
        l.put(
            "columnstore.encoded_bytes_per_row",
            resident as f64 / total_rows,
            "B",
        );
        l.put("diskstore.synced_bytes", synced as f64, "B");
        l.put("diskstore.cold_bytes_written", cold_written as f64, "B");
        l.put(
            "diskstore.sync_ms",
            median(&tr.durations_ms("diskstore.sync")),
            "ms",
        );
        l.put(
            "leaf.checkpoint_ms",
            median(&tr.durations_ms("leaf.checkpoint")),
            "ms",
        );
        l.put(
            "leaf.hydrate_ms",
            median(&tr.durations_ms("leaf.hydrate")),
            "ms",
        );
        l.put(
            "leaf.add_rows_ms",
            median(&tr.durations_ms("leaf.add_rows")),
            "ms",
        );
    }
    if traced && kind != Kind::Crash {
        let (restarted, coverage) = phase_coverage(leaf, &cfg, inputs, now, &mut out)?;
        leaf = restarted;
        out.layer.put("restart.phase_coverage", coverage, "ratio");
    }
    out.trace = Some(tr);
    drop(leaf);
    drop(rig);
    Ok(out)
}

/// Restarts in the sequential pass that measures `restart.phase_coverage`.
const COVERAGE_RESTARTS: usize = 20;

/// `restart.phase_coverage`: the Figure-5 phase sums over the wall time of
/// `shutdown_to_shm` + `start`, summed over restarts on a one-thread copy
/// pool. With more copy threads the workers add to the phase accumulators
/// concurrently, so the sums are CPU time and can exceed the wall time.
/// Runs after the traced pass's timings are taken; restarts whose
/// breakdown still reports more than one thread (`SCUBA_COPY_THREADS`
/// overrides the config) are left out, and none left reads 0.
fn phase_coverage(
    mut leaf: LeafServer,
    cfg: &LeafConfig,
    inputs: &Inputs,
    now: i64,
    out: &mut Outcome,
) -> Result<(LeafServer, f64), String> {
    let mut seq = cfg.clone();
    seq.copy_threads = 1;
    let expected = leaf.total_rows();
    let (mut phase_ms, mut wall_ms) = (0.0, 0.0);
    // The first restart still backs up with the measured pass's pool.
    for i in 0..=COVERAGE_RESTARTS {
        out.op();
        let t0 = Instant::now();
        if let Err(e) = leaf.shutdown_to_shm(now) {
            out.fail(format!("coverage shutdown_to_shm: {e}"));
        }
        drop(leaf);
        let (restarted, outcome) = LeafServer::start(seq.clone(), now, None)
            .map_err(|e| format!("coverage restart {i}: {e}"))?;
        let ms = ms_since(t0);
        leaf = restarted;
        let report = RestartReport::capture();
        out.check(outcome.is_memory() && leaf.total_rows() == expected, || {
            format!(
                "coverage restart {i}: {outcome:?}, {} rows",
                leaf.total_rows()
            )
        });
        out.op();
        match leaf.query(&probe_query()) {
            Ok(r) => out.check(probe_ok(&r, inputs.probe_sum), || {
                "probe after coverage restart changed".into()
            }),
            Err(e) => out.fail(format!("coverage probe: {e}")),
        }
        if let (Some(b), Some(r), true) = (&report.backup, &report.restore, i > 0) {
            if b.threads == 1 && r.threads == 1 {
                phase_ms += (b.phase_sum() + r.phase_sum()).as_secs_f64() * 1e3;
                wall_ms += ms;
            }
        }
    }
    let coverage = if wall_ms > 0.0 {
        phase_ms / wall_ms
    } else {
        0.0
    };
    Ok((leaf, coverage))
}

/// Layer metrics every single-leaf pass reports from its samples and the
/// registry delta.
fn layer_metrics(
    l: &mut Metrics,
    s: &LayerSamples,
    before: &Registry,
    after: &Registry,
    queries: usize,
) {
    l.put("leaf.shutdown_ms", median(&s.stop_ms), "ms");
    l.put("leaf.start_ms", median(&s.start_ms), "ms");
    l.put(
        "leaf.restore_peak_footprint_mib",
        s.peak_footprint as f64 / (1 << 20) as f64,
        "MiB",
    );
    l.put("leaf.copy_threads_used", median(&s.copy_threads), "count");
    for &phase in &[
        Phase::Prepare,
        Phase::Extract,
        Phase::Encode,
        Phase::Crc,
        Phase::ShmWrite,
        Phase::Commit,
    ] {
        l.put(backup_name(phase), phase_ms(&s.backup, phase), "ms");
    }
    for &phase in &[
        Phase::Open,
        Phase::Crc,
        Phase::HeapCopy,
        Phase::Decode,
        Phase::Install,
    ] {
        l.put(restore_name(phase), phase_ms(&s.restore, phase), "ms");
    }
    let gbps = |bytes: u64, ms: f64| {
        if ms > 0.0 {
            bytes as f64 / ms / 1e6
        } else {
            0.0
        }
    };
    l.put(
        "restart.backup_gbps",
        gbps(s.backup_bytes, s.backup_ms),
        "GB/s",
    );
    l.put(
        "restart.restore_gbps",
        gbps(s.restore_bytes, s.restore_ms),
        "GB/s",
    );
    l.put("restart.wal_replay_ms", median(&s.wal_replay_ms), "ms");
    l.put(
        "restart.wal_records_replayed",
        median(&s.wal_records),
        "count",
    );
    l.put("query.probe_first_ms", median(&s.probe_first_ms), "ms");
    l.put("query.probe_steady_ms", median(&s.probe_steady_ms), "ms");
    l.put(
        "query.zonemap_pruned_ratio",
        s.pruned_blocks as f64 / s.visited_blocks.max(1) as f64,
        "ratio",
    );
    l.put(
        "columnstore.unsealed_rows_at_query",
        median(&s.unsealed_at_query),
        "count",
    );
    registry_metrics(l, before, after, queries, s.stop_ms.len());
}

/// Layer metrics read from the program's own counters, common to every
/// workload.
pub fn registry_metrics(
    l: &mut Metrics,
    before: &Registry,
    after: &Registry,
    queries: usize,
    restarts: usize,
) {
    let crc_bytes = after.counter_delta(before, "shmem_crc_bytes");
    let crc_ns = after.counter_delta(before, "shmem_crc_nanos");
    l.put(
        "shmem.crc_gbps",
        crc_bytes as f64 / crc_ns.max(1) as f64,
        "GB/s",
    );
    let per_restart = |n: u64| n as f64 / restarts.max(1) as f64;
    l.put(
        "shmem.segments_created",
        per_restart(after.counter_delta(before, "shmem_segments_created")),
        "count",
    );
    l.put(
        "shmem.segments_unlinked",
        per_restart(after.counter_delta(before, "shmem_segments_unlinked")),
        "count",
    );
    let scan = after.histogram_delta(before, "query_scan_ns");
    let scanned = after.counter_delta(before, "query_rows_scanned_total");
    l.put(
        "query.scan_ns_per_row",
        scan.sum as f64 / scanned.max(1) as f64,
        "ns",
    );
    let service = after.histogram_delta(before, "leaf_query_latency_ns");
    l.put(
        "leaf.service_ms_p50",
        service.quantile(0.5).unwrap_or(0.0) / 1e6,
        "ms",
    );
    l.put(
        "leaf.service_ms_p99",
        service.quantile(0.99).unwrap_or(0.0) / 1e6,
        "ms",
    );
    let per_1k =
        |family: &str| after.counter_delta(before, family) as f64 * 1000.0 / queries.max(1) as f64;
    l.put(
        "leaf.demotions_per_1k_queries",
        per_1k("leaf_demotions_total"),
        "count",
    );
    l.put(
        "leaf.promotions_per_1k_queries",
        per_1k("leaf_promotions_total"),
        "count",
    );
    l.put(
        "leaf.residency_faults_per_1k_queries",
        per_1k("leaf_residency_faults_total"),
        "count",
    );
}

fn backup_name(p: Phase) -> &'static str {
    match p {
        Phase::Prepare => "restart.backup.prepare_ms",
        Phase::Extract => "restart.backup.extract_ms",
        Phase::Encode => "restart.backup.encode_ms",
        Phase::Crc => "restart.backup.crc_ms",
        Phase::ShmWrite => "restart.backup.shm_write_ms",
        _ => "restart.backup.commit_ms",
    }
}

fn restore_name(p: Phase) -> &'static str {
    match p {
        Phase::Open => "restart.restore.open_ms",
        Phase::Crc => "restart.restore.crc_ms",
        Phase::HeapCopy => "restart.restore.heap_copy_ms",
        Phase::Decode => "restart.restore.decode_ms",
        _ => "restart.restore.install_ms",
    }
}

/// Run a single-leaf workload: `setups` set-ups (median reported), then
/// one measured pass on the last.
pub fn run(
    kind: Kind,
    ctx: &Ctx,
    setups: usize,
    traced: bool,
    epoch: Instant,
) -> Result<Outcome, String> {
    let p = kind.params();
    if kind == Kind::Crash {
        eprintln!(
            "flush policy: WAL append per batch (page cache, no fsync); \
             checkpoint_and_wait every {} rows; sync_disk every {} batches",
            p.ckpt_rows, p.sync_every
        );
    }
    let mut inputs = inputs(&p, ctx);
    let mut setup_s = Vec::new();
    let mut loaded = None;
    for _ in 0..setups.max(1) {
        drop(loaded.take());
        let l = set_up(kind, &p, &inputs, &ctx.out)?;
        setup_s.push(l.secs);
        loaded = Some(l);
    }
    let loaded = loaded.expect("at least one set-up");
    inputs.setup = Vec::new();
    crate::host::reset_peak_rss()?;
    let mut out = measure(kind, &p, &inputs, loaded, traced, epoch)?;
    out.e2e.put("setup_s", median(&setup_s), "s");
    Ok(out)
}
