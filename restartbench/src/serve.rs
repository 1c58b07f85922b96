//! `serve_rollover`: a `HostedCluster` of 2 machines × 2 leaves serving a
//! seeded open-loop schedule while a second thread rolls the fleet.
//!
//! * The main thread sends a fixed schedule at a fixed rate: exactly half
//!   dashboard fan-out queries of one class, half ingest batches routed to
//!   a seeded leaf. Each request is timed from its intended send, so a
//!   stall also delays the requests queued behind it; how late the
//!   generator ran is recorded.
//! * The rollover thread runs a fixed number of rollovers in machine-major
//!   order, one leaf per wave, with a fixed pause between rollovers. After
//!   each leaf's `restart_leaves` it probes that leaf until it answers.
//!
//! An ingest refused by a restarting leaf retries the next leaf, as a
//! tailer would; it fails only if every leaf refuses it. A fan-out query
//! that returns has succeeded, whatever its coverage.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use scuba::cluster::{AdmissionConfig, ClusterConfig, HostedCluster, RolloverConfig};
use scuba::columnstore::table::RetentionLimits;
use scuba::columnstore::Row;
use scuba::obs::RestartReport;
use scuba::query::{AggSpec, Query};

use crate::common::{
    ms_since, probe_ok, probe_query, probe_rows, row_bytes, Ctx, Outcome, Registry, Rig, Rng,
    PROBE_ROWS, PROBE_TABLE,
};
use crate::stats::{median, Series};
use crate::trace::Trace;

const MACHINES: usize = 2;
const LEAVES_PER_MACHINE: usize = 2;
const LEAVES: usize = MACHINES * LEAVES_PER_MACHINE;
/// Rows every leaf holds in `t` after set-up.
const PREFILL_ROWS: usize = 40_000;
/// Requests in the schedule (half queries, half ingest).
const REQUESTS: usize = 2_000;
/// Schedule rate, requests per second.
const RATE: f64 = 100.0;
/// Rows per ingest batch.
const BATCH_ROWS: usize = 100;
/// Full rollovers (each restarts every leaf once).
const ROLLOVERS: usize = 100;
/// Pause between rollovers.
const PAUSE: Duration = Duration::from_millis(150);
/// The generator spins (rather than sleeps) for this long before a send.
const SPIN: Duration = Duration::from_micros(300);
/// A request that starts this late counts toward `bench.gen_late_ratio`.
const LATE_MS: f64 = 1.0;

const TABLE: &str = "t";

struct Inputs {
    prefill: Vec<Vec<Row>>,
    probe_rows: Vec<Row>,
    probe_sum: f64,
    /// Per request: `Some((leaf, rows, row bytes))` for an ingest batch,
    /// `None` for a dashboard query.
    schedule: Vec<Option<(usize, Vec<Row>, u64)>>,
}

fn inputs(ctx: &Ctx) -> Inputs {
    let mut rng = Rng::new(ctx.seed, 2);
    let mut kinds: Vec<bool> = (0..REQUESTS).map(|i| i % 2 == 0).collect();
    for i in (1..REQUESTS).rev() {
        kinds.swap(i, rng.below(i + 1));
    }
    let mut t = PREFILL_ROWS as i64;
    let schedule = kinds
        .into_iter()
        .map(|ingest| {
            ingest.then(|| {
                let rows: Vec<Row> = (0..BATCH_ROWS)
                    .map(|_| {
                        t += 1;
                        Row::at(t)
                            .with("v", (rng.next() % 1000) as i64)
                            .with("k", format!("k{}", rng.below(64)))
                    })
                    .collect();
                let bytes = row_bytes(&rows);
                (rng.below(LEAVES), rows, bytes)
            })
        })
        .collect();
    let prefill = (0..LEAVES)
        .map(|leaf| {
            (0..PREFILL_ROWS as i64)
                .map(|i| {
                    Row::at(i)
                        .with("v", (rng.next() % 1000) as i64)
                        .with("k", format!("k{}", (i as usize + leaf) % 64))
                })
                .collect()
        })
        .collect();
    let (probe_rows, probe_sum) = probe_rows(ctx.seed);
    Inputs {
        prefill,
        probe_rows,
        probe_sum,
        schedule,
    }
}

struct Loaded {
    rig: Rig,
    cluster: HostedCluster,
    secs: f64,
}

fn set_up(inputs: &Inputs, ctx: &Ctx) -> Result<Loaded, String> {
    let rig = Rig::new(&ctx.out, "serve", LEAVES as u32);
    let t = Instant::now();
    let cluster = HostedCluster::with_admission(
        ClusterConfig {
            machines: MACHINES,
            leaves_per_machine: LEAVES_PER_MACHINE,
            shm_prefix: rig.prefix.clone(),
            disk_root: rig.dir.clone(),
            leaf_memory_capacity: 1 << 30,
            retention: RetentionLimits::NONE,
        },
        AdmissionConfig::default(),
    )
    .map_err(|e| format!("set-up boot: {e}"))?;
    for (leaf, rows) in inputs.prefill.iter().enumerate() {
        cluster
            .add_rows(leaf, TABLE, rows.clone(), 0)
            .map_err(|e| format!("set-up ingest: {e}"))?;
        cluster
            .add_rows(leaf, PROBE_TABLE, inputs.probe_rows.clone(), 0)
            .map_err(|e| format!("set-up ingest: {e}"))?;
        cluster
            .with_host(leaf, |h| h.map(|h| h.sync_disk()))
            .ok_or("set-up: leaf missing")?
            .map_err(|e| format!("set-up sync: {e}"))?;
    }
    let secs = t.elapsed().as_secs_f64();
    Ok(Loaded { rig, cluster, secs })
}

/// What the rollover thread measured.
#[derive(Default)]
struct RollStats {
    ttfq: Vec<f64>,
    wave_ms: Vec<f64>,
    backup_bytes: u64,
    stop_ms: Vec<f64>,
    start_ms: Vec<f64>,
    attempted: u64,
    errors: Vec<String>,
    restarts: usize,
}

fn roll(cluster: &HostedCluster, inputs: &Inputs, tr: &mut Trace) -> RollStats {
    let mut st = RollStats::default();
    let cfg = RolloverConfig::default();
    let probe = probe_query();
    let order = cluster.rollover_order();
    for r in 0..ROLLOVERS {
        for &id in &order {
            let req = st.restarts as u64;
            // Flush policy: each leaf syncs right before its restart, so
            // the shutdown's own sync finds little dirty.
            st.attempted += 1;
            let s = tr.begin("diskstore.sync", req);
            let synced = cluster.with_host(id, |h| h.map(|h| h.sync_disk()));
            tr.end(s);
            if let Some(Err(e)) = synced {
                st.errors.push(format!("leaf {id}: sync_disk: {e}"));
            }
            st.attempted += 1;
            let t0 = Instant::now();
            let s = tr.begin("cluster.restart_leaves", req);
            let wave = cluster.restart_leaves(&[id], &cfg);
            tr.end(s);
            st.wave_ms.push(ms_since(t0));
            if wave.memory_recoveries != 1 {
                st.errors
                    .push(format!("rollover {r} leaf {id}: no memory recovery"));
            }
            // Probe until the restarted leaf answers (shed ⇒ retry).
            let s = tr.begin("leaf.probe_first", req);
            let answer = loop {
                match cluster.with_host(id, |h| h.map(|h| h.query(&probe))) {
                    Some(Ok(r)) => break Ok(r),
                    Some(Err(e)) if e.is_shed() => std::thread::yield_now(),
                    Some(Err(e)) => break Err(e.to_string()),
                    None => std::thread::yield_now(),
                }
            };
            tr.end(s);
            st.ttfq.push(ms_since(t0));
            match answer {
                Ok(a) if !probe_ok(&a, inputs.probe_sum) => {
                    st.errors.push(format!("leaf {id}: probe answer changed"));
                }
                Ok(_) => {}
                Err(e) => st.errors.push(format!("leaf {id}: probe: {e}")),
            }
            let report = RestartReport::capture();
            if let Some(b) = report.backup {
                st.backup_bytes += b.bytes;
                st.stop_ms.push(b.total.as_secs_f64() * 1e3);
            }
            if let Some(rb) = report.restore {
                st.start_ms.push(rb.total.as_secs_f64() * 1e3);
            }
            st.restarts += 1;
        }
        if r + 1 < ROLLOVERS {
            std::thread::sleep(PAUSE);
        }
    }
    st
}

/// Run `serve_rollover`: set-ups (median reported), then one measured pass.
pub fn run(ctx: &Ctx, setups: usize, traced: bool, epoch: Instant) -> Result<Outcome, String> {
    let mut inputs = inputs(ctx);
    let mut setup_s = Vec::new();
    let mut loaded = None;
    for _ in 0..setups.max(1) {
        drop(loaded.take());
        let l = set_up(&inputs, ctx)?;
        setup_s.push(l.secs);
        loaded = Some(l);
    }
    let Loaded { rig, cluster, .. } = loaded.expect("at least one set-up");
    inputs.prefill = Vec::new();
    crate::host::reset_peak_rss()?;

    let mut out = Outcome::default();
    let registry_before = Registry::capture();
    let synced_before = scuba::obs::counter_value("diskstore_synced_bytes").unwrap_or(0);
    let rolling = AtomicBool::new(true);
    let dashboard = Query::new(TABLE, i64::MIN, i64::MAX).aggregates(vec![AggSpec::Count]);

    let mut tr = Trace::new(traced, epoch);
    let mut query_ms = Series::new("dashboard_count");
    let mut ingest_ms = Series::new("ingest_batch");
    let mut fanout_ms = Series::new("dashboard_count");
    let mut late_ms: Vec<f64> = Vec::with_capacity(inputs.schedule.len());
    let (mut legs_sent, mut legs_answered, mut legs_shed, mut legs_down) = (0u64, 0u64, 0u64, 0u64);
    let mut retries = 0u64;
    let mut acked = (PREFILL_ROWS * LEAVES) as u64;
    let (mut rows_ingested, mut bytes_ingested) = (0u64, 0u64);

    let started = Instant::now();
    let roll_stats = std::thread::scope(|scope| {
        let roller = scope.spawn(|| {
            let mut rtr = Trace::new(traced, epoch);
            let st = roll(&cluster, &inputs, &mut rtr);
            rolling.store(false, Ordering::SeqCst);
            (st, rtr)
        });
        let gap = Duration::from_secs_f64(1.0 / RATE);
        for (i, req) in inputs.schedule.iter().enumerate() {
            let due = started + gap * i as u32;
            // Sleep to just short of the due time, then spin: timer
            // overshoot would otherwise land in every latency sample.
            if let Some(wait) = due.checked_duration_since(Instant::now() + SPIN) {
                std::thread::sleep(wait);
            }
            while Instant::now() < due {
                std::hint::spin_loop();
            }
            let sent = Instant::now();
            late_ms.push(sent.saturating_duration_since(due).as_secs_f64() * 1e3);
            out.op();
            match req {
                None => {
                    let during = rolling.load(Ordering::SeqCst);
                    let (merged, legs) = cluster.query_detailed(&dashboard);
                    let done = Instant::now();
                    tr.record("cluster.query", i as u64, sent, done);
                    query_ms.push((done - due).as_secs_f64() * 1e3);
                    fanout_ms.push((done - sent).as_secs_f64() * 1e3);
                    if during {
                        legs_sent += LEAVES as u64;
                        legs_answered += legs.answered as u64;
                        legs_shed += legs.shed as u64;
                        legs_down += legs.unavailable as u64;
                    }
                    let ok = if legs.answered == LEAVES {
                        merged.rows_matched == acked
                    } else {
                        merged.rows_matched <= acked
                    };
                    out.check(ok, || {
                        format!(
                            "query {i}: {} rows from {} legs, {acked} acknowledged",
                            merged.rows_matched, legs.answered
                        )
                    });
                }
                Some((leaf, rows, bytes)) => {
                    let mut landed = false;
                    for k in 0..LEAVES {
                        if cluster
                            .add_rows((leaf + k) % LEAVES, TABLE, rows.clone(), 0)
                            .is_ok()
                        {
                            landed = true;
                            break;
                        }
                        retries += 1;
                    }
                    let done = Instant::now();
                    tr.record("cluster.add_rows", i as u64, sent, done);
                    ingest_ms.push((done - due).as_secs_f64() * 1e3);
                    if landed {
                        acked += rows.len() as u64;
                        rows_ingested += rows.len() as u64;
                        bytes_ingested += bytes;
                    } else {
                        out.fail(format!("ingest {i}: every leaf refused the batch"));
                    }
                }
            }
        }
        roller.join().expect("rollover thread panicked")
    });
    let (rs, rtr) = roll_stats;
    out.measured_s = started.elapsed().as_secs_f64();
    tr.absorb(rtr);
    out.attempted += rs.attempted;
    for e in &rs.errors {
        out.fail(e.clone());
    }

    // Every acknowledged row is present once the fleet is whole again.
    out.op();
    let final_rows = loop {
        let (merged, legs) = cluster.query_detailed(&dashboard);
        if legs.answered == LEAVES {
            break merged.rows_matched;
        }
        std::thread::sleep(Duration::from_millis(1));
    };
    let published = cluster.total_rows() as u64;
    let expected = acked + (PROBE_ROWS * LEAVES) as u64;
    out.check(final_rows == acked && published == expected, || {
        format!("end: {final_rows} rows queried, {published} published, {acked} acknowledged")
    });

    let synced = scuba::obs::counter_value("diskstore_synced_bytes")
        .unwrap_or(0)
        .saturating_sub(synced_before);
    let e2e = &mut out.e2e;
    e2e.put(
        "ttfq_ms_p50",
        crate::stats::percentile(&rs.ttfq, 0.5)?,
        "ms",
    );
    e2e.put(
        "ttfq_ms_p90",
        crate::stats::percentile(&rs.ttfq, 0.9)?,
        "ms",
    );
    // Hosted leaves restore by full copy-back: serving at full speed
    // starts with the first answered probe.
    e2e.put(
        "ttfs_ms_p50",
        crate::stats::percentile(&rs.ttfq, 0.5)?,
        "ms",
    );
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
    // Seconds the leaves spent in `add_rows`, from the program's own
    // histogram: a client-side timing here would be mostly thread hand-off.
    let after = Registry::capture();
    let ingest_ns = after
        .histogram_delta(&registry_before, "leaf_ingest_latency_ns")
        .sum;
    e2e.put(
        "ingest_rows_per_s",
        rows_ingested as f64 / (ingest_ns as f64 / 1e9),
        "rows/s",
    );
    e2e.put(
        "coverage",
        legs_answered as f64 / legs_sent.max(1) as f64,
        "ratio",
    );
    e2e.put(
        "write_amp",
        (rs.backup_bytes + synced) as f64 / bytes_ingested.max(1) as f64,
        "ratio",
    );
    e2e.put("setup_s", median(&setup_s), "s");

    if traced {
        let before = registry_before;
        let l = &mut out.layer;
        l.put("cluster.fanout_ms_p50", fanout_ms.percentile(0.5)?, "ms");
        l.put("cluster.fanout_ms_p99", fanout_ms.percentile(0.99)?, "ms");
        l.put(
            "cluster.add_rows_ms",
            median(&tr.durations_ms("cluster.add_rows")),
            "ms",
        );
        l.put("cluster.wave_ms", median(&rs.wave_ms), "ms");
        l.put(
            "cluster.legs_shed_ratio",
            legs_shed as f64 / legs_sent.max(1) as f64,
            "ratio",
        );
        l.put(
            "cluster.legs_unavailable_ratio",
            legs_down as f64 / legs_sent.max(1) as f64,
            "ratio",
        );
        l.put("cluster.ingest_retries", retries as f64, "count");
        l.put(
            "bench.gen_late_ms_p99",
            crate::stats::percentile(&late_ms, 0.99)?,
            "ms",
        );
        let late = late_ms.iter().filter(|&&v| v > LATE_MS).count();
        l.put(
            "bench.gen_late_ratio",
            late as f64 / late_ms.len().max(1) as f64,
            "ratio",
        );
        l.put("leaf.shutdown_ms", median(&rs.stop_ms), "ms");
        l.put("leaf.start_ms", median(&rs.start_ms), "ms");
        let ingest = after.histogram_delta(&before, "leaf_ingest_latency_ns");
        l.put(
            "leaf.add_rows_ms",
            ingest.quantile(0.5).unwrap_or(0.0) / 1e6,
            "ms",
        );
        l.put("diskstore.synced_bytes", synced as f64, "B");
        crate::leafloop::registry_metrics(l, &before, &after, query_ms.len(), rs.restarts);
    }
    out.trace = Some(tr);
    drop(cluster);
    drop(rig);
    Ok(out)
}
