//! What every workload shares: run context, metric sets, scratch rigs,
//! seeded inputs, row-format byte counts and registry deltas.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::Instant;

use scuba::columnstore::{Row, Value};
use scuba::obs::{MetricSnapshot, HISTOGRAM_BUCKETS};
use scuba::query::{AggSpec, LeafQueryResult, Query};

use crate::trace::Trace;

/// Where the benchmark keeps leaf data, cold files and span dumps,
/// relative to the directory it runs in.
pub const OUT_DIR: &str = ".bench_out";

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUPS: usize = 5;

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// Input seed.
    pub seed: u64,
    /// Where rigs live.
    pub out: PathBuf,
}

/// Named metric values in print order.
#[derive(Debug, Default, Clone)]
pub struct Metrics(pub Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    /// Set `name` (replacing an earlier value).
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.retain(|(n, _, _)| *n != name);
        self.0.push((name, value, unit));
    }
}

/// Result of one workload pass.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Client operations attempted (ingest batches, queries, probes,
    /// restarts).
    pub attempted: u64,
    /// Operations that errored or whose output failed an oracle.
    pub failed: u64,
    /// The first few failure descriptions.
    pub errors: Vec<String>,
    /// End-to-end metrics.
    pub e2e: Metrics,
    /// Per-layer metrics (filled only by traced passes).
    pub layer: Metrics,
    /// Wall time of the measured phase, seconds.
    pub measured_s: f64,
    /// Spans recorded by the pass.
    pub trace: Option<Trace>,
}

impl Outcome {
    /// Count one attempted operation.
    pub fn op(&mut self) {
        self.attempted += 1;
    }

    /// Count one failed operation.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(what);
        }
    }

    /// Check an oracle; a miss fails the current operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.fail(what());
        }
    }

    /// `success_ratio`: operations answered without error over attempted.
    pub fn success_ratio(&self) -> f64 {
        self.attempted.saturating_sub(self.failed) as f64 / self.attempted.max(1) as f64
    }
}

static RIG_COUNTER: AtomicU32 = AtomicU32::new(0);

/// A scratch directory plus a shared-memory prefix no other rig in this
/// process (or another process) uses; both are removed on drop.
#[derive(Debug)]
pub struct Rig {
    /// Disk root for the rig's leaves.
    pub dir: PathBuf,
    /// Shared-memory name prefix.
    pub prefix: String,
    /// Leaf ids whose namespaces must be swept on drop.
    pub leaves: u32,
}

impl Rig {
    /// A fresh rig under `out`.
    pub fn new(out: &Path, tag: &str, leaves: u32) -> Rig {
        let n = RIG_COUNTER.fetch_add(1, Ordering::Relaxed);
        let pid = std::process::id();
        let dir = out.join(format!("{tag}-{pid}-{n}"));
        let _ = std::fs::remove_dir_all(&dir);
        let rig = Rig {
            dir,
            prefix: format!("rb{pid}x{n}"),
            leaves,
        };
        rig.sweep_shm();
        rig
    }

    fn sweep_shm(&self) {
        for id in 0..self.leaves {
            if let Ok(ns) = scuba::shmem::ShmNamespace::new(&self.prefix, id) {
                ns.unlink_all(16);
            }
        }
    }
}

impl Drop for Rig {
    fn drop(&mut self) {
        self.sweep_shm();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// SplitMix64: a tiny seeded generator for routing and high-entropy
/// values, independent of the program's own generators.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// Seeded generator; `stream` separates independent draws.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    /// Next 64 random bits.
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// High-entropy rows: every string is distinct, so dictionary encoding
/// cannot shrink them and resident bytes track the row count. `n` is a
/// small integer column whose sum is exact in an `f64`.
pub fn dense_rows(count: usize, seed: u64) -> Vec<Row> {
    let mut rng = Rng::new(seed, 0xD15E);
    (0..count as i64)
        .map(|i| {
            let a = rng.next();
            let b = rng.next();
            Row::at(i)
                .with("trace", format!("{a:016x}{b:016x}-{i:x}"))
                .with("n", (a % 1000) as i64)
        })
        .collect()
}

/// Rows in the probe table every leaf holds: small, so a probe measures
/// the restart rather than a scan, and never ingested into after set-up,
/// so its answer is fixed.
pub const PROBE_ROWS: usize = 2_000;
/// Name of the probe table.
pub const PROBE_TABLE: &str = "probe";

/// The probe table's rows and the sum of their `n` column.
pub fn probe_rows(seed: u64) -> (Vec<Row>, f64) {
    let rows = dense_rows(PROBE_ROWS, seed);
    let sum = rows
        .iter()
        .map(|r| match r.get("n") {
            Some(Value::Int(n)) => *n as f64,
            _ => 0.0,
        })
        .sum();
    (rows, sum)
}

/// The probe: count and sum over the whole probe table.
pub fn probe_query() -> Query {
    Query::new(PROBE_TABLE, i64::MIN, i64::MAX)
        .aggregates(vec![AggSpec::Count, AggSpec::Sum("n".into())])
}

/// Whether a probe answer matches the table's rows and sum.
pub fn probe_ok(r: &LeafQueryResult, sum: f64) -> bool {
    let got = r.groups.values().next().map(|s| s[1].finish());
    r.rows_matched == PROBE_ROWS as u64 && got == Some(Value::Double(sum))
}

/// Bytes of `rows` in the disk row format: the denominator of
/// `write_amp`.
pub fn row_bytes(rows: &[Row]) -> u64 {
    let mut buf = Vec::new();
    for row in rows {
        scuba::diskstore::rowformat::write_record(row, &mut buf);
    }
    buf.len() as u64
}

/// Milliseconds since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// A point-in-time copy of the program's metric registry.
pub struct Registry(BTreeMap<String, MetricSnapshot>);

impl Registry {
    /// Snapshot every registered series.
    pub fn capture() -> Registry {
        Registry(scuba::obs::registry_snapshot().into_iter().collect())
    }

    fn family<'a>(
        &'a self,
        family: &'a str,
    ) -> impl Iterator<Item = (&'a String, &'a MetricSnapshot)> + 'a {
        self.0.iter().filter(move |(name, _)| {
            name.as_str() == family
                || (name.starts_with(family) && name[family.len()..].starts_with('{'))
        })
    }

    /// Counter increase of a family (all label sets summed) since `before`.
    pub fn counter_delta(&self, before: &Registry, family: &str) -> u64 {
        let sum = |r: &Registry| -> u64 {
            r.family(family)
                .map(|(_, m)| match m {
                    MetricSnapshot::Counter(c) => *c,
                    _ => 0,
                })
                .sum()
        };
        sum(self).saturating_sub(sum(before))
    }

    /// Observations a histogram family gained since `before`: bucket
    /// counts and the sum of values.
    pub fn histogram_delta(&self, before: &Registry, family: &str) -> HistDelta {
        let collect = |r: &Registry| {
            let mut buckets = [0u64; HISTOGRAM_BUCKETS];
            let mut sum = 0u64;
            for (_, m) in r.family(family) {
                if let MetricSnapshot::Histogram {
                    sum: s, buckets: b, ..
                } = m
                {
                    sum += s;
                    for (acc, v) in buckets.iter_mut().zip(b.iter()) {
                        *acc += v;
                    }
                }
            }
            (buckets, sum)
        };
        let (after_b, after_s) = collect(self);
        let (before_b, before_s) = collect(before);
        let mut buckets = [0u64; HISTOGRAM_BUCKETS];
        for i in 0..HISTOGRAM_BUCKETS {
            buckets[i] = after_b[i].saturating_sub(before_b[i]);
        }
        HistDelta {
            buckets,
            sum: after_s.saturating_sub(before_s),
        }
    }
}

/// Observations a registry histogram gained over a pass.
pub struct HistDelta {
    /// Per-bucket counts (log₂ buckets, see `scuba::obs::Histogram`).
    pub buckets: [u64; HISTOGRAM_BUCKETS],
    /// Sum of the observed values.
    pub sum: u64,
}

impl HistDelta {
    /// Observations.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Quantile `q`, interpolated inside its log₂ bucket the way the
    /// program's own histogram does; refused below the sample-count rule.
    pub fn quantile(&self, q: f64) -> Result<f64, String> {
        let total = self.count();
        let need = crate::stats::min_samples(q) as u64;
        if total < need {
            return Err(format!("p{} needs {need} samples, have {total}", q * 100.0));
        }
        let target = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut cumulative = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            let before = cumulative;
            cumulative += n;
            if cumulative >= target {
                if i == 0 {
                    return Ok(0.0);
                }
                let lo = (1u64 << (i - 1)) as f64;
                let hi = scuba::obs::Histogram::bucket_bound(i).map_or(lo * 2.0, |h| h as f64);
                let frac = (target - before) as f64 / n as f64;
                return Ok(lo + frac * (hi - lo));
            }
        }
        Err("histogram walk ran past its total".into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_inputs_repeat() {
        let a = dense_rows(50, 9);
        let b = dense_rows(50, 9);
        let c = dense_rows(50, 10);
        assert_eq!(row_bytes(&a), row_bytes(&b));
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        assert_ne!(format!("{a:?}"), format!("{c:?}"));
    }

    #[test]
    fn histogram_delta_quantile_refuses_thin_samples() {
        let mut d = HistDelta {
            buckets: [0; HISTOGRAM_BUCKETS],
            sum: 0,
        };
        d.buckets[4] = 99; // values in [8, 15]
        assert!(d.quantile(0.9).is_err());
        d.buckets[10] = 1; // one value in [512, 1023]
        let p90 = d.quantile(0.9).unwrap();
        assert!((8.0..=15.0).contains(&p90), "{p90}");
        assert!(d.quantile(0.99).is_err());
    }
}
