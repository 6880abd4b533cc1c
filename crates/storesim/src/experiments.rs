//! Named experiment configurations — one per figure of §2.2/§2.3.
//!
//! Each [`ExperimentSpec`] pins the knobs a figure varies (file size
//! distribution, cache:disk ratio, interference) while holding the §2.2
//! base configuration for everything else, exactly mirroring how the paper
//! presents Figures 5–11 as one-parameter perturbations of Figure 5.
//!
//! Scale note: the simulated cluster holds the paper's *ratios* (cache:disk,
//! file size vs transfer rate) but scales absolute capacities down ~16× so
//! every figure runs in seconds; response-time *shapes* are unaffected
//! because they depend only on the ratios and the per-operation service
//! constants.

use crate::cluster::{self, ClusterConfig, FilePopulation, NetProfile};
use crate::disk::DiskProfile;
use crate::service::{self, ServiceConfig};
use crate::sharded::run_sharded;
use simcore::dist::{BoundedPareto, Deterministic, DynDist, Exponential, Mixture};
use simcore::rng::Rng;
use simcore::runner::Runner;
use simcore::stats::Ccdf;
use std::sync::Arc;

/// A named §2.2 experiment: everything that distinguishes one figure from
/// another.
#[derive(Clone)]
pub struct ExperimentSpec {
    /// Figure-style name, e.g. `"fig5-base"`.
    pub name: &'static str,
    /// File-size distribution (bytes).
    pub file_size: DynDist,
    /// Total bytes stored across the cluster (before 2× replication).
    pub total_bytes: u64,
    /// Page-cache bytes per server.
    pub cache_bytes: u64,
    /// Optional extra stall on disk reads (kernel/controller hiccups).
    pub disk_noise: Option<DynDist>,
    /// Optional stall on every operation (multi-tenant interference).
    pub op_noise: Option<DynDist>,
}

impl std::fmt::Debug for ExperimentSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExperimentSpec")
            .field("name", &self.name)
            .finish()
    }
}

const MB: u64 = 1024 * 1024;

/// Disk-path "hiccup" noise present even on dedicated hardware: a rare,
/// exponentially-sized stall on reads that actually reach the spindle
/// (controller retries, kernel writeback interference). This is what gives
/// the disk-bound figures their deep 99.9th-percentile tails — the paper's
/// Emulab nodes show ~150 ms tails at 20 % load that pure seek-time
/// queueing cannot produce — while leaving the in-memory Fig 11/12 path
/// untouched.
fn emulab_disk_noise() -> DynDist {
    Arc::new(Mixture::of_two(
        0.988,
        Deterministic::new(0.0),
        0.012,
        Exponential::with_mean(40.0e-3),
    ))
}

/// Multi-tenant interference on a public cloud (Fig 9): frequent stalls on
/// *every* operation, hitting each copy independently — which is exactly
/// why replication's win is dramatic there.
fn ec2_op_noise() -> DynDist {
    Arc::new(Mixture::of_two(
        0.94,
        Deterministic::new(0.0),
        0.06,
        Exponential::with_mean(40.0e-3),
    ))
}

impl ExperimentSpec {
    /// Fig 5: 4 KB deterministic files, cache:disk = 0.1, Emulab-like noise.
    pub fn fig5_base() -> Self {
        ExperimentSpec {
            name: "fig5-base",
            file_size: Arc::new(Deterministic::new(4096.0)),
            total_bytes: 320 * MB,
            cache_bytes: 16 * MB,
            disk_noise: Some(emulab_disk_noise()),
            op_noise: None,
        }
    }

    /// Fig 6: mean file size 0.04 KB instead of 4 KB (seek-dominated
    /// either way — the point of the figure). Population shrunk so the
    /// cache:disk ratio stays 0.1.
    pub fn fig6_tiny_files() -> Self {
        ExperimentSpec {
            name: "fig6-tiny-files",
            file_size: Arc::new(Deterministic::new(41.0)),
            total_bytes: 4 * MB,
            cache_bytes: 204 * 1024,
            disk_noise: Some(emulab_disk_noise()),
            op_noise: None,
        }
    }

    /// Fig 7: Pareto file sizes (mean 4 KB) instead of deterministic.
    pub fn fig7_pareto_files() -> Self {
        // Bounded Pareto, alpha 1.2, 256 B .. 4 MB, mean ~= 4 KB: heavy
        // spread without asking the simulated disk for terabyte files.
        let dist = BoundedPareto::new(1.2, 256.0, 4.0 * MB as f64);
        ExperimentSpec {
            name: "fig7-pareto-files",
            file_size: Arc::new(dist),
            total_bytes: 320 * MB,
            cache_bytes: 16 * MB,
            disk_noise: Some(emulab_disk_noise()),
            op_noise: None,
        }
    }

    /// Fig 8: cache:disk ratio 0.01 — more disk traffic, more variability,
    /// bigger replication win in the tail.
    pub fn fig8_cold_cache() -> Self {
        ExperimentSpec {
            name: "fig8-cold-cache",
            file_size: Arc::new(Deterministic::new(4096.0)),
            total_bytes: 800 * MB,
            cache_bytes: 4 * MB, // 4 MB / (2*800/4 = 400 MB) = 0.01
            disk_noise: Some(emulab_disk_noise()),
            op_noise: None,
        }
    }

    /// Fig 9: EC2 instead of Emulab — heavier multi-tenant interference on
    /// every operation.
    pub fn fig9_ec2() -> Self {
        ExperimentSpec {
            name: "fig9-ec2",
            op_noise: Some(ec2_op_noise()),
            ..Self::fig5_base()
        }
    }

    /// Fig 10: 400 KB files — transfer- and client-NIC-dominated, so the
    /// client-side cost of the second copy bites.
    pub fn fig10_large_files() -> Self {
        ExperimentSpec {
            name: "fig10-large-files",
            file_size: Arc::new(Deterministic::new(400.0 * 1024.0)),
            total_bytes: 640 * MB,
            cache_bytes: 32 * MB,
            disk_noise: Some(emulab_disk_noise()),
            op_noise: None,
        }
    }

    /// Fig 11: cache:disk = 2 — the whole dataset fits in memory and the
    /// disk never spins; replication only adds client-side cost.
    pub fn fig11_all_in_ram() -> Self {
        ExperimentSpec {
            name: "fig11-all-in-ram",
            file_size: Arc::new(Deterministic::new(4096.0)),
            total_bytes: 64 * MB, // per-server 32 MB, cache 64 MB => ratio 2
            cache_bytes: 64 * MB,
            disk_noise: Some(emulab_disk_noise()),
            op_noise: None,
        }
    }

    /// Materializes a [`ClusterConfig`] at a given replication factor and
    /// baseline load.
    pub fn to_config(
        &self,
        copies: usize,
        load: f64,
        requests: usize,
        seed: u64,
    ) -> ClusterConfig {
        let mut rng = Rng::seed_from(seed ^ 0xF11E5);
        let files = FilePopulation::generate(self.file_size.as_ref(), self.total_bytes, &mut rng);
        ClusterConfig {
            servers: 4,
            clients: 10,
            copies,
            files,
            cache_bytes: self.cache_bytes,
            disk: DiskProfile::default(),
            net: NetProfile::default(),
            disk_noise: self.disk_noise.clone(),
            op_noise: self.op_noise.clone(),
            load,
            requests,
            warmup: (requests / 10).max(1_000),
            seed,
        }
    }
}

/// One row of a §2.2 load sweep (the left/middle panels of Figs 5–11).
#[derive(Clone, Copy, Debug)]
pub struct LoadSweepRow {
    /// Baseline load.
    pub load: f64,
    /// Mean response (1 copy), seconds.
    pub mean_single: f64,
    /// Mean response (2 copies), seconds.
    pub mean_double: f64,
    /// 99.9th percentile (1 copy), seconds.
    pub p999_single: f64,
    /// 99.9th percentile (2 copies), seconds.
    pub p999_double: f64,
}

/// Sweeps the experiment across `loads`, running both replication factors.
/// Loads where 2 copies would saturate (≥ 0.5) report `NaN` for the
/// replicated columns, matching the paper's truncated 2-copy curves.
///
/// All `(load, copies)` cluster runs execute in parallel on the global
/// [`Runner`]; each run's randomness comes from `(seed, load, copies)`
/// alone, so results are bit-identical at any thread count.
pub fn run_load_sweep(
    spec: &ExperimentSpec,
    loads: &[f64],
    requests: usize,
    seed: u64,
) -> Vec<LoadSweepRow> {
    // Flatten to one task per (load, copies) pair so the runner balances
    // the expensive replicated runs across threads.
    let mut results = Runner::global().run(loads.len() * 2, |task| {
        let load = loads[task / 2];
        let copies = 1 + task % 2;
        if copies == 2 && 2.0 * load >= 0.98 {
            return None;
        }
        Some(cluster::run(&spec.to_config(copies, load, requests, seed)))
    });
    loads
        .iter()
        .enumerate()
        .map(|(i, &load)| {
            let mut single = results[2 * i].take().expect("single-copy run always present");
            let (mean_double, p999_double) = match results[2 * i + 1].take() {
                Some(mut double) => (double.response.mean(), double.response.quantile(0.999)),
                None => (f64::NAN, f64::NAN),
            };
            LoadSweepRow {
                load,
                mean_single: single.response.mean(),
                mean_double,
                p999_single: single.response.quantile(0.999),
                p999_double,
            }
        })
        .collect()
}

/// The right-hand panel of Figs 5–11: response CCDFs at one load for both
/// replication factors. The paired runs execute in parallel.
pub fn ccdf_at_load(
    spec: &ExperimentSpec,
    load: f64,
    requests: usize,
    points: usize,
    seed: u64,
) -> (Ccdf, Ccdf) {
    let (mut single, mut double) = Runner::global().pair(
        || cluster::run(&spec.to_config(1, load, requests, seed)),
        || cluster::run(&spec.to_config(2, load, requests, seed)),
    );
    (
        single.response.ccdf(points),
        double.response.ccdf(points),
    )
}

/// One row of the service-layer load-ramp experiment: the planner's
/// decision curve and the latency it bought, averaged over replications.
#[derive(Clone, Copy, Debug)]
pub struct ServiceRampRow {
    /// Bucket-center offered baseline load.
    pub load: f64,
    /// Fraction of requests the front-end duplicated (k = 2).
    pub frac_k2: f64,
    /// Mean response time, seconds.
    pub mean_response: f64,
    /// 99th-percentile response time, seconds (mean over replications).
    pub p99: f64,
    /// Hottest-server busy fraction in this bucket's time slice (mean
    /// over the replications that measured one; NaN when none did).
    pub peak_utilization: f64,
    /// k = 2 fraction of the hot-pair requests — those whose stored
    /// replica set includes the hottest server (NaN when none).
    pub frac_k2_hot: f64,
    /// k = 2 fraction of the cold-pair requests (NaN when none).
    pub frac_k2_cold: f64,
    /// Requests aggregated into this row.
    pub requests: usize,
}

/// The service-layer load-ramp experiment's aggregate outcome.
#[derive(Clone, Debug)]
pub struct ServiceRampOutcome {
    /// The decision/latency curve over the ramp.
    pub rows: Vec<ServiceRampRow>,
    /// Load at which the aggregated k = 2 fraction crosses ½.
    pub switch_off: f64,
    /// The offline §2.1 threshold for the configured workload.
    pub offline_threshold: f64,
    /// Copies cancelled per copy issued (0 with cancellation off).
    pub cancel_fraction: f64,
    /// Final live threshold, averaged over the replications that report
    /// one (equals `offline_threshold` in clairvoyant mode, NaN for fixed
    /// policies).
    pub live_threshold: f64,
    /// Final online mean-service estimate averaged over replications (NaN
    /// unless estimated mode ran warm).
    pub est_mean_service: f64,
    /// Final online SCV estimate averaged over replications (NaN unless
    /// estimated mode ran warm).
    pub est_scv: f64,
    /// Hottest-server peak busy fraction over the whole ramp (max over
    /// rows of [`ServiceRampRow::peak_utilization`]; NaN when nothing was
    /// measured).
    pub peak_utilization: f64,
    /// Load at which the **hot-pair** k = 2 fraction crosses ½ (NaN if it
    /// never does — e.g. fixed policies).
    pub switch_off_hot: f64,
    /// Load at which the **cold-pair** k = 2 fraction crosses ½. Under a
    /// per-server planner on a skewed mix this sits strictly above
    /// `switch_off_hot`: cold keys keep replicating longer.
    pub switch_off_cold: f64,
}

impl ServiceRampOutcome {
    /// Fraction of all measured requests that had a second copy
    /// dispatched — for hedged ramps, the overall fired-hedge fraction.
    pub fn overall_frac_k2(&self) -> f64 {
        let total: usize = self.rows.iter().map(|r| r.requests).sum();
        if total == 0 {
            return f64::NAN;
        }
        let k2: f64 = self
            .rows
            .iter()
            .filter(|r| r.requests > 0)
            .map(|r| r.frac_k2 * r.requests as f64)
            .sum();
        k2 / total as f64
    }
}

/// Mean over the finite entries of an iterator (NaN when none are).
fn finite_mean(xs: impl Iterator<Item = f64>) -> f64 {
    let (mut sum, mut n) = (0.0f64, 0usize);
    for x in xs {
        if x.is_finite() {
            sum += x;
            n += 1;
        }
    }
    if n == 0 {
        f64::NAN
    } else {
        sum / n as f64
    }
}

/// Runs `replications` independent load-ramp simulations of the sharded
/// service ([`crate::service`]) in parallel on the global [`Runner`] and
/// aggregates the per-bucket decision and latency curves. Each
/// replication runs [`run_sharded`] with one server group on one worker:
/// the replications already fill the runner's threads, and at these
/// cluster sizes one group (every server on one engine shard) runs faster
/// than several. Replication seeds are forked from `cfg.seed` by index,
/// so the outcome is bit-identical at any thread count.
///
/// The headline number is `switch_off`: the offered load at which the
/// planner's live per-request decision flips from k = 2 to k = 1, which
/// §2.1 predicts lands on `offline_threshold`.
pub fn run_service_ramp(cfg: &ServiceConfig, replications: usize) -> ServiceRampOutcome {
    run_service_ramp_on(&Runner::global(), cfg, replications)
}

/// [`run_service_ramp`] on an explicit [`Runner`].
pub fn run_service_ramp_on(
    runner: &Runner,
    cfg: &ServiceConfig,
    replications: usize,
) -> ServiceRampOutcome {
    assert!(replications >= 1);
    let mut root = Rng::seed_from(cfg.seed);
    let seeds: Vec<u64> = (0..replications)
        .map(|r| root.fork(r as u64).next_u64())
        .collect();
    let results = runner.run(replications, |r| {
        let mut c = cfg.clone();
        c.seed = seeds[r];
        run_sharded(&c, 1, 1).result
    });

    let buckets = results[0].buckets.len();
    let mut rows = Vec::with_capacity(buckets);
    for b in 0..buckets {
        let mut requests = 0usize;
        let mut k2 = 0usize;
        let mut hot = 0usize;
        let mut hot_k2 = 0usize;
        let mut weighted_mean = 0.0f64;
        let mut p99_sum = 0.0f64;
        let mut p99_n = 0usize;
        for res in &results {
            let bk = &res.buckets[b];
            requests += bk.requests;
            k2 += bk.k2_requests;
            hot += bk.hot_requests;
            hot_k2 += bk.hot_k2_requests;
            if bk.requests > 0 && bk.mean_response.is_finite() {
                weighted_mean += bk.mean_response * bk.requests as f64;
                p99_sum += bk.p99;
                p99_n += 1;
            }
        }
        let cold = requests - hot;
        rows.push(ServiceRampRow {
            load: results[0].buckets[b].load,
            frac_k2: if requests == 0 {
                f64::NAN
            } else {
                k2 as f64 / requests as f64
            },
            mean_response: if requests == 0 {
                f64::NAN
            } else {
                weighted_mean / requests as f64
            },
            p99: if p99_n == 0 {
                f64::NAN
            } else {
                p99_sum / p99_n as f64
            },
            peak_utilization: finite_mean(
                results.iter().map(|r| r.buckets[b].peak_utilization),
            ),
            frac_k2_hot: if hot == 0 {
                f64::NAN
            } else {
                hot_k2 as f64 / hot as f64
            },
            frac_k2_cold: if cold == 0 {
                f64::NAN
            } else {
                (k2 - hot_k2) as f64 / cold as f64
            },
            requests,
        });
    }

    let curve: Vec<(f64, f64)> = rows.iter().map(|r| (r.load, r.frac_k2)).collect();
    let hot_curve: Vec<(f64, f64)> = rows.iter().map(|r| (r.load, r.frac_k2_hot)).collect();
    let cold_curve: Vec<(f64, f64)> = rows.iter().map(|r| (r.load, r.frac_k2_cold)).collect();
    let issued: u64 = results.iter().map(|r| r.copies_issued).sum();
    let cancelled: u64 = results.iter().map(|r| r.copies_cancelled).sum();
    ServiceRampOutcome {
        switch_off: service::switch_off_load(&curve),
        switch_off_hot: service::switch_off_load(&hot_curve),
        switch_off_cold: service::switch_off_load(&cold_curve),
        offline_threshold: results[0].planner_threshold,
        cancel_fraction: cancelled as f64 / issued.max(1) as f64,
        live_threshold: finite_mean(results.iter().map(|r| r.live_threshold)),
        est_mean_service: finite_mean(results.iter().map(|r| r.est_mean_service)),
        est_scv: finite_mean(results.iter().map(|r| r.est_scv)),
        peak_utilization: rows
            .iter()
            .map(|r| r.peak_utilization)
            .fold(f64::NAN, f64::max),
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn base_threshold_is_around_30_percent() {
        // Fig 5's headline: replication helps below ~30% load, hurts above.
        let spec = ExperimentSpec::fig5_base();
        let rows = run_load_sweep(&spec, &[0.1, 0.2, 0.4], 25_000, 11);
        assert!(
            rows[0].mean_double < rows[0].mean_single,
            "10% load: {:?}",
            rows[0]
        );
        assert!(
            rows[1].mean_double < rows[1].mean_single * 1.02,
            "20% load: {:?}",
            rows[1]
        );
        assert!(
            rows[2].mean_double > rows[2].mean_single,
            "40% load: {:?}",
            rows[2]
        );
    }

    #[test]
    fn tail_improvement_at_20_percent() {
        // Fig 5: ~2x 99.9th percentile cut at 20% load.
        let spec = ExperimentSpec::fig5_base();
        let rows = run_load_sweep(&spec, &[0.2], 60_000, 3);
        let r = &rows[0];
        assert!(
            r.p999_single > 1.5 * r.p999_double,
            "tail gain too small: {r:?}"
        );
    }

    #[test]
    fn ec2_gains_exceed_emulab_gains() {
        // Fig 9 vs Fig 5: interference should make replication's mean win
        // larger on "EC2".
        let emu = run_load_sweep(&ExperimentSpec::fig5_base(), &[0.15], 40_000, 7);
        let ec2 = run_load_sweep(&ExperimentSpec::fig9_ec2(), &[0.15], 40_000, 7);
        let gain = |r: &LoadSweepRow| r.mean_single / r.mean_double;
        assert!(
            gain(&ec2[0]) > gain(&emu[0]),
            "emulab gain {:.3} vs ec2 gain {:.3}",
            gain(&emu[0]),
            gain(&ec2[0])
        );
        assert!(gain(&ec2[0]) > 1.4, "ec2 gain {:.3}", gain(&ec2[0]));
    }

    #[test]
    fn large_files_kill_the_benefit() {
        // Fig 10: with 400 KB files replication stops being a clear win
        // even at low load (client/NIC cost comparable to service time).
        let rows = run_load_sweep(&ExperimentSpec::fig10_large_files(), &[0.15], 25_000, 5);
        let r = &rows[0];
        assert!(
            r.mean_double > 0.9 * r.mean_single,
            "unexpectedly large win with 400KB files: {r:?}"
        );
    }

    #[test]
    fn in_ram_replication_is_not_a_win() {
        // Fig 11: everything cached; replication only adds client cost.
        let rows = run_load_sweep(&ExperimentSpec::fig11_all_in_ram(), &[0.2], 40_000, 9);
        let r = &rows[0];
        assert!(
            r.mean_double > 0.95 * r.mean_single,
            "in-RAM replication should not win meaningfully: {r:?}"
        );
        // And the whole thing is sub-millisecond, unlike the disk figures.
        assert!(r.mean_single < 1.5e-3, "{r:?}");
    }

    #[test]
    fn service_ramp_switch_off_in_band_and_thread_invariant() {
        let mut cfg = ServiceConfig::ramp(Arc::new(Exponential::with_mean(1.0e-3)), 0.05, 0.6);
        cfg.requests = 30_000;
        cfg.warmup = 3_000;
        if let crate::service::Frontend::Adaptive { window, .. } = &mut cfg.frontend {
            *window = 768;
        }
        // The aggregate switch-off must land on the offline threshold, and
        // the whole outcome must be bit-identical at 1 and 8 threads.
        let serial = run_service_ramp_on(&Runner::serial(), &cfg, 3);
        let parallel = run_service_ramp_on(&Runner::new(8), &cfg, 3);
        assert!(
            (serial.switch_off - serial.offline_threshold).abs() < 0.05,
            "switch-off {} vs threshold {}",
            serial.switch_off,
            serial.offline_threshold
        );
        assert_eq!(serial.switch_off.to_bits(), parallel.switch_off.to_bits());
        for (a, b) in serial.rows.iter().zip(&parallel.rows) {
            assert_eq!(a.frac_k2.to_bits(), b.frac_k2.to_bits());
            assert_eq!(a.mean_response.to_bits(), b.mean_response.to_bits());
            assert_eq!(a.p99.to_bits(), b.p99.to_bits());
        }
    }

    #[test]
    fn estimated_ramp_aggregates_calibration_fields() {
        use crate::service::{Frontend, LoadModel, MomentSource};
        let mut cfg = ServiceConfig::ramp(Arc::new(Exponential::with_mean(1.0e-3)), 0.05, 0.55);
        cfg.requests = 12_000;
        cfg.warmup = 1_200;
        cfg.frontend = Frontend::Adaptive {
            window: 768,
            moments: MomentSource::Estimated {
                window: 4096,
                min_samples: 256,
                recalibrate: 512,
            },
            load_model: LoadModel::Global,
        };
        let out = run_service_ramp(&cfg, 2);
        // The calibration aggregates are finite means over replications and
        // land near the config truth.
        assert!(
            (out.est_mean_service - 1.0e-3).abs() / 1.0e-3 < 0.15,
            "est mean {}",
            out.est_mean_service
        );
        assert!((out.est_scv - 1.0).abs() < 0.4, "est scv {}", out.est_scv);
        assert!(
            (out.live_threshold - out.offline_threshold).abs() < 0.02,
            "live {} vs offline {}",
            out.live_threshold,
            out.offline_threshold
        );
        // Adaptive ramps spend roughly the sub-threshold fraction of the
        // ramp at k = 2; the aggregate fraction must reflect that.
        let f = out.overall_frac_k2();
        assert!(f > 0.3 && f < 0.9, "overall frac_k2 {f}");
        // Clairvoyant runs report NaN calibration fields.
        cfg.frontend = Frontend::Adaptive {
            window: 768,
            moments: MomentSource::Clairvoyant,
            load_model: LoadModel::Global,
        };
        let clair = run_service_ramp(&cfg, 2);
        assert!(clair.est_mean_service.is_nan() && clair.est_scv.is_nan());
        assert_eq!(
            clair.live_threshold.to_bits(),
            clair.offline_threshold.to_bits()
        );
    }

    #[test]
    fn tiny_files_behave_like_base() {
        // Fig 6: seek-dominated regardless of 41 B vs 4 KB.
        let base = run_load_sweep(&ExperimentSpec::fig5_base(), &[0.2], 25_000, 13);
        let tiny = run_load_sweep(&ExperimentSpec::fig6_tiny_files(), &[0.2], 25_000, 13);
        let rel = (tiny[0].mean_single - base[0].mean_single).abs() / base[0].mean_single;
        assert!(rel < 0.25, "tiny-file mean diverges from base: {rel}");
    }
}
