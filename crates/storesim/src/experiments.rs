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
use crate::service::{self, RampBucket, ServiceConfig, ServiceResult};
use crate::sharded::run_sharded;
use simcore::dist::{BoundedPareto, Deterministic, DynDist, Exponential, Mixture};
use simcore::rng::Rng;
use simcore::runner::Runner;
use simcore::stats::{Ccdf, SampleSet};
use std::sync::Arc;

/// A named §2.2 experiment: everything that distinguishes one figure from
/// another.
#[derive(Clone)]
pub struct ExperimentSpec {
    /// Figure-style name, e.g. `"fig5-base"`.
    pub name: &'static str,
    /// The paper figure it reproduces, as reports cite it.
    pub paper_ref: &'static str,
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
            paper_ref: "Figure 5 (base: 4 KB files, cache:disk 0.1)",
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
            paper_ref: "Figure 6 (0.04 KB files)",
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
            paper_ref: "Figure 7 (Pareto file sizes)",
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
            paper_ref: "Figure 8 (cache:disk 0.01)",
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
            paper_ref: "Figure 9 (EC2)",
            op_noise: Some(ec2_op_noise()),
            ..Self::fig5_base()
        }
    }

    /// Fig 10: 400 KB files — transfer- and client-NIC-dominated, so the
    /// client-side cost of the second copy bites.
    pub fn fig10_large_files() -> Self {
        ExperimentSpec {
            name: "fig10-large-files",
            paper_ref: "Figure 10 (400 KB files)",
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
            paper_ref: "Figure 11 (cache:disk 2)",
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
/// pools them into one [`ServiceResult`]. Each replication runs
/// [`run_sharded`] with one server group on one worker: the replications
/// already fill the runner's threads, and at these cluster sizes one group
/// (every server on one engine shard) runs faster than several.
/// Replication seeds are forked from `cfg.seed` by index, so the result is
/// bit-identical at any thread count.
///
/// Pooling sums the counts (bucket requests and k = 2 requests, copies,
/// completions, recalibrations) and merges the response samples. A
/// bucket's `mean_response` is the request-weighted mean of the
/// replications' means; its `p99` and `peak_utilization`, and the run's
/// `live_threshold`, estimates and `mean_utilization`, are means over the
/// replications that measured one. `switch_off` is read off the pooled
/// decision curve, and `planner_threshold` is the offline §2.1 threshold
/// of the configured workload.
///
/// The headline number is `switch_off`: the offered load at which the
/// planner's live per-request decision flips from k = 2 to k = 1, which
/// §2.1 predicts lands on `planner_threshold`.
pub fn run_service_ramp(cfg: &ServiceConfig, replications: usize) -> ServiceResult {
    run_service_ramp_on(&Runner::global(), cfg, replications)
}

/// [`run_service_ramp`] on an explicit [`Runner`].
pub fn run_service_ramp_on(
    runner: &Runner,
    cfg: &ServiceConfig,
    replications: usize,
) -> ServiceResult {
    assert!(replications >= 1);
    let mut root = Rng::seed_from(cfg.seed);
    let seeds: Vec<u64> = (0..replications)
        .map(|r| root.fork(r as u64).next_u64())
        .collect();
    let mut results = runner.run(replications, |r| {
        let mut c = cfg.clone();
        c.seed = seeds[r];
        run_sharded(&c, 1, 1).result
    });

    let buckets: Vec<RampBucket> = (0..results[0].buckets.len())
        .map(|b| {
            let reps = || results.iter().map(move |r| &r.buckets[b]);
            let requests: usize = reps().map(|bk| bk.requests).sum();
            let mut weighted_mean = 0.0f64;
            for bk in reps().filter(|bk| bk.mean_response.is_finite()) {
                weighted_mean += bk.mean_response * bk.requests as f64;
            }
            RampBucket {
                load: results[0].buckets[b].load,
                requests,
                k2_requests: reps().map(|bk| bk.k2_requests).sum(),
                mean_response: if requests == 0 {
                    f64::NAN
                } else {
                    weighted_mean / requests as f64
                },
                p99: finite_mean(reps().map(|bk| bk.p99)),
                peak_utilization: finite_mean(reps().map(|bk| bk.peak_utilization)),
                hot_requests: reps().map(|bk| bk.hot_requests).sum(),
                hot_k2_requests: reps().map(|bk| bk.hot_k2_requests).sum(),
            }
        })
        .collect();

    let mut response = SampleSet::new();
    for r in &mut results {
        response.merge(std::mem::take(&mut r.response));
    }
    let mean_of = |field: fn(&ServiceResult) -> f64| finite_mean(results.iter().map(field));
    ServiceResult {
        response,
        switch_off: service::bucket_switch_off(&buckets, RampBucket::frac_k2),
        planner_threshold: results[0].planner_threshold,
        live_threshold: mean_of(|r| r.live_threshold),
        est_mean_service: mean_of(|r| r.est_mean_service),
        est_scv: mean_of(|r| r.est_scv),
        mean_utilization: mean_of(|r| r.mean_utilization),
        recalibrations: results.iter().map(|r| r.recalibrations).sum(),
        copies_issued: results.iter().map(|r| r.copies_issued).sum(),
        copies_cancelled: results.iter().map(|r| r.copies_cancelled).sum(),
        completed: results.iter().map(|r| r.completed).sum(),
        buckets,
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
            (serial.switch_off - serial.planner_threshold).abs() < 0.05,
            "switch-off {} vs threshold {}",
            serial.switch_off,
            serial.planner_threshold
        );
        assert_eq!(serial.switch_off.to_bits(), parallel.switch_off.to_bits());
        for (a, b) in serial.buckets.iter().zip(&parallel.buckets) {
            assert_eq!(a.requests, b.requests);
            assert_eq!(a.k2_requests, b.k2_requests);
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
            (out.live_threshold - out.planner_threshold).abs() < 0.02,
            "live {} vs offline {}",
            out.live_threshold,
            out.planner_threshold
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
            clair.planner_threshold.to_bits()
        );
    }

    #[test]
    fn one_replication_ramp_is_that_replications_run() {
        // Pooling one replication must hand back that replication's own
        // run: PS with cancellation on a Zipf mix under the per-server
        // planner with estimated moments, so cancellation, the hot/cold
        // split, peak utilization and the estimates are all live.
        use crate::service::{zipf_popularity, Discipline, Frontend, LoadModel, MomentSource};
        let mut cfg = ServiceConfig::ramp(Arc::new(Exponential::with_mean(1.0e-3)), 0.05, 0.45);
        cfg.requests = 12_000;
        cfg.warmup = 1_200;
        cfg.buckets = 8;
        cfg.discipline = Discipline::Ps;
        cfg.cancellation = true;
        cfg.popularity = Some(zipf_popularity(cfg.shards, 0.6));
        cfg.frontend = Frontend::Adaptive {
            window: 512,
            moments: MomentSource::Estimated {
                window: 2048,
                min_samples: 128,
                recalibrate: 256,
            },
            load_model: LoadModel::PerServer,
        };
        let pooled = run_service_ramp_on(&Runner::serial(), &cfg, 1);
        let mut one = cfg.clone();
        one.seed = Rng::seed_from(cfg.seed).fork(0).next_u64();
        let single = run_sharded(&one, 1, 1).result;

        assert!(single.copies_cancelled > 0 && single.est_scv.is_finite());
        assert_eq!(pooled.completed, single.completed);
        assert_eq!(pooled.copies_issued, single.copies_issued);
        assert_eq!(pooled.copies_cancelled, single.copies_cancelled);
        assert_eq!(pooled.response.len(), single.response.len());
        assert_eq!(pooled.buckets.len(), single.buckets.len());
        for (p, s) in pooled.buckets.iter().zip(&single.buckets) {
            assert_eq!(
                (p.requests, p.k2_requests, p.hot_requests, p.hot_k2_requests),
                (s.requests, s.k2_requests, s.hot_requests, s.hot_k2_requests)
            );
            for (a, b) in [
                (p.load, s.load),
                (p.frac_k2(), s.frac_k2()),
                (p.p99, s.p99),
                (p.peak_utilization, s.peak_utilization),
            ] {
                assert_eq!(a.to_bits(), b.to_bits(), "{p:?} vs {s:?}");
            }
            // Rebuilt as (mean * n) / n.
            if s.requests > 0 {
                let rel = (p.mean_response - s.mean_response).abs() / s.mean_response;
                assert!(rel < 1e-12, "{p:?} vs {s:?}");
            } else {
                assert!(p.mean_response.is_nan());
            }
        }
        let headlines = |r: &ServiceResult| {
            [
                r.switch_off,
                r.switch_off_hot(),
                r.switch_off_cold(),
                r.planner_threshold,
                r.live_threshold,
                r.est_mean_service,
                r.est_scv,
                r.cancel_fraction(),
                r.peak_utilization(),
            ]
            .map(f64::to_bits)
        };
        assert_eq!(headlines(&pooled), headlines(&single));
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
