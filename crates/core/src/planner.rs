//! Should you replicate? The paper's answer, as an API.
//!
//! §2.1 of the paper characterizes when always-on replication lowers mean
//! latency in a fixed-capacity system: below a **threshold load** that
//! (absent client-side cost) always lies between ~26 % and 50 % of
//! utilization, higher for more variable service times, and degraded
//! toward zero as the client-side cost of an extra copy approaches the
//! mean service time (Fig 4). [`Planner`] packages those results:
//! describe your workload ([`WorkloadProfile`]) and current utilization,
//! get back an [`Advice`] with the predicted speedup.
//!
//! The analytics are the `queuesim::analytic` two-moment model — exact for
//! M/M/1 (Theorem 1's 1/3), closed-form ≈ 0.293 for deterministic service
//! — with the client overhead applied exactly as the paper's Fig 4 does
//! (a constant added to every replicated request).
//!
//! [`LivePlanner`] runs the same rule per request on measured inputs: it
//! is the one decision loop behind both the simulated service's frontend
//! and the wall-clock runtime.

use crate::estimator::{EstimatorBank, LoadSummary, MomentEstimator, PeerLoads};
use queuesim::analytic::pk::{self, ServiceMoments};
use queuesim::analytic::two_moment;
use simcore::dist::Distribution;
use std::collections::HashMap;
use std::sync::{OnceLock, RwLock};

/// First and second moments of the backend service time, plus what an
/// extra copy costs the client.
#[derive(Clone, Copy, Debug)]
pub struct WorkloadProfile {
    /// Mean backend service time, seconds.
    pub mean_service: f64,
    /// Squared coefficient of variation of the service time
    /// (0 = deterministic, 1 = exponential, > 1 = heavy).
    pub scv: f64,
    /// Client-side latency cost added to a request by each extra copy,
    /// seconds (network + CPU + kernel; §2.3 measured ≥ 9 % of the mean
    /// for memcached, which is what killed replication there).
    pub client_overhead: f64,
}

impl WorkloadProfile {
    fn moments(&self) -> ServiceMoments {
        ServiceMoments::new(
            self.mean_service,
            self.scv * self.mean_service * self.mean_service,
        )
    }
}

/// The two-moment model behind every threshold has no answer for a
/// service law without a finite second moment.
fn assert_finite_scv(scv: f64) {
    assert!(
        scv.is_finite(),
        "the two-moment planner needs finite service variance (scv = {scv})"
    );
}

/// What the planner recommends.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Advice {
    /// `true` when 2-way replication is predicted to lower mean latency.
    pub replicate: bool,
    /// The threshold load below which replication helps this workload.
    pub threshold_load: f64,
    /// Predicted mean response time without replication, seconds.
    pub mean_single: f64,
    /// Predicted mean response time with 2 copies, seconds.
    pub mean_replicated: f64,
}

impl Advice {
    /// Predicted speedup factor (`> 1` means replication wins).
    pub fn speedup(&self) -> f64 {
        self.mean_single / self.mean_replicated
    }
}

/// A per-request replication decision against the *load shape* — the
/// output of [`Planner::decide_for`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PairDecision {
    /// `true` when every candidate server sits below the threshold.
    pub replicate: bool,
    /// The §2.1 threshold load the candidates were compared against
    /// (resolved through the [`ThresholdCache`] grid).
    pub threshold_load: f64,
    /// The binding utilization: the maximum over the candidate servers.
    pub max_load: f64,
}

/// The replication planner for 2-way replication in a fixed-size cluster.
#[derive(Clone, Copy, Debug)]
pub struct Planner {
    profile: WorkloadProfile,
}

impl Planner {
    /// Creates a planner for a workload.
    ///
    /// # Panics
    /// Panics on a non-finite SCV (a service law with infinite variance,
    /// such as a Pareto with `α ≤ 2`), a non-positive mean, a negative
    /// SCV, or a negative overhead.
    pub fn new(profile: WorkloadProfile) -> Self {
        assert_finite_scv(profile.scv);
        assert!(profile.mean_service > 0.0 && profile.scv >= 0.0);
        assert!(profile.client_overhead >= 0.0);
        Planner { profile }
    }

    /// The planner for the service law `service`: its exact mean and SCV,
    /// and no client-side cost per extra copy. Panics as [`Planner::new`].
    pub fn for_service(service: &dyn Distribution) -> Self {
        Planner::new(WorkloadProfile {
            mean_service: service.mean(),
            scv: service.scv(),
            client_overhead: 0.0,
        })
    }

    /// The workload profile this planner was built from.
    pub fn profile(&self) -> WorkloadProfile {
        self.profile
    }

    /// The threshold load for this workload: the largest utilization below
    /// which 2-way replication still lowers the mean (0 when the client
    /// overhead already exceeds any possible gain).
    pub fn threshold_load(&self) -> f64 {
        two_moment::threshold(self.profile.moments(), self.profile.client_overhead)
    }

    /// Per-request decision for one request's candidate servers: replicate
    /// exactly when the **maximum** estimated utilization among
    /// `pair_loads` (typically the two stored replicas of the requested
    /// shard, from an [`crate::estimator::EstimatorBank`]) sits below this
    /// workload's §2.1 threshold.
    ///
    /// This is the skew-aware refinement of [`advise`](Self::advise): a
    /// *global* load estimate flips every request at once, while comparing
    /// each request's own candidate pair lets requests whose servers are
    /// cold keep replicating after requests landing on hot servers have
    /// switched off. The max is the right aggregate because a duplicated
    /// request adds a copy to *both* candidates — the §2.1 trade is only
    /// safe if the busier of the two can still absorb it.
    ///
    /// The threshold is resolved through the [`ThresholdCache`] store (the
    /// quantized dimensionless grid), so the per-request cost is a hash
    /// lookup: without a client overhead it reads the committed column,
    /// and any other grid point is bisected once per process.
    ///
    /// # Panics
    /// Panics on an empty candidate slice; debug-panics on non-finite or
    /// negative loads.
    pub fn decide_for(&self, cache: &mut ThresholdCache, pair_loads: &[f64]) -> PairDecision {
        assert!(
            !pair_loads.is_empty(),
            "decide_for needs at least one candidate load"
        );
        let max_load = pair_loads.iter().fold(f64::NEG_INFINITY, |a, &b| {
            debug_assert!(b.is_finite() && b >= 0.0, "bad candidate load {b}");
            a.max(b)
        });
        let threshold_load = cache.threshold(
            self.profile.mean_service,
            self.profile.scv,
            self.profile.client_overhead,
        );
        PairDecision {
            replicate: max_load < threshold_load,
            threshold_load,
            max_load,
        }
    }

    /// Advice at the given per-server utilization.
    pub fn advise(&self, load: f64) -> Advice {
        assert!((0.0..1.0).contains(&load), "load out of range: {load}");
        let s = self.profile.moments();
        let mean_single = pk::mean_response(s, load);
        let mean_replicated = if 2.0 * load < 1.0 {
            two_moment::mean_response_replicated(s, load, 2) + self.profile.client_overhead
        } else {
            f64::INFINITY
        };
        Advice {
            replicate: mean_replicated < mean_single,
            threshold_load: self.threshold_load(),
            mean_single,
            mean_replicated,
        }
    }
}

/// Threshold lookup for **live recalibration**.
///
/// The threshold load is dimensionless: rescaling time scales every mean in
/// `gain(ρ)` by the same factor, so the root depends only on the service
/// SCV and the overhead-to-mean ratio. A self-calibrating front-end
/// re-derives the threshold as its moment estimates drift; this handle
/// snaps the two dimensionless inputs onto a ~2 %-relative grid and reads
/// the grid point's threshold from one process-wide store, so a
/// recalibration costs a hash lookup instead of a bisection (3–13 ms of
/// CCDF quadrature in a release build).
///
/// Quantization error is bounded by the grid, per axis: along the SCV
/// axis the threshold moves by less than ~0.002 load across one step
/// anywhere on the curve; along the overhead axis the curve has a cliff
/// (Fig 4 collapses the threshold as overhead approaches the mean —
/// slope ~30 load per unit ratio right before extinction), so that axis
/// uses a finer 5e-4 step, bounding the error there by ~0.01 load — well
/// inside the ±0.05–0.08 bands the experiments enforce. Both bounds are
/// pinned in the tests below.
///
/// The store starts from the committed overhead-0 column (scv keys 0 to
/// 178, scv 0 to ≈ 98.8), the column every lookup without a client
/// overhead reads: no simulated service config and no `storesim::rt`
/// config sets one, so neither runtime bisects on its live path. Any other
/// grid point (a nonzero overhead ratio, or scv past the column) is
/// bisected at its grid representative on first use and memoized. A grid
/// point's threshold is a pure function of its key, so every live loop,
/// replication and runner thread shares each other's bisections instead
/// of re-paying them. The store is an `RwLock`: the steady state is all
/// reads, so F sharded frontends (or N runner threads) resolve warm grid
/// points concurrently instead of serializing behind one mutex. A
/// bisection runs outside any lock — two threads racing on a fresh key may
/// both compute it, but they compute the identical value, so results stay
/// bit-reproducible at any thread count.
#[derive(Clone, Copy, Debug, Default)]
pub struct ThresholdCache;

/// The grid-point store behind every [`ThresholdCache`] lookup, seeded
/// with [`OVERHEAD0_COLUMN`] on first use. Read-mostly: warm lookups take
/// the shared read lock; only the first resolution of a grid point outside
/// the column takes the write lock.
///
/// Determinism audit (clippy's hash-traversal bans): `HashMap` is safe here
/// because every access is a keyed get/insert on the quantized grid point —
/// the map is never traversed, so iteration order can't leak into results.
/// Keep it that way; a traversal must move to `BTreeMap`.
static SHARED_THRESHOLDS: OnceLock<RwLock<HashMap<(i64, i64), f64>>> = OnceLock::new();

/// The overhead-0 column of the [`ThresholdCache`] grid, as committed data:
/// entry `k` holds the bits of the threshold at grid key `(k, 0)`, bisected
/// at the key's representative (mean 1, scv
/// `ThresholdCache::dequantize_scv(k)`, no client overhead), which is
/// exactly what a miss on that key would compute.
///
/// The column stops at key 178 (scv ≈ 98.8). Every quick and full-effort
/// service figure stays below it: the highest key any of them reaches is
/// 150 at quick effort and 159 (scv ≈ 38) at full effort, both from
/// `fig-service-tail`'s bounded Pareto. Past key 178 the curve is within
/// 0.003 of its floor (0.2955 at scv 98.8, 0.2932 at 1 000 and 0.2929 in
/// the limit), and a lookup there still bisects and memoizes, so no input
/// is clamped.
///
/// The bits assume the platform's libm, as the report pins do. The test
/// `overhead0_column_matches_bisection` bisects every key and, on a
/// mismatch, prints the regenerated column in this format; re-pin the two
/// together.
#[rustfmt::skip]
const OVERHEAD0_COLUMN: [u64; 179] = [
    0x3fd2_bf2b_4a55_8eaa, 0x3fd3_7921_ac03_ff6a, 0x3fd3_c81d_9631_2f4e, 0x3fd4_011a_a39c_51dc,
    0x3fd4_2e18_4fe3_6d22, 0x3fd4_5316_6612_8392, 0x3fd4_7214_cbaf_965c, 0x3fd4_8c13_737d_a61e,
    0x3fd4_a312_4302_b410, 0x3fd4_b711_3a3e_c030, 0x3fd4_c810_5931_ca7e, 0x3fd4_d80f_8561_d430,
    0x3fd4_e60e_cc0b_dcae, 0x3fd4_f20e_2d2f_e3f4, 0x3fd4_fd0d_9b90_ea9e, 0x3fd5_070d_172e_f0b0,
    0x3fd5_100c_a009_f624, 0x3fd5_180c_3621_fafc, 0x3fd5_1f0b_d976_ff3c, 0x3fd5_250b_8a09_02de,
    0x3fd5_2b0b_3a9b_0682, 0x3fd5_300a_f86a_098a, 0x3fd5_350a_b639_0c92, 0x3fd5_3a0a_7408_0f98,
    0x3fd5_3d0a_4c51_116a, 0x3fd5_410a_175d_13d8, 0x3fd5_4409_efa6_15aa, 0x3fd5_4709_c7ef_177c,
    0x3fd5_4a09_a038_194c, 0x3fd5_4c09_85be_1a82, 0x3fd5_4e09_6b44_1bb8, 0x3fd5_5009_50ca_1cf0,
    0x3fd5_5109_438d_1d8a, 0x3fd5_5209_3650_1e26, 0x3fd5_5409_1bd6_1f5c, 0x3fd5_5509_0e99_1ff8,
    0x3fd5_5509_0e99_1ff8, 0x3fd5_5609_015c_2092, 0x3fd5_5708_f41f_212e, 0x3fd5_5708_f41f_212e,
    0x3fd5_5708_f41f_212e, 0x3fd5_5808_e6e2_21c8, 0x3fd5_5808_e6e2_21c8, 0x3fd5_5808_e6e2_21c8,
    0x3fd5_5808_e6e2_21c8, 0x3fd5_5708_f41f_212e, 0x3fd5_5708_f41f_212e, 0x3fd5_5708_f41f_212e,
    0x3fd5_5609_015c_2092, 0x3fd5_5609_015c_2092, 0x3fd5_5509_0e99_1ff8, 0x3fd5_5509_0e99_1ff8,
    0x3fd5_5409_1bd6_1f5c, 0x3fd5_5309_2913_1ec2, 0x3fd5_5309_2913_1ec2, 0x3fd5_5209_3650_1e26,
    0x3fd5_5109_438d_1d8a, 0x3fd5_5009_50ca_1cf0, 0x3fd5_4f09_5e07_1c54, 0x3fd5_4e09_6b44_1bb8,
    0x3fd5_4d09_7881_1b1e, 0x3fd5_4c09_85be_1a82, 0x3fd5_4b09_92fb_19e8, 0x3fd5_4a09_a038_194c,
    0x3fd5_4909_ad75_18b2, 0x3fd5_4809_bab2_1816, 0x3fd5_4709_c7ef_177c, 0x3fd5_4509_e269_1644,
    0x3fd5_4409_efa6_15aa, 0x3fd5_4309_fce3_150e, 0x3fd5_420a_0a20_1472, 0x3fd5_410a_175d_13d8,
    0x3fd5_3f0a_31d7_12a2, 0x3fd5_3e0a_3f14_1206, 0x3fd5_3d0a_4c51_116a, 0x3fd5_3b0a_66cb_1034,
    0x3fd5_3a0a_7408_0f98, 0x3fd5_390a_8145_0efe, 0x3fd5_370a_9bbf_0dc8, 0x3fd5_360a_a8fc_0d2c,
    0x3fd5_350a_b639_0c92, 0x3fd5_330a_d0b3_0b5c, 0x3fd5_320a_ddf0_0ac0, 0x3fd5_310a_eb2d_0a24,
    0x3fd5_2f0b_05a7_08ee, 0x3fd5_2e0b_12e4_0852, 0x3fd5_2d0b_2021_07b8, 0x3fd5_2b0b_3a9b_0682,
    0x3fd5_2a0b_47d8_05e6, 0x3fd5_280b_6252_04b0, 0x3fd5_270b_6f8f_0416, 0x3fd5_260b_7ccc_037a,
    0x3fd5_240b_9746_0244, 0x3fd5_230b_a483_01a8, 0x3fd5_210b_befd_0072, 0x3fd5_200b_cc39_ffd6,
    0x3fd5_1f0b_d976_ff3c, 0x3fd5_1d0b_f3f0_fe04, 0x3fd5_1c0c_012d_fd6a, 0x3fd5_1a0c_1ba7_fc32,
    0x3fd5_190c_28e4_fb98, 0x3fd5_120c_858f_f75a, 0x3fd5_0a0c_ef77_f280, 0x3fd5_030d_4c22_ee42,
    0x3fd4_fa0d_c347_e8cc, 0x3fd4_f20e_2d2f_e3f4, 0x3fd4_e90e_a454_de80, 0x3fd4_e10f_0e3c_d9a6,
    0x3fd4_d80f_8561_d430, 0x3fd4_ce10_09c3_ce20, 0x3fd4_c510_80e8_c8ac, 0x3fd4_bb11_054a_c29c,
    0x3fd4_b111_89ac_bc8c, 0x3fd4_a712_0e0e_b67e, 0x3fd4_9d12_9270_b06c, 0x3fd4_9313_16d2_aa5e,
    0x3fd4_8913_9b34_a44e, 0x3fd4_7e14_2cd3_9da2, 0x3fd4_7414_b135_9792, 0x3fd4_6a15_3597_9182,
    0x3fd4_5f15_c736_8ad8, 0x3fd4_5516_4b98_84c8, 0x3fd4_4a16_dd37_7e1c, 0x3fd4_4017_6199_780c,
    0x3fd4_3517_f338_7162, 0x3fd4_2b18_779a_6b52, 0x3fd4_2118_fbfc_6542, 0x3fd4_1719_805e_5f32,
    0x3fd4_0d1a_04c0_5922, 0x3fd4_031a_8922_5312, 0x3fd3_f91b_0d84_4d02, 0x3fd3_ef1b_91e6_46f2,
    0x3fd3_e51c_1648_40e2, 0x3fd3_dc1c_8d6d_3b6e, 0x3fd3_d31d_0492_35fa, 0x3fd3_ca1d_7bb7_3084,
    0x3fd3_c11d_f2dc_2b10, 0x3fd3_b81e_6a01_259a, 0x3fd3_af1e_e126_2026, 0x3fd3_a71f_4b0e_1b4e,
    0x3fd3_9e1f_c233_15d8, 0x3fd3_9620_2c1b_10fe, 0x3fd3_8f20_88c6_0cc0, 0x3fd3_8720_f2ae_07e8,
    0x3fd3_7f21_5c96_030e, 0x3fd3_7821_b940_fece, 0x3fd3_7122_15eb_fa90, 0x3fd3_6a22_7296_f652,
    0x3fd3_6422_c204_f2b0, 0x3fd3_5d23_1eaf_ee70, 0x3fd3_5723_6e1d_eace, 0x3fd3_5123_bd8b_e72a,
    0x3fd3_4b24_0cf9_e388, 0x3fd3_4524_5c67_dfe4, 0x3fd3_4024_9e98_dcdc, 0x3fd3_3a24_ee06_d938,
    0x3fd3_3525_3037_d632, 0x3fd3_3025_7268_d32a, 0x3fd3_2b25_b499_d022, 0x3fd3_2725_e98d_cdb6,
    0x3fd3_2226_2bbe_caac, 0x3fd3_1e26_60b2_c840, 0x3fd3_1a26_95a6_c5d2, 0x3fd3_1626_ca9a_c366,
    0x3fd3_1226_ff8e_c0fa, 0x3fd3_0f27_2745_bf28, 0x3fd3_0b27_5c39_bcbc, 0x3fd3_0827_83f0_baea,
    0x3fd3_0427_b8e4_b87e, 0x3fd3_0127_e09b_b6ac, 0x3fd2_fe28_0852_b4da, 0x3fd2_fb28_3009_b308,
    0x3fd2_f928_4a83_b1d2, 0x3fd2_f628_723a_b000, 0x3fd2_f428_8cb4_aeca, 0x3fd2_f128_b46b_acf8,
    0x3fd2_ef28_cee5_abc2, 0x3fd2_ed28_e95f_aa8c, 0x3fd2_ea29_1116_a8ba,
];

impl ThresholdCache {
    /// A handle onto the process-wide store.
    pub fn new() -> Self {
        ThresholdCache
    }

    /// Absolute grid below 2 (step 0.02), log grid above (5 % relative,
    /// where the threshold curve is nearly flat) — continuous at the seam.
    fn quantize_scv(scv: f64) -> i64 {
        if scv <= 2.0 {
            (scv / 0.02).round() as i64
        } else {
            100 + ((scv / 2.0).ln() / 0.05).round() as i64
        }
    }

    fn dequantize_scv(key: i64) -> f64 {
        if key <= 100 {
            key as f64 * 0.02
        } else {
            2.0 * ((key - 100) as f64 * 0.05).exp()
        }
    }

    /// Bisects grid point `key` at its representative in unit-mean time,
    /// so every (mean, overhead) pair mapping to the key agrees exactly.
    fn bisect(key: (i64, i64)) -> f64 {
        Planner::new(WorkloadProfile {
            mean_service: 1.0,
            scv: Self::dequantize_scv(key.0),
            client_overhead: key.1 as f64 * 5.0e-4,
        })
        .threshold_load()
    }

    /// The §2.1 threshold load for live moments `(mean_service, scv)` and
    /// per-copy `client_overhead`, read from the store at the quantized
    /// `(scv, overhead/mean)` grid point.
    ///
    /// # Panics
    /// Panics on a non-finite SCV, a non-positive mean, a negative SCV, or
    /// a negative overhead.
    pub fn threshold(&self, mean_service: f64, scv: f64, client_overhead: f64) -> f64 {
        assert_finite_scv(scv);
        assert!(mean_service > 0.0, "mean must be positive: {mean_service}");
        assert!(scv >= 0.0 && client_overhead >= 0.0);
        let key = (
            Self::quantize_scv(scv),
            (client_overhead / mean_service / 5.0e-4).round() as i64,
        );
        let shared = SHARED_THRESHOLDS.get_or_init(|| {
            RwLock::new(
                (0..)
                    .zip(OVERHEAD0_COLUMN)
                    .map(|(k, bits)| ((k, 0), f64::from_bits(bits)))
                    .collect(),
            )
        });
        if let Some(&t) = shared.read().expect("threshold store poisoned").get(&key) {
            return t;
        }
        let t = Self::bisect(key);
        shared
            .write()
            .expect("threshold store poisoned")
            .insert(key, t);
        t
    }
}

/// The live decision loop — the one implementation of the per-request
/// §2.1 rule, run by the simulated frontend lanes and the wall-clock
/// runtime alike. It owns an [`EstimatorBank`] (width 1 for a global load
/// estimate, one index per server otherwise), the [`PeerLoads`] board and
/// an optional [`MomentEstimator`].
///
/// A warm index's load is `(own + peer rates) · live mean / split`; a cold
/// one reads `cold_load`. The threshold starts at the configured-moment
/// value and, once the moment window is trusted, is re-derived through
/// the process-wide [`ThresholdCache`] store on the cadence
/// [`LivePlanner::with_moments`] derives from the window. At zero client
/// overhead that is a read of the committed column, never a bisection.
#[derive(Clone, Debug)]
pub struct LivePlanner {
    planner: Planner,
    bank: EstimatorBank,
    peers: PeerLoads,
    moments: Option<MomentEstimator>,
    min_samples: usize,
    recalibrate: u64,
    observed: u64,
    recalibrations: u64,
    threshold: f64,
    cold_load: f64,
}

impl LivePlanner {
    /// A loop over `width` arrival estimators of `window` gaps each, with
    /// a board for `peers` frontends, starting from `threshold` (callers
    /// pass `planner.threshold_load()`, the one offline bisection, shared
    /// by every loop they build; recalibrations read the
    /// [`ThresholdCache`] store instead).
    ///
    /// # Panics
    /// Panics if `width == 0` or `window < 2`.
    pub fn new(
        planner: Planner,
        threshold: f64,
        width: usize,
        window: usize,
        peers: usize,
        cold_load: f64,
    ) -> Self {
        LivePlanner {
            planner,
            bank: EstimatorBank::new(width, window),
            peers: PeerLoads::new(peers, width),
            moments: None,
            min_samples: 0,
            recalibrate: 1,
            observed: 0,
            recalibrations: 0,
            threshold,
            cold_load,
        }
    }

    /// Self-calibration over a moment window of `window` demands: the
    /// window is trusted once it holds `window / 16` of them, and from then
    /// on the threshold is re-derived every `window / 8` observations. Both
    /// follow the window, so `L` loops that each see `1/L` of the demands
    /// through a `window / L` window trust and recalibrate when one loop
    /// seeing them all through `window` would.
    ///
    /// # Panics
    /// Panics if `window < 32` (a trust gate below 2 demands).
    pub fn with_moments(mut self, window: usize) -> Self {
        assert!(
            window >= 32,
            "moment window must hold at least 32 demands: {window}"
        );
        self.moments = Some(MomentEstimator::new(window));
        self.min_samples = window / 16;
        self.recalibrate = (window / 8) as u64;
        self
    }

    /// Observes one arrival at `now` on each of `indices`; `true` (replicate)
    /// when the largest of their loads sits below the threshold.
    pub fn decide(&mut self, now: f64, indices: &[u16], split: f64) -> bool {
        let mean = self.live_mean();
        let mut max_load = 0.0f64;
        for &i in indices {
            let i = i as usize;
            self.bank.observe_arrival(i, now);
            let load = if self.bank.get(i).is_warm() {
                self.peers.total_rate(i, self.bank.rate(i)) * mean / split
            } else {
                self.cold_load
            };
            max_load = max_load.max(load);
        }
        max_load < self.threshold
    }

    /// Ingests one per-copy service demand, recalibrating on the cadence
    /// (a no-op without [`with_moments`](Self::with_moments)).
    pub fn observe_demand(&mut self, demand: f64) {
        if let Some(me) = self.moments.as_mut() {
            me.observe(demand);
            self.observed += 1;
            if me.len() >= self.min_samples && self.observed.is_multiple_of(self.recalibrate) {
                let overhead = self.planner.profile().client_overhead;
                self.threshold = ThresholdCache.threshold(me.mean(), me.scv(), overhead);
                self.recalibrations += 1;
            }
        }
    }

    /// The trusted window's mean service time, else the configured one.
    pub fn live_mean(&self) -> f64 {
        self.calibrated()
            .map_or(self.planner.profile().mean_service, MomentEstimator::mean)
    }

    /// The moment window once it holds `min_samples` demands (`None`
    /// before that, or without [`with_moments`](Self::with_moments)).
    pub fn calibrated(&self) -> Option<&MomentEstimator> {
        self.moments
            .as_ref()
            .filter(|me| me.len() >= self.min_samples)
    }

    /// The threshold in force.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// Threshold recalibrations so far.
    pub fn recalibrations(&self) -> u64 {
        self.recalibrations
    }

    /// Own plus peer rates summed over the indices and divided by `split`
    /// (the indices each arrival was reported to); `None` while all cold.
    pub fn rate_sum(&self, split: f64) -> Option<f64> {
        let width = self.bank.len();
        (0..width).any(|i| self.bank.get(i).is_warm()).then(|| {
            (0..width)
                .map(|i| self.peers.total_rate(i, self.bank.rate(i)))
                .sum::<f64>()
                / split
        })
    }

    /// This loop's per-index rates, for broadcast to its peers.
    pub fn summary(&self) -> LoadSummary {
        self.bank.summary()
    }

    /// Files the latest summary heard from `peer`.
    pub fn apply_summary(&mut self, peer: usize, summary: LoadSummary) {
        self.peers.apply(peer, summary);
    }

    /// Widens estimators and peer board to `width` (new indices start cold).
    pub fn grow_to(&mut self, width: usize) {
        self.bank.grow_to(width);
        self.peers.grow_to(width);
    }

    /// Returns index `idx` to the cold state.
    pub fn reset(&mut self, idx: usize) {
        self.bank.reset(idx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exp_profile(overhead: f64) -> WorkloadProfile {
        WorkloadProfile {
            mean_service: 1.0,
            scv: 1.0,
            client_overhead: overhead,
        }
    }

    #[test]
    fn exponential_threshold_is_theorem_1() {
        let p = Planner::new(exp_profile(0.0));
        let t = p.threshold_load();
        assert!((t - 1.0 / 3.0).abs() < 3e-3, "threshold {t}");
    }

    #[test]
    fn advice_flips_at_threshold() {
        let p = Planner::new(exp_profile(0.0));
        assert!(p.advise(0.25).replicate);
        assert!(!p.advise(0.45).replicate);
        // Speedup sensible below threshold.
        let a = p.advise(0.2);
        assert!(a.speedup() > 1.2, "speedup {}", a.speedup());
    }

    #[test]
    fn overhead_shrinks_threshold_like_fig4() {
        let thresholds: Vec<f64> = [0.0, 0.2, 0.5, 1.0]
            .iter()
            .map(|&o| Planner::new(exp_profile(o)).threshold_load())
            .collect();
        for w in thresholds.windows(2) {
            assert!(w[1] <= w[0] + 1e-9, "not decreasing: {thresholds:?}");
        }
        assert!(thresholds[3] < 0.02, "mean-sized overhead kills it");
    }

    #[test]
    fn deterministic_floor_matches_closed_form() {
        let p = Planner::new(WorkloadProfile {
            mean_service: 5.0e-3,
            scv: 0.0,
            client_overhead: 0.0,
        });
        let t = p.threshold_load();
        let expect = two_moment::deterministic_threshold_closed_form();
        assert!((t - expect).abs() < 2e-3, "{t} vs {expect}");
    }

    #[test]
    fn threshold_cache_matches_direct_bisection_and_memoizes() {
        let cache = ThresholdCache::new();
        // On-grid inputs reproduce the direct bisection exactly.
        let direct = Planner::new(exp_profile(0.0)).threshold_load();
        let cached = cache.threshold(1.0, 1.0, 0.0);
        assert_eq!(cached.to_bits(), direct.to_bits());
        // Nearby inputs snap to the same grid point: no new bisection and
        // the identical value back.
        let near = cache.threshold(2.5e-3, 1.004, 0.0);
        assert_eq!(near.to_bits(), cached.to_bits());
        // Off-grid inputs land within the documented quantization error.
        for scv in [0.27, 3.3, 12.47] {
            let exact = Planner::new(WorkloadProfile {
                mean_service: 1.0,
                scv,
                client_overhead: 0.0,
            })
            .threshold_load();
            let approx = cache.threshold(1.0e-3, scv, 0.0);
            assert!(
                (approx - exact).abs() < 2.5e-3,
                "scv {scv}: cached {approx} vs exact {exact}"
            );
        }
        // The overhead ratio is part of the key.
        let with_over = cache.threshold(1.0, 1.0, 0.5);
        assert!(with_over < cached, "overhead must shrink the threshold");
    }

    #[test]
    fn threshold_cache_overhead_axis_stays_in_documented_bound() {
        // The overhead axis has a cliff (Fig 4): verify the quantized
        // lookup tracks the exact bisection to the documented ~0.02 bound
        // across it, including off-grid ratios right at the steep part.
        let cache = ThresholdCache::new();
        for &ratio in &[0.049, 0.2513, 0.499, 0.5021, 0.601, 0.75] {
            let exact = Planner::new(WorkloadProfile {
                mean_service: 1.0,
                scv: 1.0,
                client_overhead: ratio,
            })
            .threshold_load();
            let approx = cache.threshold(2.0e-3, 1.0, ratio * 2.0e-3);
            assert!(
                (approx - exact).abs() < 0.02,
                "ratio {ratio}: cached {approx} vs exact {exact}"
            );
        }
    }

    #[test]
    fn thresholds_are_pinned_bit_for_bit() {
        // Each threshold's exact bits, pinned so that a speed-up of the
        // bisection cannot move an output. The keys cover the closed
        // forms (scv <= 1), the quadrature branch at the floor load
        // (scv > 1), overhead, the deterministic law whose gain crosses
        // zero twice (threshold 0 at 5e-4 overhead while scv 0.02 gets
        // ~0.30), and two near-extinction grid points where the floor
        // check's bounds straddle zero and the exact check decides (see
        // queuesim's two_moment tests).
        let grid = |scv_key: i64, over_key: i64| {
            (
                ThresholdCache::dequantize_scv(scv_key),
                over_key as f64 * 5.0e-4,
            )
        };
        let pins = [
            ((0.0, 0.0), 0x3fd2_bf2b_4a55_8eaa_u64),
            ((0.26, 0.0), 0x3fd4_f20e_2d2f_e3f4),
            ((1.0, 0.0), 0x3fd5_5509_0e99_1ff8),
            ((1.02, 0.0), 0x3fd5_5509_0e99_1ff8),
            ((4.45, 0.0), 0x3fd4_8913_9b34_a44e),
            ((10.0, 0.0), 0x3fd3_e41c_2385_4048),
            ((24.4, 0.0), 0x3fd3_5723_6e1d_eace),
            ((1.0, 0.1), 0x3fd4_4317_39e2_79de),
            ((0.0, 5.0e-4), 0),
            ((0.02, 5.0e-4), 0x3fd3_7521_e0f7_fcfe),
            (grid(83, 1200), 0),
            (grid(122, 1648), 0),
        ];
        for ((scv, client_overhead), bits) in pins {
            let t = Planner::new(WorkloadProfile {
                mean_service: 1.0,
                scv,
                client_overhead,
            })
            .threshold_load();
            assert_eq!(
                t.to_bits(),
                bits,
                "scv {scv}, overhead {client_overhead}: {t}"
            );
        }
    }

    #[test]
    fn store_is_seeded_with_the_committed_column() {
        let _ = ThresholdCache::new().threshold(1.0, 1.0, 0.0);
        let store = SHARED_THRESHOLDS
            .get()
            .expect("a lookup initializes the store")
            .read()
            .expect("threshold store poisoned");
        for (k, bits) in (0..).zip(OVERHEAD0_COLUMN) {
            assert_eq!(
                store.get(&(k, 0)).map(|t| t.to_bits()),
                Some(bits),
                "scv key {k}"
            );
        }
    }

    /// Regenerates the committed column: bisects every key and requires
    /// equal bits. On a mismatch it prints the column in the committed
    /// format, so re-pinning is
    /// `cargo test -p redundancy overhead0_column_matches_bisection -- --nocapture`
    /// and a paste over `OVERHEAD0_COLUMN`.
    #[test]
    fn overhead0_column_matches_bisection() {
        let fresh: Vec<u64> = (0..OVERHEAD0_COLUMN.len() as i64)
            .map(|k| ThresholdCache::bisect((k, 0)).to_bits())
            .collect();
        if fresh != OVERHEAD0_COLUMN {
            let hex = |b: u64| {
                let h = format!("{b:016x}");
                format!("0x{}_{}_{}_{}", &h[..4], &h[4..8], &h[8..12], &h[12..])
            };
            println!("#[rustfmt::skip]");
            println!("const OVERHEAD0_COLUMN: [u64; {}] = [", fresh.len());
            for row in fresh.chunks(4) {
                let row: Vec<String> = row.iter().map(|&b| hex(b)).collect();
                println!("    {},", row.join(", "));
            }
            println!("];");
            let stale = fresh
                .iter()
                .zip(OVERHEAD0_COLUMN)
                .filter(|(f, c)| **f != *c);
            panic!("{} committed entries differ from bisection", stale.count());
        }
    }

    #[test]
    #[should_panic(expected = "two-moment planner needs finite service variance")]
    fn infinite_variance_is_rejected_by_the_planner() {
        let _ = Planner::new(WorkloadProfile {
            scv: f64::INFINITY,
            ..exp_profile(0.0)
        });
    }

    #[test]
    #[should_panic(expected = "two-moment planner needs finite service variance")]
    fn infinite_variance_is_rejected_by_the_cache() {
        let _ = ThresholdCache::new().threshold(1.0, f64::INFINITY, 0.0);
    }

    #[test]
    fn recalibration_swaps_moments_and_keeps_overhead() {
        // The live loop re-derives its threshold from the *measured*
        // moments and the *configured* client overhead.
        let p = Planner::new(WorkloadProfile {
            mean_service: 1.0e-3,
            scv: 1.0,
            client_overhead: 0.02e-3,
        });
        // The smallest window: trusted from 2 demands, recalibrating
        // every 4.
        let mut lp = LivePlanner::new(p, p.threshold_load(), 1, 2, 0, 0.0).with_moments(32);
        // Mean 2 ms, scv 1: the measured law halves the overhead ratio.
        for d in [0.0, 4.0e-3, 0.0, 4.0e-3] {
            lp.observe_demand(d);
        }
        assert_eq!(lp.recalibrations(), 1);
        assert_eq!(lp.live_mean(), 2.0e-3);
        let cache = ThresholdCache::new();
        let want = cache.threshold(2.0e-3, 1.0, 0.02e-3);
        assert_eq!(lp.threshold().to_bits(), want.to_bits());
        assert!(want > 0.0 && want < cache.threshold(2.0e-3, 1.0, 0.0));
        assert_ne!(want.to_bits(), p.threshold_load().to_bits());
    }

    #[test]
    fn two_moment_threshold_peaks_at_exponential() {
        // The approximation the planner is built on (a Myers–Vernon
        // stand-in; see queuesim::analytic::two_moment) is exact at
        // scv = 1 and *degrades toward its deterministic floor* on either
        // side — the ordering the self-calibrating service experiments
        // (`fig-service-tail`) pin end-to-end.
        let at = |scv: f64| {
            Planner::new(WorkloadProfile {
                mean_service: 1.0,
                scv,
                client_overhead: 0.0,
            })
            .threshold_load()
        };
        let exp = at(1.0);
        assert!((exp - 1.0 / 3.0).abs() < 3e-3);
        assert!(at(0.27) < exp, "light tail must sit below exponential");
        assert!(at(12.0) < exp, "heavy tail must sit below exponential");
        assert!(
            at(12.0) > at(0.0),
            "heavy stays above the deterministic floor"
        );
    }

    #[test]
    fn decide_for_binds_on_the_hottest_candidate() {
        let p = Planner::new(exp_profile(0.0));
        let mut cache = ThresholdCache::new();
        let threshold = cache.threshold(1.0, 1.0, 0.0);
        // Both candidates cold: replicate, and the reported threshold is
        // exactly the cached grid value.
        let d = p.decide_for(&mut cache, &[0.1, 0.2]);
        assert!(d.replicate);
        assert_eq!(d.threshold_load.to_bits(), threshold.to_bits());
        assert!((d.max_load - 0.2).abs() < 1e-12);
        // One hot candidate vetoes replication even when the other is
        // nearly idle — the skew-aware point of the entry point.
        let d = p.decide_for(&mut cache, &[0.02, 0.45]);
        assert!(!d.replicate, "hot partner must veto: {d:?}");
        assert!((d.max_load - 0.45).abs() < 1e-12);
        // Just below / just above the threshold flips the decision.
        assert!(p.decide_for(&mut cache, &[threshold - 1e-6]).replicate);
        assert!(!p.decide_for(&mut cache, &[threshold]).replicate);
        // A single-candidate slice is legal (degenerate "pair").
        assert!(p.decide_for(&mut cache, &[0.0]).replicate);
    }

    #[test]
    fn decide_for_tracks_recalibrated_moments() {
        // A deterministic workload's threshold (~0.293) is lower than the
        // exponential 1/3: a pair load between the two must replicate
        // under the exponential planner and not under the deterministic
        // one, through the same cache.
        let mut cache = ThresholdCache::new();
        let exp = Planner::new(exp_profile(0.0));
        let det = Planner::new(WorkloadProfile {
            scv: 0.0,
            ..exp_profile(0.0)
        });
        let loads = [0.30, 0.31];
        assert!(exp.decide_for(&mut cache, &loads).replicate);
        assert!(!det.decide_for(&mut cache, &loads).replicate);
    }

    #[test]
    #[should_panic(expected = "at least one candidate")]
    fn decide_for_rejects_empty_candidates() {
        let p = Planner::new(exp_profile(0.0));
        let mut cache = ThresholdCache::new();
        let _ = p.decide_for(&mut cache, &[]);
    }

    fn live(width: usize, peers: usize) -> LivePlanner {
        let p = Planner::new(exp_profile(0.0));
        LivePlanner::new(p, p.threshold_load(), width, 16, peers, 0.05)
    }

    #[test]
    fn live_planner_width_one_matches_rate_estimator_with_peers() {
        // The global-load rule spelled out by hand — one RateEstimator,
        // a peer board, `rho < threshold` — must make the same decision
        // bit for bit on a random stream with summaries arriving midway.
        use crate::estimator::RateEstimator;
        let mut lp = live(1, 3);
        let threshold = lp.threshold();
        let mut est = RateEstimator::new(16);
        let mut peers = PeerLoads::new(3, 1);
        let mut rng = simcore::rng::Rng::seed_from(0x11FE);
        let mut t = 0.0;
        let mut flips = [0usize; 2];
        for i in 0..4_000 {
            t += rng.exponential(1.0);
            if i % 97 == 0 {
                let s = LoadSummary::global(rng.f64_open() * 0.3);
                let peer = 1 + i % 2;
                peers.apply(peer, s.clone());
                lp.apply_summary(peer, s);
            }
            est.observe_arrival(t);
            let rho = if est.is_warm() {
                peers.total_rate(0, est.rate()) * 1.0 / 4.0
            } else {
                0.05
            };
            let want = rho < threshold;
            assert_eq!(lp.decide(t, &[0], 4.0), want, "request {i}");
            assert_eq!(lp.summary(), est.summary());
            flips[usize::from(want)] += 1;
        }
        assert!(flips[0] > 0 && flips[1] > 0, "both branches: {flips:?}");
        assert_eq!(
            lp.rate_sum(1.0).map(f64::to_bits),
            Some(peers.total_rate(0, est.rate()).to_bits())
        );
    }

    #[test]
    fn moment_window_sets_trust_point_and_cadence() {
        // The figures' 8192-demand window, `storesim::rt`'s 4096 and the
        // 2048 of the multi-lane tests: trusted from window / 16 demands,
        // first recalibrated at window / 8.
        for (window, trusted, first) in [(8192, 512, 1024), (4096, 256, 512), (2048, 128, 256)] {
            let mut lp = live(1, 0).with_moments(window);
            for n in 1..=first {
                lp.observe_demand(1.0);
                assert_eq!(lp.calibrated().is_some(), n >= trusted, "{window}: {n}");
                assert_eq!(lp.recalibrations(), u64::from(n == first), "{window}: {n}");
            }
        }
    }

    /// A moment window's state, bit for bit.
    fn window_bits(me: &MomentEstimator) -> (usize, u64, u64, u64) {
        (
            me.len(),
            me.mean().to_bits(),
            me.variance().to_bits(),
            me.scv().to_bits(),
        )
    }

    #[test]
    fn live_planner_recalibrates_on_cadence_through_the_cache() {
        let window = 64usize;
        let (min_samples, recalibrate) = (window / 16, window / 8);
        let mut lp = live(1, 0).with_moments(window);
        let initial = lp.threshold();
        let mut me = MomentEstimator::new(window);
        let cache = ThresholdCache::new();
        let mut rng = simcore::rng::Rng::seed_from(7);
        for n in 1..=200usize {
            // A deterministic-ish law (scv well below 1): its cached
            // threshold differs from the exponential start.
            let d = 2.0 + 0.1 * rng.f64_open();
            lp.observe_demand(d);
            me.observe(d);
            let due = n >= min_samples && n % recalibrate == 0;
            let expect_recals = if n < min_samples {
                0
            } else {
                (n / recalibrate - (min_samples - 1) / recalibrate) as u64
            };
            assert_eq!(lp.recalibrations(), expect_recals, "after {n}");
            if n < min_samples {
                assert_eq!(lp.threshold().to_bits(), initial.to_bits());
                assert_eq!(lp.live_mean(), 1.0, "untrusted window");
                assert!(lp.calibrated().is_none(), "after {n}");
            } else {
                assert_eq!(lp.live_mean().to_bits(), me.mean().to_bits());
                let trusted = lp.calibrated().expect("trusted window");
                assert_eq!(window_bits(trusted), window_bits(&me), "after {n}");
            }
            if due {
                let want = cache.threshold(me.mean(), me.scv(), 0.0);
                assert_eq!(lp.threshold().to_bits(), want.to_bits(), "after {n}");
            }
        }
        assert!(
            lp.threshold() < initial,
            "light tail must lower the threshold"
        );
        assert!(live(1, 0).calibrated().is_none(), "no moment window");
    }

    #[test]
    fn live_planner_cold_index_reads_cold_load() {
        // Threshold ~1/3: a cold_load above it vetoes, below it replicates,
        // whatever the warm partner says.
        let p = Planner::new(exp_profile(0.0));
        let mut hot_cold = LivePlanner::new(p, p.threshold_load(), 4, 4, 0, 0.4);
        let mut cool_cold = LivePlanner::new(p, p.threshold_load(), 4, 4, 0, 0.1);
        for lp in [&mut hot_cold, &mut cool_cold] {
            for i in 0..8 {
                lp.decide(i as f64 * 100.0, &[0], 2.0);
            }
            assert!(lp.rate_sum(2.0).is_some(), "index 0 is warm");
        }
        assert!(!hot_cold.decide(1_000.0, &[0, 3], 2.0));
        assert!(cool_cold.decide(1_000.0, &[0, 3], 2.0));
        // A reset index is cold again.
        cool_cold.reset(0);
        assert!(cool_cold.rate_sum(2.0).is_none());
        cool_cold.grow_to(6);
        assert_eq!(cool_cold.summary().len(), 6);
    }

    #[test]
    #[should_panic(expected = "at least 32 demands")]
    fn live_planner_rejects_min_samples_below_two() {
        // A window below 32 would be trusted from fewer than 2 demands.
        let _ = live(1, 0).with_moments(31);
    }

    #[test]
    fn never_replicate_above_half() {
        let p = Planner::new(exp_profile(0.0));
        let a = p.advise(0.6);
        assert!(!a.replicate);
        assert!(a.mean_replicated.is_infinite());
    }
}
