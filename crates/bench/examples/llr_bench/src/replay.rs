//! Replays of each layer's public API at a workload's shape, timed from
//! outside, and the budget table built from them: a replay's cost in a run
//! is its time per operation times the count the run returned. Those are
//! CPU seconds; the body runs on two threads, so each row is scaled by the
//! body's wall-to-CPU ratio. Whatever the replays do not explain lands in
//! `budget.residual_s`, so the rows always add up to the measured body.

use redundancy::cancel::CancelToken;
use redundancy::estimator::{EstimatorBank, MomentEstimator, PeerLoads, RateEstimator};
use redundancy::planner::{Planner, ThresholdCache, WorkloadProfile};
use simcore::rng::Rng;
use simcore::shard::ShardQueue;
use simcore::stats::SampleSet;
use simcore::time::SimTime;
use std::hint::black_box;
use std::time::{Duration, Instant};
use storesim::hashring::HashRing;

use crate::stats::quartiles;
use crate::trace::Tracer;

/// Median time per call of `op`, in ns, over five ~20 ms windows.
fn ns_per_op(mut op: impl FnMut()) -> f64 {
    let mut iters = 1u64;
    loop {
        let t = Instant::now();
        for _ in 0..iters {
            op();
        }
        let dt = t.elapsed();
        if dt >= Duration::from_millis(2) {
            let per = dt.as_nanos() as f64 / iters as f64;
            iters = ((20.0e6 / per) as u64).max(1);
            break;
        }
        iters *= 2;
    }
    let windows: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..iters {
                op();
            }
            t.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    quartiles(&windows).1
}

/// Median wall time of three calls of `f`, in ms; `prep` builds each
/// call's input outside the timer.
fn ms_per_call<T, R>(mut prep: impl FnMut() -> T, mut f: impl FnMut(T) -> R) -> f64 {
    let times: Vec<f64> = (0..3)
        .map(|_| {
            let input = prep();
            let t = Instant::now();
            black_box(f(input));
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    quartiles(&times).1
}

/// Replay inputs taken from the simulated service's config.
pub struct SimShape {
    pub servers: usize,
    pub vnodes: usize,
    pub shards: usize,
    pub stored: usize,
    pub lanes: usize,
    pub window: usize,
    pub mean_service: f64,
    pub samples: usize,
}

/// The sharded service's layers, each as `(metric, value)`.
pub fn sim_layers(tr: &mut Tracer, shape: &SimShape) -> Vec<(&'static str, f64)> {
    let mut rng = Rng::seed_from(0x11E7);

    // The engine's per-shard queue at a steady depth of 4096: one keyed
    // push per pop, as every handled event schedules about one more.
    let mut q: ShardQueue<u32> = ShardQueue::with_capacity(0, 4096);
    let gaps: Vec<f64> = (0..4096).map(|_| rng.exponential(1.0e6)).collect();
    for (i, g) in gaps.iter().enumerate() {
        q.push_keyed(SimTime::from_secs(*g), 0, i as u64, i as u32);
    }
    let mut seq = gaps.len() as u64;
    let push_pop = tr.span("simcore::shard::ShardQueue", |_| {
        ns_per_op(|| {
            let (t, ev) = q.pop().expect("queue stays at depth");
            seq += 1;
            let at = t + SimTime::from_secs(gaps[(seq % 4096) as usize]);
            q.push_keyed(at, 0, seq, black_box(ev));
        })
    });

    // A lane's Global-model decision inputs: its own windowed rate plus
    // the peers' last summaries.
    let lane_window = (shape.window / shape.lanes).max(2);
    let (rate_observe, peer_total, summary_apply) = tr.span("redundancy::estimator", |_| {
        let mut est = RateEstimator::new(lane_window);
        let mut t = 0.0;
        let gap = shape.mean_service / shape.servers as f64;
        let rate_observe = ns_per_op(|| {
            t += gap;
            est.observe_arrival(t);
            black_box(est.rate());
        });
        let mut peers = PeerLoads::new(shape.lanes, 1);
        for p in 0..shape.lanes {
            peers.apply(p, est.summary());
        }
        let peer_total = ns_per_op(|| {
            black_box(peers.total_rate(0, black_box(1.0)));
        });
        let mut peer = 0;
        let summary_apply = ns_per_op(|| {
            peer = (peer + 1) % shape.lanes;
            peers.apply(peer, est.summary());
        });
        (rate_observe, peer_total, summary_apply)
    });

    let threshold = tr.span("redundancy::planner", |_| {
        cold_threshold_ms(shape.mean_service)
    });
    let (ring_build, place_table) = tr.span("storesim::hashring", |_| {
        let build = ms_per_call(|| (), |()| HashRing::new(shape.servers, shape.vnodes));
        let ring = HashRing::new(shape.servers, shape.vnodes);
        let place = ms_per_call(
            || vec![0u16; shape.stored],
            |mut buf| {
                for sh in 0..shape.shards {
                    ring.replicas_into(sh as u64, &mut buf);
                }
                buf
            },
        );
        (build, place)
    });

    let (push, p99) = tr.span("simcore::stats::SampleSet", |_| {
        let draws: Vec<f64> = (0..shape.samples).map(|_| rng.exponential(1.0e3)).collect();
        let push = ms_per_call(SampleSet::new, |mut s| {
            for &x in &draws {
                s.push(x);
            }
            s
        }) * 1e6
            / shape.samples as f64;
        let p99 = ms_per_call(
            || draws.iter().copied().collect::<SampleSet>(),
            |mut s| s.quantile(0.99),
        );
        (push, p99)
    });

    vec![
        ("shard.queue_push_pop_ns", push_pop),
        ("estimator.rate_observe_ns", rate_observe),
        ("estimator.peer_total_rate_ns", peer_total),
        ("estimator.summary_apply_ns", summary_apply),
        ("planner.threshold_cold_ms", threshold),
        ("hashring.build_ms", ring_build),
        ("hashring.place_table_ms", place_table),
        ("stats.push_ns", push),
        ("stats.p99_ms", p99),
    ]
}

/// Replay inputs taken from the wall-clock runtime's config.
pub struct RtShape {
    pub servers: usize,
    pub window: usize,
    pub moment_window: usize,
    pub mean_service: f64,
}

/// The wall-clock frontend's decision stack, each as `(metric, value)`.
pub fn rt_layers(tr: &mut Tracer, shape: &RtShape) -> Vec<(&'static str, f64)> {
    let (bank_observe, moment_observe) = tr.span("redundancy::estimator", |_| {
        let mut bank = EstimatorBank::new(shape.servers, shape.window);
        let mut t = 0.0;
        let mut s = 0;
        let gap = shape.mean_service / shape.servers as f64;
        let bank_observe = ns_per_op(|| {
            s = (s + 1) % shape.servers;
            t += gap;
            bank.observe_arrival(s, t);
            black_box(bank.utilization(s, shape.mean_service, 2));
        });
        let mut moments = MomentEstimator::new(shape.moment_window);
        let mut x = 0.0;
        let moment_observe = ns_per_op(|| {
            x = (x + 0.37) % 1.0;
            moments.observe(shape.mean_service * (0.5 + x));
        });
        (bank_observe, moment_observe)
    });
    let (decide, threshold) = tr.span("redundancy::planner", |_| {
        let planner = exponential_planner(shape.mean_service);
        let mut cache = ThresholdCache::new();
        let mut flip = false;
        let decide = ns_per_op(|| {
            flip = !flip;
            let load = if flip { 0.1 } else { 0.9 };
            black_box(
                planner
                    .decide_for(&mut cache, &[load, 0.5 * load])
                    .replicate,
            );
        });
        (decide, cold_threshold_ms(shape.mean_service))
    });
    let token = tr.span("redundancy::cancel", |_| {
        ns_per_op(|| {
            let token = CancelToken::new();
            let copy = token.clone();
            token.cancel();
            black_box(copy.is_cancelled());
        })
    });
    vec![
        ("estimator.bank_observe_ns", bank_observe),
        ("estimator.moment_observe_ns", moment_observe),
        ("planner.decide_ns", decide),
        ("cancel.token_ns", token),
        ("planner.threshold_cold_ms", threshold),
    ]
}

/// One uncached §2.1 threshold bisection, the cost of filling one
/// `ThresholdCache` grid point.
fn cold_threshold_ms(mean_service: f64) -> f64 {
    ms_per_call(|| exponential_planner(mean_service), |p| p.threshold_load())
}

fn exponential_planner(mean_service: f64) -> Planner {
    Planner::new(WorkloadProfile {
        mean_service,
        scv: 1.0,
        client_overhead: 0.0,
    })
}

/// Budget rows `(name, wall seconds)`: each part's CPU seconds scaled by
/// the body's wall-to-CPU ratio, then the residual that makes the rows sum
/// to `body_s`.
pub fn budget(
    body_s: f64,
    body_cpu_s: f64,
    parts: &[(&'static str, f64)],
) -> Vec<(&'static str, f64)> {
    let scale = body_s / body_cpu_s;
    let mut rows: Vec<(&'static str, f64)> =
        parts.iter().map(|&(n, cpu)| (n, cpu * scale)).collect();
    let explained: f64 = rows.iter().map(|(_, s)| s).sum();
    rows.push(("budget.residual_s", body_s - explained));
    rows
}

/// CPU time this process has used so far (user + system), in seconds.
pub fn process_cpu_s() -> Result<f64, String> {
    let stat =
        std::fs::read_to_string("/proc/self/stat").map_err(|e| format!("/proc/self/stat: {e}"))?;
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th fields of the line, in USER_HZ (100 Hz) ticks.
    let rest = stat.rsplit_once(") ").ok_or("malformed /proc/self/stat")?.1;
    let ticks: Vec<f64> = rest
        .split_whitespace()
        .skip(11)
        .take(2)
        .map(|t| t.parse::<f64>().map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    Ok(ticks.iter().sum::<f64>() / 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_rows_sum_to_the_body() {
        // Two busy threads: 4 CPU seconds in a 2 s body.
        let rows = budget(
            2.0,
            4.0,
            &[("budget.queue_s", 1.4), ("budget.frontend_s", 0.5)],
        );
        let total: f64 = rows.iter().map(|(_, s)| s).sum();
        assert!((total - 2.0).abs() < 1e-12);
        assert!((rows[0].1 - 0.7).abs() < 1e-12);
        assert_eq!(rows.last().map(|r| r.0), Some("budget.residual_s"));
        // Over-attribution shows up as a negative residual, not a clamp.
        let over = budget(1.0, 1.0, &[("budget.queue_s", 1.5)]);
        assert!((over[1].1 + 0.5).abs() < 1e-12);
    }

    #[test]
    fn process_cpu_time_advances_with_work() {
        let before = process_cpu_s().expect("readable");
        let t = Instant::now();
        while t.elapsed() < Duration::from_millis(60) {
            black_box(0u64);
        }
        assert!(process_cpu_s().expect("readable") > before);
    }

    #[test]
    fn ns_per_op_grows_with_work() {
        let light = ns_per_op(|| {
            black_box(1u64);
        });
        let heavy = ns_per_op(|| {
            black_box((0..2000u64).map(black_box).sum::<u64>());
        });
        assert!(heavy > light, "{heavy} vs {light}");
    }
}
