//! Race DNS resolvers with async futures — the paper's §3.2 as async code.
//!
//! Ten simulated resolvers with the heterogeneous latency profiles of
//! `wansim::dns`; each "query" is a future sleeping for a sampled response
//! time. We race the k best and report the latency distribution against
//! the single best server, k = 1, 2, 5, 10 — a live, async miniature of
//! Figure 16. The race uses `redundancy::tokio_exec`, whose futures are
//! runtime-agnostic; here they run on the crate's built-in `block_on`.
//!
//! ```text
//! cargo run --release --features tokio-exec --example dns_race
//! ```

use low_latency_redundancy::redundancy::tokio_exec::{block_on, race_async, sleep};
use low_latency_redundancy::simcore::rng::Rng;
use low_latency_redundancy::simcore::stats::SampleSet;
use low_latency_redundancy::wansim::dns::{DnsExperiment, DnsPopulation};
use std::future::Future;
use std::pin::Pin;
use std::time::Duration;

fn main() {
    // Stage 1: rank the resolvers by mean (offline, from the model).
    let exp = DnsExperiment::rank(DnsPopulation::paper_like(7), 5_000, 42);
    println!("stage 1 ranking (best first): {:?}", exp.ranking);

    // Stage 2, but *live*: every trial races k sleeping futures; first
    // answer wins, stragglers are dropped mid-sleep.
    let trials = 200;
    let mut rng = Rng::seed_from(99);
    for k in [1usize, 2, 5, 10] {
        let mut lat = SampleSet::new();
        for _t in 0..trials {
            // Pre-sample the k response times from the models (determinism),
            // then race real sleeping futures.
            let delays: Vec<f64> = exp.ranking[..k]
                .iter()
                .map(|&i| exp.population.servers[i].sample(&mut rng))
                .collect();
            let futs: Vec<Pin<Box<dyn Future<Output = usize> + Send>>> = delays
                .iter()
                .enumerate()
                .map(|(i, &d)| {
                    // Scale 1000x down so the demo finishes quickly: model
                    // milliseconds become microseconds of real sleeping.
                    let dur = Duration::from_micros((d * 1e3) as u64);
                    Box::pin(async move {
                        sleep(dur).await;
                        i
                    }) as Pin<Box<dyn Future<Output = usize> + Send>>
                })
                .collect();
            let (_winner, _idx) = block_on(race_async(futs)).expect("someone answers");
            // Record the *model* latency of the winner (min of samples):
            // wall clock would add scheduler noise to the demo.
            lat.push(delays.iter().fold(f64::INFINITY, |a, &b| a.min(b)));
        }
        println!(
            "k={k:>2}: mean {:>7.2} ms   p95 {:>7.2} ms   (over {trials} live races)",
            lat.mean() * 1e3,
            lat.quantile(0.95) * 1e3,
        );
    }
    println!("\ncompare with Figure 16: racing 10 servers roughly halves every metric");
}
