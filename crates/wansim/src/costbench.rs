//! The cost-effectiveness benchmark of Vulimiri et al. [28, 29].
//!
//! The paper judges every wide-area use of redundancy against one number:
//! replication is worthwhile when it saves at least **16 ms of latency per
//! KB of extra traffic** — a threshold derived from cloud-service pricing
//! (which bundles bandwidth, CPU, and the economic value of human latency).
//! Fig 17 plots incremental DNS savings against this line; §3.1 reports
//! the handshake's ~170 ms/KB as an order of magnitude above it.

/// Break-even latency savings per extra traffic, ms/KB.
pub const BREAK_EVEN_MS_PER_KB: f64 = 16.0;

/// Latency savings rate in ms/KB given absolute savings and extra bytes.
///
/// # Panics
/// Panics if `extra_bytes` is not positive.
pub fn savings_ms_per_kb(saved_ms: f64, extra_bytes: f64) -> f64 {
    assert!(extra_bytes > 0.0, "no extra traffic, rate undefined");
    saved_ms / (extra_bytes / 1024.0)
}

/// Incremental ms/KB of going from `k−1` to `k` copies, given the latency
/// metric at each copy count (`metric[i]` = latency in ms with `i+1`
/// copies) and the extra bytes each additional copy costs.
pub fn incremental_rates(metric: &[f64], bytes_per_copy: f64) -> Vec<f64> {
    assert!(metric.len() >= 2);
    metric
        .windows(2)
        .map(|w| savings_ms_per_kb(w[0] - w[1], bytes_per_copy))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rate_arithmetic() {
        // 32 ms saved for 2 KB = 16 ms/KB: exactly break-even.
        assert!((savings_ms_per_kb(32.0, 2048.0) - 16.0).abs() < 1e-12);
    }

    #[test]
    fn incremental_rates_flag_diminishing_returns() {
        // Mean latency (ms) with 1..=4 copies: big win first, then little.
        let metric = [100.0, 60.0, 50.0, 48.0];
        let rates = incremental_rates(&metric, 500.0);
        assert_eq!(rates.len(), 3);
        assert!(rates[0] > rates[1] && rates[1] > rates[2]);
        // First copy is worth it, the fourth is not.
        assert!(rates[0] > BREAK_EVEN_MS_PER_KB);
        assert!(rates[2] < BREAK_EVEN_MS_PER_KB);
    }

    #[test]
    #[should_panic(expected = "extra traffic")]
    fn zero_bytes_panics() {
        let _ = savings_ms_per_kb(10.0, 0.0);
    }
}
