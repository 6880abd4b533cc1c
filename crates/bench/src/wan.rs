//! §3 reproductions: the TCP handshake table and Figures 15–17.

use crate::util::{ms, num, pct, Report};
use crate::Effort;
use simcore::runner::Runner;
use wansim::costbench::{incremental_rates, savings_ms_per_kb, BREAK_EVEN_MS_PER_KB};
use wansim::dns::{reduction_table, DnsExperiment, DnsPopulation, BYTES_PER_COPY};
use wansim::handshake::HandshakeModel;

/// §3.1: the handshake duplication numbers.
pub fn tcp_handshake(effort: Effort) -> String {
    let mut r = Report::new(
        "tcp: handshake completion under packet duplication",
        "Section 3.1",
    );
    let n = effort.scale(2_000_000, 200_000);
    let m = HandshakeModel::default();
    // The paired single/duplicated evaluations run in parallel.
    let (single, dup) = Runner::global().pair(
        || m.evaluate(false, n, 0x7C9),
        || m.evaluate(true, n, 0x7C9),
    );
    r.header(&["metric", "single", "duplicated"]);
    r.row(&[
        "expected completion (ms)".into(),
        ms(single.mean),
        ms(dup.mean),
    ]);
    let mut s1 = single.samples;
    let mut s2 = dup.samples;
    for (label, q) in [
        ("p99 (ms)", 0.99),
        ("p99.5 (ms)", 0.995),
        ("p99.9 (ms)", 0.999),
    ] {
        r.row(&[label.into(), ms(s1.quantile(q)), ms(s2.quantile(q))]);
    }
    r.row(&[
        "P(>= 1 timeout)".into(),
        num(m.timeout_cliff_probability(false)),
        num(m.timeout_cliff_probability(true)),
    ]);
    let savings = m.expected_savings();
    r.note(&format!(
        "mean savings {} ms  (paper: ~25 ms at RTT=100 ms)",
        ms(savings)
    ));
    r.note(&format!(
        "savings per KB: {:.1} ms/KB vs {} ms/KB break-even (paper: >= 170)",
        savings_ms_per_kb(savings * 1e3, m.extra_bytes()),
        BREAK_EVEN_MS_PER_KB
    ));
    r.note(&format!(
        "p99.5 improvement {} ms (the paper's '>= 880 ms in the tail' lives in this band: \
         duplication moves the 3 s timeout cliff from the ~98.6th to the ~99.8th percentile)",
        ms(s1.quantile(0.995) - s2.quantile(0.995))
    ));
    r.finish()
}

fn experiment(effort: Effort) -> DnsExperiment {
    let probes = effort.scale(20_000, 3_000);
    DnsExperiment::rank(DnsPopulation::paper_like(15), probes, 0xD45)
}

/// Fig 15: DNS response-time distribution for 1/2/5/10 servers.
pub fn fig15(effort: Effort) -> String {
    let mut r = Report::new("fig15: DNS response time distribution", "Figure 15");
    let exp = experiment(effort);
    let trials = effort.scale(1_000_000, 100_000);
    let mut sets = exp.run_all_k(trials, 0x515);
    for k in [1usize, 2, 5, 10] {
        r.ccdf(&format!("{k} server(s)"), &sets[k - 1].ccdf(60));
    }
    let mut one = sets[0].clone();
    let mut ten = sets[9].clone();
    r.note(&format!(
        "fraction later than 500 ms: 1 server {:.5}, 10 servers {:.5} ({}x)",
        one.tail_fraction(0.5),
        ten.tail_fraction(0.5),
        num(one.tail_fraction(0.5) / ten.tail_fraction(0.5).max(1e-9)),
    ));
    r.note(&format!(
        "fraction later than 1.5 s: 1 server {:.6}, 10 servers {:.6}",
        one.tail_fraction(1.5),
        ten.tail_fraction(1.5),
    ));
    r.note("paper: 6.5x at 500 ms, 50x at 1.5 s");
    r.finish()
}

/// Fig 16: % reduction vs number of copies, four metrics.
pub fn fig16(effort: Effort) -> String {
    let mut r = Report::new(
        "fig16: reduction in DNS response time vs copies",
        "Figure 16",
    );
    let exp = experiment(effort);
    let trials = effort.scale(500_000, 60_000);
    r.header(&["copies", "mean_pct", "median_pct", "p95_pct", "p99_pct"]);
    for row in reduction_table(&exp, trials, 0x516) {
        r.row(&[
            row.k.to_string(),
            pct(row.mean_pct),
            pct(row.median_pct),
            pct(row.p95_pct),
            pct(row.p99_pct),
        ]);
    }
    r.note("paper: 50-62% reduction across metrics at 10 servers");
    r.finish()
}

/// Fig 17: incremental ms/KB value of each extra server vs the 16 ms/KB
/// break-even.
pub fn fig17(effort: Effort) -> String {
    let mut r = Report::new(
        "fig17: incremental latency savings per KB of extra traffic",
        "Figure 17",
    );
    let exp = experiment(effort);
    let trials = effort.scale(1_000_000, 120_000);
    let mut sets = exp.run_all_k(trials, 0x517);
    let means: Vec<f64> = sets.iter().map(|s| s.mean() * 1e3).collect();
    let p99s: Vec<f64> = sets.iter_mut().map(|s| s.quantile(0.99) * 1e3).collect();
    let mean_rates = incremental_rates(&means, BYTES_PER_COPY);
    let p99_rates = incremental_rates(&p99s, BYTES_PER_COPY);
    r.header(&[
        "servers",
        "incremental_mean_ms_per_kb",
        "incremental_p99_ms_per_kb",
    ]);
    for (i, (m, p)) in mean_rates.iter().zip(&p99_rates).enumerate() {
        r.row(&[(i + 2).to_string(), num(*m), num(*p)]);
    }
    r.note(&format!("break-even: {BREAK_EVEN_MS_PER_KB} ms/KB"));
    let total_mean_savings = means[0] - means[9];
    r.note(&format!(
        "absolute mean savings with 10 copies: {:.1} ms over {} extra bytes = {:.1} ms/KB \
         (paper: ~23 ms/KB, still above break-even)",
        total_mean_savings,
        9.0 * BYTES_PER_COPY,
        savings_ms_per_kb(total_mean_savings, 9.0 * BYTES_PER_COPY)
    ));
    r.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tcp_table_contains_break_even_comparison() {
        let out = tcp_handshake(Effort::Quick);
        assert!(out.contains("ms/KB"));
        assert!(out.contains("break-even"));
        crate::bands::assert_holds("tcp", &out);
    }

    #[test]
    fn fig16_has_ten_rows() {
        crate::bands::assert_holds("fig16", &fig16(Effort::Quick));
    }
}
