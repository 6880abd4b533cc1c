//! §2.1 reproductions: Figures 1–4 and Theorem 1.

use crate::util::{num, Report};
use crate::Effort;
use queuesim::analytic::{heavy_tail, mm1, two_moment};
use queuesim::sweeps;
use queuesim::threshold::{threshold_load, ThresholdOptions};
use simcore::dist::{Deterministic, Distribution, Exponential, Pareto};

fn opts(effort: Effort) -> ThresholdOptions {
    match effort {
        Effort::Full => ThresholdOptions::default(),
        Effort::Quick => ThresholdOptions::fast(),
    }
}

/// Theorem 1: exponential service ⇒ threshold exactly 1/3, checked by
/// simulation, the two-moment model, and the closed form.
pub fn thm1(effort: Effort) -> String {
    let mut r = Report::new(
        "Theorem 1: threshold load for exponential service",
        "Section 2.1, Theorem 1",
    );
    r.header(&["method", "threshold"]);
    r.row(&["closed-form 1/(k+1), k=2".into(), num(mm1::threshold(2))]);
    r.row(&[
        "two-moment model".into(),
        num(two_moment::threshold_for_scv(1.0)),
    ]);
    let sim = threshold_load(&Exponential::unit(), &opts(effort));
    r.row(&["simulation".into(), num(sim)]);
    r.note("all three should agree at 0.3333");
    r.finish()
}

/// Fig 1(a): mean response vs load, deterministic service.
pub fn fig1a(effort: Effort) -> String {
    mean_vs_load_figure(
        "Fig 1(a): mean response time vs load, deterministic service",
        &Deterministic::unit(),
        effort,
    )
}

/// Fig 1(b): mean response vs load, Pareto(2.1) service.
pub fn fig1b(effort: Effort) -> String {
    mean_vs_load_figure(
        "Fig 1(b): mean response time vs load, Pareto (alpha=2.1) service",
        &Pareto::unit_mean(2.1),
        effort,
    )
}

fn mean_vs_load_figure<D: simcore::dist::Distribution + Clone>(
    title: &str,
    dist: &D,
    effort: Effort,
) -> String {
    let mut r = Report::new(title, "Figure 1");
    let loads: Vec<f64> = (1..=19).map(|i| i as f64 * 0.025).collect();
    let requests = effort.scale(400_000, 50_000);
    let pts = sweeps::mean_vs_load(dist, &loads, requests, 0x5161A);
    r.header(&[
        "load",
        "mean_1copy_s",
        "mean_2copies_s",
        "p999_1copy_s",
        "p999_2copies_s",
    ]);
    for p in pts {
        r.row(&[
            num(p.load),
            num(p.mean_single),
            num(p.mean_double),
            num(p.p999_single),
            num(p.p999_double),
        ]);
    }
    r.finish()
}

/// Fig 1(c): response-time CCDF at load 0.2 under Pareto(2.1) service.
pub fn fig1c(effort: Effort) -> String {
    let mut r = Report::new(
        "Fig 1(c): response time CCDF at load 0.2, Pareto service",
        "Figure 1(c)",
    );
    let requests = effort.scale(3_000_000, 150_000);
    let (single, double) =
        sweeps::ccdf_at_load(&Pareto::unit_mean(2.1), 0.2, requests, 60, 0x5161C);
    r.ccdf("1 copy", &single);
    r.ccdf("2 copies", &double);
    r.finish()
}

/// Fig 2(a): threshold load across the unit-mean Weibull family.
pub fn fig2a(effort: Effort) -> String {
    let mut r = Report::new(
        "Fig 2(a): threshold load vs Weibull inverse shape",
        "Figure 2(a)",
    );
    let gammas: Vec<f64> = match effort {
        Effort::Full => (1..=18).map(|i| i as f64).chain([0.5]).collect(),
        Effort::Quick => vec![0.5, 1.0, 4.0, 10.0],
    };
    let mut gs = gammas;
    gs.sort_by(f64::total_cmp);
    r.header(&["inverse_shape_gamma", "threshold_load"]);
    for (g, t) in sweeps::weibull_family(&gs, &opts(effort)) {
        r.row(&[num(g), num(t)]);
    }
    r.finish()
}

/// Fig 2(b): threshold load across the unit-mean Pareto family.
pub fn fig2b(effort: Effort) -> String {
    let mut r = Report::new(
        "Fig 2(b): threshold load vs Pareto inverse scale",
        "Figure 2(b)",
    );
    let betas: Vec<f64> = match effort {
        Effort::Full => {
            let mut v: Vec<f64> = (1..=19).map(|i| i as f64 * 0.05).collect();
            v.push(0.98); // alpha -> 2: the variance blow-up corner
            v
        }
        Effort::Quick => vec![0.1, 0.4, 0.7, 0.9],
    };
    r.header(&["inverse_scale_beta", "threshold_load"]);
    for (b, t) in sweeps::pareto_family(&betas, &opts(effort)) {
        r.row(&[num(b), num(t)]);
    }
    r.finish()
}

/// Fig 2(c): threshold load across the two-point family.
pub fn fig2c(effort: Effort) -> String {
    let mut r = Report::new(
        "Fig 2(c): threshold load vs two-point parameter p",
        "Figure 2(c)",
    );
    let ps: Vec<f64> = match effort {
        Effort::Full => {
            let mut v: Vec<f64> = (0..=19).map(|i| i as f64 * 0.05).collect();
            // The paper's right edge: variance explodes only as p -> 1
            // (var(0.95) is a modest 4.75; var(0.99) = 24).
            v.extend([0.98, 0.99]);
            v
        }
        Effort::Quick => vec![0.0, 0.3, 0.6, 0.9],
    };
    r.header(&["p", "threshold_load"]);
    for (p, t) in sweeps::two_point_family(&ps, &opts(effort)) {
        r.row(&[num(p), num(t)]);
    }
    r.note("left edge (~0.258) is the deterministic worst case; the rise with p");
    r.note("is modest: two-point giants overlap at doubled utilization, so this");
    r.note("family (unlike Weibull/Pareto, the ones the paper cites for the");
    r.note("->50% limit) plateaus in the low 0.3s");
    r.finish()
}

/// Fig 3: random unit-mean discrete distributions — min/max threshold by
/// support size, for uniform-simplex and Dirichlet(0.1) sampling.
pub fn fig3(effort: Effort) -> String {
    let mut r = Report::new(
        "Fig 3: threshold spread over random service distributions",
        "Figure 3",
    );
    let supports: Vec<usize> = match effort {
        Effort::Full => vec![1, 2, 4, 8, 16, 32, 64, 128, 256, 512],
        Effort::Quick => vec![2, 16, 128],
    };
    let samples = effort.scale(25, 4);
    let mut o = opts(effort);
    // Per-threshold effort trimmed: this figure runs hundreds of
    // thresholds (the paper used 1000 draws per point).
    o.requests = effort.scale(60_000, 25_000);
    o.replications = 3;
    o.tolerance = 0.008;
    r.header(&["support", "sampler", "min_threshold", "max_threshold"]);
    for (label, alpha) in [("uniform", 1.0), ("dirichlet(0.1)", 0.1)] {
        for row in sweeps::random_distributions(&supports, samples, alpha, &o) {
            r.row(&[
                row.support.to_string(),
                label.into(),
                num(row.min_threshold),
                num(row.max_threshold),
            ]);
        }
        r.blank();
    }
    r.note("conjectured lower bound: 0.2582 (deterministic)");
    r.finish()
}

/// Fig 4: client-side overhead vs threshold load, three service laws.
pub fn fig4(effort: Effort) -> String {
    let mut r = Report::new("Fig 4: threshold load vs client-side overhead", "Figure 4");
    let overheads: Vec<f64> = match effort {
        Effort::Full => (0..=10).map(|i| i as f64 * 0.1).collect(),
        Effort::Quick => vec![0.0, 0.25, 0.5, 1.0],
    };
    r.header(&[
        "overhead_frac_of_mean_service",
        "distribution",
        "threshold_load",
    ]);
    let o = opts(effort);
    // The three service laws sweep one after another, so one law's draw
    // cache is resident at a time; each sweep runs its overhead points side
    // by side on the global runner.
    let dists: Vec<(&str, Box<dyn Distribution>)> = vec![
        ("pareto(2.1)", Box::new(Pareto::unit_mean(2.1))),
        ("exponential", Box::new(Exponential::unit())),
        ("deterministic", Box::new(Deterministic::unit())),
    ];
    let series = dists
        .iter()
        .map(|(label, d)| (*label, sweeps::overhead_sweep(&d.as_ref(), &overheads, &o)));
    for (label, rows) in series {
        for (frac, t) in rows {
            r.row(&[num(frac), label.into(), num(t)]);
        }
        r.blank();
    }
    r.finish()
}

/// Bonus table (analysis layers): thresholds from the heavy-tail
/// approximation across tail indices — Theorem 3's regime.
pub fn heavy_tail_table() -> String {
    let mut r = Report::new(
        "Heavy-tail approximation thresholds (Theorem 3 regime)",
        "Section 2.1, Theorem 3",
    );
    r.header(&["alpha", "threshold_load"]);
    for alpha in [1.6, 1.8, 2.0, 2.1, 2.2, 2.3, 2.41, 2.8, 3.5] {
        r.row(&[num(alpha), num(heavy_tail::threshold_pareto(alpha))]);
    }
    r.note("alpha < 1+sqrt(2) = 2.414 implies threshold > 30% (Theorem 3)");
    r.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thm1_quick_agrees() {
        crate::bands::assert_holds("thm1", &thm1(Effort::Quick));
    }

    #[test]
    fn heavy_tail_table_renders() {
        let t = heavy_tail_table();
        assert!(t.contains("2.41"));
    }
}
