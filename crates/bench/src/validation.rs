//! Validation tables T4–T6.

use qmc_core::pt::{geometric_ladder, PtLadder};
use qmc_core::table::{pm, Table};
use qmc_ed::xxz::{full_spectrum, XxzParams};
use qmc_lattice::Chain;
use qmc_rng::{Rng64, SplitMix64, StreamFactory, StreamKind, Xoshiro256StarStar};
use qmc_stats::BinningAnalysis;
use qmc_worldline::{Worldline, WorldlineParams};

/// T4: replica-exchange ladder — per-pair acceptance and round trips.
pub fn t4_parallel_tempering(quick: bool) -> String {
    let sweeps = if quick { 2_000 } else { 20_000 };
    let l = 16;
    let betas = geometric_ladder(0.25, 4.0, 8);
    let mut ladder = PtLadder::new(l, 1.0, 1.0, 32, betas.clone());
    let mut rng = Xoshiro256StarStar::new(44);
    let energies = ladder.run(&mut rng, sweeps / 10, sweeps, 2);

    let mut t = Table::new(
        &format!("T4: parallel tempering, Heisenberg chain L={l}, 8 replicas"),
        &["pair", "β_lo", "β_hi", "acceptance", "E/N(β_lo)"],
    );
    for k in 0..betas.len() - 1 {
        let b = BinningAnalysis::new(&energies[k], 16);
        t.row(&[
            format!("{k}"),
            format!("{:.3}", betas[k]),
            format!("{:.3}", betas[k + 1]),
            format!("{:.3}", ladder.stats().rate(k)),
            pm(b.mean, b.error(), 4),
        ]);
    }
    let mut out = t.render();
    out.push_str(&format!(
        "round trips completed: {} (walkers diffusing bottom↔top)\n",
        ladder.stats().round_trips
    ));
    out
}

/// T5: engine cross-validation matrix — ED vs world-line vs SSE on the
/// Heisenberg chain, plus ED vs world-line for anisotropic XXZ.
pub fn t5_cross_validation(quick: bool) -> String {
    let sweeps = if quick { 4_000 } else { 40_000 };
    let l = 8usize;
    let lat = Chain::new(l);
    let mut out = String::new();

    let mut t = Table::new(
        &format!("T5: E/N cross-validation, Heisenberg chain L={l}"),
        &["β", "ED", "world-line (Δτ=0.125)", "SSE"],
    );
    let spec = full_spectrum(&lat, &XxzParams::heisenberg(1.0));
    for &beta in &[0.5f64, 1.0, 2.0] {
        let e_ed = spec.energy(beta) / l as f64;

        let mut wl = Worldline::new(WorldlineParams {
            l,
            jx: 1.0,
            jz: 1.0,
            beta,
            m: crate::figures::trotter_m(beta, 0.125),
        });
        let mut rng = Xoshiro256StarStar::new(50 + (beta * 10.0) as u64);
        let ws = wl.run(&mut rng, sweeps / 2, sweeps);
        let bw = BinningAnalysis::new(&ws.energy, 16);

        let mut rng2 = Xoshiro256StarStar::new(60 + (beta * 10.0) as u64);
        let mut sse = qmc_sse::Sse::new(&lat, 1.0, beta, &mut rng2);
        let ss = sse.run(&mut rng2, sweeps / 10, sweeps);
        let bs = BinningAnalysis::new(&ss.energy_samples(), 16);

        t.row(&[
            format!("{beta:.1}"),
            format!("{e_ed:.5}"),
            pm(bw.mean, bw.error(), 5),
            pm(bs.mean, bs.error(), 5),
        ]);
    }
    out.push_str(&t.render());

    let mut t2 = Table::new(
        &format!("T5b: E/N, anisotropic XXZ (Δ = 0.5) chain L={l}"),
        &["β", "ED", "world-line (Δτ=0.125)"],
    );
    let spec_xxz = full_spectrum(
        &lat,
        &XxzParams {
            jx: 1.0,
            jz: 0.5,
            field: 0.0,
        },
    );
    for &beta in &[0.5f64, 1.0, 2.0] {
        let e_ed = spec_xxz.energy(beta) / l as f64;
        let mut wl = Worldline::new(WorldlineParams {
            l,
            jx: 1.0,
            jz: 0.5,
            beta,
            m: crate::figures::trotter_m(beta, 0.125),
        });
        let mut rng = Xoshiro256StarStar::new(70 + (beta * 10.0) as u64);
        let ws = wl.run(&mut rng, sweeps / 2, sweeps);
        let bw = BinningAnalysis::new(&ws.energy, 16);
        t2.row(&[
            format!("{beta:.1}"),
            format!("{e_ed:.5}"),
            pm(bw.mean, bw.error(), 5),
        ]);
    }
    out.push_str(&t2.render());

    // T5c: the 2-D world-line engine against SSE (both sampling the 8×8
    // Heisenberg model; winding bias is negligible at this size).
    let sweeps2d = sweeps / 2;
    let mut t3 = Table::new(
        "T5c: E/N, 2-D Heisenberg 8×8 — world-line (ring+window moves) vs SSE",
        &["β", "world-line (Δτ=0.125)", "SSE"],
    );
    for &beta in &[0.5f64, 1.0] {
        let mut wl = qmc_worldline::GenericWorldline::new(
            qmc_lattice::Square::new(8, 8),
            qmc_worldline::GenericParams {
                jx: 1.0,
                jz: 1.0,
                beta,
                m: crate::figures::trotter_m(beta, 0.125),
            },
        );
        let mut rng = Xoshiro256StarStar::new(80 + (beta * 10.0) as u64);
        let ws = wl.run(&mut rng, sweeps2d / 4, sweeps2d);
        let bw = BinningAnalysis::new(&ws.energy, 16);

        let lat2 = qmc_lattice::Square::new(8, 8);
        let mut rng2 = Xoshiro256StarStar::new(90 + (beta * 10.0) as u64);
        let mut sse = qmc_sse::Sse::new(&lat2, 1.0, beta, &mut rng2);
        let ss = sse.run(&mut rng2, sweeps2d / 4, sweeps2d);
        let bs = BinningAnalysis::new(&ss.energy_samples(), 16);

        t3.row(&[
            format!("{beta:.1}"),
            pm(bw.mean, bw.error(), 5),
            pm(bs.mean, bs.error(), 5),
        ]);
    }
    out.push_str(&t3.render());
    out
}

/// T6: per-stream RNG quality across 1024 parallel streams of each
/// generator family, and of keyed SplitMix64 read at counter indices (the
/// draws of the distributed TFIM engine).
pub fn t6_rng_quality(quick: bool) -> String {
    let n_streams = if quick { 128 } else { 1024 };
    let draws = if quick { 4_000 } else { 20_000 };
    let mut t = Table::new(
        &format!("T6: parallel stream quality, {n_streams} streams × {draws} draws"),
        &[
            "generator",
            "worst |mean−½|·√(12n)",
            "worst χ²(255) dev/σ",
            "max |corr(r, r+1)|·√n",
        ],
    );
    // `None`: keyed SplitMix64, as `DistTfim` draws — stream r is read at
    // counter indices 0, 1, … under a key that is one draw of the xoshiro
    // factory's stream r.
    for (name, kind) in [
        ("LCG64 (jump-ahead)", Some(StreamKind::Lcg)),
        ("xoshiro256** (jump)", Some(StreamKind::Xoshiro)),
        ("lagged Fibonacci(55,24)", Some(StreamKind::LaggedFibonacci)),
        ("keyed SplitMix64 (counter)", None),
    ] {
        let factory = StreamFactory::with_kind(987, kind.unwrap_or(StreamKind::Xoshiro));
        let mut worst_mean = 0.0f64;
        let mut worst_chi = 0.0f64;
        let mut worst_corr = 0.0f64;
        let mut prev: Option<Vec<f64>> = None;
        for r in 0..n_streams {
            let mut g = factory.stream(r);
            let key = if kind.is_none() { g.next_u64() } else { 0 };
            let mut sum = 0.0;
            let mut counts = [0u32; 256];
            let mut vals = Vec::with_capacity(draws);
            for i in 0..draws as u64 {
                let u = match kind {
                    Some(_) => g.next_u64(),
                    None => SplitMix64::at(key, i),
                };
                counts[(u >> 56) as usize] += 1;
                let x = (u >> 11) as f64 / (1u64 << 53) as f64;
                sum += x;
                vals.push(x);
            }
            let n = draws as f64;
            worst_mean = worst_mean.max((sum / n - 0.5).abs() * (12.0 * n).sqrt());
            let expected = n / 256.0;
            let chi: f64 = counts
                .iter()
                .map(|&c| {
                    let d = c as f64 - expected;
                    d * d / expected
                })
                .sum();
            worst_chi = worst_chi.max((chi - 255.0).abs() / (2.0f64 * 255.0).sqrt());
            if let Some(p) = &prev {
                let corr: f64 = p
                    .iter()
                    .zip(&vals)
                    .map(|(a, b)| (a - 0.5) * (b - 0.5))
                    .sum::<f64>()
                    / n
                    / (1.0 / 12.0);
                worst_corr = worst_corr.max(corr.abs() * n.sqrt());
            }
            prev = Some(vals);
        }
        t.row(&[
            name.to_string(),
            format!("{worst_mean:.2}"),
            format!("{worst_chi:.2}"),
            format!("{worst_corr:.2}"),
        ]);
    }
    let mut out = t.render();
    out.push_str(
        "all columns are in units of σ under the null hypothesis; values ≲ 4–5 \
         across 1024 streams indicate healthy, uncorrelated streams\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn t6_quick_streams_healthy() {
        let out = t6_rng_quality(true);
        // Every deviation column should stay below 6σ even at quick size.
        for line in out.lines().skip(3) {
            let cells: Vec<&str> = line.split('|').collect();
            if cells.len() == 4 {
                for c in &cells[1..] {
                    if let Ok(v) = c.trim().parse::<f64>() {
                        assert!(v < 6.0, "stream deviation too large: {line}");
                    }
                }
            }
        }
    }

    #[test]
    fn t4_quick_has_positive_acceptance() {
        let out = t4_parallel_tempering(true);
        assert!(out.contains("round trips"));
        let rates: Vec<f64> = out
            .lines()
            .filter_map(|l| {
                let cells: Vec<&str> = l.split('|').collect();
                (cells.len() == 5).then(|| cells[3].trim().parse::<f64>().ok())?
            })
            .collect();
        assert!(!rates.is_empty());
        assert!(rates.iter().any(|&r| r > 0.1), "rates: {rates:?}");
    }
}
