//! Regenerates the paper's figures and tables (the source of
//! EXPERIMENTS.md's measured numbers): all of them in one pass, or only
//! the sections named.
//!
//! Usage: `repro-all [tiny|small|paper] [SECTION...]`, e.g.
//! `repro-all small fig3 table1`. Sections: `fig2` … `fig8`, `table1` …
//! `table3`. Figures 3/4 (CIFAR-like) and 5/6 (ImageNet-like) are the
//! by-epoch and by-time renderings of the same runs, so asking for both of
//! a pair computes its panels once.

use lcasgd_bench::{figures, scale_from_args, tables, Scenario, REPRO_SEED};
use std::cell::LazyCell;
use std::time::Instant;

const SECTIONS: [&str; 10] =
    ["fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "table1", "table2", "table3"];

/// One benchmark's learning curves at M ∈ {4, 8, 16}, rendered against
/// epochs and/or against virtual time.
fn panels(scenario: &Scenario, include_sgd: bool, by_epoch: bool, by_time: bool) {
    for m in [4usize, 8, 16] {
        let set = figures::panel(scenario, m, include_sgd, REPRO_SEED);
        if by_epoch {
            print!("{}", set.render_by_epoch());
        }
        if by_time {
            print!("{}", set.render_by_time());
        }
        println!();
    }
}

fn main() {
    let scale = scale_from_args();
    // The scale word, when given, comes first; the rest name sections.
    let mut sections: Vec<String> = std::env::args().skip(1).collect();
    if sections.first().is_some_and(|a| ["tiny", "small", "paper"].contains(&a.as_str())) {
        sections.remove(0);
    }
    if let Some(bad) = sections.iter().find(|s| !SECTIONS.contains(&s.as_str())) {
        eprintln!("repro-all: unknown section `{bad}` (expected one of {})", SECTIONS.join(", "));
        std::process::exit(2);
    }
    let want = |name: &str| sections.is_empty() || sections.iter().any(|s| s == name);

    let t0 = Instant::now();
    let cifar = LazyCell::new(|| Scenario::cifar(scale));
    let imagenet = LazyCell::new(|| Scenario::imagenet(scale));

    if sections.is_empty() {
        println!("# LC-ASGD reproduction — full experiment sweep ({scale:?} scale)\n");
    }
    if want("fig2") {
        print!("{}", figures::fig2(&cifar, REPRO_SEED).render_by_epoch());
        println!();
    }
    if want("fig3") || want("fig4") {
        panels(&cifar, true, want("fig3"), want("fig4"));
    }
    if want("fig5") || want("fig6") {
        panels(&imagenet, false, want("fig5"), want("fig6"));
    }
    if want("fig7") || want("fig8") {
        let (fig7, fig8) = figures::fig7_8(&imagenet, 16, REPRO_SEED);
        if want("fig7") {
            println!("{fig7}");
        }
        if want("fig8") {
            println!("{fig8}");
        }
    }
    if want("table1") {
        print!("{}", tables::table1(&cifar, REPRO_SEED));
        println!();
        print!("{}", tables::table1(&imagenet, REPRO_SEED));
        println!();
    }
    if want("table2") {
        print!("{}", tables::table2_3(&cifar, REPRO_SEED));
        println!();
    }
    if want("table3") {
        print!("{}", tables::table2_3(&imagenet, REPRO_SEED));
    }

    eprintln!("\ntotal sweep time: {:.1}s", t0.elapsed().as_secs_f64());
}
