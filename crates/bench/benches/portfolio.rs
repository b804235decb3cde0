//! Benchmarks the portfolio exploration engine: the default 6,480-cell
//! reuse-scheme grid evaluated single-threaded vs on every available
//! hardware thread.
//!
//! The cached rows measure the shipping configuration (one RE/NRE core per
//! distinct geometry, re-amortized per quantity); the uncached row times
//! the evaluate-every-cell reference path, so the cached-vs-uncached gap
//! is the live measurement of the ~3× claim in the ROADMAP. (Byte-identity
//! of the two paths is asserted in `tests/integration_portfolio.rs`, which
//! tier-1 runs — the bench only times them.)

use actuary_dse::explore::{explore, ExploreRequest};
use actuary_dse::portfolio::{CorePolicy, PortfolioSpace};
use bench::library;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn bench_portfolio(c: &mut Criterion) {
    let lib = library();
    let space = PortfolioSpace::default();
    let hardware = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let workers = hardware.max(2);

    let on = |threads, cores| ExploreRequest {
        threads,
        cores,
        ..ExploreRequest::default()
    };
    let cached = |threads| on(threads, CorePolicy::Cached);
    let probe = explore(&lib, &space, cached(workers)).expect("the default grid must evaluate");
    // The uncached path evaluates every non-incompatible cell, so its
    // evaluation count is known without running the sweep.
    let uncached_evaluations = probe.len() - probe.incompatible_count();
    println!(
        "==================================================================\n\
         portfolio exploration: {} grid cells, {} hardware thread(s)\n\
         ==================================================================\n\
         {probe}\n\
         core caching: {} vs {} uncached full evaluations ({:.1}x fewer)\n",
        space.len(),
        hardware,
        probe.core_evaluations(),
        uncached_evaluations,
        uncached_evaluations as f64 / probe.core_evaluations() as f64,
    );

    let mut group = c.benchmark_group("portfolio_default_grid");
    group.sample_size(10);
    group.bench_function("threads=1", |b| {
        b.iter(|| explore(black_box(&lib), black_box(&space), cached(1)).unwrap())
    });
    group.bench_function(&format!("threads={workers}"), |b| {
        b.iter(|| explore(black_box(&lib), black_box(&space), cached(workers)).unwrap())
    });
    group.bench_function("threads=1,uncached", |b| {
        b.iter(|| {
            explore(
                black_box(&lib),
                black_box(&space),
                on(1, CorePolicy::Uncached),
            )
            .unwrap()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_portfolio);
criterion_main!(benches);
