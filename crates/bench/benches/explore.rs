//! Benchmarks the multi-axis exploration engine: the default 1,620-cell
//! grid evaluated single-threaded vs on every available hardware thread.
//!
//! On a multi-core machine the `threads=N` row should run close to N×
//! faster than `threads=1` (the per-cell work is independent and the
//! engine's workers only touch each other's range deques to steal); on a single-core
//! container the two rows time alike, which is itself the correctness
//! signal that the threading adds no overhead.

use actuary_dse::explore::{explore, ExploreRequest};
use actuary_dse::portfolio::PortfolioSpace;
use bench::library;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn bench_explore(c: &mut Criterion) {
    let lib = library();
    let space = PortfolioSpace::single_system();
    let hardware = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    // Even a single-core container times a genuinely multi-threaded row,
    // so the scheduling overhead (which should be negligible) is visible.
    let workers = hardware.max(2);

    let on = |threads| ExploreRequest {
        threads,
        ..ExploreRequest::default()
    };
    let probe = explore(&lib, &space, on(workers)).expect("the default grid must evaluate");
    println!(
        "==================================================================\n\
         multi-axis exploration: {} grid cells, {} hardware thread(s)\n\
         ==================================================================\n\
         {probe}\n",
        space.len(),
        hardware
    );

    let mut group = c.benchmark_group("explore_default_grid");
    group.sample_size(10);
    group.bench_function("threads=1", |b| {
        b.iter(|| explore(black_box(&lib), black_box(&space), on(1)).unwrap())
    });
    group.bench_function(&format!("threads={workers}"), |b| {
        b.iter(|| explore(black_box(&lib), black_box(&space), on(workers)).unwrap())
    });
    group.finish();
}

criterion_group!(benches, bench_explore);
criterion_main!(benches);
