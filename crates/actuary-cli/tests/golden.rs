//! Byte-exact goldens for the plain (single-system) `actuary explore`
//! outputs: the `--csv` grid of the README's custom grid, and the grid
//! and program-Pareto files of a small 2-D refined ramp. The committed
//! files under `tests/golden/` are the contract any refactor of the
//! exploration engine or its CSV projection must keep.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn actuary(args: &[&str]) -> Output {
    let out = Command::new(env!("CARGO_BIN_EXE_actuary"))
        .args(args)
        .output()
        .expect("the actuary binary must spawn");
    assert!(
        out.status.success(),
        "actuary {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

fn golden(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// A per-process scratch path, removed by the caller.
fn scratch(stem: &str) -> PathBuf {
    std::env::temp_dir().join(format!("actuary-golden-{stem}-{}.csv", std::process::id()))
}

fn joined(values: impl Iterator<Item = u64>) -> String {
    values.map(|v| v.to_string()).collect::<Vec<_>>().join(",")
}

#[test]
fn plain_explore_csv_matches_the_golden_grid() {
    let out = actuary(&[
        "explore",
        "--nodes",
        "7nm,5nm",
        "--areas",
        "400,800",
        "--quantities",
        "2000000,10000000",
        "--chiplets",
        "1,2,3",
        "--csv",
    ]);
    assert_eq!(
        String::from_utf8(out.stdout).unwrap(),
        golden("explore-custom-grid.csv")
    );
}

#[test]
fn plain_refined_ramp_matches_the_golden_grid_and_front() {
    let areas = joined((1..=9).map(|i| i * 100));
    let quantities = joined((1..=9).map(|i| i * 250_000));
    let (grid, pareto) = (scratch("grid"), scratch("pareto"));
    actuary(&[
        "explore",
        "--refine",
        "--quantity-stride",
        "8",
        "--nodes",
        "7nm",
        "--areas",
        &areas,
        "--quantities",
        &quantities,
        "--chiplets",
        "1,2,3",
        "--integrations",
        "soc,mcm,2.5d",
        "--threads",
        "2",
        "--out",
        grid.to_str().unwrap(),
        "--pareto-out",
        pareto.to_str().unwrap(),
    ]);
    let read = |path: &Path| {
        let text = std::fs::read_to_string(path).expect("the output file must exist");
        std::fs::remove_file(path).ok();
        text
    };
    let (grid_csv, pareto_csv) = (read(&grid), read(&pareto));
    assert!(
        grid_csv.contains(",pruned,"),
        "the ramp must exercise pruning"
    );
    assert_eq!(grid_csv, golden("explore-refine-ramp.csv"));
    assert_eq!(pareto_csv, golden("explore-refine-ramp-pareto.csv"));
}
