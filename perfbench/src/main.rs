//! The chiplet-actuary benchmark: answers exploration grids through the
//! scenario front door and drives a mixed load against `actuary serve`,
//! checks every answer, and prints the metrics of one workload.
//!
//! ```text
//! actuary-perfbench --workload portfolio_exhaustive|portfolio_refine|serve_mixed
//!                   --seed N --seconds S --trace 0|1 --actuary PATH
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` prints the
//! per-layer metrics from a traced run. The last line of standard output
//! is one JSON object: `{"correct", "attempted", "failed", "metrics"}`.
//! See README.md for the workloads, the metric catalog and the baseline.

mod docs;
mod grid;
mod serve;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use actuary_scenario::canon::digest_document;
use actuary_scenario::toml::{parse, Table};
use actuary_scenario::{Scenario, ScenarioRun};

/// End-to-end metrics, printed by every `--trace 0` run.
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("cells_per_s", "1/s"),
    ("requests_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("cold_latency_p50_ms", "ms"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics, printed by every `--trace 1` run; a layer a
/// workload never reaches reads 0.
const PER_LAYER: [(&str, &str); 39] = [
    ("scenario.parse_s", "s"),
    ("scenario.digest_s", "s"),
    ("scenario.lower_s", "s"),
    ("dse.classify_s", "s"),
    ("dse.evaluate_s", "s"),
    ("dse.amortize_s", "s"),
    ("dse.unspanned_s", "s"),
    ("dse.amortize_cells", "count"),
    ("dse.core_evaluations", "count"),
    ("dse.engine_calls", "count"),
    ("engine.steals", "count"),
    ("refine.coarse_s", "s"),
    ("refine.bisect_s", "s"),
    ("refine.fill_s", "s"),
    ("refine.escalate_s", "s"),
    ("refine.evaluated_ratio", "ratio"),
    ("refine.pruned_cells", "count"),
    ("dse.winners_s", "s"),
    ("dse.fronts_s", "s"),
    ("artifact.grid_s", "s"),
    ("artifact.winners_s", "s"),
    ("artifact.pareto_s", "s"),
    ("artifact.pareto_program_s", "s"),
    ("artifact.other_s", "s"),
    ("artifact.bytes", "bytes"),
    ("http.server_busy_s", "s"),
    ("http.outside_server_s", "s"),
    ("http.ttfb_p50_ms", "ms"),
    ("http.body_p50_ms", "ms"),
    ("http.response_bytes", "bytes"),
    ("serve.evaluate_s", "s"),
    ("serve.amortize_s", "s"),
    ("cache.result_hit_ratio", "ratio"),
    ("cache.core_hit_ratio", "ratio"),
    ("serve.rejected", "count"),
    ("trace.wall_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.accounted_ratio", "ratio"),
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PortfolioExhaustive,
    PortfolioRefine,
    ServeMixed,
}

#[derive(Debug)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub actuary: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut flags: BTreeMap<String, String> = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {flag:?}"))?;
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        flags.insert(key.to_string(), value);
    }
    let take = |key: &str| {
        flags
            .get(key)
            .cloned()
            .ok_or_else(|| format!("missing --{key}"))
    };
    let workload = match take("workload")?.as_str() {
        "portfolio_exhaustive" => Workload::PortfolioExhaustive,
        "portfolio_refine" => Workload::PortfolioRefine,
        "serve_mixed" => Workload::ServeMixed,
        other => return Err(format!("unknown workload {other:?}")),
    };
    let number = |key: &str| -> Result<u64, String> {
        take(key)?
            .parse()
            .map_err(|_| format!("--{key} must be a whole number"))
    };
    let seconds = number("seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".to_string());
    }
    let trace = match number("trace")? {
        0 => false,
        1 => true,
        _ => return Err("--trace must be 0 or 1".to_string()),
    };
    Ok(Args {
        workload,
        seed: number("seed")?,
        seconds: seconds as f64,
        trace,
        actuary: PathBuf::from(take("actuary")?),
    })
}

/// One run's outcome: operations attempted and failed, every failed
/// check, and the metric values by name.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Printed for the reader, not part of the result object.
    pub notes: Vec<(String, f64, &'static str)>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn note(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.notes.push((name.into(), value, unit));
    }

    /// Records a failed check; the run is then not correct.
    pub fn problem(&mut self, message: impl Into<String>) {
        let message = message.into();
        eprintln!("perfbench: check failed: {message}");
        self.problems.push(message);
    }
}

/// Median of a non-empty sample (mean of the middle pair when even).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank quantile of a non-empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return f64::NAN;
    }
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// 64-bit FNV-1a: a stable fingerprint for artifact bytes.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

fn proc_file(pid: Option<u32>, file: &str) -> String {
    match pid {
        Some(pid) => format!("/proc/{pid}/{file}"),
        None => format!("/proc/self/{file}"),
    }
}

/// Restarts a process's peak-resident-set watermark from its current
/// resident set, so the next [`peak_rss_mib`] covers only what follows.
pub fn reset_peak_rss(pid: Option<u32>) {
    let _ = std::fs::write(proc_file(pid, "clear_refs"), "5");
}

/// Seconds one [`Yardstick`] run takes on the host every timing is
/// scaled to (about what it takes on a two-vCPU cloud VM).
pub const YARDSTICK_S: f64 = 0.3;

/// A fixed piece of CPU work, run between pieces of timed work to scale
/// each one to a host where the yardstick takes [`YARDSTICK_S`].
///
/// The shared host's single-thread speed drifts by a third over minutes
/// (no steal time, no other load in the VM), which moved every wall
/// figure by 10–30% between runs. The yardstick drifts with the work it
/// brackets: on a 150 s log of 1 s answers, the quartile spread of 20 s
/// medians fell from 0.14 (raw answer wall) to 0.04 (answer wall over the
/// mean of the yardsticks before and after it). The yardstick shares no
/// code with the program — float arithmetic over an 8 MB array and float
/// formatting, the mix the grid answers spend their time on — so a change
/// to the program cannot move it, and scaled figures still compare one
/// program against another.
#[derive(Debug)]
pub struct Yardstick {
    /// Seconds the latest run took.
    last_s: f64,
}

impl Default for Yardstick {
    /// Runs the yardstick once, to open the first bracket.
    fn default() -> Yardstick {
        Yardstick {
            last_s: Yardstick::run(),
        }
    }
}

impl Yardstick {
    /// Runs the yardstick again, closing the bracket opened by the last
    /// run, and returns the factor that scales the work timed inside it.
    pub fn scale(&mut self) -> f64 {
        let before = self.last_s;
        self.last_s = Yardstick::run();
        YARDSTICK_S / ((before + self.last_s) / 2.0)
    }

    fn run() -> f64 {
        let start = Instant::now();
        let mut values: Vec<f64> = (0..1_000_000).map(|i| f64::from(i) * 0.001).collect();
        let mut text = String::with_capacity(1 << 20);
        for pass in 0..24 {
            for x in values.iter_mut() {
                *x = (*x * 1.000_1 + 0.5).sqrt() + f64::from(pass);
            }
            text.clear();
            for x in values.iter().step_by(8) {
                let _ = write!(text, "{x:.6},");
            }
            black_box(&text);
        }
        black_box(&values);
        start.elapsed().as_secs_f64()
    }
}

/// Peak resident set (`VmHWM`) of a process, in MiB.
pub fn peak_rss_mib(pid: Option<u32>) -> Option<f64> {
    let status = std::fs::read_to_string(proc_file(pid, "status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Why an in-process answer failed, with the status `actuary serve`
/// answers for it and its exact body.
#[derive(Debug)]
pub struct Refusal {
    pub status: u16,
    pub body: String,
}

/// One document answered in process, the way `actuary run` and `POST
/// /run` answer it: parse, lower, run, then render every artifact.
#[derive(Debug)]
pub struct Answer {
    pub table: Table,
    pub run: ScenarioRun,
    /// (artifact kind, rendered bytes), in emission order.
    pub parts: Vec<(&'static str, String)>,
}

impl Answer {
    /// The response body `actuary serve` streams for this run.
    pub fn body(&self) -> String {
        self.parts.iter().map(|(_, text)| text.as_str()).collect()
    }

    /// Total cells over every explore job.
    pub fn cells(&self) -> usize {
        self.run.explores.iter().map(|e| e.result.len()).sum()
    }
}

fn artifact_span(kind: &str) -> &'static str {
    match kind {
        "grid" => "artifact.grid",
        "winners" => "artifact.winners",
        "pareto" => "artifact.pareto",
        "pareto_program" => "artifact.pareto_program",
        _ => "artifact.other",
    }
}

/// Answers `doc` in process; every step is a benchmark span when tracing.
pub fn answer(doc: &str, threads: usize, json: bool) -> Result<Answer, Refusal> {
    let refuse = |status: u16, e: &dyn std::fmt::Display| Refusal {
        status,
        body: format!("scenario error: {e}\n"),
    };
    let table = trace::timed("bench.parse", || parse(doc)).map_err(|e| refuse(400, &e))?;
    let scenario =
        trace::timed("bench.lower", || Scenario::from_doc(&table)).map_err(|e| refuse(400, &e))?;
    let run = trace::timed("bench.run", || scenario.run(threads)).map_err(|e| refuse(422, &e))?;
    let mut parts = Vec::new();
    for artifact in run.artifacts() {
        let kind = artifact.kind();
        let mut text = String::new();
        let written = trace::timed(artifact_span(kind), || {
            if json {
                artifact.write_jsonl_to(&mut text)
            } else {
                artifact.write_csv_to(&mut text)
            }
        });
        if let Err(e) = written {
            return Err(refuse(500, &e));
        }
        parts.push((kind, text));
    }
    Ok(Answer { table, run, parts })
}

/// Per-layer values of one traced answer set (one grid answer, or every
/// replayed serve document), from the spans it recorded.
pub fn layer_metrics(spans: &[trace::Closed]) -> BTreeMap<&'static str, f64> {
    let profile = trace::profile(spans);
    let self_s = |name: &str| profile.get(name).map_or(0.0, |s| s.self_s);
    let field = |name: &str, key: &str| {
        profile
            .get(name)
            .and_then(|s| s.fields.get(key))
            .map_or(0.0, |&v| v as f64)
    };
    let mut out = BTreeMap::new();
    out.insert("scenario.parse_s", self_s("bench.parse"));
    out.insert("scenario.lower_s", self_s("bench.lower"));
    out.insert("dse.classify_s", self_s("dse.classify"));
    out.insert("dse.evaluate_s", self_s("dse.evaluate"));
    out.insert("dse.amortize_s", self_s("dse.amortize"));
    // Time inside `Scenario::run` that no engine-phase span covers.
    out.insert(
        "dse.unspanned_s",
        self_s("bench.run") + self_s("scenario.explore"),
    );
    out.insert("dse.amortize_cells", field("dse.amortize", "cells"));
    out.insert(
        "dse.core_evaluations",
        field("dse.evaluate", "core_evaluations"),
    );
    out.insert(
        "dse.engine_calls",
        profile.get("dse.evaluate").map_or(0.0, |s| s.count as f64),
    );
    out.insert("refine.coarse_s", self_s("refine.coarse"));
    out.insert(
        "refine.bisect_s",
        self_s("refine.bisect") + self_s("refine.bisect_q"),
    );
    out.insert("refine.fill_s", self_s("refine.fill"));
    out.insert("refine.escalate_s", self_s("refine.escalate"));
    for (metric, span) in [
        ("artifact.grid_s", "artifact.grid"),
        ("artifact.winners_s", "artifact.winners"),
        ("artifact.pareto_s", "artifact.pareto"),
        ("artifact.pareto_program_s", "artifact.pareto_program"),
        ("artifact.other_s", "artifact.other"),
    ] {
        out.insert(metric, self_s(span));
    }
    let wall: f64 = profile.get("bench.rep").map_or(0.0, |s| s.total_s);
    let covered: f64 = profile
        .iter()
        .filter(|(name, _)| **name != "bench.rep")
        .map(|(_, s)| s.self_s)
        .sum();
    out.insert("trace.wall_s", wall);
    out.insert(
        "trace.accounted_ratio",
        if wall > 0.0 { covered / wall } else { 0.0 },
    );
    out
}

/// Direct calls into the steps the artifact renderers wrap — the winner
/// tables and both Pareto fronts — timed outside the answers, plus the
/// answers' cell and byte counts.
#[derive(Debug, Default)]
pub struct Probe {
    winners_s: f64,
    fronts_s: f64,
    cells: usize,
    evaluated: usize,
    pruned: usize,
    bytes: usize,
}

impl Probe {
    pub fn add(&mut self, answer: &Answer) {
        for result in answer.run.explores.iter().map(|e| &e.result) {
            let start = Instant::now();
            black_box(result.all_winners());
            self.winners_s += start.elapsed().as_secs_f64();
            let start = Instant::now();
            for &scheme in &result.space().schemes {
                black_box(result.pareto_front(scheme));
                black_box(result.pareto_program(scheme));
            }
            self.fronts_s += start.elapsed().as_secs_f64();
            self.cells += result.len();
            self.evaluated += result.evaluated_cells();
            self.pruned += result.pruned_count();
        }
        self.bytes += answer
            .parts
            .iter()
            .map(|(_, text)| text.len())
            .sum::<usize>();
    }

    pub fn record(&self, m: &mut BTreeMap<&'static str, f64>) {
        m.insert("dse.winners_s", self.winners_s);
        m.insert("dse.fronts_s", self.fronts_s);
        m.insert(
            "refine.evaluated_ratio",
            self.evaluated as f64 / self.cells.max(1) as f64,
        );
        m.insert("refine.pruned_cells", self.pruned as f64);
        m.insert("artifact.bytes", self.bytes as f64);
    }
}

/// The digest step `actuary serve` adds in front of lowering, timed on
/// an already-parsed document.
pub fn time_digest(table: &Table) -> f64 {
    let start = Instant::now();
    black_box(digest_document(table));
    start.elapsed().as_secs_f64()
}

fn print_report(args: &Args, report: &Report) -> bool {
    let catalog: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut correct = report.problems.is_empty() && report.failed == 0 && report.attempted > 0;
    let mut fields = Vec::new();
    println!(
        "workload {} (seed {}, {} s, trace {})",
        match args.workload {
            Workload::PortfolioExhaustive => "portfolio_exhaustive",
            Workload::PortfolioRefine => "portfolio_refine",
            Workload::ServeMixed => "serve_mixed",
        },
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for &(name, unit) in catalog {
        let value = report.metrics.get(name).copied().unwrap_or(0.0);
        if !value.is_finite() {
            eprintln!("perfbench: metric {name} is not finite");
            correct = false;
        }
        let value = if value.is_finite() { value } else { 0.0 };
        println!("  {name:<28} {value:>18.6} {unit}");
        fields.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    for (name, value, unit) in &report.notes {
        println!("  {name:<28} {value:>18.6} {unit}");
    }
    let error_ratio = report.failed as f64 / report.attempted.max(1) as f64;
    println!("  {:<28} {error_ratio:>18.6} ratio", "error_ratio");
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted,
        report.failed,
        fields.join(", ")
    );
    correct
}

/// Pins the calling thread to the highest CPU it may run on. Threads it starts later and processes it spawns (the served
/// workload's server) inherit the mask.
///
/// On one CPU the timed work and the [`Yardstick`] runs beside it share
/// the same core and the same neighbours: on a two-vCPU VM the
/// correlation between a 1 s slice of served load and the yardstick next
/// to it rose from 0.2 unpinned to 0.9 pinned. Every workload runs its
/// load on one thread (plus the server's one worker), so pinning costs
/// it no parallelism.
fn pin_to_one_cpu() -> Result<(), String> {
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    // A `cpu_set_t`: 1024 bits.
    let mut mask = [0u64; 16];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a writable `cpu_set_t` of `size` bytes; pid 0 is
    // the calling thread.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
        return Err(format!(
            "sched_getaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    let cpu = (0..size * 8)
        .rev()
        .find(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
        .ok_or("the affinity mask is empty")?;
    let mut one = [0u64; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable `cpu_set_t` of `size` bytes.
    if unsafe { sched_setaffinity(0, size, one.as_ptr()) } != 0 {
        return Err(format!(
            "sched_setaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::from(2);
        }
    };
    // Before any thread starts, so every one inherits the mask.
    if let Err(message) = pin_to_one_cpu() {
        eprintln!("perfbench: running unpinned: {message}");
    }
    let report = match args.workload {
        Workload::PortfolioExhaustive | Workload::PortfolioRefine => grid::run(&args),
        Workload::ServeMixed => serve::run(&args),
    };
    match report {
        Ok(report) => {
            print_report(&args, &report);
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("perfbench: {message}");
            ExitCode::FAILURE
        }
    }
}
