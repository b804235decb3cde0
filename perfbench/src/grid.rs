//! `portfolio_exhaustive` and `portfolio_refine`: one fixed grid document
//! answered in process through the scenario front door, repeatedly.

use std::collections::BTreeMap;
use std::time::Instant;

use actuary_obs::Registry;

use crate::{
    answer, docs, fnv64, layer_metrics, median, peak_rss_mib, quantile, time_digest, trace, Answer,
    Args, Probe, Report, Workload, Yardstick,
};

/// Engine threads per answer. One: the benchmark runs pinned to one CPU
/// (see `pin_to_one_cpu`). Unpinned, on a two-vCPU host shared with other
/// tenants, a second engine thread bought about 10% wall on the
/// exhaustive plane (and lost time on the refined one) while making the
/// answer wall swing with the neighbours' load (+36% with one busy
/// neighbour, against +6% at one thread).
const THREADS: usize = 1;
/// Set-up repetitions; `setup_s` is their median.
const SETUP_ROUNDS: usize = 3;
/// Answers per phase even when the window is shorter than they take.
const MIN_ANSWERS: u64 = 3;

/// (artifact kind, FNV-1a 64 of its CSV bytes, byte length) of the
/// exhaustive grid document's answer. The refined answer's winners and
/// fronts must match these too; its grid table marks pruned cells and so
/// has its own fingerprint.
const EXHAUSTIVE_ARTIFACTS: [(&str, u64, usize); 4] = [
    ("grid", 0xa4a8_a2cb_9169_a9e9, 5_111_512),
    ("winners", 0x52a8_f9b9_cf76_adc6, 77_848),
    ("pareto", 0x4acb_64d2_4e4d_544b, 327),
    ("pareto_program", 0xe391_bdb8_32fd_656b, 4_870),
];
const REFINE_GRID: (u64, usize) = (0x2613_4a54_e60f_29a0, 5_440_992);

type Fingerprint = Vec<(&'static str, u64, usize)>;

fn fingerprint(answer: &Answer) -> Fingerprint {
    answer
        .parts
        .iter()
        .map(|(kind, text)| (*kind, fnv64(text.as_bytes()), text.len()))
        .collect()
}

fn expected(refine: bool) -> Fingerprint {
    EXHAUSTIVE_ARTIFACTS
        .iter()
        .map(|&(kind, hash, len)| match (refine, kind) {
            (true, "grid") => (kind, REFINE_GRID.0, REFINE_GRID.1),
            _ => (kind, hash, len),
        })
        .collect()
}

/// Checks one answer against the committed fingerprints and the run's
/// first answer; a mismatch with the fingerprints is a failed answer.
fn check(report: &mut Report, refine: bool, answer: &Answer, first: &mut Option<Fingerprint>) {
    let print = fingerprint(answer);
    if print != expected(refine) {
        report.failed += 1;
        report.problem(format!(
            "grid artifacts differ from the committed fingerprints: {print:x?}"
        ));
    }
    match first {
        None => *first = Some(print),
        Some(first) if *first != print => {
            report.problem("grid artifacts differ between answers of one run");
        }
        Some(_) => {}
    }
}

/// Answer walls of one phase: as measured, and scaled by the yardstick
/// runs on either side of each answer.
#[derive(Debug, Default)]
struct Walls {
    raw: Vec<f64>,
    scaled: Vec<f64>,
}

/// Answers the document until `seconds` have passed (and at least
/// [`MIN_ANSWERS`] times), checking each answer outside its timed
/// interval. Returns the walls of the correct answers and the last one.
fn answer_for(
    report: &mut Report,
    doc: &str,
    refine: bool,
    seconds: f64,
    first: &mut Option<Fingerprint>,
    yardstick: &mut Yardstick,
    mut traced: Option<&mut Vec<BTreeMap<&'static str, f64>>>,
) -> (Walls, Option<Answer>) {
    let window = Instant::now();
    let mut walls = Walls::default();
    let mut last = None;
    let mut attempted = 0;
    while attempted < MIN_ANSWERS || window.elapsed().as_secs_f64() < seconds {
        attempted += 1;
        report.attempted += 1;
        drop(last.take());
        let steals_before = steals();
        let start = Instant::now();
        let result = trace::timed("bench.rep", || answer(doc, THREADS, false));
        let wall = start.elapsed().as_secs_f64();
        let answer = match result {
            Ok(answer) => answer,
            Err(refusal) => {
                report.failed += 1;
                report.problem(format!("the grid document was refused: {}", refusal.body));
                continue;
            }
        };
        walls.raw.push(wall);
        walls.scaled.push(wall * yardstick.scale());
        if let Some(layers) = traced.as_deref_mut() {
            let mut m = layer_metrics(&trace::take());
            m.insert("engine.steals", (steals() - steals_before) as f64);
            m.insert("scenario.digest_s", time_digest(&answer.table));
            let mut probe = Probe::default();
            probe.add(&answer);
            probe.record(&mut m);
            layers.push(m);
        }
        check(report, refine, &answer, first);
        last = Some(answer);
    }
    (walls, last)
}

fn steals() -> u64 {
    Registry::global()
        .snapshot()
        .counter("actuary_engine_steals_total")
        .unwrap_or(0)
}

pub fn run(args: &Args) -> Result<Report, String> {
    let refine = args.workload == Workload::PortfolioRefine;
    let mut report = Report::default();

    // Set-up: generate the document and answer it once, which fills the
    // allocator's pools and any lazily built state before the window.
    // Each round is scaled by the yardstick runs on either side of it.
    let mut first = None;
    let mut yardstick = Yardstick::default();
    let mut setups = Vec::with_capacity(SETUP_ROUNDS);
    let mut doc = String::new();
    let mut first_peak = f64::NAN;
    for round in 0..SETUP_ROUNDS {
        let start = Instant::now();
        doc = docs::grid_document(refine);
        let warm = answer(&doc, THREADS, false)
            .map_err(|r| format!("the grid document was refused: {}", r.body))?;
        setups.push(start.elapsed().as_secs_f64() * yardstick.scale());
        if round == 0 {
            // What one `actuary run` of the document holds: a fresh
            // process through its first answer. Later answers inherit
            // whatever the allocator kept, which varies run to run.
            first_peak = peak_rss_mib(None).unwrap_or(f64::NAN);
        }
        report.attempted += 1;
        check(&mut report, refine, &warm, &mut first);
    }
    report.set("setup_s", median(&setups));

    let last = if args.trace {
        let (untraced, _) = answer_for(
            &mut report,
            &doc,
            refine,
            args.seconds / 2.0,
            &mut first,
            &mut yardstick,
            None,
        );
        trace::enable();
        trace::take();
        let mut layers = Vec::new();
        let (traced, last) = answer_for(
            &mut report,
            &doc,
            refine,
            args.seconds / 2.0,
            &mut first,
            &mut yardstick,
            Some(&mut layers),
        );
        let keys: Vec<&'static str> = layers
            .first()
            .map_or(Vec::new(), |m| m.keys().copied().collect());
        for key in keys {
            let values: Vec<f64> = layers.iter().map(|m| m[key]).collect();
            report.set(key, median(&values));
        }
        let untraced_wall = median(&untraced.raw);
        report.set("trace.untraced_wall_s", untraced_wall);
        report.set(
            "trace.overhead_ratio",
            median(&traced.scaled) / median(&untraced.scaled),
        );
        report.note("answers_traced", traced.raw.len() as f64, "count");
        report.note("answers_untraced", untraced.raw.len() as f64, "count");
        last
    } else {
        let (walls, last) = answer_for(
            &mut report,
            &doc,
            refine,
            args.seconds,
            &mut first,
            &mut yardstick,
            None,
        );
        let cells = last.as_ref().map_or(0, Answer::cells) as f64;
        let p50 = median(&walls.scaled);
        report.set("cells_per_s", cells / p50);
        report.set("requests_per_s", 1.0 / p50);
        report.set("latency_p50_ms", p50 * 1e3);
        // No cache sits on this path: every answer is cold.
        report.set("cold_latency_p50_ms", p50 * 1e3);
        report.set("peak_rss_mib", first_peak);
        report.note("answers", walls.raw.len() as f64, "count");
        report.note("latency_max_ms", quantile(&walls.scaled, 1.0) * 1e3, "ms");
        report.note("unscaled_latency_p50_ms", median(&walls.raw) * 1e3, "ms");
        report.note("cells_per_answer", cells, "count");
        last
    };

    // Refinement must reproduce exhaustion's winners and both fronts.
    if refine {
        if let Some(refined) = &last {
            let exhaustive = answer(&docs::grid_document(false), THREADS, false)
                .map_err(|r| format!("exhaustive reference: {}", r.body))?;
            for kind in ["winners", "pareto", "pareto_program"] {
                let pick = |a: &Answer| {
                    a.parts
                        .iter()
                        .find(|(k, _)| *k == kind)
                        .map(|(_, text)| text.clone())
                };
                if pick(refined).is_none() || pick(refined) != pick(&exhaustive) {
                    report.failed += 1;
                    report.problem(format!("refined {kind} differ from the exhaustive answer"));
                }
            }
        }
    }
    Ok(report)
}
