//! Every document the benchmark sends: the fixed grid documents and the
//! seeded `serve_mixed` request stream.

use std::borrow::Cow;
use std::fmt::Write as _;

/// The ten scenario examples, frozen with the benchmark so a change to the
/// repository's examples cannot silently change the workload.
pub const EXAMPLES: [(&str, &str); 10] = [
    ("crossover", include_str!("../scenarios/crossover.toml")),
    ("custom-node", include_str!("../scenarios/custom-node.toml")),
    ("fig10", include_str!("../scenarios/fig10.toml")),
    ("fig2", include_str!("../scenarios/fig2.toml")),
    ("fig4-sweep", include_str!("../scenarios/fig4-sweep.toml")),
    ("fig6", include_str!("../scenarios/fig6.toml")),
    ("fig8", include_str!("../scenarios/fig8.toml")),
    ("fig9", include_str!("../scenarios/fig9.toml")),
    (
        "hetero-portfolio",
        include_str!("../scenarios/hetero-portfolio.toml"),
    ),
    (
        "wafer-price-override",
        include_str!("../scenarios/wafer-price-override.toml"),
    ),
];

/// Area axis step of the grid documents, in mm². The full determinism
/// plane steps by 8 mm² (800,000 cells, 7–10 s per answer on a two-vCPU
/// VM); every fifteenth area (17 areas, 54,400 cells) keeps each answer
/// near a second, so a run holds a dozen or more answers, each bracketed
/// closely by yardstick runs.
pub const GRID_AREA_STEP_MM2: u32 = 120;

/// The grid workloads' one document: the 2-D determinism plane (one node,
/// 20 quantities, all integrations, 1–10 chiplets, all four reuse schemes,
/// every output surface), exhaustive or refined. Fixed: no seed.
pub fn grid_document(refine: bool) -> String {
    let areas: Vec<String> = (8..=2000)
        .step_by(GRID_AREA_STEP_MM2 as usize)
        .map(|a| format!("{a}.0"))
        .collect();
    let quantities: Vec<String> = (1..=20).map(|i| (i * 250_000).to_string()).collect();
    let mut doc = format!(
        concat!(
            "name = \"plane\"\n",
            "extends = \"preset\"\n",
            "[explore]\n",
            "name = \"grid\"\n",
            "nodes = [\"7nm\"]\n",
            "areas_mm2 = [{areas}]\n",
            "quantities = [{quantities}]\n",
            "integrations = [\"soc\", \"mcm\", \"info\", \"2.5d\"]\n",
            "chiplets = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]\n",
            "schemes = [\"none\", \"scms\", \"ocme\", \"fsmc\"]\n",
            "outputs = [\"grid\", \"winners\", \"pareto\", \"pareto_program\"]\n",
        ),
        areas = areas.join(", "),
        quantities = quantities.join(", "),
    );
    if refine {
        doc.push_str("mode = \"refine\"\nquantity_stride = 8\n");
    }
    doc
}

/// splitmix64: small, seedable, and identical on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// What a request exercises, and so how its answer is checked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// A repeat of example `EXAMPLES[i]`: a result-cache hit.
    Hot(usize),
    /// A fresh explore document: misses both caches.
    Fresh,
    /// A fresh refine document on `POST /run?stream=refine`.
    Refine,
    /// A malformed document: answered 400 with a line and column.
    Malformed,
}

#[derive(Debug, Clone)]
pub struct Request {
    pub class: Class,
    pub body: Cow<'static, str>,
    pub json: bool,
}

impl Request {
    pub fn path(&self) -> &'static str {
        match self.class {
            Class::Refine => "/run?stream=refine",
            _ => "/run",
        }
    }
}

/// Requests per deck: each deck is a seeded shuffle of a fixed multiset —
/// every example once, five more example repeats, three fresh explore
/// documents, one refine document and one malformed document — so the
/// seed changes the order and the fresh contents, never the proportions
/// (75% hot, 15% fresh, 5% refine, 5% malformed).
pub const DECK: usize = 20;

/// The load's endless, seeded request stream. Fresh documents carry a
/// serial unique within the run, so no two requests of a run share a
/// fresh area axis.
#[derive(Debug)]
pub struct Mix {
    seed: u64,
    rng: Rng,
    deck: Vec<Request>,
    decks_dealt: usize,
    serials: u64,
}

impl Mix {
    pub fn new(seed: u64) -> Mix {
        Mix {
            seed,
            rng: Rng::new(seed.wrapping_mul(1_000_003)),
            deck: Vec::new(),
            decks_dealt: 0,
            serials: 0,
        }
    }

    fn serial(&mut self) -> u64 {
        self.serials += 1;
        self.serials
    }

    fn deal(&mut self) {
        let d = self.decks_dealt;
        self.decks_dealt += 1;
        let mut deck = Vec::with_capacity(DECK);
        for i in 0..EXAMPLES.len() {
            // A third of every example's repeats ask for JSON lines.
            deck.push(hot(i, (i + d).is_multiple_of(3)));
        }
        for _ in 0..5 {
            let i = self.rng.below(EXAMPLES.len());
            let json = self.rng.below(3) == 0;
            deck.push(hot(i, json));
        }
        for _ in 0..3 {
            let serial = self.serial();
            let json = self.rng.below(3) == 0;
            deck.push(Request {
                class: Class::Fresh,
                body: fresh_explore(self.seed, serial).into(),
                json,
            });
        }
        let serial = self.serial();
        deck.push(Request {
            class: Class::Refine,
            body: fresh_refine(self.seed, serial).into(),
            json: false,
        });
        let serial = self.serial();
        let variant = self.rng.below(MALFORMED_VARIANTS);
        let line = self.rng.below(4);
        deck.push(Request {
            class: Class::Malformed,
            body: malformed(serial, variant, line).into(),
            json: false,
        });
        for i in (1..deck.len()).rev() {
            let j = self.rng.below(i + 1);
            deck.swap(i, j);
        }
        deck.reverse();
        self.deck = deck;
    }
}

impl Iterator for Mix {
    type Item = Request;

    fn next(&mut self) -> Option<Request> {
        if self.deck.is_empty() {
            self.deal();
        }
        self.deck.pop()
    }
}

fn hot(i: usize, json: bool) -> Request {
    Request {
        class: Class::Hot(i),
        body: EXAMPLES[i].1.into(),
        json,
    }
}

/// An area axis no other request of the run shares: the serial shifts
/// every area by a distinct thousandth of a mm², which changes every core
/// key as well as the document digest.
fn unique_areas(seed: u64, serial: u64, count: usize, first: f64, step: f64) -> String {
    let shift = (seed % 97) as f64 + serial as f64 * 0.001;
    let mut out = String::new();
    for i in 0..count {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "{}", first + step * i as f64 + shift);
    }
    out
}

/// A small exhaustive explore: 8 areas × 3 quantities × 4 integrations ×
/// 4 chiplet counts (384 cells, 128 cores), every output surface.
pub fn fresh_explore(seed: u64, serial: u64) -> String {
    format!(
        concat!(
            "name = \"fresh-{serial}\"\n",
            "extends = \"preset\"\n",
            "[explore]\n",
            "name = \"grid\"\n",
            "nodes = [\"7nm\"]\n",
            "areas_mm2 = [{areas}]\n",
            "quantities = [250000, 1000000, 4000000]\n",
            "integrations = [\"soc\", \"mcm\", \"info\", \"2.5d\"]\n",
            "chiplets = [1, 2, 3, 4]\n",
            "outputs = [\"grid\", \"winners\", \"pareto\", \"pareto_program\"]\n",
        ),
        serial = serial,
        areas = unique_areas(seed, serial, 8, 60.0, 120.0),
    )
}

/// A refine explore over 24 areas × 12 quantities × 2 integrations × 4
/// chiplet counts (2,304 cells), streamed phase by phase.
pub fn fresh_refine(seed: u64, serial: u64) -> String {
    let quantities: Vec<String> = (1..=12).map(|i| (i * 250_000).to_string()).collect();
    format!(
        concat!(
            "name = \"refine-{serial}\"\n",
            "extends = \"preset\"\n",
            "[explore]\n",
            "name = \"grid\"\n",
            "nodes = [\"7nm\"]\n",
            "areas_mm2 = [{areas}]\n",
            "quantities = [{quantities}]\n",
            "integrations = [\"soc\", \"mcm\"]\n",
            "chiplets = [1, 2, 4, 8]\n",
            "mode = \"refine\"\n",
            "outputs = [\"grid\", \"winners\", \"pareto\"]\n",
        ),
        serial = serial,
        areas = unique_areas(seed, serial, 24, 40.0, 40.0),
        quantities = quantities.join(", "),
    )
}

const MALFORMED_VARIANTS: usize = 4;

/// A small cost document broken one of four ways — a misspelled key, a
/// mistyped value, an unknown scheme, or unterminated TOML — with the
/// serial in the broken text so every malformed body is distinct.
fn malformed(serial: u64, variant: usize, line: usize) -> String {
    let mut lines = vec![
        "[[portfolio]]".to_string(),
        format!("name = \"bad-{serial}\""),
        "scheme = \"scms\"".to_string(),
        "node = \"7nm\"".to_string(),
        "chiplet_module_area_mm2 = 200.0".to_string(),
        "multiplicities = [1, 2, 4]".to_string(),
        "integration = \"mcm\"".to_string(),
        "quantity = 500000".to_string(),
    ];
    match variant {
        0 => lines.insert(2 + line, format!("quanttiy = {serial}")),
        1 => lines[7] = format!("quantity = \"many-{serial}\""),
        2 => lines[2] = format!("scheme = \"weird-{serial}\""),
        _ => lines.insert(2 + line, format!("multiplicities = [1, {serial}")),
    }
    format!("name = \"malformed\"\n{}\n", lines.join("\n"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decks_keep_their_proportions_and_repeat_per_seed() {
        let a: Vec<Request> = Mix::new(7, 0, 2).take(DECK * 3).collect();
        let b: Vec<Request> = Mix::new(7, 0, 2).take(DECK * 3).collect();
        assert!(a.iter().zip(&b).all(|(x, y)| x.body == y.body));
        for deck in a.chunks(DECK) {
            let count = |f: fn(&Class) -> bool| deck.iter().filter(|r| f(&r.class)).count();
            assert_eq!(count(|c| matches!(c, Class::Hot(_))), 15);
            assert_eq!(count(|c| *c == Class::Fresh), 3);
            assert_eq!(count(|c| *c == Class::Refine), 1);
            assert_eq!(count(|c| *c == Class::Malformed), 1);
        }
        let other: Vec<Request> = Mix::new(7, 1, 2).take(DECK * 3).collect();
        let fresh = |list: &[Request]| -> Vec<String> {
            list.iter()
                .filter(|r| r.class == Class::Fresh)
                .map(|r| r.body.to_string())
                .collect()
        };
        assert!(fresh(&a).iter().all(|body| !fresh(&other).contains(body)));
    }
}
