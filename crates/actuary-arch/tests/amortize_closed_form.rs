//! The closed-form member read-out [`PortfolioCore::member_at`] against the
//! named [`actuary_arch::PortfolioCost`] breakdown, over random SCMS, OCME
//! and FSMC families (chiplet and monolithic variants, package reuse on and
//! off, random module areas and nodes).
//!
//! Exploration grids price every cell with `member_at`; figures, reports
//! and `Portfolio::cost` read the breakdown. These properties are what lets
//! the two agree byte for byte, and what sound refinement relies on.

use actuary_arch::reuse::{FsmcSpec, OcmeSpec, ScmsSpec};
use actuary_arch::{Portfolio, PortfolioCore};
use actuary_model::AssemblyFlow;
use actuary_tech::{IntegrationKind, NodeId, TechLibrary};
use actuary_units::{Area, Quantity};
use proptest::collection;
use proptest::prelude::*;

const NODES: [&str; 7] = ["3nm", "5nm", "7nm", "10nm", "12nm", "14nm", "28nm"];

/// The knobs of one random reuse family.
#[derive(Debug, Clone, Copy)]
struct FamilyDraw {
    /// 0 = SCMS, 1 = OCME, 2 = FSMC.
    scheme: usize,
    /// The monolithic-SoC baseline instead of the chiplet family.
    soc: bool,
    package_reuse: bool,
    /// Module area per chiplet / socket.
    mm2: f64,
    node: usize,
    /// OCME centre node; `NODES.len()` keeps it homogeneous.
    center: usize,
    integration: usize,
    /// SCMS: multiplicities `1..=size` (listed in descending order when
    /// `reverse`); FSMC: `size` sockets.
    size: u32,
    /// FSMC chiplet types.
    types: u32,
    reverse: bool,
    chip_first: bool,
}

impl FamilyDraw {
    fn portfolio(&self) -> Portfolio {
        let area = Area::from_mm2(self.mm2).unwrap();
        let node = NodeId::new(NODES[self.node]);
        let integration = IntegrationKind::MULTI_CHIP[self.integration];
        let built = match self.scheme {
            0 => {
                let mut multiplicities: Vec<u32> = (1..=self.size).collect();
                if self.reverse {
                    multiplicities.reverse();
                }
                let spec = ScmsSpec {
                    chiplet_module_area: area,
                    node,
                    multiplicities,
                    integration,
                    quantity_each: Quantity::new(1),
                    package_reuse: self.package_reuse,
                };
                if self.soc {
                    spec.soc_portfolio()
                } else {
                    spec.portfolio()
                }
            }
            1 => {
                let spec = OcmeSpec {
                    socket_module_area: area,
                    node,
                    center_node: NODES.get(self.center).map(|&n| NodeId::new(n)),
                    integration,
                    quantity_each: Quantity::new(1),
                    package_reuse: self.package_reuse,
                };
                if self.soc {
                    spec.soc_portfolio()
                } else {
                    spec.portfolio()
                }
            }
            _ => {
                let spec = FsmcSpec {
                    sockets: self.size.min(4),
                    chiplet_types: self.types,
                    socket_module_area: area,
                    node,
                    integration,
                    quantity_each: Quantity::new(1),
                };
                if self.soc {
                    spec.soc_portfolio()
                } else {
                    spec.portfolio()
                }
            }
        };
        built.unwrap()
    }

    /// The family's core, or `None` where its geometry cannot be built
    /// (a die beyond the wafer, an interposer beyond its limit).
    fn core(&self, lib: &TechLibrary) -> Option<PortfolioCore> {
        let flow = if self.chip_first {
            AssemblyFlow::ChipFirst
        } else {
            AssemblyFlow::ChipLast
        };
        self.portfolio().core(lib, flow).ok()
    }
}

/// Scheme and variant, geometry, family shape — see [`FamilyDraw`].
type Knobs = (
    (usize, bool, bool),
    (f64, usize, usize, usize),
    (u32, u32, bool, bool),
);

fn families() -> impl Strategy<Value = Knobs> {
    (
        (0usize..3, proptest::bool::ANY, proptest::bool::ANY),
        (2.0f64..120.0, 0usize..7, 0usize..8, 0usize..3),
        (1u32..15, 1u32..5, proptest::bool::ANY, proptest::bool::ANY),
    )
}

impl From<Knobs> for FamilyDraw {
    fn from(knobs: Knobs) -> Self {
        let (
            (scheme, soc, package_reuse),
            (mm2, node, center, integration),
            (size, types, reverse, chip_first),
        ) = knobs;
        FamilyDraw {
            scheme,
            soc,
            package_reuse,
            mm2,
            node,
            center,
            integration,
            size,
            types,
            reverse,
            chip_first,
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn member_at_matches_the_breakdown_bit_for_bit(
        knobs in families(),
        quantities in collection::vec(0u64..200_000_000, 1..6),
    ) {
        let lib = TechLibrary::paper_defaults().unwrap();
        let family = FamilyDraw::from(knobs);
        let core = family.core(&lib);
        prop_assume!(core.is_some());
        let core = core.unwrap();
        for &q in &quantities {
            let q = Quantity::new(q);
            let cost = core.amortize_with(&vec![q; core.len()]).unwrap();
            for (m, system) in cost.systems().iter().enumerate() {
                let (per_unit, re) = core.member_at(m, q);
                prop_assert!(
                    per_unit.usd().to_bits() == system.per_unit_total().usd().to_bits()
                        && re.usd().to_bits() == system.re().total().usd().to_bits(),
                    "{:?} member {} at q={}: closed form ({}, {}) vs breakdown ({}, {})",
                    family, system.name(), q.as_f64(), per_unit, re,
                    system.per_unit_total(), system.re().total()
                );
            }
        }
    }

    // Sound refinement's first premise: a member's per-unit cost never
    // increases with quantity. The closed form makes this provable, not
    // just observed. For q ≤ q', every step is a correctly rounded IEEE
    // operation, and rounding is monotone (x ≤ y ⇒ fl(x) ≤ fl(y)):
    // * each `uses_k · q` is non-decreasing in q (uses_k ≥ 0), and so is
    //   their sum `Σ`, term by term in a fixed order;
    // * `uses_m / Σ` is then non-increasing (uses_m ≥ 0, Σ > 0 for q ≥ 1),
    //   and so is `cost · (uses_m / Σ)` (cost ≥ 0);
    // * the NRE components and their total are sums of non-increasing,
    //   non-negative terms in a fixed order, and RE does not depend on q.
    // Quantity 0 is excluded: it prices no NRE at all, and exploration
    // rejects it.
    #[test]
    fn member_per_unit_never_increases_with_quantity(
        knobs in families(),
        quantities in collection::vec(1u64..200_000_000, 2..8),
    ) {
        let lib = TechLibrary::paper_defaults().unwrap();
        let family = FamilyDraw::from(knobs);
        let core = family.core(&lib);
        prop_assume!(core.is_some());
        let core = core.unwrap();
        // Random quantities plus each one's successor: adjacent integers
        // are where a rounding slip would show.
        let mut ladder: Vec<u64> = quantities.iter().flat_map(|&q| [q, q + 1]).collect();
        ladder.push(1);
        ladder.sort_unstable();
        for m in 0..core.len() {
            let mut previous = core.member_at(m, Quantity::new(ladder[0])).0;
            for &q in &ladder[1..] {
                let per_unit = core.member_at(m, Quantity::new(q)).0;
                prop_assert!(
                    per_unit <= previous,
                    "{:?} member {}: {} at q={} after {}",
                    family, core.system_names()[m], per_unit, q, previous
                );
                previous = per_unit;
            }
        }
    }
}

#[test]
fn random_families_cover_the_name_order_case() {
    // The properties above are only as strong as the families they draw:
    // pin that a ≥ 10-member family (names "10X" < "1X" < "2X", so name
    // order differs from portfolio order) builds and agrees.
    let lib = TechLibrary::paper_defaults().unwrap();
    for (scheme, size, types) in [(0, 12, 1), (2, 3, 3), (2, 4, 4)] {
        let family = FamilyDraw::from((
            (scheme, false, true),
            (40.0, 2, 7, 0),
            (size, types, true, false),
        ));
        let core = family.core(&lib).expect("a small-die family builds");
        assert!(core.len() >= 10, "{family:?} has {} members", core.len());
        let q = Quantity::new(750_000);
        let cost = core.amortize_with(&vec![q; core.len()]).unwrap();
        for (m, system) in cost.systems().iter().enumerate() {
            let (per_unit, _) = core.member_at(m, q);
            assert_eq!(
                per_unit.usd().to_bits(),
                system.per_unit_total().usd().to_bits()
            );
        }
    }
}
