use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use serde::{Deserialize, Serialize};

use actuary_model::{
    chip_level_nre, d2d_nre, module_design_cost, package_nre_for_silicon, AssemblyFlow,
    NreBreakdown, ReCostBreakdown,
};
use actuary_tech::TechLibrary;
use actuary_units::{Area, Money, Quantity};

use crate::error::ArchError;
use crate::system::System;

/// What kind of design artifact an NRE entity is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum NreEntityKind {
    /// A module design (`K_m·S_m`), shared by every chip embedding it.
    Module,
    /// A chip design (`K_c·S_c + C`), shared by every system placing it.
    Chip,
    /// A package design (`K_p·S_p + C_p`), shared under package reuse.
    Package,
    /// A D2D interface design (`C_D2D`), shared per process node.
    D2d,
}

impl fmt::Display for NreEntityKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NreEntityKind::Module => f.write_str("module"),
            NreEntityKind::Chip => f.write_str("chip"),
            NreEntityKind::Package => f.write_str("package"),
            NreEntityKind::D2d => f.write_str("d2d"),
        }
    }
}

/// One shared NRE artifact: its total cost and the per-unit share allocated
/// to each system (proportional to usage × quantity, the paper's
/// "amortized to each system depending on the number of modules and chips
/// included", §4.2).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NreEntity {
    kind: NreEntityKind,
    name: String,
    cost: Money,
    allocations: BTreeMap<String, Money>,
}

impl NreEntity {
    /// The artifact kind.
    pub fn kind(&self) -> NreEntityKind {
        self.kind
    }

    /// The artifact's identity (module `name@node`, chip name, package
    /// design name, or `d2d@node`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Total NRE cost of the artifact (paid once for the portfolio).
    pub fn cost(&self) -> Money {
        self.cost
    }

    /// Per-unit cost allocated to the named system (zero if the system does
    /// not use the artifact).
    pub fn allocation_for(&self, system: &str) -> Money {
        self.allocations.get(system).copied().unwrap_or(Money::ZERO)
    }

    /// All per-unit allocations, keyed by system name.
    pub fn allocations(&self) -> &BTreeMap<String, Money> {
        &self.allocations
    }
}

/// Per-system cost result: RE breakdown plus the per-unit amortized NRE
/// shares.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SystemCost {
    name: String,
    quantity: Quantity,
    re: ReCostBreakdown,
    nre_per_unit: NreBreakdown,
}

impl SystemCost {
    /// The system's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The production quantity.
    pub fn quantity(&self) -> Quantity {
        self.quantity
    }

    /// Per-unit RE breakdown.
    pub fn re(&self) -> &ReCostBreakdown {
        &self.re
    }

    /// Per-unit amortized NRE breakdown.
    pub fn nre_per_unit(&self) -> &NreBreakdown {
        &self.nre_per_unit
    }

    /// Per-unit total cost (RE + amortized NRE).
    pub fn per_unit_total(&self) -> Money {
        self.re.total() + self.nre_per_unit.total()
    }

    /// Fraction of the per-unit cost that is RE.
    pub fn re_share(&self) -> f64 {
        let total = self.per_unit_total();
        if total.is_zero() {
            0.0
        } else {
            self.re.total() / total
        }
    }
}

impl fmt::Display for SystemCost {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} / unit (RE {}, NRE {})",
            self.name,
            self.per_unit_total(),
            self.re.total(),
            self.nre_per_unit.total()
        )
    }
}

/// The full cost result of a [`Portfolio`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PortfolioCost {
    systems: Vec<SystemCost>,
    entities: Vec<NreEntity>,
    nre_total: NreBreakdown,
}

impl PortfolioCost {
    /// Per-system results, in the portfolio's system order.
    pub fn systems(&self) -> &[SystemCost] {
        &self.systems
    }

    /// Looks up a system result by name.
    pub fn system(&self, name: &str) -> Option<&SystemCost> {
        self.systems.iter().find(|s| s.name() == name)
    }

    /// Every NRE artifact with its allocations.
    pub fn entities(&self) -> &[NreEntity] {
        &self.entities
    }

    /// Portfolio-wide NRE totals by component.
    pub fn nre_total(&self) -> &NreBreakdown {
        &self.nre_total
    }

    /// Whole-program cost: `Σ quantity × RE + total NRE`.
    pub fn program_total(&self) -> Money {
        let re: Money = self
            .systems
            .iter()
            .map(|s| s.re().total() * s.quantity().as_f64())
            .sum();
        re + self.nre_total.total()
    }

    /// Unweighted mean of the per-unit totals across systems — the metric of
    /// the paper's Figure 10 ("compared by average normalized cost").
    pub fn average_per_unit(&self) -> Money {
        if self.systems.is_empty() {
            return Money::ZERO;
        }
        let sum: Money = self.systems.iter().map(|s| s.per_unit_total()).sum();
        sum / self.systems.len() as f64
    }
}

impl fmt::Display for PortfolioCost {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "portfolio of {} systems:", self.systems.len())?;
        for s in &self.systems {
            writeln!(f, "  {s}")?;
        }
        write!(f, "  total NRE: {}", self.nre_total.total())
    }
}

/// One shared NRE artifact before amortization: total cost plus the usage
/// each member system contributes (`uses × quantity` is the allocation
/// weight of Eq. (7)/(8)).
#[derive(Debug, Clone, PartialEq)]
struct EntityDraft {
    kind: NreEntityKind,
    name: String,
    cost: Money,
    /// `(member index, uses)` of every user, sorted by member *name*: that
    /// is the summation order of `Σ uses·q`, which the byte-identity of
    /// every amortized figure depends on ("10X" sums before "2X").
    users: Vec<(usize, f64)>,
}

impl EntityDraft {
    /// `Σ_k uses_k · q_k` over the users, in name order.
    fn total_weight(&self, quantity_of: impl Fn(usize) -> f64) -> f64 {
        self.users
            .iter()
            .map(|&(k, uses)| uses * quantity_of(k))
            .sum()
    }

    /// Per-unit share of a user with `uses` of the artifact: its total
    /// share `cost × uses·q / Σ` divided by its own `q`, i.e.
    /// `cost × uses / Σ` (zero when no user is produced).
    fn per_unit_share(&self, uses: f64, total_weight: f64) -> Money {
        if total_weight > 0.0 {
            self.cost * (uses / total_weight)
        } else {
            Money::ZERO
        }
    }
}

/// Adds `amount` to the component of `nre` that artifacts of `kind` book
/// into.
fn book(nre: &mut NreBreakdown, kind: NreEntityKind, amount: Money) {
    match kind {
        NreEntityKind::Module => nre.modules += amount,
        NreEntityKind::Chip => nre.chips += amount,
        NreEntityKind::Package => nre.packages += amount,
        NreEntityKind::D2d => nre.d2d += amount,
    }
}

/// The quantity-independent part of a [`Portfolio::cost`] evaluation:
/// per-system RE breakdowns plus every shared NRE artifact's total cost and
/// usage weights.
///
/// Computing the core is the expensive step (yield models, wafer gridding,
/// package sizing); spreading it over production quantities is a few flops
/// per artifact. The core is stored index-based: each artifact lists its
/// `(member, uses)` pairs and each member lists the `(artifact, uses)`
/// pairs it draws on, so no name is looked up or allocated to amortize.
///
/// Two read-outs share one arithmetic:
///
/// * [`PortfolioCore::member_at`] is the closed form of one member at a
///   uniform quantity `q`: `RE + Σ_e cost_e · uses_m / Σ_k(uses_k · q)`.
///   Exploration engines cache cores keyed on geometry and call it per
///   grid cell, which is where the quantity and member axes of a grid stop
///   costing anything.
/// * [`PortfolioCore::amortize`] / [`PortfolioCore::amortize_with`] build
///   the named [`PortfolioCost`] breakdown; [`Portfolio::cost`] is `core`
///   followed by `amortize`.
///
/// `member_at(m, q)` equals `amortize_with(&[q; n]).systems()[m]` bit for
/// bit (the crate's `amortize_closed_form` property tests pin it).
#[derive(Debug, Clone, PartialEq)]
pub struct PortfolioCore {
    names: Vec<String>,
    quantities: Vec<Quantity>,
    re: Vec<ReCostBreakdown>,
    entities: Vec<EntityDraft>,
    /// Per member: `(entity index, own uses)` of every artifact it uses,
    /// in entity order.
    member_uses: Vec<Vec<(usize, f64)>>,
}

impl PortfolioCore {
    /// The member system names, in portfolio order.
    pub fn system_names(&self) -> &[String] {
        &self.names
    }

    /// Number of member systems.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether the core has no systems (never true: empty portfolios fail
    /// [`Portfolio::core`]).
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Amortizes the NRE over the quantities the systems were built with —
    /// together with [`Portfolio::core`] this *is* [`Portfolio::cost`].
    pub fn amortize(&self) -> PortfolioCost {
        self.amortize_impl(&self.quantities)
    }

    /// Amortizes the NRE over caller-supplied per-system quantities (in
    /// portfolio order).
    ///
    /// # Errors
    ///
    /// Returns [`ArchError::InvalidArchitecture`] if `quantities` does not
    /// have one entry per system.
    pub fn amortize_with(&self, quantities: &[Quantity]) -> Result<PortfolioCost, ArchError> {
        if quantities.len() != self.names.len() {
            return Err(ArchError::InvalidArchitecture {
                reason: format!(
                    "portfolio has {} systems but {} quantities were supplied",
                    self.names.len(),
                    quantities.len()
                ),
            });
        }
        Ok(self.amortize_impl(quantities))
    }

    /// The closed-form cost of member `member` (portfolio order) with every
    /// system produced `quantity` times: `(per-unit total, per-unit RE)`.
    ///
    /// Bit-identical to the member's `per_unit_total()` and `re().total()`
    /// in `amortize_with(&[quantity; n])`, without building the breakdown.
    ///
    /// # Panics
    ///
    /// Panics if `member >= self.len()`.
    pub fn member_at(&self, member: usize, quantity: Quantity) -> (Money, Money) {
        let q = quantity.as_f64();
        let nre = self.member_nre(member, |e| self.entities[e].total_weight(|_| q));
        let re = self.re[member].total();
        (re + nre.total(), re)
    }

    /// Member `member`'s per-unit NRE, given each entity's total weight.
    /// Entities the member does not use are skipped: they would add `+0.0`
    /// to a non-negative sum, which leaves it bit-identical.
    fn member_nre(&self, member: usize, total_weight: impl Fn(usize) -> f64) -> NreBreakdown {
        let mut nre = NreBreakdown::default();
        for &(e, uses) in &self.member_uses[member] {
            let entity = &self.entities[e];
            book(
                &mut nre,
                entity.kind,
                entity.per_unit_share(uses, total_weight(e)),
            );
        }
        nre
    }

    fn amortize_impl(&self, quantities: &[Quantity]) -> PortfolioCost {
        let weights: Vec<f64> = self
            .entities
            .iter()
            .map(|d| d.total_weight(|k| quantities[k].as_f64()))
            .collect();
        let entities = self
            .entities
            .iter()
            .zip(&weights)
            .map(|(draft, &total_weight)| NreEntity {
                kind: draft.kind,
                name: draft.name.clone(),
                cost: draft.cost,
                allocations: draft
                    .users
                    .iter()
                    .map(|&(k, uses)| {
                        (
                            self.names[k].clone(),
                            draft.per_unit_share(uses, total_weight),
                        )
                    })
                    .collect(),
            })
            .collect();
        let systems = (0..self.names.len())
            .map(|m| SystemCost {
                name: self.names[m].clone(),
                quantity: quantities[m],
                re: self.re[m],
                nre_per_unit: self.member_nre(m, |e| weights[e]),
            })
            .collect();
        let mut nre_total = NreBreakdown::default();
        for draft in &self.entities {
            book(&mut nre_total, draft.kind, draft.cost);
        }
        PortfolioCost {
            systems,
            entities,
            nre_total,
        }
    }
}

/// A group of systems sharing module, chip, package and D2D designs — the
/// `J` of the paper's Eq. (7)/(8).
///
/// # Examples
///
/// See the crate-level example; the reuse schemes in [`crate::reuse`] all
/// produce portfolios.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Portfolio {
    systems: Vec<System>,
}

impl Portfolio {
    /// Creates a portfolio from systems.
    pub fn new(systems: Vec<System>) -> Self {
        Portfolio { systems }
    }

    /// The member systems.
    pub fn systems(&self) -> &[System] {
        &self.systems
    }

    /// Adds a system.
    pub fn push(&mut self, system: System) {
        self.systems.push(system);
    }

    /// Number of member systems.
    pub fn len(&self) -> usize {
        self.systems.len()
    }

    /// Whether the portfolio has no systems.
    pub fn is_empty(&self) -> bool {
        self.systems.is_empty()
    }

    /// Computes RE for every system and NRE with full sharing (Eq. (7)/(8)).
    ///
    /// Shared package designs are sized for their largest member system;
    /// smaller members pay the oversized package's RE (§5.1).
    ///
    /// Implemented as [`Portfolio::core`] followed by
    /// [`PortfolioCore::amortize`]; cached exploration engines price one
    /// core per quantity with [`PortfolioCore::member_at`], which shares
    /// that arithmetic and so produces byte-identical results.
    ///
    /// # Errors
    ///
    /// Returns [`ArchError::InvalidArchitecture`] for duplicate system
    /// names, conflicting design definitions (same module/chip name with
    /// different geometry) or mixed-integration package-design groups;
    /// propagates technology and cost-engine errors.
    pub fn cost(&self, lib: &TechLibrary, flow: AssemblyFlow) -> Result<PortfolioCost, ArchError> {
        Ok(self.core(lib, flow)?.amortize())
    }

    /// Computes the quantity-independent [`PortfolioCore`]: validation,
    /// shared-package sizing, per-system RE and the NRE entity drafts —
    /// everything of [`Portfolio::cost`] except the amortization over
    /// production quantities.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Portfolio::cost`].
    pub fn core(&self, lib: &TechLibrary, flow: AssemblyFlow) -> Result<PortfolioCore, ArchError> {
        if self.systems.is_empty() {
            return Err(ArchError::InvalidArchitecture {
                reason: "portfolio has no systems".to_string(),
            });
        }
        // --- Uniqueness of system names. ---------------------------------
        {
            let mut seen = BTreeSet::new();
            for s in &self.systems {
                if !seen.insert(s.name()) {
                    return Err(ArchError::InvalidArchitecture {
                        reason: format!("duplicate system name {:?}", s.name()),
                    });
                }
            }
        }

        // --- Shared package designs: group, validate, size. ---------------
        let mut design_silicon: BTreeMap<&str, Area> = BTreeMap::new();
        let mut design_kind: BTreeMap<&str, actuary_tech::IntegrationKind> = BTreeMap::new();
        for s in &self.systems {
            if let Some(design) = s.package_design() {
                let silicon = s.total_silicon(lib)?;
                let entry = design_silicon.entry(design).or_insert(Area::ZERO);
                *entry = entry.max(silicon);
                match design_kind.get(design) {
                    None => {
                        design_kind.insert(design, s.integration());
                    }
                    Some(kind) if *kind != s.integration() => {
                        return Err(ArchError::InvalidArchitecture {
                            reason: format!(
                                "package design {design:?} is shared across different \
                                 integration kinds ({kind} and {})",
                                s.integration()
                            ),
                        });
                    }
                    Some(_) => {}
                }
            }
        }

        // --- Per-system RE. -------------------------------------------------
        let mut re_by_system: Vec<ReCostBreakdown> = Vec::with_capacity(self.systems.len());
        for s in &self.systems {
            let over = s
                .package_design()
                .map(|d| design_silicon[d])
                .filter(|a| !a.is_zero());
            re_by_system.push(s.re_cost(lib, flow, over)?);
        }

        // --- NRE entities with usage-weighted allocation. -------------------
        // users[(member, uses)]; weight = uses × quantity. One name → draft
        // map per artifact kind, queried by `&str`: derived names are
        // formatted into the one reused `key` buffer, so a repeat use of an
        // artifact allocates nothing.
        let mut drafts: Vec<EntityDraft> = Vec::new();
        let mut index: [BTreeMap<String, usize>; 4] = Default::default();
        let mut key = String::new();

        let add_use = |drafts: &mut Vec<EntityDraft>,
                       index: &mut [BTreeMap<String, usize>; 4],
                       kind: NreEntityKind,
                       name: &str,
                       cost: Money,
                       member: usize,
                       uses: f64|
         -> Result<(), ArchError> {
            let by_name = &mut index[kind as usize];
            let idx = match by_name.get(name) {
                Some(&i) => {
                    // Same design must have consistent cost (geometry).
                    if (drafts[i].cost.usd() - cost.usd()).abs() > 1e-6 {
                        return Err(ArchError::InvalidArchitecture {
                            reason: format!(
                                "{kind} design {name:?} is defined with conflicting \
                                 geometry across systems"
                            ),
                        });
                    }
                    i
                }
                None => {
                    drafts.push(EntityDraft {
                        kind,
                        name: name.to_string(),
                        cost,
                        users: Vec::new(),
                    });
                    by_name.insert(name.to_string(), drafts.len() - 1);
                    drafts.len() - 1
                }
            };
            // Systems are walked in order, so a repeat use by this member
            // is always the last entry.
            let users = &mut drafts[idx].users;
            match users.last_mut() {
                Some((last, total)) if *last == member => *total += uses,
                _ => users.push((member, uses)),
            }
            Ok(())
        };

        for (member, s) in self.systems.iter().enumerate() {
            // Module and chip designs.
            for (chip, count) in s.chips() {
                let node = lib.node(chip.node().as_str())?;
                let die_area = chip.die_area(lib)?;
                add_use(
                    &mut drafts,
                    &mut index,
                    NreEntityKind::Chip,
                    chip.name(),
                    chip_level_nre(node, die_area),
                    member,
                    *count as f64,
                )?;
                for m in chip.modules() {
                    key.clear();
                    key.push_str(m.name());
                    key.push('@');
                    key.push_str(m.node().as_str());
                    add_use(
                        &mut drafts,
                        &mut index,
                        NreEntityKind::Module,
                        &key,
                        module_design_cost(node, m.area()),
                        member,
                        *count as f64,
                    )?;
                }
                // D2D interface design, once per node.
                if chip.is_chiplet() {
                    key.clear();
                    key.push_str("d2d@");
                    key.push_str(chip.node().as_str());
                    add_use(
                        &mut drafts,
                        &mut index,
                        NreEntityKind::D2d,
                        &key,
                        d2d_nre(node),
                        member,
                        *count as f64,
                    )?;
                }
            }
            // Package design.
            let packaging = lib.packaging(s.integration())?;
            let (pkg_name, silicon_basis) = match s.package_design() {
                Some(design) => (design, design_silicon[design]),
                None => {
                    key.clear();
                    key.push_str("pkg:");
                    key.push_str(s.name());
                    (key.as_str(), s.total_silicon(lib)?)
                }
            };
            add_use(
                &mut drafts,
                &mut index,
                NreEntityKind::Package,
                pkg_name,
                package_nre_for_silicon(packaging, silicon_basis)?,
                member,
                1.0,
            )?;
        }

        // Users sum in member *name* order; names are unique, so ranking
        // them once and sorting by rank is that order without comparing
        // strings per artifact.
        let names: Vec<String> = self.systems.iter().map(|s| s.name().to_string()).collect();
        let mut by_name: Vec<usize> = (0..names.len()).collect();
        by_name.sort_unstable_by(|&a, &b| names[a].cmp(&names[b]));
        let mut rank = vec![0usize; names.len()];
        for (r, &member) in by_name.iter().enumerate() {
            rank[member] = r;
        }
        let mut member_uses: Vec<Vec<(usize, f64)>> = vec![Vec::new(); names.len()];
        for (e, draft) in drafts.iter_mut().enumerate() {
            draft
                .users
                .sort_unstable_by_key(|&(member, _)| rank[member]);
            for &(member, uses) in &draft.users {
                member_uses[member].push((e, uses));
            }
        }

        Ok(PortfolioCore {
            names,
            quantities: self.systems.iter().map(System::quantity).collect(),
            re: re_by_system,
            entities: drafts,
            member_uses,
        })
    }
}

impl FromIterator<System> for Portfolio {
    fn from_iter<T: IntoIterator<Item = System>>(iter: T) -> Self {
        Portfolio::new(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chip::Chip;
    use crate::module::Module;
    use actuary_tech::IntegrationKind;

    fn area(mm2: f64) -> Area {
        Area::from_mm2(mm2).unwrap()
    }

    fn lib() -> TechLibrary {
        TechLibrary::paper_defaults().unwrap()
    }

    fn chiplet(name: &str, module: &str, mm2: f64) -> Chip {
        Chip::chiplet(name, "7nm", vec![Module::new(module, "7nm", area(mm2))])
    }

    fn simple_system(name: &str, chip: Chip, n: u32, qty: u64) -> System {
        System::builder(name, IntegrationKind::Mcm)
            .chip(chip, n)
            .quantity(Quantity::new(qty))
            .build()
            .unwrap()
    }

    #[test]
    fn empty_portfolio_errors() {
        let p = Portfolio::new(vec![]);
        assert!(p.cost(&lib(), AssemblyFlow::ChipLast).is_err());
        assert!(p.is_empty());
    }

    #[test]
    fn duplicate_names_rejected() {
        let c = chiplet("c", "m", 100.0);
        let p = Portfolio::new(vec![
            simple_system("s", c.clone(), 1, 1000),
            simple_system("s", c, 2, 1000),
        ]);
        let err = p.cost(&lib(), AssemblyFlow::ChipLast).unwrap_err();
        assert!(err.to_string().contains("duplicate"), "{err}");
    }

    #[test]
    fn shared_chiplet_nre_is_paid_once() {
        let lib = lib();
        let c = chiplet("shared", "m", 180.0);
        // Two systems using the same chiplet vs two distinct chiplets.
        let shared = Portfolio::new(vec![
            simple_system("a", c.clone(), 1, 500_000),
            simple_system("b", c.clone(), 2, 500_000),
        ]);
        let distinct = Portfolio::new(vec![
            simple_system("a", chiplet("c1", "m1", 180.0), 1, 500_000),
            simple_system("b", chiplet("c2", "m2", 180.0), 2, 500_000),
        ]);
        let shared_cost = shared.cost(&lib, AssemblyFlow::ChipLast).unwrap();
        let distinct_cost = distinct.cost(&lib, AssemblyFlow::ChipLast).unwrap();
        assert!(
            shared_cost.nre_total().chips < distinct_cost.nre_total().chips,
            "chip reuse must halve chip NRE"
        );
        assert!(
            shared_cost.nre_total().modules < distinct_cost.nre_total().modules,
            "module reuse must halve module NRE"
        );
        // Chip entity count: 1 shared vs 2 distinct.
        let shared_chips = shared_cost
            .entities()
            .iter()
            .filter(|e| e.kind() == NreEntityKind::Chip)
            .count();
        let distinct_chips = distinct_cost
            .entities()
            .iter()
            .filter(|e| e.kind() == NreEntityKind::Chip)
            .count();
        assert_eq!(shared_chips, 1);
        assert_eq!(distinct_chips, 2);
    }

    #[test]
    fn allocation_proportional_to_usage_and_quantity() {
        let lib = lib();
        let c = chiplet("shared", "m", 100.0);
        // System a uses 1 chip at 1M units; system b uses 3 chips at 1M.
        let p = Portfolio::new(vec![
            simple_system("a", c.clone(), 1, 1_000_000),
            simple_system("b", c, 3, 1_000_000),
        ]);
        let cost = p.cost(&lib, AssemblyFlow::ChipLast).unwrap();
        let chip_entity = cost
            .entities()
            .iter()
            .find(|e| e.kind() == NreEntityKind::Chip)
            .unwrap();
        let a = chip_entity.allocation_for("a").usd();
        let b = chip_entity.allocation_for("b").usd();
        assert!((b / a - 3.0).abs() < 1e-9, "b uses 3x the chips per unit");
        // Total allocated × quantity = entity cost.
        let recovered = a * 1.0e6 + b * 1.0e6;
        assert!((recovered - chip_entity.cost().usd()).abs() < 1.0);
    }

    #[test]
    fn conflicting_chip_geometry_rejected() {
        let lib = lib();
        let p = Portfolio::new(vec![
            simple_system("a", chiplet("c", "m", 100.0), 1, 1000),
            simple_system("b", chiplet("c", "m", 200.0), 1, 1000),
        ]);
        let err = p.cost(&lib, AssemblyFlow::ChipLast).unwrap_err();
        assert!(err.to_string().contains("conflicting"), "{err}");
    }

    #[test]
    fn package_reuse_shares_nre_but_costs_small_system_re() {
        let lib = lib();
        let c = chiplet("c", "m", 180.0);
        let build = |reuse: bool| {
            let mut small = System::builder("1x", IntegrationKind::Mcm)
                .chip(c.clone(), 1)
                .quantity(Quantity::new(500_000));
            let mut large = System::builder("4x", IntegrationKind::Mcm)
                .chip(c.clone(), 4)
                .quantity(Quantity::new(500_000));
            if reuse {
                small = small.package_design("shared-pkg");
                large = large.package_design("shared-pkg");
            }
            Portfolio::new(vec![small.build().unwrap(), large.build().unwrap()])
        };
        let no_reuse = build(false).cost(&lib, AssemblyFlow::ChipLast).unwrap();
        let reuse = build(true).cost(&lib, AssemblyFlow::ChipLast).unwrap();

        // Package NRE: one design instead of two.
        assert!(reuse.nre_total().packages < no_reuse.nre_total().packages);
        // The small system pays more RE on the oversized package.
        let small_re_no = no_reuse.system("1x").unwrap().re().raw_package;
        let small_re_yes = reuse.system("1x").unwrap().re().raw_package;
        assert!(small_re_yes > small_re_no);
        // The large system's RE is unchanged.
        let large_re_no = no_reuse.system("4x").unwrap().re().total();
        let large_re_yes = reuse.system("4x").unwrap().re().total();
        assert!((large_re_no.usd() - large_re_yes.usd()).abs() < 1e-9);
    }

    #[test]
    fn mixed_integration_package_design_rejected() {
        let lib = lib();
        let c = chiplet("c", "m", 100.0);
        let a = System::builder("a", IntegrationKind::Mcm)
            .chip(c.clone(), 1)
            .quantity(Quantity::new(1000))
            .package_design("pkg")
            .build()
            .unwrap();
        let b = System::builder("b", IntegrationKind::TwoPointFiveD)
            .chip(c, 2)
            .quantity(Quantity::new(1000))
            .package_design("pkg")
            .build()
            .unwrap();
        let err = Portfolio::new(vec![a, b])
            .cost(&lib, AssemblyFlow::ChipLast)
            .unwrap_err();
        assert!(err.to_string().contains("integration"), "{err}");
    }

    #[test]
    fn d2d_nre_paid_once_per_node() {
        let lib = lib();
        let c7 = chiplet("c7", "m7", 100.0);
        let c7b = chiplet("c7b", "m7b", 120.0);
        let p = Portfolio::new(vec![
            simple_system("a", c7, 2, 1000),
            simple_system("b", c7b, 2, 1000),
        ]);
        let cost = p.cost(&lib, AssemblyFlow::ChipLast).unwrap();
        let d2d_entities: Vec<_> = cost
            .entities()
            .iter()
            .filter(|e| e.kind() == NreEntityKind::D2d)
            .collect();
        assert_eq!(d2d_entities.len(), 1, "one D2D design for 7nm");
        assert_eq!(cost.nre_total().d2d, d2d_nre(lib.node("7nm").unwrap()));
    }

    #[test]
    fn soc_systems_have_no_d2d_nre() {
        let lib = lib();
        let soc = Chip::monolithic("soc", "7nm", vec![Module::new("m", "7nm", area(400.0))]);
        let s = System::builder("solo", IntegrationKind::Soc)
            .chip(soc, 1)
            .quantity(Quantity::new(1_000_000))
            .build()
            .unwrap();
        let cost = Portfolio::new(vec![s])
            .cost(&lib, AssemblyFlow::ChipLast)
            .unwrap();
        assert_eq!(cost.nre_total().d2d, Money::ZERO);
        assert!(cost.nre_total().chips.usd() > 0.0);
        assert!(cost.nre_total().packages.usd() > 0.0);
    }

    #[test]
    fn per_unit_totals_and_program_total_consistent() {
        let lib = lib();
        let c = chiplet("c", "m", 150.0);
        let p = Portfolio::new(vec![
            simple_system("a", c.clone(), 1, 500_000),
            simple_system("b", c, 4, 2_000_000),
        ]);
        let cost = p.cost(&lib, AssemblyFlow::ChipLast).unwrap();
        // Reconstruct program total from per-system numbers.
        let per_system: f64 = cost
            .systems()
            .iter()
            .map(|s| s.per_unit_total().usd() * s.quantity().as_f64())
            .sum();
        assert!(
            (per_system - cost.program_total().usd()).abs() / cost.program_total().usd() < 1e-9,
            "allocations must exactly cover the NRE total"
        );
        assert!(cost.average_per_unit().usd() > 0.0);
    }

    #[test]
    fn core_amortize_reproduces_cost_exactly() {
        let lib = lib();
        let c = chiplet("shared", "m", 180.0);
        let p = Portfolio::new(vec![
            simple_system("a", c.clone(), 1, 500_000),
            simple_system("b", c, 4, 2_000_000),
        ]);
        let direct = p.cost(&lib, AssemblyFlow::ChipLast).unwrap();
        let core = p.core(&lib, AssemblyFlow::ChipLast).unwrap();
        assert_eq!(core.system_names(), ["a", "b"]);
        assert_eq!(core.len(), 2);
        assert!(!core.is_empty());
        assert_eq!(core.amortize(), direct);
        // amortize_with the same quantities is the same computation.
        let explicit = core
            .amortize_with(&[Quantity::new(500_000), Quantity::new(2_000_000)])
            .unwrap();
        assert_eq!(explicit, direct);
    }

    #[test]
    fn uniform_amortization_matches_a_rebuilt_portfolio() {
        // The cached-grid contract: one core re-amortized per quantity must
        // be byte-identical to rebuilding and costing the portfolio at that
        // quantity, and so must its closed-form member read-out.
        let lib = lib();
        let build = |qty: u64| {
            Portfolio::new(vec![
                simple_system("a", chiplet("c", "m", 150.0), 1, qty),
                simple_system("b", chiplet("c", "m", 150.0), 3, qty),
            ])
        };
        let core = build(1).core(&lib, AssemblyFlow::ChipLast).unwrap();
        for qty in [1_000u64, 500_000, 10_000_000] {
            let q = Quantity::new(qty);
            let cached = core.amortize_with(&[q, q]).unwrap();
            let rebuilt = build(qty).cost(&lib, AssemblyFlow::ChipLast).unwrap();
            assert_eq!(cached, rebuilt, "quantity {qty}");
            for (m, sc) in rebuilt.systems().iter().enumerate() {
                let (per_unit, re) = core.member_at(m, q);
                assert_eq!(
                    per_unit.usd().to_bits(),
                    sc.per_unit_total().usd().to_bits()
                );
                assert_eq!(re.usd().to_bits(), sc.re().total().usd().to_bits());
            }
        }
    }

    #[test]
    fn amortize_with_rejects_wrong_arity() {
        let lib = lib();
        let p = Portfolio::new(vec![simple_system("a", chiplet("c", "m", 100.0), 1, 1000)]);
        let core = p.core(&lib, AssemblyFlow::ChipLast).unwrap();
        let err = core
            .amortize_with(&[Quantity::new(1), Quantity::new(2)])
            .unwrap_err();
        assert!(err.to_string().contains("quantities"), "{err}");
    }

    #[test]
    fn from_iterator() {
        let c = chiplet("c", "m", 100.0);
        let p: Portfolio = vec![simple_system("a", c, 1, 1000)].into_iter().collect();
        assert_eq!(p.len(), 1);
    }
}
