//! Lowering: turns a checked [`Spec`] into a [`Workload`] the existing
//! harness drives exactly like the built-in Rust plugins.
//!
//! `generate plugin "x"` specs delegate data generation (and, where a CC
//! block says `plugin`, family generation) to the registered workload `x`,
//! so their datasets are bit-identical to the plugin's. Explicit CC blocks
//! lower through [`cextend_workloads::ccgen`] with the same pool-mining
//! recipe the plugins use (`combos` then `values` over the step target),
//! which keeps DSL-re-expressed families bit-identical too. DC blocks
//! lower straight to [`DenialConstraint`]s.
//!
//! [`WorkloadMeta`] wants `'static` data; leaked strings/slices are cached
//! in process-wide interners so repeated loads of the same spec do not
//! grow the heap.

use crate::ast::{CcBlockKind, ColRole, DcAtomDecl, DcLit, Generate, PoolKind, Spec};
use crate::check::row_cond;
use cextend_constraints::{
    mine_pool, CardinalityConstraint, DcAtom, DenialConstraint, NormalizedCond, PoolClause,
};
use cextend_table::Value;
use cextend_workloads::ccgen::{bad_family, good_family};
use cextend_workloads::{
    workload_by_name, CcFamily, DcSet, Workload, WorkloadData, WorkloadMeta, WorkloadParams,
};
use parking_lot::Mutex;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::OnceLock;

/// Interns a string, leaking it at most once process-wide.
fn intern_str(s: &str) -> &'static str {
    static CACHE: OnceLock<Mutex<BTreeSet<&'static str>>> = OnceLock::new();
    let mut cache = CACHE.get_or_init(Default::default).lock();
    if let Some(hit) = cache.get(s) {
        return hit;
    }
    let leaked: &'static str = Box::leak(s.to_owned().into_boxed_str());
    cache.insert(leaked);
    leaked
}

/// Interns a name list, leaking each distinct list at most once.
fn intern_names(names: &[String]) -> &'static [&'static str] {
    static CACHE: OnceLock<Mutex<BTreeMap<Vec<String>, &'static [&'static str]>>> = OnceLock::new();
    let mut cache = CACHE.get_or_init(Default::default).lock();
    if let Some(hit) = cache.get(names) {
        return hit;
    }
    let leaked: &'static [&'static str] = Box::leak(
        names
            .iter()
            .map(|s| intern_str(s))
            .collect::<Vec<_>>()
            .into_boxed_slice(),
    );
    cache.insert(names.to_vec(), leaked);
    leaked
}

/// Interned knob list: the `'static` shape [`WorkloadMeta::knobs`] wants.
type StaticKnobs = &'static [(&'static str, i64)];
/// Intern cache keyed by the owned knob list.
type KnobCache = BTreeMap<Vec<(String, i64)>, StaticKnobs>;

/// Interns a `(name, default)` knob list.
fn intern_knobs(knobs: &[(String, i64)]) -> StaticKnobs {
    static CACHE: OnceLock<Mutex<KnobCache>> = OnceLock::new();
    let mut cache = CACHE.get_or_init(Default::default).lock();
    if let Some(hit) = cache.get(knobs) {
        return hit;
    }
    let leaked: &'static [(&'static str, i64)] = Box::leak(
        knobs
            .iter()
            .map(|(n, d)| (intern_str(n), *d))
            .collect::<Vec<_>>()
            .into_boxed_slice(),
    );
    cache.insert(knobs.to_vec(), leaked);
    leaked
}

/// Interns a `usize` slice.
fn intern_usizes(v: &[usize]) -> &'static [usize] {
    static CACHE: OnceLock<Mutex<BTreeMap<Vec<usize>, &'static [usize]>>> = OnceLock::new();
    let mut cache = CACHE.get_or_init(Default::default).lock();
    if let Some(hit) = cache.get(v) {
        return hit;
    }
    let leaked: &'static [usize] = Box::leak(v.to_vec().into_boxed_slice());
    cache.insert(v.to_vec(), leaked);
    leaked
}

/// Interns a `u32` slice.
fn intern_u32s(v: &[u32]) -> &'static [u32] {
    static CACHE: OnceLock<Mutex<BTreeMap<Vec<u32>, &'static [u32]>>> = OnceLock::new();
    let mut cache = CACHE.get_or_init(Default::default).lock();
    if let Some(hit) = cache.get(v) {
        return hit;
    }
    let leaked: &'static [u32] = Box::leak(v.to_vec().into_boxed_slice());
    cache.insert(v.to_vec(), leaked);
    leaked
}

/// A checked spec lowered to the [`Workload`] interface.
pub struct SpecWorkload {
    spec: Spec,
    plugin: Option<Box<dyn Workload>>,
    meta: WorkloadMeta,
}

impl SpecWorkload {
    /// Lowers a checked spec. Panics on invariants the checker enforces,
    /// so run [`crate::check::check`] first.
    pub(crate) fn lower(spec: Spec) -> SpecWorkload {
        let plugin = match &spec.generate {
            Some(Generate::Plugin { name, .. }) => {
                Some(workload_by_name(name).expect("checked: plugin exists"))
            }
            _ => None,
        };
        let meta = build_meta(&spec, plugin.as_deref());
        SpecWorkload { spec, plugin, meta }
    }

    /// The underlying spec.
    pub fn spec(&self) -> &Spec {
        &self.spec
    }
}

/// Builds the `'static` metadata. Plugin-backed specs reuse the plugin's
/// meta verbatim (the checker verified coherence) so the harness resolves
/// knobs and scale labels identically; only the name differs.
fn build_meta(spec: &Spec, plugin: Option<&dyn Workload>) -> WorkloadMeta {
    let name = intern_str(&format!("spec:{}", spec.name));
    if let Some(p) = plugin {
        return WorkloadMeta { name, ..p.meta() };
    }
    let relation_names: Vec<String> = spec.relations.iter().map(|r| r.name.clone()).collect();
    let knobs: Vec<(String, i64)> = spec
        .knobs
        .iter()
        .map(|k| (k.name.clone(), k.default))
        .collect();
    // Defaults when undeclared: the target's attribute count for r2cols, a
    // single scale label, and the declared reference-row ratio.
    let target_attrs = crate::check::relation(spec, &spec.steps[0].target)
        .map(|r| r.columns.iter().filter(|c| c.role == ColRole::Attr).count())
        .unwrap_or(1)
        .max(1);
    let (r2_counts, r2_default) = spec
        .r2cols
        .as_ref()
        .map(|(c, d, _)| (c.clone(), *d))
        .unwrap_or((vec![target_attrs], target_attrs));
    let ratio = spec
        .ratio
        .as_ref()
        .map(|(x, _)| *x)
        .unwrap_or_else(|| match &spec.generate {
            Some(Generate::Synthetic { rows, .. }) => {
                let count = |name: &str| {
                    rows.iter()
                        .find(|r| r.relation == name)
                        .map(|r| r.count.max(1))
                        .unwrap_or(1)
                };
                count(&spec.steps[0].owner) as f64 / count(&spec.steps[0].target) as f64
            }
            _ => 1.0,
        });
    let scales = spec
        .scales
        .as_ref()
        .map(|(s, _)| s.clone())
        .unwrap_or_else(|| vec![1]);
    WorkloadMeta {
        name,
        relation_names: intern_names(&relation_names),
        fk_column: intern_str(&spec.steps[0].fk_col),
        expected_ratio: ratio,
        r2_col_counts: intern_usizes(&r2_counts),
        default_r2_cols: r2_default,
        knobs: intern_knobs(&knobs),
        scale_labels: intern_u32s(&scales),
    }
}

impl Workload for SpecWorkload {
    fn meta(&self) -> WorkloadMeta {
        self.meta
    }

    fn generate(&self, params: &WorkloadParams) -> WorkloadData {
        match &self.plugin {
            Some(p) => p.generate(params),
            None => crate::synth::generate(&self.spec, params),
        }
    }

    fn step_ccs(
        &self,
        step: usize,
        family: CcFamily,
        n: usize,
        data: &WorkloadData,
        seed: u64,
    ) -> Vec<CardinalityConstraint> {
        let block = self
            .spec
            .cc_blocks
            .iter()
            .find(|b| b.step == step)
            .unwrap_or_else(|| panic!("checked: step {step} has a ccs block"));
        match &block.kind {
            CcBlockKind::Plugin => self
                .plugin
                .as_ref()
                .expect("checked: ccs plugin needs generate plugin")
                .step_ccs(step, family, n, data, seed),
            CcBlockKind::Explicit { pools, good, bad } => {
                let truth_view = data.step_truth_view(step);
                let target = data
                    .relation(&self.spec.steps[step].target)
                    .expect("data carries the step target");
                let clauses: Vec<PoolClause<'_>> = pools
                    .iter()
                    .map(|p| match &p.kind {
                        PoolKind::Combos(a, b) => PoolClause::Combos(a, b),
                        PoolKind::Values(a) => PoolClause::Values(a),
                    })
                    .collect();
                let pool = mine_pool(target, &clauses);
                let rows: Vec<NormalizedCond> = match family {
                    CcFamily::Good => good.iter().map(row_cond).collect(),
                    CcFamily::Bad => bad.iter().map(row_cond).collect(),
                };
                match family {
                    CcFamily::Good => good_family("good", &rows, &pool, n, &truth_view, seed),
                    CcFamily::Bad => bad_family("bad", &rows, &pool, n, &truth_view, seed),
                }
            }
        }
    }

    fn step_dcs(&self, step: usize, set: DcSet) -> Vec<DenialConstraint> {
        let Some(block) = self.spec.dc_blocks.iter().find(|b| b.step == step) else {
            return Vec::new();
        };
        block
            .dcs
            .iter()
            .filter(|dc| match set {
                DcSet::Good => dc.good,
                DcSet::All => true,
            })
            .map(|dc| {
                let atoms = dc
                    .atoms
                    .iter()
                    .map(|a| match a {
                        DcAtomDecl::Unary {
                            var,
                            column,
                            op,
                            value,
                            ..
                        } => DcAtom::Unary {
                            var: *var,
                            column: column.clone(),
                            op: *op,
                            value: match value {
                                DcLit::Int(n) => Value::Int(*n),
                                DcLit::Sym(s) => Value::str(s),
                            },
                        },
                        DcAtomDecl::Binary {
                            lvar,
                            lcol,
                            op,
                            rvar,
                            rcol,
                            offset,
                            ..
                        } => DcAtom::Binary {
                            lvar: *lvar,
                            lcol: lcol.clone(),
                            op: *op,
                            rvar: *rvar,
                            rcol: rcol.clone(),
                            offset: *offset,
                        },
                    })
                    .collect();
                DenialConstraint::new(dc.name.clone(), dc.arity, atoms)
                    .expect("checked: DC arity and variables are valid")
            })
            .collect()
    }

    fn paper_counts(&self, label: u32) -> Option<(usize, usize)> {
        self.plugin.as_ref().and_then(|p| p.paper_counts(label))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::check;
    use crate::parser::parse;

    fn load(src: &str) -> SpecWorkload {
        let spec = parse(src, "t").unwrap();
        check(&spec, "t").unwrap();
        SpecWorkload::lower(spec)
    }

    #[test]
    fn plugin_backed_meta_reuses_plugin_fields_under_a_spec_name() {
        let w = load(
            r#"workload "supply";
knob regions = 12; knob "max-group" = 8;
relation Orders { key oid int; attr Amount int; attr Category str; fk store_id int; }
relation Stores { key sid int; attr Format str; attr SizeClass str; attr Capacity int; fk region_id int; }
relation Regions { key rid int; attr Zone str; attr Climate str; }
step Orders.store_id -> Stores;
step Stores.region_id -> Regions;
generate plugin "supply";
ccs step 0 plugin;
ccs step 1 plugin;
"#,
        );
        let meta = w.meta();
        let plugin = workload_by_name("supply").unwrap().meta();
        assert_eq!(meta.name, "spec:supply");
        assert_eq!(meta.relation_names, plugin.relation_names);
        assert_eq!(meta.knobs, plugin.knobs);
        assert_eq!(meta.scale_labels, plugin.scale_labels);
    }

    #[test]
    fn interning_returns_stable_pointers() {
        let a = intern_str("spec:abc");
        let b = intern_str("spec:abc");
        assert!(std::ptr::eq(a, b));
        let u = intern_usizes(&[1, 2, 3]);
        let v = intern_usizes(&[1, 2, 3]);
        assert!(std::ptr::eq(u, v));
    }

    #[test]
    fn synthetic_meta_derives_defaults() {
        let w = load(
            r#"workload "mini";
relation F { key k int; attr A int; fk d int; }
relation D { key k int; attr X str; attr Y str; }
step F.d -> D;
generate synthetic {
  rows F 30; rows D 10;
  domain F.A [0, 100];
  domain D.X ["a", "b"];
  domain D.Y ["c", "d"];
}
ccs step 0 { pool values(X); good { row A in [0, 100]; } bad { row A in [0, 50]; } }
"#,
        );
        let meta = w.meta();
        assert_eq!(meta.name, "spec:mini");
        assert_eq!(meta.relation_names, ["F", "D"]);
        assert_eq!(meta.fk_column, "d");
        assert!((meta.expected_ratio - 3.0).abs() < 1e-9);
        assert_eq!(meta.r2_col_counts, [2]);
        assert_eq!(meta.scale_labels, [1]);
    }

    #[test]
    fn dcs_lower_in_declaration_order_with_good_prefix_semantics() {
        let w = load(
            r#"workload "mini";
relation F { key k int; attr A int; attr B str; fk d int; }
relation D { key k int; attr X str; }
step F.d -> D;
generate synthetic {
  rows F 30; rows D 10;
  domain F.A [0, 100];
  domain F.B ["u", "v"];
  domain D.X ["a", "b"];
}
ccs step 0 { pool values(X); good { row A in [0, 100]; } bad { row A in [0, 50]; } }
dcs step 0 {
  good dc "g1" arity 2 { t0.B == "u"; t1.B == "v"; t1.A < t0.A - 10; }
  all dc "a1" arity 2 { t0.B == "u"; t1.B == "u"; }
}
"#,
        );
        let good = w.step_dcs(0, DcSet::Good);
        let all = w.step_dcs(0, DcSet::All);
        assert_eq!(good.len(), 1);
        assert_eq!(all.len(), 2);
        assert_eq!(good[0].name, "g1");
        assert_eq!(all[1].name, "a1");
        assert_eq!(all[0], good[0]);
        assert!(matches!(
            &all[0].atoms[2],
            DcAtom::Binary { offset: -10, .. }
        ));
    }
}
