//! `model-conditioning`: numerical smells in the generated LP.
//!
//! The LP is solved as generated, with no reduction pass in between, so
//! this pass flags what the generator should not have emitted and what
//! the solver can only work around: rows with no terms, duplicate rows
//! (bit-identical sorted term list, comparator and rhs), coefficient
//! magnitudes spread over more than [`MAGNITUDE_RATIO_LIMIT`] (a classic
//! source of simplex pivot noise), rows whose magnitude spread makes f64
//! summation absorb a coefficient outright (float and exact evaluation
//! then disagree, which the certificate audit will expose), and
//! right-hand sides beyond [`RHS_LIMIT`]. Runs only when a model is
//! attached to the [`LintInput`].

use crate::diagnostic::{Diagnostic, Level, Target};
use crate::registry::{LintInput, LintPass};
use std::collections::HashMap;

/// Max tolerated ratio between the largest and smallest nonzero coefficient
/// magnitude across the whole model.
pub const MAGNITUDE_RATIO_LIMIT: f64 = 1e8;

/// Max tolerated right-hand-side magnitude.
pub const RHS_LIMIT: f64 = 1e12;

/// See the module docs.
pub struct ModelConditioning;

/// Canonical row identity: sorted `(var, coefficient-bits)` terms, a
/// comparator tag, and the rhs bits. Bit-exact: rows that differ only by
/// rounding are not duplicates.
type RowSignature = (Vec<(usize, u64)>, i8, u64);

impl LintPass for ModelConditioning {
    fn slug(&self) -> &'static str {
        "model-conditioning"
    }

    fn default_level(&self) -> Level {
        Level::Warn
    }

    fn description(&self) -> &'static str {
        "LP smells: empty rows, duplicate rows, mixed coefficient magnitudes, f64-absorbed coefficients, oversized right-hand sides"
    }

    fn check(&self, input: &LintInput<'_>, level: Level, out: &mut Vec<Diagnostic>) {
        let Some(model) = input.model else {
            return;
        };

        let mut signatures: HashMap<RowSignature, usize> = HashMap::new();
        let mut min_mag = f64::INFINITY;
        let mut max_mag: f64 = 0.0;
        let mut min_row = 0usize;
        let mut max_row = 0usize;

        for (r, c) in model.constraints().iter().enumerate() {
            if c.expr().terms().is_empty() {
                out.push(Diagnostic {
                    pass: self.slug(),
                    level,
                    message: format!(
                        "row {r} has no terms (0 {:?} {}); it is either vacuous or an \
                         infeasibility that the LP solve will certify",
                        c.cmp(),
                        c.rhs()
                    ),
                    targets: vec![Target::Row(r)],
                    help: Some("drop the row at generation time".to_string()),
                });
                continue;
            }

            let mut sig: Vec<(usize, u64)> = c
                .expr()
                .terms()
                .iter()
                .map(|&(v, coef)| (v.index(), coef.to_bits()))
                .collect();
            sig.sort_unstable();
            let cmp_tag = match c.cmp() {
                lubt_lp::Cmp::Le => -1i8,
                lubt_lp::Cmp::Eq => 0,
                lubt_lp::Cmp::Ge => 1,
            };
            match signatures.entry((sig, cmp_tag, c.rhs().to_bits())) {
                std::collections::hash_map::Entry::Occupied(first) => {
                    out.push(Diagnostic {
                        pass: self.slug(),
                        level,
                        message: format!("row {r} duplicates row {}", first.get()),
                        targets: vec![Target::Row(*first.get()), Target::Row(r)],
                        help: Some(
                            "the generator emitted the same constraint twice; deduplicate \
                             rows at generation time"
                                .to_string(),
                        ),
                    });
                }
                std::collections::hash_map::Entry::Vacant(slot) => {
                    slot.insert(r);
                }
            }

            for &(_, coef) in c.expr().terms() {
                let mag = coef.abs();
                if mag == 0.0 {
                    continue;
                }
                if mag < min_mag {
                    min_mag = mag;
                    min_row = r;
                }
                if mag > max_mag {
                    max_mag = mag;
                    max_row = r;
                }
            }

            // Absorption: a nonzero coefficient so small next to the row's
            // largest that f64 addition swallows it whole — the solver's
            // float row sums then silently omit a term that the exact
            // rational evaluation of the `audit-*` passes still sees.
            let row_max = c
                .expr()
                .terms()
                .iter()
                .fold(0.0f64, |a, &(_, coef)| a.max(coef.abs()));
            let absorbed = c
                .expr()
                .terms()
                .iter()
                .any(|&(_, coef)| coef != 0.0 && row_max + coef == row_max);
            if absorbed {
                out.push(Diagnostic {
                    pass: self.slug(),
                    level,
                    message: format!(
                        "row {r} mixes coefficient magnitudes so unevenly that f64 \
                         summation absorbs the small ones entirely (largest magnitude \
                         {row_max:e}); float and exact evaluation of this row disagree"
                    ),
                    targets: vec![Target::Row(r)],
                    help: Some(
                        "rescale the row: the exact certificate audit recomputes it \
                         rationally and will report a residual the solver cannot see"
                            .to_string(),
                    ),
                });
            }

            if c.rhs().abs() > RHS_LIMIT {
                out.push(Diagnostic {
                    pass: self.slug(),
                    level,
                    message: format!(
                        "row {r} has right-hand side {} beyond {RHS_LIMIT:e}",
                        c.rhs()
                    ),
                    targets: vec![Target::Row(r)],
                    help: Some("rescale the instance coordinates or delay units".to_string()),
                });
            }
        }

        if max_mag > 0.0 && min_mag.is_finite() && max_mag / min_mag > MAGNITUDE_RATIO_LIMIT {
            out.push(Diagnostic {
                pass: self.slug(),
                level,
                message: format!(
                    "coefficient magnitudes span {min_mag:e} (row {min_row}) to {max_mag:e} \
                     (row {max_row}), a ratio beyond {MAGNITUDE_RATIO_LIMIT:e}"
                ),
                targets: vec![Target::Row(min_row), Target::Row(max_row)],
                help: Some(
                    "rescale variables or units; simplex pivots lose precision across such \
                     spreads"
                        .to_string(),
                ),
            });
        }
    }
}
