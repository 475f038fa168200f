//! The human-readable run summary the CLI prints to stderr. The machine
//! report is `pace_obs::report`, which `--metrics-out` writes from the
//! same registry snapshot, so the two always agree.

use crate::pipeline::PaceOutcome;
use pace_obs::{metric, RegistrySnapshot};
use pace_quality::QualityMetrics;

/// Phases in pipeline order. The summary prints recorded phases in this
/// order, any phase not listed after them, and `total` last.
const PIPELINE_ORDER: [&str; 8] = [
    metric::PHASE_INGEST,
    metric::PHASE_PARTITIONING,
    metric::PHASE_GST_CONSTRUCTION,
    metric::PHASE_NODE_SORTING,
    metric::PHASE_PAIR_GENERATION,
    metric::PHASE_ALIGNMENT,
    metric::PHASE_ALIGN_BATCH,
    metric::PHASE_CHECKPOINT,
];

fn pipeline_rank(phase: &str) -> usize {
    match PIPELINE_ORDER.iter().position(|p| *p == phase) {
        Some(i) => i,
        None if phase == metric::PHASE_TOTAL => usize::MAX,
        None => PIPELINE_ORDER.len(),
    }
}

/// One run's summary: sizes and pair counters from the outcome; from the
/// registry snapshot, each recorded phase's max and sample count (the
/// max over ranks is Table 3's critical path) and the traced critical
/// path; and quality when the run was assessed.
pub struct RunReport<'a> {
    outcome: &'a PaceOutcome,
    snap: &'a RegistrySnapshot,
    quality: Option<QualityMetrics>,
}

impl<'a> RunReport<'a> {
    /// Summarize `outcome`, whose phases and gauges are in `snap`.
    pub fn new(
        outcome: &'a PaceOutcome,
        snap: &'a RegistrySnapshot,
        quality: Option<QualityMetrics>,
    ) -> Self {
        RunReport {
            outcome,
            snap,
            quality,
        }
    }
}

impl std::fmt::Display for RunReport<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let o = self.outcome;
        let s = &o.result.stats;
        writeln!(
            f,
            "PaCE run: {} ESTs ({} bases) on {} processor(s)",
            o.num_ests, o.total_bases, o.num_processors
        )?;
        writeln!(f, "  clusters      : {}", o.result.num_clusters)?;
        writeln!(
            f,
            "  pairs         : {} generated, {} aligned, {} accepted, {} skipped",
            s.pairs_generated, s.pairs_processed, s.pairs_accepted, s.pairs_skipped
        )?;
        // A phase's max is its critical path when each rank records it
        // once; the sample count says when it is the slowest of several
        // batches instead (the persistent driver, `align_batch`).
        let mut phases: Vec<_> = self.snap.phases.iter().collect();
        phases.sort_by_key(|(name, _)| pipeline_rank(name));
        if !phases.is_empty() {
            writeln!(f, "  {:<18}{:>9}{:>9}", "phase", "max (s)", "samples")?;
        }
        for (name, agg) in phases {
            writeln!(f, "  {name:<18}{:>9.3}{:>9}", agg.max, agg.count)?;
        }
        if let Some(secs) = self.snap.gauges.get(metric::TRACE_CRITICAL_PATH_SECS) {
            writeln!(f, "  critical path : {secs:.3}s")?;
        }
        if let Some(q) = self.quality {
            let (oq, ov, un, cc) = q.as_percentages();
            writeln!(
                f,
                "  quality       : OQ {oq:6.2}  OV {ov:5.2}  UN {un:5.2}  CC {cc:6.2}"
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{Pace, PaceConfig};
    use pace_obs::Obs;
    use pace_simulate::{generate, SimConfig};

    fn outcome(obs: &Obs) -> (PaceOutcome, Vec<usize>) {
        let ds = generate(&SimConfig {
            num_genes: 5,
            num_ests: 50,
            est_len_mean: 200.0,
            est_len_sd: 20.0,
            est_len_min: 120,
            seed: 51,
            ..SimConfig::default()
        });
        let mut cfg = PaceConfig::small_inputs();
        cfg.cluster.psi = 16;
        let store = pace_seq::SequenceStore::from_ests(&ds.ests).unwrap();
        let out = Pace::new(cfg).cluster_store_obs(&store, obs).unwrap();
        (out, ds.truth)
    }

    #[test]
    fn report_reflects_outcome_and_registry() {
        let obs = Obs::noop();
        let (out, truth) = outcome(&obs);
        let snap = obs.registry().snapshot();
        let text = RunReport::new(&out, &snap, Some(out.quality(&truth))).to_string();
        assert!(text.contains("50 ESTs"), "{text}");
        assert!(text.contains("quality"), "{text}");
        assert!(!text.contains("critical path"), "untraced run: {text}");
        // Every recorded phase prints, in pipeline order, total last.
        let at = |phase: &str| {
            text.find(&format!("\n  {phase} "))
                .unwrap_or_else(|| panic!("{phase} missing: {text}"))
        };
        let order = [
            metric::PHASE_PARTITIONING,
            metric::PHASE_GST_CONSTRUCTION,
            metric::PHASE_NODE_SORTING,
            metric::PHASE_PAIR_GENERATION,
            metric::PHASE_ALIGNMENT,
            metric::PHASE_TOTAL,
        ];
        assert!(order.windows(2).all(|w| at(w[0]) < at(w[1])), "{text}");
    }

    #[test]
    fn critical_path_comes_from_the_trace_gauge() {
        let obs = Obs::noop();
        let (out, _) = outcome(&obs);
        obs.registry()
            .set_gauge(metric::TRACE_CRITICAL_PATH_SECS, 1.25);
        let snap = obs.registry().snapshot();
        let text = RunReport::new(&out, &snap, None).to_string();
        assert!(text.contains("critical path : 1.250s"), "{text}");
        assert!(!text.contains("quality"), "{text}");
    }
}
