//! Daemon checkpoint/restart.
//!
//! The daemon persists its entire fold state — sequences, ids,
//! union–find, rolling merge trace, counters — into one snapshot file,
//! `serve.snap` (the versioned per-section-CRC container from
//! `pace-store`), whose `progress` section records the clustering
//! config's fingerprint and the cumulative ingest batches folded. Each
//! checkpoint replaces the file in place: the writer publishes it by
//! tmp + fsync + rename + directory fsync, so a `kill -9` at any instant
//! leaves either the complete previous state or the complete new one.
//!
//! On restart the daemon decodes the snapshot, cross-checks it by
//! **replaying the merge trace** onto fresh singletons — the replayed
//! partition must exactly match the decoded union–find's
//! ([`codec::read_cluster_state`], the persistent driver's check too) —
//! and refuses a fingerprint other than its own flags' (resuming under
//! a different clustering configuration would mix partitions). Only
//! then does serving resume.

use pace_cluster::ClusterConfig;
use pace_core::IncrementalClusterer;
use pace_store::{codec, fingerprint, Snapshot, SnapshotError, SnapshotWriter};
use std::path::Path;

/// The daemon's checkpoint inside its checkpoint directory.
pub(crate) const SNAPSHOT_FILE: &str = "serve.snap";

/// The JSON pointer of the older, generation-numbered layout; a
/// directory holding one is refused rather than started empty.
const OLDER_LAYOUT_FILE: &str = "serve.manifest.json";

const SEC_STORE_ESTS: &str = "ests";
const SEC_IDS: &str = "est_ids";

fn config_fp(cfg: &ClusterConfig) -> u32 {
    fingerprint(&cfg.to_kv_string())
}

/// Persist the daemon's fold state to `serve.snap`, replacing the
/// previous checkpoint atomically. Returns the snapshot's size in bytes.
pub fn save_state(
    dir: &Path,
    clusterer: &IncrementalClusterer,
    ingest_batches: u64,
) -> Result<u64, SnapshotError> {
    std::fs::create_dir_all(dir)?;
    let mut w = SnapshotWriter::create(dir.join(SNAPSHOT_FILE))?;
    w.add_section(SEC_STORE_ESTS, &codec::encode_byte_list(clusterer.ests()))?;
    w.add_section(SEC_IDS, &codec::encode_string_list(clusterer.ids()))?;
    codec::write_cluster_state(
        &mut w,
        clusterer.clusters_dsu(),
        clusterer.trace(),
        &clusterer.stats,
    )?;
    codec::write_progress(&mut w, config_fp(clusterer.config()), ingest_batches)?;
    w.finish()
}

/// Restore the daemon's fold state and its cumulative ingest batches
/// from `dir`, or `Ok(None)` if no checkpoint exists there yet.
///
/// Fails (rather than silently re-clustering or starting empty) if the
/// directory holds the older layout's `serve.manifest.json`, if any
/// section CRC is bad, if replaying the merge trace does not reproduce
/// the decoded union–find's partition, or if the checkpoint was written
/// under a different clustering configuration.
pub fn load_state(
    dir: &Path,
    cfg: &ClusterConfig,
    memory_budget: u64,
) -> Result<Option<(IncrementalClusterer, u64)>, SnapshotError> {
    let older = dir.join(OLDER_LAYOUT_FILE);
    if older.exists() {
        return Err(SnapshotError::OlderLayout(older.display().to_string()));
    }
    let path = dir.join(SNAPSHOT_FILE);
    if !path.exists() {
        return Ok(None);
    }
    let snap = Snapshot::read_file(path)?;
    let ests = codec::decode_byte_list(snap.section(SEC_STORE_ESTS)?)?;
    let ids = codec::decode_string_list(snap.section(SEC_IDS)?)?;
    let (dsu, trace, stats) = codec::read_cluster_state(&snap, ests.len())?;
    let ingest_batches = codec::read_progress(&snap, config_fp(cfg))?;
    let clusterer =
        IncrementalClusterer::from_parts(cfg.clone(), memory_budget, ests, ids, dsu, trace, stats)
            .map_err(SnapshotError::Corrupt)?;
    Ok(Some((clusterer, ingest_batches)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> ClusterConfig {
        let mut c = ClusterConfig::small();
        c.psi = 16;
        c.overlap.min_overlap_len = 40;
        c
    }

    fn folded(n_batches: usize) -> IncrementalClusterer {
        let ds = pace_simulate::generate(
            &pace_simulate::SimConfig {
                num_genes: 5,
                num_ests: 60,
                est_len_mean: 220.0,
                est_len_sd: 25.0,
                est_len_min: 120,
                exon_len: (220, 400),
                exons_per_gene: (1, 2),
                seed: 71,
                ..pace_simulate::SimConfig::default()
            }
            .error_free(),
        );
        let mut inc = IncrementalClusterer::new(cfg());
        let per = ds.ests.len() / n_batches;
        for b in 0..n_batches {
            let lo = b * per;
            let hi = if b + 1 == n_batches {
                ds.ests.len()
            } else {
                lo + per
            };
            let ids: Vec<String> = (lo..hi).map(|i| format!("est_{i}")).collect();
            inc.fold_batch(&ids, &ds.ests[lo..hi]).unwrap();
        }
        inc
    }

    #[test]
    fn save_load_roundtrip_preserves_everything() {
        let dir = std::env::temp_dir().join(format!("pace-serve-ckpt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut inc = folded(3);
        save_state(&dir, &inc, 3).unwrap();
        let (mut back, batches) = load_state(&dir, &cfg(), 0).unwrap().unwrap();
        assert_eq!(batches, 3);
        assert_eq!(back.len(), inc.len());
        assert_eq!(back.ids(), inc.ids());
        assert_eq!(back.labels(), inc.labels());
        assert_eq!(back.trace(), inc.trace());
        assert_eq!(back.stats, inc.stats);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The literal bytes of the `ests` section: a u64 count, then per EST
    /// a u64 length and its bases. Checkpoints must restore across builds.
    #[test]
    fn ests_section_layout_is_pinned() {
        let dir = std::env::temp_dir().join(format!("pace-serve-pin-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let ests = vec![b"ACGTA".to_vec(), b"TTG".to_vec()];
        let mut inc = IncrementalClusterer::new(cfg());
        inc.fold_batch(&["a".to_string(), "b".to_string()], &ests)
            .unwrap();
        save_state(&dir, &inc, 1).unwrap();
        let snap = Snapshot::read_file(dir.join(SNAPSHOT_FILE)).unwrap();
        let pin: &[u8] = b"\x02\0\0\0\0\0\0\0\
                           \x05\0\0\0\0\0\0\0ACGTA\
                           \x03\0\0\0\0\0\0\0TTG";
        assert_eq!(snap.section("ests").unwrap(), pin);
        let (back, _) = load_state(&dir, &cfg(), 0).unwrap().unwrap();
        assert_eq!(back.ests(), ests);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A snapshot with valid CRCs whose clustering state does not
    /// restore the folded ESTs is refused, not served.
    #[test]
    fn state_that_does_not_restore_is_refused() {
        use pace_cluster::trace::{MergeRecord, MergeTrace};
        use pace_dsu::DisjointSets;
        let dir = std::env::temp_dir().join(format!("pace-serve-bad-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let inc = folded(2);
        let n = inc.len();
        assert!(!inc.trace().is_empty(), "need a merge to contradict");
        let stray = MergeTrace::from_records(vec![MergeRecord {
            est_a: 0,
            est_b: n,
            mcs_len: 20,
            score_ratio: 1.0,
        }]);
        let singletons = |n| codec::encode_dsu(&DisjointSets::new(n));
        for (section, bytes, why) in [
            ("dsu", singletons(n), "does not reproduce"),
            ("dsu", singletons(n + 1), "covers"),
            (
                "merge_trace",
                codec::encode_merge_trace(&stray),
                "out of range",
            ),
        ] {
            save_state(&dir, &inc, 2).unwrap();
            let path = dir.join(SNAPSHOT_FILE);
            let snap = Snapshot::read_file(&path).unwrap();
            let mut w = SnapshotWriter::create(&path).unwrap();
            for name in snap.section_names() {
                let keep = snap.section(name).unwrap();
                w.add_section(name, if name == section { &bytes } else { keep })
                    .unwrap();
            }
            w.finish().unwrap();
            let Err(err) = load_state(&dir, &cfg(), 0) else {
                panic!("{section}: a state that does not restore was accepted");
            };
            assert!(err.to_string().contains(why), "{section}: {err}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_checkpoint_is_none() {
        let dir = std::env::temp_dir().join(format!("pace-serve-none-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        assert!(load_state(&dir, &cfg(), 0).unwrap().is_none());
    }

    #[test]
    fn config_mismatch_refused() {
        let dir = std::env::temp_dir().join(format!("pace-serve-fp-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let inc = folded(2);
        save_state(&dir, &inc, 2).unwrap();
        let mut other = cfg();
        other.psi = 99;
        assert!(load_state(&dir, &other, 0).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Each checkpoint replaces `serve.snap` in place: the directory
    /// holds that one file, and it restores the latest state.
    #[test]
    fn a_second_save_replaces_the_one_snapshot() {
        let dir = std::env::temp_dir().join(format!("pace-serve-twice-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        save_state(&dir, &folded(2), 2).unwrap();
        let inc = folded(3);
        save_state(&dir, &inc, 3).unwrap();
        let names: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(names, [SNAPSHOT_FILE]);
        let (back, batches) = load_state(&dir, &cfg(), 0).unwrap().unwrap();
        assert_eq!(batches, 3);
        assert_eq!(back.trace(), inc.trace());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_snapshot_detected() {
        let dir = std::env::temp_dir().join(format!("pace-serve-corrupt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let inc = folded(2);
        save_state(&dir, &inc, 2).unwrap();
        let path = dir.join(SNAPSHOT_FILE);
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&path, bytes).unwrap();
        assert!(load_state(&dir, &cfg(), 0).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
