//! Daemon checkpoint/restart.
//!
//! The daemon persists its entire fold state — sequences, ids,
//! union–find, rolling merge trace, counters — into one snapshot file
//! (`serve.<generation>.snap`, the versioned per-section-CRC container
//! from `pace-store`) plus a small JSON manifest (`serve.manifest.json`).
//! The write order is snapshot first, manifest last (both atomic
//! tmp+fsync+rename), so the manifest never names state that is not
//! durably on disk: a `kill -9` between the two leaves the *previous*
//! manifest pointing at the previous snapshot, which is still present
//! because snapshots are written to a fresh generation file before the
//! old one is removed.
//!
//! On restart the daemon verifies the manifest's config fingerprint
//! against its own flags (refusing to resume under a different
//! clustering configuration), decodes the snapshot, and cross-checks it
//! by **replaying the merge trace** onto fresh singletons — the replayed
//! partition must exactly match the decoded union–find's
//! ([`codec::read_cluster_state`], the persistent driver's check too).
//! Only then does serving resume.

use pace_cluster::ClusterConfig;
use pace_core::IncrementalClusterer;
use pace_obs::json::{self, Json};
use pace_store::{atomic_write, codec, fingerprint, Snapshot, SnapshotError, SnapshotWriter};
use std::path::Path;

/// Manifest file name inside the checkpoint directory.
pub const SERVE_MANIFEST_FILE: &str = "serve.manifest.json";

const SEC_STORE_ESTS: &str = "ests";
const SEC_IDS: &str = "est_ids";

const MANIFEST_VERSION: u64 = 1;

/// What `serve.manifest.json` records.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeManifest {
    /// Manifest format version.
    pub version: u64,
    /// CRC fingerprint of the clustering config's canonical kv string.
    pub config_fingerprint: String,
    /// Snapshot generation this manifest points at (`serve.<gen>.snap`).
    pub generation: u64,
    /// ESTs in the snapshot.
    pub num_ests: u64,
    /// Cumulative ingest batches folded.
    pub ingest_batches: u64,
    /// Merge-trace length in the snapshot (restore cross-check).
    pub trace_len: u64,
}

impl ServeManifest {
    fn to_json(&self) -> Json {
        Json::obj([
            ("version", Json::Num(self.version as f64)),
            (
                "config_fingerprint",
                Json::Str(self.config_fingerprint.clone()),
            ),
            ("generation", Json::Num(self.generation as f64)),
            ("num_ests", Json::Num(self.num_ests as f64)),
            ("ingest_batches", Json::Num(self.ingest_batches as f64)),
            ("trace_len", Json::Num(self.trace_len as f64)),
        ])
    }

    fn from_json(j: &Json) -> Result<Self, SnapshotError> {
        let field = |name: &str| -> Result<u64, SnapshotError> {
            j.get(name)
                .and_then(Json::as_u64)
                .ok_or_else(|| SnapshotError::Corrupt(format!("manifest field {name} missing")))
        };
        Ok(ServeManifest {
            version: field("version")?,
            config_fingerprint: j
                .get("config_fingerprint")
                .and_then(Json::as_str)
                .ok_or_else(|| {
                    SnapshotError::Corrupt("manifest field config_fingerprint missing".into())
                })?
                .to_string(),
            generation: field("generation")?,
            num_ests: field("num_ests")?,
            ingest_batches: field("ingest_batches")?,
            trace_len: field("trace_len")?,
        })
    }
}

fn snap_path(dir: &Path, generation: u64) -> std::path::PathBuf {
    dir.join(format!("serve.{generation}.snap"))
}

fn config_fp(cfg: &ClusterConfig) -> String {
    fingerprint(&cfg.to_kv_string())
}

/// Persist the daemon's fold state. Returns the generation written.
///
/// Write order is snapshot → manifest → delete previous generation, so
/// a crash at any instant leaves a manifest that names a complete,
/// CRC-verifiable snapshot.
pub fn save_state(
    dir: &Path,
    clusterer: &IncrementalClusterer,
    ingest_batches: u64,
) -> Result<u64, SnapshotError> {
    std::fs::create_dir_all(dir).map_err(SnapshotError::from)?;
    let previous = read_manifest(dir).ok();
    let generation = previous.as_ref().map_or(0, |m| m.generation + 1);

    let mut w = SnapshotWriter::create(snap_path(dir, generation))?;
    w.add_section(SEC_STORE_ESTS, &codec::encode_byte_list(clusterer.ests()))?;
    w.add_section(SEC_IDS, &codec::encode_string_list(clusterer.ids()))?;
    codec::write_cluster_state(
        &mut w,
        clusterer.clusters_dsu(),
        clusterer.trace(),
        &clusterer.stats,
    )?;
    w.finish()?;

    let manifest = ServeManifest {
        version: MANIFEST_VERSION,
        config_fingerprint: config_fp(clusterer.config()),
        generation,
        num_ests: clusterer.len() as u64,
        ingest_batches,
        trace_len: clusterer.trace().len() as u64,
    };
    atomic_write(
        &dir.join(SERVE_MANIFEST_FILE),
        manifest.to_json().to_line().as_bytes(),
    )?;

    // The manifest now points at the new generation; the old snapshot is
    // garbage and may be removed (best-effort).
    if let Some(prev) = previous {
        let _ = std::fs::remove_file(snap_path(dir, prev.generation));
    }
    Ok(generation)
}

fn read_manifest(dir: &Path) -> Result<ServeManifest, SnapshotError> {
    let raw = std::fs::read_to_string(dir.join(SERVE_MANIFEST_FILE))?;
    let j =
        json::parse(&raw).map_err(|e| SnapshotError::Corrupt(format!("serve manifest: {e}")))?;
    ServeManifest::from_json(&j)
}

/// Restore the daemon's fold state from `dir`, or `Ok(None)` if no
/// checkpoint exists there yet.
///
/// Fails (rather than silently re-clustering) if the checkpoint was
/// written under a different clustering configuration, if any section
/// CRC is bad, or if replaying the merge trace does not reproduce the
/// decoded union–find's partition.
pub fn load_state(
    dir: &Path,
    cfg: &ClusterConfig,
    memory_budget: u64,
) -> Result<Option<(IncrementalClusterer, u64)>, SnapshotError> {
    if !dir.join(SERVE_MANIFEST_FILE).exists() {
        return Ok(None);
    }
    let manifest = read_manifest(dir)?;
    if manifest.version != MANIFEST_VERSION {
        return Err(SnapshotError::Corrupt(format!(
            "serve manifest version {} (this binary writes {MANIFEST_VERSION})",
            manifest.version
        )));
    }
    let expect_fp = config_fp(cfg);
    if manifest.config_fingerprint != expect_fp {
        return Err(SnapshotError::Corrupt(format!(
            "checkpoint was written under config fingerprint {} but the daemon \
             was started with {expect_fp}; refusing to mix partitions",
            manifest.config_fingerprint
        )));
    }

    let snap = Snapshot::read_file(snap_path(dir, manifest.generation))?;
    let ests = codec::decode_byte_list(snap.section(SEC_STORE_ESTS)?)?;
    let ids = codec::decode_string_list(snap.section(SEC_IDS)?)?;
    let (dsu, trace, stats) = codec::read_cluster_state(&snap, ests.len())?;
    if trace.len() as u64 != manifest.trace_len {
        return Err(SnapshotError::Corrupt(format!(
            "manifest says {} merge records, snapshot holds {}",
            manifest.trace_len,
            trace.len()
        )));
    }

    let clusterer =
        IncrementalClusterer::from_parts(cfg.clone(), memory_budget, ests, ids, dsu, trace, stats)
            .map_err(SnapshotError::Corrupt)?;
    Ok(Some((clusterer, manifest.ingest_batches)))
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
        let generation = save_state(&dir, &inc, 1).unwrap();
        let snap = Snapshot::read_file(snap_path(&dir, generation)).unwrap();
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
            let path = snap_path(&dir, save_state(&dir, &inc, 2).unwrap());
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

    #[test]
    fn generations_advance_and_old_snapshots_are_pruned() {
        let dir = std::env::temp_dir().join(format!("pace-serve-gen-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let inc = folded(2);
        assert_eq!(save_state(&dir, &inc, 2).unwrap(), 0);
        assert_eq!(save_state(&dir, &inc, 2).unwrap(), 1);
        assert!(!snap_path(&dir, 0).exists());
        assert!(snap_path(&dir, 1).exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_snapshot_detected() {
        let dir = std::env::temp_dir().join(format!("pace-serve-corrupt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let inc = folded(2);
        let generation = save_state(&dir, &inc, 2).unwrap();
        let path = snap_path(&dir, generation);
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&path, bytes).unwrap();
        assert!(load_state(&dir, &cfg(), 0).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
