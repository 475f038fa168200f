//! The checkpoint manifest: one small JSON file recording how far a
//! run has progressed and which snapshots are valid.
//!
//! The manifest is rewritten atomically (write-to-temp + fsync +
//! rename) after ingest and after every clustered batch, so at any
//! instant the file on disk describes a consistent, resumable state.
//! Heavy state (the sequence store, the union–find + merge trace)
//! lives in separate snapshot files the manifest refers to by progress
//! coordinates; the manifest itself carries only light cumulative
//! counters. Everything else a run derives — the bucket partition, the
//! batch plan and the batches — is a pure function of the store and the
//! fingerprinted configuration, so a resume recomputes it.
//!
//! Resume correctness hinges on one asymmetry the counters expose:
//! clustering progress (`batches_clustered`, `pairs_generated`) is
//! recorded after *every* batch, while the union–find/trace snapshot is
//! only written every K batches (`heavy_ckpt`). The gap between the two
//! is exactly the work a crash destroys, and the resuming driver books
//! it into `faults.lost_pairs` (see `pace-core`) so the conservation
//! invariant `generated == processed + skipped + unconsumed` survives
//! the crash-and-resume cycle.

use crate::error::SnapshotError;
use crate::snapshot::atomic_write;
use pace_obs::json::{parse, Json};
use std::path::Path;

/// Manifest schema version (independent of the binary snapshot version).
/// Version 1 also recorded a partition snapshot and spilled batches; a
/// v1 directory is refused rather than half-resumed.
pub const MANIFEST_VERSION: u32 = 2;

/// The pipeline phases, in execution order. The manifest records the
/// last phase that *completed* (all of its snapshots published).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Phase {
    /// FASTA ingested; `ingest.snap` holds the sequence store + ids.
    Ingest,
    /// All batches clustered; final heavy checkpoint is current.
    Cluster,
    /// Run finished; outputs were produced.
    Done,
}

impl Phase {
    /// Stable on-disk name.
    pub fn as_str(self) -> &'static str {
        match self {
            Phase::Ingest => "ingest",
            Phase::Cluster => "cluster",
            Phase::Done => "done",
        }
    }

    /// Parse an on-disk name (fallible, unlike `std::str::FromStr`,
    /// which can't return `Option`).
    pub fn parse(s: &str) -> Option<Phase> {
        Some(match s {
            "ingest" => Phase::Ingest,
            "cluster" => Phase::Cluster,
            "done" => Phase::Done,
            _ => return None,
        })
    }
}

/// Progress record of one persistent run.
#[derive(Debug, Clone, PartialEq)]
pub struct Manifest {
    /// Manifest schema version.
    pub version: u32,
    /// Fingerprint of the run configuration (input + parameters); a
    /// resume with a different fingerprint is rejected rather than
    /// silently mixing incompatible state.
    pub fingerprint: String,
    /// Last *completed* phase.
    pub phase: Phase,
    /// Number of ESTs ingested.
    pub num_ests: u64,
    /// Total input bases ingested.
    pub total_bases: u64,
    /// Total batches in the build plan (0 until the plan exists).
    pub batches_total: u64,
    /// Batches fully clustered so far.
    pub batches_clustered: u64,
    /// Cumulative promising pairs generated through `batches_clustered`
    /// (the light counter that prices a crash, see module docs).
    pub pairs_generated: u64,
    /// Batch count at the last heavy (union–find + trace) checkpoint,
    /// or `None` if clustering has not checkpointed yet.
    pub heavy_ckpt: Option<u64>,
}

impl Manifest {
    /// A fresh manifest for a run that has not completed any phase yet.
    pub fn new(fingerprint: String) -> Self {
        Manifest {
            version: MANIFEST_VERSION,
            fingerprint,
            phase: Phase::Ingest, // overwritten when ingest completes
            num_ests: 0,
            total_bases: 0,
            batches_total: 0,
            batches_clustered: 0,
            pairs_generated: 0,
            heavy_ckpt: None,
        }
    }

    /// Render to the on-disk JSON document.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("version", Json::Num(self.version as f64)),
            ("fingerprint", Json::Str(self.fingerprint.clone())),
            ("phase", Json::Str(self.phase.as_str().to_string())),
            ("num_ests", Json::Num(self.num_ests as f64)),
            ("total_bases", Json::Num(self.total_bases as f64)),
            ("batches_total", Json::Num(self.batches_total as f64)),
            (
                "batches_clustered",
                Json::Num(self.batches_clustered as f64),
            ),
            ("pairs_generated", Json::Num(self.pairs_generated as f64)),
            (
                "heavy_ckpt",
                match self.heavy_ckpt {
                    Some(b) => Json::Num(b as f64),
                    None => Json::Null,
                },
            ),
        ])
    }

    /// Parse the on-disk JSON document.
    pub fn from_json(doc: &Json) -> Result<Self, SnapshotError> {
        let bad = |what: &str| SnapshotError::Corrupt(format!("manifest: bad or missing {what}"));
        let version = doc
            .get("version")
            .and_then(Json::as_u64)
            .ok_or_else(|| bad("version"))? as u32;
        if version != MANIFEST_VERSION {
            return Err(SnapshotError::UnsupportedVersion(version));
        }
        let phase = doc
            .get("phase")
            .and_then(Json::as_str)
            .and_then(Phase::parse)
            .ok_or_else(|| bad("phase"))?;
        let num = |key: &'static str| doc.get(key).and_then(Json::as_u64).ok_or_else(|| bad(key));
        let heavy_ckpt = match doc.get("heavy_ckpt") {
            None | Some(Json::Null) => None,
            Some(v) => Some(v.as_u64().ok_or_else(|| bad("heavy_ckpt"))?),
        };
        Ok(Manifest {
            version,
            fingerprint: doc
                .get("fingerprint")
                .and_then(Json::as_str)
                .ok_or_else(|| bad("fingerprint"))?
                .to_string(),
            phase,
            num_ests: num("num_ests")?,
            total_bases: num("total_bases")?,
            batches_total: num("batches_total")?,
            batches_clustered: num("batches_clustered")?,
            pairs_generated: num("pairs_generated")?,
            heavy_ckpt,
        })
    }

    /// Atomically publish the manifest to `path`.
    pub fn store(&self, path: impl AsRef<Path>) -> Result<(), SnapshotError> {
        let mut text = self.to_json().to_string();
        text.push('\n');
        atomic_write(path.as_ref(), text.as_bytes())
    }

    /// Load and validate a manifest from `path`.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, SnapshotError> {
        let text = std::fs::read_to_string(path.as_ref())?;
        let doc = parse(&text)
            .map_err(|e| SnapshotError::Corrupt(format!("manifest: invalid JSON: {e}")))?;
        Self::from_json(&doc)
    }
}

/// Fingerprint a run configuration: CRC-32 over a caller-assembled
/// canonical description string, rendered as 8 hex digits. Collisions
/// are astronomically unlikely to matter here — the fingerprint guards
/// against *accidental* resume-with-different-flags, not adversaries.
pub fn fingerprint(canonical: &str) -> String {
    format!("{:08x}", pace_wire::crc32(canonical.as_bytes()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Manifest {
        Manifest {
            version: MANIFEST_VERSION,
            fingerprint: fingerprint("w=6 psi=40 n=100"),
            phase: Phase::Ingest,
            num_ests: 100,
            total_bases: 40_000,
            batches_total: 7,
            batches_clustered: 0,
            pairs_generated: 0,
            heavy_ckpt: None,
        }
    }

    #[test]
    fn json_roundtrip() {
        let m = sample();
        let back = Manifest::from_json(&m.to_json()).unwrap();
        assert_eq!(back, m);

        let mut m2 = m;
        m2.phase = Phase::Cluster;
        m2.batches_clustered = 5;
        m2.pairs_generated = 12_345;
        m2.heavy_ckpt = Some(4);
        let back = Manifest::from_json(&m2.to_json()).unwrap();
        assert_eq!(back, m2);
    }

    #[test]
    fn disk_roundtrip_is_atomic() {
        let dir = std::env::temp_dir().join(format!("pace-manifest-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("manifest.json");
        let m = sample();
        m.store(&path).unwrap();
        assert_eq!(Manifest::load(&path).unwrap(), m);
        // No temp residue once published.
        assert!(!dir.join("manifest.json.tmp").exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn malformed_manifests_are_typed_errors() {
        assert!(matches!(
            Manifest::from_json(&parse("{}").unwrap()).unwrap_err(),
            SnapshotError::Corrupt(_)
        ));
        assert!(matches!(
            Manifest::from_json(&parse(r#"{"version": 999}"#).unwrap()).unwrap_err(),
            SnapshotError::UnsupportedVersion(999)
        ));
        let mut doc = sample().to_json();
        if let Json::Obj(entries) = &mut doc {
            for (k, v) in entries.iter_mut() {
                if k == "phase" {
                    *v = Json::Str("warp".into());
                }
            }
        }
        assert!(matches!(
            Manifest::from_json(&doc).unwrap_err(),
            SnapshotError::Corrupt(_)
        ));
    }

    /// A v1 directory also holds a partition snapshot and spilled
    /// batches this version neither reads nor writes: refuse it whole.
    #[test]
    fn v1_manifest_is_refused() {
        let mut doc = sample().to_json();
        if let Json::Obj(entries) = &mut doc {
            for (k, v) in entries.iter_mut() {
                if k == "version" {
                    *v = Json::Num(1.0);
                }
            }
        }
        assert!(matches!(
            Manifest::from_json(&doc).unwrap_err(),
            SnapshotError::UnsupportedVersion(1)
        ));
    }

    #[test]
    fn phase_ordering_matches_pipeline_order() {
        assert!(Phase::Ingest < Phase::Cluster);
        assert!(Phase::Cluster < Phase::Done);
        for p in [Phase::Ingest, Phase::Cluster, Phase::Done] {
            assert_eq!(Phase::parse(p.as_str()), Some(p));
        }
    }
}
