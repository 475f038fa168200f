//! The versioned, checksummed binary snapshot container.
//!
//! A snapshot is a flat file of named sections:
//!
//! ```text
//! magic            8 bytes  b"PACESNAP"
//! schema_version   u32 LE   (see SCHEMA_VERSION)
//! section_count    u32 LE
//! section*:
//!   name_len       u16 LE
//!   name           UTF-8 bytes
//!   payload_len    u64 LE
//!   payload        bytes
//!   crc32          u32 LE   (IEEE, over the payload only)
//! ```
//!
//! Integrity is per-section: a flipped byte anywhere in a payload is a
//! [`SnapshotError::ChecksumMismatch`] naming the section, and any file
//! that ends early is a [`SnapshotError::Truncated`] — corruption is
//! always a typed error, never a panic.
//!
//! Durability: the writer streams to `<path>.tmp`, fsyncs, then
//! atomically renames into place and fsyncs the directory, so a crash
//! mid-write can never leave a half-written file under the final name.
//!
//! Schema evolution rules are documented in DESIGN.md: the version is
//! bumped on any layout change, readers reject every version but their
//! own ([`SnapshotError::UnsupportedVersion`]), and new *optional* state
//! must be added as new sections (readers ignore unknown sections) so
//! old files stay readable within a version.

use crate::error::SnapshotError;
use pace_wire::{crc32, WireError, WireReader};
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::ops::Range;
use std::path::{Path, PathBuf};

/// File magic.
pub const MAGIC: &[u8; 8] = b"PACESNAP";

/// Current snapshot schema version (DESIGN.md §9 lists what each
/// version changed).
pub const SCHEMA_VERSION: u32 = 2;

/// Suffix of the temporary file the writer streams to before the
/// atomic rename (matched by the `*.tmp` gitignore rule).
pub const TMP_SUFFIX: &str = ".tmp";

fn tmp_path(path: &Path) -> PathBuf {
    let mut name = path.as_os_str().to_os_string();
    name.push(TMP_SUFFIX);
    PathBuf::from(name)
}

/// Fsync the directory containing `path`, making a completed rename
/// durable. Best effort off Linux; errors on the directory handle are
/// surfaced because a lost rename defeats the checkpoint guarantee.
fn fsync_parent(path: &Path) -> Result<(), SnapshotError> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        File::open(dir)?.sync_all()?;
    }
    Ok(())
}

/// Fingerprint a run's configuration: the CRC-32 of a caller-assembled
/// canonical description. Each checkpoint carries it in its `progress`
/// section ([`crate::codec::write_progress`]), so a resume under other
/// input or parameters is refused instead of mixing state. It guards
/// against an accidental resume with different flags, not adversaries.
pub fn fingerprint(canonical: &str) -> u32 {
    crc32(canonical.as_bytes())
}

/// Streaming snapshot writer.
///
/// Sections are written in call order; the section count in the header
/// is patched in at [`finish`](Self::finish), which also performs the
/// fsync + rename that publishes the file.
pub struct SnapshotWriter {
    file: File,
    final_path: PathBuf,
    tmp: PathBuf,
    sections: u32,
    bytes_written: u64,
}

impl SnapshotWriter {
    /// Start a snapshot destined for `path`.
    pub fn create(path: impl AsRef<Path>) -> Result<Self, SnapshotError> {
        let final_path = path.as_ref().to_path_buf();
        let tmp = tmp_path(&final_path);
        let mut file = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(&tmp)?;
        file.write_all(MAGIC)?;
        file.write_all(&SCHEMA_VERSION.to_le_bytes())?;
        file.write_all(&0u32.to_le_bytes())?; // section count, patched later
        Ok(SnapshotWriter {
            file,
            final_path,
            tmp,
            sections: 0,
            bytes_written: 16,
        })
    }

    /// Append one section from an in-memory payload.
    pub fn add_section(&mut self, name: &str, payload: &[u8]) -> Result<(), SnapshotError> {
        self.begin_section(name, payload.len() as u64)?;
        self.file.write_all(payload)?;
        self.file.write_all(&crc32(payload).to_le_bytes())?;
        self.bytes_written += payload.len() as u64 + 4;
        Ok(())
    }

    fn begin_section(&mut self, name: &str, len: u64) -> Result<(), SnapshotError> {
        let name_bytes = name.as_bytes();
        assert!(
            name_bytes.len() <= u16::MAX as usize,
            "section name too long"
        );
        self.file
            .write_all(&(name_bytes.len() as u16).to_le_bytes())?;
        self.file.write_all(name_bytes)?;
        self.file.write_all(&len.to_le_bytes())?;
        self.sections += 1;
        self.bytes_written += 2 + name_bytes.len() as u64 + 8;
        Ok(())
    }

    /// Total bytes this snapshot will occupy on disk (header included).
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written
    }

    /// Patch the header, fsync, and atomically publish the file.
    /// Returns the final on-disk size in bytes.
    pub fn finish(mut self) -> Result<u64, SnapshotError> {
        self.file.seek(SeekFrom::Start(12))?;
        self.file.write_all(&self.sections.to_le_bytes())?;
        self.file.sync_all()?;
        std::fs::rename(&self.tmp, &self.final_path)?;
        fsync_parent(&self.final_path)?;
        Ok(self.bytes_written)
    }
}

/// A snapshot loaded into memory, with per-section CRCs verified.
#[derive(Debug)]
pub struct Snapshot {
    data: Vec<u8>,
    sections: Vec<(String, Range<usize>)>,
}

impl Snapshot {
    /// Read and verify a snapshot file. Every section's checksum is
    /// validated here, so any [`section`](Self::section) access
    /// afterwards returns bytes known to be intact.
    pub fn read_file(path: impl AsRef<Path>) -> Result<Self, SnapshotError> {
        let mut data = Vec::new();
        File::open(path.as_ref())?.read_to_end(&mut data)?;
        Self::parse(data)
    }

    /// Parse an in-memory snapshot image (tests and corruption drills).
    pub fn parse(data: Vec<u8>) -> Result<Self, SnapshotError> {
        let short = |context| move |_: WireError| SnapshotError::Truncated { context };
        let mut r = WireReader::new(&data);
        let header = r.bytes(16).map_err(short("header"))?;
        if &header[..8] != MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let version = u32::from_le_bytes(header[8..12].try_into().unwrap());
        if version != SCHEMA_VERSION {
            return Err(SnapshotError::UnsupportedVersion(version));
        }
        let count = u32::from_le_bytes(header[12..16].try_into().unwrap());
        // No reservation from `count`: the header is outside every CRC.
        let mut sections = Vec::new();
        for _ in 0..count {
            let name_len = r.bytes(2).map_err(short("section name length"))?;
            let name_len = u16::from_le_bytes([name_len[0], name_len[1]]) as usize;
            let name = std::str::from_utf8(r.bytes(name_len).map_err(short("section name"))?)
                .map_err(|_| SnapshotError::Corrupt("section name is not UTF-8".into()))?
                .to_string();
            let payload_len = r.u64().map_err(short("section length"))?;
            let payload_len = usize::try_from(payload_len)
                .map_err(|_| SnapshotError::Corrupt(format!("section {name:?} length overflow")))?;
            let start = data.len() - r.remaining();
            let payload = r.bytes(payload_len).map_err(short("section payload"))?;
            if crc32(payload) != r.u32().map_err(short("section checksum"))? {
                return Err(SnapshotError::ChecksumMismatch { section: name });
            }
            sections.push((name, start..start + payload_len));
        }
        Ok(Snapshot { data, sections })
    }

    /// Names of all sections, in file order.
    pub fn section_names(&self) -> impl Iterator<Item = &str> {
        self.sections.iter().map(|(n, _)| n.as_str())
    }

    /// The verified payload of section `name`.
    pub fn section(&self, name: &str) -> Result<&[u8], SnapshotError> {
        self.sections
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, r)| &self.data[r.clone()])
            .ok_or_else(|| SnapshotError::MissingSection(name.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_dir() -> PathBuf {
        let dir = std::env::temp_dir().join(format!("pace-snap-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn write_read_roundtrip() {
        let path = roundtrip_dir().join("basic.snap");
        let mut w = SnapshotWriter::create(&path).unwrap();
        w.add_section("alpha", b"hello").unwrap();
        w.add_section("beta", &[]).unwrap();
        let declared = w.bytes_written();
        let on_disk = w.finish().unwrap();
        assert_eq!(declared, on_disk);
        assert_eq!(on_disk, std::fs::metadata(&path).unwrap().len());

        let snap = Snapshot::read_file(&path).unwrap();
        assert_eq!(snap.section("alpha").unwrap(), b"hello");
        assert_eq!(snap.section("beta").unwrap(), b"");
        assert_eq!(
            snap.section("gamma").unwrap_err(),
            SnapshotError::MissingSection("gamma".into())
        );
        assert_eq!(snap.section_names().collect::<Vec<_>>(), ["alpha", "beta"]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn no_final_file_until_finish() {
        let path = roundtrip_dir().join("unpublished.snap");
        let _ = std::fs::remove_file(&path);
        let mut w = SnapshotWriter::create(&path).unwrap();
        w.add_section("x", b"y").unwrap();
        assert!(!path.exists(), "file published before finish()");
        w.finish().unwrap();
        assert!(path.exists());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn bad_magic_and_version() {
        assert_eq!(
            Snapshot::parse(b"NOTASNAP\0\0\0\0\0\0\0\0".to_vec()).unwrap_err(),
            SnapshotError::BadMagic
        );
        let mut img = Vec::new();
        img.extend_from_slice(MAGIC);
        img.extend_from_slice(&99u32.to_le_bytes());
        img.extend_from_slice(&0u32.to_le_bytes());
        assert_eq!(
            Snapshot::parse(img).unwrap_err(),
            SnapshotError::UnsupportedVersion(99)
        );
        // An older version is refused too: v1's `cluster_stats` layout
        // no longer decodes.
        let mut v1 = Vec::new();
        v1.extend_from_slice(MAGIC);
        v1.extend_from_slice(&1u32.to_le_bytes());
        v1.extend_from_slice(&0u32.to_le_bytes());
        assert_eq!(
            Snapshot::parse(v1).unwrap_err(),
            SnapshotError::UnsupportedVersion(1)
        );
    }

    #[test]
    fn truncation_at_every_prefix_is_typed() {
        let path = roundtrip_dir().join("trunc.snap");
        let mut w = SnapshotWriter::create(&path).unwrap();
        w.add_section("alpha", b"payload-bytes").unwrap();
        w.add_section("beta", b"more").unwrap();
        w.finish().unwrap();
        let full = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        for cut in 0..full.len() {
            let err = Snapshot::parse(full[..cut].to_vec())
                .expect_err(&format!("prefix of {cut} bytes accepted"));
            assert!(
                matches!(
                    err,
                    SnapshotError::Truncated { .. } | SnapshotError::BadMagic
                ),
                "prefix {cut}: unexpected error {err:?}"
            );
        }
    }

    #[test]
    fn payload_bit_flip_is_checksum_mismatch() {
        let path = roundtrip_dir().join("flip.snap");
        let mut w = SnapshotWriter::create(&path).unwrap();
        w.add_section("alpha", b"sensitive-payload").unwrap();
        w.finish().unwrap();
        let full = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        // The payload occupies a known range; flip each of its bytes.
        let payload_start = 16 + 2 + 5 + 8;
        for i in payload_start..payload_start + 17 {
            let mut img = full.clone();
            img[i] ^= 0x40;
            assert_eq!(
                Snapshot::parse(img).unwrap_err(),
                SnapshotError::ChecksumMismatch {
                    section: "alpha".into()
                },
                "flip at byte {i} undetected"
            );
        }
    }
}
