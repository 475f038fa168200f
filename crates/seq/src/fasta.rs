//! Minimal FASTA parsing and writing.
//!
//! EST repositories (dbEST and friends) distribute sequences as FASTA; this
//! module reads them into memory and writes result sets back out. It is a
//! deliberately small, strict parser: records are `>`-headed, sequences are
//! concatenated across wrapped lines, `\r` is tolerated, and blank lines are
//! skipped.

use crate::alphabet;
use crate::error::SeqError;
use std::io::{BufRead, Write};

/// What to do with IUPAC ambiguity codes (`N`, `R`, `Y`, …) found in a
/// record's sequence.
///
/// The clustering algorithms operate on the strict 4-letter alphabet;
/// a stray `N` that slips through parsing only surfaces much later as
/// an [`SeqError::InvalidBaseAt`] deep inside 2-bit packing or store
/// construction, long after the offending record's identity is gone.
/// The policy decides at *parse time* instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AmbiguityPolicy {
    /// Fail with [`SeqError::AmbiguousBase`] naming the record, byte and
    /// offset. The default: no silent data rewriting.
    #[default]
    Reject,
    /// Map every non-ACGT byte to `A` (see [`sanitize_sequence`]),
    /// keeping positions aligned — the policy real EST data usually
    /// needs.
    Normalize,
}

/// One FASTA record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FastaRecord {
    /// Identifier: the first whitespace-delimited token after `>`.
    pub id: String,
    /// The remainder of the header line, if any.
    pub description: String,
    /// The sequence bytes, upper-cased.
    pub sequence: Vec<u8>,
}

/// Parse all records from a FASTA-formatted string, rejecting IUPAC
/// ambiguity codes (the default [`AmbiguityPolicy`]).
pub fn parse_fasta(input: &str) -> Result<Vec<FastaRecord>, SeqError> {
    parse_fasta_reader(input.as_bytes())
}

/// [`parse_fasta`] under an explicit [`AmbiguityPolicy`].
pub fn parse_fasta_with(
    input: &str,
    policy: AmbiguityPolicy,
) -> Result<Vec<FastaRecord>, SeqError> {
    parse_fasta_reader_with(input.as_bytes(), policy)
}

/// Parse all records from any buffered reader, rejecting IUPAC
/// ambiguity codes (the default [`AmbiguityPolicy`]).
pub fn parse_fasta_reader<R: BufRead>(reader: R) -> Result<Vec<FastaRecord>, SeqError> {
    parse_fasta_reader_with(reader, AmbiguityPolicy::default())
}

/// [`parse_fasta_reader`] under an explicit [`AmbiguityPolicy`].
pub fn parse_fasta_reader_with<R: BufRead>(
    reader: R,
    policy: AmbiguityPolicy,
) -> Result<Vec<FastaRecord>, SeqError> {
    let mut records: Vec<FastaRecord> = Vec::new();
    for_each_fasta_record_with(reader, policy, |rec| {
        records.push(rec);
        Ok(())
    })?;
    Ok(records)
}

fn finalize_record(mut rec: FastaRecord) -> Result<FastaRecord, SeqError> {
    if rec.sequence.is_empty() {
        return Err(SeqError::EmptyFastaRecord { id: rec.id });
    }
    alphabet::normalize_case(&mut rec.sequence);
    Ok(rec)
}

/// Enforce `policy` on a finalized (upper-cased, non-empty) record.
fn apply_policy(rec: &mut FastaRecord, policy: AmbiguityPolicy) -> Result<(), SeqError> {
    match policy {
        AmbiguityPolicy::Reject => {
            if let Some(offset) = rec
                .sequence
                .iter()
                .position(|b| !matches!(b, b'A' | b'C' | b'G' | b'T'))
            {
                return Err(SeqError::AmbiguousBase {
                    byte: rec.sequence[offset],
                    id: std::mem::take(&mut rec.id),
                    offset,
                });
            }
        }
        AmbiguityPolicy::Normalize => {
            sanitize_sequence(&mut rec.sequence);
        }
    }
    Ok(())
}

/// Stream records out of a FASTA reader one at a time, calling `f` as
/// each record completes, without ever holding more than one record in
/// memory. The streaming twin of [`parse_fasta_reader`], for inputs too
/// large to materialize as a `Vec<FastaRecord>`; rejects ambiguity
/// codes like it.
pub fn for_each_fasta_record<R: BufRead>(
    reader: R,
    f: impl FnMut(FastaRecord) -> Result<(), SeqError>,
) -> Result<(), SeqError> {
    for_each_fasta_record_with(reader, AmbiguityPolicy::default(), f)
}

/// [`for_each_fasta_record`] under an explicit [`AmbiguityPolicy`].
pub fn for_each_fasta_record_with<R: BufRead>(
    reader: R,
    policy: AmbiguityPolicy,
    mut f: impl FnMut(FastaRecord) -> Result<(), SeqError>,
) -> Result<(), SeqError> {
    for_each_raw(reader, |mut rec| {
        apply_policy(&mut rec, policy)?;
        f(rec)
    })
}

/// The streaming loop itself: upper-cased, non-empty records, no
/// ambiguity policy applied yet (callers that need to *count*
/// sanitized bytes, like [`read_fasta_into_store`], use this).
fn for_each_raw<R: BufRead>(
    reader: R,
    mut f: impl FnMut(FastaRecord) -> Result<(), SeqError>,
) -> Result<(), SeqError> {
    let mut current: Option<FastaRecord> = None;

    for line in reader.lines() {
        let line = line?;
        let line = line.trim_end_matches('\r');
        if line.is_empty() {
            continue;
        }
        if let Some(header) = line.strip_prefix('>') {
            if let Some(rec) = current.take() {
                f(finalize_record(rec)?)?;
            }
            let mut parts = header.splitn(2, char::is_whitespace);
            let id = parts.next().unwrap_or("").to_string();
            let description = parts.next().unwrap_or("").trim().to_string();
            current = Some(FastaRecord {
                id,
                description,
                sequence: Vec::new(),
            });
        } else {
            let rec = current.as_mut().ok_or(SeqError::MissingFastaHeader)?;
            rec.sequence
                .extend(line.bytes().filter(|b| !b.is_ascii_whitespace()));
        }
    }
    if let Some(rec) = current.take() {
        f(finalize_record(rec)?)?;
    }
    Ok(())
}

/// Stream a FASTA file straight into a
/// [`SequenceStore`](crate::SequenceStore), sanitizing ambiguity codes
/// as records arrive ([`AmbiguityPolicy::Normalize`], deliberately — the
/// out-of-core path is for bulk real-world data and reports how much it
/// rewrote instead of refusing).
///
/// Returns the store, the record ids in input order, and how many bytes
/// were replaced by sanitization. Peak memory is one record plus the
/// store itself — the out-of-core ingest path uses this instead of
/// [`read_fasta_file`] +
/// [`SequenceStore::from_ests`](crate::SequenceStore::from_ests), which
/// holds the input twice.
pub fn read_fasta_into_store(
    path: impl AsRef<std::path::Path>,
) -> Result<(crate::store::SequenceStore, Vec<String>, usize), SeqError> {
    let file = std::fs::File::open(path)?;
    let mut builder = crate::store::SequenceStoreBuilder::new();
    let mut ids = Vec::new();
    let mut replaced = 0usize;
    for_each_raw(std::io::BufReader::new(file), |mut rec| {
        replaced += sanitize_sequence(&mut rec.sequence);
        builder.push_est(&rec.sequence)?;
        ids.push(rec.id);
        Ok(())
    })?;
    Ok((builder.finish(), ids, replaced))
}

/// Replace ambiguity codes (`N`, `R`, …) with a deterministic valid base.
///
/// Real EST data contains IUPAC ambiguity codes; the clustering algorithms
/// operate on the 4-letter alphabet only. Mapping every non-ACGT byte to `A`
/// is the simplest policy that keeps positions aligned; callers that prefer
/// to drop dirty reads can [`alphabet::validate_dna`] first.
pub fn sanitize_sequence(seq: &mut [u8]) -> usize {
    let mut replaced = 0;
    for b in seq.iter_mut() {
        *b = b.to_ascii_uppercase();
        if !matches!(*b, b'A' | b'C' | b'G' | b'T') {
            *b = b'A';
            replaced += 1;
        }
    }
    replaced
}

/// Write records in FASTA format, wrapping sequence lines at `width`.
pub fn write_fasta<W: Write>(
    mut writer: W,
    records: &[FastaRecord],
    width: usize,
) -> Result<(), SeqError> {
    assert!(width > 0, "line width must be positive");
    for rec in records {
        if rec.description.is_empty() {
            writeln!(writer, ">{}", rec.id)?;
        } else {
            writeln!(writer, ">{} {}", rec.id, rec.description)?;
        }
        for chunk in rec.sequence.chunks(width) {
            writer.write_all(chunk)?;
            writeln!(writer)?;
        }
    }
    Ok(())
}

/// Render records to a FASTA string (convenience wrapper).
pub fn to_fasta_string(records: &[FastaRecord], width: usize) -> String {
    let mut buf = Vec::new();
    write_fasta(&mut buf, records, width).expect("writing to Vec cannot fail");
    String::from_utf8(buf).expect("FASTA output is ASCII")
}

/// Parse a FASTA file from disk, rejecting IUPAC ambiguity codes (the
/// default [`AmbiguityPolicy`]).
pub fn read_fasta_file(path: impl AsRef<std::path::Path>) -> Result<Vec<FastaRecord>, SeqError> {
    read_fasta_file_with(path, AmbiguityPolicy::default())
}

/// [`read_fasta_file`] under an explicit [`AmbiguityPolicy`].
pub fn read_fasta_file_with(
    path: impl AsRef<std::path::Path>,
    policy: AmbiguityPolicy,
) -> Result<Vec<FastaRecord>, SeqError> {
    let file = std::fs::File::open(path)?;
    parse_fasta_reader_with(std::io::BufReader::new(file), policy)
}

/// Write records to a FASTA file on disk (line width 70).
pub fn write_fasta_file(
    path: impl AsRef<std::path::Path>,
    records: &[FastaRecord],
) -> Result<(), SeqError> {
    let file = std::fs::File::create(path)?;
    let mut writer = std::io::BufWriter::new(file);
    write_fasta(&mut writer, records, 70)?;
    use std::io::Write as _;
    writer.flush()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_single_record() {
        let recs = parse_fasta(">est1 some description\nACGT\nacgt\n").unwrap();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].id, "est1");
        assert_eq!(recs[0].description, "some description");
        assert_eq!(recs[0].sequence, b"ACGTACGT");
    }

    #[test]
    fn parses_multiple_records_with_blank_lines() {
        let recs = parse_fasta(">a\nAC\n\n>b desc here\nGG\nTT\n\n>c\nA\n").unwrap();
        assert_eq!(recs.len(), 3);
        assert_eq!(recs[1].sequence, b"GGTT");
        assert_eq!(recs[1].description, "desc here");
        assert_eq!(recs[2].sequence, b"A");
    }

    #[test]
    fn tolerates_crlf() {
        let recs = parse_fasta(">a\r\nACGT\r\n").unwrap();
        assert_eq!(recs[0].sequence, b"ACGT");
    }

    #[test]
    fn rejects_headerless_input() {
        assert_eq!(
            parse_fasta("ACGT\n").unwrap_err(),
            SeqError::MissingFastaHeader
        );
    }

    #[test]
    fn rejects_empty_record() {
        let err = parse_fasta(">a\n>b\nACGT\n").unwrap_err();
        assert_eq!(err, SeqError::EmptyFastaRecord { id: "a".into() });
        let err = parse_fasta(">only\n").unwrap_err();
        assert_eq!(err, SeqError::EmptyFastaRecord { id: "only".into() });
    }

    #[test]
    fn roundtrip_write_parse() {
        let recs = vec![
            FastaRecord {
                id: "x".into(),
                description: "first".into(),
                sequence: b"ACGTACGTACGT".to_vec(),
            },
            FastaRecord {
                id: "y".into(),
                description: String::new(),
                sequence: b"TTT".to_vec(),
            },
        ];
        let text = to_fasta_string(&recs, 5);
        let parsed = parse_fasta(&text).unwrap();
        assert_eq!(parsed, recs);
    }

    #[test]
    fn wrapping_at_width() {
        let recs = vec![FastaRecord {
            id: "x".into(),
            description: String::new(),
            sequence: b"ACGTACG".to_vec(),
        }];
        let text = to_fasta_string(&recs, 4);
        assert_eq!(text, ">x\nACGT\nACG\n");
    }

    #[test]
    fn file_roundtrip() {
        let mut path = std::env::temp_dir();
        path.push(format!("pace-fasta-test-{}.fa", std::process::id()));
        let recs = vec![FastaRecord {
            id: "r1".into(),
            description: "roundtrip".into(),
            sequence: b"ACGTACGTACGT".to_vec(),
        }];
        write_fasta_file(&path, &recs).unwrap();
        let parsed = read_fasta_file(&path).unwrap();
        assert_eq!(parsed, recs);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn read_missing_file_errors() {
        let err = read_fasta_file("/nonexistent/x.fa").unwrap_err();
        assert!(matches!(err, SeqError::Io(_)));
    }

    #[test]
    fn ambiguity_codes_are_rejected_at_parse_time_with_identity() {
        // Regression: 'N' used to pass parse_fasta silently and only
        // blow up much later as InvalidBaseAt, with no record identity.
        let err = parse_fasta(">clean\nACGT\n>dirty stuff\nACG\nTNCA\n").unwrap_err();
        assert_eq!(
            err,
            SeqError::AmbiguousBase {
                id: "dirty".into(),
                byte: b'N',
                offset: 4, // ACG + T, then N — offset within the record
            }
        );
        let msg = err.to_string();
        assert!(msg.contains("dirty"), "{msg}");
        assert!(msg.contains("offset 4"), "{msg}");

        // Lower-case ambiguity codes are upper-cased first, so the
        // reported byte is canonical.
        let err = parse_fasta(">x\nacgry\n").unwrap_err();
        assert_eq!(
            err,
            SeqError::AmbiguousBase {
                id: "x".into(),
                byte: b'R',
                offset: 3,
            }
        );
    }

    #[test]
    fn normalize_policy_maps_ambiguity_to_a() {
        let recs = parse_fasta_with(">a\nACNRGT\n", AmbiguityPolicy::Normalize).unwrap();
        assert_eq!(recs[0].sequence, b"ACAAGT");

        // The streaming API honours the same policy.
        let mut seen = Vec::new();
        for_each_fasta_record_with(
            ">a\nACNRGT\n".as_bytes(),
            AmbiguityPolicy::Normalize,
            |rec| {
                seen.push(rec.sequence);
                Ok(())
            },
        )
        .unwrap();
        assert_eq!(seen, vec![b"ACAAGT".to_vec()]);
    }

    #[test]
    fn streaming_reject_names_the_record() {
        let err =
            for_each_fasta_record(">ok\nACGT\n>bad\nANA\n".as_bytes(), |_| Ok(())).unwrap_err();
        assert!(matches!(err, SeqError::AmbiguousBase { ref id, .. } if id == "bad"));
    }

    #[test]
    fn into_store_still_normalizes_and_counts() {
        let mut path = std::env::temp_dir();
        path.push(format!("pace-fasta-ambig-{}.fa", std::process::id()));
        std::fs::write(&path, ">a\nACNT\n>b\nRGGT\n").unwrap();
        let (store, ids, replaced) = read_fasta_into_store(&path).unwrap();
        assert_eq!(ids, vec!["a".to_string(), "b".to_string()]);
        assert_eq!(replaced, 2);
        assert_eq!(store.num_ests(), 2);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn sanitize_replaces_ambiguity_codes() {
        let mut s = b"ACNRGT".to_vec();
        let replaced = sanitize_sequence(&mut s);
        assert_eq!(replaced, 2);
        assert_eq!(s, b"ACAAGT");
    }

    #[test]
    fn sanitize_uppercases() {
        let mut s = b"acgt".to_vec();
        assert_eq!(sanitize_sequence(&mut s), 0);
        assert_eq!(s, b"ACGT");
    }
}
