//! DNA sequence substrate for PaCE.
//!
//! This crate provides everything the rest of the system needs to talk about
//! DNA: the four-letter nucleotide [`alphabet`], [`revcomp`] (reverse
//! complementation, required because a gene may lie on either strand of the
//! double-stranded molecule), a compact 2-bit [`codec`], a minimal
//! [`fasta`] reader/writer, and the [`store::SequenceStore`] — the
//! contiguous, allocation-free container holding all `2n` strings
//! (each EST `e_i` and its reverse complement `ē_i`) that the suffix tree
//! and pair-generation layers index into.
//!
//! The paper denotes the EST set `E = {e_1, …, e_n}` and works over
//! `S = {s_1, …, s_2n}` with `s_{2i-1} = e_i` and `s_{2i} = ē_i`; the types
//! in [`ids`] mirror that numbering exactly.
//!
//! ```
//! use pace_seq::{EstId, SequenceStore, Strand};
//!
//! let store = SequenceStore::from_ests(&[b"ACGGT", b"TTACG"]).unwrap();
//! assert_eq!(store.num_ests(), 2);
//! assert_eq!(store.num_strings(), 4); // each EST + its reverse complement
//!
//! let e0 = EstId(0);
//! assert_eq!(store.seq(e0.str_id(Strand::Forward)), b"ACGGT");
//! assert_eq!(store.seq(e0.str_id(Strand::Reverse)), b"ACCGT");
//! ```

pub mod alphabet;
pub mod codec;
pub mod error;
pub mod fasta;
pub mod ids;
pub mod revcomp;
pub mod stats;
pub mod store;

pub use alphabet::{Base, ALPHABET_SIZE, DNA_BASES};
pub use codec::{PackedDna, PackedSlice, PackedText};
pub use error::SeqError;
pub use fasta::{
    for_each_fasta_record, for_each_fasta_record_with, parse_fasta, parse_fasta_with,
    read_fasta_file, read_fasta_file_with, read_fasta_into_store, write_fasta, write_fasta_file,
    AmbiguityPolicy, FastaRecord,
};
pub use ids::{EstId, StrId, Strand};
pub use revcomp::{complement_base, reverse_complement, reverse_complement_in_place};
pub use stats::{base_composition, gc_content, length_stats, LengthStats};
pub use store::{SequenceStore, SequenceStoreBuilder};
