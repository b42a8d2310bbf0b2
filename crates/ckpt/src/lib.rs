//! Deterministic checkpoint/restart for QMC runs.
//!
//! A 1993-scale machine loses nodes mid-run; a trajectory that cannot be
//! resumed is a trajectory lost. This crate provides the serialization
//! substrate: a [`Checkpoint`] trait over a versioned, length-prefixed
//! binary wire format (schema [`SCHEMA`]) with per-section CRC32, an
//! on-disk [`CkptStore`] (each generation one in-place write into a
//! recycled slot file, retain last K, fall back past torn or CRC-bad
//! generations), rank-0-coordinated [`coord`] write/restore over any
//! [`qmc_comm::Communicator`], the one sweep-boundary run loop,
//! [`drive`], that every checkpointed driver shares, the one serial
//! engine interface, [`Engine`], with the one loop that runs it,
//! [`run_engine`], and the one
//! `rows/k` + `head` protocol, [`chunk`], that every append-only
//! measurement series is sectioned by.
//!
//! The bytes are written with the workspace's one codec,
//! [`qmc_comm::wire`] ([`Encoder`] / [`Decoder`] here); a codec error
//! becomes the [`CkptError`] of the same name.
//!
//! What the store promises: a process killed anywhere inside a commit
//! leaves every generation the directory held before it loadable, because
//! a commit only overwrites a slot the retain rule no longer keeps and a
//! half-written slot lacks its end mark; nothing is fsynced (the promise
//! is against a killed process, not a power cut); one writer per
//! directory. See [`CkptStore`]'s module for the slot layout.
//!
//! The contract every implementor must honor: after `save` → `load` into
//! a freshly constructed value, the resumed object continues the
//! *identical* fixed-seed trajectory, bit for bit, as one that was never
//! interrupted. RNG state, engine spins, operator strings, accumulated
//! series, and acceptance counters all therefore round-trip exactly.

mod crc32;
mod drive;
mod error;
mod file;
mod store;

pub mod chunk;
pub mod coord;
pub mod delta;
pub mod registry;

pub use crc32::crc32;
pub use delta::{RawCkpt, SectionData, SectionPlan, SCHEMA_V2};
pub use drive::{drive, read_meta, run_engine, write_meta, Cadence, End, Engine, Policy};
pub use error::CkptError;
pub use file::{CkptFile, SCHEMA};
pub use qmc_comm::wire::{Decoder, Encoder};
pub use store::{namespace_key, CkptStore};

/// Named sections of a [`Checkpoint`] value with a changed-since-last-
/// snapshot flag per section, in a canonical order the save and restore
/// paths both follow. Produced by [`Checkpoint::dirty_sections`].
#[derive(Debug, Clone, Default)]
pub struct DirtySections {
    entries: Vec<(String, bool)>,
}

impl DirtySections {
    /// Empty section list.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a section; `dirty` marks it changed since the last
    /// [`Checkpoint::mark_clean`].
    pub fn push(&mut self, name: impl Into<String>, dirty: bool) {
        self.entries.push((name.into(), dirty));
    }

    /// Section list where every named section is always dirty.
    pub fn always(names: &[&str]) -> Self {
        Self {
            entries: names.iter().map(|n| (n.to_string(), true)).collect(),
        }
    }

    /// `(name, dirty)` pairs in canonical order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, bool)> {
        self.entries.iter().map(|(n, d)| (n.as_str(), *d))
    }

    /// Number of sections.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no sections are listed.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// State that can be snapshotted into the `qmc-ckpt/v1` wire format and
/// restored bit-exactly into a freshly constructed value of the same
/// shape (same lattice size, same RNG kind, …).
///
/// The sectioned methods (`dirty_sections` / `save_section` /
/// `load_section` / `mark_clean`) power incremental (delta)
/// checkpointing: a value splits its state into named sections and
/// reports which of them changed since the last successful snapshot, so
/// a delta file can store unchanged sections as 8-byte base references
/// (see [`delta`]). The defaults expose the whole state as a single
/// always-dirty `"state"` section, which keeps every existing
/// implementation correct (just never smaller than a full snapshot).
///
/// A type writes one of the two groups by hand and derives the other. A
/// small value (a generator, an accumulator) writes `save` / `load` and
/// takes the sectioned defaults. A sectioned value writes the four
/// sectioned methods, with every restore check in `load_section`, and its
/// `save` / `load` are the one-line calls [`save_sections_in_order`] /
/// [`load_sections_in_order`]. Only a value whose whole-blob layout
/// predates its sections and orders the fields differently — the three
/// [`chunk`]ed series — or whose
/// sections can only be judged together — SSE's operator string against
/// the basis state it arrives with — writes both, sharing each check as
/// one function.
pub trait Checkpoint {
    /// Stable type tag written ahead of the payload; `load` rejects a
    /// payload whose tag does not match (e.g. resuming an SSE run with
    /// a worldline checkpoint).
    fn kind(&self) -> &'static str;

    /// Append this value's state to `enc`.
    fn save(&self, enc: &mut Encoder);

    /// Overwrite `self` from `dec`. Implementations validate structural
    /// parameters (lattice sizes, table lengths) before mutating and
    /// return [`CkptError::Corrupt`] on mismatch.
    fn load(&mut self, dec: &mut Decoder) -> Result<(), CkptError>;

    /// Named sections with changed-since-last-snapshot flags. A flag may
    /// be conservatively `true` for an unchanged section (costs bytes,
    /// never correctness); a `false` flag for a changed section would
    /// silently resurrect stale state on restore, so implementations
    /// must only clear flags in mutation-free paths.
    fn dirty_sections(&self) -> DirtySections {
        DirtySections::always(&["state"])
    }

    /// Serialize one named section from [`Checkpoint::dirty_sections`].
    /// Panics on an unknown name (caller bug, not external input).
    fn save_section(&self, name: &str, enc: &mut Encoder) {
        assert_eq!(
            name,
            "state",
            "{} has no checkpoint section {name:?}",
            self.kind()
        );
        self.save(enc);
    }

    /// Restore one named section. Sections arrive in the order
    /// [`Checkpoint::save_section`] wrote them (file order).
    fn load_section(&mut self, name: &str, dec: &mut Decoder) -> Result<(), CkptError> {
        if name != "state" {
            return Err(CkptError::MissingSection {
                name: name.to_string(),
            });
        }
        self.load(dec)
    }

    /// Every section has just been captured in a successful snapshot (or
    /// restored from one): reset all dirty flags. Callers must only
    /// invoke this after the write is durably on disk — clearing flags
    /// for a failed write corrupts the next delta.
    fn mark_clean(&mut self) {}
}

/// Serialize one [`Checkpoint`] value to a standalone byte vector
/// (kind tag + length-prefixed body).
pub fn save_state(state: &impl Checkpoint) -> Vec<u8> {
    let mut enc = Encoder::new();
    write_state(&mut enc, state);
    enc.into_bytes()
}

/// Restore one [`Checkpoint`] value from bytes produced by
/// [`save_state`], requiring the payload to be fully consumed.
pub fn load_state(bytes: &[u8], state: &mut impl Checkpoint) -> Result<(), CkptError> {
    let mut dec = Decoder::new(bytes);
    read_state(&mut dec, state)?;
    Ok(dec.expect_empty()?)
}

/// Append a nested [`Checkpoint`] state to `enc`: kind tag +
/// length-prefixed body, so the reader can verify type and skip on error.
pub fn write_state(enc: &mut Encoder, state: &impl Checkpoint) {
    enc.str(state.kind());
    enc.prefixed(|body| state.save(body));
}

/// Read a nested state written by [`write_state`]: verifies the kind tag
/// against `target.kind()`, then hands `target.load` a sub-decoder that
/// must consume the body exactly.
pub fn read_state(dec: &mut Decoder, target: &mut impl Checkpoint) -> Result<(), CkptError> {
    let mut sub = kinded_body(dec, target.kind())?;
    target.load(&mut sub)?;
    Ok(sub.expect_empty()?)
}

/// A reader over the body of a kind tag + length-prefixed body, after
/// checking that the tag is `kind`.
fn kinded_body<'a>(dec: &mut Decoder<'a>, kind: &str) -> Result<Decoder<'a>, CkptError> {
    let found = dec.str()?;
    if found != kind {
        return Err(CkptError::KindMismatch {
            expected: kind.to_string(),
            found,
        });
    }
    Ok(Decoder::new(dec.bytes()?))
}

/// Serialize section `name` of `state` as a standalone byte vector:
/// kind tag + length-prefixed section body (the sectioned counterpart of
/// [`save_state`], so type mismatches are still caught per section).
pub fn save_section_bytes(state: &impl Checkpoint, name: &str) -> Vec<u8> {
    let mut enc = Encoder::new();
    write_section(&mut enc, state, name);
    enc.into_bytes()
}

/// Append the bytes [`save_section_bytes`] returns to `enc`.
pub(crate) fn write_section(enc: &mut Encoder, state: &impl Checkpoint, name: &str) {
    enc.str(state.kind());
    enc.prefixed(|body| state.save_section(name, body));
}

/// `state`'s sections in [`Checkpoint::dirty_sections`] order, each with
/// whether a write carries its bytes: every section of a full write, the
/// dirty ones of a delta (a clean one is a base reference, never
/// serialized).
pub(crate) fn written_sections(
    state: &impl Checkpoint,
    delta: bool,
) -> impl Iterator<Item = (String, bool)> {
    let sections = state.dirty_sections().entries;
    sections
        .into_iter()
        .map(move |(name, dirty)| (name, dirty || !delta))
}

/// Restore section `name` of `state` from bytes produced by
/// [`save_section_bytes`], verifying the kind tag and requiring the body
/// to be fully consumed.
pub fn load_section_bytes(
    bytes: &[u8],
    name: &str,
    state: &mut impl Checkpoint,
) -> Result<(), CkptError> {
    let mut dec = Decoder::new(bytes);
    let mut sub = kinded_body(&mut dec, state.kind())?;
    dec.expect_empty()?;
    state.load_section(name, &mut sub)?;
    Ok(sub.expect_empty()?)
}

/// [`Checkpoint::save`] of a value whose whole-blob body is its section
/// bodies concatenated in [`Checkpoint::dirty_sections`] order. Not for a
/// value that takes the default `save_section`, which calls `save`, nor
/// for one whose section list depends on what is being restored (a
/// [`chunk`]ed series has as many `rows/k` as its length asks for).
pub fn save_sections_in_order(state: &impl Checkpoint, enc: &mut Encoder) {
    for (name, _) in state.dirty_sections().iter() {
        state.save_section(name, enc);
    }
}

/// [`Checkpoint::load`] counterpart of [`save_sections_in_order`]: every
/// check is the one `load_section` makes, and the sections it restores
/// come back dirty, as they are absent from any delta base.
pub fn load_sections_in_order(
    state: &mut impl Checkpoint,
    dec: &mut Decoder,
) -> Result<(), CkptError> {
    for (name, _) in state.dirty_sections().iter() {
        state.load_section(name, dec)?;
    }
    Ok(())
}

/// Append `state`'s sections to a write plan under `prefix/…` names.
/// When `delta` is set, clean sections are planned as base references
/// (no payload serialized at all); otherwise every section is a payload.
pub fn plan_sections(
    plan: &mut Vec<(String, SectionPlan)>,
    prefix: &str,
    state: &impl Checkpoint,
    delta: bool,
) {
    for (name, written) in written_sections(state, delta) {
        let section = if written {
            SectionPlan::Payload(save_section_bytes(state, &name))
        } else {
            SectionPlan::Clean
        };
        plan.push((format!("{prefix}/{name}"), section));
    }
}

/// Restore `state` from whichever layout a materialized file holds
/// under `prefix`: every sectioned `prefix/…` entry in file order, or one
/// legacy monolithic `prefix` section (files written before the sectioned
/// format). The legacy path leaves `state` dirty, so the next write
/// degrades to a full snapshot instead of a delta referencing section
/// names that file never carried. Errors if the file holds neither.
pub fn restore_sections(
    file: &CkptFile,
    prefix: &str,
    state: &mut impl Checkpoint,
) -> Result<(), CkptError> {
    if file.get(prefix).is_some() {
        return file.restore(prefix, state);
    }
    let p = format!("{prefix}/");
    let mut found = false;
    for (name, payload) in file.sections() {
        if let Some(rest) = name.strip_prefix(p.as_str()) {
            found = true;
            load_section_bytes(payload, rest, state)?;
        }
    }
    if !found {
        return Err(CkptError::MissingSection {
            name: format!("{prefix}/*"),
        });
    }
    state.mark_clean();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Toy {
        a: u64,
        b: Vec<f64>,
    }

    impl Checkpoint for Toy {
        fn kind(&self) -> &'static str {
            "test.toy"
        }
        fn save(&self, enc: &mut Encoder) {
            enc.u64(self.a);
            enc.f64s(&self.b);
        }
        fn load(&mut self, dec: &mut Decoder) -> Result<(), CkptError> {
            self.a = dec.u64()?;
            self.b = dec.f64s()?;
            Ok(())
        }
    }

    #[test]
    fn state_round_trips() {
        let orig = Toy {
            a: 42,
            b: vec![1.5, -0.0, f64::MIN_POSITIVE],
        };
        let bytes = save_state(&orig);
        let mut back = Toy { a: 0, b: vec![] };
        load_state(&bytes, &mut back).unwrap();
        assert_eq!(back.a, 42);
        assert_eq!(
            back.b.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            orig.b.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn kind_mismatch_is_rejected() {
        struct Other;
        impl Checkpoint for Other {
            fn kind(&self) -> &'static str {
                "test.other"
            }
            fn save(&self, _: &mut Encoder) {}
            fn load(&mut self, _: &mut Decoder) -> Result<(), CkptError> {
                Ok(())
            }
        }
        let bytes = save_state(&Other);
        let mut toy = Toy { a: 0, b: vec![] };
        assert!(matches!(
            load_state(&bytes, &mut toy),
            Err(CkptError::KindMismatch { .. })
        ));
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = save_state(&Toy { a: 1, b: vec![] });
        bytes.push(0);
        let mut back = Toy { a: 0, b: vec![] };
        assert!(load_state(&bytes, &mut back).is_err());
    }
}
