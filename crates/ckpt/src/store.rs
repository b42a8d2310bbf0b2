//! Generation-numbered checkpoint storage with delta chains, written in
//! place into recycled slot files.
//!
//! A generation's v1/v2 image sits in `slot-<n>.qckpt` between a fixed
//! 36-byte header — magic `QMCSLOT\0`, the directory's write counter
//! `seq`, the generation, the image length and a CRC over those — and a
//! 4-byte end mark that repeats the header's CRC. Bytes past the mark
//! are ignored, so a shorter occupant needs no truncate. What a
//! directory *holds* is decided by one pure rule ([`kept`]) over what its
//! files say: the newest `retain` generations in write order —
//! `(seq, generation)`, not generation number — plus every base a kept
//! delta references, the higher `seq` winning when one generation sits
//! in two places. Every reader ([`CkptStore::generations`],
//! [`CkptStore::load`], [`CkptStore::latest`], a fresh store on another
//! rank) scans the disk and applies that rule with its own `retain`; a
//! slot whose occupant the rule does not keep is free space.
//!
//! A commit is therefore one in-place write: the writer keeps the
//! directory's table in memory (one scan, at its first write or
//! restore), overwrites a slot the rule does not keep, and creates
//! `slot-<max+1>` only when there is none — `retain` + chain depth + 1
//! files, then never again. No temp file, rename, unlink or directory
//! read per commit.
//!
//! **What a kill can leave behind.** Only a slot the rule does not keep
//! is ever overwritten, so a process killed anywhere inside a commit
//! leaves every kept generation loadable and [`CkptStore::latest`]
//! returns the newest of them. The slot being written is torn — a
//! prefix of the new bytes, the previous occupant's after them — and
//! fails its header CRC or lacks the end mark, which is the last thing a
//! write puts down; it is then free space again. The image's own CRCs
//! cannot stand in for the mark: a section is followed by its CRC, and a
//! CRC summed over `payload ‖ crc(payload)` no longer depends on the
//! payload, so two generations of one shape close with the *same*
//! whole-file CRC and a splice of them at a section boundary passes
//! every check of the image format (the unit test
//! `a_splice_of_two_generations_passes_as_an_image_but_not_as_a_slot`
//! shows it). Nothing is fsynced, here or before: the guarantee is
//! against a killed process, not a lost power supply. One writer per
//! directory: the table is not re-read between commits, so two stores
//! committing into one directory overwrite each other's generations.
//!
//! Legacy `ckpt-<generation>.qckpt` files (temp + rename, older builds)
//! are still listed, loaded and used as delta bases, as `seq` 0, and are
//! unlinked once the rule drops them; they are never written.
//!
//! **One writer.** Every generation goes the same way: a
//! [`RankSections`] frames the sections into a fragment, `write_fragments`
//! puts an image header and trailer around the fragments and `commit`
//! writes the slot. A serial store frames one fragment
//! ([`CkptStore::write_sections`]; [`CkptStore::write`] and
//! [`CkptStore::write_plan`] are adapters over it), a coordinated commit
//! one per rank ([`crate::coord`]). A serial delta resolves against the
//! store's own [`DeltaBase`] — the section index (name, CRC32, length)
//! of the last generation it wrote or restored — which also decides
//! full-vs-delta *before* anything is serialized: a clean section of a
//! delta is never serialized at all, which is the entire point of
//! incremental checkpointing.

use crate::coord::{DeltaBase, RankSections};
use crate::crc32::crc32;
use crate::delta::{peek_base, RawCkpt, SectionPlan};
use crate::file::{fragments_frame, CkptFile, Format, Fragment, SectionIndex};
use crate::CkptError;
use std::cmp::Reverse;
use std::fs;
use std::io::{IoSlice, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

const EXT: &str = "qckpt";

const SLOT_MAGIC: &[u8; 8] = b"QMCSLOT\0";
/// Magic, `seq`, generation, image length (8 bytes each) and the CRC of
/// those 32 bytes.
const SLOT_HEADER_LEN: usize = 36;
/// The header's CRC once more, after the image.
const SLOT_MARK_LEN: usize = 4;

/// The fixed header in front of a slot's image.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SlotHeader {
    seq: u64,
    generation: u64,
    image_len: u64,
}

impl SlotHeader {
    /// Write the header into `out` and return its CRC, the end mark.
    fn encode(&self, out: &mut [u8]) -> [u8; SLOT_MARK_LEN] {
        out[..8].copy_from_slice(SLOT_MAGIC);
        out[8..16].copy_from_slice(&self.seq.to_le_bytes());
        out[16..24].copy_from_slice(&self.generation.to_le_bytes());
        out[24..32].copy_from_slice(&self.image_len.to_le_bytes());
        let mark = crc32(&out[..32]).to_le_bytes();
        out[32..SLOT_HEADER_LEN].copy_from_slice(&mark);
        mark
    }

    fn decode(bytes: &[u8]) -> Option<(Self, &[u8])> {
        let head = bytes.get(..SLOT_HEADER_LEN)?;
        let u64_at = |i: usize| u64::from_le_bytes(head[i..i + 8].try_into().expect("8 bytes"));
        let mark = &head[32..];
        (&head[..8] == SLOT_MAGIC && crc32(&head[..32]).to_le_bytes() == mark).then(|| {
            let header = Self {
                seq: u64_at(8),
                generation: u64_at(16),
                image_len: u64_at(24),
            };
            (header, mark)
        })
    }
}

/// The header and image of a slot file's occupant, or `None` for a slot
/// that holds none: bad header, stated length not present, or no end
/// mark after the image — the write that put the header there did not
/// get to its last byte (new header, the previous occupant's bytes
/// further on). The image's own CRCs are checked by whoever parses it.
fn slot_image(bytes: &[u8]) -> Option<(SlotHeader, &[u8])> {
    let (header, mark) = SlotHeader::decode(bytes)?;
    let end = SLOT_HEADER_LEN.checked_add(usize::try_from(header.image_len).ok()?)?;
    let image = bytes.get(SLOT_HEADER_LEN..end)?;
    (bytes.get(end..end.checked_add(SLOT_MARK_LEN)?)? == mark).then_some((header, image))
}

/// `write_all` over `bufs` in order, with as few writes as the file
/// takes (one, for a regular file).
fn write_all_vectored(file: &mut fs::File, mut bufs: &mut [IoSlice<'_>]) -> std::io::Result<()> {
    while !bufs.is_empty() {
        match file.write_vectored(bufs) {
            Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
            Ok(n) => IoSlice::advance_slices(&mut bufs, n),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Where a generation's image lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Place {
    /// `ckpt-<generation>.qckpt`, written by an older build.
    Legacy,
    /// `slot-<n>.qckpt`.
    Slot(u32),
}

/// One generation a directory holds, as far as the retain rule needs to
/// know it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Entry {
    place: Place,
    /// Position in the directory's write order (0 for legacy files).
    seq: u64,
    generation: u64,
    /// Base generation a delta image references.
    base: Option<u64>,
}

/// What a directory's files say.
#[derive(Debug, Default)]
struct Table {
    entries: Vec<Entry>,
    /// Slot files with no occupant: torn, unreadable, or a failed write.
    free: Vec<u32>,
}

impl Table {
    fn next_slot(&self) -> u32 {
        let used = self.entries.iter().filter_map(|e| match e.place {
            Place::Slot(n) => Some(n),
            Place::Legacy => None,
        });
        used.chain(self.free.iter().copied())
            .max()
            .map_or(0, |n| n + 1)
    }
}

/// Index of the entry that speaks for `generation`: the one written last
/// when it sits in two places (a re-write).
fn live(entries: &[Entry], generation: u64) -> Option<usize> {
    (0..entries.len())
        .filter(|&i| entries[i].generation == generation)
        .max_by_key(|&i| (entries[i].seq, entries[i].place))
}

/// The retain rule — indices into `entries`, newest first in write order:
/// the newest `retain` live generations by `(seq, generation)`, so a run
/// that starts over at generation 2 beside another run's 100..103 is
/// newer than they are, plus, transitively, every base a kept delta
/// references. An entry shadowed by a later write of its generation is
/// never kept.
fn kept(entries: &[Entry], retain: usize) -> Vec<usize> {
    let newest_first = |v: &mut Vec<usize>| {
        v.sort_unstable_by_key(|&i| Reverse((entries[i].seq, entries[i].generation)))
    };
    let mut frontier: Vec<usize> = (0..entries.len())
        .filter(|&i| live(entries, entries[i].generation) == Some(i))
        .collect();
    newest_first(&mut frontier);
    frontier.truncate(retain);
    let mut keep = Vec::with_capacity(entries.len());
    while let Some(i) = frontier.pop() {
        if !keep.contains(&i) {
            keep.push(i);
            frontier.extend(entries[i].base.and_then(|b| live(entries, b)));
        }
    }
    newest_first(&mut keep);
    keep
}

/// File name of the image at `place` (`generation` names a legacy file).
fn file_name(place: Place, generation: u64) -> String {
    match place {
        Place::Slot(n) => format!("slot-{n}.{EXT}"),
        Place::Legacy => format!("ckpt-{generation:010}.{EXT}"),
    }
}

/// `<number>` of a `<prefix><number>.qckpt` file name.
fn numbered<T: std::str::FromStr>(name: &str, prefix: &str) -> Option<T> {
    let number = name.strip_prefix(prefix)?.strip_suffix(EXT)?;
    number.strip_suffix('.')?.parse().ok()
}

/// Read `dir` into a [`Table`]. Only names [`file_name`] would give are
/// slots or legacy files; a legacy file is listed by name, as it always
/// was.
fn scan(dir: &Path) -> Table {
    let mut table = Table::default();
    for entry in fs::read_dir(dir).into_iter().flatten().flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let read = || fs::read(entry.path()).unwrap_or_default();
        let slot = numbered(name, "slot-").filter(|&n| file_name(Place::Slot(n), 0) == name);
        let legacy = numbered(name, "ckpt-").filter(|&g| file_name(Place::Legacy, g) == name);
        if let Some(n) = slot {
            match slot_image(&read()) {
                Some((header, image)) => table.entries.push(Entry {
                    place: Place::Slot(n),
                    seq: header.seq,
                    generation: header.generation,
                    base: peek_base(image),
                }),
                None => table.free.push(n),
            }
        } else if let Some(generation) = legacy {
            table.entries.push(Entry {
                place: Place::Legacy,
                seq: 0,
                generation,
                base: peek_base(&read()),
            });
        }
    }
    table.free.sort_unstable();
    table
}

/// Map one namespace segment onto a safe directory name: keep
/// `[A-Za-z0-9._-]`, replace the rest with `_`, and turn anything that
/// could still walk the tree (empty, `.`, `..`, or a segment that lost
/// all its identity to `_`) into a CRC-derived token that is stable for
/// a given input but cannot escape the root.
pub(crate) fn sanitize_segment(segment: &str) -> String {
    let mapped: String = segment
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-') {
                c
            } else {
                '_'
            }
        })
        .collect();
    let degenerate =
        mapped.is_empty() || mapped.chars().all(|c| matches!(c, '.' | '_')) || mapped.len() > 128;
    if degenerate {
        format!("ns-{:08x}", crate::crc32::crc32(segment.as_bytes()))
    } else {
        mapped
    }
}

/// The canonical on-disk key of a `/`-separated namespace: each segment
/// sanitized exactly as [`CkptStore::open_namespace`] would, re-joined
/// with `/`. Two names with equal keys share a checkpoint directory —
/// admission layers use this to reject namespace collisions *before*
/// two live jobs can resume each other's generations.
pub fn namespace_key(name: &str) -> String {
    name.split('/')
        .map(sanitize_segment)
        .collect::<Vec<_>>()
        .join("/")
}

/// What the one writer of a directory remembers between commits.
#[derive(Default)]
pub(crate) struct Writer {
    /// The directory as of this store's last scan plus its own commits;
    /// `None` until the first write or restore.
    table: Option<Table>,
    /// What the store's serial deltas are written against.
    base: DeltaBase,
}

/// A directory of `slot-<n>.qckpt` files holding the last K generations
/// (plus any older base a retained delta still needs).
pub struct CkptStore {
    dir: PathBuf,
    retain: usize,
    writer: Mutex<Writer>,
    written: AtomicU64,
}

impl CkptStore {
    /// Open (creating if needed) a store in `dir`, keeping at most
    /// `retain` generations (minimum 1).
    pub fn new(dir: impl Into<PathBuf>, retain: usize) -> std::io::Result<Self> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        let store = Self {
            dir,
            retain: retain.max(1),
            writer: Mutex::new(Writer::default()),
            written: AtomicU64::new(0),
        };
        store.gc_temp_files();
        Ok(store)
    }

    /// Open (creating if needed) a store in a named subdirectory of
    /// `root` — the per-job namespacing the job server uses, where every
    /// job checkpoints under `<root>/<tenant>/<job>` without colliding.
    ///
    /// Each `/`-separated segment of `name` is sanitized to
    /// `[A-Za-z0-9._-]` (anything else maps to `_`), and path-escape
    /// segments (empty, `.`, `..`, or all-underscores after mapping) are
    /// replaced with a hash-derived token, so a hostile job name cannot
    /// climb out of `root`.
    pub fn open_namespace(
        root: impl Into<PathBuf>,
        name: &str,
        retain: usize,
    ) -> std::io::Result<Self> {
        let mut dir = root.into();
        for segment in name.split('/') {
            dir.push(sanitize_segment(segment));
        }
        Self::new(dir, retain)
    }

    /// Remove the hidden temp files an older build's writer left behind
    /// when it died between its temp write and its rename. No writer
    /// makes them any more, so every one is an orphan. Best-effort
    /// (unlink errors are ignored); returns how many were removed.
    pub fn gc_temp_files(&self) -> usize {
        let mut removed = 0;
        for entry in fs::read_dir(&self.dir).into_iter().flatten().flatten() {
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if name.starts_with(".ckpt-")
                && name.ends_with(&format!(".{EXT}.tmp"))
                && fs::remove_file(entry.path()).is_ok()
            {
                removed += 1;
            }
        }
        removed
    }

    /// Directory this store writes into.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Total bytes this store instance has handed to the file system
    /// (slot headers and full and delta images alike); the
    /// `ckpt_delta_bytes` bench guard reads this.
    pub fn bytes_written(&self) -> u64 {
        self.written.load(Ordering::Relaxed)
    }

    fn path_of(&self, place: Place, generation: u64) -> PathBuf {
        self.dir.join(file_name(place, generation))
    }

    pub(crate) fn writer(&self) -> MutexGuard<'_, Writer> {
        self.writer
            .lock()
            .expect("checkpoint writer state poisoned")
    }

    /// Commit the image that `parts` make in order as `generation` with
    /// one in-place (vectored) write of slot header, parts and end mark.
    ///
    /// The slot is one the retain rule, applied to what is committed so
    /// far, does not keep (a free one first, else the oldest unkept
    /// occupant), or a new file when every slot is kept. The generation
    /// being written displaces nothing until it has landed, and its own
    /// base is the delta base, which the rule keeps: a kill mid-write
    /// costs only the slot. A failed write returns the error and leaves
    /// the slot without an occupant.
    fn commit(
        &self,
        writer: &mut Writer,
        generation: u64,
        base: Option<u64>,
        parts: &[&[u8]],
    ) -> std::io::Result<PathBuf> {
        let table = writer.table.get_or_insert_with(|| scan(&self.dir));
        let seq = table.entries.iter().map(|e| e.seq).max().unwrap_or(0) + 1;
        let image_len: usize = parts.iter().map(|p| p.len()).sum();
        let header = SlotHeader {
            seq,
            generation,
            image_len: image_len as u64,
        };
        let mut head = [0; SLOT_HEADER_LEN];
        let mark = header.encode(&mut head);
        let mut bytes = Vec::with_capacity(parts.len() + 2);
        bytes.push(IoSlice::new(&head));
        bytes.extend(parts.iter().map(|p| IoSlice::new(p)));
        bytes.push(IoSlice::new(&mark));
        let written = (SLOT_HEADER_LEN + image_len + SLOT_MARK_LEN) as u64;

        let keep = kept(&table.entries, self.retain);
        let oldest_unkept = table
            .entries
            .iter()
            .enumerate()
            .filter_map(|(i, e)| match e.place {
                Place::Slot(n) if !keep.contains(&i) => Some((e.seq, i, n)),
                _ => None,
            });
        // From here the slot holds nothing the table may count on.
        let (slot, exists) = if !table.free.is_empty() {
            (table.free.remove(0), true)
        } else if let Some((_, i, n)) = oldest_unkept.min() {
            table.entries.remove(i);
            (n, true)
        } else {
            (table.next_slot(), false)
        };
        let path = self.path_of(Place::Slot(slot), generation);
        let mut open = fs::OpenOptions::new();
        if exists {
            open.write(true);
        } else {
            open.write(true).create_new(true);
        }
        // A slot that cannot be opened is not this store's to use (it
        // stays out of the table); one that took a short write is free.
        let mut file = open.open(&path)?;
        if let Err(e) = write_all_vectored(&mut file, &mut bytes) {
            table.free.push(slot);
            table.free.sort_unstable();
            return Err(e);
        }
        drop(file);
        table.entries.push(Entry {
            place: Place::Slot(slot),
            seq,
            generation,
            base,
        });
        qmc_obs::counter_add("ckpt.write_bytes", written);
        self.written.fetch_add(written, Ordering::Relaxed);

        // Legacy files leave as the rule drops them; a directory without
        // any (the steady state) is not touched.
        if table.entries.iter().any(|e| e.place == Place::Legacy) {
            let keep = kept(&table.entries, self.retain);
            for i in (0..table.entries.len()).rev() {
                let e = table.entries[i];
                if e.place == Place::Legacy && !keep.contains(&i) {
                    let _ = fs::remove_file(self.path_of(e.place, e.generation));
                    table.entries.remove(i);
                }
            }
        }
        Ok(path)
    }

    /// Write generation `generation` from the sections `build` frames
    /// into the [`RankSections`] it is handed: a delta on the store's
    /// base unless `want_full`, the base is missing or it is not older
    /// than `generation` (then every section is written), and a v1 full
    /// image when no section is a base reference. A clean section the
    /// commit cannot hold is an error and writes nothing. On success the
    /// generation becomes the base; a failed write leaves the base where
    /// it was. See the module doc for what a kill mid-write leaves, and
    /// for `ckpt.write_bytes`. Returns the slot file's path. `build` runs
    /// with the store's writer held, so it must not call into the store.
    pub fn write_sections(
        &self,
        generation: u64,
        want_full: bool,
        build: impl FnOnce(&mut RankSections<'_>),
    ) -> std::io::Result<PathBuf> {
        let mut writer = self.writer();
        let on = writer.base.delta_on(generation, want_full);
        let mut sections = RankSections::new(String::new(), &writer.base, on);
        build(&mut sections);
        let (enc, crc, tagged, index) = sections.finish().map_err(std::io::Error::other)?;
        let part = Fragment {
            bytes: enc.written(),
            sections: index.len() as u64,
            crc,
        };
        let base = on.filter(|_| tagged);
        self.write_fragments(&mut writer, generation, base, &[part], Some(index))
    }

    /// Write `file` as a full generation `generation`
    /// ([`CkptStore::write_sections`]).
    pub fn write(&self, generation: u64, file: &CkptFile) -> std::io::Result<PathBuf> {
        // lint: allow(ckpt-unbounded-chain) — a full write bounds any chain
        self.write_sections(generation, true, |s| {
            file.sections()
                .for_each(|(name, p)| s.payload(name, |enc| enc.raw(p)))
        })
    }

    /// Generation the store's next delta would be written against, if it
    /// has one: the last generation this instance successfully wrote or
    /// restored.
    pub fn delta_base(&self) -> Option<u64> {
        self.writer().base.generation()
    }

    /// Write a planned generation ([`CkptStore::write_sections`]): a delta
    /// on the store's base when `delta` is set, else a full snapshot.
    /// `delta` must come from a [`CkptStore::delta_base`] check made
    /// before the plan was built, so clean sections were never
    /// serialized.
    pub fn write_plan(
        &self,
        generation: u64,
        plan: Vec<(String, SectionPlan)>,
        delta: bool,
    ) -> std::io::Result<PathBuf> {
        // lint: allow(ckpt-unbounded-chain) — the caller's cadence bounds the chain
        self.write_sections(generation, !delta, |s| s.plan(plan))
    }

    /// Commit `parts` in order between an image header and its trailer
    /// as generation `generation`: a v2 delta on `base` or, with `base`
    /// `None`, a v1 full image. The image's CRC comes from the parts';
    /// nothing in them is summed again. Every generation the store
    /// writes comes through here. On success `index`, the sections the
    /// parts stand for, makes the generation the store's delta base;
    /// rank 0 of a coordinated commit, which frames other ranks' sections
    /// it does not index, passes `None` and leaves the store none.
    pub(crate) fn write_fragments(
        &self,
        writer: &mut Writer,
        generation: u64,
        base: Option<u64>,
        parts: &[Fragment<'_>],
        index: Option<SectionIndex>,
    ) -> std::io::Result<PathBuf> {
        let format = match base {
            Some(_) => Format::V2 { base },
            None => Format::V1,
        };
        let (head, tail) = fragments_frame(format, parts);
        let mut image = Vec::with_capacity(parts.len() + 2);
        image.push(&head[..]);
        image.extend(parts.iter().map(|p| p.bytes));
        image.push(&tail);
        let path = self.commit(writer, generation, base, &image)?;
        writer.base = index.map_or_else(DeltaBase::default, |i| DeltaBase::at(generation, i));
        Ok(path)
    }

    /// The generations the directory holds by the retain rule, sorted
    /// ascending by number.
    pub fn generations(&self) -> Vec<u64> {
        let table = scan(&self.dir);
        let mut gens: Vec<u64> = kept(&table.entries, self.retain)
            .into_iter()
            .map(|i| table.entries[i].generation)
            .collect();
        gens.sort_unstable();
        gens
    }

    /// Load, fully validate, and materialize a specific generation,
    /// resolving its delta chain (base of base of …) transparently.
    /// Every file in the chain is CRC-validated and every base reference
    /// re-verified against the materialized base payloads.
    pub fn load(&self, generation: u64) -> Result<CkptFile, CkptError> {
        self.load_in(&scan(&self.dir), generation)
    }

    /// [`CkptStore::load`] against an already scanned directory.
    fn load_in(&self, table: &Table, generation: u64) -> Result<CkptFile, CkptError> {
        let Some(entry) = live(&table.entries, generation).map(|i| table.entries[i]) else {
            return Err(CkptError::Io {
                detail: format!("{}: no generation {generation}", self.dir.display()),
            });
        };
        let path = self.path_of(entry.place, generation);
        let bytes = fs::read(&path).map_err(|e| CkptError::Io {
            detail: format!("{}: {e}", path.display()),
        })?;
        let image = match entry.place {
            Place::Legacy => &bytes[..],
            // The slot may have been written again since the scan.
            Place::Slot(_) => match slot_image(&bytes) {
                Some((h, image)) if (h.seq, h.generation) == (entry.seq, generation) => image,
                _ => {
                    return Err(CkptError::Io {
                        detail: format!("{}: generation {generation} is gone", path.display()),
                    })
                }
            },
        };
        let raw = RawCkpt::from_bytes(image)?;
        match raw.base {
            None => raw.resolve(None),
            Some(b) if b >= generation => Err(CkptError::corrupt(format!(
                "delta generation {generation} references a non-older base {b}"
            ))),
            Some(b) => {
                let base = self.load_in(table, b)?;
                raw.resolve(Some(&base))
            }
        }
    }

    /// Newest generation — in write order — whose whole chain parses and
    /// passes every CRC, walking backwards past torn or corrupt
    /// generations (a torn delta falls back to its base's generation if
    /// that one is intact on its own or via an earlier chain). Bumps the
    /// `ckpt.restores` observability counter on success and brings the
    /// writer up to date with the disk: its table is the fresh scan, its
    /// delta base the generation found, so a resumed run's next
    /// checkpoint can be written as a delta. `None` when no valid
    /// checkpoint exists.
    pub fn latest(&self) -> Option<(u64, CkptFile)> {
        let mut writer = self.writer();
        let writer = &mut *writer;
        let table = writer.table.insert(scan(&self.dir));
        for i in kept(&table.entries, self.retain) {
            let generation = table.entries[i].generation;
            if let Ok(file) = self.load_in(table, generation) {
                writer.base = DeltaBase::of(generation, &file);
                qmc_obs::counter_add("ckpt.restores", 1);
                return Some((generation, file));
            }
        }
        None
    }
}

/// The serial writer as it was before every generation went through
/// [`RankSections`] and `write_fragments`, kept as the oracle the serial
/// and the coordinated writers are compared with byte for byte: a plan
/// with a clean section, when `delta`, becomes a [`RawCkpt`] delta on
/// the store's base, any other plan a [`CkptFile`]; its `to_bytes` image
/// goes through the shared `commit`, and the base's index is taken from
/// the plan.
#[cfg(test)]
pub(crate) fn reference_write_plan(
    store: &CkptStore,
    generation: u64,
    plan: Vec<(String, SectionPlan)>,
    delta: bool,
) -> std::io::Result<PathBuf> {
    use crate::delta::SectionData;
    let mut writer = store.writer();
    let clean = plan.iter().any(|(_, p)| *p == SectionPlan::Clean);
    let base = match writer.base.generation() {
        _ if !(delta && clean) => None,
        Some(b) if b < generation => Some(b),
        _ => return Err(std::io::Error::other("a delta needs an older base")),
    };
    let mut index = Vec::with_capacity(plan.len());
    let mut sections = Vec::with_capacity(plan.len());
    for (name, p) in plan {
        let data = match p {
            SectionPlan::Payload(b) => SectionData::Payload(b),
            SectionPlan::Clean => {
                let Some((crc, len)) = base.and(writer.base.section(&name)) else {
                    return Err(std::io::Error::other(format!("clean section {name:?}")));
                };
                SectionData::BaseRef { crc, len }
            }
        };
        index.push(match &data {
            SectionData::Payload(b) => (name.clone(), crc32(b), b.len() as u32),
            SectionData::BaseRef { crc, len } => (name.clone(), *crc, *len),
        });
        sections.push((name, data));
    }
    let image = match base {
        Some(_) => RawCkpt { base, sections }.to_bytes(),
        None => {
            let mut file = CkptFile::new();
            for (name, data) in sections {
                let SectionData::Payload(b) = data else {
                    unreachable!("a full plan holds payloads")
                };
                file.add(&name, b);
            }
            file.to_bytes()
        }
    };
    let path = store.commit(&mut writer, generation, base, &[&image])?;
    writer.base = DeltaBase::at(generation, index);
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delta::SectionData;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// Unique scratch dir per test (no external tempdir crate).
    fn scratch(label: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("qmc-ckpt-test-{}-{label}-{n}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn file_with(tag: u8) -> CkptFile {
        let mut f = CkptFile::new();
        f.add("data", vec![tag; 16]);
        f
    }

    /// A two-section plan: `big` clean (delta candidate), `small` dirty.
    fn delta_plan(tag: u8) -> Vec<(String, SectionPlan)> {
        vec![
            ("big".to_string(), SectionPlan::Clean),
            ("small".to_string(), SectionPlan::Payload(vec![tag; 4])),
        ]
    }

    fn full_file(tag: u8) -> CkptFile {
        let mut f = CkptFile::new();
        f.add("big", vec![0xAB; 256]);
        f.add("small", vec![tag; 4]);
        f
    }

    /// `a` and `b` of 64 bytes each, both different for every `tag`.
    fn two_sections(tag: u8) -> CkptFile {
        let mut f = CkptFile::new();
        f.add("a", vec![tag; 64]);
        f.add("b", vec![!tag; 64]);
        f
    }
    /// Wire size of `two_sections`' section `b`, and of the `QEND` mark.
    const SECTION_B_LEN: usize = (8 + 1) + (8 + 64) + 4;
    const TRAILER_LEN: usize = 4;

    /// The bytes a commit of `file` puts into a slot.
    fn slot_bytes(seq: u64, generation: u64, file: &CkptFile) -> Vec<u8> {
        let image = file.to_bytes();
        let mut buf = vec![0; SLOT_HEADER_LEN];
        let header = SlotHeader {
            seq,
            generation,
            image_len: image.len() as u64,
        };
        let mark = header.encode(&mut buf);
        buf.extend_from_slice(&image);
        buf.extend_from_slice(&mark);
        buf
    }

    /// Base generation the live image of `generation` references.
    fn base_of(store: &CkptStore, generation: u64) -> Option<u64> {
        let table = scan(store.dir());
        table.entries[live(&table.entries, generation).expect("generation is held")].base
    }

    /// Names in the store's directory, sorted.
    fn names(dir: &Path) -> Vec<String> {
        let mut names: Vec<String> = fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        names.sort();
        names
    }

    #[test]
    fn namespaced_stores_do_not_collide() {
        let root = scratch("ns");
        let a = CkptStore::open_namespace(&root, "tenant-a/job1", 3).unwrap();
        let b = CkptStore::open_namespace(&root, "tenant-b/job1", 3).unwrap();
        a.write(1, &file_with(1)).unwrap();
        b.write(9, &file_with(9)).unwrap();
        assert_eq!(a.latest().unwrap().0, 1);
        assert_eq!(b.latest().unwrap().0, 9);
        // Reopening the same namespace sees the same generations.
        let a2 = CkptStore::open_namespace(&root, "tenant-a/job1", 3).unwrap();
        assert_eq!(a2.latest().unwrap().0, 1);
    }

    #[test]
    fn hostile_namespace_names_cannot_escape_root() {
        let root = scratch("ns-hostile");
        for name in ["../../etc/job", "..", ".", "a/../../b", "", "😀/\0x"] {
            let store = CkptStore::open_namespace(&root, name, 2).unwrap();
            store.write(1, &file_with(1)).unwrap();
            // Below the root by plain names only: nothing walks back up.
            let below = store.dir().strip_prefix(&root);
            assert!(
                below.is_ok_and(|p| p
                    .components()
                    .all(|c| matches!(c, std::path::Component::Normal(_)))),
                "name {name:?} escaped to {:?}",
                store.dir()
            );
        }
    }

    #[test]
    fn sanitize_segment_keeps_identity_and_blocks_walks() {
        assert_eq!(sanitize_segment("tenant-a"), "tenant-a");
        assert_eq!(sanitize_segment("job 7!"), "job_7_");
        assert!(sanitize_segment("..").starts_with("ns-"));
        assert!(sanitize_segment("").starts_with("ns-"));
        // Distinct hostile inputs land on distinct tokens.
        assert_ne!(sanitize_segment(".."), sanitize_segment("..."));
        // Distinct names that sanitize to the same directory share a
        // namespace key — the collision signal admission layers need.
        assert_eq!(namespace_key("t/job a"), namespace_key("t/job_a"));
        assert_ne!(namespace_key("t/job-a"), namespace_key("t/job_a"));
    }

    #[test]
    fn write_load_round_trips() {
        let store = CkptStore::new(scratch("rt"), 3).unwrap();
        store.write(7, &file_with(7)).unwrap();
        let (g, f) = store.latest().unwrap();
        assert_eq!(g, 7);
        assert_eq!(f.get("data"), Some(&[7u8; 16][..]));
    }

    #[test]
    fn retains_only_last_k() {
        let store = CkptStore::new(scratch("prune"), 2).unwrap();
        for g in 1..=5 {
            store.write(g, &file_with(g as u8)).unwrap();
        }
        assert_eq!(store.generations(), vec![4, 5]);
    }

    #[test]
    fn torn_newest_falls_back_to_previous_generation() {
        let store = CkptStore::new(scratch("torn"), 4).unwrap();
        store.write(1, &file_with(1)).unwrap();
        let p2 = store.write(2, &file_with(2)).unwrap();
        // Tear the newest file: keep only the first half of its bytes.
        let bytes = fs::read(&p2).unwrap();
        fs::write(&p2, &bytes[..bytes.len() / 2]).unwrap();
        let (g, f) = store.latest().unwrap();
        assert_eq!(g, 1, "must skip the torn generation");
        assert_eq!(f.get("data"), Some(&[1u8; 16][..]));
    }

    #[test]
    fn crc_bad_newest_falls_back() {
        let store = CkptStore::new(scratch("crc"), 4).unwrap();
        store.write(1, &file_with(1)).unwrap();
        let p2 = store.write(2, &file_with(2)).unwrap();
        let mut bytes = fs::read(&p2).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        fs::write(&p2, &bytes).unwrap();
        let (g, _) = store.latest().unwrap();
        assert_eq!(g, 1);
    }

    #[test]
    fn crash_between_tmp_write_and_rename_is_garbage_collected() {
        let dir = scratch("gc");
        // Simulate the crash: a finished generation, then a temp file
        // whose writer died before the rename.
        {
            let store = CkptStore::new(&dir, 3).unwrap();
            store.write(1, &file_with(1)).unwrap();
            fs::write(
                dir.join(format!(".ckpt-{:010}.{EXT}.tmp", 2)),
                b"half-written",
            )
            .unwrap();
        }
        let orphan = dir.join(format!(".ckpt-{:010}.{EXT}.tmp", 2));
        assert!(orphan.exists(), "crash simulation precondition");

        // Re-opening the store sweeps the orphan and leaves real
        // checkpoints alone.
        let store = CkptStore::new(&dir, 3).unwrap();
        assert!(!orphan.exists(), "orphan temp file must be removed");
        assert_eq!(store.generations(), vec![1]);
        let (g, f) = store.latest().unwrap();
        assert_eq!(g, 1);
        assert_eq!(f.get("data"), Some(&[1u8; 16][..]));
    }

    #[test]
    fn gc_reports_count_and_ignores_unrelated_files() {
        let dir = scratch("gc-count");
        let store = CkptStore::new(&dir, 3).unwrap();
        fs::write(dir.join(".ckpt-0000000001.qckpt.tmp"), b"x").unwrap();
        fs::write(dir.join(".ckpt-0000000002.qckpt.tmp"), b"y").unwrap();
        fs::write(dir.join("notes.txt"), b"keep me").unwrap();
        assert_eq!(store.gc_temp_files(), 2);
        assert!(dir.join("notes.txt").exists());
        assert_eq!(store.gc_temp_files(), 0, "second sweep finds nothing");
    }

    #[test]
    fn empty_store_has_no_latest() {
        let store = CkptStore::new(scratch("empty"), 2).unwrap();
        assert!(store.latest().is_none());
        assert!(store.generations().is_empty());
    }

    // ---- store open beside a live writer: in coordinated runs every
    // rank opens the store while rank 0 writes ----

    #[test]
    fn store_open_leaves_a_half_written_slot_alone() {
        let dir = scratch("open-race");
        let store = CkptStore::new(&dir, 3).unwrap();
        store.write(1, &file_with(1)).unwrap();
        // Freeze rank 0 half-way through the write of generation 2.
        let p2 = store.write(2, &file_with(2)).unwrap();
        let whole = fs::read(&p2).unwrap();
        fs::write(&p2, &whole[..whole.len() / 2]).unwrap();

        // Another rank opens the same store: the open changes nothing.
        let before = (names(&dir), fs::read(&p2).unwrap());
        let other = CkptStore::new(&dir, 3).unwrap();
        assert_eq!((names(&dir), fs::read(&p2).unwrap()), before);
        assert_eq!(other.generations(), vec![1], "a half-written slot is empty");

        // Rank 0 finishes; the generation is there for everyone.
        fs::write(&p2, &whole).unwrap();
        assert_eq!(other.generations(), vec![1, 2]);
    }

    #[test]
    fn concurrent_store_opens_never_break_an_active_writer() {
        let dir = scratch("gc-race-threads");
        let store = std::sync::Arc::new(CkptStore::new(&dir, 3).unwrap());
        let writer = {
            let store = store.clone();
            std::thread::spawn(move || {
                for g in 1..=200u64 {
                    store.write(g, &file_with(g as u8)).expect("write survives");
                }
            })
        };
        let opener = {
            let dir = dir.clone();
            std::thread::spawn(move || {
                for _ in 0..200 {
                    let _ = CkptStore::new(&dir, 3).expect("open survives");
                }
            })
        };
        writer.join().expect("writer thread");
        opener.join().expect("opener thread");
        let (g, _) = store.latest().expect("checkpoints survived the race");
        assert_eq!(g, 200);
    }

    // ---- delta chains ----

    #[test]
    fn delta_chain_materializes_through_latest() {
        let store = CkptStore::new(scratch("delta-rt"), 4).unwrap();
        assert_eq!(store.delta_base(), None);
        let p1 = store.write(1, &full_file(1)).unwrap();
        assert_eq!(store.delta_base(), Some(1));
        store.write_plan(2, delta_plan(2), true).unwrap();
        assert_eq!(store.delta_base(), Some(2));
        let p3 = store.write_plan(3, delta_plan(3), true).unwrap();

        let (g, f) = store.latest().unwrap();
        assert_eq!(g, 3);
        assert_eq!(f.get("big"), Some(&[0xABu8; 256][..]), "clean via chain");
        assert_eq!(f.get("small"), Some(&[3u8; 4][..]), "dirty from the delta");
        // The delta files really are small: big's 256 bytes appear once.
        let full_len = fs::metadata(p1).unwrap().len();
        let delta_len = fs::metadata(p3).unwrap().len();
        assert!(
            delta_len * 2 < full_len,
            "delta file ({delta_len} B) should be far smaller than full ({full_len} B)"
        );
    }

    #[test]
    fn write_delta_without_base_is_an_error() {
        let store = CkptStore::new(scratch("delta-nobase"), 3).unwrap();
        assert!(store.write_plan(1, delta_plan(1), true).is_err());
    }

    #[test]
    fn all_dirty_delta_degrades_to_full() {
        let store = CkptStore::new(scratch("delta-alldirty"), 3).unwrap();
        let plan = vec![("small".to_string(), SectionPlan::Payload(vec![5; 4]))];
        store.write_plan(1, plan, true).unwrap();
        assert_eq!(base_of(&store, 1), None, "no-clean delta is a full file");
        let (g, f) = store.latest().unwrap();
        assert_eq!(g, 1);
        assert_eq!(f.get("small"), Some(&[5u8; 4][..]));
    }

    #[test]
    fn prune_retain_1_keeps_the_base_a_delta_needs() {
        let store = CkptStore::new(scratch("delta-prune1"), 1).unwrap();
        store.write(1, &full_file(1)).unwrap();
        store.write_plan(2, delta_plan(2), true).unwrap();
        // retain=1 keeps only generation 2 — but 2 is a delta against 1,
        // so 1 must survive or the chain is orphaned.
        assert_eq!(store.generations(), vec![1, 2]);
        let (g, f) = store.latest().unwrap();
        assert_eq!(g, 2);
        assert_eq!(f.get("big"), Some(&[0xABu8; 256][..]));
        // A later full snapshot releases the pin: both old files go.
        store.write(3, &full_file(3)).unwrap();
        assert_eq!(store.generations(), vec![3]);
    }

    #[test]
    fn torn_delta_falls_back_to_its_base() {
        let store = CkptStore::new(scratch("delta-torn"), 4).unwrap();
        store.write(1, &full_file(1)).unwrap();
        let p2 = store.write_plan(2, delta_plan(2), true).unwrap();
        let bytes = fs::read(&p2).unwrap();
        fs::write(&p2, &bytes[..bytes.len() / 2]).unwrap();
        let (g, f) = store.latest().unwrap();
        assert_eq!(g, 1, "torn delta must fall back to the base generation");
        assert_eq!(f.get("small"), Some(&[1u8; 4][..]));
    }

    #[test]
    fn delta_whose_base_is_missing_is_skipped() {
        let store = CkptStore::new(scratch("delta-orphan"), 4).unwrap();
        let p1 = store.write(1, &full_file(1)).unwrap();
        store.write_plan(2, delta_plan(2), true).unwrap();
        fs::remove_file(p1).unwrap();
        assert!(
            store.latest().is_none(),
            "orphaned delta must not materialize"
        );
    }

    #[test]
    fn resumed_store_can_write_deltas_immediately() {
        let dir = scratch("delta-resume");
        {
            let store = CkptStore::new(&dir, 4).unwrap();
            store.write(1, &full_file(1)).unwrap();
            store.write_plan(2, delta_plan(2), true).unwrap();
        }
        // A fresh store (fresh process) restores, then continues the
        // chain without an intervening full snapshot.
        let store = CkptStore::new(&dir, 4).unwrap();
        assert_eq!(store.delta_base(), None, "cache starts empty");
        let (g, _) = store.latest().unwrap();
        assert_eq!(g, 2);
        assert_eq!(store.delta_base(), Some(2), "restore seeds the cache");
        store.write_plan(3, delta_plan(3), true).unwrap();
        let (g, f) = store.latest().unwrap();
        assert_eq!(g, 3);
        assert_eq!(f.get("big"), Some(&[0xABu8; 256][..]));
    }

    // ---- slots ----

    /// Two generations of one shape, spliced at a section boundary, pass
    /// every check the image format has; the slot's end mark is what
    /// tells a finished write from that.
    #[test]
    fn a_splice_of_two_generations_passes_as_an_image_but_not_as_a_slot() {
        let (old, new) = (two_sections(1), two_sections(2));
        let (old_image, new_image) = (old.to_bytes(), new.to_bytes());
        assert_eq!(
            old_image[old_image.len() - 4..],
            new_image[new_image.len() - 4..]
        );
        let cut = new_image.len() - 4 - TRAILER_LEN - SECTION_B_LEN;
        let mut splice = new_image[..cut].to_vec();
        splice.extend_from_slice(&old_image[cut..]);
        let parsed = CkptFile::from_bytes(&splice).expect("the image format cannot tell");
        assert_eq!(parsed.get("a"), new.get("a"));
        assert_eq!(parsed.get("b"), old.get("b"));

        let (old_slot, new_slot) = (slot_bytes(1, 1, &old), slot_bytes(2, 2, &new));
        assert_eq!(slot_image(&new_slot).unwrap().1, &new_image[..]);
        let cut = SLOT_HEADER_LEN + cut;
        let mut torn = new_slot[..cut].to_vec();
        torn.extend_from_slice(&old_slot[cut..]);
        assert!(slot_image(&torn).is_none());
    }

    #[test]
    fn a_slot_is_whole_only_with_every_byte_up_to_its_end_mark() {
        let mut slot = slot_bytes(7, 9, &file_with(1));
        let whole = slot.len();
        // Bytes past the mark are not the occupant's.
        slot.extend_from_slice(b"left over from a longer occupant");
        let (header, image) = slot_image(&slot).unwrap();
        assert_eq!((header.seq, header.generation), (7, 9));
        assert_eq!(image, &file_with(1).to_bytes()[..]);
        for cut in 0..whole {
            assert!(slot_image(&slot[..cut]).is_none(), "cut at {cut}");
        }
        for i in 0..SLOT_HEADER_LEN {
            let mut bad = slot.clone();
            bad[i] ^= 0x40;
            assert!(slot_image(&bad).is_none(), "header byte {i} flipped");
        }
    }

    #[test]
    fn retain_rule_orders_by_write_and_closes_over_bases() {
        let e = |slot, seq, generation, base| Entry {
            place: Place::Slot(slot),
            seq,
            generation,
            base,
        };
        // 7 full, 8 on 7, 9 on 8, then 3 (a run that started over) full.
        let entries = [
            e(0, 1, 7, None),
            e(1, 2, 8, Some(7)),
            e(2, 3, 9, Some(8)),
            e(3, 4, 3, None),
        ];
        assert_eq!(kept(&entries, 1), [3]);
        assert_eq!(kept(&entries, 2), [3, 2, 1, 0]);
        // 9 written again, in full, under a later seq: the delta it
        // replaces and the bases only that delta needed are dropped.
        let mut entries = entries.to_vec();
        entries.push(e(4, 5, 9, None));
        assert_eq!(kept(&entries, 2), [4, 3]);
        // A legacy file is older than any slot.
        entries.push(Entry {
            place: Place::Legacy,
            seq: 0,
            generation: 50,
            base: None,
        });
        assert_eq!(kept(&entries, 4), [4, 3, 1, 0]);
        assert_eq!(kept(&entries, 5), [4, 3, 1, 0, 5]);
    }

    /// Bugfix: `write(2)` beside another run's 100..103 used to be
    /// unlinked by its own prune, and a crash there resumed from 103.
    #[test]
    fn write_order_not_generation_number_decides_what_is_newest() {
        let dir = scratch("write-order");
        {
            let stale = CkptStore::new(&dir, 4).unwrap();
            for g in 100..=103 {
                stale.write(g, &file_with(g as u8)).unwrap();
            }
        }
        // A fresh run (no resume) starts over in the same directory.
        let store = CkptStore::new(&dir, 4).unwrap();
        store.write(2, &file_with(2)).unwrap();
        assert_eq!(store.generations(), vec![2, 101, 102, 103]);
        let reopened = CkptStore::new(&dir, 4).unwrap();
        let (g, f) = reopened.latest().unwrap();
        assert_eq!((g, f.get("data")), (2, Some(&[2u8; 16][..])));
        store.write(4, &file_with(4)).unwrap();
        store.write(6, &file_with(6)).unwrap();
        assert_eq!(store.generations(), vec![2, 4, 6, 103]);
        assert_eq!(CkptStore::new(&dir, 4).unwrap().latest().unwrap().0, 6);
        store.write(8, &file_with(8)).unwrap();
        assert_eq!(store.generations(), vec![2, 4, 6, 8]);
    }

    #[test]
    fn a_refused_slot_is_an_error_and_moves_nothing() {
        let dir = scratch("refused");
        let store = CkptStore::new(&dir, 4).unwrap();
        store.write(1, &full_file(1)).unwrap();
        // The next commit needs a new file; a directory squats its name.
        let squat = dir.join("slot-1.qckpt");
        fs::create_dir(&squat).unwrap();
        let before = store.bytes_written();
        assert!(store.write(2, &full_file(2)).is_err());
        assert!(store.write_plan(2, delta_plan(2), true).is_err());
        assert_eq!(store.delta_base(), Some(1), "the base stays where it was");
        assert_eq!(store.bytes_written(), before);
        assert_eq!(store.generations(), vec![1]);
        // A fresh store finds the squatter in its scan and fails alike.
        let fresh = CkptStore::new(&dir, 4).unwrap();
        assert!(fresh.write(2, &full_file(2)).is_err());
        assert_eq!(fresh.generations(), vec![1]);
        fs::remove_dir(&squat).unwrap();
        store.write_plan(2, delta_plan(2), true).unwrap();
        assert_eq!(store.generations(), vec![1, 2]);
        assert_eq!(store.latest().unwrap().0, 2);
    }

    /// After the slots exist a commit creates, renames and unlinks
    /// nothing: the directory's names and its modification time stay.
    #[test]
    fn steady_state_commits_touch_no_directory_entry() {
        let dir = scratch("no-dir-op");
        let store = CkptStore::new(&dir, 4).unwrap();
        let commit = |g: u64| {
            if g.is_multiple_of(4) {
                store.write(g, &full_file(g as u8)).unwrap();
            } else {
                store.write_plan(g, delta_plan(g as u8), true).unwrap();
            }
        };
        (0..24).for_each(commit);
        let slots = names(&dir);
        assert_eq!(slots.len(), 4 + 3 + 1, "retain + chain depth + 1 files");
        let modified = fs::metadata(&dir).unwrap().modified().unwrap();
        std::thread::sleep(std::time::Duration::from_millis(20));
        (24..224).for_each(commit);
        assert_eq!(names(&dir), slots);
        assert_eq!(fs::metadata(&dir).unwrap().modified().unwrap(), modified);
        assert_eq!(store.generations(), vec![220, 221, 222, 223]);
        assert_eq!(store.latest().unwrap().0, 223);
    }

    #[test]
    fn legacy_files_are_read_built_on_and_dropped_never_written() {
        let dir = scratch("legacy");
        fs::create_dir_all(&dir).unwrap();
        // What an older build left: a full, a delta on it, and the temp
        // file of a writer that died before its rename.
        fs::write(dir.join("ckpt-0000000001.qckpt"), full_file(1).to_bytes()).unwrap();
        let big = full_file(1);
        let big = big.get("big").unwrap();
        let delta = RawCkpt {
            base: Some(1),
            sections: vec![
                (
                    "big".into(),
                    SectionData::BaseRef {
                        crc: crc32(big),
                        len: big.len() as u32,
                    },
                ),
                ("small".into(), SectionData::Payload(vec![2; 4])),
            ],
        };
        fs::write(dir.join("ckpt-0000000002.qckpt"), delta.to_bytes()).unwrap();
        fs::write(dir.join(".ckpt-0000000003.qckpt.tmp"), b"half-written").unwrap();

        let store = CkptStore::new(&dir, 2).unwrap();
        assert_eq!(
            names(&dir),
            ["ckpt-0000000001.qckpt", "ckpt-0000000002.qckpt"]
        );
        assert_eq!(store.generations(), vec![1, 2]);
        let (g, f) = store.latest().unwrap();
        assert_eq!((g, f.get("small")), (2, Some(&[2u8; 4][..])));
        // A delta lands on the newest legacy generation, in a slot.
        store.write_plan(3, delta_plan(3), true).unwrap();
        assert_eq!(base_of(&store, 3), Some(2));
        assert_eq!(store.generations(), vec![1, 2, 3]);
        let f = CkptStore::new(&dir, 2).unwrap().load(3).unwrap();
        assert_eq!(f.get("big"), Some(&[0xABu8; 256][..]));
        // Once `retain` newer generations stand on their own the legacy
        // files are gone and only slots remain.
        store.write(4, &full_file(4)).unwrap();
        assert_eq!(store.generations(), vec![1, 2, 3, 4]);
        store.write(5, &full_file(5)).unwrap();
        assert_eq!(store.generations(), vec![4, 5]);
        assert!(names(&dir).iter().all(|n| n.starts_with("slot-")));
    }

    // ---- the atomicity proof: a commit torn at every byte ----

    fn snapshot(dir: &Path) -> Vec<(String, Vec<u8>)> {
        names(dir)
            .into_iter()
            .map(|n| {
                let bytes = fs::read(dir.join(&n)).unwrap();
                (n, bytes)
            })
            .collect()
    }

    /// What a fresh store on `dir` lists, each generation materialised.
    fn holdings(dir: &Path, retain: usize) -> Vec<(u64, Vec<u8>)> {
        let store = CkptStore::new(dir, retain).unwrap();
        let gens = store.generations();
        gens.into_iter()
            .map(|g| {
                (
                    g,
                    store.load(g).expect("a listed generation loads").to_bytes(),
                )
            })
            .collect()
    }

    /// Bring a store to a steady state with `setup`, let `commit` write
    /// the next generation, and replay that one write torn after every
    /// byte over a copy of the directory as it was before: a fresh store
    /// must list exactly the committed generations (and the new one only
    /// at full length), load each bit-identical, name `newest.0` (at full
    /// length `newest.1`) as the latest, and take `next` as its next
    /// commit.
    fn torn_at_every_byte(
        label: &str,
        retain: usize,
        setup: impl Fn(&CkptStore),
        commit: impl Fn(&CkptStore),
        newest: (u64, u64),
        next: impl Fn(&CkptStore),
    ) {
        let dir = scratch(label);
        let store = CkptStore::new(&dir, retain).unwrap();
        setup(&store);
        let before = snapshot(&dir);
        let committed = holdings(&dir, retain);
        commit(&store);
        let landed = holdings(&dir, retain);
        let changed: Vec<_> = snapshot(&dir)
            .into_iter()
            .filter(|f| !before.contains(f))
            .collect();
        let [(victim, after)] = &changed[..] else {
            panic!("{label}: a commit writes one file, not {}", changed.len());
        };
        let (header, _) = slot_image(after).expect("the commit landed");
        let written = &after[..SLOT_HEADER_LEN + header.image_len as usize + SLOT_MARK_LEN];
        let old = before
            .iter()
            .find(|(n, _)| n == victim)
            .map(|(_, b)| &b[..]);
        for cut in 0..=written.len() {
            let _ = fs::remove_dir_all(&dir);
            fs::create_dir_all(&dir).unwrap();
            for (name, bytes) in &before {
                fs::write(dir.join(name), bytes).unwrap();
            }
            let mut torn = written[..cut].to_vec();
            torn.extend_from_slice(old.and_then(|o| o.get(cut..)).unwrap_or_default());
            fs::write(dir.join(victim), torn).unwrap();

            let whole = cut == written.len();
            let (expect, newest) = if whole {
                (&landed, newest.1)
            } else {
                (&committed, newest.0)
            };
            assert_eq!(&holdings(&dir, retain), expect, "{label}: cut at {cut}");
            let reopened = CkptStore::new(&dir, retain).unwrap();
            assert_eq!(
                reopened.latest().unwrap().0,
                newest,
                "{label}: cut at {cut}"
            );
            next(&reopened);
        }
    }

    /// `next` for the matrices: a delta on whatever was restored lands
    /// and loads.
    fn delta_lands(generation: u64) -> impl Fn(&CkptStore) {
        move |store| {
            store
                .write_plan(generation, delta_plan(0xEE), true)
                .unwrap();
            let f = CkptStore::new(store.dir(), 1).unwrap().latest().unwrap();
            assert_eq!(f.0, generation);
            assert_eq!(f.1.get("small"), Some(&[0xEEu8; 4][..]));
        }
    }

    /// A full image whose length depends on `g`, so a slot's next
    /// occupant is sometimes shorter and sometimes longer than the last.
    fn sized_file(g: u64) -> CkptFile {
        let mut f = full_file(g as u8);
        f.add("pad", vec![g as u8; (g as usize * 37) % 90]);
        f
    }

    #[test]
    fn torn_full_commit_keeps_every_committed_generation() {
        for retain in [2, 4] {
            torn_at_every_byte(
                "torn-full",
                retain,
                |s| (1..=9).for_each(|g| drop(s.write(g, &sized_file(g)).unwrap())),
                |s| drop(s.write(10, &sized_file(10)).unwrap()),
                (9, 10),
                delta_lands(11),
            );
        }
    }

    /// Every generation of one shape: a tear at a section boundary
    /// leaves a splice the image format accepts.
    #[test]
    fn torn_commit_over_an_occupant_of_the_same_shape_is_free_space() {
        torn_at_every_byte(
            "torn-same-shape",
            2,
            |s| (1..=5).for_each(|g| drop(s.write(g, &two_sections(g as u8)).unwrap())),
            |s| drop(s.write(6, &two_sections(6)).unwrap()),
            (5, 6),
            |s| drop(s.write(7, &two_sections(7)).unwrap()),
        );
    }

    #[test]
    fn torn_delta_commit_keeps_every_committed_chain() {
        let chain = |s: &CkptStore, g: u64| {
            if g.is_multiple_of(3) {
                s.write(g, &sized_file(g)).unwrap();
            } else {
                s.write_plan(g, delta_plan(g as u8), true).unwrap();
            }
        };
        for retain in [2, 4] {
            // The torn commit is a delta (13), then a full image (15).
            for last in [12, 14] {
                torn_at_every_byte(
                    "torn-delta",
                    retain,
                    |s| (0..=last).for_each(|g| chain(s, g)),
                    |s| chain(s, last + 1),
                    (last, last + 1),
                    delta_lands(last + 2),
                );
            }
        }
    }

    #[test]
    fn torn_first_write_of_a_new_slot_file_is_free_space() {
        torn_at_every_byte(
            "torn-new-slot",
            4,
            |s| (1..=2).for_each(|g| drop(s.write(g, &sized_file(g)).unwrap())),
            |s| drop(s.write_plan(3, delta_plan(3), true).unwrap()),
            (2, 3),
            delta_lands(4),
        );
    }
}
