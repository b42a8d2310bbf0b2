//! Rank-0-coordinated checkpointing over any [`Communicator`].
//!
//! **A commit** ([`write_coordinated_sections`]) is two collectives, a
//! gather and a broadcast. Every rank decides full-vs-delta by itself
//! from what all ranks already know alike — the generation the last
//! committed ack, or a resume, made the base, which its [`DeltaBase`]
//! keeps — and serializes its sections straight into a *fragment*
//! ([`RankSections`], the section writer a serial store uses too): its
//! sections as they will sit on disk, under `rank{r}/…` names, each
//! payload's CRC-32 summed once by the rank that owns the bytes, and the
//! fragment's own CRC-32 built from those. The gather brings the
//! fragments to rank 0, which writes `slot header ‖ image header ‖
//! fragment₀ ‖ … ‖ fragment_{P−1} ‖ trailer ‖ end mark` with one
//! (vectored) write, summing only the header and taking the image's CRC
//! from the P fragment CRCs (`crc32_combine`); the broadcast then tells
//! every rank whether the generation landed. Rank 0's share of a commit
//! therefore does not grow with the bytes the P ranks write. A serial
//! store's commit is the same with one fragment and no collective
//! ([`CkptStore::write_sections`]). The files are those a plan of the
//! flattened sections made as a `RawCkpt` or a [`CkptFile`] image (the
//! unit tests' reference): a delta in which no rank has a clean section
//! is a v1 full image, and one with any base reference frames every
//! section tagged (rank 0 re-frames the fragments of ranks that had
//! nothing clean).
//!
//! **Restore** reads two layouts: the sectioned one written here
//! (flattened `rank{r}/{name}` sections, which is what lets a delta
//! reference one rank's unchanged section in the base generation) and
//! the legacy v1 one (one opaque `rank{r}` section holding each rank's
//! whole serialized [`CkptFile`]; no longer written). Rank 0 loads the
//! newest valid generation — validating that its rank coverage matches
//! the *current* world size — and broadcasts the whole file; every rank
//! then extracts its own sections from either layout.
//!
//! Because both ride the deterministic collectives, a checkpoint round
//! never perturbs the fixed-seed trajectory — it draws no random numbers
//! and exchanges no user-tag messages.

use crate::crc32::crc32;
use crate::delta::SectionPlan;
use crate::file::{frame_section, prefixed, Body, Fragment, SectionIndex};
use crate::{write_section, written_sections, Checkpoint, CkptError, CkptFile, CkptStore};
use crate::{Decoder, Encoder};
use qmc_comm::Communicator;
use std::path::PathBuf;

/// Section name for a rank's payload inside the coordinated file.
fn rank_section(rank: usize) -> String {
    format!("rank{rank}")
}

/// What a writer knows of the generation its next delta is written
/// against: the generation the last commit, or a restore, made the base,
/// and the CRC-32 and length of the writer's own sections in it — all a
/// clean section's base reference needs. A [`CkptStore`] keeps one for
/// its serial writes; in a coordinated commit every rank keeps its own,
/// moved by the same acks and the same restore, so every rank derives the
/// same full-vs-delta decision without a message, and rank 0 refuses a
/// fragment framed against any other base.
#[derive(Debug, Clone, Default)]
pub struct DeltaBase {
    base: Option<(u64, SectionIndex)>,
}

impl DeltaBase {
    /// The base a coordinated restore leaves this rank with: the
    /// generation it resumed, with its sections, or none. A remapped
    /// restore leaves every rank with none, so the first commit after a
    /// resize is full: a moved rank's sections sit under another rank's
    /// names in that generation.
    pub fn restored(restore: &ElasticRestore) -> Self {
        match restore {
            ElasticRestore::Resumed(generation, file) => Self::of(*generation, file),
            _ => Self::default(),
        }
    }

    /// `generation`, whose sections `file` holds.
    pub(crate) fn of(generation: u64, file: &CkptFile) -> Self {
        let index = file
            .sections()
            .map(|(name, p)| (name.to_string(), crc32(p), p.len() as u32))
            .collect();
        Self::at(generation, index)
    }

    /// `generation`, whose sections `index` lists.
    pub(crate) fn at(generation: u64, index: SectionIndex) -> Self {
        Self {
            base: Some((generation, index)),
        }
    }

    /// Generation a delta would be written against.
    pub(crate) fn generation(&self) -> Option<u64> {
        self.base.as_ref().map(|(generation, _)| *generation)
    }

    /// The base a commit of `generation` is a delta on, `None` when it is
    /// full: the one place the crate decides. A delta needs a base, not
    /// `want_full`, and a base strictly older than `generation` —
    /// resuming exactly at a checkpoint boundary would otherwise re-write
    /// this generation as a delta against itself.
    pub(crate) fn delta_on(&self, generation: u64, want_full: bool) -> Option<u64> {
        self.generation().filter(|&b| !want_full && b < generation)
    }

    /// CRC-32 and length of the writer's section `name` in the base.
    pub(crate) fn section(&self, name: &str) -> Option<(u32, u32)> {
        let (_, index) = self.base.as_ref()?;
        index
            .iter()
            .find(|(n, ..)| n == name)
            .map(|&(_, crc, len)| (crc, len))
    }
}

// How a rank framed its fragment: the first byte of its footer.
const UNTAGGED: u8 = 0;
const TAGGED: u8 = 1;
const REFUSED: u8 = 2;
/// What follows a rank's fragment in its gather message: how it was
/// framed (u8), the base its references are against (u64), its section
/// count (u64) and its CRC-32 (u32).
const FOOTER_LEN: usize = 1 + 8 + 8 + 4;

/// The sections of one commit, written straight into the fragment the
/// store places in the image: each framed where it is written, its
/// payload's CRC-32 summed there, once. The crate's one section writer:
/// [`CkptStore::write_sections`] hands one to its `build` for a serial
/// store, under the section names as given, and
/// [`write_coordinated_sections`] one per rank, under `rank{r}/…`.
///
/// The fragment is untagged (v1 framing) until a section is a base
/// reference, which tags it, re-framing what was written before. A
/// section the commit cannot hold — a clean one in a full commit, or one
/// the base lacks — refuses the whole fragment, and nothing is written.
pub struct RankSections<'a> {
    base: &'a DeltaBase,
    /// The base generation when this commit is a delta.
    delta_on: Option<u64>,
    /// The name prefix, then the name of the section being framed.
    name: String,
    prefix_len: usize,
    enc: Encoder,
    /// CRC-32 of the fragment so far.
    crc: u32,
    tagged: bool,
    /// Every section so far, under its name without the prefix.
    index: SectionIndex,
    refused: Option<String>,
}

impl<'a> RankSections<'a> {
    /// Sections named `prefix…` (`name` is the prefix), a delta on
    /// `delta_on` when that is set, which `base` must have decided.
    pub(crate) fn new(name: String, base: &'a DeltaBase, delta_on: Option<u64>) -> Self {
        // The base's sections are the best guess at this fragment's size.
        let hint = base.base.as_ref().map_or(0, |(_, index)| {
            let framed = |n: &str, len| prefixed(name.len() + n.len()) + 1 + prefixed(len) + 4;
            index
                .iter()
                .map(|(n, _, len)| framed(n, *len as usize))
                .sum()
        });
        Self {
            base,
            delta_on,
            prefix_len: name.len(),
            name,
            enc: Encoder::appending_to(Vec::with_capacity(hint + FOOTER_LEN)),
            crc: 0,
            tagged: false,
            index: Vec::new(),
            refused: None,
        }
    }

    /// Whether this commit is a delta, in which a section unchanged since
    /// the base is a reference to it instead of its bytes.
    pub fn delta(&self) -> bool {
        self.delta_on.is_some()
    }

    /// Section `name`, holding what `write` encodes.
    pub fn payload(&mut self, name: &str, mut write: impl FnMut(&mut Encoder)) {
        self.frame(name.to_string(), Body::Written(&mut write));
    }

    /// Every section of `state` under `prefix/…`, as
    /// [`crate::plan_sections`] plans them: written, except the clean
    /// ones of a delta, which are references.
    pub fn state(&mut self, prefix: &str, state: &impl Checkpoint) {
        for (name, written) in written_sections(state, self.delta()) {
            let full = format!("{prefix}/{name}");
            if written {
                self.frame(
                    full,
                    Body::Written(&mut |enc| write_section(enc, state, &name)),
                );
            } else {
                self.refer(full);
            }
        }
    }

    /// The sections of a plan built beforehand, in order.
    pub fn plan(&mut self, plan: Vec<(String, SectionPlan)>) {
        for (name, section) in plan {
            match section {
                SectionPlan::Payload(bytes) => {
                    self.frame(name, Body::Written(&mut |enc| enc.raw(&bytes)))
                }
                SectionPlan::Clean => self.refer(name),
            }
        }
    }

    fn frame(&mut self, local: String, body: Body<'_>) {
        if self.refused.is_some() {
            return;
        }
        self.name.truncate(self.prefix_len);
        self.name.push_str(&local);
        let (crc, (sum, len)) =
            frame_section(&mut self.enc, self.crc, self.tagged, &self.name, body);
        self.crc = crc;
        self.index.push((local, sum, len));
    }

    fn refer(&mut self, local: String) {
        if self.refused.is_some() {
            return;
        }
        let Some(on) = self.delta_on else {
            self.refused = Some(format!("clean section {local:?} in a full write"));
            return;
        };
        let Some((crc, len)) = self.base.section(&local) else {
            self.refused = Some(format!(
                "clean section {local:?} has no counterpart in base generation {on}"
            ));
            return;
        };
        if !self.tagged {
            let so_far = Fragment {
                bytes: self.enc.written(),
                sections: self.index.len() as u64,
                crc: self.crc,
            };
            let (bytes, crc) = so_far
                .tagged_copy()
                .expect("a fragment this rank framed reads back");
            (self.enc, self.crc, self.tagged) = (Encoder::appending_to(bytes), crc, true);
        }
        self.frame(local, Body::BaseRef(crc, len));
    }

    /// The framed sections, their CRC-32, whether they are tagged, and
    /// the index the base becomes if the commit lands — or why the
    /// commit cannot hold them.
    pub(crate) fn finish(self) -> Result<(Encoder, u32, bool, SectionIndex), String> {
        match self.refused {
            Some(why) => Err(why),
            None => Ok((self.enc, self.crc, self.tagged, self.index)),
        }
    }
}

/// Write generation `generation` from every rank's sections, as a full
/// snapshot or a delta against the base in `base` (see the module doc).
/// Each rank decides `delta` = not `want_full` and its base is older
/// than `generation`, and `build` writes its sections into the
/// [`RankSections`] it is handed; clean sections in a delta round are
/// never serialized at all.
///
/// Returns `(path, committed)`: the written path on rank 0 (`None`
/// elsewhere, and on a failed write, which is reported, not
/// propagated), and a *rank-consistent* commit flag, on which `base`
/// moves to this generation. Callers must gate `mark_clean` on
/// `committed` — clearing dirty flags for a write that never landed
/// would make the next delta reference state the base doesn't hold.
pub fn write_coordinated_sections<C: Communicator>(
    comm: &mut C,
    store: &CkptStore,
    base: &mut DeltaBase,
    generation: u64,
    want_full: bool,
    build: impl FnOnce(&mut RankSections<'_>),
) -> (Option<PathBuf>, bool) {
    let me = comm.rank();
    let delta_on = base.delta_on(generation, want_full);
    let mut sections = RankSections::new(format!("rank{me}/"), base, delta_on);
    build(&mut sections);
    let (message, index) = match sections.finish() {
        Ok((mut enc, crc, tagged, index)) => {
            let how = if tagged { TAGGED } else { UNTAGGED };
            let on = delta_on.unwrap_or(0);
            footer(&mut enc, how, on, index.len() as u64, crc);
            (enc.into_bytes(), index)
        }
        Err(why) => {
            eprintln!("warning: rank {me}: checkpoint generation {generation}: {why}");
            let mut refused = Encoder::new();
            footer(&mut refused, REFUSED, 0, 0, 0);
            (refused.into_bytes(), Vec::new())
        }
    };
    let gathered = comm.gather_bytes(0, &message);
    drop(message);
    let path = gathered.and_then(|messages| {
        // Chain bounding is the caller's policy: every driver derives
        // `want_full` from its full-snapshot cadence before calling in.
        match place_fragments(store, generation, delta_on, &messages) {
            Ok(path) => Some(path),
            Err(e) => {
                eprintln!(
                    "warning: checkpoint generation {generation} not written ({e}); run continues"
                );
                None
            }
        }
    });

    // Did the write land? All ranks must agree before any of them clears
    // dirty flags or moves its base.
    let ack = if me == 0 {
        vec![u8::from(path.is_some())]
    } else {
        Vec::new()
    };
    let committed = comm.broadcast_bytes(0, ack).first() == Some(&1);
    if committed {
        *base = DeltaBase::at(generation, index);
    }
    (path, committed)
}

/// Append the footer of a gather message (see [`FOOTER_LEN`]).
fn footer(enc: &mut Encoder, how: u8, base: u64, sections: u64, crc: u32) {
    enc.u8(how);
    enc.u64(base);
    enc.u64(sections);
    enc.u32(crc);
}

fn read_footer(bytes: &[u8]) -> Result<(u8, u64, u64, u32), CkptError> {
    let mut dec = Decoder::new(bytes);
    Ok((dec.u8()?, dec.u64()?, dec.u64()?, dec.u32()?))
}

/// Rank 0: place every rank's fragment in one image and commit it. A
/// tagged fragment must reference the base this rank decided a delta on
/// (`delta_on`): a rank that derived another decision is refused here,
/// rank-consistently, instead of landing references to a base the file
/// does not name.
fn place_fragments(
    store: &CkptStore,
    generation: u64,
    delta_on: Option<u64>,
    messages: &[Vec<u8>],
) -> Result<PathBuf, String> {
    let copies: Vec<(Vec<u8>, u32)>;
    let mut parts = Vec::with_capacity(messages.len());
    let mut untagged = Vec::new();
    for (rank, msg) in messages.iter().enumerate() {
        let unreadable = || format!("rank {rank}'s fragment is unreadable");
        let split = msg.len().checked_sub(FOOTER_LEN).ok_or_else(unreadable)?;
        let (bytes, footer) = msg.split_at(split);
        let (how, on, sections, crc) = read_footer(footer).map_err(|_| unreadable())?;
        match how {
            UNTAGGED => untagged.push(rank),
            TAGGED if delta_on == Some(on) => {}
            TAGGED => {
                return Err(format!(
                    "rank {rank} framed a delta on generation {on}, rank 0 {}",
                    delta_on.map_or("a full image".to_string(), |g| format!("a delta on {g}"))
                ))
            }
            REFUSED => return Err(format!("rank {rank} could not frame its sections")),
            _ => return Err(unreadable()),
        }
        parts.push(Fragment {
            bytes,
            sections,
            crc,
        });
    }
    // A base reference anywhere makes a v2 image, in which every section
    // is tagged; without one a delta is a v1 image, as a serial one is.
    let tagged = untagged.len() < parts.len();
    if tagged {
        copies = untagged
            .iter()
            .map(|&r| parts[r].tagged_copy())
            .collect::<Result<_, _>>()
            .map_err(|e| e.to_string())?;
        for (&r, (bytes, crc)) in untagged.iter().zip(&copies) {
            parts[r] = Fragment {
                bytes,
                crc: *crc,
                ..parts[r]
            };
        }
    }
    // Rank 0 does not index the other ranks' sections: the store keeps
    // no base of its own for this generation; every rank keeps its own.
    let base = delta_on.filter(|_| tagged);
    store
        .write_fragments(&mut store.writer(), generation, base, &parts, None)
        .map_err(|e| e.to_string())
}

/// Number of ranks a coordinated file covers, from its section names
/// (`rank{r}` legacy or `rank{r}/{name}` flattened). `None` unless the
/// ranks present are exactly the contiguous range `0..n` — a file with
/// gaps or foreign sections is not a coordinated checkpoint this world
/// can resume from.
fn covered_ranks(outer: &CkptFile) -> Option<usize> {
    let mut ranks: Vec<usize> = Vec::new();
    for name in outer.section_names() {
        let rest = name.strip_prefix("rank")?;
        let digits = rest.split('/').next().unwrap_or(rest);
        let r: usize = digits.parse().ok()?;
        if !ranks.contains(&r) {
            ranks.push(r);
        }
    }
    let n = ranks.len();
    ((n > 0) && (0..n).all(|r| ranks.contains(&r))).then_some(n)
}

/// What the restore broadcast's first byte says: no checkpoint, the file
/// as the store holds it, or the file remapped onto a world of another
/// size.
const ABSENT: u8 = 0;
const AS_WRITTEN: u8 = 1;
const REMAPPED: u8 = 2;

/// Decode the restore broadcast `[kind u8][generation u64][file bytes]`
/// into the generation, the file and whether it was remapped. Degrades
/// to `None` — with a warning, never a panic — on a truncated or
/// unparsable message, honoring the restore contract that corrupt bytes
/// mean "no checkpoint", not a crash.
fn decode_restore_broadcast(me: usize, msg: &[u8]) -> Option<(u64, CkptFile, bool)> {
    let remapped = match msg.first() {
        Some(&AS_WRITTEN) => false,
        Some(&REMAPPED) => true,
        _ => return None,
    };
    let Some(gen_bytes) = msg.get(1..9) else {
        eprintln!(
            "warning: rank {me}: broadcast checkpoint truncated ({} bytes); resuming fresh",
            msg.len()
        );
        return None;
    };
    let generation = u64::from_le_bytes(gen_bytes.try_into().expect("slice is exactly 8 bytes"));
    match CkptFile::from_bytes(&msg[9..]) {
        Ok(f) => Some((generation, f, remapped)),
        Err(e) => {
            // Rank 0 already validated; a broadcast that corrupts bytes
            // would be a comm bug, but degrade to "no checkpoint".
            eprintln!("warning: rank {me}: broadcast checkpoint unreadable ({e})");
            None
        }
    }
}

/// This rank's local file, extracted from either coordinated layout:
/// the legacy opaque `rank{me}` section, or the flattened
/// `rank{me}/{name}` sections (in file order, prefix stripped).
fn extract_rank_file(outer: &CkptFile, me: usize) -> Option<CkptFile> {
    if let Some(mine) = outer.get(&rank_section(me)) {
        return CkptFile::from_bytes(mine).ok();
    }
    let prefix = format!("rank{me}/");
    let mut file = CkptFile::new();
    for (name, payload) in outer.sections() {
        if let Some(rest) = name.strip_prefix(prefix.as_str()) {
            file.add(rest, payload.to_vec());
        }
    }
    (!file.is_empty()).then_some(file)
}

/// Restore the newest valid generation: rank 0 loads (materializing any
/// delta chain) and broadcasts the coordinated file; every rank gets
/// back `(generation, its own local CkptFile)`. `None` (on all ranks,
/// consistently) when no valid checkpoint exists — including when the
/// newest checkpoint was written by a *different world size*: rank 0
/// validates the file's rank coverage against `comm.size()` before
/// broadcasting, so a 4-rank checkpoint in an 8-rank world makes every
/// rank resume fresh instead of silently splitting the world into
/// resumed and fresh halves.
pub fn restore_coordinated<C: Communicator>(
    comm: &mut C,
    store: &CkptStore,
) -> Option<(u64, CkptFile)> {
    match restore_coordinated_remapped(comm, store, |_| None) {
        ElasticRestore::Resumed(generation, file) | ElasticRestore::Remapped(generation, file) => {
            Some((generation, file))
        }
        ElasticRestore::Fresh | ElasticRestore::Joined(_) => None,
    }
}

/// Per-rank outcome of [`restore_coordinated_remapped`]. Rank-consistent:
/// either the whole world is `Fresh`, or every rank got the same
/// generation and is `Resumed`, or every rank is `Remapped` or `Joined`.
pub enum ElasticRestore {
    /// No usable checkpoint (none on disk, or the remap declined the
    /// mismatch): every rank starts from scratch.
    Fresh,
    /// This rank's state was rehydrated from the given generation.
    Resumed(u64, CkptFile),
    /// This rank's state was rehydrated from the given generation, which
    /// a world of another size wrote: from the sections of the old rank
    /// the remap maps onto it.
    Remapped(u64, CkptFile),
    /// A checkpoint at the given generation exists for the world, but
    /// maps no old rank onto this one (the world re-grew): start fresh
    /// state *at that generation's boundary*, not at sweep zero.
    Joined(u64),
}

/// [`restore_coordinated`] with an elastic escape hatch: when the newest
/// checkpoint was written by a *different* world size, rank 0 asks
/// `remap(old_world)` for a per-new-rank mapping (`mapping[r] = Some(j)`
/// rehydrates new rank `r` from old rank `j`'s sections; `None` means
/// rank `r` joins fresh) instead of unconditionally degrading. The
/// remapped file is rebuilt on rank 0 and broadcast, so the store is
/// never rewritten — a second death re-derives the same mapping
/// deterministically. A matching world size behaves exactly like
/// [`restore_coordinated`]; `remap` returning `None` (or an out-of-range
/// mapping) reproduces its consistent whole-world degrade.
pub fn restore_coordinated_remapped<C: Communicator>(
    comm: &mut C,
    store: &CkptStore,
    remap: impl FnOnce(usize) -> Option<Vec<Option<usize>>>,
) -> ElasticRestore {
    let me = comm.rank();
    let world = comm.size();
    // Rank 0 encodes [kind u8][generation u64][file bytes] so absence
    // broadcasts consistently instead of deadlocking non-root ranks.
    let msg = if me == 0 {
        let present = store.latest().and_then(|(generation, file)| {
            let covered = covered_ranks(&file);
            let outer = match covered {
                Some(n) if n == world => Some((AS_WRITTEN, file)),
                Some(n) => remap(n)
                    .filter(|m| valid_mapping(m, n, world))
                    .map(|m| (REMAPPED, remap_outer(&file, &m))),
                None => None,
            };
            if outer.is_none() {
                eprintln!(
                    "warning: checkpoint generation {generation} covers {} rank(s) but this \
                     world has {world} and no remap applies; all ranks resume fresh",
                    covered.map_or_else(|| "an invalid set of".to_string(), |n| n.to_string())
                );
            }
            let (kind, outer) = outer?;
            let mut m = vec![kind];
            m.extend_from_slice(&generation.to_le_bytes());
            m.extend_from_slice(&outer.to_bytes());
            Some(m)
        });
        present.unwrap_or_else(|| vec![ABSENT])
    } else {
        Vec::new()
    };
    let msg = comm.broadcast_bytes(0, msg);
    let Some((generation, outer, remapped)) = decode_restore_broadcast(me, &msg) else {
        return ElasticRestore::Fresh;
    };
    match extract_rank_file(&outer, me) {
        Some(file) => {
            if me != 0 {
                // Rank 0's restore was counted inside `CkptStore::latest`.
                qmc_obs::counter_add("ckpt.restores", 1);
            }
            if remapped {
                ElasticRestore::Remapped(generation, file)
            } else {
                ElasticRestore::Resumed(generation, file)
            }
        }
        None => ElasticRestore::Joined(generation),
    }
}

/// A mapping is usable when it has one entry per new rank, every source
/// is a rank the old file actually covers, and no old rank is cloned
/// into two new ones (two ranks resuming identical RNG streams would
/// silently correlate the chains).
fn valid_mapping(mapping: &[Option<usize>], old_world: usize, new_world: usize) -> bool {
    let sources: Vec<usize> = mapping.iter().copied().flatten().collect();
    mapping.len() == new_world
        && sources.iter().all(|&j| j < old_world)
        && sources
            .iter()
            .enumerate()
            .all(|(i, j)| !sources[..i].contains(j))
}

/// Rebuild a coordinated file for the new world: new rank `r` takes old
/// rank `mapping[r]`'s sections (either layout), renamed in place.
fn remap_outer(old: &CkptFile, mapping: &[Option<usize>]) -> CkptFile {
    let mut out = CkptFile::new();
    for (r, src) in mapping.iter().enumerate() {
        let Some(j) = *src else { continue };
        if let Some(opaque) = old.get(&rank_section(j)) {
            out.add(&rank_section(r), opaque.to_vec());
        }
        let prefix = format!("rank{j}/");
        for (name, payload) in old.sections() {
            if let Some(rest) = name.strip_prefix(prefix.as_str()) {
                out.add(&format!("rank{r}/{rest}"), payload.to_vec());
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use qmc_comm::run_threads;
    use std::path::Path;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn scratch(label: &str) -> std::path::PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("qmc-ckpt-coord-{}-{label}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// The v1 monolithic writer, kept as a fixture so the legacy-layout
    /// restore paths stay covered: each rank's whole serialized
    /// [`CkptFile`] goes into one opaque `rank{r}` section. Nothing
    /// outside these tests writes that layout any more.
    fn write_coordinated<C: Communicator>(
        comm: &mut C,
        store: &CkptStore,
        generation: u64,
        local: &CkptFile,
    ) -> Option<PathBuf> {
        let gathered = comm.gather_bytes(0, &local.to_bytes())?;
        let mut outer = CkptFile::new();
        for (rank, payload) in gathered.into_iter().enumerate() {
            outer.add(&rank_section(rank), payload);
        }
        store.write(generation, &outer).ok()
    }

    fn roundtrip_world(dir: &Path, ranks: usize) -> Vec<(u64, Vec<u8>)> {
        let dir = dir.to_path_buf();
        run_threads(ranks, move |comm| {
            let store = CkptStore::new(&dir, 2).unwrap();
            let mut local = CkptFile::new();
            local.add("payload", vec![comm.rank() as u8; 4 + comm.rank()]);
            write_coordinated(comm, &store, 3, &local);
            comm.barrier();
            let (g, restored) = restore_coordinated(comm, &store).expect("checkpoint exists");
            (g, restored.get("payload").unwrap().to_vec())
        })
    }

    #[test]
    fn four_ranks_round_trip_their_own_sections() {
        let dir = scratch("world");
        let got = roundtrip_world(&dir, 4);
        for (rank, (g, payload)) in got.into_iter().enumerate() {
            assert_eq!(g, 3);
            assert_eq!(payload, vec![rank as u8; 4 + rank]);
        }
    }

    #[test]
    fn serial_world_round_trips() {
        let dir = scratch("serial");
        let mut comm = qmc_comm::SerialComm::new();
        let store = CkptStore::new(&dir, 2).unwrap();
        let mut local = CkptFile::new();
        local.add("payload", vec![7; 3]);
        write_coordinated(&mut comm, &store, 1, &local).expect("rank 0 writes");
        let (g, restored) = restore_coordinated(&mut comm, &store).unwrap();
        assert_eq!(g, 1);
        assert_eq!(restored.get("payload"), Some(&[7u8; 3][..]));
    }

    #[test]
    fn missing_store_broadcasts_none_everywhere() {
        let dir = scratch("none");
        let got = run_threads(3, move |comm| {
            let store = CkptStore::new(&dir, 2).unwrap();
            restore_coordinated(comm, &store).is_none()
        });
        assert!(got.into_iter().all(|absent| absent));
    }

    // ---- world-size mismatch (regression: low ranks used to resume
    // while ranks ≥ old-world-size silently started fresh) ----

    fn write_world(dir: &Path, ranks: usize) {
        let dir = dir.to_path_buf();
        run_threads(ranks, move |comm| {
            let store = CkptStore::new(&dir, 2).unwrap();
            let mut local = CkptFile::new();
            local.add("payload", vec![comm.rank() as u8; 4]);
            write_coordinated(comm, &store, 1, &local);
        });
    }

    fn restore_world_outcomes(dir: &Path, ranks: usize) -> Vec<bool> {
        let dir = dir.to_path_buf();
        run_threads(ranks, move |comm| {
            let store = CkptStore::new(&dir, 2).unwrap();
            restore_coordinated(comm, &store).is_some()
        })
    }

    #[test]
    fn growing_the_world_degrades_consistently_on_every_rank() {
        let dir = scratch("grow");
        write_world(&dir, 2);
        let resumed = restore_world_outcomes(&dir, 4);
        assert_eq!(
            resumed,
            vec![false; 4],
            "a 2-rank checkpoint in a 4-rank world must leave every rank fresh"
        );
    }

    #[test]
    fn shrinking_the_world_degrades_consistently_on_every_rank() {
        let dir = scratch("shrink");
        write_world(&dir, 4);
        let resumed = restore_world_outcomes(&dir, 2);
        assert_eq!(
            resumed,
            vec![false; 2],
            "a 4-rank checkpoint in a 2-rank world must leave every rank fresh"
        );
    }

    #[test]
    fn matching_world_still_resumes_after_mismatch_checks() {
        let dir = scratch("match");
        write_world(&dir, 3);
        let resumed = restore_world_outcomes(&dir, 3);
        assert_eq!(resumed, vec![true; 3]);
    }

    // ---- elastic remapped restore ----

    /// Outcome triple per rank: (resumed?, joined?, payload or marker).
    fn elastic_outcomes(
        dir: &Path,
        ranks: usize,
        mapping: Option<Vec<Option<usize>>>,
    ) -> Vec<(String, Vec<u8>)> {
        let dir = dir.to_path_buf();
        run_threads(ranks, move |comm| {
            let store = CkptStore::new(&dir, 2).unwrap();
            let mapping = mapping.clone();
            match restore_coordinated_remapped(comm, &store, move |_old| mapping) {
                ElasticRestore::Fresh => ("fresh".to_string(), Vec::new()),
                ElasticRestore::Resumed(g, f) | ElasticRestore::Remapped(g, f) => {
                    (format!("resumed@{g}"), f.get("payload").unwrap().to_vec())
                }
                ElasticRestore::Joined(g) => (format!("joined@{g}"), Vec::new()),
            }
        })
    }

    #[test]
    fn shrink_remap_rehydrates_surviving_ranks() {
        let dir = scratch("remap-shrink");
        write_world(&dir, 4);
        // Drop old rank 2: new ranks 0,1,2 take old 0,1,3.
        let got = elastic_outcomes(&dir, 3, Some(vec![Some(0), Some(1), Some(3)]));
        assert_eq!(got[0], ("resumed@1".to_string(), vec![0u8; 4]));
        assert_eq!(got[1], ("resumed@1".to_string(), vec![1u8; 4]));
        assert_eq!(got[2], ("resumed@1".to_string(), vec![3u8; 4]));
    }

    #[test]
    fn grow_remap_joins_the_new_rank_at_the_boundary() {
        let dir = scratch("remap-grow");
        write_world(&dir, 2);
        let got = elastic_outcomes(&dir, 3, Some(vec![Some(0), Some(1), None]));
        assert_eq!(got[0], ("resumed@1".to_string(), vec![0u8; 4]));
        assert_eq!(got[1], ("resumed@1".to_string(), vec![1u8; 4]));
        assert_eq!(got[2], ("joined@1".to_string(), Vec::new()));
    }

    #[test]
    fn declined_or_invalid_remap_degrades_on_every_rank() {
        let dir = scratch("remap-decline");
        write_world(&dir, 4);
        for mapping in [
            None,                               // remap declines
            Some(vec![Some(9), Some(1), None]), // source out of range
            Some(vec![Some(0), Some(0), None]), // duplicate source
            Some(vec![Some(0)]),                // wrong arity
        ] {
            let got = elastic_outcomes(&dir, 3, mapping.clone());
            assert!(
                got.iter().all(|(kind, _)| kind == "fresh"),
                "mapping {mapping:?}: {got:?}"
            );
        }
    }

    #[test]
    fn matching_world_ignores_the_remap_hook() {
        let dir = scratch("remap-match");
        write_world(&dir, 2);
        // The hook would be invalid if consulted; a matching world must
        // never call it.
        let got = elastic_outcomes(&dir, 2, Some(vec![Some(9), Some(9)]));
        assert_eq!(got[0], ("resumed@1".to_string(), vec![0u8; 4]));
        assert_eq!(got[1], ("resumed@1".to_string(), vec![1u8; 4]));
    }

    #[test]
    fn remap_works_on_sectioned_layout_too() {
        let dir = scratch("remap-sectioned");
        {
            let dir = dir.clone();
            run_threads(3, move |comm| {
                let store = CkptStore::new(&dir, 2).unwrap();
                let me = comm.rank() as u8;
                let base = &mut DeltaBase::default();
                write_coordinated_sections(comm, &store, base, 5, true, |sections| {
                    sections.plan(vec![(
                        "payload".to_string(),
                        SectionPlan::Payload(vec![me; 4]),
                    )])
                });
            });
        }
        let got = elastic_outcomes(&dir, 2, Some(vec![Some(0), Some(2)]));
        assert_eq!(got[0], ("resumed@5".to_string(), vec![0u8; 4]));
        assert_eq!(got[1], ("resumed@5".to_string(), vec![2u8; 4]));
    }

    // ---- truncated broadcast (regression: a short message starting
    // with byte 1 used to panic in the generation-field slice) ----

    #[test]
    fn truncated_broadcast_degrades_instead_of_panicking() {
        // Shorter than the 1+8 byte header, first byte claims "present".
        assert!(decode_restore_broadcast(1, &[1, 2, 3]).is_none());
        assert!(decode_restore_broadcast(0, &[1]).is_none());
        // Header complete but the file bytes are garbage.
        let mut msg = vec![1u8];
        msg.extend_from_slice(&7u64.to_le_bytes());
        msg.extend_from_slice(b"not a checkpoint");
        assert!(decode_restore_broadcast(2, &msg).is_none());
        // Absent marker and empty message still mean "no checkpoint".
        assert!(decode_restore_broadcast(0, &[0]).is_none());
        assert!(decode_restore_broadcast(0, &[]).is_none());
        // And a well-formed message still decodes.
        let mut good = vec![1u8];
        good.extend_from_slice(&9u64.to_le_bytes());
        let mut f = CkptFile::new();
        f.add("rank0", vec![1, 2]);
        good.extend_from_slice(&f.to_bytes());
        let (g, file, remapped) =
            decode_restore_broadcast(0, &good).expect("valid broadcast decodes");
        assert_eq!((g, remapped), (9, false));
        assert_eq!(file.get("rank0"), Some(&[1u8, 2][..]));
    }

    // ---- sectioned (delta-capable) coordinated writes ----

    #[test]
    fn sectioned_writes_round_trip_and_go_delta_after_a_full() {
        let dir = scratch("sectioned");
        let got = run_threads(3, move |comm| {
            let store = CkptStore::new(&dir, 4).unwrap();
            let me = comm.rank() as u8;
            let build = |tag: u8| {
                move |sections: &mut RankSections| {
                    let big = if sections.delta() {
                        SectionPlan::Clean
                    } else {
                        SectionPlan::Payload(vec![me; 128])
                    };
                    let small = SectionPlan::Payload(vec![tag; 4]);
                    sections.plan(vec![("big".to_string(), big), ("small".to_string(), small)]);
                }
            };
            let mut base = DeltaBase::default();
            let (_, committed_full) =
                write_coordinated_sections(comm, &store, &mut base, 1, true, build(1));
            let (_, committed_delta) =
                write_coordinated_sections(comm, &store, &mut base, 2, false, build(2));
            comm.barrier();
            let (g, mine) = restore_coordinated(comm, &store).expect("checkpoint exists");
            (
                committed_full,
                committed_delta,
                g,
                mine.get("big").unwrap().to_vec(),
                mine.get("small").unwrap().to_vec(),
            )
        });
        for (rank, (full_ok, delta_ok, g, big, small)) in got.into_iter().enumerate() {
            assert!(full_ok, "rank {rank}: full write must commit");
            assert!(delta_ok, "rank {rank}: delta write must commit");
            assert_eq!(g, 2, "restore picks the delta generation");
            assert_eq!(big, vec![rank as u8; 128], "clean section via the base");
            assert_eq!(small, vec![2u8; 4], "dirty section from the delta");
        }
    }

    // ---- byte identity with the flattened plan ----

    /// A writer of a whole plan: the store's own, or the reference.
    type Write = fn(&CkptStore, u64, Vec<(String, SectionPlan)>, bool) -> std::io::Result<PathBuf>;

    /// The coordinated write as it was before ranks framed their own
    /// sections: rank 0 decides full or delta from its store's base,
    /// flattens every rank's plan under `rank{r}/…` and hands it to
    /// `write`. With the serial writer of that time
    /// (`reference_write_plan`), the oracle every path must match file for
    /// file and byte for byte.
    fn write_flattened(
        store: &CkptStore,
        generation: u64,
        want_full: bool,
        ranks: usize,
        plan: impl Fn(usize, bool) -> Vec<(String, SectionPlan)>,
        write: Write,
    ) -> bool {
        let delta = !want_full && store.delta_base().is_some_and(|b| b < generation);
        let mut global = Vec::new();
        for rank in 0..ranks {
            for (name, p) in plan(rank, delta) {
                global.push((format!("rank{rank}/{name}"), p));
            }
        }
        write(store, generation, global, delta).is_ok()
    }

    fn mix(mut z: u64) -> u64 {
        z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Rank `rank`'s plan at `round` of sequence `seq`: `meta` always
    /// dirty, three more sections dirty at random, payloads of random
    /// length (a quarter of them empty), then the sections of
    /// [`random_state`]. One round in four every section of every rank is
    /// dirty, so a delta decision finds nothing clean.
    fn random_plan(seq: u64, round: u64, rank: usize, delta: bool) -> Vec<(String, SectionPlan)> {
        let mut plan = random_payloads(seq, round, rank, delta);
        crate::plan_sections(&mut plan, "state", &random_state(seq, round, rank), delta);
        plan
    }

    /// The same plan as a section writer gets it, under `prefix…`: the
    /// payloads as a plan, the state's sections through
    /// [`RankSections::state`].
    fn random_sections(seq: u64, round: u64, rank: usize, prefix: &str, s: &mut RankSections) {
        let payloads = random_payloads(seq, round, rank, s.delta()).into_iter();
        s.plan(payloads.map(|(n, p)| (format!("{prefix}{n}"), p)).collect());
        s.state(&format!("{prefix}state"), &random_state(seq, round, rank));
    }

    fn round_draw(seq: u64, round: u64) -> (u64, bool) {
        let draw = mix(mix(seq) ^ round);
        (draw, draw.is_multiple_of(4))
    }

    fn random_payloads(
        seq: u64,
        round: u64,
        rank: usize,
        delta: bool,
    ) -> Vec<(String, SectionPlan)> {
        let (round_draw, all_dirty) = round_draw(seq, round);
        ["meta", "a", "b/c", "d"]
            .iter()
            .enumerate()
            .map(|(i, name)| {
                let h = mix(round_draw ^ ((rank as u64) << 8 | i as u64));
                let dirty = i == 0 || all_dirty || !h.is_multiple_of(3);
                let plan = if delta && !dirty {
                    SectionPlan::Clean
                } else {
                    let len = match (h >> 8) % 4 {
                        0 => 0,
                        1 => (h >> 16) % 16,
                        _ => (h >> 16) % 700,
                    };
                    SectionPlan::Payload((0..len).map(|j| (mix(h ^ j) >> 56) as u8).collect())
                };
                (name.to_string(), plan)
            })
            .collect()
    }

    /// A value of two sections whose dirtiness and bytes are drawn.
    struct Drawn {
        draw: u64,
        all_dirty: bool,
    }

    fn random_state(seq: u64, round: u64, rank: usize) -> Drawn {
        let (round_draw, all_dirty) = round_draw(seq, round);
        Drawn {
            draw: mix(round_draw ^ 0xD0 ^ rank as u64),
            all_dirty,
        }
    }

    impl crate::Checkpoint for Drawn {
        fn kind(&self) -> &'static str {
            "test.drawn"
        }
        fn save(&self, enc: &mut Encoder) {
            crate::save_sections_in_order(self, enc);
        }
        fn load(&mut self, _: &mut Decoder) -> Result<(), CkptError> {
            Ok(())
        }
        fn dirty_sections(&self) -> crate::DirtySections {
            let mut s = crate::DirtySections::new();
            s.push("x", self.all_dirty || !self.draw.is_multiple_of(3));
            s.push("y/z", self.all_dirty || self.draw.is_multiple_of(2));
            s
        }
        fn save_section(&self, name: &str, enc: &mut Encoder) {
            let h = mix(self.draw ^ name.len() as u64);
            enc.u64s(&vec![h; (h % 300) as usize]);
        }
    }

    /// Every entry of `dir`: name, and the bytes of a file (`None` for
    /// a directory).
    fn listing(dir: &Path) -> Vec<(String, Option<Vec<u8>>)> {
        let mut out: Vec<_> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| {
                let e = e.unwrap();
                let bytes = e
                    .file_type()
                    .unwrap()
                    .is_file()
                    .then(|| std::fs::read(e.path()).unwrap());
                (e.file_name().into_string().unwrap(), bytes)
            })
            .collect();
        out.sort();
        out
    }

    /// Randomised commit sequences on 1–4 ranks: full commits, deltas
    /// with clean sections, deltas with nothing clean (a v1 image), empty
    /// payloads, a write that fails and, in half the sequences, a resume
    /// (a reopen and `latest()`) half-way. After every commit three
    /// stores equal, in their directories and `bytes_written()`, the
    /// flattened plan written through the reference writer into a sibling
    /// directory: the coordinated one, and on rank 0 a serial one written
    /// through `write_sections` and one through `write_plan`.
    #[test]
    fn coordinated_commits_match_the_flattened_plan_byte_for_byte() {
        // v2 deltas, v1 images of a delta decision, empty payloads,
        // failed writes, resumes.
        let mut seen = [0usize; 5];
        for ranks in 1..=4 {
            for seq in 0..6u64 {
                // Coordinated, reference, `write_sections`, `write_plan`.
                let dirs = ["ident", "ident-oracle", "ident-serial", "ident-plan"].map(scratch);
                let seq = seq + 10 * ranks as u64;
                let counts = run_threads(ranks, |comm| {
                    let rank = comm.rank();
                    let retain = 3 + (seq % 3) as usize;
                    let fail_round = 1 + seq % (retain as u64 - 1);
                    let resume_round = seq.is_multiple_of(2).then_some(8);
                    let open = |dir: &PathBuf| CkptStore::new(dir, retain).unwrap();
                    let mut stores = dirs.each_ref().map(open);
                    let mut base = DeltaBase::default();
                    let mut tally = [0usize; 5];
                    for round in 0..14u64 {
                        let generation = 2 * round + 2;
                        if resume_round == Some(round) {
                            stores = dirs.each_ref().map(open);
                            let restored = restore_coordinated_remapped(comm, &stores[0], |_| None);
                            base = DeltaBase::restored(&restored);
                            if rank == 0 {
                                let newest = stores[1..]
                                    .iter()
                                    .map(|s| s.latest().map(|(g, f)| (g, f.to_bytes())))
                                    .collect::<Vec<_>>();
                                assert!(newest.iter().all(|n| *n == newest[0]));
                                assert_eq!(base.generation(), newest[0].as_ref().map(|n| n.0));
                                tally[4] += 1;
                            }
                        }
                        let want_full = mix(seq ^ round.wrapping_mul(77)).is_multiple_of(3);
                        let squat = (rank == 0 && round == fail_round).then(|| {
                            let name = format!("slot-{}.qckpt", listing(&dirs[0]).len());
                            for d in &dirs {
                                std::fs::create_dir(d.join(&name)).unwrap();
                            }
                            name
                        });
                        let build = |s: &mut RankSections| random_sections(seq, round, rank, "", s);
                        let (_, committed) = write_coordinated_sections(
                            comm, &stores[0], &mut base, generation, want_full, build,
                        );
                        if rank != 0 {
                            continue;
                        }
                        let [_, oracle, serial, planned] = &stores;
                        let plan = |r, d| random_plan(seq, round, r, d);
                        let delta =
                            !want_full && oracle.delta_base().is_some_and(|b| b < generation);
                        let plans: Vec<_> = (0..ranks).map(|r| plan(r, delta)).collect();
                        let flat = |store, write| {
                            write_flattened(store, generation, want_full, ranks, plan, write)
                        };
                        let ok = flat(oracle, crate::store::reference_write_plan);
                        let flattened = |s: &mut RankSections| {
                            for r in 0..ranks {
                                random_sections(seq, round, r, &format!("rank{r}/"), s);
                            }
                        };
                        let written = [
                            committed,
                            serial
                                .write_sections(generation, want_full, flattened)
                                .is_ok(),
                            flat(planned, CkptStore::write_plan),
                        ];
                        let ctx = format!("{ranks} ranks, sequence {seq}, round {round}");
                        assert_eq!(written, [ok; 3], "{ctx}");
                        if let Some(name) = squat {
                            assert!(!ok, "{ctx}: the squatted slot must fail the write");
                            tally[3] += 1;
                            for d in &dirs {
                                std::fs::remove_dir(d.join(&name)).unwrap();
                            }
                        }
                        for (store, dir) in stores.iter().zip(&dirs) {
                            assert_eq!(listing(dir), listing(&dirs[1]), "{ctx}");
                            assert_eq!(store.bytes_written(), oracle.bytes_written(), "{ctx}");
                        }
                        let sections = plans.iter().flatten();
                        let clean = sections.clone().any(|(_, p)| *p == SectionPlan::Clean);
                        tally[0] += usize::from(ok && delta && clean);
                        tally[1] += usize::from(ok && delta && !clean);
                        tally[2] += usize::from(
                            ok && sections
                                .clone()
                                .any(|(_, p)| *p == SectionPlan::Payload(Vec::new())),
                        );
                    }
                    tally
                });
                for (total, n) in seen.iter_mut().zip(counts[0]) {
                    *total += n;
                }
                for d in &dirs {
                    let _ = std::fs::remove_dir_all(d);
                }
            }
        }
        assert!(seen.iter().all(|&n| n > 0), "coverage {seen:?}");
    }

    /// Bugfix: a rank the remap moved framed its first delta against the
    /// sections of the old rank it came from, under its new name. Every
    /// rank saw the commit acked, and the generation then failed its CRC
    /// on load, so `latest()` went back to before the resize. After a
    /// remapped restore no rank has a base, and that commit is full.
    #[test]
    fn the_first_commit_after_a_remapped_restore_is_full_and_loads() {
        let dir = scratch("remap-delta");
        // Section `a` holds `[r; 8]` for old rank `r`, and never changes.
        let section_a = |rank: usize, sections: &mut RankSections| {
            let a = if sections.delta() {
                SectionPlan::Clean
            } else {
                SectionPlan::Payload(vec![rank as u8; 8])
            };
            sections.plan(vec![("a".to_string(), a)]);
        };
        let dir3 = dir.clone();
        let committed = run_threads(3, move |comm| {
            let store = CkptStore::new(&dir3, 4).unwrap();
            let rank = comm.rank();
            let build = |s: &mut RankSections| section_a(rank, s);
            write_coordinated_sections(comm, &store, &mut DeltaBase::default(), 1, true, build).1
        });
        assert_eq!(committed, [true; 3]);
        let dir2 = dir.clone();
        let committed = run_threads(2, move |comm| {
            let store = CkptStore::new(&dir2, 4).unwrap();
            let restored =
                restore_coordinated_remapped(comm, &store, |_| Some(vec![Some(0), Some(2)]));
            let mut base = DeltaBase::restored(&restored);
            let ElasticRestore::Remapped(1, file) = restored else {
                panic!("rank {}: not a remapped resume", comm.rank())
            };
            let old = usize::from(file.get("a").unwrap()[0]);
            let build = |s: &mut RankSections| section_a(old, s);
            write_coordinated_sections(comm, &store, &mut base, 2, false, build).1
        });
        assert_eq!(committed, [true; 2]);
        let store = CkptStore::new(&dir, 4).unwrap();
        let file = store.load(2).expect("generation 2 loads");
        assert_eq!(file.get("rank1/a"), Some(&[2u8; 8][..]));
        assert_eq!(store.latest().unwrap().0, 2);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
