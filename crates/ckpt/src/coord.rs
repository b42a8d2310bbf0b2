//! Rank-0-coordinated checkpointing over any [`Communicator`].
//!
//! Each rank serializes its local state; rank 0 gathers all of it and
//! writes a single atomic file. Two layouts exist: the legacy v1 one
//! (one opaque `rank{r}` section holding each rank's whole serialized
//! [`CkptFile`]; no longer written, still restored) and the sectioned one from
//! [`write_coordinated_sections`] (flattened `rank{r}/{name}` sections,
//! which is what lets a delta write reference an individual rank's
//! unchanged section in the base generation). On restore, rank 0 loads
//! the newest valid generation — validating that its rank coverage
//! matches the *current* world size — and broadcasts the whole file;
//! every rank then extracts its own sections from either layout.
//! Because the gather/broadcast ride the existing deterministic
//! collectives, a checkpoint round never perturbs the fixed-seed
//! trajectory — it draws no random numbers and exchanges no user-tag
//! messages.

use crate::delta::SectionPlan;
use crate::wire::{Decoder, Encoder};
use crate::{CkptFile, CkptStore};
use qmc_comm::Communicator;
use std::path::PathBuf;

/// Section name for a rank's payload inside the coordinated file.
fn rank_section(rank: usize) -> String {
    format!("rank{rank}")
}

/// Gather every rank's *section plan* at rank 0 and write generation
/// `generation` as a full snapshot or a delta against the store's
/// cached base. Rank 0 decides (`delta` = not `want_full` and a base
/// exists) and broadcasts the decision before `build` runs, so every
/// rank serializes — or skips — the same sections; clean sections in a
/// delta round are never serialized at all. The gathered plans are
/// flattened into `rank{r}/{name}` global sections.
///
/// Returns `(path, committed)`: the written path on rank 0 (`None`
/// elsewhere, and on a failed write, which is reported, not
/// propagated), and a *rank-consistent* commit flag. Callers must gate
/// `mark_clean` on `committed` — clearing dirty flags for a write that
/// never landed would make the next delta reference state the base
/// doesn't hold.
pub fn write_coordinated_sections<C: Communicator>(
    comm: &mut C,
    store: &CkptStore,
    generation: u64,
    want_full: bool,
    build: impl FnOnce(bool) -> Vec<(String, SectionPlan)>,
) -> (Option<PathBuf>, bool) {
    // Only rank 0 owns the store's base cache, so only it can decide
    // full-vs-delta; the decision must reach every rank before any plan
    // is built. The base must be strictly older than `generation`:
    // resuming exactly at a checkpoint boundary would otherwise re-write
    // this generation as a delta against itself.
    let decision = if comm.rank() == 0 {
        vec![u8::from(
            !want_full && store.delta_base().is_some_and(|b| b < generation),
        )]
    } else {
        Vec::new()
    };
    let decision = comm.broadcast_bytes(0, decision);
    let delta = decision.first() == Some(&1);

    let plan = build(delta);
    let mut enc = Encoder::new();
    enc.u64(plan.len() as u64);
    for (name, p) in &plan {
        enc.str(name);
        match p {
            SectionPlan::Payload(b) => {
                enc.u8(0);
                enc.bytes(b);
            }
            SectionPlan::Clean => enc.u8(1),
        }
    }
    let local = enc.into_bytes();

    let path = comm.gather_bytes(0, &local).and_then(|gathered| {
        let mut global = Vec::new();
        for (rank, payload) in gathered.into_iter().enumerate() {
            if decode_plan(&payload, rank, &mut global).is_none() {
                eprintln!(
                    "warning: checkpoint generation {generation}: rank {rank} plan unreadable; \
                     generation skipped"
                );
                return None;
            }
        }
        // Chain bounding is the caller's policy: every driver derives
        // `want_full` from its full-snapshot cadence before calling in.
        // lint: allow(ckpt-unbounded-chain) — bounded by the caller's want_full
        match store.write_plan(generation, global, delta) {
            Ok(path) => Some(path),
            Err(e) => {
                eprintln!(
                    "warning: checkpoint generation {generation} not written ({e}); run continues"
                );
                None
            }
        }
    });

    // Second broadcast: did the write land? All ranks must agree before
    // any of them clears dirty flags.
    let ack = if comm.rank() == 0 {
        vec![u8::from(path.is_some())]
    } else {
        Vec::new()
    };
    let ack = comm.broadcast_bytes(0, ack);
    (path, ack.first() == Some(&1))
}

/// Decode one rank's serialized section plan into `out` under
/// `rank{rank}/…` names. `None` on any framing error.
fn decode_plan(bytes: &[u8], rank: usize, out: &mut Vec<(String, SectionPlan)>) -> Option<()> {
    let mut dec = Decoder::new(bytes);
    let n = dec.u64().ok()?;
    for _ in 0..n {
        let name = dec.str().ok()?;
        let plan = match dec.u8().ok()? {
            0 => SectionPlan::Payload(dec.bytes().ok()?.to_vec()),
            1 => SectionPlan::Clean,
            _ => return None,
        };
        out.push((format!("rank{rank}/{name}"), plan));
    }
    dec.expect_empty().ok()?;
    Some(())
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

/// Decode the restore broadcast `[present u8][generation u64][file
/// bytes]`. Degrades to `None` — with a warning, never a panic — on a
/// truncated or unparsable message, honoring the restore contract that
/// corrupt bytes mean "no checkpoint", not a crash.
fn decode_restore_broadcast(me: usize, msg: &[u8]) -> Option<(u64, CkptFile)> {
    if msg.first() != Some(&1) {
        return None;
    }
    let Some(gen_bytes) = msg.get(1..9) else {
        eprintln!(
            "warning: rank {me}: broadcast checkpoint truncated ({} bytes); resuming fresh",
            msg.len()
        );
        return None;
    };
    let generation = u64::from_le_bytes(gen_bytes.try_into().expect("slice is exactly 8 bytes"));
    match CkptFile::from_bytes(&msg[9..]) {
        Ok(f) => Some((generation, f)),
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
        ElasticRestore::Resumed(generation, file) => Some((generation, file)),
        ElasticRestore::Fresh | ElasticRestore::Joined(_) => None,
    }
}

/// Per-rank outcome of [`restore_coordinated_remapped`]. Rank-consistent:
/// either the whole world is `Fresh`, or every rank got the same
/// generation and is `Resumed` or `Joined`.
pub enum ElasticRestore {
    /// No usable checkpoint (none on disk, or the remap declined the
    /// mismatch): every rank starts from scratch.
    Fresh,
    /// This rank's state was rehydrated from the given generation.
    Resumed(u64, CkptFile),
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
    // Rank 0 encodes [present u8][generation u64][file bytes] so absence
    // broadcasts consistently instead of deadlocking non-root ranks.
    let msg = if me == 0 {
        let present = store.latest().and_then(|(generation, file)| {
            let covered = covered_ranks(&file);
            let outer = match covered {
                Some(n) if n == world => Some(file),
                Some(n) => remap(n)
                    .filter(|m| valid_mapping(m, n, world))
                    .map(|m| remap_outer(&file, &m)),
                None => None,
            };
            if outer.is_none() {
                eprintln!(
                    "warning: checkpoint generation {generation} covers {} rank(s) but this \
                     world has {world} and no remap applies; all ranks resume fresh",
                    covered.map_or_else(|| "an invalid set of".to_string(), |n| n.to_string())
                );
            }
            let outer = outer?;
            let mut m = vec![1u8];
            m.extend_from_slice(&generation.to_le_bytes());
            m.extend_from_slice(&outer.to_bytes());
            Some(m)
        });
        present.unwrap_or_else(|| vec![0u8])
    } else {
        Vec::new()
    };
    let msg = comm.broadcast_bytes(0, msg);
    let Some((generation, outer)) = decode_restore_broadcast(me, &msg) else {
        return ElasticRestore::Fresh;
    };
    match extract_rank_file(&outer, me) {
        Some(file) => {
            if me != 0 {
                // Rank 0's restore was counted inside `CkptStore::latest`.
                qmc_obs::counter_add("ckpt.restores", 1);
            }
            ElasticRestore::Resumed(generation, file)
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
                ElasticRestore::Resumed(g, f) => {
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
                write_coordinated_sections(comm, &store, 5, true, move |_| {
                    vec![("payload".to_string(), SectionPlan::Payload(vec![me; 4]))]
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
        let (g, file) = decode_restore_broadcast(0, &good).expect("valid broadcast decodes");
        assert_eq!(g, 9);
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
                move |delta: bool| {
                    vec![
                        (
                            "big".to_string(),
                            if delta {
                                SectionPlan::Clean
                            } else {
                                SectionPlan::Payload(vec![me; 128])
                            },
                        ),
                        ("small".to_string(), SectionPlan::Payload(vec![tag; 4])),
                    ]
                }
            };
            let (_, committed_full) = write_coordinated_sections(comm, &store, 1, true, build(1));
            let (_, committed_delta) = write_coordinated_sections(comm, &store, 2, false, build(2));
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
}
