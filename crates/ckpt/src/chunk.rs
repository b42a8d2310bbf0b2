//! Fixed-size row chunking for append-only measurement series: the one
//! copy of the `rows/k` + `head` section protocol.
//!
//! A growing time series dominates full-snapshot bytes in steady state;
//! splitting it into immutable completed chunks (`rows/0`, `rows/1`, …)
//! plus a small always-dirty `head` makes most of those bytes clean, which
//! is where delta checkpoints win. A chunk is dirty iff it overlaps a row
//! appended past the last snapshot's row count — completed chunks below
//! that mark never change again.
//!
//! A series is a list of equally long `f64` columns plus whatever its
//! head carries besides the row count. It keeps `clean_rows` (the row
//! count of the last snapshot), lists its columns, and writes its head;
//! everything else about a chunk — its name, its body (`u64` index, then
//! one length-prefixed slice per column, in column order) and every
//! reason to refuse one — is here. `what` names the series in the
//! refusals (`"tfim"`, `"worldline"`, `"sse"`).

use crate::{CkptError, Decoder, DirtySections, Encoder};

/// Rows per chunk.
pub const ROWS: usize = 64;

/// Sections of a series of `len` rows of which the first `clean_rows`
/// are in the last snapshot: every chunk, then the always-dirty `head`.
/// Head last: it carries the total row count, so restoring it validates
/// that every chunk before it arrived intact.
pub fn sections(len: usize, clean_rows: usize) -> DirtySections {
    let mut s = DirtySections::new();
    for k in 0..len.div_ceil(ROWS) {
        s.push(format!("rows/{k}"), (k + 1) * ROWS > clean_rows);
    }
    s.push("head", true);
    s
}

/// Parse a chunk index back out of a section name.
pub fn parse(name: &str) -> Option<usize> {
    name.strip_prefix("rows/")?.parse().ok()
}

/// Write chunk `k` of `cols`. Panics on a chunk past the last row
/// (caller bug, not external input).
pub fn save_rows(k: usize, cols: &[&[f64]], enc: &mut Encoder) {
    enc.u64(k as u64);
    for col in cols {
        enc.f64s(&col[k * ROWS..col.len().min((k + 1) * ROWS)]);
    }
}

/// Restore the chunk a section named `rows/{k}` holds onto the end of
/// `cols`; chunk 0 starts the series over. The carried index, the row the
/// chunk arrives at and the shape of its columns (1 to [`ROWS`] rows,
/// all the same length) are checked before any column is touched, so a
/// refused chunk leaves `cols` as they were. On success the caller lowers
/// its `clean_rows` to `k * ROWS`: the rows from there on are new.
pub fn load_rows(
    what: &str,
    k: usize,
    cols: &mut [&mut Vec<f64>],
    dec: &mut Decoder,
) -> Result<(), CkptError> {
    let stored = dec.u64()? as usize;
    if stored != k {
        return Err(CkptError::corrupt(format!(
            "{what} series chunk {k} carries index {stored}"
        )));
    }
    let at = if k == 0 { 0 } else { cols[0].len() };
    if k.checked_mul(ROWS) != Some(at) {
        return Err(CkptError::corrupt(format!(
            "{what} series chunk {k} arrived at row {at}"
        )));
    }
    let new = cols
        .iter()
        .map(|_| dec.f64s())
        .collect::<Result<Vec<_>, _>>()?;
    if new[0].is_empty() || new[0].len() > ROWS || ragged(&new) {
        return Err(CkptError::corrupt(format!(
            "{what} series chunk {k} has malformed columns"
        )));
    }
    for (col, rows) in cols.iter_mut().zip(&new) {
        col.truncate(at);
        col.extend_from_slice(rows);
    }
    Ok(())
}

/// Refuse a head whose row count is not what the chunks before it
/// supplied.
pub fn check_rows(what: &str, claimed: usize, supplied: usize) -> Result<(), CkptError> {
    if claimed != supplied {
        return Err(CkptError::corrupt(format!(
            "{what} series head claims {claimed} rows, chunks supplied {supplied}"
        )));
    }
    Ok(())
}

/// Refuse the columns of a whole-blob series unless all are equally long.
pub fn check_columns(what: &str, cols: &[Vec<f64>]) -> Result<(), CkptError> {
    if ragged(cols) {
        return Err(CkptError::corrupt(format!(
            "{what} series columns have unequal lengths"
        )));
    }
    Ok(())
}

fn ragged(cols: &[Vec<f64>]) -> bool {
    cols.iter().any(|c| c.len() != cols[0].len())
}
