//! The chunked append-only-series protocol, `qmc_ckpt::chunk`, through
//! its public surface: every refusal with its message, a refused chunk
//! leaving the columns alone, and full and delta round trips through a
//! store for row counts on both sides of every chunk boundary.

use qmc_ckpt::{
    chunk, plan_sections, restore_sections, Checkpoint, CkptError, CkptStore, Decoder,
    DirtySections, Encoder, SectionPlan,
};

/// The least a chunked series is: two columns and the row count of the
/// last snapshot. Its head carries the row count only.
#[derive(Debug, Clone, Default, PartialEq)]
struct Toy {
    a: Vec<f64>,
    b: Vec<f64>,
    clean_rows: usize,
}

impl Toy {
    fn with_rows(n: usize) -> Self {
        let mut toy = Toy::default();
        toy.append(n);
        toy
    }

    fn append(&mut self, n: usize) {
        for _ in 0..n {
            let i = self.a.len() as f64;
            self.a.push(i + 0.25);
            self.b.push(-i);
        }
    }
}

impl Checkpoint for Toy {
    fn kind(&self) -> &'static str {
        "test.series"
    }

    fn save(&self, enc: &mut Encoder) {
        enc.f64s(&self.a);
        enc.f64s(&self.b);
    }

    fn load(&mut self, dec: &mut Decoder) -> Result<(), CkptError> {
        let cols = [dec.f64s()?, dec.f64s()?];
        chunk::check_columns("toy", &cols)?;
        let [a, b] = cols;
        (self.a, self.b, self.clean_rows) = (a, b, 0);
        Ok(())
    }

    fn dirty_sections(&self) -> DirtySections {
        chunk::sections(self.a.len(), self.clean_rows)
    }

    fn save_section(&self, name: &str, enc: &mut Encoder) {
        match chunk::parse(name) {
            Some(k) => chunk::save_rows(k, &[&self.a, &self.b], enc),
            None => enc.u64(self.a.len() as u64),
        }
    }

    fn load_section(&mut self, name: &str, dec: &mut Decoder) -> Result<(), CkptError> {
        match chunk::parse(name) {
            Some(k) => {
                chunk::load_rows("toy", k, &mut [&mut self.a, &mut self.b], dec)?;
                self.clean_rows = self.clean_rows.min(k * chunk::ROWS);
                Ok(())
            }
            None => chunk::check_rows("toy", dec.u64()? as usize, self.a.len()),
        }
    }

    fn mark_clean(&mut self) {
        self.clean_rows = self.a.len();
    }
}

/// The body `save_rows` writes for chunk `index` with these columns.
fn chunk_body(index: u64, a: &[f64], b: &[f64]) -> Vec<u8> {
    let mut enc = Encoder::new();
    enc.u64(index);
    enc.f64s(a);
    enc.f64s(b);
    enc.into_bytes()
}

/// Offers `body` to a 70-row series as its section `name`; the refusal
/// must be `Corrupt` with exactly `message` and leave the series alone.
fn assert_refused(name: &str, body: &[u8], message: &str) {
    let mut toy = Toy::with_rows(70);
    toy.mark_clean();
    let before = toy.clone();
    let refused = toy.load_section(name, &mut Decoder::new(body));
    assert_eq!(refused, Err(CkptError::corrupt(message)), "{name}");
    assert_eq!(toy, before, "{name}: a refused section changed the series");
    assert_eq!(
        toy.dirty_sections().iter().collect::<Vec<_>>(),
        [("rows/0", false), ("rows/1", true), ("head", true)],
        "{name}"
    );
}

#[test]
fn every_refusal_names_its_reason_and_touches_nothing() {
    let rows = vec![1.0; chunk::ROWS + 1];
    let full = &rows[..chunk::ROWS];
    assert_refused(
        "rows/0",
        &chunk_body(1, full, full),
        "toy series chunk 0 carries index 1",
    );
    assert_refused(
        "rows/2",
        &chunk_body(2, full, full),
        "toy series chunk 2 arrived at row 70",
    );
    // An index no series can reach is a refusal, not an overflow.
    assert_refused(
        &format!("rows/{}", usize::MAX),
        &chunk_body(u64::MAX, full, full),
        &format!("toy series chunk {} arrived at row 70", usize::MAX),
    );
    assert_refused(
        "rows/0",
        &chunk_body(0, &[], &[]),
        "toy series chunk 0 has malformed columns",
    );
    assert_refused(
        "rows/0",
        &chunk_body(0, &rows, &rows),
        "toy series chunk 0 has malformed columns",
    );
    assert_refused(
        "rows/0",
        &chunk_body(0, full, &full[1..]),
        "toy series chunk 0 has malformed columns",
    );
    assert_refused(
        "head",
        &71u64.to_le_bytes(),
        "toy series head claims 71 rows, chunks supplied 70",
    );
    // A chunk cut short inside its last column is refused before the
    // first column is touched, too.
    let mut toy = Toy::with_rows(70);
    let body = chunk_body(0, full, full);
    let cut = toy.load_section("rows/0", &mut Decoder::new(&body[..body.len() - 1]));
    assert!(matches!(cut, Err(CkptError::Truncated { .. })), "{cut:?}");
    assert_eq!(toy, Toy::with_rows(70));
}

#[test]
fn whole_blob_columns_of_unequal_length_are_refused() {
    let mut ragged = Toy::with_rows(9);
    ragged.b.pop();
    let mut toy = Toy::with_rows(70);
    assert_eq!(
        qmc_ckpt::load_state(&qmc_ckpt::save_state(&ragged), &mut toy),
        Err(CkptError::corrupt(
            "toy series columns have unequal lengths"
        ))
    );
    assert_eq!(toy, Toy::with_rows(70));
}

#[test]
fn a_chunk_lands_only_at_its_own_row() {
    // Chunk 1 needs exactly one full chunk before it; chunk 0 starts a
    // populated series over.
    let donor = Toy::with_rows(70);
    let chunk = |k: usize| {
        let mut enc = Encoder::new();
        donor.save_section(&format!("rows/{k}"), &mut enc);
        enc.into_bytes()
    };
    let mut toy = Toy::default();
    assert_eq!(
        toy.load_section("rows/1", &mut Decoder::new(&chunk(1))),
        Err(CkptError::corrupt("toy series chunk 1 arrived at row 0"))
    );
    let mut toy = Toy::with_rows(200);
    toy.mark_clean();
    toy.load_section("rows/0", &mut Decoder::new(&chunk(0)))
        .unwrap();
    assert_eq!((toy.a.len(), toy.clean_rows), (chunk::ROWS, 0));
    toy.load_section("rows/1", &mut Decoder::new(&chunk(1)))
        .unwrap();
    toy.load_section("head", &mut Decoder::new(&70u64.to_le_bytes()))
        .unwrap();
    assert_eq!((toy.a, toy.b), (donor.a, donor.b));
}

/// `(section, planned as a base reference)` of a write plan.
fn clean_flags(plan: &[(String, SectionPlan)]) -> Vec<(String, bool)> {
    plan.iter()
        .map(|(name, p)| (name.clone(), *p == SectionPlan::Clean))
        .collect()
}

#[test]
fn full_and_delta_generations_round_trip_at_every_chunk_boundary() {
    let dir = std::env::temp_dir().join(format!("qmc-ckpt-chunk-{}", std::process::id()));
    for rows in [0, 1, 63, 64, 65, 128, 200] {
        let _ = std::fs::remove_dir_all(&dir);
        let store = CkptStore::new(&dir, 3).unwrap();
        let mut toy = Toy::with_rows(rows);

        let mut plan = Vec::new();
        plan_sections(&mut plan, "series", &toy, false);
        assert_eq!(plan.len(), rows.div_ceil(chunk::ROWS) + 1, "{rows} rows");
        assert!(clean_flags(&plan).iter().all(|&(_, clean)| !clean));
        store.write_plan(0, plan, false).unwrap();
        toy.mark_clean();
        let mut back = Toy::default();
        restore_sections(&store.load(0).unwrap(), "series", &mut back).unwrap();
        assert_eq!(back, toy, "{rows} rows, full");

        // Seventy more rows: only the chunks at or past the old last row
        // are written again.
        toy.append(70);
        let mut plan = Vec::new();
        plan_sections(&mut plan, "series", &toy, true);
        let want: Vec<(String, bool)> = (0..(rows + 70).div_ceil(chunk::ROWS))
            .map(|k| (format!("series/rows/{k}"), (k + 1) * chunk::ROWS <= rows))
            .chain([("series/head".to_string(), false)])
            .collect();
        assert_eq!(clean_flags(&plan), want, "{rows} rows");
        store.write_plan(1, plan, true).unwrap();
        toy.mark_clean();
        let mut back = Toy::default();
        restore_sections(&store.load(1).unwrap(), "series", &mut back).unwrap();
        assert_eq!(back, toy, "{rows} + 70 rows, delta");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
