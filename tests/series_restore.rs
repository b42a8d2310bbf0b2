//! A refused checkpoint section leaves a measurement series as it was.
//!
//! Each of the three chunked series is offered, into 150 recorded and
//! snapshotted rows, three bodies every CRC would accept: another run's
//! head claiming one row too many, a chunk 0 whose last column is a row
//! short, and a whole blob whose last column is a row short. Before the
//! series validated first and assigned second, the head replaced β and
//! the correlation sums before it reached the row count, chunk 0 emptied
//! every column before it looked at its own, and the whole blob assigned
//! columns before it compared them.
//!
//! The world-line and SSE series carry their run's β (SSE also J), and
//! the TFIM series its J, h and β; each is offered the head and the whole
//! blob of a run at another β too. Those restored once, so a resume under
//! changed physics printed a mixture of the two runs.

use qmc_ckpt::{
    load_section_bytes, load_state, save_section_bytes, save_state, Checkpoint, CkptError, Encoder,
};
use qmc_lattice::Chain;
use qmc_rng::Xoshiro256StarStar;
use qmc_sse::{Sse, SseSeries};
use qmc_tfim::serial::{SerialTfim, TfimSeries};
use qmc_tfim::TfimModel;
use qmc_worldline::estimators::TimeSeries;
use qmc_worldline::{Worldline, WorldlineParams};

const ROWS: usize = 150;

/// Everything a caller can see of a series: the bits of every column
/// and of `correlations()`, and the section list with its dirty flags.
fn observe<S: Checkpoint>(
    series: &S,
    columns: &impl Fn(&S) -> Vec<Vec<f64>>,
) -> (Vec<Vec<u64>>, Vec<(String, bool)>) {
    let bits = columns(series)
        .iter()
        .map(|col| col.iter().map(|x| x.to_bits()).collect())
        .collect();
    let sections = series
        .dirty_sections()
        .iter()
        .map(|(name, dirty)| (name.to_string(), dirty))
        .collect();
    (bits, sections)
}

/// `series(seed)` records [`ROWS`] rows; `columns` lists the columns in
/// checkpoint order, then `correlations()` where the series has one;
/// `shorten` drops the last row of the last column; `other_beta`, where
/// the series carries β, is [`ROWS`] rows recorded at another β.
fn assert_refusals_change_nothing<S: Checkpoint>(
    n_columns: usize,
    series: impl Fn(u64) -> S,
    columns: impl Fn(&S) -> Vec<Vec<f64>>,
    shorten: impl Fn(&mut S),
    other_beta: Option<S>,
) {
    let snapshotted = || {
        let mut target = series(1);
        target.mark_clean();
        target
    };
    let before = observe(&snapshotted(), &columns);
    assert_eq!(before.0[0].len(), ROWS);
    assert_eq!(
        before.1.iter().map(|(_, dirty)| *dirty).collect::<Vec<_>>(),
        [false, false, true, true],
        "two clean chunks, the partial one and the head"
    );
    let mut donor = series(2);

    // The row count is the last field of every head.
    let mut head = save_section_bytes(&donor, "head");
    let at = head.len() - 8;
    head[at..].copy_from_slice(&(ROWS as u64 + 1).to_le_bytes());

    // Chunk 0 of ten rows, nine in the last column.
    let mut body = Encoder::new();
    body.u64(0);
    for (i, col) in columns(&donor)[..n_columns].iter().enumerate() {
        body.f64s(&col[..if i + 1 < n_columns { 10 } else { 9 }]);
    }
    let mut chunk = Encoder::new();
    chunk.str(donor.kind());
    chunk.bytes(&body.into_bytes());

    shorten(&mut donor);
    let mut offers = vec![
        ("head", Some("head"), head),
        ("chunk 0", Some("rows/0"), chunk.into_bytes()),
        ("whole blob", None, save_state(&donor)),
    ];
    if let Some(foreign) = &other_beta {
        offers.push((
            "head at another β",
            Some("head"),
            save_section_bytes(foreign, "head"),
        ));
        offers.push(("whole blob at another β", None, save_state(foreign)));
    }
    let mut wrong = String::new();
    for (what, section, blob) in offers {
        let mut target = snapshotted();
        let refused = match section {
            Some(name) => load_section_bytes(&blob, name, &mut target),
            None => load_state(&blob, &mut target),
        };
        if !matches!(refused, Err(CkptError::Corrupt { .. })) {
            wrong += &format!("\n  {what}: {refused:?}");
        }
        if observe(&target, &columns) != before {
            wrong += &format!("\n  {what}: the refused restore changed the series");
        }
    }
    assert!(wrong.is_empty(), "{}:{wrong}", donor.kind());
}

#[test]
fn refused_sections_leave_a_tfim_series_as_it_was() {
    let model = TfimModel {
        lx: 8,
        ly: 1,
        j: 1.0,
        h: 1.3,
        beta: 1.7,
        m: 8,
    };
    assert_refusals_change_nothing(
        4,
        |seed| SerialTfim::new(model).run(&mut Xoshiro256StarStar::new(seed), 20, ROWS, 1),
        |s: &TfimSeries| {
            vec![
                s.energy.clone(),
                s.abs_m.clone(),
                s.m2.clone(),
                s.sigma_x.clone(),
            ]
        },
        |s| s.sigma_x.truncate(ROWS - 1),
        Some(SerialTfim::new(TfimModel { beta: 4.0, ..model }).run(
            &mut Xoshiro256StarStar::new(3),
            20,
            ROWS,
            1,
        )),
    );
}

#[test]
fn refused_sections_leave_a_worldline_series_as_it_was() {
    let params = WorldlineParams {
        l: 8,
        jx: 1.0,
        jz: 1.0,
        beta: 1.0,
        m: 8,
    };
    assert_refusals_change_nothing(
        5,
        |seed| Worldline::new(params).run(&mut Xoshiro256StarStar::new(seed), 20, ROWS),
        |s: &TimeSeries| {
            vec![
                s.energy.clone(),
                s.denergy.clone(),
                s.magnetization.clone(),
                s.staggered.clone(),
                s.chi.clone(),
                s.correlations(),
            ]
        },
        |s| s.chi.truncate(ROWS - 1),
        Some(
            Worldline::new(WorldlineParams {
                beta: 4.0,
                ..params
            })
            .run(&mut Xoshiro256StarStar::new(3), 20, ROWS),
        ),
    );
}

#[test]
fn refused_sections_leave_an_sse_series_as_it_was() {
    assert_refusals_change_nothing(
        3,
        |seed| {
            let mut rng = Xoshiro256StarStar::new(seed);
            Sse::new(&Chain::new(8), 1.0, 2.0, &mut rng).run(&mut rng, 20, ROWS)
        },
        |s: &SseSeries| {
            vec![
                s.n_ops.clone(),
                s.magnetization.clone(),
                s.staggered.clone(),
                s.correlations(),
            ]
        },
        |s| s.staggered.truncate(ROWS - 1),
        Some({
            let mut rng = Xoshiro256StarStar::new(3);
            Sse::new(&Chain::new(8), 1.0, 4.0, &mut rng).run(&mut rng, 20, ROWS)
        }),
    );
}
