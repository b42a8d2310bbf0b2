//! Checkpointing for [`qmc_obs::Registry`] metrics.
//!
//! Engines own a registry of acceptance counters and cluster-size
//! histograms; resuming a run must resume those too or the reported
//! rates drift from the uninterrupted trajectory. Registries register a
//! fixed set of names at construction time, so restore is strict: the
//! saved names must match the fresh registry's names, in order —
//! anything else means the checkpoint belongs to a different engine
//! build and is rejected as corrupt.

use crate::{CkptError, Decoder, Encoder};
use qmc_obs::{Hist, Registry, N_BUCKETS};

/// Append every counter and histogram of `reg` to `enc`.
pub fn save_registry(enc: &mut Encoder, reg: &Registry) {
    let counters = reg.counters();
    enc.u64(counters.len() as u64);
    for (name, value) in counters {
        enc.str(name);
        enc.u64(*value);
    }
    let hists = reg.hists();
    enc.u64(hists.len() as u64);
    for (name, h) in hists {
        enc.str(name);
        enc.u64s(&h.buckets);
        enc.u64(h.count);
        enc.u64(h.sum);
        enc.u64(h.min);
        enc.u64(h.max);
    }
}

/// Restore `reg` from bytes written by [`save_registry`]. The registry
/// must already hold the same names in the same order (engines register
/// everything in their constructor).
pub fn load_registry(dec: &mut Decoder, reg: &mut Registry) -> Result<(), CkptError> {
    let n_counters = dec.u64()? as usize;
    if n_counters != reg.counters().len() {
        return Err(CkptError::corrupt(format!(
            "registry has {} counters, checkpoint has {n_counters}",
            reg.counters().len()
        )));
    }
    for i in 0..n_counters {
        let name = dec.str()?;
        let value = dec.u64()?;
        if name != reg.counters()[i].0 {
            return Err(CkptError::corrupt(format!(
                "counter {i} is {:?}, checkpoint has {name:?}",
                reg.counters()[i].0
            )));
        }
        reg.set_counter(i, value);
    }
    let n_hists = dec.u64()? as usize;
    if n_hists != reg.hists().len() {
        return Err(CkptError::corrupt(format!(
            "registry has {} histograms, checkpoint has {n_hists}",
            reg.hists().len()
        )));
    }
    for i in 0..n_hists {
        let name = dec.str()?;
        if name != reg.hists()[i].0 {
            return Err(CkptError::corrupt(format!(
                "histogram {i} is {:?}, checkpoint has {name:?}",
                reg.hists()[i].0
            )));
        }
        let buckets = dec.u64s()?;
        if buckets.len() != N_BUCKETS {
            return Err(CkptError::corrupt(format!(
                "histogram {name:?} has {} buckets",
                buckets.len()
            )));
        }
        let h: &mut Hist = reg.hist_mut(i);
        h.buckets.copy_from_slice(&buckets);
        h.count = dec.u64()?;
        h.sum = dec.u64()?;
        h.min = dec.u64()?;
        h.max = dec.u64()?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Registry {
        let mut r = Registry::new();
        let c = r.counter("accepted");
        r.add(c, 41);
        r.add_named("proposed", 100);
        let h = r.hist("cluster");
        r.record(h, 5);
        r.record(h, 1000);
        r
    }

    fn fresh_like(src: &Registry) -> Registry {
        // A freshly constructed engine registers the same names with
        // zero values; emulate that shape.
        let mut r = Registry::new();
        for (name, _) in src.counters() {
            r.counter(name);
        }
        for (name, _) in src.hists() {
            r.hist(name);
        }
        r
    }

    #[test]
    fn registry_round_trips_exactly() {
        let orig = sample();
        let mut enc = Encoder::new();
        save_registry(&mut enc, &orig);
        let bytes = enc.into_bytes();
        let mut back = fresh_like(&orig);
        load_registry(&mut Decoder::new(&bytes), &mut back).unwrap();
        assert_eq!(back.get("accepted"), 41);
        assert_eq!(back.get("proposed"), 100);
        let h = back.hist_get("cluster").unwrap();
        assert_eq!((h.count, h.sum, h.min, h.max), (2, 1005, 5, 1000));
        assert_eq!(
            h.nonzero().collect::<Vec<_>>(),
            orig.hist_get("cluster")
                .unwrap()
                .nonzero()
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn name_mismatch_is_rejected() {
        let orig = sample();
        let mut enc = Encoder::new();
        save_registry(&mut enc, &orig);
        let bytes = enc.into_bytes();
        let mut other = Registry::new();
        other.counter("different");
        other.counter("proposed");
        other.hist("cluster");
        assert!(matches!(
            load_registry(&mut Decoder::new(&bytes), &mut other),
            Err(CkptError::Corrupt { .. })
        ));
    }
}
