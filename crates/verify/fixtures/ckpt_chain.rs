//! Lint fixture: delta checkpoint writes with no full-snapshot bound.
//!
//! `ckpt-unbounded-chain` must fire here — this file writes deltas in a
//! loop but never mentions a full-snapshot cadence knob, so every
//! restore walks an ever-longer chain of bases.

fn checkpoint_forever(store: &CkptStore, mut next_plan: impl FnMut(u64) -> Plan) {
    for s in 0.. {
        let _ = store.write_plan(s, next_plan(s), true);
        let _ = store.write_sections(s, false, |w| w.plan(next_plan(s)));
    }
}
