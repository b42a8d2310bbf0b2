// Fixture: HashMap in a file that writes bytes with the shared codec.
// Not compiled — read by the qmc-lint self-tests, which assert the
// `ckpt-hashmap` rule fires outside qmc-ckpt: this file implements no
// `Checkpoint`, but it names `Encoder`, so map iteration order would
// leak into the bytes it sends.

use qmc_comm::wire::Encoder;
use std::collections::HashMap;

// VIOLATION: the counters are encoded in HashMap iteration order, so two
// ranks holding the same counters can send different bytes.
pub fn encode_counters(counters: &HashMap<String, u64>, enc: &mut Encoder) {
    enc.u64(counters.len() as u64);
    for (name, v) in counters {
        enc.str(name);
        enc.u64(*v);
    }
}
