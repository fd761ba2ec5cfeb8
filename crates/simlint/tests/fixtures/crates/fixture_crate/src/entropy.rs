//! D003/D007 fixture: OS entropy in the shapes real crates write it
//! (SNIPPETS.md) — an `OsRng` behind a lazily built `RwLock` static, and
//! `rand::rng()` (rand ≥ 0.9's `thread_rng`) inside a `Default` impl —
//! next to the seeded per-node stream, which must stay silent.

use rand::{rngs::OsRng, seq::IteratorRandom}; //~ D003
use std::collections::hash_map::RandomState; //~ D003
use std::sync::RwLock;

lazy_static! {
    static ref RNG: RwLock<OsRng> = { RwLock::new(OsRng::new().unwrap()) }; //~ D003 D003 D007
}

pub struct Node {
    msg_count: u64,
}

impl Default for Node {
    fn default() -> Self {
        Self {
            msg_count: rand::rng().random_range(0..10000), //~ D003
        }
    }
}

pub fn hasher() -> RandomState { //~ D003
    RandomState::new() //~ D003
}

pub fn seeded(ctx: &mut Context<'_>) -> u64 {
    // Negative: a method `.rng()` is the simulator's seeded per-node
    // stream, not OS entropy.
    ctx.rng().gen_range(0..10000)
}
