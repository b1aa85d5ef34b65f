//! Seeded inputs and the exact oracle every caller checks its results
//! against. Each caller owns a disjoint key range, so its oracle stays
//! exact however the callers interleave.

use ceh_types::{DeleteOutcome, InsertOutcome, Key, Value};

/// splitmix64: a tiny deterministic generator, so a seed fixes every
/// input without depending on a random-number crate.
pub fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The operation mix a caller draws from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// Finds of present keys only.
    Read,
    /// 50 % finds of present keys, 25 % inserts of fresh keys, 25 %
    /// deletes of live keys: the live set keeps its size.
    Churn,
}

/// One operation a caller issues.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Look up a key the oracle holds.
    Find(Key),
    /// Insert a key never used before.
    Insert(Key, Value),
    /// Delete a key the oracle holds.
    Delete(Key),
}

impl Op {
    /// Finds and updates are timed apart.
    pub fn is_find(&self) -> bool {
        matches!(self, Op::Find(_))
    }
}

/// What the program answered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// A find's answer.
    Found(Option<Value>),
    /// An insert's answer.
    Inserted(InsertOutcome),
    /// A delete's answer.
    Deleted(DeleteOutcome),
}

/// One caller's key range, live set and operation stream.
pub struct Caller {
    seed: u64,
    id: u64,
    rng: u64,
    /// Indices of the caller's live keys, in no particular order.
    live: Vec<u32>,
    next_fresh: u32,
    /// The op in flight: `(op, index into live)` for finds and deletes.
    pending: Option<(Op, usize)>,
    /// Keys whose state an errored operation left unknown.
    pub unknown: Vec<Key>,
}

impl Caller {
    /// Caller `id` of a run with `seed`, owning `preload` live keys.
    pub fn new(seed: u64, id: u64, preload: u32) -> Caller {
        Caller {
            seed,
            id,
            rng: seed ^ (id + 1).wrapping_mul(0xA24B_AED4_963E_E407),
            live: (0..preload).collect(),
            next_fresh: preload,
            pending: None,
            unknown: Vec::new(),
        }
    }

    /// The caller's `i`-th key: the caller id and the seed sit in the
    /// high bits, so ranges never overlap and each seed hashes to a
    /// different file.
    pub fn key(&self, i: u32) -> Key {
        Key(((self.id + 1) << 56) | ((self.seed & 0xFF_FFFF) << 32) | u64::from(i))
    }

    /// The value stored under `key` (a function of the key, so the
    /// oracle needs only the live set).
    pub fn value(&self, key: Key) -> Value {
        let mut s = key.0 ^ self.seed;
        Value(mix(&mut s))
    }

    /// Keys to preload, in the order the caller's range lists them.
    pub fn live_keys(&self) -> impl Iterator<Item = Key> + '_ {
        self.live.iter().map(|&i| self.key(i))
    }

    /// Live keys in the oracle.
    pub fn live_len(&self) -> usize {
        self.live.len()
    }

    /// A uniformly drawn sample of `n` live keys (with repeats).
    pub fn sample(&mut self, n: usize) -> Vec<Key> {
        (0..n)
            .map(|_| {
                let i = (mix(&mut self.rng) % self.live.len() as u64) as usize;
                self.key(self.live[i])
            })
            .collect()
    }

    /// Draw the next operation of `mix`.
    pub fn next_op(&mut self, mix_kind: Mix) -> Op {
        assert!(self.pending.is_none(), "previous op was not settled");
        // An empty live set can only grow: draw an insert.
        let roll = if self.live.is_empty() {
            2
        } else {
            mix(&mut self.rng)
        };
        let pick = (mix(&mut self.rng) % self.live.len().max(1) as u64) as usize;
        let op = match (mix_kind, roll % 4) {
            (Mix::Read, _) | (Mix::Churn, 0 | 1) => Op::Find(self.key(self.live[pick])),
            (Mix::Churn, 2) => {
                let key = self.key(self.next_fresh);
                self.next_fresh += 1;
                Op::Insert(key, self.value(key))
            }
            _ => Op::Delete(self.key(self.live[pick])),
        };
        self.pending = Some((op, pick));
        op
    }

    /// Check the program's answer to the pending op against the oracle
    /// and apply it. A wrong answer is an error: the run must abort.
    pub fn settle(&mut self, got: Outcome) -> Result<(), String> {
        let (op, pick) = self.pending.take().expect("an op is pending");
        let ok = match (op, got) {
            (Op::Find(k), Outcome::Found(v)) => v == Some(self.value(k)),
            (Op::Insert(_, _), Outcome::Inserted(InsertOutcome::Inserted)) => {
                self.live.push(self.next_fresh - 1);
                true
            }
            (Op::Delete(_), Outcome::Deleted(DeleteOutcome::Deleted)) => {
                self.live.swap_remove(pick);
                true
            }
            _ => false,
        };
        if ok {
            Ok(())
        } else {
            Err(format!("wrong result: {op:?} returned {got:?}"))
        }
    }

    /// The pending op failed with an error: its key's state is unknown
    /// from now on, so the oracle stops tracking it.
    pub fn settle_failed(&mut self) {
        let (op, pick) = self.pending.take().expect("an op is pending");
        match op {
            Op::Find(_) => {}
            Op::Insert(k, _) => self.unknown.push(k),
            Op::Delete(k) => {
                self.live.swap_remove(pick);
                self.unknown.push(k);
            }
        }
    }
}

/// Fisher–Yates shuffle driven by [`mix`].
pub fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut rng = seed;
    for i in (1..items.len()).rev() {
        let j = (mix(&mut rng) % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn callers_own_disjoint_ranges_per_seed() {
        let a = Caller::new(1, 0, 4);
        let b = Caller::new(1, 1, 4);
        let c = Caller::new(2, 0, 4);
        assert_ne!(a.key(0), b.key(0));
        assert_ne!(a.key(0), c.key(0));
        assert_eq!(a.key(3), Caller::new(1, 0, 4).key(3));
    }

    #[test]
    fn churn_keeps_the_oracle_exact() {
        let mut c = Caller::new(9, 0, 100);
        let mut model: std::collections::HashSet<Key> = c.live_keys().collect();
        for _ in 0..10_000 {
            let op = c.next_op(Mix::Churn);
            let out = match op {
                Op::Find(k) => {
                    assert!(model.contains(&k));
                    Outcome::Found(Some(c.value(k)))
                }
                Op::Insert(k, _) => {
                    assert!(model.insert(k), "fresh keys are fresh");
                    Outcome::Inserted(InsertOutcome::Inserted)
                }
                Op::Delete(k) => {
                    assert!(model.remove(&k));
                    Outcome::Deleted(DeleteOutcome::Deleted)
                }
            };
            c.settle(out).unwrap();
        }
        assert_eq!(c.live_len(), model.len());
        let live: std::collections::HashSet<Key> = c.live_keys().collect();
        assert_eq!(live, model);
    }

    #[test]
    fn wrong_answers_are_errors() {
        let mut c = Caller::new(3, 0, 10);
        let op = c.next_op(Mix::Read);
        assert!(op.is_find());
        assert!(c.settle(Outcome::Found(None)).is_err());
        c.next_op(Mix::Read);
        assert!(c
            .settle(Outcome::Inserted(InsertOutcome::Inserted))
            .is_err());
    }

    #[test]
    fn failed_updates_leave_their_key_unknown() {
        let mut c = Caller::new(5, 0, 10);
        loop {
            if let Op::Delete(k) = c.next_op(Mix::Churn) {
                c.settle_failed();
                assert_eq!(c.unknown.last(), Some(&k));
                assert_eq!(c.live_len(), 9);
                break;
            }
            c.settle_failed();
        }
    }

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let mut a: Vec<u32> = (0..50).collect();
        let mut b = a.clone();
        shuffle(&mut a, 7);
        shuffle(&mut b, 7);
        assert_eq!(a, b);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }
}
