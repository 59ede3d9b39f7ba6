//! Result checking: order-independent result digests, the seeded input
//! generator, and the logical size of user data.

use pascalr::{Catalog, Tuple, Value};

/// What a read must return: its cardinality and the order-independent sum
/// of its tuple hashes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Expect {
    pub(crate) rows: usize,
    pub(crate) hash: u64,
}

impl Expect {
    /// The digest of a result given as distinct tuples in any order.
    pub(crate) fn of<'a>(tuples: impl IntoIterator<Item = &'a Tuple>) -> Expect {
        let mut rows = 0;
        let mut hash = 0u64;
        for t in tuples {
            rows += 1;
            hash = hash.wrapping_add(tuple_hash(t));
        }
        Expect { rows, hash }
    }
}

/// Whether a result matches what it must return.  With `corrupt` set, the
/// result is damaged first (once), to show that the check catches it.
pub(crate) fn matches(tuples: &mut Vec<Tuple>, want: Expect, corrupt: &mut bool) -> bool {
    if std::mem::take(corrupt) && tuples.pop().is_none() {
        tuples.push(Tuple::new(Vec::new()));
    }
    Expect::of(tuples.iter()) == want
}

/// A stable 64-bit hash of a tuple's values (FNV-1a over a tagged
/// encoding, then a splitmix finalizer), independent of the build and of
/// `std`'s hasher.
fn tuple_hash(t: &Tuple) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut feed = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    for v in t.values() {
        match v {
            Value::Bool(b) => feed(&[1, u8::from(*b)]),
            Value::Int(i) => {
                feed(&[2]);
                feed(&i.to_le_bytes());
            }
            Value::Str(s) => {
                feed(&[3]);
                feed(&(s.len() as u64).to_le_bytes());
                feed(s.as_bytes());
            }
            Value::Enum(e) => {
                feed(&[4]);
                feed(&e.ordinal.to_le_bytes());
            }
            Value::Ref(r) => {
                feed(&[5]);
                feed(format!("{r:?}").as_bytes());
            }
        }
    }
    mix(h)
}

/// Order-independent digest of every relation of a catalog, used to tell
/// whether a generated database is the one a recorded expectation is for.
pub(crate) fn catalog_digest(catalog: &Catalog) -> u64 {
    let mut names = catalog.relation_names();
    names.sort_unstable();
    names.iter().fold(0u64, |acc, name| {
        let rel = catalog.relation(name).expect("listed relation exists");
        let d = Expect::of(rel.iter().map(|(_, t)| t));
        mix(acc ^ d.hash ^ fnv(name.as_bytes()) ^ d.rows as u64)
    })
}

fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Logical bytes of user data in a tuple: 8 per integer or reference, the
/// length of a string, 4 per enum label, 1 per boolean.
pub(crate) fn user_bytes(t: &Tuple) -> u64 {
    t.values()
        .iter()
        .map(|v| match v {
            Value::Bool(_) => 1,
            Value::Int(_) | Value::Ref(_) => 8,
            Value::Str(s) => s.len() as u64,
            Value::Enum(_) => 4,
        })
        .sum()
}

/// Logical bytes of every tuple of a catalog.
pub(crate) fn catalog_user_bytes(catalog: &Catalog) -> u64 {
    catalog
        .relation_names()
        .iter()
        .map(|name| {
            let rel = catalog.relation(name).expect("listed relation exists");
            rel.iter().map(|(_, t)| user_bytes(t)).sum::<u64>()
        })
        .sum()
}

/// splitmix64: the benchmark's own seeded generator, so that inputs depend
/// only on `--seed`.
#[derive(Debug, Clone)]
pub(crate) struct Rng(u64);

impl Rng {
    pub(crate) fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub(crate) fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix(self.0)
    }

    /// Uniform in `lo..=hi`.
    pub(crate) fn range(&mut self, lo: i64, hi: i64) -> i64 {
        let span = (hi - lo + 1) as u64;
        lo + (self.next_u64() % span) as i64
    }

    /// Uniform in `[0, 1)`.
    pub(crate) fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fisher-Yates shuffle.
    pub(crate) fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            v.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_ignores_order_but_not_content() {
        let a = Tuple::new(vec![Value::int(1), Value::str("x")]);
        let b = Tuple::new(vec![Value::int(2), Value::str("y")]);
        let c = Tuple::new(vec![Value::int(2), Value::str("z")]);
        assert_eq!(Expect::of([&a, &b]), Expect::of([&b, &a]));
        assert_ne!(Expect::of([&a, &b]), Expect::of([&a, &c]));
        assert_ne!(Expect::of([&a, &b]), Expect::of([&a]));
    }

    #[test]
    fn rng_is_seeded() {
        let draw = |seed| {
            let mut r = Rng::new(seed);
            (0..4).map(|_| r.range(1, 99)).collect::<Vec<_>>()
        };
        assert_eq!(draw(3), draw(3));
        assert_ne!(draw(3), draw(4));
        assert!(draw(5).iter().all(|v| (1..=99).contains(v)));
    }
}
