//! Typed cell values and a process-wide string interner.
//!
//! Categorical values are interned once and referenced by a [`Sym`] handle so
//! that [`Value`] is `Copy` and comparisons are cheap. Interned strings live
//! for the lifetime of the process; the set of distinct categorical values in
//! any workload (relationship codes, area names, …) is small and bounded, so
//! the leak is deliberate and bounded too.

use parking_lot::RwLock;
use std::cmp::Ordering;
use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::OnceLock;

/// Interned string handle. Two `Sym`s are equal iff their strings are equal.
///
/// The handle *is* the leaked `&'static str`, so reading a symbol
/// ([`Sym::as_str`], comparisons, hashing) never touches the interner lock
/// — only [`Sym::intern`] does. That matters once solves run concurrently
/// (partition coloring and chain steps on a multi-worker pool): an id-based
/// handle whose every `as_str` took a read lock made two concurrent chain
/// steps *slower* than the serial loop from cache-line contention alone.
///
/// `Ord` and `Hash` use the string contents (interning makes content
/// equality and pointer equality coincide, which `PartialEq` exploits as a
/// fast path), so orderings and hash-map behavior are deterministic
/// regardless of interning order.
#[derive(Clone, Copy, Debug)]
pub struct Sym(&'static str);

/// Number of interner shards. Million-row bulk loads intern from every
/// worker of a solver pool at once; sharding by string hash keeps
/// concurrent `intern` calls for *different* strings off the same lock. 16 comfortably exceeds any pool width we run.
const SHARDS: usize = 16;

/// The sharded intern dictionary. Each shard maps string contents to the
/// one leaked `&'static str` for that content — the shared leak arena is
/// simply the process heap (`Box::leak`), so handles from different shards
/// are interchangeable and all reads stay lock-free.
struct Interner {
    shards: [RwLock<HashMap<&'static str, &'static str>>; SHARDS],
}

fn interner() -> &'static Interner {
    static INTERNER: OnceLock<Interner> = OnceLock::new();
    INTERNER.get_or_init(|| Interner {
        shards: std::array::from_fn(|_| RwLock::new(HashMap::new())),
    })
}

fn shard_of(s: &str) -> usize {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    s.hash(&mut h);
    (h.finish() as usize) % SHARDS
}

impl Sym {
    /// Interns `s`, returning its handle. Idempotent. Only this call ever
    /// takes an interner lock, and only the one shard `s` hashes to.
    pub fn intern(s: &str) -> Sym {
        let shard = &interner().shards[shard_of(s)];
        {
            let guard = shard.read();
            if let Some(&leaked) = guard.get(s) {
                return Sym(leaked);
            }
        }
        let mut guard = shard.write();
        if let Some(&leaked) = guard.get(s) {
            return Sym(leaked);
        }
        let leaked: &'static str = Box::leak(s.to_owned().into_boxed_str());
        guard.insert(leaked, leaked);
        Sym(leaked)
    }

    /// The interned string (lock-free).
    pub fn as_str(self) -> &'static str {
        self.0
    }
}

impl PartialEq for Sym {
    fn eq(&self, other: &Self) -> bool {
        // Interned strings are unique per content, so pointer equality is
        // the common case; the content comparison only runs for symbols
        // that are genuinely different.
        std::ptr::eq(self.0, other.0) || self.0 == other.0
    }
}

impl Eq for Sym {}

impl std::hash::Hash for Sym {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.0.hash(state);
    }
}

impl PartialOrd for Sym {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Sym {
    fn cmp(&self, other: &Self) -> Ordering {
        if std::ptr::eq(self.0, other.0) {
            Ordering::Equal
        } else {
            self.0.cmp(other.0)
        }
    }
}

impl fmt::Display for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl From<&str> for Sym {
    fn from(s: &str) -> Self {
        Sym::intern(s)
    }
}

/// Data type of a column.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Dtype {
    /// 64-bit signed integer.
    Int,
    /// Interned categorical string.
    Str,
}

impl fmt::Display for Dtype {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Dtype::Int => f.write_str("int"),
            Dtype::Str => f.write_str("str"),
        }
    }
}

/// A single cell value. `Copy`; symbols carry their interned `&'static
/// str` so every read is lock-free.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Value {
    /// Integer value.
    Int(i64),
    /// Categorical value (interned).
    Str(Sym),
}

impl Value {
    /// Convenience constructor interning `s`.
    pub fn str(s: &str) -> Value {
        Value::Str(Sym::intern(s))
    }

    /// The dynamic type of this value.
    pub fn dtype(&self) -> Dtype {
        match self {
            Value::Int(_) => Dtype::Int,
            Value::Str(_) => Dtype::Str,
        }
    }

    /// Returns the integer payload, if this is an `Int`.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(v) => Some(*v),
            Value::Str(_) => None,
        }
    }

    /// Returns the symbol payload, if this is a `Str`.
    pub fn as_sym(&self) -> Option<Sym> {
        match self {
            Value::Str(s) => Some(*s),
            Value::Int(_) => None,
        }
    }

    /// Compares two values of the same type; `None` on a type mismatch.
    ///
    /// Integers compare numerically, strings lexicographically. Predicate
    /// evaluation treats a type mismatch as "condition not satisfied" rather
    /// than panicking, and schema validation catches mismatches earlier.
    pub fn cmp_same_type(&self, other: &Value) -> Option<Ordering> {
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => Some(a.cmp(b)),
            (Value::Str(a), Value::Str(b)) => Some(a.cmp(b)),
            _ => None,
        }
    }
}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    /// Total order used for deterministic grouping: all `Int`s sort before
    /// all `Str`s; within a variant, the natural order applies.
    fn cmp(&self, other: &Self) -> Ordering {
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            (Value::Str(a), Value::Str(b)) => a.cmp(b),
            (Value::Int(_), Value::Str(_)) => Ordering::Less,
            (Value::Str(_), Value::Int(_)) => Ordering::Greater,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(v) => write!(f, "{v}"),
            Value::Str(s) => write!(f, "{s}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let a = Sym::intern("Chicago");
        let b = Sym::intern("Chicago");
        assert_eq!(a, b);
        assert_eq!(a.as_str(), "Chicago");
    }

    #[test]
    fn distinct_strings_get_distinct_syms() {
        assert_ne!(Sym::intern("NYC"), Sym::intern("Chicago"));
    }

    #[test]
    fn sym_orders_lexicographically_not_by_id() {
        // Intern in reverse-lexicographic order to make id order differ.
        let z = Sym::intern("zzz-order-test");
        let a = Sym::intern("aaa-order-test");
        assert!(a < z);
    }

    #[test]
    fn value_cmp_same_type() {
        assert_eq!(
            Value::Int(1).cmp_same_type(&Value::Int(2)),
            Some(Ordering::Less)
        );
        assert_eq!(
            Value::str("a").cmp_same_type(&Value::str("a")),
            Some(Ordering::Equal)
        );
        assert_eq!(Value::Int(1).cmp_same_type(&Value::str("a")), None);
    }

    #[test]
    fn value_total_order_is_deterministic() {
        let mut vals = vec![
            Value::str("b"),
            Value::Int(5),
            Value::str("a"),
            Value::Int(-1),
        ];
        vals.sort();
        assert_eq!(
            vals,
            vec![
                Value::Int(-1),
                Value::Int(5),
                Value::str("a"),
                Value::str("b")
            ]
        );
    }

    #[test]
    fn value_display() {
        assert_eq!(Value::Int(42).to_string(), "42");
        assert_eq!(Value::str("NYC").to_string(), "NYC");
    }

    #[test]
    fn value_accessors() {
        assert_eq!(Value::Int(7).as_int(), Some(7));
        assert_eq!(Value::Int(7).as_sym(), None);
        assert_eq!(Value::str("x").as_sym(), Some(Sym::intern("x")));
        assert_eq!(Value::str("x").as_int(), None);
        assert_eq!(Value::Int(0).dtype(), Dtype::Int);
        assert_eq!(Value::str("x").dtype(), Dtype::Str);
    }

    #[test]
    fn concurrent_interning_is_consistent() {
        let handles: Vec<_> = (0..8)
            .map(|i| {
                std::thread::spawn(move || {
                    (0..100)
                        .map(|j| Sym::intern(&format!("conc-{}", (i + j) % 25)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let all: Vec<Vec<Sym>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for syms in &all {
            for s in syms {
                assert!(s.as_str().starts_with("conc-"));
            }
        }
        // Same string from different threads must be the same symbol.
        assert_eq!(Sym::intern("conc-0"), all[0][0]);
    }

    #[test]
    fn interning_across_shards_stays_consistent() {
        // Enough distinct strings to land in every shard; equality and
        // ordering must behave as if there were a single map.
        let syms: Vec<Sym> = (0..256)
            .map(|i| Sym::intern(&format!("shard-{i}")))
            .collect();
        for (i, s) in syms.iter().enumerate() {
            assert_eq!(s.as_str(), format!("shard-{i}"));
            assert_eq!(*s, Sym::intern(&format!("shard-{i}")));
        }
        let mut sorted = syms.clone();
        sorted.sort();
        let mut by_str = syms.clone();
        by_str.sort_by(|a, b| a.as_str().cmp(b.as_str()));
        assert_eq!(sorted, by_str);
    }
}
