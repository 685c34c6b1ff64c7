//! A minimal, std-only property-testing harness exposing the subset of
//! the `proptest` crate's surface this workspace uses: the [`proptest!`]
//! macro, [`prelude::any`], range strategies, `prop_assert*` macros and
//! [`ProptestConfig`].
//!
//! The build environment has no crates.io access, so the real `proptest`
//! cannot be fetched; this local crate shadows it via a workspace path
//! dependency. Sampling is deterministic: every test derives its RNG
//! stream from its own name, so failures reproduce exactly across runs
//! and machines.
//!
//! Failing cases are **shrunk** (each argument halves toward its range
//! minimum while the property keeps failing) and the minimal case is
//! persisted to a `*.proptest-regressions` file next to the test source,
//! in the same `cc <hash> # shrinks to a = 1, b = 2` format the real
//! crate uses. Persisted entries whose argument names match a property
//! are replayed *before* any fresh cases are sampled.

#![warn(missing_docs)]

/// Deterministic xorshift64* stream used to sample strategies.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// Seed the stream from a test name (stable across runs).
    pub fn from_name(name: &str) -> Rng {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        Rng(h | 1)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

/// A source of random values of one type — the strategy abstraction.
pub trait Strategy {
    /// The value type produced.
    type Value;

    /// Draw one value.
    fn sample(&self, rng: &mut Rng) -> Self::Value;

    /// Candidate simplifications of a failing `value`, ordered most
    /// aggressive first (the domain minimum, then halving toward it,
    /// then the single-step neighbour). Every candidate must be strictly
    /// closer to the minimum than `value`, so greedy shrinking always
    /// terminates. The default is "cannot shrink".
    fn shrink(&self, value: &Self::Value) -> Vec<Self::Value> {
        let _ = value;
        Vec::new()
    }
}

/// Full-range strategy for a primitive type (see [`prelude::any`]).
#[derive(Debug, Clone, Copy)]
pub struct Any<T>(std::marker::PhantomData<T>);

/// The `any::<T>()` entry point: uniform over the whole domain of `T`.
pub fn any<T>() -> Any<T> {
    Any(std::marker::PhantomData)
}

macro_rules! impl_any {
    ($($t:ty),*) => {$(
        impl Strategy for Any<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut Rng) -> $t {
                rng.next_u64() as $t
            }
            fn shrink(&self, value: &$t) -> Vec<$t> {
                let v = *value;
                let mut out = Vec::new();
                if v != 0 {
                    out.push(0);
                    let half = v / 2; // rounds toward zero for signed types too
                    if half != 0 {
                        out.push(half);
                    }
                    let step = if v > 0 { v - 1 } else { v + 1 };
                    if step != 0 && step != half {
                        out.push(step);
                    }
                }
                out
            }
        }
    )*};
}
impl_any!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Strategy for Any<bool> {
    type Value = bool;
    fn sample(&self, rng: &mut Rng) -> bool {
        rng.next_u64() & 1 == 1
    }
    fn shrink(&self, value: &bool) -> Vec<bool> {
        if *value {
            vec![false]
        } else {
            Vec::new()
        }
    }
}

macro_rules! impl_range {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut Rng) -> $t {
                assert!(self.start < self.end, "empty strategy range");
                let span = (self.end - self.start) as u64;
                self.start + (rng.next_u64() % span) as $t
            }
            fn shrink(&self, value: &$t) -> Vec<$t> {
                let (start, v) = (self.start, *value);
                let mut out = Vec::new();
                if v > start {
                    out.push(start);
                    let half = start + (v - start) / 2;
                    if half != start {
                        out.push(half);
                    }
                    let step = v - 1;
                    if step != start && step != half {
                        out.push(step);
                    }
                }
                out
            }
        }
    )*};
}
impl_range!(u8, u16, u32, u64, usize);

/// Per-block configuration (`#![proptest_config(...)]`).
#[derive(Debug, Clone, Copy)]
pub struct ProptestConfig {
    /// Number of cases sampled per property.
    pub cases: u32,
    /// Persist shrunk failures to the sibling regression file.
    pub persist: bool,
}

impl ProptestConfig {
    /// A config running `cases` samples per property.
    pub fn with_cases(cases: u32) -> ProptestConfig {
        ProptestConfig {
            cases,
            persist: true,
        }
    }

    /// Disable regression-file persistence (used by self-tests that
    /// exercise failing properties on purpose).
    pub fn no_persist(mut self) -> ProptestConfig {
        self.persist = false;
        self
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig {
            cases: 64,
            persist: true,
        }
    }
}

/// Error type property bodies may return via `?` / `Ok(())`.
#[derive(Debug, Clone)]
pub struct TestCaseError(pub String);

impl std::fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

/// Values that can round-trip through a regression file entry.
///
/// Written with `{:?}` formatting; parsed back with this trait. Only the
/// primitive types the strategies above produce are supported.
pub trait FromRegression: Sized {
    /// Parse a persisted value, `None` if malformed.
    fn parse_value(s: &str) -> Option<Self>;
}

macro_rules! impl_from_regression {
    ($($t:ty),*) => {$(
        impl FromRegression for $t {
            fn parse_value(s: &str) -> Option<$t> {
                s.trim().parse().ok()
            }
        }
    )*};
}
impl_from_regression!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, bool);

/// Parse `text` as the value type of `_anchor`'s strategy. The strategy
/// argument only anchors type inference so replayed values get exactly
/// the sampled type.
pub fn parse_for<S: Strategy>(_anchor: &S, text: Option<&str>) -> Option<S::Value>
where
    S::Value: FromRegression,
{
    FromRegression::parse_value(text?)
}

/// Render a caught panic payload as text (assert!/prop_assert! messages).
pub fn panic_text(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "test body panicked".to_string()
    }
}

/// Reading and writing `*.proptest-regressions` files.
///
/// One file sits next to each test source file and accumulates one
/// `cc <hash> # shrinks to name = value, ...` line per distinct shrunk
/// failure. All properties in the file share it; an entry is replayed by
/// every property whose argument names are all present in the entry.
pub mod regression {
    use std::path::{Path, PathBuf};

    /// One persisted failing case: `name = value` assignments.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct Entry {
        pairs: Vec<(String, String)>,
    }

    impl Entry {
        /// The persisted value for argument `name`, if present.
        pub fn get(&self, name: &str) -> Option<&str> {
            self.pairs
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| v.as_str())
        }

        /// Human-readable `a = 1, b = 2` form.
        pub fn text(&self) -> String {
            self.pairs
                .iter()
                .map(|(n, v)| format!("{n} = {v}"))
                .collect::<Vec<_>>()
                .join(", ")
        }
    }

    /// Locate the source file `file!()` names. Test binaries run with the
    /// package directory as CWD while `file!()` is workspace-relative, so
    /// walk up a few levels until the path resolves.
    fn resolve_source(src: &str) -> Option<PathBuf> {
        let p = Path::new(src);
        if p.exists() {
            return Some(p.to_path_buf());
        }
        let mut up = PathBuf::new();
        for _ in 0..4 {
            up.push("..");
            let cand = up.join(p);
            if cand.exists() {
                return Some(cand);
            }
        }
        None
    }

    /// The regression file shadowing source file `src` (`.rs` swapped for
    /// `.proptest-regressions`), if the source can be located.
    pub fn path_for(src: &str) -> Option<PathBuf> {
        resolve_source(src).map(|p| p.with_extension("proptest-regressions"))
    }

    fn parse_line(line: &str) -> Option<Entry> {
        let line = line.trim();
        if !line.starts_with("cc ") {
            return None;
        }
        let rest = line.split_once('#')?.1.trim();
        let rest = rest.strip_prefix("shrinks to")?.trim();
        let mut pairs = Vec::new();
        for piece in rest.split(',') {
            let (name, value) = piece.split_once('=')?;
            pairs.push((name.trim().to_string(), value.trim().to_string()));
        }
        if pairs.is_empty() {
            return None;
        }
        Some(Entry { pairs })
    }

    fn load_all(src: &str) -> Vec<Entry> {
        let Some(path) = path_for(src) else {
            return Vec::new();
        };
        let Ok(text) = std::fs::read_to_string(&path) else {
            return Vec::new();
        };
        text.lines().filter_map(parse_line).collect()
    }

    /// Entries from `src`'s regression file carrying a value for every
    /// name in `names` — the ones a property with those arguments can
    /// replay.
    pub fn load_matching(src: &str, names: &[&str]) -> Vec<Entry> {
        load_all(src)
            .into_iter()
            .filter(|e| names.iter().all(|n| e.get(n).is_some()))
            .collect()
    }

    /// Render assignments as the `a = 1, b = 2` entry payload.
    pub fn render(assignments: &[(&str, String)]) -> String {
        assignments
            .iter()
            .map(|(n, v)| format!("{n} = {v}"))
            .collect::<Vec<_>>()
            .join(", ")
    }

    fn fnv(seed: u64, text: &str) -> u64 {
        let mut h = seed;
        for b in text.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        h
    }

    const HEADER: &str = "\
# Seeds for failure cases proptest has generated in the past. It is
# automatically read and these particular cases re-run before any
# novel cases are generated.
#
# It is recommended to check this file in to source control so that
# everyone who runs the test benefits from these saved cases.
";

    /// Append a shrunk failing case to `src`'s regression file, creating
    /// it (with the conventional header) on first use. Duplicate entries
    /// are not re-added. Returns the file written, `None` if the source
    /// file could not be located or the write failed.
    pub fn persist(src: &str, assignments: &[(&str, String)]) -> Option<PathBuf> {
        let path = path_for(src)?;
        let body = render(assignments);
        let new_entry = parse_line(&format!("cc 0 # shrinks to {body}"))?;
        if load_all(src).contains(&new_entry) {
            return Some(path);
        }
        let mut text = if path.exists() {
            std::fs::read_to_string(&path).ok()?
        } else {
            HEADER.to_string()
        };
        if !text.is_empty() && !text.ends_with('\n') {
            text.push('\n');
        }
        let hash = format!(
            "{:016x}{:016x}{:016x}{:016x}",
            fnv(0xcbf2_9ce4_8422_2325, &body),
            fnv(0x9e37_79b9_7f4a_7c15, &body),
            fnv(0x2545_f491_4f6c_dd1d, &body),
            fnv(0x100_0000_01b3, &body),
        );
        text.push_str(&format!("cc {hash} # shrinks to {body}\n"));
        std::fs::write(&path, text).ok()?;
        Some(path)
    }
}

/// Declare property tests: each `fn name(arg in strategy, ...) { body }`
/// becomes a `#[test]` that first replays matching entries from the
/// sibling `*.proptest-regressions` file, then runs the body over
/// sampled inputs, shrinking and persisting any failure it finds.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!{ @expand ($cfg); $($rest)* }
    };
    (@expand ($cfg:expr); $( $(#[$meta:meta])* fn $name:ident
        ( $($arg:ident in $strat:expr),* $(,)? ) $body:block )*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let __cfg = $cfg;

                // Phase 1: replay persisted regressions whose argument
                // names cover this property's arguments. Arguments live in
                // `RefCell`s so the no-argument runner closure can be
                // re-invoked while the shrink loop (phase 2) swaps
                // candidate values in and out; failures (Err returns and
                // prop_assert! panics alike) come back as Err(text).
                let __names: &[&str] = &[$(stringify!($arg)),*];
                for __entry in $crate::regression::load_matching(file!(), __names) {
                    $(let $arg = match $crate::parse_for(&($strat), __entry.get(stringify!($arg))) {
                        ::std::option::Option::Some(v) => ::std::cell::RefCell::new(v),
                        ::std::option::Option::None => continue,
                    };)*
                    let __run = || -> ::std::result::Result<(), ::std::string::String> {
                        match ::std::panic::catch_unwind(::std::panic::AssertUnwindSafe(|| {
                            $(let $arg = ::std::clone::Clone::clone(&*$arg.borrow());)*
                            let __r: ::std::result::Result<(), $crate::TestCaseError> =
                                (|| { $body ::std::result::Result::Ok(()) })();
                            __r
                        })) {
                            ::std::result::Result::Ok(::std::result::Result::Ok(())) =>
                                ::std::result::Result::Ok(()),
                            ::std::result::Result::Ok(::std::result::Result::Err(e)) =>
                                ::std::result::Result::Err(e.0),
                            ::std::result::Result::Err(p) =>
                                ::std::result::Result::Err($crate::panic_text(p)),
                        }
                    };
                    if let ::std::result::Result::Err(e) = __run() {
                        panic!(
                            "property {} failed on persisted regression ({}): {}",
                            stringify!($name), __entry.text(), e
                        );
                    }
                }

                // Phase 2: fresh deterministic cases.
                let mut __rng = $crate::Rng::from_name(stringify!($name));
                for __case in 0..__cfg.cases {
                    $(let $arg = ::std::cell::RefCell::new(
                        $crate::Strategy::sample(&($strat), &mut __rng));)*
                    let __run = || -> ::std::result::Result<(), ::std::string::String> {
                        match ::std::panic::catch_unwind(::std::panic::AssertUnwindSafe(|| {
                            $(let $arg = ::std::clone::Clone::clone(&*$arg.borrow());)*
                            let __r: ::std::result::Result<(), $crate::TestCaseError> =
                                (|| { $body ::std::result::Result::Ok(()) })();
                            __r
                        })) {
                            ::std::result::Result::Ok(::std::result::Result::Ok(())) =>
                                ::std::result::Result::Ok(()),
                            ::std::result::Result::Ok(::std::result::Result::Err(e)) =>
                                ::std::result::Result::Err(e.0),
                            ::std::result::Result::Err(p) =>
                                ::std::result::Result::Err($crate::panic_text(p)),
                        }
                    };
                    if __run().is_ok() {
                        continue;
                    }
                    // Shrink: greedily accept any candidate (halving each
                    // argument toward its range minimum) that still fails,
                    // until no argument can shrink further.
                    loop {
                        let mut __improved = false;
                        $(
                            if !__improved {
                                let __cur = ::std::clone::Clone::clone(&*$arg.borrow());
                                for __cand in $crate::Strategy::shrink(&($strat), &__cur) {
                                    *$arg.borrow_mut() = __cand;
                                    if __run().is_err() {
                                        __improved = true;
                                        break;
                                    }
                                    *$arg.borrow_mut() = ::std::clone::Clone::clone(&__cur);
                                }
                            }
                        )*
                        if !__improved {
                            break;
                        }
                    }
                    let __err = __run()
                        .err()
                        .unwrap_or_else(|| "shrunk case stopped failing".to_string());
                    let __assignments: ::std::vec::Vec<(&str, ::std::string::String)> =
                        ::std::vec![$(
                            (stringify!($arg), ::std::format!("{:?}", $arg.borrow()))
                        ),*];
                    let __where = if __cfg.persist {
                        match $crate::regression::persist(file!(), &__assignments) {
                            ::std::option::Option::Some(p) =>
                                ::std::format!("persisted to {}", p.display()),
                            ::std::option::Option::None =>
                                ::std::string::String::from("persistence unavailable"),
                        }
                    } else {
                        ::std::string::String::from("persistence disabled")
                    };
                    panic!(
                        "property {} failed at case {}: {}\n  minimal failing case: {}\n  {}",
                        stringify!($name), __case, __err,
                        $crate::regression::render(&__assignments), __where
                    );
                }
            }
        )*
    };
    ($($rest:tt)*) => {
        $crate::proptest!{ @expand ($crate::ProptestConfig::default()); $($rest)* }
    };
}

/// Assert inside a property body (plain `assert!` semantics; the panic
/// is caught by the harness and drives shrinking).
#[macro_export]
macro_rules! prop_assert {
    ($($t:tt)*) => { assert!($($t)*) };
}

/// Assert equality inside a property body (plain `assert_eq!` semantics;
/// the panic is caught by the harness and drives shrinking).
#[macro_export]
macro_rules! prop_assert_eq {
    ($($t:tt)*) => { assert_eq!($($t)*) };
}

/// The glob-import surface tests use: `use proptest::prelude::*`.
pub mod prelude {
    pub use crate::{any, prop_assert, prop_assert_eq, proptest, ProptestConfig, Strategy};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    proptest! {
        #[test]
        fn ranges_stay_in_bounds(x in 3u8..17, y in 0usize..5) {
            prop_assert!((3..17).contains(&x));
            prop_assert!(y < 5);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(7))]

        #[test]
        fn config_and_result_bodies_work(a in any::<u32>()) {
            let r: Result<u32, crate::TestCaseError> = Ok(a);
            let b = r?;
            prop_assert_eq!(a, b);
        }
    }

    #[test]
    fn deterministic_streams() {
        let mut a = crate::Rng::from_name("t");
        let mut b = crate::Rng::from_name("t");
        for _ in 0..10 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn shrink_candidates_halve_toward_minimum() {
        assert_eq!(
            Strategy::shrink(&crate::any::<u32>(), &100),
            vec![0, 50, 99]
        );
        assert_eq!(
            Strategy::shrink(&crate::any::<u32>(), &0),
            Vec::<u32>::new()
        );
        assert_eq!(Strategy::shrink(&crate::any::<i32>(), &-9), vec![0, -4, -8]);
        assert_eq!(Strategy::shrink(&(3u8..17), &11), vec![3, 7, 10]);
        assert_eq!(Strategy::shrink(&(3u8..17), &3), Vec::<u8>::new());
        assert_eq!(Strategy::shrink(&crate::any::<bool>(), &true), vec![false]);
        assert_eq!(
            Strategy::shrink(&crate::any::<bool>(), &false),
            Vec::<bool>::new()
        );
    }

    // A deliberately failing property (NOT a #[test]; invoked below under
    // catch_unwind) to check the whole shrink pipeline end to end.
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32).no_persist())]

        fn probe_fails_from_ten_up(x in 0u32..100_000) {
            prop_assert!(x < 10);
        }
    }

    #[test]
    fn failures_shrink_to_the_minimal_case() {
        let payload =
            std::panic::catch_unwind(probe_fails_from_ten_up).expect_err("property must fail");
        let msg = crate::panic_text(payload);
        assert!(
            msg.contains("minimal failing case: x = 10"),
            "shrinking did not reach the boundary: {msg}"
        );
        assert!(msg.contains("persistence disabled"), "{msg}");
    }

    #[test]
    fn regression_file_round_trips() {
        let dir = std::env::temp_dir().join(format!("proptest-shim-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let src = dir.join("probe.rs");
        std::fs::write(&src, "// placeholder\n").unwrap();
        let src = src.to_str().unwrap().to_string();

        let args = [("a", "42".to_string()), ("flag", "true".to_string())];
        let path = crate::regression::persist(&src, &args).expect("persist");
        assert!(path.ends_with("probe.proptest-regressions"));
        // Duplicate persists are dropped.
        crate::regression::persist(&src, &args).expect("re-persist");
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.matches("shrinks to a = 42, flag = true").count(), 1);
        assert!(text.starts_with("# Seeds for failure cases"));

        let entries = crate::regression::load_matching(&src, &["a", "flag"]);
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].get("a"), Some("42"));
        assert_eq!(entries[0].get("flag"), Some("true"));
        // A property with different argument names skips the entry.
        assert!(crate::regression::load_matching(&src, &["a", "other"]).is_empty());

        std::fs::remove_dir_all(&dir).ok();
    }
}
