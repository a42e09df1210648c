//! A property-test harness over [`SimRng`].
//!
//! [`check`] runs a property once per case. A case draws its inputs from a
//! [`Gen`] seeded by the property's name and the case index alone, so every
//! run explores the same cases, whatever the test order or thread; more
//! coverage comes from a larger [`cases`] count. There is no shrinking. A
//! failing case prints its seed, and [`replay`] reruns exactly that case.

use std::ops::Range;

use crate::SimRng;

const CASES_VAR: &str = "PROPTEST_CASES";

/// The case count: `PROPTEST_CASES` when it is set, else `default`.
///
/// # Panics
///
/// If the variable is set to anything but a positive integer.
#[must_use]
pub fn cases(default: u32) -> u32 {
    let Some(value) = std::env::var_os(CASES_VAR) else {
        return default;
    };
    match value.to_str().and_then(|v| v.parse().ok()) {
        Some(n) if n > 0 => n,
        _ => panic!("{CASES_VAR}={value:?} is not a positive case count"),
    }
}

/// FNV-1a over the property's name, then over the case index.
fn case_seed(name: &str, index: u32) -> u64 {
    let mut bytes = name.as_bytes().to_vec();
    bytes.extend_from_slice(&index.to_le_bytes());
    crate::hash::fnv1a(&bytes)
}

/// Runs `property` once per case, for [`cases`]`(default_cases)` cases.
///
/// # Panics
///
/// When a case panics, after printing its name, index and seed to stderr.
pub fn check(name: &str, default_cases: u32, mut property: impl FnMut(&mut Gen)) {
    for index in 0..cases(default_cases) {
        let seed = case_seed(name, index);
        let _report = ReportOnPanic(name, index, seed);
        replay(seed, &mut property);
    }
}

/// Reruns the case whose seed [`check`] printed.
pub fn replay(seed: u64, property: impl FnOnce(&mut Gen)) {
    let rng = SimRng::from_seed(seed);
    property(&mut Gen { rng });
}

/// A case's property name, index and seed, printed if it unwinds.
struct ReportOnPanic<'a>(&'a str, u32, u64);

impl Drop for ReportOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            let ReportOnPanic(name, index, seed) = self;
            eprintln!("property `{name}` failed at case {index}; replay({seed:#x}, ..) reruns it");
        }
    }
}

/// One case's inputs, drawn from a [`SimRng`] seeded for that case.
#[derive(Debug)]
pub struct Gen {
    rng: SimRng,
}

impl Gen {
    /// A uniform draw from `range`: non-empty and, for `f64`, of finite width.
    pub fn range<T: Uniform>(&mut self, range: Range<T>) -> T {
        T::draw(self, range)
    }

    /// A value of `T` uniform over its bit patterns.
    pub fn any<T: Arbitrary>(&mut self) -> T {
        T::arbitrary(self)
    }

    /// An index into `weights`, drawn with probability proportional to its
    /// weight: a choice among a property's alternatives.
    pub fn weighted(&mut self, weights: &[usize]) -> usize {
        let mut pick = self.range(0..weights.iter().sum());
        let mut i = 0;
        while pick >= weights[i] {
            pick -= weights[i];
            i += 1;
        }
        i
    }

    /// A vector of items from `item`, its length drawn from `len`.
    pub fn vec<T>(&mut self, len: Range<usize>, mut item: impl FnMut(&mut Gen) -> T) -> Vec<T> {
        let n = self.range(len);
        (0..n).map(|_| item(self)).collect()
    }

    /// `Some` item from `item`, or as often `None`.
    pub fn option<T>(&mut self, item: impl FnOnce(&mut Gen) -> T) -> Option<T> {
        let some: bool = self.any();
        some.then(|| item(self))
    }

    /// A string of characters from `charset`, its length drawn from `len`.
    pub fn string(&mut self, charset: &[char], len: Range<usize>) -> String {
        let chars = self.vec(len, |g| charset[g.range(0..charset.len())]);
        chars.into_iter().collect()
    }

    /// A string of any characters but `'\n'`, as a regular expression's
    /// `.` matches, its length drawn from `len`.
    pub fn any_string(&mut self, len: Range<usize>) -> String {
        let n = self.range(len);
        let chars = std::iter::repeat_with(|| char::from_u32(self.range(0..0x11_0000)));
        chars.flatten().filter(|&c| c != '\n').take(n).collect()
    }
}

/// Types [`Gen::range`] draws uniformly from a half-open range.
pub trait Uniform: Sized {
    /// A uniform draw from `range`, which must not be empty.
    fn draw(g: &mut Gen, range: Range<Self>) -> Self;
}

macro_rules! uniform_integers {
    ($($t:ty),*) => {$(
        impl Uniform for $t {
            fn draw(g: &mut Gen, range: Range<$t>) -> $t {
                assert!(range.start < range.end, "empty range {range:?}");
                let span = (range.end as i128 - range.start as i128) as u128;
                let offset = (u128::from(g.rng.raw_u64()) * span) >> 64;
                (range.start as i128 + offset as i128) as $t
            }
        }
    )*};
}
uniform_integers!(u8, u16, u32, u64, usize, i32);

impl Uniform for f64 {
    fn draw(g: &mut Gen, range: Range<f64>) -> f64 {
        let span = range.end - range.start;
        assert!(span > 0.0 && span.is_finite(), "bad range {range:?}");
        loop {
            let x = range.start + span * g.rng.half_open01();
            if x < range.end {
                return x;
            }
        }
    }
}

/// Types [`Gen::any`] draws uniformly over their bit patterns; for `f64`
/// that includes NaNs, infinities, subnormals and both zeros.
pub trait Arbitrary {
    /// A value uniform over the type's bit patterns.
    fn arbitrary(g: &mut Gen) -> Self;
}

macro_rules! arbitrary_from_bits {
    ($($t:ty: |$bits:ident| $value:expr),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(g: &mut Gen) -> $t {
                let $bits = g.rng.raw_u64();
                $value
            }
        }
    )*};
}
arbitrary_from_bits!(
    u8: |b| b as u8, u16: |b| b as u16, i16: |b| b as i16, u32: |b| b as u32, u64: |b| b,
    usize: |b| b as usize, bool: |b| b >> 63 == 1, f64: |b| f64::from_bits(b)
);

#[cfg(test)]
mod tests {
    use super::*;

    fn draws(name: &str) -> Vec<u64> {
        let mut draws = Vec::new();
        check(name, 16, |g| draws.push(g.any()));
        draws
    }

    #[test]
    fn case_seeds_depend_on_the_name_alone() {
        assert_eq!(draws("a"), draws("a"));
        let b = draws("b");
        assert!(draws("a").iter().all(|x| !b.contains(x)));
    }

    #[test]
    fn draws_stay_in_their_domains() {
        let printable: Vec<char> = (' '..='~').collect();
        check("draws_stay_in_their_domains", 256, |g| {
            assert!((-20..12).contains(&g.range(-20i32..12)));
            assert_eq!(g.range(7u8..8), 7);
            assert!((1e-3..2e-3).contains(&g.range(1e-3..2e-3)));
            assert!([1, 3].contains(&g.weighted(&[0, 2, 0, 1])));
            assert!((2..5).contains(&g.vec(2..5, |g| g.any::<u8>()).len()));
            assert!(g.option(|g| g.range(0..1)).unwrap_or(0) == 0);
            let s = g.string(&printable, 0..9);
            assert!(s.len() < 9 && s.chars().all(|c| printable.contains(&c)));
            let s = g.any_string(1..4);
            assert!((1..4).contains(&s.chars().count()) && !s.contains('\n'));
        });
    }

    /// Fails at its last case; the test below runs it at several counts.
    #[test]
    #[should_panic(expected = "the last case fails")]
    fn fails_at_the_last_case() {
        let mut left = cases(16);
        check("fails_at_the_last_case", 16, |_| {
            left -= 1;
            assert!(left > 0, "the last case fails");
        });
    }

    #[test]
    fn cases_are_counted_and_a_failing_case_replays_from_its_printed_seed() {
        let stderr = |count: Option<&str>| {
            let mut test = std::process::Command::new(std::env::current_exe().unwrap());
            test.args(["--exact", "check::tests::fails_at_the_last_case"]);
            test.arg("--nocapture").env_remove(CASES_VAR);
            if let Some(count) = count {
                test.env(CASES_VAR, count);
            }
            String::from_utf8(test.output().unwrap().stderr).unwrap()
        };
        for (count, last) in [(None, 15), (Some("3"), 2)] {
            let seed = case_seed("fails_at_the_last_case", last);
            let printed = format!("at case {last}; replay({seed:#x}, ..)");
            assert!(stderr(count).contains(&printed), "{printed}");
        }
        for bad in ["0", "x"] {
            let refusal = format!("{CASES_VAR}=\"{bad}\" is not a positive case count");
            assert!(stderr(Some(bad)).contains(&refusal), "{refusal}");
        }
        let mut last = 0;
        check("fails_at_the_last_case", 16, |g| last = g.any::<u64>());
        let seed = case_seed("fails_at_the_last_case", cases(16) - 1);
        replay(seed, |g| assert_eq!(g.any::<u64>(), last));
    }
}
