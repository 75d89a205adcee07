//! Fixed-universe processor bitsets.
//!
//! The largest machine in the study is the 430-processor CTC SP2, so a
//! processor set is a handful of `u64` words. All set algebra is branch-
//! free word-wise arithmetic; the scheduler's hot loops (victim selection,
//! overlap tests) run on these.

use std::fmt;

/// A set of processor indices drawn from a fixed universe `0..universe`.
///
/// Two sets participating in a binary operation must share a universe size;
/// this is enforced with `debug_assert!` (scheduler code never mixes
/// machines).
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct ProcSet {
    universe: u32,
    words: Vec<u64>,
}

impl ProcSet {
    /// The empty set over `0..universe`.
    pub fn empty(universe: u32) -> Self {
        let n_words = (universe as usize).div_ceil(64);
        ProcSet {
            universe,
            words: vec![0; n_words],
        }
    }

    /// The full set `{0, 1, …, universe-1}`.
    pub fn full(universe: u32) -> Self {
        let mut s = Self::empty(universe);
        for (i, w) in s.words.iter_mut().enumerate() {
            let base = (i * 64) as u32;
            let in_universe = universe.saturating_sub(base).min(64);
            *w = if in_universe == 64 {
                u64::MAX
            } else {
                (1u64 << in_universe) - 1
            };
        }
        s
    }

    /// Build from an iterator of processor indices.
    pub fn from_indices(universe: u32, indices: impl IntoIterator<Item = u32>) -> Self {
        let mut s = Self::empty(universe);
        for i in indices {
            s.insert(i);
        }
        s
    }

    /// Universe size this set is defined over.
    #[inline]
    pub fn universe(&self) -> u32 {
        self.universe
    }

    /// Become a copy of `other`, reusing this set's word buffer — the
    /// allocation-free form of `*self = other.clone()` used by decide
    /// scratch arenas.
    #[inline]
    pub fn copy_from(&mut self, other: &ProcSet) {
        self.universe = other.universe;
        self.words.clear();
        self.words.extend_from_slice(&other.words);
    }

    /// Add processor `i` to the set.
    #[inline]
    pub fn insert(&mut self, i: u32) {
        debug_assert!(
            i < self.universe,
            "proc {i} outside universe {}",
            self.universe
        );
        self.words[(i / 64) as usize] |= 1u64 << (i % 64);
    }

    /// Remove processor `i` from the set.
    #[inline]
    pub fn remove(&mut self, i: u32) {
        debug_assert!(
            i < self.universe,
            "proc {i} outside universe {}",
            self.universe
        );
        self.words[(i / 64) as usize] &= !(1u64 << (i % 64));
    }

    /// Whether processor `i` is in the set.
    #[inline]
    pub fn contains(&self, i: u32) -> bool {
        if i >= self.universe {
            return false;
        }
        self.words[(i / 64) as usize] & (1u64 << (i % 64)) != 0
    }

    /// Number of processors in the set.
    #[inline]
    pub fn count(&self) -> u32 {
        self.words.iter().map(|w| w.count_ones()).sum()
    }

    /// Number of set processors with index strictly below `i`.
    ///
    /// `pop_count_upto(universe)` equals [`count`](Self::count); indices
    /// past the universe clamp.
    pub fn pop_count_upto(&self, i: u32) -> u32 {
        let i = i.min(self.universe);
        let full_words = (i / 64) as usize;
        let mut n: u32 = self.words[..full_words]
            .iter()
            .map(|w| w.count_ones())
            .sum();
        let rem = i % 64;
        if rem != 0 && full_words < self.words.len() {
            n += (self.words[full_words] & ((1u64 << rem) - 1)).count_ones();
        }
        n
    }

    /// `|self ∖ other|` without materializing the difference.
    #[inline]
    pub fn count_excluding(&self, other: &ProcSet) -> u32 {
        debug_assert_eq!(self.universe, other.universe);
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("popcnt") {
            // SAFETY: the CPU has just been checked for `popcnt`.
            return unsafe { count_excluding_popcnt(&self.words, &other.words) };
        }
        count_excluding_words(&self.words, &other.words)
    }

    /// Remove every processor, keeping the allocation (scratch reuse).
    #[inline]
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Whether the set is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// In-place union: `self ∪= other`.
    #[inline]
    pub fn union_with(&mut self, other: &ProcSet) {
        debug_assert_eq!(self.universe, other.universe);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// In-place intersection: `self ∩= other`.
    pub fn intersect_with(&mut self, other: &ProcSet) {
        debug_assert_eq!(self.universe, other.universe);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= b;
        }
    }

    /// In-place difference: `self −= other`.
    #[inline]
    pub fn subtract(&mut self, other: &ProcSet) {
        debug_assert_eq!(self.universe, other.universe);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= !b;
        }
    }

    /// `self ∪ other` as a new set.
    pub fn union(&self, other: &ProcSet) -> ProcSet {
        let mut s = self.clone();
        s.union_with(other);
        s
    }

    /// `self ∩ other` as a new set.
    pub fn intersection(&self, other: &ProcSet) -> ProcSet {
        let mut s = self.clone();
        s.intersect_with(other);
        s
    }

    /// `self − other` as a new set.
    pub fn difference(&self, other: &ProcSet) -> ProcSet {
        let mut s = self.clone();
        s.subtract(other);
        s
    }

    /// Whether the two sets share no processor.
    pub fn is_disjoint(&self, other: &ProcSet) -> bool {
        debug_assert_eq!(self.universe, other.universe);
        self.words.iter().zip(&other.words).all(|(a, b)| a & b == 0)
    }

    /// Whether the two sets share at least one processor.
    #[inline]
    pub fn overlaps(&self, other: &ProcSet) -> bool {
        !self.is_disjoint(other)
    }

    /// Whether every processor of `self` is also in `other`.
    #[inline]
    pub fn is_subset(&self, other: &ProcSet) -> bool {
        debug_assert_eq!(self.universe, other.universe);
        self.words
            .iter()
            .zip(&other.words)
            .all(|(a, b)| a & !b == 0)
    }

    /// The `n` lowest-indexed processors of the set, as a new set.
    ///
    /// Returns `None` if the set holds fewer than `n` processors. This is
    /// the simulator's allocation policy: deterministic lowest-numbered
    /// first, which keeps runs reproducible.
    pub fn take_lowest(&self, n: u32) -> Option<ProcSet> {
        let mut out = Self::empty(self.universe);
        let mut remaining = n;
        for (wi, &w) in self.words.iter().enumerate() {
            if remaining == 0 {
                break;
            }
            if w == 0 {
                continue;
            }
            let mut word = w;
            let take = remaining.min(word.count_ones());
            // Keep the `take` lowest set bits of this word.
            let mut kept = 0u64;
            for _ in 0..take {
                let lowest = word & word.wrapping_neg();
                kept |= lowest;
                word ^= lowest;
            }
            out.words[wi] = kept;
            remaining -= take;
        }
        if remaining > 0 {
            return None;
        }
        Some(out)
    }

    /// The `n` lowest-indexed processors of `self ∖ excluded`, as a new
    /// set — [`take_lowest`](Self::take_lowest) without materializing the
    /// difference first. Returns `None` if fewer than `n` remain.
    pub fn take_lowest_excluding(&self, excluded: &ProcSet, n: u32) -> Option<ProcSet> {
        debug_assert_eq!(self.universe, excluded.universe);
        let mut out = Self::empty(self.universe);
        let mut remaining = n;
        for (wi, (&a, &b)) in self.words.iter().zip(&excluded.words).enumerate() {
            if remaining == 0 {
                break;
            }
            let mut word = a & !b;
            if word == 0 {
                continue;
            }
            let take = remaining.min(word.count_ones());
            let mut kept = 0u64;
            for _ in 0..take {
                let lowest = word & word.wrapping_neg();
                kept |= lowest;
                word ^= lowest;
            }
            out.words[wi] = kept;
            remaining -= take;
        }
        if remaining > 0 {
            return None;
        }
        Some(out)
    }

    /// Iterate over the processor indices in ascending order. Zero words
    /// (the common case in sparse scheduler sets) are skipped wholesale.
    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        self.words
            .iter()
            .enumerate()
            .filter(|&(_, &w)| w != 0)
            .flat_map(|(wi, &w)| {
                let mut word = w;
                std::iter::from_fn(move || {
                    if word == 0 {
                        return None;
                    }
                    let bit = word.trailing_zeros();
                    word &= word - 1;
                    Some(wi as u32 * 64 + bit)
                })
            })
    }
}

impl fmt::Debug for ProcSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ProcSet{{")?;
        let mut first = true;
        for i in self.iter() {
            if !first {
                write!(f, ",")?;
            }
            write!(f, "{i}")?;
            first = false;
        }
        write!(f, "}}/{}", self.universe)
    }
}

/// `|a ∖ b|` over set words.
#[inline]
fn count_excluding_words(a: &[u64], b: &[u64]) -> u32 {
    a.iter().zip(b).map(|(a, b)| (a & !b).count_ones()).sum()
}

/// [`count_excluding_words`] compiled for the `popcnt` instruction: the
/// baseline x86-64 target lacks it and counts bits in a dozen
/// instructions per word, and the SS/TSS decide counts widths outside
/// claim sets in its innermost loops.
///
/// # Safety
///
/// The CPU must support `popcnt`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "popcnt")]
unsafe fn count_excluding_popcnt(a: &[u64], b: &[u64]) -> u32 {
    count_excluding_words(a, b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_and_full() {
        let e = ProcSet::empty(430);
        assert_eq!(e.count(), 0);
        assert!(e.is_empty());
        let f = ProcSet::full(430);
        assert_eq!(f.count(), 430);
        assert!(f.contains(0));
        assert!(f.contains(429));
        assert!(!f.contains(430));
        // Word-boundary universes.
        assert_eq!(ProcSet::full(64).count(), 64);
        assert_eq!(ProcSet::full(65).count(), 65);
        assert_eq!(ProcSet::full(128).count(), 128);
    }

    #[test]
    fn insert_remove_contains() {
        let mut s = ProcSet::empty(100);
        s.insert(0);
        s.insert(63);
        s.insert(64);
        s.insert(99);
        assert_eq!(s.count(), 4);
        assert!(s.contains(63) && s.contains(64));
        s.remove(63);
        assert!(!s.contains(63));
        assert_eq!(s.count(), 3);
        s.remove(63); // removing absent element is a no-op
        assert_eq!(s.count(), 3);
    }

    #[test]
    fn set_algebra() {
        let a = ProcSet::from_indices(100, [1, 2, 3, 64]);
        let b = ProcSet::from_indices(100, [3, 64, 65]);
        assert_eq!(a.union(&b).count(), 5);
        assert_eq!(a.intersection(&b).count(), 2);
        assert_eq!(a.difference(&b).count(), 2);
        assert!(a.overlaps(&b));
        assert!(!a.is_subset(&b));
        assert!(a.intersection(&b).is_subset(&a));
        assert!(a.intersection(&b).is_subset(&b));
        let empty = ProcSet::empty(100);
        assert!(empty.is_subset(&a));
        assert!(empty.is_disjoint(&a));
    }

    #[test]
    fn take_lowest_picks_ascending() {
        let s = ProcSet::from_indices(200, [5, 70, 10, 130, 199]);
        let t = s.take_lowest(3).unwrap();
        assert_eq!(t.iter().collect::<Vec<_>>(), vec![5, 10, 70]);
        assert!(t.is_subset(&s));
        assert!(s.take_lowest(6).is_none());
        assert_eq!(s.take_lowest(0).unwrap().count(), 0);
        assert_eq!(s.take_lowest(5).unwrap(), s);
    }

    #[test]
    fn iter_ascending() {
        let s = ProcSet::from_indices(430, [429, 0, 64, 63, 128]);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 63, 64, 128, 429]);
    }

    #[test]
    fn pop_count_upto_counts_strictly_below() {
        let s = ProcSet::from_indices(200, [0, 5, 63, 64, 130, 199]);
        assert_eq!(s.pop_count_upto(0), 0);
        assert_eq!(s.pop_count_upto(1), 1);
        assert_eq!(s.pop_count_upto(5), 1);
        assert_eq!(s.pop_count_upto(6), 2);
        assert_eq!(s.pop_count_upto(64), 3);
        assert_eq!(s.pop_count_upto(65), 4);
        assert_eq!(s.pop_count_upto(199), 5);
        assert_eq!(s.pop_count_upto(200), 6);
        assert_eq!(s.pop_count_upto(9999), s.count());
    }

    #[test]
    fn count_excluding_matches_difference() {
        let a = ProcSet::from_indices(430, [1, 2, 3, 64, 129, 400]);
        let b = ProcSet::from_indices(430, [3, 64, 65]);
        assert_eq!(a.count_excluding(&b), a.difference(&b).count());
        assert_eq!(a.count_excluding(&ProcSet::empty(430)), a.count());
        assert_eq!(a.count_excluding(&a), 0);
        // Whichever path the CPU takes, the portable count agrees.
        let full = ProcSet::full(430);
        for (x, y) in [(&a, &b), (&b, &a), (&full, &a), (&full, &b)] {
            assert_eq!(
                x.count_excluding(y),
                count_excluding_words(&x.words, &y.words)
            );
        }
    }

    #[test]
    fn take_lowest_excluding_matches_difference_take() {
        let a = ProcSet::from_indices(200, [5, 10, 70, 130, 199]);
        let b = ProcSet::from_indices(200, [10, 130]);
        for n in 0..=5 {
            assert_eq!(
                a.take_lowest_excluding(&b, n),
                a.difference(&b).take_lowest(n),
                "n={n}"
            );
        }
        assert!(a.take_lowest_excluding(&b, 4).is_none());
        assert_eq!(
            a.take_lowest_excluding(&b, 3)
                .unwrap()
                .iter()
                .collect::<Vec<_>>(),
            vec![5, 70, 199]
        );
    }

    #[test]
    fn clear_keeps_universe() {
        let mut s = ProcSet::from_indices(100, [1, 64, 99]);
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.universe(), 100);
        s.insert(42);
        assert_eq!(s.count(), 1);
    }

    #[test]
    fn debug_render() {
        let s = ProcSet::from_indices(8, [1, 3]);
        assert_eq!(format!("{s:?}"), "ProcSet{1,3}/8");
    }
}
