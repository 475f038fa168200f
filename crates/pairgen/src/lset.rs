//! lsets: leaf sets partitioned by left-extension character.
//!
//! `leaf-set(v)` is the set of strings with a suffix ending in `v`'s
//! subtree. It is partitioned into `l_A(v), l_C(v), l_G(v), l_T(v)` and
//! `l_λ(v)` by the character immediately to the *left* of that suffix in
//! the string (λ when the suffix is the whole string). Each string appears
//! in at most one lset of `v` — when several of its suffixes qualify with
//! different left characters, any single class works (paper §3.2).
//!
//! Representation: one shared arena of singly-linked entries per
//! generator, so the Step-3 union of child lsets is O(|Σ|²) pointer
//! splices and the total lset storage stays O(N). Entries carry the suffix
//! offset so the witnessing occurrence survives to the aligner. Each
//! [`Lsets`] also carries a 64-bit string signature (bit `sid % 64` per
//! string it ever held): two lsets with disjoint signatures share no
//! string, which lets the generator skip the duplicate-elimination walk.

/// Sentinel "null" index in the arena.
pub const NIL: u32 = u32::MAX;

/// Number of left-extension classes: λ, A, C, G, T (classes 0–4, as
/// each suffix entry of the forest carries them).
pub const NUM_CLASSES: usize = 5;

/// Arena of lset entries (structure-of-arrays for density).
#[derive(Debug, Default)]
pub struct Arena {
    sid: Vec<u32>,
    off: Vec<u32>,
    next: Vec<u32>,
}

impl Arena {
    /// Empty arena with room for `cap` entries.
    pub fn with_capacity(cap: usize) -> Self {
        Arena {
            sid: Vec::with_capacity(cap),
            off: Vec::with_capacity(cap),
            next: Vec::with_capacity(cap),
        }
    }

    /// Allocate a detached entry; returns its index.
    pub fn alloc(&mut self, sid: u32, off: u32) -> u32 {
        let idx = self.sid.len() as u32;
        self.sid.push(sid);
        self.off.push(off);
        self.next.push(NIL);
        idx
    }

    /// String id of entry `e`.
    #[inline]
    pub fn sid(&self, e: u32) -> u32 {
        self.sid[e as usize]
    }

    /// Suffix offset of entry `e`.
    #[inline]
    pub fn off(&self, e: u32) -> u32 {
        self.off[e as usize]
    }

    /// Successor of entry `e`.
    #[inline]
    pub fn next(&self, e: u32) -> u32 {
        self.next[e as usize]
    }

    fn set_next(&mut self, e: u32, n: u32) {
        self.next[e as usize] = n;
    }

    /// Number of entries allocated (entries are recycled by list
    /// splicing, never freed individually — total is O(suffixes)).
    pub fn len(&self) -> usize {
        self.sid.len()
    }

    /// Drop every entry allocated at or after `len`, so a short-lived
    /// list built at the arena's tail gives its room back.
    pub fn truncate(&mut self, len: usize) {
        self.sid.truncate(len);
        self.off.truncate(len);
        self.next.truncate(len);
    }

    /// Whether the arena has no entries.
    pub fn is_empty(&self) -> bool {
        self.sid.is_empty()
    }

    /// Approximate heap footprint in bytes.
    pub fn memory_bytes(&self) -> usize {
        (self.sid.capacity() + self.off.capacity() + self.next.capacity()) * 4
    }
}

/// The five lset lists of one node: head/tail per class, plus the
/// string signature.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Lsets {
    head: [u32; NUM_CLASSES],
    tail: [u32; NUM_CLASSES],
    sig: u64,
}

impl Default for Lsets {
    fn default() -> Self {
        Lsets {
            head: [NIL; NUM_CLASSES],
            tail: [NIL; NUM_CLASSES],
            sig: 0,
        }
    }
}

impl Lsets {
    /// Empty lsets.
    pub fn new() -> Self {
        Self::default()
    }

    /// Head entry of class `c` (NIL when empty).
    #[inline]
    pub fn head(&self, c: usize) -> u32 {
        self.head[c]
    }

    /// The string signature: bit `sid % 64` is set for every string
    /// pushed or appended. A superset after
    /// [`dedup_against`](Self::dedup_against) strips strings, which keeps
    /// "disjoint signatures ⇒ no shared string" sound.
    #[inline]
    pub fn sig(&self) -> u64 {
        self.sig
    }

    /// Append entry `e` (must be detached) to class `c`.
    pub fn push(&mut self, arena: &mut Arena, c: usize, e: u32) {
        self.sig |= 1 << (arena.sid(e) % 64);
        arena.set_next(e, NIL);
        if self.head[c] == NIL {
            self.head[c] = e;
        } else {
            arena.set_next(self.tail[c], e);
        }
        self.tail[c] = e;
    }

    /// Splice all of `other`'s lists onto the ends of `self`'s, class by
    /// class — the O(|Σ|²)-concatenations union of Step 3. `other` is
    /// consumed.
    pub fn append(&mut self, arena: &mut Arena, other: Lsets) {
        self.sig |= other.sig;
        for c in 0..NUM_CLASSES {
            if other.head[c] == NIL {
                continue;
            }
            if self.head[c] == NIL {
                self.head[c] = other.head[c];
            } else {
                arena.set_next(self.tail[c], other.head[c]);
            }
            self.tail[c] = other.tail[c];
        }
    }

    /// Retain only entries whose string has not been seen under the given
    /// `mark`; marks strings as they are kept. This is the paper's
    /// duplicate-elimination pass, O(list length) with the shared marker
    /// array (`marker[sid] == mark` ⇔ already seen at this node).
    pub fn dedup_against(&mut self, arena: &mut Arena, marker: &mut [u64], mark: u64) {
        for c in 0..NUM_CLASSES {
            let mut head = NIL;
            let mut tail = NIL;
            let mut cur = self.head[c];
            while cur != NIL {
                let nxt = arena.next(cur);
                let sid = arena.sid(cur) as usize;
                if marker[sid] != mark {
                    marker[sid] = mark;
                    if head == NIL {
                        head = cur;
                    } else {
                        arena.set_next(tail, cur);
                    }
                    arena.set_next(cur, NIL);
                    tail = cur;
                }
                cur = nxt;
            }
            self.head[c] = head;
            self.tail[c] = tail;
        }
    }

    /// Iterate the entries of class `c`.
    pub fn iter<'a>(&self, arena: &'a Arena, c: usize) -> LsetIter<'a> {
        LsetIter {
            arena,
            cur: self.head[c],
        }
    }

    /// Total entries across all classes (O(n) walk; tests/stats only).
    pub fn total_len(&self, arena: &Arena) -> usize {
        (0..NUM_CLASSES).map(|c| self.iter(arena, c).count()).sum()
    }
}

/// Iterator over one lset list, yielding `(sid, off)` pairs. Cloning it
/// restarts nothing: the clone continues from the current position.
#[derive(Clone)]
pub struct LsetIter<'a> {
    arena: &'a Arena,
    cur: u32,
}

impl Iterator for LsetIter<'_> {
    type Item = (u32, u32);

    fn next(&mut self) -> Option<(u32, u32)> {
        if self.cur == NIL {
            return None;
        }
        let e = self.cur;
        self.cur = self.arena.next(e);
        Some((self.arena.sid(e), self.arena.off(e)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collect(ls: &Lsets, arena: &Arena, c: usize) -> Vec<(u32, u32)> {
        ls.iter(arena, c).collect()
    }

    #[test]
    fn push_preserves_order() {
        let mut arena = Arena::default();
        let mut ls = Lsets::new();
        for i in 0..5u32 {
            let e = arena.alloc(i, i * 10);
            ls.push(&mut arena, 1, e);
        }
        assert_eq!(
            collect(&ls, &arena, 1),
            vec![(0, 0), (1, 10), (2, 20), (3, 30), (4, 40)]
        );
        assert!(collect(&ls, &arena, 0).is_empty());
        assert_eq!(ls.total_len(&arena), 5);
    }

    #[test]
    fn append_concatenates_per_class() {
        let mut arena = Arena::default();
        let mut a = Lsets::new();
        let mut b = Lsets::new();
        for i in 0..3u32 {
            let e = arena.alloc(i, 0);
            a.push(&mut arena, 2, e);
        }
        for i in 10..12u32 {
            let e = arena.alloc(i, 0);
            b.push(&mut arena, 2, e);
        }
        let e = arena.alloc(99, 0);
        b.push(&mut arena, 0, e);
        a.append(&mut arena, b);
        assert_eq!(
            collect(&a, &arena, 2)
                .iter()
                .map(|&(s, _)| s)
                .collect::<Vec<_>>(),
            vec![0, 1, 2, 10, 11]
        );
        assert_eq!(collect(&a, &arena, 0), vec![(99, 0)]);
        // Appending onto the spliced list still works (tail is correct).
        let mut c = Lsets::new();
        let e = arena.alloc(77, 0);
        c.push(&mut arena, 2, e);
        a.append(&mut arena, c);
        assert_eq!(collect(&a, &arena, 2).last(), Some(&(77, 0)));
    }

    #[test]
    fn append_into_empty() {
        let mut arena = Arena::default();
        let mut a = Lsets::new();
        let mut b = Lsets::new();
        let e = arena.alloc(5, 7);
        b.push(&mut arena, 4, e);
        a.append(&mut arena, b);
        assert_eq!(collect(&a, &arena, 4), vec![(5, 7)]);
    }

    #[test]
    fn dedup_keeps_first_occurrence_across_classes() {
        let mut arena = Arena::default();
        let mut ls = Lsets::new();
        // String 1 appears in class 1 and class 2; string 2 twice in class 1.
        for (c, sid, off) in [(1, 1, 0), (1, 2, 3), (1, 2, 8), (2, 1, 5), (2, 3, 0)] {
            let e = arena.alloc(sid, off);
            ls.push(&mut arena, c, e);
        }
        let mut marker = vec![0u64; 10];
        ls.dedup_against(&mut arena, &mut marker, 42);
        assert_eq!(collect(&ls, &arena, 1), vec![(1, 0), (2, 3)]);
        assert_eq!(collect(&ls, &arena, 2), vec![(3, 0)]);
        assert_eq!(ls.total_len(&arena), 3);
    }

    #[test]
    fn dedup_across_sets_with_shared_mark() {
        // Simulates the internal-node pass: the same mark filters the
        // lsets of successive children so a string survives only once.
        let mut arena = Arena::default();
        let mut child1 = Lsets::new();
        let mut child2 = Lsets::new();
        let e = arena.alloc(7, 0);
        child1.push(&mut arena, 1, e);
        let e = arena.alloc(7, 4);
        child2.push(&mut arena, 3, e);
        let e = arena.alloc(8, 2);
        child2.push(&mut arena, 3, e);
        let mut marker = vec![0u64; 10];
        child1.dedup_against(&mut arena, &mut marker, 1);
        child2.dedup_against(&mut arena, &mut marker, 1);
        assert_eq!(collect(&child1, &arena, 1), vec![(7, 0)]);
        assert_eq!(collect(&child2, &arena, 3), vec![(8, 2)]);
    }

    #[test]
    fn dedup_empty_lsets_is_noop() {
        let mut arena = Arena::default();
        let mut ls = Lsets::new();
        let mut marker = vec![0u64; 4];
        ls.dedup_against(&mut arena, &mut marker, 9);
        assert_eq!(ls.total_len(&arena), 0);
    }

    #[test]
    fn signature_covers_pushed_and_appended_strings() {
        let mut arena = Arena::default();
        let mut a = Lsets::new();
        let mut b = Lsets::new();
        assert_eq!(a.sig(), 0);
        let e = arena.alloc(3, 0);
        a.push(&mut arena, 1, e);
        let e = arena.alloc(64 + 5, 0);
        b.push(&mut arena, 0, e);
        assert_eq!(a.sig(), 1 << 3);
        assert_eq!(b.sig(), 1 << 5);
        assert!(a.head(0) == NIL && a.head(1) != NIL);
        a.append(&mut arena, b);
        assert_eq!(a.sig(), (1 << 3) | (1 << 5));
        // Stripping a string leaves the signature a superset.
        let mut marker = vec![0u64; 80];
        marker[3] = 7;
        a.dedup_against(&mut arena, &mut marker, 7);
        assert_eq!(a.head(1), NIL);
        assert_eq!(a.sig(), (1 << 3) | (1 << 5));
    }

    #[test]
    fn truncate_releases_the_tail() {
        let mut arena = Arena::with_capacity(4);
        arena.alloc(1, 2);
        let top = arena.len();
        let mut ls = Lsets::new();
        for i in 0..3u32 {
            let e = arena.alloc(i, 0);
            ls.push(&mut arena, 2, e);
        }
        assert_eq!(ls.total_len(&arena), 3);
        arena.truncate(top);
        assert_eq!(arena.len(), 1);
        assert_eq!((arena.sid(0), arena.off(0)), (1, 2));
    }

    #[test]
    fn arena_accounting() {
        let mut arena = Arena::with_capacity(8);
        assert!(arena.is_empty());
        arena.alloc(1, 2);
        assert_eq!(arena.len(), 1);
        assert!(arena.memory_bytes() >= 8 * 12);
    }
}
