//! Bounded-size messages.
//!
//! The CONGEST models allow `O(log n)` bits per message. We count message
//! size in *words*: one word holds one `O(log n)`-bit quantity (a node id,
//! a class number, a component id, a rounded weight — footnote 6 of the
//! paper justifies rounding weights to `O(log n)` bits). A message may
//! carry a small constant number of words; the simulator enforces the
//! per-message word budget ([`crate::sim::Simulator::with_word_budget`]).
//!
//! ## Representations
//!
//! Because the word budget makes tiny payloads the overwhelmingly common
//! case, [`Message`] stores up to [`INLINE_WORDS`] words *inline* — no
//! heap allocation on [`Message::new`], [`Message::from_words`], or
//! [`Message::push`] for small payloads. Longer payloads spill to a heap
//! `Vec<u64>`. The two representations are observationally identical:
//! every accessor, `Eq`, and `Hash` go through the payload words, never
//! the representation (pinned by the `message_plane` proptest suite).
//!
//! Delivered messages are handed to programs as [`MsgView`]s — `Copy`
//! borrows of the payload words resident in the engine's inbox arena
//! (see [`crate::engine`]) — so delivery never clones payloads.

/// Number of payload words a [`Message`] stores without heap allocation.
pub const INLINE_WORDS: usize = 4;

#[derive(Clone, Debug)]
enum Repr {
    /// Up to [`INLINE_WORDS`] words stored in the struct itself.
    Inline { len: u8, buf: [u64; INLINE_WORDS] },
    /// Heap fallback for longer payloads.
    Heap(Vec<u64>),
}

/// A message payload: a short sequence of words.
///
/// # Example
///
/// ```
/// use decomp_congest::Message;
///
/// let m = Message::from_words([3, 42]);
/// assert_eq!(m.words(), &[3, 42]);
/// assert_eq!(m.len(), 2);
/// ```
#[derive(Clone, Debug)]
pub struct Message(Repr);

impl Message {
    /// An empty message (still counts as one message on the wire).
    /// Never allocates.
    pub fn new() -> Self {
        Message(Repr::Inline {
            len: 0,
            buf: [0; INLINE_WORDS],
        })
    }

    /// A message from an iterator of words. Allocation-free for payloads
    /// of at most [`INLINE_WORDS`] words; longer payloads spill to the
    /// heap with one size-hinted allocation.
    pub fn from_words(words: impl IntoIterator<Item = u64>) -> Self {
        let mut it = words.into_iter();
        let mut buf = [0u64; INLINE_WORDS];
        let mut len = 0usize;
        for slot in &mut buf {
            match it.next() {
                Some(w) => {
                    *slot = w;
                    len += 1;
                }
                None => {
                    return Message(Repr::Inline {
                        len: len as u8,
                        buf,
                    })
                }
            }
        }
        match it.next() {
            None => Message(Repr::Inline {
                len: len as u8,
                buf,
            }),
            Some(w) => {
                let (lo, _) = it.size_hint();
                let mut v = Vec::with_capacity(INLINE_WORDS + 1 + lo);
                v.extend_from_slice(&buf);
                v.push(w);
                v.extend(it);
                Message(Repr::Heap(v))
            }
        }
    }

    /// The payload words.
    pub fn words(&self) -> &[u64] {
        match &self.0 {
            Repr::Inline { len, buf } => &buf[..*len as usize],
            Repr::Heap(v) => v,
        }
    }

    /// Number of words.
    pub fn len(&self) -> usize {
        match &self.0 {
            Repr::Inline { len, .. } => *len as usize,
            Repr::Heap(v) => v.len(),
        }
    }

    /// Whether the payload is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Appends a word (builder style). Spills to the heap only past
    /// [`INLINE_WORDS`] words.
    pub fn push(mut self, w: u64) -> Self {
        match &mut self.0 {
            Repr::Inline { len, buf } => {
                if (*len as usize) < INLINE_WORDS {
                    buf[*len as usize] = w;
                    *len += 1;
                } else {
                    let mut v = Vec::with_capacity(INLINE_WORDS + 1);
                    v.extend_from_slice(buf);
                    v.push(w);
                    self.0 = Repr::Heap(v);
                }
            }
            Repr::Heap(v) => v.push(w),
        }
        self
    }

    /// Word at position `i`, if present.
    pub fn get(&self, i: usize) -> Option<u64> {
        self.words().get(i).copied()
    }

    /// Word at position `i`.
    ///
    /// # Panics
    /// Panics if `i` is out of bounds.
    pub fn word(&self, i: usize) -> u64 {
        self.words()[i]
    }
}

impl Default for Message {
    fn default() -> Self {
        Message::new()
    }
}

/// Preserves the given allocation: the message keeps the heap
/// representation even for payloads that would fit inline (which the
/// representation-equivalence proptests rely on to pin down a heap twin
/// of any small message). Prefer [`Message::from_words`] on hot paths.
impl From<Vec<u64>> for Message {
    fn from(v: Vec<u64>) -> Self {
        Message(Repr::Heap(v))
    }
}

impl PartialEq for Message {
    fn eq(&self, other: &Self) -> bool {
        self.words() == other.words()
    }
}

impl Eq for Message {}

impl std::hash::Hash for Message {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        // Hash the words slice (length-prefixed), identical for both
        // representations — and identical to the historical
        // `derive(Hash)` on the `Vec<u64>` newtype.
        self.words().hash(state);
    }
}

/// A borrowed view of one delivered message's payload, resident in the
/// engine's inbox arena. `Copy`-cheap (a fat pointer); mirrors the read
/// API of [`Message`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MsgView<'a>(&'a [u64]);

impl<'a> MsgView<'a> {
    /// A view over `words`.
    pub fn new(words: &'a [u64]) -> Self {
        MsgView(words)
    }

    /// The payload words.
    pub fn words(&self) -> &'a [u64] {
        self.0
    }

    /// Number of words.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the payload is empty.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Word at position `i`, if present.
    pub fn get(&self, i: usize) -> Option<u64> {
        self.0.get(i).copied()
    }

    /// Word at position `i`.
    ///
    /// # Panics
    /// Panics if `i` is out of bounds.
    pub fn word(&self, i: usize) -> u64 {
        self.0[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{Hash, Hasher};

    fn hash_of(m: &Message) -> u64 {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        m.hash(&mut h);
        h.finish()
    }

    #[test]
    fn roundtrip_words() {
        let m = Message::new().push(7).push(9);
        assert_eq!(m.words(), &[7, 9]);
        assert_eq!(m.get(1), Some(9));
        assert_eq!(m.get(2), None);
    }

    #[test]
    fn default_is_empty() {
        assert!(Message::default().is_empty());
        assert_eq!(Message::default().len(), 0);
    }

    #[test]
    fn from_vec() {
        let m: Message = vec![1, 2, 3].into();
        assert_eq!(m.len(), 3);
    }

    #[test]
    fn spills_past_inline_capacity() {
        let m = Message::from_words(0..INLINE_WORDS as u64 + 3);
        assert_eq!(m.len(), INLINE_WORDS + 3);
        assert_eq!(
            m.words(),
            (0..INLINE_WORDS as u64 + 3).collect::<Vec<_>>().as_slice()
        );
        assert!(matches!(m.0, Repr::Heap(_)));
        let at_cap = Message::from_words(0..INLINE_WORDS as u64);
        assert!(matches!(at_cap.0, Repr::Inline { .. }));
    }

    #[test]
    fn representations_are_observationally_equal() {
        let inline = Message::from_words([1, 2, 3]);
        let heap: Message = vec![1, 2, 3].into();
        assert!(matches!(inline.0, Repr::Inline { .. }));
        assert!(matches!(heap.0, Repr::Heap(_)));
        assert_eq!(inline, heap);
        assert_eq!(hash_of(&inline), hash_of(&heap));
        assert_eq!(inline.words(), heap.words());
        // Pushing keeps them in lockstep.
        assert_eq!(inline.push(9), heap.push(9));
    }

    #[test]
    fn msg_view_mirrors_message() {
        let m = Message::from_words([3, 42, 7]);
        let v = MsgView::new(m.words());
        assert_eq!(v.words(), m.words());
        assert_eq!(v.len(), 3);
        assert_eq!(v.word(1), 42);
        assert_eq!(v.get(3), None);
    }
}
