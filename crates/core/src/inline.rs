//! Per-read scratch on the stack: the region estimates a read prices
//! with, the chunk slots its planner and its bind fill. Their widths
//! are a topology's and a code's, small in every deployment, so a read
//! keeps them inline and allocates only above those widths.

/// Regions a read copies its latency estimates for without a heap
/// allocation (six in the paper's deployment).
pub(crate) const INLINE_REGIONS: usize = 16;

/// Chunks per object a read binds without a heap allocation (twelve
/// for the paper's RS(9, 3)).
pub(crate) const INLINE_CHUNKS: usize = 16;

/// Per-read scratch whose width is a topology's or a code's: held on
/// the stack up to `N` items, on the heap above.
#[derive(Clone, Debug)]
pub(crate) enum Inline<T, const N: usize> {
    Stack { items: [T; N], len: usize },
    Heap(Vec<T>),
}

impl<T: Clone + Default, const N: usize> Inline<T, N> {
    /// `len` default values.
    pub(crate) fn defaults(len: usize) -> Self {
        if len <= N {
            let items = std::array::from_fn(|_| T::default());
            Inline::Stack { items, len }
        } else {
            Inline::Heap(vec![T::default(); len])
        }
    }

    /// A copy of `items`.
    pub(crate) fn copied(items: &[T]) -> Self {
        let mut copy = Self::defaults(items.len());
        copy.clone_from_slice(items);
        copy
    }
}

impl<T: Clone + Default, const N: usize> Default for Inline<T, N> {
    fn default() -> Self {
        Self::defaults(0)
    }
}

impl<T, const N: usize> std::ops::Deref for Inline<T, N> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        match self {
            Inline::Stack { items, len } => &items[..*len],
            Inline::Heap(items) => items,
        }
    }
}

impl<T, const N: usize> std::ops::DerefMut for Inline<T, N> {
    fn deref_mut(&mut self) -> &mut [T] {
        match self {
            Inline::Stack { items, len } => &mut items[..*len],
            Inline::Heap(items) => items,
        }
    }
}
