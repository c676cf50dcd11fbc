//! The batch-transposed activation panel, in a module of its own so
//! that its fields are private and [`Panel::new`]'s bound check is the
//! only way to build one.

/// A batch-transposed panel of `u8` activation codes: lane `v` of
/// activation row `i` is `acts[rows[i] + v]`, for `n` live lanes. Rows may sit anywhere in
/// `acts`, in any order, and may overlap.
///
/// Only [`Panel::new`] builds one (the fields are private to this
/// module), and it proves once that every row's [`transposed_pad`]`(n)`
/// lanes lie inside `acts`: the bound every SIMD tier's panel loads
/// cite.
///
/// [`transposed_pad`]: super::transposed_pad
#[derive(Debug, Clone, Copy)]
pub(crate) struct Panel<'a> {
    acts: &'a [u8],
    rows: &'a [usize],
    n: usize,
}

impl<'a> Panel<'a> {
    /// The panel of `n` lanes per row at offsets `rows` into `acts`.
    ///
    /// # Panics
    ///
    /// Panics if some `rows[i] + transposed_pad(n)` exceeds `acts.len()`.
    pub(crate) fn new(acts: &'a [u8], rows: &'a [usize], n: usize) -> Self {
        // `transposed_pad` in checked arithmetic: the loads rely on this
        // bound, so a lane count that overflows must fail it, not wrap.
        let lanes = n
            .checked_next_multiple_of(16)
            .map_or(usize::MAX, |p| p.max(16));
        let reach = rows.iter().max().map_or(0, |&r| r.saturating_add(lanes));
        assert!(
            reach <= acts.len(),
            "panel row reaches lane {reach} of a {}-code buffer",
            acts.len()
        );
        Panel { acts, rows, n }
    }

    /// The whole activation buffer.
    pub(crate) fn acts(&self) -> &'a [u8] {
        self.acts
    }

    /// Every row's offset into [`Panel::acts`].
    pub(crate) fn rows(&self) -> &'a [usize] {
        self.rows
    }

    /// Live lanes (vectors) per row.
    pub(crate) fn n(&self) -> usize {
        self.n
    }

    /// Activation rows.
    pub(crate) fn ins(&self) -> usize {
        self.rows.len()
    }

    /// The `n` live lanes of activation row `i`.
    pub(crate) fn lane(&self, i: usize) -> &'a [u8] {
        &self.acts[self.rows[i]..self.rows[i] + self.n]
    }
}
