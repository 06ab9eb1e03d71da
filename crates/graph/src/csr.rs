//! Compressed sparse rows: items grouped into numbered rows, all in one
//! flat array behind one `u32` offset per row. The transfer scheduler
//! keeps its read positions and death buckets this way, the
//! happens-before graph its predecessor rows and the plan engine its
//! per-slot lint steps, so none of them allocates a `Vec` per row.

/// Rows of `T`, each in the order its items were yielded.
#[derive(Debug, Clone)]
pub struct Csr<T> {
    /// Row `r` is `items[start[r]..start[r + 1]]`.
    start: Vec<u32>,
    items: Vec<T>,
}

impl<T: Copy> Csr<T> {
    /// No rows at all (a happens-before graph before `seal`).
    pub fn empty() -> Csr<T> {
        Csr {
            start: vec![0],
            items: Vec::new(),
        }
    }

    /// Group the `(row, item)` pairs `pairs()` yields into `rows` rows: a
    /// stable counting sort, so each row keeps the order of its items.
    /// `pairs` is called twice, to count and then to fill.
    pub fn build<I: Iterator<Item = (usize, T)>>(rows: usize, pairs: impl Fn() -> I) -> Csr<T> {
        let mut start = vec![0u32; rows + 1];
        let mut total = 0usize;
        for (r, _) in pairs() {
            start[r + 1] += 1;
            total += 1;
        }
        assert!(
            total < u32::MAX as usize,
            "{total} items overflow the u32 row offsets"
        );
        for r in 0..rows {
            start[r + 1] += start[r];
        }
        // Every position is written below; the first item only fills.
        let mut items = match pairs().next() {
            Some((_, first)) => vec![first; total],
            None => Vec::new(),
        };
        // `start[r]` serves as row `r`'s fill cursor, which leaves it at
        // the start of row `r + 1`; the shift below restores the starts.
        for (r, item) in pairs() {
            items[start[r] as usize] = item;
            start[r] += 1;
        }
        start.copy_within(0..rows, 1);
        start[0] = 0;
        Csr { start, items }
    }

    /// The items of row `r`.
    pub fn row(&self, r: usize) -> &[T] {
        self.rows(r..r + 1)
    }

    /// The items of the rows in `rows`, row after row.
    pub fn rows(&self, rows: std::ops::Range<usize>) -> &[T] {
        &self.items[self.start[rows.start] as usize..self.start[rows.end] as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_keep_the_order_items_were_yielded() {
        let pairs = [(2, 'a'), (0, 'b'), (2, 'c'), (3, 'd'), (0, 'e')];
        let csr = Csr::build(4, || pairs.iter().copied());
        assert_eq!(csr.row(0), &['b', 'e']);
        assert!(csr.row(1).is_empty());
        assert_eq!(csr.row(2), &['a', 'c']);
        assert_eq!(csr.row(3), &['d']);
        assert_eq!(csr.rows(1..4), &['a', 'c', 'd']);
        assert!(csr.rows(2..2).is_empty());
        let none = Csr::<char>::build(2, std::iter::empty);
        assert!(none.row(0).is_empty() && none.row(1).is_empty());
    }
}
