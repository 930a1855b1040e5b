//! Columnar batches for the vectorized executor hot path.
//!
//! A [`Batch`] is a batch-of-N columnar view of a run of rows: one
//! `Vec<Value>` per column plus an explicit length (so zero-arity rows
//! keep their count). The vectorized σ/σ± paths transpose the columns
//! their kernels read into a `Batch`, evaluate simple predicates as
//! column kernels over a *selection vector* of surviving lane indices,
//! and hand back the input's own row-oriented `Tuple`s.
//!
//! Kernels walk a batch one [`BLOCK_ROWS`] block at a time: the same
//! constant is the executor's kernel chunk, its adaptive-ordering epoch
//! and its governor checkpoint grain. Batches themselves are scratch
//! space and are deliberately *not* charged to the memory governor.

use crate::tuple::Tuple;
use crate::value::Value;

/// Rows per block. Block `k` of an operator is rows
/// `[k·BLOCK_ROWS, (k+1)·BLOCK_ROWS)` of its input (pairs instead of
/// rows for nested-loop joins); kernels run one block per columnar
/// chunk, adaptive disjunct orders are re-ranked once per block, and the
/// governor passes exactly one checkpoint at the end of each block.
pub const BLOCK_ROWS: usize = 256;

/// A columnar batch: `columns[c][r]` is column `c` of row `r`.
///
/// All columns have length [`Batch::len`]; the arity may be zero, so
/// the row count is tracked separately.
#[derive(Debug, Clone, PartialEq)]
pub struct Batch {
    columns: Vec<Vec<Value>>,
    len: usize,
}

impl Batch {
    /// Transpose only the named, distinct columns (late
    /// materialization): columns not listed in `cols` stay empty and
    /// must not be indexed. The vectorized filter path transposes
    /// exactly the columns its kernels read, so unreferenced columns
    /// cost nothing.
    pub fn from_rows_cols(rows: &[Tuple], cols: &[usize]) -> Self {
        let Some(first) = rows.first() else {
            // No rows: no lanes can ever be selected, so no column
            // (whatever the caller's arity) needs backing storage.
            return Batch {
                columns: Vec::new(),
                len: 0,
            };
        };
        let arity = first.arity();
        let mut columns: Vec<Vec<Value>> = (0..arity).map(|_| Vec::new()).collect();
        for &c in cols {
            debug_assert!(columns[c].is_empty(), "column {c} listed twice");
            columns[c].reserve_exact(rows.len());
            for row in rows {
                let values = row.values();
                debug_assert_eq!(values.len(), arity, "ragged batch");
                columns[c].push(values[c].clone());
            }
        }
        Batch {
            columns,
            len: rows.len(),
        }
    }

    /// Number of rows in the batch.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the batch holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// Borrow column `i` as a contiguous value vector.
    pub fn column(&self, i: usize) -> &[Value] {
        &self.columns[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(vals: &[i64]) -> Tuple {
        Tuple::new(vals.iter().map(|&v| Value::Int(v)).collect())
    }

    #[test]
    fn transpose_builds_columns() {
        let rows = vec![row(&[1, 2]), row(&[3, 4]), row(&[5, 6])];
        let batch = Batch::from_rows_cols(&rows, &[0, 1]);
        assert_eq!(batch.len(), 3);
        assert_eq!(batch.arity(), 2);
        assert_eq!(
            batch.column(1),
            &[Value::Int(2), Value::Int(4), Value::Int(6)]
        );
    }

    #[test]
    fn zero_arity_rows_keep_their_count() {
        let rows = vec![Tuple::empty(), Tuple::empty()];
        let batch = Batch::from_rows_cols(&rows, &[]);
        assert_eq!(batch.len(), 2);
        assert_eq!(batch.arity(), 0);
    }

    #[test]
    fn selective_transpose_of_no_rows_is_empty() {
        let batch = Batch::from_rows_cols(&[], &[5]);
        assert!(batch.is_empty());
        assert_eq!(batch.arity(), 0);
    }

    #[test]
    fn selective_transpose_builds_only_named_columns() {
        let rows = vec![row(&[1, 2, 3]), row(&[4, 5, 6])];
        let batch = Batch::from_rows_cols(&rows, &[2]);
        assert_eq!(batch.len(), 2);
        assert_eq!(batch.arity(), 3);
        assert_eq!(batch.column(2), &[Value::Int(3), Value::Int(6)]);
        assert!(batch.column(0).is_empty());
        assert!(batch.column(1).is_empty());
    }
}
