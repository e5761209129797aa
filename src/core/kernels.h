// Chunk kernels: the typed element loops every GenOp compiles down to.
//
// A "chunk" is one Pcache partition of one matrix: `rows` consecutive rows of
// all (or selected) columns, column-major with an explicit per-view column
// stride. Kernels never allocate and never branch on the op inside the
// element loops — op and type dispatch happens once per chunk, so the loops
// vectorize.
//
// Sink kernels accumulate into caller-owned per-thread buffers; the executor
// initializes those with agg_identity() and merges them with agg_merge().
#pragma once

#include <cstddef>
#include <cstdint>

#include "core/genops.h"

namespace flashr::kern {

/// A read-only chunk of a matrix: col-major, `stride` elements per column.
struct view {
  const char* data = nullptr;
  std::size_t stride = 0;
};

// ---- Partition-aligned kernels ------------------------------------------

void sapply(scalar_type t, uop_id op, view a, std::size_t rows,
            std::size_t cols, char* out, std::size_t out_stride);

/// Elementwise binary. If `bcast_b` is set, b is a single column applied to
/// every column of a (R's column-recycling of a vector against a matrix).
void map2(scalar_type t, bop_id op, view a, view b, bool bcast_b,
          std::size_t rows, std::size_t cols, char* out,
          std::size_t out_stride);

void map_scalar(scalar_type t, bop_id op, view a, scalar_val c,
                bool scalar_left, std::size_t rows, std::size_t cols,
                char* out, std::size_t out_stride);

/// C_ij = f(A_ij, v_j): one value per column (R sweep with MARGIN = 2).
void sweep_rowvec(scalar_type t, bop_id op, view a, const double* v,
                  std::size_t rows, std::size_t cols, char* out,
                  std::size_t out_stride);

/// Generalized inner product of an rows×p chunk with a p×k small matrix:
/// acc_j = f2-combine over i of f1(A_ri, B_ij). f2 in {sum, min_v, max_v}.
/// Fast paths, f64 with f2 = sum: f1 = mul -> blas::gemm_nn, f1 = sqdiff
/// -> blas::sqdist_nn.
void inner_prod(scalar_type t, bop_id f1, agg_id f2, view a, std::size_t rows,
                std::size_t p, const smat& B, char* out,
                std::size_t out_stride);

/// Per-row aggregate. If return_index, writes the 0-based column of the
/// min (agg min_v) / max (agg max_v) as int64; otherwise writes the value
/// in type t.
void agg_row(scalar_type t, agg_id op, bool return_index, view a,
             std::size_t rows, std::size_t cols, char* out);

/// Cumulative down columns. `carry` is a per-column running value of type t
/// (cols elements) that is read when `has_carry` and updated on return.
void cum_col(scalar_type t, bop_id op, view a, std::size_t rows,
             std::size_t cols, char* out, std::size_t out_stride, char* carry,
             bool has_carry);

/// Cumulative across each row (no cross-chunk dependency).
void cum_row(scalar_type t, bop_id op, view a, std::size_t rows,
             std::size_t cols, char* out, std::size_t out_stride);

/// groupby.col: out column k = op-accumulation over input columns j with
/// labels[j] == k. out has num_groups columns, initialized to the op's
/// identity. Labels outside [0, num_groups) are skipped.
void groupby_col(scalar_type t, agg_id op, view a, std::size_t rows,
                 std::size_t cols, const std::size_t* labels,
                 std::size_t num_groups, char* out, std::size_t out_stride);

void cast(scalar_type from, scalar_type to, view a, std::size_t rows,
          std::size_t cols, char* out, std::size_t out_stride);

/// Copy a chunk (used when a target's partitions are assembled).
void copy(scalar_type t, view a, std::size_t rows, std::size_t cols,
          char* out, std::size_t out_stride);

// ---- Sink accumulation ----------------------------------------------------

/// Fill `out[0..n)` (type t) with the identity of `op`'s accumulation.
void agg_identity(scalar_type t, agg_id op, char* out, std::size_t n);

/// Merge two partial-aggregate buffers elementwise: into = combine(into,
/// from). (count_nonzero partials combine by addition, any by or, ...)
void agg_merge(scalar_type t, agg_id op, char* into, const char* from,
               std::size_t n);

/// acc[j] = op-fold(acc[j], elements of column j in row order). The full
/// aggregate keeps one accumulator PER COLUMN until agg_finish so the fold
/// order never depends on the Pcache chunk size: splitting a partition's
/// rows across any number of chunked calls yields bit-identical acc — the
/// invariant exec's degradation ladder relies on (DESIGN.md §11.2).
void agg_full_acc(scalar_type t, agg_id op, view a, std::size_t rows,
                  std::size_t cols, char* acc);

/// Combine `n` per-column accumulators (in column order) into out[0].
void agg_finish(scalar_type t, agg_id op, const char* acc, std::size_t n,
                char* out);

/// acc[j] = op-fold(acc[j], elements of column j in row order); like
/// agg_full_acc, a strictly sequential fold so chunking cannot change it.
void agg_col_acc(scalar_type t, agg_id op, view a, std::size_t rows,
                 std::size_t cols, char* acc);

/// Generalized t(A) %*% B accumulation: acc (m×k, col-major, type t,
/// stride m) += f2-combine over chunk rows of f1(A_ri, B_rj). A is rows×m,
/// B is rows×k. Fast path f1 = mul, f2 = sum, f64 -> blas::gemm_tn_acc.
void tmm_acc(scalar_type t, bop_id f1, agg_id f2, view a, view b,
             std::size_t rows, std::size_t m, std::size_t k, char* acc);

/// groupby.row: acc is num_groups×cols (type t, stride num_groups);
/// acc[labels[r], j] = op-combine(acc[labels[r], j], A_rj). Labels outside
/// [0, num_groups) are ignored (R drops NA groups).
void groupby_row_acc(scalar_type t, agg_id op, view a, view labels_i64,
                     std::size_t rows, std::size_t cols,
                     std::size_t num_groups, char* acc);

/// Histogram of an int64 label column into counts[0..num_groups).
void count_groups_acc(view labels_i64, std::size_t rows,
                      std::size_t num_groups, std::int64_t* counts);

}  // namespace flashr::kern
