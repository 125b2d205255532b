// Compressed sparse row matrix with a triplet-based builder, sub-block
// extraction (for block-Jacobi multisplitting) and SpMV kernels.
#pragma once

#include <cstdint>
#include <vector>

#include "linalg/vector_ops.hpp"
#include "serial/serial.hpp"

namespace jacepp::linalg {

/// Default rows per parallel SpMV chunk (see support/thread_pool.hpp for the
/// determinism contract); matrices shorter than this always run serially.
/// Sized so a chunk is several microseconds of work on a ~5 nnz/row stencil —
/// below that, pool dispatch dominates the row loop. The live value is
/// spmv_row_grain() (vector_ops.hpp), which tracks the perf.grain override at
/// a fixed 4:1 element:row ratio.
inline constexpr std::size_t kSpmvRowGrain = 1024;

/// Immutable CSR sparse matrix (row-major). Build via CsrBuilder.
class CsrMatrix {
 public:
  CsrMatrix() = default;
  CsrMatrix(std::size_t rows, std::size_t cols, std::vector<std::uint32_t> row_ptr,
            std::vector<std::uint32_t> col_idx, std::vector<double> values);

  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t cols() const { return cols_; }
  [[nodiscard]] std::size_t nnz() const { return values_.size(); }

  [[nodiscard]] const std::vector<std::uint32_t>& row_ptr() const { return row_ptr_; }
  [[nodiscard]] const std::vector<std::uint32_t>& col_idx() const { return col_idx_; }
  [[nodiscard]] const std::vector<double>& values() const { return values_; }

  /// Value at (r, c); 0 if not stored. O(row nnz) scan — for tests/diagnostics.
  [[nodiscard]] double at(std::size_t r, std::size_t c) const;

  /// y = A * x.
  void multiply(const Vector& x, Vector& y) const;

  /// y += A * x.
  void multiply_add(const Vector& x, Vector& y) const;

  /// Diagonal entries as a vector (0 where no stored diagonal).
  [[nodiscard]] Vector diagonal() const;

  /// Extract the sub-matrix of rows [row_lo,row_hi) and columns [col_lo,col_hi),
  /// reindexed to local coordinates. Entries outside the column window are
  /// dropped (the caller handles them as coupling terms).
  [[nodiscard]] CsrMatrix block(std::size_t row_lo, std::size_t row_hi,
                                std::size_t col_lo, std::size_t col_hi) const;

  /// For rows [row_lo,row_hi): y += (entries with columns OUTSIDE
  /// [col_lo,col_hi)) * x_global. Used to apply the off-diagonal coupling of a
  /// block row against a globally-indexed iterate.
  void off_block_multiply_add(std::size_t row_lo, std::size_t row_hi,
                              std::size_t col_lo, std::size_t col_hi,
                              const Vector& x_global, Vector& y_local) const;

  /// Transpose (used by theory checks).
  [[nodiscard]] CsrMatrix transpose() const;

  void serialize(serial::Writer& w) const;
  static CsrMatrix deserialize(serial::Reader& r);

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<std::uint32_t> row_ptr_;
  std::vector<std::uint32_t> col_idx_;
  std::vector<double> values_;
};

/// Accumulating triplet builder. Duplicate (r, c) entries are summed.
class CsrBuilder {
 public:
  CsrBuilder(std::size_t rows, std::size_t cols) : rows_(rows), cols_(cols) {}

  void add(std::size_t r, std::size_t c, double v);

  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t cols() const { return cols_; }

  /// Sort, merge duplicates, and produce the CSR matrix.
  [[nodiscard]] CsrMatrix build();

 private:
  struct Triplet {
    std::uint32_t row;
    std::uint32_t col;
    double value;
  };

  std::size_t rows_;
  std::size_t cols_;
  std::vector<Triplet> triplets_;
};

/// Identity matrix of size n.
CsrMatrix identity(std::size_t n);

}  // namespace jacepp::linalg
