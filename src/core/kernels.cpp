#include "core/kernels.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "blas/blas.h"
#include "common/error.h"

namespace flashr::kern {

namespace {

// Element functions are templated on the op id so that op dispatch happens
// ONCE per chunk (in the dispatch_* helpers below) and the element loops
// compile to straight-line code that vectorizes. Passing the op as a runtime
// enum into the loops costs a branch per element — measured at >2x on the
// generalized inner-product path.

template <uop_id OP, typename T>
inline T uop_eval(T x) {
  if constexpr (OP == uop_id::neg) return static_cast<T>(-x);
  if constexpr (OP == uop_id::abs_v) {
    if constexpr (std::is_floating_point_v<T>)
      return std::abs(x);
    else
      return static_cast<T>(x < 0 ? -x : x);
  }
  if constexpr (OP == uop_id::sqrt_v)
    return static_cast<T>(std::sqrt(static_cast<double>(x)));
  if constexpr (OP == uop_id::exp_v)
    return static_cast<T>(std::exp(static_cast<double>(x)));
  if constexpr (OP == uop_id::log_v)
    return static_cast<T>(std::log(static_cast<double>(x)));
  if constexpr (OP == uop_id::log1p_v)
    return static_cast<T>(std::log1p(static_cast<double>(x)));
  if constexpr (OP == uop_id::sigmoid)
    return static_cast<T>(1.0 / (1.0 + std::exp(-static_cast<double>(x))));
  if constexpr (OP == uop_id::square) return static_cast<T>(x * x);
  if constexpr (OP == uop_id::inv) return static_cast<T>(T{1} / x);
  if constexpr (OP == uop_id::floor_v)
    return static_cast<T>(std::floor(static_cast<double>(x)));
  if constexpr (OP == uop_id::ceil_v)
    return static_cast<T>(std::ceil(static_cast<double>(x)));
  if constexpr (OP == uop_id::sign)
    return static_cast<T>(x > T{0} ? 1 : (x < T{0} ? -1 : 0));
  if constexpr (OP == uop_id::not_v) return static_cast<T>(x == T{0} ? 1 : 0);
}

template <bop_id OP, typename T>
inline T bop_eval(T x, T y) {
  if constexpr (OP == bop_id::add) return static_cast<T>(x + y);
  if constexpr (OP == bop_id::sub) return static_cast<T>(x - y);
  if constexpr (OP == bop_id::mul) return static_cast<T>(x * y);
  if constexpr (OP == bop_id::div) return static_cast<T>(x / y);
  if constexpr (OP == bop_id::mod) {
    if constexpr (std::is_floating_point_v<T>)
      return std::fmod(x, y);
    else
      return static_cast<T>(y == 0 ? 0 : x % y);
  }
  if constexpr (OP == bop_id::pow_v)
    return static_cast<T>(
        std::pow(static_cast<double>(x), static_cast<double>(y)));
  if constexpr (OP == bop_id::min_v) return std::min(x, y);
  if constexpr (OP == bop_id::max_v) return std::max(x, y);
  if constexpr (OP == bop_id::eq) return static_cast<T>(x == y ? 1 : 0);
  if constexpr (OP == bop_id::ne) return static_cast<T>(x != y ? 1 : 0);
  if constexpr (OP == bop_id::lt) return static_cast<T>(x < y ? 1 : 0);
  if constexpr (OP == bop_id::le) return static_cast<T>(x <= y ? 1 : 0);
  if constexpr (OP == bop_id::gt) return static_cast<T>(x > y ? 1 : 0);
  if constexpr (OP == bop_id::ge) return static_cast<T>(x >= y ? 1 : 0);
  if constexpr (OP == bop_id::and_v)
    return static_cast<T>((x != T{0} && y != T{0}) ? 1 : 0);
  if constexpr (OP == bop_id::or_v)
    return static_cast<T>((x != T{0} || y != T{0}) ? 1 : 0);
  if constexpr (OP == bop_id::sqdiff) {
    const T d = static_cast<T>(x - y);
    return static_cast<T>(d * d);
  }
}

template <agg_id OP, typename T>
inline constexpr T agg_identity_of() {
  if constexpr (OP == agg_id::sum) return T{0};
  if constexpr (OP == agg_id::prod) return T{1};
  if constexpr (OP == agg_id::min_v) {
    if constexpr (std::is_floating_point_v<T>)
      return std::numeric_limits<T>::infinity();
    else
      return std::numeric_limits<T>::max();
  }
  if constexpr (OP == agg_id::max_v) {
    if constexpr (std::is_floating_point_v<T>)
      return -std::numeric_limits<T>::infinity();
    else
      return std::numeric_limits<T>::lowest();
  }
  if constexpr (OP == agg_id::count_nonzero) return T{0};
  if constexpr (OP == agg_id::any_v) return T{0};
  if constexpr (OP == agg_id::all_v) return T{1};
}

template <agg_id OP, typename T>
inline T agg_step(T acc, T x) {
  if constexpr (OP == agg_id::sum) return static_cast<T>(acc + x);
  if constexpr (OP == agg_id::prod) return static_cast<T>(acc * x);
  if constexpr (OP == agg_id::min_v) return std::min(acc, x);
  if constexpr (OP == agg_id::max_v) return std::max(acc, x);
  if constexpr (OP == agg_id::count_nonzero)
    return static_cast<T>(acc + (x != T{0} ? 1 : 0));
  if constexpr (OP == agg_id::any_v)
    return static_cast<T>((acc != T{0} || x != T{0}) ? 1 : 0);
  if constexpr (OP == agg_id::all_v)
    return static_cast<T>((acc != T{0} && x != T{0}) ? 1 : 0);
}

/// Combine two partial accumulators (count partials combine by addition).
template <agg_id OP, typename T>
inline T agg_combine(T a, T b) {
  if constexpr (OP == agg_id::sum || OP == agg_id::count_nonzero)
    return static_cast<T>(a + b);
  if constexpr (OP == agg_id::prod) return static_cast<T>(a * b);
  if constexpr (OP == agg_id::min_v) return std::min(a, b);
  if constexpr (OP == agg_id::max_v) return std::max(a, b);
  if constexpr (OP == agg_id::any_v)
    return static_cast<T>((a != T{0} || b != T{0}) ? 1 : 0);
  if constexpr (OP == agg_id::all_v)
    return static_cast<T>((a != T{0} && b != T{0}) ? 1 : 0);
}

// ---- chunk-level op dispatchers -------------------------------------------

template <typename F>
decltype(auto) dispatch_uop(uop_id op, F&& f) {
  switch (op) {
    case uop_id::neg: return f.template operator()<uop_id::neg>();
    case uop_id::abs_v: return f.template operator()<uop_id::abs_v>();
    case uop_id::sqrt_v: return f.template operator()<uop_id::sqrt_v>();
    case uop_id::exp_v: return f.template operator()<uop_id::exp_v>();
    case uop_id::log_v: return f.template operator()<uop_id::log_v>();
    case uop_id::log1p_v: return f.template operator()<uop_id::log1p_v>();
    case uop_id::sigmoid: return f.template operator()<uop_id::sigmoid>();
    case uop_id::square: return f.template operator()<uop_id::square>();
    case uop_id::inv: return f.template operator()<uop_id::inv>();
    case uop_id::floor_v: return f.template operator()<uop_id::floor_v>();
    case uop_id::ceil_v: return f.template operator()<uop_id::ceil_v>();
    case uop_id::sign: return f.template operator()<uop_id::sign>();
    case uop_id::not_v: return f.template operator()<uop_id::not_v>();
  }
  return f.template operator()<uop_id::neg>();
}

template <typename F>
decltype(auto) dispatch_bop(bop_id op, F&& f) {
  switch (op) {
    case bop_id::add: return f.template operator()<bop_id::add>();
    case bop_id::sub: return f.template operator()<bop_id::sub>();
    case bop_id::mul: return f.template operator()<bop_id::mul>();
    case bop_id::div: return f.template operator()<bop_id::div>();
    case bop_id::mod: return f.template operator()<bop_id::mod>();
    case bop_id::pow_v: return f.template operator()<bop_id::pow_v>();
    case bop_id::min_v: return f.template operator()<bop_id::min_v>();
    case bop_id::max_v: return f.template operator()<bop_id::max_v>();
    case bop_id::eq: return f.template operator()<bop_id::eq>();
    case bop_id::ne: return f.template operator()<bop_id::ne>();
    case bop_id::lt: return f.template operator()<bop_id::lt>();
    case bop_id::le: return f.template operator()<bop_id::le>();
    case bop_id::gt: return f.template operator()<bop_id::gt>();
    case bop_id::ge: return f.template operator()<bop_id::ge>();
    case bop_id::and_v: return f.template operator()<bop_id::and_v>();
    case bop_id::or_v: return f.template operator()<bop_id::or_v>();
    case bop_id::sqdiff: return f.template operator()<bop_id::sqdiff>();
  }
  return f.template operator()<bop_id::add>();
}

template <typename F>
decltype(auto) dispatch_agg(agg_id op, F&& f) {
  switch (op) {
    case agg_id::sum: return f.template operator()<agg_id::sum>();
    case agg_id::prod: return f.template operator()<agg_id::prod>();
    case agg_id::min_v: return f.template operator()<agg_id::min_v>();
    case agg_id::max_v: return f.template operator()<agg_id::max_v>();
    case agg_id::count_nonzero:
      return f.template operator()<agg_id::count_nonzero>();
    case agg_id::any_v: return f.template operator()<agg_id::any_v>();
    case agg_id::all_v: return f.template operator()<agg_id::all_v>();
  }
  return f.template operator()<agg_id::sum>();
}

template <typename T>
const T* col_of(view v, std::size_t j) {
  return reinterpret_cast<const T*>(v.data) + j * v.stride;
}

}  // namespace

void sapply(scalar_type t, uop_id op, view a, std::size_t rows,
            std::size_t cols, char* out, std::size_t out_stride) {
  dispatch_type(t, [&]<typename T>() {
    dispatch_uop(op, [&]<uop_id OP>() {
      for (std::size_t j = 0; j < cols; ++j) {
        const T* ac = col_of<T>(a, j);
        T* oc = reinterpret_cast<T*>(out) + j * out_stride;
        for (std::size_t i = 0; i < rows; ++i) oc[i] = uop_eval<OP>(ac[i]);
      }
    });
  });
}

void map2(scalar_type t, bop_id op, view a, view b, bool bcast_b,
          std::size_t rows, std::size_t cols, char* out,
          std::size_t out_stride) {
  dispatch_type(t, [&]<typename T>() {
    dispatch_bop(op, [&]<bop_id OP>() {
      for (std::size_t j = 0; j < cols; ++j) {
        const T* ac = col_of<T>(a, j);
        const T* bc = col_of<T>(b, bcast_b ? 0 : j);
        T* oc = reinterpret_cast<T*>(out) + j * out_stride;
        for (std::size_t i = 0; i < rows; ++i)
          oc[i] = bop_eval<OP>(ac[i], bc[i]);
      }
    });
  });
}

void map_scalar(scalar_type t, bop_id op, view a, scalar_val c,
                bool scalar_left, std::size_t rows, std::size_t cols,
                char* out, std::size_t out_stride) {
  dispatch_type(t, [&]<typename T>() {
    dispatch_bop(op, [&]<bop_id OP>() {
      const T cv = c.as<T>();
      for (std::size_t j = 0; j < cols; ++j) {
        const T* ac = col_of<T>(a, j);
        T* oc = reinterpret_cast<T*>(out) + j * out_stride;
        if (scalar_left)
          for (std::size_t i = 0; i < rows; ++i)
            oc[i] = bop_eval<OP>(cv, ac[i]);
        else
          for (std::size_t i = 0; i < rows; ++i)
            oc[i] = bop_eval<OP>(ac[i], cv);
      }
    });
  });
}

void sweep_rowvec(scalar_type t, bop_id op, view a, const double* v,
                  std::size_t rows, std::size_t cols, char* out,
                  std::size_t out_stride) {
  dispatch_type(t, [&]<typename T>() {
    dispatch_bop(op, [&]<bop_id OP>() {
      for (std::size_t j = 0; j < cols; ++j) {
        const T* ac = col_of<T>(a, j);
        const T vj = static_cast<T>(v[j]);
        T* oc = reinterpret_cast<T*>(out) + j * out_stride;
        for (std::size_t i = 0; i < rows; ++i)
          oc[i] = bop_eval<OP>(ac[i], vj);
      }
    });
  });
}

void inner_prod(scalar_type t, bop_id f1, agg_id f2, view a, std::size_t rows,
                std::size_t p, const smat& B, char* out,
                std::size_t out_stride) {
  const std::size_t k = B.ncol();
  FLASHR_ASSERT(B.nrow() == p, "inner_prod: B row count mismatch");
  // Fast paths on doubles: the ordinary matrix product and the squared
  // distance, both the same fold as the generic loop below.
  if (t == scalar_type::f64 && f2 == agg_id::sum &&
      (f1 == bop_id::mul || f1 == bop_id::sqdiff)) {
    const double* A = reinterpret_cast<const double*>(a.data);
    double* C = reinterpret_cast<double*>(out);
    if (f1 == bop_id::mul)
      blas::gemm_nn(rows, k, p, 1.0, A, a.stride, B.data(), B.nrow(), 0.0, C,
                    out_stride);
    else
      blas::sqdist_nn(rows, k, p, A, a.stride, B.data(), B.nrow(), C,
                      out_stride);
    return;
  }
  dispatch_type(t, [&]<typename T>() {
    dispatch_bop(f1, [&]<bop_id F1>() {
      dispatch_agg(f2, [&]<agg_id F2>() {
        T* o = reinterpret_cast<T*>(out);
        for (std::size_t j = 0; j < k; ++j) {
          T* oc = o + j * out_stride;
          std::fill(oc, oc + rows, agg_identity_of<F2, T>());
          for (std::size_t c = 0; c < p; ++c) {
            const T* ac = col_of<T>(a, c);
            const T bcj = static_cast<T>(B(c, j));
            for (std::size_t i = 0; i < rows; ++i)
              oc[i] = agg_step<F2>(oc[i], bop_eval<F1>(ac[i], bcj));
          }
        }
      });
    });
  });
}

void agg_row(scalar_type t, agg_id op, bool return_index, view a,
             std::size_t rows, std::size_t cols, char* out) {
  if (return_index) {
    FLASHR_ASSERT(op == agg_id::min_v || op == agg_id::max_v,
                  "which.min/which.max require min/max aggregation");
    dispatch_type(t, [&]<typename T>() {
      std::int64_t* o = reinterpret_cast<std::int64_t*>(out);
      const bool want_min = op == agg_id::min_v;
      if (want_min) {
        for (std::size_t i = 0; i < rows; ++i) o[i] = 0;
        std::vector<T> best(col_of<T>(a, 0), col_of<T>(a, 0) + rows);
        for (std::size_t j = 1; j < cols; ++j) {
          const T* ac = col_of<T>(a, j);
          for (std::size_t i = 0; i < rows; ++i)
            if (ac[i] < best[i]) {
              best[i] = ac[i];
              o[i] = static_cast<std::int64_t>(j);
            }
        }
      } else {
        for (std::size_t i = 0; i < rows; ++i) o[i] = 0;
        std::vector<T> best(col_of<T>(a, 0), col_of<T>(a, 0) + rows);
        for (std::size_t j = 1; j < cols; ++j) {
          const T* ac = col_of<T>(a, j);
          for (std::size_t i = 0; i < rows; ++i)
            if (ac[i] > best[i]) {
              best[i] = ac[i];
              o[i] = static_cast<std::int64_t>(j);
            }
        }
      }
    });
    return;
  }
  dispatch_type(t, [&]<typename T>() {
    dispatch_agg(op, [&]<agg_id OP>() {
      T* o = reinterpret_cast<T*>(out);
      std::fill(o, o + rows, agg_identity_of<OP, T>());
      for (std::size_t j = 0; j < cols; ++j) {
        const T* ac = col_of<T>(a, j);
        for (std::size_t i = 0; i < rows; ++i)
          o[i] = agg_step<OP>(o[i], ac[i]);
      }
    });
  });
}

void cum_col(scalar_type t, bop_id op, view a, std::size_t rows,
             std::size_t cols, char* out, std::size_t out_stride, char* carry,
             bool has_carry) {
  dispatch_type(t, [&]<typename T>() {
    dispatch_bop(op, [&]<bop_id OP>() {
      T* cy = reinterpret_cast<T*>(carry);
      for (std::size_t j = 0; j < cols; ++j) {
        const T* ac = col_of<T>(a, j);
        T* oc = reinterpret_cast<T*>(out) + j * out_stride;
        T run{};
        std::size_t i = 0;
        if (has_carry) {
          run = cy[j];
        } else if (rows > 0) {
          run = ac[0];
          oc[0] = run;
          i = 1;
        }
        for (; i < rows; ++i) {
          run = bop_eval<OP>(run, ac[i]);
          oc[i] = run;
        }
        cy[j] = run;
      }
    });
  });
}

void cum_row(scalar_type t, bop_id op, view a, std::size_t rows,
             std::size_t cols, char* out, std::size_t out_stride) {
  dispatch_type(t, [&]<typename T>() {
    dispatch_bop(op, [&]<bop_id OP>() {
      for (std::size_t j = 0; j < cols; ++j) {
        const T* ac = col_of<T>(a, j);
        T* oc = reinterpret_cast<T*>(out) + j * out_stride;
        if (j == 0) {
          for (std::size_t i = 0; i < rows; ++i) oc[i] = ac[i];
        } else {
          const T* prev = reinterpret_cast<T*>(out) + (j - 1) * out_stride;
          for (std::size_t i = 0; i < rows; ++i)
            oc[i] = bop_eval<OP>(prev[i], ac[i]);
        }
      }
    });
  });
}

void groupby_col(scalar_type t, agg_id op, view a, std::size_t rows,
                 std::size_t cols, const std::size_t* labels,
                 std::size_t num_groups, char* out, std::size_t out_stride) {
  dispatch_type(t, [&]<typename T>() {
    dispatch_agg(op, [&]<agg_id OP>() {
      for (std::size_t g = 0; g < num_groups; ++g) {
        T* oc = reinterpret_cast<T*>(out) + g * out_stride;
        std::fill(oc, oc + rows, agg_identity_of<OP, T>());
      }
      for (std::size_t j = 0; j < cols; ++j) {
        if (labels[j] >= num_groups) continue;
        const T* ac = col_of<T>(a, j);
        T* oc = reinterpret_cast<T*>(out) + labels[j] * out_stride;
        for (std::size_t i = 0; i < rows; ++i)
          oc[i] = agg_step<OP>(oc[i], ac[i]);
      }
    });
  });
}

void cast(scalar_type from, scalar_type to, view a, std::size_t rows,
          std::size_t cols, char* out, std::size_t out_stride) {
  dispatch_type(from, [&]<typename From>() {
    dispatch_type(to, [&]<typename To>() {
      for (std::size_t j = 0; j < cols; ++j) {
        const From* ac = col_of<From>(a, j);
        To* oc = reinterpret_cast<To*>(out) + j * out_stride;
        for (std::size_t i = 0; i < rows; ++i)
          oc[i] = static_cast<To>(ac[i]);
      }
    });
  });
}

void copy(scalar_type t, view a, std::size_t rows, std::size_t cols,
          char* out, std::size_t out_stride) {
  dispatch_type(t, [&]<typename T>() {
    for (std::size_t j = 0; j < cols; ++j) {
      const T* ac = col_of<T>(a, j);
      T* oc = reinterpret_cast<T*>(out) + j * out_stride;
      std::copy(ac, ac + rows, oc);
    }
  });
}

void agg_identity(scalar_type t, agg_id op, char* out, std::size_t n) {
  dispatch_type(t, [&]<typename T>() {
    dispatch_agg(op, [&]<agg_id OP>() {
      T* o = reinterpret_cast<T*>(out);
      std::fill(o, o + n, agg_identity_of<OP, T>());
    });
  });
}

void agg_merge(scalar_type t, agg_id op, char* into, const char* from,
               std::size_t n) {
  dispatch_type(t, [&]<typename T>() {
    dispatch_agg(op, [&]<agg_id OP>() {
      T* a = reinterpret_cast<T*>(into);
      const T* b = reinterpret_cast<const T*>(from);
      for (std::size_t i = 0; i < n; ++i) a[i] = agg_combine<OP>(a[i], b[i]);
    });
  });
}

void agg_full_acc(scalar_type t, agg_id op, view a, std::size_t rows,
                  std::size_t cols, char* acc) {
  dispatch_type(t, [&]<typename T>() {
    dispatch_agg(op, [&]<agg_id OP>() {
      T* o = reinterpret_cast<T*>(acc);
      for (std::size_t j = 0; j < cols; ++j) {
        const T* ac = col_of<T>(a, j);
        T v = o[j];
        for (std::size_t i = 0; i < rows; ++i) v = agg_step<OP>(v, ac[i]);
        o[j] = v;
      }
    });
  });
}

void agg_finish(scalar_type t, agg_id op, const char* acc, std::size_t n,
                char* out) {
  dispatch_type(t, [&]<typename T>() {
    dispatch_agg(op, [&]<agg_id OP>() {
      const T* a = reinterpret_cast<const T*>(acc);
      T v = agg_identity_of<OP, T>();
      for (std::size_t i = 0; i < n; ++i) v = agg_combine<OP>(v, a[i]);
      *reinterpret_cast<T*>(out) = v;
    });
  });
}

void agg_col_acc(scalar_type t, agg_id op, view a, std::size_t rows,
                 std::size_t cols, char* acc) {
  dispatch_type(t, [&]<typename T>() {
    dispatch_agg(op, [&]<agg_id OP>() {
      T* o = reinterpret_cast<T*>(acc);
      for (std::size_t j = 0; j < cols; ++j) {
        const T* ac = col_of<T>(a, j);
        T v = o[j];
        for (std::size_t i = 0; i < rows; ++i) v = agg_step<OP>(v, ac[i]);
        o[j] = v;
      }
    });
  });
}

void tmm_acc(scalar_type t, bop_id f1, agg_id f2, view a, view b,
             std::size_t rows, std::size_t m, std::size_t k, char* acc) {
  if (f1 == bop_id::mul && f2 == agg_id::sum && t == scalar_type::f64) {
    // gemm_tn_acc, not gemm_tn: its strictly sequential k-fold makes the
    // accumulated C independent of how the rows were chunked.
    blas::gemm_tn_acc(m, k, rows, reinterpret_cast<const double*>(a.data),
                      a.stride, reinterpret_cast<const double*>(b.data),
                      b.stride, reinterpret_cast<double*>(acc), m);
    return;
  }
  dispatch_type(t, [&]<typename T>() {
    dispatch_bop(f1, [&]<bop_id F1>() {
      dispatch_agg(f2, [&]<agg_id F2>() {
        T* C = reinterpret_cast<T*>(acc);
        for (std::size_t j = 0; j < k; ++j) {
          const T* bc = col_of<T>(b, j);
          for (std::size_t i = 0; i < m; ++i) {
            const T* ac = col_of<T>(a, i);
            T v = C[j * m + i];
            for (std::size_t r = 0; r < rows; ++r)
              v = agg_step<F2>(v, bop_eval<F1>(ac[r], bc[r]));
            C[j * m + i] = v;
          }
        }
      });
    });
  });
}

void groupby_row_acc(scalar_type t, agg_id op, view a, view labels_i64,
                     std::size_t rows, std::size_t cols,
                     std::size_t num_groups, char* acc) {
  const std::int64_t* lab =
      reinterpret_cast<const std::int64_t*>(labels_i64.data);
  dispatch_type(t, [&]<typename T>() {
    dispatch_agg(op, [&]<agg_id OP>() {
      T* o = reinterpret_cast<T*>(acc);
      for (std::size_t j = 0; j < cols; ++j) {
        const T* ac = col_of<T>(a, j);
        T* oc = o + j * num_groups;
        for (std::size_t i = 0; i < rows; ++i) {
          const std::int64_t g = lab[i];
          if (g >= 0 && static_cast<std::size_t>(g) < num_groups)
            oc[g] = agg_step<OP>(oc[g], ac[i]);
        }
      }
    });
  });
}

void count_groups_acc(view labels_i64, std::size_t rows,
                      std::size_t num_groups, std::int64_t* counts) {
  const std::int64_t* lab =
      reinterpret_cast<const std::int64_t*>(labels_i64.data);
  for (std::size_t i = 0; i < rows; ++i) {
    const std::int64_t g = lab[i];
    if (g >= 0 && static_cast<std::size_t>(g) < num_groups) ++counts[g];
  }
}

}  // namespace flashr::kern
