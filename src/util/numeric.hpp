// Numeric-safety primitives: the only sanctioned narrowing and
// float-comparison idioms in src/ (tools/lint.py R14; -Wfloat-equal in the
// numeric-safety lane of tools/run_checks.py).
//
// The pipeline's output is a stack of floating-point claims built on
// integer indices (AS ids, metro ids, matrix coordinates).  A silently
// wrapped index or an accidental exact float compare corrupts results
// without crashing, so both operations are funneled through helpers that
// (a) document intent at the call site and (b) carry a MAC_ASSERT in debug
// and sanitizer builds.  In release builds every helper compiles down to
// the bare cast / compare -- zero cost, byte-identical outputs.
//
//   mac::checked_cast<T>(v)   integral -> integral; asserts v fits in T
//   mac::narrow<T>(v)         arithmetic -> arithmetic; asserts the value
//                             round-trips exactly (no truncation, no sign
//                             flip) -- gsl::narrow semantics
//   mac::enum_cast<T>(e)      enum -> integral via the underlying type,
//                             checked for representability in T
//   mac::trunc_cast<T>(v)     floating -> integral; truncation is the
//                             *intended* behaviour, asserts only that the
//                             truncated value is representable in T
//   mac::exact_eq(a, b)       intentional exact FP ==; documents that bit-
//   mac::exact_zero(x)        level equality is the load-bearing semantic
//                             (sentinels, sparse skips, duplicate scores)
//   mac::approx_eq(a, b, eps) tolerance compare (relative + absolute)
//   mac::approx_zero(x, eps)  tolerance compare against zero
//
// `mac` is an alias for metas::util, matching the MAC_* macro family.
#pragma once

#include <cmath>
#include <limits>
#include <type_traits>
#include <utility>

#include "util/contracts.hpp"

namespace metas::util {

namespace detail {
/// std::in_range rejects char / wchar_t / charN_t; map every integral to
/// the same-size standard integer of the same signedness (identity for
/// types that are already standard), preserving the value exactly.
template <typename T>
using std_integer_t =
    std::conditional_t<std::is_signed_v<T>, std::make_signed_t<T>,
                       std::make_unsigned_t<T>>;
}  // namespace detail

/// Integral -> integral conversion checked for representability.  The one
/// sanctioned way to cross the AS-id / metro-id / matrix-index boundaries:
/// debug builds abort on a value that does not fit (negative into unsigned,
/// wide into narrow); release builds compile to a bare static_cast.
template <typename To, typename From>
constexpr To checked_cast(From v) {
  static_assert(std::is_integral_v<To> && std::is_integral_v<From>,
                "checked_cast is integral->integral; use mac::narrow for "
                "floating-point values");
  static_assert(!std::is_same_v<To, bool> && !std::is_same_v<From, bool>,
                "checked_cast does not launder bools");
  MAC_ASSERT(std::in_range<detail::std_integer_t<To>>(
                 static_cast<detail::std_integer_t<From>>(v)),
             "checked_cast out of range: value=", +v);
  return static_cast<To>(v);
}

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wfloat-equal"
#elif defined(__clang__)
#pragma clang diagnostic push
#pragma clang diagnostic ignored "-Wfloat-equal"
#endif

/// Arithmetic -> arithmetic conversion that must preserve the value
/// exactly: the result converted back compares equal and keeps its sign.
/// Use where a lossy conversion is a logic error (e.g. an integral-valued
/// double produced by std::floor/std::ceil crossing into an index).
template <typename To, typename From>
constexpr To narrow(From v) {
  static_assert(std::is_arithmetic_v<To> && std::is_arithmetic_v<From>,
                "narrow converts arithmetic types");
  const To out = static_cast<To>(v);
  bool ok = static_cast<From>(out) == v;
  if constexpr (std::is_signed_v<From> && std::is_unsigned_v<To>) {
    ok = ok && v >= From{};
  } else if constexpr (std::is_unsigned_v<From> && std::is_signed_v<To>) {
    ok = ok && out >= To{};
  }
  MAC_ASSERT(ok, "narrow lost information: value=", +v);
  return out;
}

/// Intentional exact floating-point equality.  Exists so every exact FP
/// compare in src/ is greppable and visibly deliberate (lint R12): sparse
/// zero skips, duplicate-score deduplication, degenerate-variance guards.
/// For tolerance-based comparison use approx_eq.
constexpr bool exact_eq(double a, double b) { return a == b; }

/// Intentional exact comparison against zero (see exact_eq).
constexpr bool exact_zero(double x) { return x == 0.0; }

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#elif defined(__clang__)
#pragma clang diagnostic pop
#endif

/// Enum -> integral conversion through the underlying type, checked for
/// representability in To.  The sanctioned way to use scoped enums (geo
/// scopes, route kinds, topology classes) as table indices or category ids.
template <typename To, typename From>
constexpr To enum_cast(From e) {
  static_assert(std::is_enum_v<From> && std::is_integral_v<To>,
                "enum_cast is enum->integral");
  return checked_cast<To>(static_cast<std::underlying_type_t<From>>(e));
}

/// Floating -> integral conversion where truncation toward zero is the
/// intended semantic (e.g. fraction-of-count sizing).  Asserts the
/// truncated value is representable in To, nothing more.
template <typename To, typename From>
To trunc_cast(From v) {
  static_assert(std::is_integral_v<To> && std::is_floating_point_v<From>,
                "trunc_cast is floating->integral; use checked_cast for "
                "integral sources");
  MAC_ASSERT(std::isfinite(v) &&
                 std::trunc(v) >= static_cast<From>(std::numeric_limits<To>::min()) &&
                 std::trunc(v) <= static_cast<From>(std::numeric_limits<To>::max()),
             "trunc_cast out of range: value=", v);
  return static_cast<To>(v);
}

/// Tolerance compare: |a - b| <= abs_eps + rel_eps * max(|a|, |b|).
/// The default is a pure relative test; pass abs_eps for quantities whose
/// scale can legitimately reach zero.
inline bool approx_eq(double a, double b, double rel_eps,
                      double abs_eps = 0.0) {
  return std::fabs(a - b) <=
         abs_eps + rel_eps * std::max(std::fabs(a), std::fabs(b));
}

/// Tolerance compare against zero: |x| <= eps.
inline bool approx_zero(double x, double eps) { return std::fabs(x) <= eps; }

}  // namespace metas::util

// The short alias used at call sites, matching the MAC_* macro family.
namespace mac = metas::util;
