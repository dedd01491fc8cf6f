// Crash-safe snapshot persistence: a versioned, checksummed binary envelope
// written atomically (write temp + fsync, then rotate and rename) with
// keep-last-k rotation, plus the little-endian Encoder/Decoder the
// resumable pipeline state is serialized through.
//
// Invariants (DESIGN.md §12):
//   * A reader never observes a torn file: the payload becomes visible only
//     via rename(2), which is atomic on POSIX.
//   * A corrupted file (truncation, bit flip, wrong magic, unknown version)
//     is rejected by checksum/header validation, and load_file falls back to
//     the previous good generation (path.1, path.2, ...).
//   * Serialization is deterministic: unordered containers are written in
//     sorted-key order (lint R10 applies to this code like any other), so a
//     checkpoint of the same state is byte-identical across runs.
//   * Decoding untrusted bytes fails cleanly: every malformed payload that
//     passes the envelope checks surfaces as CheckpointError, never as an
//     abort or an allocation sized by a corrupt count.
//
// atomic_write_file() is the sanctioned plain-file write helper behind lint
// rule R18 (raw-file-write): every file produced under src/ goes through the
// same write-temp + rename discipline, so a crash can leave behind at most a
// stale temp file, never a half-written artifact.
#pragma once

#include <algorithm>
#include <array>
#include <concepts>
#include <cstdint>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <string_view>
#include <tuple>
#include <type_traits>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

namespace metas::util {
class Rng;
}  // namespace metas::util

namespace metas::util::checkpoint {

/// Envelope format version; bump on any incompatible payload change.
inline constexpr std::uint32_t kFormatVersion = 4;

/// Envelope checksum: FNV-1a 64-bit over little-endian 8-byte words (the
/// zero-padded tail word and the byte length are mixed in last).  Word
/// granularity keeps the per-checkpoint cost ~8x below byte-wise FNV on the
/// tens-of-kilobytes payloads the pipeline writes at every rank boundary
/// (the CI checkpoint-overhead gate bounds this).  Checkpoints are
/// host-local, so the little-endian word view needs no cross-endian story.
std::uint64_t checksum64(std::string_view data);

/// Thrown by Decoder on a truncated or malformed payload: reads past the
/// end, a count larger than the bytes left, an unparseable RNG state, or
/// state a checkpointed type rejects (e.g. the wrong metro size).
class CheckpointError : public std::runtime_error {
 public:
  explicit CheckpointError(const std::string& what)
      : std::runtime_error(what) {}
};

namespace detail {
template <class T, template <class...> class Tmpl>
inline constexpr bool kIs = false;
template <template <class...> class Tmpl, class... Args>
inline constexpr bool kIs<Tmpl<Args...>, Tmpl> = true;

template <class T>
inline constexpr bool kIsArray = false;
template <class T, std::size_t N>
inline constexpr bool kIsArray<std::array<T, N>> = true;

template <class T>
inline constexpr bool kIsTuple = kIs<T, std::pair> || kIs<T, std::tuple>;
template <class T>
inline constexpr bool kIsCounted =
    kIs<T, std::vector> || kIs<T, std::set> || kIs<T, std::unordered_set>;
template <class T>
inline constexpr bool kIsU64 = std::unsigned_integral<T> && sizeof(T) == 8;
}  // namespace detail

/// Little-endian append-only byte sink for checkpoint payloads.
///
/// `enc(a, b, ...)` writes each field by its declared type, and Decoder's
/// `dec(a, b, ...)` reads the same fields back, so a checkpointed type
/// lists its fields once, in a static `io(self, ar)` that both run:
///   bool -> b, int32 -> i32, size_t / uint64_t -> u64, double -> f64,
///   std::string -> str, util::Rng -> its textual state as a str;
///   pair / tuple element by element, std::array with no length prefix;
///   vector (vector<bool> too), std::set and unordered_set as a u64 count
///   plus elements; unordered_map as a count plus (key, value) pairs.
/// Unordered containers are written in ascending key order, so a
/// checkpoint of the same state is byte-identical across runs.  Any other
/// class goes through its `save(Encoder&)` or, failing that, its `io`.
class Encoder {
 public:
  static constexpr bool kLoading = false;

  void u8(std::uint8_t v) { buf_.push_back(static_cast<char>(v)); }  // lint: allow(unchecked-narrowing) -- byte packing; uint8 -> char reinterpretation is the point
  void b(bool v) { u8(v ? 1 : 0); }
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i32(std::int32_t v);
  void i64(std::int64_t v);
  void f64(double v);
  void str(std::string_view s);

  template <class... Ts>
  void operator()(const Ts&... fields) { (put(fields), ...); }

  const std::string& data() const { return buf_; }
  std::string take() { return std::move(buf_); }

 private:
  template <class T>
  void put(const T& x);
  template <class C>
  void put_sorted(const C& c);
  void put_rng(const Rng& r);

  std::string buf_;
};

/// Matching reader; every accessor throws CheckpointError past the end.
class Decoder {
 public:
  static constexpr bool kLoading = true;

  explicit Decoder(std::string_view data) : data_(data) {}

  std::uint8_t u8();
  bool b() { return u8() != 0; }
  std::uint32_t u32();
  std::uint64_t u64();
  std::int32_t i32();
  std::int64_t i64();
  double f64();
  std::string str();
  /// A u64 element count.  Every element takes at least one byte, so a
  /// count larger than the bytes left throws instead of reaching an
  /// allocation.
  std::size_t count();

  template <class... Ts>
  void operator()(Ts&... fields) { (get(fields), ...); }

  /// True once every payload byte has been consumed.
  bool done() const { return pos_ == data_.size(); }
  std::size_t remaining() const { return data_.size() - pos_; }

 private:
  template <class T>
  void get(T& x);
  void get_rng(Rng& r);
  const char* take(std::size_t n);

  std::string_view data_;  // lint: allow(view-member) -- caller-owned payload bytes; a Decoder is a transient cursor inside the caller's scope
  std::size_t pos_ = 0;
};

template <class T>
void Encoder::put(const T& x) {
  if constexpr (std::is_same_v<T, bool>) {
    b(x);
  } else if constexpr (std::is_same_v<T, std::int32_t>) {
    i32(x);
  } else if constexpr (detail::kIsU64<T>) {
    u64(x);
  } else if constexpr (std::is_same_v<T, double>) {
    f64(x);
  } else if constexpr (std::is_same_v<T, std::string>) {
    str(x);
  } else if constexpr (std::is_same_v<T, Rng>) {
    put_rng(x);
  } else if constexpr (detail::kIsTuple<T>) {
    std::apply([this](const auto&... xs) { (put(xs), ...); }, x);
  } else if constexpr (detail::kIsArray<T>) {
    for (const auto& e : x) put(e);
  } else if constexpr (detail::kIs<T, std::unordered_set> ||
                       detail::kIs<T, std::unordered_map>) {
    put_sorted(x);
  } else if constexpr (detail::kIsCounted<T>) {
    u64(x.size());
    for (const auto& e : x) put(e);
  } else if constexpr (requires { x.save(*this); }) {
    x.save(*this);
  } else {
    T::io(x, *this);
  }
}

template <class C>
void Encoder::put_sorted(const C& c) {
  std::vector<std::pair<typename C::key_type, const typename C::value_type*>>
      items;
  items.reserve(c.size());
  for (const auto& e : c) {  // lint: allow(unordered-iter) -- key harvest only; sorted below before anything is emitted
    if constexpr (detail::kIs<C, std::unordered_map>)
      items.emplace_back(e.first, &e);
    else
      items.emplace_back(e, &e);
  }
  std::sort(items.begin(), items.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  u64(items.size());
  for (const auto& item : items) put(*item.second);
}

template <class T>
void Decoder::get(T& x) {
  if constexpr (std::is_same_v<T, bool>) {
    x = b();
  } else if constexpr (std::is_same_v<T, std::int32_t>) {
    x = i32();
  } else if constexpr (detail::kIsU64<T>) {
    x = u64();
  } else if constexpr (std::is_same_v<T, double>) {
    x = f64();
  } else if constexpr (std::is_same_v<T, std::string>) {
    x = str();
  } else if constexpr (std::is_same_v<T, Rng>) {
    get_rng(x);
  } else if constexpr (detail::kIsTuple<T>) {
    std::apply([this](auto&... xs) { (get(xs), ...); }, x);
  } else if constexpr (detail::kIsArray<T>) {
    for (auto& e : x) get(e);
  } else if constexpr (detail::kIs<T, std::unordered_map>) {
    x.clear();
    for (std::size_t n = count(); n > 0; --n) {
      typename T::key_type key{};
      get(key);
      get(x[key]);
    }
  } else if constexpr (detail::kIsCounted<T>) {
    x.clear();
    for (std::size_t n = count(); n > 0; --n) {
      typename T::value_type e{};
      get(e);
      x.insert(x.end(), std::move(e));
    }
  } else if constexpr (requires { x.load(*this); }) {
    x.load(*this);
  } else {
    T::io(x, *this);
  }
}

struct WriteOptions {
  /// Checkpoint generations retained: `path` plus `path.1` .. `path.(k-1)`.
  int keep_last = 3;
  /// fsync the temp file (and its directory) before/after the rename.  The
  /// crash-injection tests and the overhead bench turn this off; production
  /// checkpoints keep it on.
  bool fsync = true;
};

/// Atomically writes `payload` wrapped in the versioned, checksummed
/// envelope to `path`: the temp file is written (and fsynced) first, then
/// the generations from `path` up to the first missing one rotate down by
/// one (the oldest kept one is dropped) and the temp file is renamed over
/// `path`.  Returns false (leaving every previous generation untouched)
/// when the temp file cannot be written.
bool write_file(const std::string& path, std::string_view payload,
                const WriteOptions& opts = {});

/// Loads and validates the newest good checkpoint generation: `path` first,
/// then `path.1`, `path.2`, ... up to `max_generations`.  Returns the
/// payload of the first generation that passes magic/version/length/checksum
/// validation, or nullopt when none does.  When `error` is non-null it
/// receives a per-generation diagnostic trail.
std::optional<std::string> load_file(const std::string& path,
                                     std::string* error = nullptr,
                                     int max_generations = 8);

/// Sanctioned atomic plain-file write (lint R18): writes `contents` verbatim
/// (no envelope) to a same-directory temp file and renames it over `path`.
/// Returns false -- with no partial file left behind -- when the directory
/// is unwritable or any write fails.
bool atomic_write_file(const std::string& path, std::string_view contents,
                       bool fsync_file = true);

}  // namespace metas::util::checkpoint
