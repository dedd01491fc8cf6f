#include "util/checkpoint.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <bit>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include "util/contracts.hpp"
#include "util/numeric.hpp"
#include "util/rng.hpp"

namespace metas::util::checkpoint {
namespace {

constexpr char kMagic[4] = {'M', 'A', 'C', 'K'};
// magic(4) + version(4) + payload_size(8) + checksum(8)
constexpr std::size_t kHeaderSize = 24;

void put_u32(std::string& out, std::uint32_t v) {
  char b[4];
  for (int k = 0; k < 4; ++k)
    b[k] = static_cast<char>((v >> (8 * k)) & 0xffU);  // lint: allow(unchecked-narrowing) -- byte packing; the 0xff mask pins the value to one byte
  out.append(b, sizeof b);
}

void put_u64(std::string& out, std::uint64_t v) {
  char b[8];
  for (int k = 0; k < 8; ++k)
    b[k] = static_cast<char>((v >> (8 * k)) & 0xffU);  // lint: allow(unchecked-narrowing) -- byte packing; the 0xff mask pins the value to one byte
  out.append(b, sizeof b);
}

std::uint32_t get_u32(const char* p) {
  std::uint32_t v = 0;
  for (int k = 3; k >= 0; --k)
    v = (v << 8) | static_cast<std::uint8_t>(p[k]);  // lint: allow(unchecked-narrowing) -- byte unpacking; char -> byte reinterpretation is the point
  return v;
}

std::uint64_t get_u64(const char* p) {
  std::uint64_t v = 0;
  for (int k = 7; k >= 0; --k)
    v = (v << 8) | static_cast<std::uint8_t>(p[k]);  // lint: allow(unchecked-narrowing) -- byte unpacking; char -> byte reinterpretation is the point
  return v;
}

std::string parent_dir(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

/// Writes `data` to the fresh temp file `tmp`, fsynced when `fsync_file`.
/// On any failure the temp file is unlinked so no partial artifact
/// survives.
bool write_temp(const std::string& tmp, std::string_view data,
                bool fsync_file) {
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return false;

  const char* p = data.data();
  std::size_t left = data.size();
  bool ok = true;
  while (left > 0) {
    const ::ssize_t n = ::write(fd, p, left);
    if (n < 0) {
      if (errno == EINTR) continue;
      ok = false;
      break;
    }
    p += n;
    left -= mac::checked_cast<std::size_t>(n);
  }
  if (ok && fsync_file && ::fsync(fd) != 0) ok = false;
  if (::close(fd) != 0) ok = false;
  if (!ok) ::unlink(tmp.c_str());
  return ok;
}

/// Renames the written temp file `tmp` over `path`, then persists the
/// rename by fsyncing the directory when `fsync_dir`.
bool publish(const std::string& tmp, const std::string& path,
             bool fsync_dir) {
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    ::unlink(tmp.c_str());
    return false;
  }
  if (fsync_dir) {
    // Failure here is non-fatal for correctness of the visible file, so
    // ignore it.
    const int dfd = ::open(parent_dir(path).c_str(), O_RDONLY | O_DIRECTORY);
    if (dfd >= 0) {
      ::fsync(dfd);
      ::close(dfd);
    }
  }
  return true;
}

/// Reads `path` fully into `out`; false when missing or unreadable.
bool read_all(const std::string& path, std::string* out) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return false;
  out->clear();
  char buf[1 << 16];
  while (true) {
    const ::ssize_t n = ::read(fd, buf, sizeof buf);
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      return false;
    }
    if (n == 0) break;
    out->append(buf, mac::checked_cast<std::size_t>(n));
  }
  ::close(fd);
  return true;
}

/// Validates one on-disk envelope; returns the payload or a diagnostic.
std::optional<std::string> validate(const std::string& raw,
                                    std::string* why) {
  if (raw.size() < kHeaderSize) {
    *why = "truncated header";
    return std::nullopt;
  }
  if (std::memcmp(raw.data(), kMagic, sizeof kMagic) != 0) {
    *why = "bad magic";
    return std::nullopt;
  }
  const std::uint32_t version = get_u32(raw.data() + 4);
  if (version != kFormatVersion) {
    *why = "version mismatch (" + std::to_string(version) + ")";
    return std::nullopt;
  }
  const std::uint64_t payload_size = get_u64(raw.data() + 8);
  const std::uint64_t checksum = get_u64(raw.data() + 16);
  if (raw.size() - kHeaderSize != payload_size) {
    *why = "payload length mismatch";
    return std::nullopt;
  }
  const std::string_view payload(raw.data() + kHeaderSize,
                                 raw.size() - kHeaderSize);
  if (checksum64(payload) != checksum) {
    *why = "checksum mismatch";
    return std::nullopt;
  }
  return std::string(payload);
}

std::string generation_path(const std::string& path, int gen) {
  return gen == 0 ? path : path + "." + std::to_string(gen);
}

}  // namespace

std::uint64_t checksum64(std::string_view data) {
  constexpr std::uint64_t kPrime = 0x100000001b3ULL;
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const char* p = data.data();
  std::size_t left = data.size();
  while (left >= 8) {
    std::uint64_t w;
    std::memcpy(&w, p, 8);
    h = (h ^ w) * kPrime;
    p += 8;
    left -= 8;
  }
  if (left > 0) {
    std::uint64_t w = 0;
    std::memcpy(&w, p, left);  // zero-padded tail word
    h = (h ^ w) * kPrime;
  }
  // Mix the length so payloads differing only by trailing zero bytes (which
  // the padded tail word cannot tell apart) still get distinct checksums.
  return (h ^ data.size()) * kPrime;
}

void Encoder::u32(std::uint32_t v) { put_u32(buf_, v); }
void Encoder::u64(std::uint64_t v) { put_u64(buf_, v); }
void Encoder::i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }  // lint: allow(unchecked-narrowing) -- twos-complement wire encoding; the wrap is the format
void Encoder::i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }  // lint: allow(unchecked-narrowing) -- twos-complement wire encoding; the wrap is the format
void Encoder::f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

void Encoder::str(std::string_view s) {
  u64(s.size());
  buf_.append(s.data(), s.size());
}

const char* Decoder::take(std::size_t n) {
  if (n > data_.size() - pos_ || pos_ > data_.size())
    throw CheckpointError("checkpoint payload truncated");
  const char* p = data_.data() + pos_;
  pos_ += n;
  return p;
}

std::uint8_t Decoder::u8() {
  return static_cast<std::uint8_t>(*take(1));  // lint: allow(unchecked-narrowing) -- byte unpacking; char -> byte reinterpretation is the point
}
std::uint32_t Decoder::u32() { return get_u32(take(4)); }
std::uint64_t Decoder::u64() { return get_u64(take(8)); }
std::int32_t Decoder::i32() { return static_cast<std::int32_t>(u32()); }  // lint: allow(unchecked-narrowing) -- twos-complement wire decoding; inverse of Encoder::i32
std::int64_t Decoder::i64() { return static_cast<std::int64_t>(u64()); }  // lint: allow(unchecked-narrowing) -- twos-complement wire decoding; inverse of Encoder::i64
double Decoder::f64() { return std::bit_cast<double>(u64()); }

std::string Decoder::str() {
  const std::size_t n = count();
  return std::string(take(n), n);
}

std::size_t Decoder::count() {
  const std::uint64_t n = u64();
  if (n > remaining())
    throw CheckpointError("checkpoint count " + std::to_string(n) +
                          " exceeds the " + std::to_string(remaining()) +
                          " payload bytes left");
  return mac::checked_cast<std::size_t>(n);
}

void Encoder::put_rng(const Rng& r) { str(r.save_state()); }

void Decoder::get_rng(Rng& r) {
  try {
    r.restore_state(str());
  } catch (const std::invalid_argument&) {
    throw CheckpointError("checkpoint RNG state does not parse");
  }
}

bool write_file(const std::string& path, std::string_view payload,
                const WriteOptions& opts) {
  MAC_REQUIRE(!path.empty(), "checkpoint path must be non-empty");
  MAC_REQUIRE(opts.keep_last >= 1, "keep_last must be at least 1");

  std::string envelope;
  envelope.reserve(kHeaderSize + payload.size());
  envelope.append(kMagic, sizeof kMagic);
  put_u32(envelope, kFormatVersion);
  put_u64(envelope, payload.size());
  put_u64(envelope, checksum64(payload));
  envelope.append(payload.data(), payload.size());

  // The new generation is on disk before any old one moves, so a write
  // that fails leaves every generation where it was.
  const std::string tmp = path + ".tmp";
  if (!write_temp(tmp, envelope, opts.fsync)) return false;
  // Rotate the generations up to the first missing one (or the oldest
  // kept) down by one, oldest first so nothing is lost mid-rotation.
  int top = 0;
  while (top < opts.keep_last - 1 &&
         ::access(generation_path(path, top).c_str(), F_OK) == 0)
    ++top;
  for (int gen = top; gen > 0; --gen)
    ::rename(generation_path(path, gen - 1).c_str(),
             generation_path(path, gen).c_str());
  return publish(tmp, path, opts.fsync);
}

std::optional<std::string> load_file(const std::string& path,
                                     std::string* error,
                                     int max_generations) {
  std::string trail;
  for (int gen = 0; gen < max_generations; ++gen) {
    const std::string candidate = generation_path(path, gen);
    std::string raw;
    if (!read_all(candidate, &raw)) {
      if (gen == 0) trail += candidate + ": unreadable; ";
      continue;
    }
    std::string why;
    if (auto payload = validate(raw, &why)) {
      if (error != nullptr) *error = trail;
      return payload;
    }
    trail += candidate + ": " + why + "; ";
  }
  if (error != nullptr) *error = trail;
  return std::nullopt;
}

bool atomic_write_file(const std::string& path, std::string_view contents,
                       bool fsync_file) {
  MAC_REQUIRE(!path.empty(), "output path must be non-empty");
  const std::string tmp = path + ".tmp";
  return write_temp(tmp, contents, fsync_file) &&
         publish(tmp, path, fsync_file);
}

}  // namespace metas::util::checkpoint
