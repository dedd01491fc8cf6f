// Checkpoint persistence tests: Encoder/Decoder roundtrips, atomic write +
// keep-last-k rotation, corruption rejection (truncation, bit flips, version
// bumps, empty files) with fallback to the previous good generation, and the
// telemetry write_snapshot failure paths now routed through the same atomic
// helper (DESIGN.md §12).
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "util/checkpoint.hpp"
#include "util/rng.hpp"
#include "util/telemetry.hpp"

namespace metas {
namespace {

namespace ck = util::checkpoint;
namespace fs = std::filesystem;

class CheckpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("ckpt_test_" + std::string(
               ::testing::UnitTest::GetInstance()->current_test_info()->name()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }
  static std::string read_raw(const std::string& p) {
    std::ifstream in(p, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), {});
  }
  static void write_raw(const std::string& p, const std::string& bytes) {
    std::ofstream out(p, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  fs::path dir_;
};

TEST_F(CheckpointTest, EncoderDecoderRoundtrip) {
  ck::Encoder enc;
  enc.u8(7);
  enc.b(true);
  enc.b(false);
  enc.u32(0xdeadbeefU);
  enc.u64(0x0123456789abcdefULL);
  enc.i32(-42);
  enc.i64(-(1LL << 40));
  enc.f64(3.14159);
  enc.f64(-0.0);
  enc.str("hello checkpoint");
  enc.str("");
  std::vector<int> xs = {3, 1, 4, 1, 5};
  enc(xs);
  // Unordered containers go out as a count plus entries in key order.
  const std::unordered_map<std::uint64_t, int> m = {{9, -1}, {2, 5}, {7, 0}};
  enc(m);

  ck::Decoder dec(enc.data());
  EXPECT_EQ(dec.u8(), 7);
  EXPECT_TRUE(dec.b());
  EXPECT_FALSE(dec.b());
  EXPECT_EQ(dec.u32(), 0xdeadbeefU);
  EXPECT_EQ(dec.u64(), 0x0123456789abcdefULL);
  EXPECT_EQ(dec.i32(), -42);
  EXPECT_EQ(dec.i64(), -(1LL << 40));
  EXPECT_DOUBLE_EQ(dec.f64(), 3.14159);
  EXPECT_TRUE(std::signbit(dec.f64()));
  EXPECT_EQ(dec.str(), "hello checkpoint");
  EXPECT_EQ(dec.str(), "");
  std::vector<int> ys;
  dec(ys);
  EXPECT_EQ(ys, xs);
  EXPECT_EQ(dec.u64(), 3u);
  for (std::uint64_t key : {2u, 7u, 9u}) {
    EXPECT_EQ(dec.u64(), key);
    EXPECT_EQ(dec.i32(), m.at(key));
  }
  EXPECT_TRUE(dec.done());
  EXPECT_EQ(dec.remaining(), 0u);
}

TEST_F(CheckpointTest, DecoderThrowsPastTheEnd) {
  ck::Encoder enc;
  enc.u32(5);
  ck::Decoder dec(enc.data());
  EXPECT_EQ(dec.u32(), 5u);
  EXPECT_THROW(dec.u32(), ck::CheckpointError);
}

TEST_F(CheckpointTest, DecoderThrowsOnLyingStringLength) {
  ck::Encoder enc;
  enc.u64(1000);  // claims 1000 bytes follow; none do
  ck::Decoder dec(enc.data());
  EXPECT_THROW(dec.str(), ck::CheckpointError);
  // Container counts share the bound: no allocation is sized by a lie.
  ck::Decoder counted(enc.data());
  std::vector<bool> flags;
  EXPECT_THROW(counted(flags), ck::CheckpointError);
}

TEST_F(CheckpointTest, WriteLoadRoundtrip) {
  const std::string p = path("snap");
  ASSERT_TRUE(ck::write_file(p, "payload bytes"));
  std::string err;
  auto got = ck::load_file(p, &err);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, "payload bytes");
  EXPECT_TRUE(err.empty()) << err;
}

TEST_F(CheckpointTest, MissingFileFailsWithDiagnostic) {
  std::string err;
  EXPECT_FALSE(ck::load_file(path("absent"), &err).has_value());
  EXPECT_NE(err.find("unreadable"), std::string::npos) << err;
}

TEST_F(CheckpointTest, UnwritableDirectoryFailsWithoutPartialFile) {
  const std::string p = path("no_such_dir") + "/snap";
  EXPECT_FALSE(ck::write_file(p, "payload"));
  EXPECT_FALSE(fs::exists(p));
  EXPECT_FALSE(fs::exists(p + ".tmp"));
}

TEST_F(CheckpointTest, RotationKeepsLastK) {
  const std::string p = path("snap");
  ck::WriteOptions wo;
  wo.keep_last = 3;
  wo.fsync = false;
  for (int k = 0; k < 5; ++k)
    ASSERT_TRUE(ck::write_file(p, "gen " + std::to_string(k), wo));
  // Newest first: snap = gen 4, snap.1 = gen 3, snap.2 = gen 2; gen 0/1 gone.
  EXPECT_EQ(*ck::load_file(p), "gen 4");
  EXPECT_EQ(*ck::load_file(p + ".1"), "gen 3");
  EXPECT_EQ(*ck::load_file(p + ".2"), "gen 2");
  EXPECT_FALSE(fs::exists(p + ".3"));
}

// Rotation moves the generations from `path` up to the first missing one,
// so a write costs only the generations on disk, however large keep_last
// is; a stale generation past a gap stays where it is.
TEST_F(CheckpointTest, RotationStopsAtTheFirstMissingGeneration) {
  const std::string p = path("snap");
  ck::WriteOptions wo;
  wo.keep_last = 10;
  wo.fsync = false;
  ASSERT_TRUE(ck::write_file(p, "old", wo));
  ASSERT_TRUE(ck::write_file(p, "new", wo));
  ASSERT_TRUE(ck::write_file(p + ".5", "stale", wo));
  ASSERT_TRUE(ck::write_file(p, "newest", wo));
  EXPECT_EQ(ck::load_file(p, nullptr, 1), "newest");
  EXPECT_EQ(ck::load_file(p + ".1", nullptr, 1), "new");
  EXPECT_EQ(ck::load_file(p + ".2", nullptr, 1), "old");
  EXPECT_EQ(ck::load_file(p + ".5", nullptr, 1), "stale");
  EXPECT_FALSE(fs::exists(p + ".3"));
  EXPECT_FALSE(fs::exists(p + ".6"));
}

// The new generation is written before any old one rotates, so a write
// that fails -- here the temp file's name is taken by a directory -- leaves
// every generation where it was, and repeated failures never push the
// newest good one out of load_file's reach.
TEST_F(CheckpointTest, FailedWriteMovesNoGeneration) {
  const std::string p = path("c");
  auto generations = [&] {
    std::map<std::string, std::string> files;
    for (const auto& entry : fs::directory_iterator(dir_))
      if (entry.is_regular_file())
        files[entry.path().filename().string()] = read_raw(entry.path());
    return files;
  };
  ck::WriteOptions wo;
  wo.keep_last = 3;
  wo.fsync = false;
  for (const char* gen : {"A", "B", "C"})
    ASSERT_TRUE(ck::write_file(p, gen, wo));
  const auto before = generations();
  ASSERT_EQ(before.size(), 3u);
  fs::create_directory(p + ".tmp");
  EXPECT_FALSE(ck::write_file(p, "D", wo));
  EXPECT_EQ(generations(), before);
  EXPECT_EQ(ck::load_file(p, nullptr, 1), "C");
  EXPECT_EQ(ck::load_file(p + ".2", nullptr, 1), "A");

  wo.keep_last = 20;
  fs::remove(p + ".tmp");
  for (int k = 0; k < 10; ++k)
    ASSERT_TRUE(ck::write_file(p, "good " + std::to_string(k), wo));
  fs::create_directory(p + ".tmp");
  for (int k = 0; k < 8; ++k) EXPECT_FALSE(ck::write_file(p, "lost", wo));
  EXPECT_EQ(ck::load_file(p), "good 9");
}

TEST_F(CheckpointTest, TruncatedFileFallsBackToPreviousGeneration) {
  const std::string p = path("snap");
  ck::WriteOptions wo;
  wo.fsync = false;
  ASSERT_TRUE(ck::write_file(p, "good old payload", wo));
  ASSERT_TRUE(ck::write_file(p, "newer payload", wo));
  const std::string raw = read_raw(p);
  write_raw(p, raw.substr(0, raw.size() / 2));  // torn newest generation

  std::string err;
  auto got = ck::load_file(p, &err);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, "good old payload");
  EXPECT_NE(err.find("truncated header"), std::string::npos) << err;
}

TEST_F(CheckpointTest, SingleBitFlipIsRejected) {
  const std::string p = path("snap");
  ck::WriteOptions wo;
  wo.fsync = false;
  ASSERT_TRUE(ck::write_file(p, "previous good", wo));
  ASSERT_TRUE(ck::write_file(p, "bitrot victim", wo));
  std::string raw = read_raw(p);
  raw[raw.size() - 3] = static_cast<char>(raw[raw.size() - 3] ^ 0x10);
  write_raw(p, raw);

  std::string err;
  auto got = ck::load_file(p, &err);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, "previous good");
  EXPECT_NE(err.find("checksum mismatch"), std::string::npos) << err;
}

TEST_F(CheckpointTest, VersionBumpIsRejected) {
  const std::string p = path("snap");
  ck::WriteOptions wo;
  wo.fsync = false;
  ASSERT_TRUE(ck::write_file(p, "payload", wo));
  std::string raw = read_raw(p);
  raw[4] = static_cast<char>(raw[4] + 1);  // version field (after magic)

  const std::string lone = path("lone");
  write_raw(lone, raw);
  std::string err;
  EXPECT_FALSE(ck::load_file(lone, &err).has_value());
  EXPECT_NE(err.find("version mismatch"), std::string::npos) << err;
}

TEST_F(CheckpointTest, EmptyFileAndGarbageAreRejected) {
  const std::string p = path("snap");
  write_raw(p, "");
  std::string err;
  EXPECT_FALSE(ck::load_file(p, &err).has_value());
  EXPECT_NE(err.find("truncated header"), std::string::npos) << err;

  write_raw(p, std::string(64, 'x'));
  EXPECT_FALSE(ck::load_file(p, &err).has_value());
  EXPECT_NE(err.find("bad magic"), std::string::npos) << err;
}

TEST_F(CheckpointTest, AtomicWriteFilePublishesAllOrNothing) {
  const std::string p = path("out.csv");
  ASSERT_TRUE(ck::atomic_write_file(p, "a,b\n1,2\n"));
  EXPECT_EQ(read_raw(p), "a,b\n1,2\n");
  EXPECT_FALSE(fs::exists(p + ".tmp"));

  const std::string bad = path("missing_dir") + "/out.csv";
  EXPECT_FALSE(ck::atomic_write_file(bad, "data"));
  EXPECT_FALSE(fs::exists(bad));
  EXPECT_FALSE(fs::exists(bad + ".tmp"));
}

TEST_F(CheckpointTest, ChecksumIsStable) {
  // Pinned outputs of the word-granularity FNV variant: any change to the
  // checksum function is an on-disk format change and must bump
  // kFormatVersion.  (These are self-consistency pins, not published FNV
  // vectors -- the word walk and length mix make the function its own.)
  EXPECT_EQ(ck::checksum64(""), 0xaf63bd4c8601b7dfULL);
  EXPECT_EQ(ck::checksum64("a"), 0x089be307b544f397ULL);
  EXPECT_EQ(ck::checksum64("checkpoint"), 0x096f021949f708faULL);
  // Trailing zero bytes must not collide with the shorter payload (the tail
  // word is zero-padded; the length mix restores the distinction).
  EXPECT_NE(ck::checksum64(std::string("ab")),
            ck::checksum64(std::string("ab\0\0", 4)));
}

TEST_F(CheckpointTest, RngStateRoundtripContinuesStream) {
  util::Rng a(1234);
  for (int k = 0; k < 100; ++k) (void)a.uniform();
  const std::string state = a.save_state();
  std::vector<double> expect;
  for (int k = 0; k < 50; ++k) expect.push_back(a.uniform());

  util::Rng b(999);  // different seed: state restore must fully overwrite
  b.restore_state(state);
  for (int k = 0; k < 50; ++k) EXPECT_EQ(b.uniform(), expect[static_cast<std::size_t>(k)]);

  util::Rng c(0);
  EXPECT_THROW(c.restore_state("not an engine state"), std::invalid_argument);
  // Read from a payload, the same state is a CheckpointError.
  ck::Encoder enc;
  enc.str("not an engine state");
  ck::Decoder dec(enc.data());
  EXPECT_THROW(dec(c), ck::CheckpointError);
}

TEST_F(CheckpointTest, TelemetrySnapshotUnwritableDirReturnsFalse) {
  const std::string p = path("no_dir") + "/snap.json";
  EXPECT_FALSE(util::telemetry::write_snapshot(
      p, util::telemetry::Format::kJson));
  EXPECT_FALSE(fs::exists(p));
  EXPECT_FALSE(fs::exists(p + ".tmp"));
}

TEST_F(CheckpointTest, TelemetrySnapshotWritesWholeFileAtomically) {
  const std::string p = path("snap.csv");
  ASSERT_TRUE(util::telemetry::write_snapshot(
      p, util::telemetry::Format::kCsv));
  EXPECT_TRUE(fs::exists(p));
  EXPECT_FALSE(fs::exists(p + ".tmp"));
  const std::string body = read_raw(p);
  EXPECT_NE(body.find("kind,name"), std::string::npos);
}

}  // namespace
}  // namespace metas
