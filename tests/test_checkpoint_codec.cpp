// Checkpoint codec tests.  (1) CRC32C known answers (RFC 3720 §B.4 and
// "123456789"), through crc32c and through the table loop: the writer and
// the loader share crc32c, so round trips alone would pass a wrong
// polynomial.  (2) The hardware path agrees with the table loop at every
// length and alignment.  (3) A deterministic decoder fuzz: every byte
// flip, truncation and short append is rejected, and CRC-valid header
// mutations never crash and never yield a payload view outside the file.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <numeric>
#include <string>
#include <vector>

#include "resilience/checkpoint.hpp"
#include "support/rng.hpp"

namespace pochoir::resilience {
namespace {

namespace fs = std::filesystem;

std::uint32_t crc_of(const std::vector<unsigned char>& v) {
  return crc32c(0, v.data(), v.size());
}

std::uint32_t table_crc_of(const std::vector<unsigned char>& v) {
  return detail::crc32c_software(0, v.data(), v.size());
}

TEST(Crc32c, KnownAnswers) {
  std::vector<unsigned char> ascending(32);
  std::iota(ascending.begin(), ascending.end(), 0);
  const std::vector<unsigned char> descending(ascending.rbegin(),
                                              ascending.rend());
  const std::string digits = "123456789";
  const std::vector<std::pair<std::vector<unsigned char>, std::uint32_t>>
      cases = {
          {std::vector<unsigned char>(32, 0x00), 0x8A9136AAu},
          {std::vector<unsigned char>(32, 0xFF), 0x62A8AB43u},
          {ascending, 0x46DD794Eu},
          {descending, 0x113FDB5Cu},
          {std::vector<unsigned char>(digits.begin(), digits.end()),
           0xE3069283u},
      };
  for (const auto& [bytes, want] : cases) {
    EXPECT_EQ(crc_of(bytes), want) << bytes.size() << " bytes";
    EXPECT_EQ(table_crc_of(bytes), want) << bytes.size() << " bytes";
  }
  // Chaining over split buffers gives the whole buffer's CRC.
  const char* s = digits.c_str();
  EXPECT_EQ(crc32c(crc32c(0, s, 4), s + 4, 5), 0xE3069283u);
  EXPECT_EQ(detail::crc32c_software(detail::crc32c_software(0, s, 4), s + 4, 5),
            0xE3069283u);
}

TEST(Crc32c, HardwarePathMatchesTableLoop) {
  if (detail::crc32c_impl() == &detail::crc32c_software) {
    GTEST_SKIP() << "crc32c is the table loop here (the target is not "
                    "x86-64 or the CPU lacks SSE4.2): nothing to compare";
  }
  constexpr std::size_t kBig = (std::size_t{1} << 20) + 3;
  Rng rng(0xC5C32C);
  std::vector<unsigned char> buf(kBig + 8);
  for (auto& b : buf) b = static_cast<unsigned char>(rng.next_u64());
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t len = 0; len <= 1024; ++len) {
      const auto seed = static_cast<std::uint32_t>(rng.next_u64());
      const unsigned char* p = buf.data() + offset;
      ASSERT_EQ(crc32c(seed, p, len), detail::crc32c_software(seed, p, len))
          << "offset " << offset << ", length " << len;
    }
  }
  EXPECT_EQ(crc32c(0, buf.data() + 1, kBig),
            detail::crc32c_software(0, buf.data() + 1, kBig));
}

// --- decoder fuzz ----------------------------------------------------------

std::vector<unsigned char> read_file(const std::string& path) {
  std::vector<unsigned char> raw(fs::file_size(path));
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr);
  if (f == nullptr) return {};
  EXPECT_EQ(std::fread(raw.data(), 1, raw.size(), f), raw.size());
  std::fclose(f);
  return raw;
}

void write_file(const std::string& path,
                const std::vector<unsigned char>& raw) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  if (!raw.empty()) {  // an empty vector's data() may be null
    EXPECT_EQ(std::fwrite(raw.data(), 1, raw.size(), f), raw.size());
  }
  std::fclose(f);
}

/// Recomputes the CRC trailer, so only the loader's other checks can
/// reject an edit.
void reseal(std::vector<unsigned char>& raw) {
  const std::size_t body = raw.size() - sizeof(std::uint32_t);
  const std::uint32_t crc = crc32c(0, raw.data(), body);
  std::memcpy(raw.data() + body, &crc, sizeof crc);
}

/// One small generation with two arrays that differ in element size, rank
/// and level count, captured into a Snapshot and written by
/// write_checkpoint.
class CodecFuzz : public ::testing::Test {
 protected:
  // magic, version, generation, steps, count (36 bytes); per array dims,
  // elem size, levels, level size (24), extents, payload length (8).
  static constexpr std::size_t kHeader =
      36 + (24 + 2 * 8 + 8) + (24 + 3 * 8 + 8);
  static constexpr std::size_t kLength0At = 36 + 24 + 2 * 8;
  static constexpr std::size_t kLength1At = kHeader - 8;

  void SetUp() override {
    const std::string dir = ::testing::TempDir() + "pochoir_codec_fuzz";
    fs::remove_all(dir);
    fs::create_directories(dir);
    Rng rng(2024);
    doubles_.resize(2 * 13 * 7);  // 2D double 13x7, 2 levels
    floats_.resize(3 * 5 * 4 * 3);  // 3D float 5x4x3, 3 levels
    for (auto& v : doubles_) v = static_cast<double>(rng.next_u64() >> 11);
    for (auto& v : floats_) v = static_cast<float>(rng.next_u64() >> 40);
    std::vector<ArraySnapshot> arrays(2);
    arrays[0] = {2, sizeof(double), 2, 13 * 7, {13, 7},
                 reinterpret_cast<unsigned char*>(doubles_.data()),
                 doubles_.size() * sizeof(double)};
    arrays[1] = {3, sizeof(float), 3, 5 * 4 * 3, {5, 4, 3},
                 reinterpret_cast<unsigned char*>(floats_.data()),
                 floats_.size() * sizeof(float)};
    payload_ = arrays[0].bytes + arrays[1].bytes;
    const CheckpointMeta meta{7, 3, 9};
    Snapshot snap;
    snap.capture(meta, arrays);
    const WriteCheckpointResult w =
        write_checkpoint(dir + "/ck", snap, /*keep_generations=*/1);
    ASSERT_TRUE(w.ok) << w.error;
    path_ = w.file;
    original_ = read_file(path_);
    ASSERT_EQ(original_.size(), kHeader + payload_ + sizeof(std::uint32_t));
    // The bytes on disk, pinned by the CRC trailer of this fixture.  The
    // fields are stored in native byte order, so the value is a
    // little-endian file's.
    if constexpr (std::endian::native == std::endian::little) {
      std::uint32_t trailer = 0;
      std::memcpy(&trailer, original_.data() + original_.size() - 4, 4);
      EXPECT_EQ(trailer, 0x44F3BB22u);
    } else {
      RecordProperty("golden_trailer",
                     "skipped: the value is a little-endian file's");
    }
    Snapshot loaded;
    ASSERT_TRUE(load_checkpoint_file(path_, loaded));
    ASSERT_EQ(loaded.arrays.size(), 2u);
    EXPECT_EQ(std::memcmp(loaded.arrays[0].data, doubles_.data(),
                          arrays[0].bytes), 0);
    EXPECT_EQ(std::memcmp(loaded.arrays[1].data, floats_.data(),
                          arrays[1].bytes), 0);
  }

  /// Writes `raw` over the generation and loads it back into `loaded_`.
  bool load(const std::vector<unsigned char>& raw) {
    write_file(path_, raw);
    return load_checkpoint_file(path_, loaded_);
  }

  /// An accepted file must describe the original payload, inside its bytes.
  void expect_sane(const Snapshot& ck, const std::string& what) {
    const auto begin = reinterpret_cast<std::uintptr_t>(ck.raw.data());
    const auto end = begin + ck.raw.size();
    std::uint64_t sum = 0;
    for (const ArraySnapshot& a : ck.arrays) {
      const auto at = reinterpret_cast<std::uintptr_t>(a.data);
      EXPECT_TRUE(at >= begin && at <= end && a.bytes <= end - at) << what;
      sum += a.bytes;
    }
    EXPECT_EQ(sum, payload_) << what;
    EXPECT_TRUE(ck.meta.steps_done >= 0 &&
                ck.meta.steps_done <= ck.meta.steps_target)
        << what;
  }

  std::vector<double> doubles_;
  std::vector<float> floats_;
  std::string path_;
  std::vector<unsigned char> original_;
  std::uint64_t payload_ = 0;
  Snapshot loaded_;
};

TEST_F(CodecFuzz, EveryByteFlipIsRejected) {
  Rng rng(11);
  for (std::size_t at = 0; at < original_.size(); ++at) {
    std::vector<unsigned char> raw = original_;
    raw[at] ^= static_cast<unsigned char>(1 + rng.next_below(255));
    ASSERT_FALSE(load(raw)) << "flip at byte " << at;
  }
}

TEST_F(CodecFuzz, EveryTruncationAndAppendIsRejected) {
  for (std::size_t len = 0; len < original_.size(); ++len) {
    const std::vector<unsigned char> raw(original_.begin(),
                                         original_.begin() + len);
    ASSERT_FALSE(load(raw)) << "truncated to " << len;
  }
  Rng rng(12);
  for (std::size_t extra = 1; extra <= 16; ++extra) {
    std::vector<unsigned char> raw = original_;
    for (std::size_t i = 0; i < extra; ++i) {
      raw.push_back(static_cast<unsigned char>(rng.next_u64()));
    }
    ASSERT_FALSE(load(raw)) << extra << " bytes appended";
  }
}

TEST_F(CodecFuzz, PayloadLengthsThatWrapToTheFileSizeAreRejected) {
  // The first length, 2^64 - 17, wraps the read position back 17 bytes, and
  // the second brings it to the end of the payload: a bound written as
  // pos + n > size accepts both, with a view far outside the file.
  std::vector<unsigned char> raw = original_;
  const std::uint64_t first = ~std::uint64_t{0} - 16;
  const std::uint64_t second = payload_ + 17;
  std::memcpy(raw.data() + kLength0At, &first, sizeof first);
  std::memcpy(raw.data() + kLength1At, &second, sizeof second);
  reseal(raw);
  EXPECT_FALSE(load(raw));
}

TEST_F(CodecFuzz, CrcValidHeaderMutationsNeverEscapeTheFile) {
  constexpr std::array<std::uint64_t, 10> kEdges = {
      0, 1, 16, 17, 4096, 4097, (std::uint64_t{1} << 63) - 1,
      std::uint64_t{1} << 63, ~std::uint64_t{0} - 16, ~std::uint64_t{0}};
  Rng rng(13);
  const auto below = [&](std::size_t n) {
    const auto pick = rng.next_below(static_cast<std::int64_t>(n));
    return static_cast<std::size_t>(pick);
  };
  int accepted = 0;
  for (int trial = 0; trial < 20000; ++trial) {
    std::vector<unsigned char> raw = original_;
    const std::size_t width = below(2) == 0 ? 4 : 8;
    const std::size_t at = below(kHeader - width + 1);
    const std::uint64_t value =
        below(2) == 0 ? kEdges[below(kEdges.size())] : rng.next_u64();
    // On a little-endian host a 4-byte write takes the value's low half.
    std::memcpy(raw.data() + at, &value, width);
    reseal(raw);
    if (load(raw)) {
      ++accepted;
      expect_sane(loaded_, "trial " + std::to_string(trial) + ": " +
                           std::to_string(width) + " bytes at " +
                           std::to_string(at));
    }
  }
  // Both outcomes occur: edits to the generation, the step counts within
  // bounds and the layout values (which restore checks against the
  // registered arrays) load; structural edits do not.
  EXPECT_GT(accepted, 0);
  EXPECT_LT(accepted, 20000);
}

}  // namespace
}  // namespace pochoir::resilience
