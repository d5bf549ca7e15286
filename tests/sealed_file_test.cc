// Tests for the shared sealed-file envelope (common/sealed_file.h) that
// both the checkpoint store and the serve frame format write through:
// round trip, the size → checksum → magic verification order (every strict
// prefix and every single-byte flip is InvalidArgument, never trusted),
// IOError for unreadable files, and atomic writes that never leave a
// `.tmp` behind.
#include "common/sealed_file.h"

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace dwm {
namespace {

namespace fs = std::filesystem;

constexpr std::string_view kMagic = "TESTSEAL";

std::string TestDir(const std::string& leaf) {
  const fs::path dir = fs::path(::testing::TempDir()) / ("dwm_sealed_" + leaf);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

std::vector<uint8_t> ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void WriteAll(const std::string& path, const std::vector<uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good());
}

const std::vector<uint8_t> kBody = {1, 2, 3, 5, 8, 13, 21, 34, 55, 89};

TEST(Fnv1aTest, MatchesReferenceVectorsAndChains) {
  // The published FNV-1a test vectors, from the published offset basis.
  constexpr uint64_t kPublishedBasis = 0xcbf29ce484222325ULL;
  EXPECT_EQ(Fnv1a(kPublishedBasis, "a", 1), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(Fnv1a(kPublishedBasis, "foobar", 6), 0x85944171f73967e8ULL);
  // Every sealed file and partition on disk was hashed from this basis.
  EXPECT_EQ(kFnv1aOffset, 1469598103934665603ULL);
  EXPECT_EQ(Fnv1a(kFnv1aOffset, "", 0), kFnv1aOffset);
  // Hashing in pieces equals hashing the concatenation.
  EXPECT_EQ(Fnv1a(Fnv1a(kFnv1aOffset, "foo", 3), "bar", 3),
            Fnv1a(kFnv1aOffset, "foobar", 6));
}

TEST(SealedFileTest, RoundTripWritesMagicBodyChecksum) {
  const std::string path = TestDir("roundtrip") + "/f.sealed";
  ASSERT_TRUE(WriteSealedFile(path, kMagic, kBody).ok());

  std::vector<uint8_t> expected(kMagic.begin(), kMagic.end());
  expected.insert(expected.end(), kBody.begin(), kBody.end());
  const uint64_t checksum =
      Fnv1a(kFnv1aOffset, expected.data(), expected.size());
  const auto* trailer = reinterpret_cast<const uint8_t*>(&checksum);
  expected.insert(expected.end(), trailer, trailer + sizeof(checksum));
  EXPECT_EQ(ReadAll(path), expected);

  std::vector<uint8_t> bytes;
  std::span<const uint8_t> body;
  ASSERT_TRUE(ReadSealedFile(path, kMagic, &bytes, &body).ok());
  EXPECT_EQ(std::vector<uint8_t>(body.begin(), body.end()), kBody);
  // The body is a view into the caller's buffer, not a copy.
  EXPECT_EQ(body.data(), bytes.data() + kMagic.size());
  EXPECT_FALSE(fs::exists(path + ".tmp"));
}

TEST(SealedFileTest, EmptyBodyRoundTrips) {
  const std::string path = TestDir("empty") + "/f.sealed";
  ASSERT_TRUE(WriteSealedFile(path, kMagic, {}).ok());
  std::vector<uint8_t> bytes;
  std::span<const uint8_t> body;
  ASSERT_TRUE(ReadSealedFile(path, kMagic, &bytes, &body).ok());
  EXPECT_TRUE(body.empty());
}

TEST(SealedFileTest, EveryStrictPrefixIsInvalidArgument) {
  const std::string dir = TestDir("prefix");
  const std::string path = dir + "/f.sealed";
  ASSERT_TRUE(WriteSealedFile(path, kMagic, kBody).ok());
  const std::vector<uint8_t> whole = ReadAll(path);
  const std::string cut = dir + "/cut.sealed";
  for (size_t keep = 0; keep < whole.size(); ++keep) {
    WriteAll(cut, {whole.begin(), whole.begin() + static_cast<long>(keep)});
    std::vector<uint8_t> bytes;
    std::span<const uint8_t> body;
    EXPECT_EQ(ReadSealedFile(cut, kMagic, &bytes, &body).code(),
              StatusCode::kInvalidArgument)
        << "keep=" << keep;
  }
}

TEST(SealedFileTest, EveryByteFlipIsInvalidArgument) {
  const std::string dir = TestDir("flip");
  const std::string path = dir + "/f.sealed";
  ASSERT_TRUE(WriteSealedFile(path, kMagic, kBody).ok());
  const std::vector<uint8_t> whole = ReadAll(path);
  const std::string bad = dir + "/bad.sealed";
  for (size_t i = 0; i < whole.size(); ++i) {
    std::vector<uint8_t> flipped = whole;
    flipped[i] ^= 0x01;
    WriteAll(bad, flipped);
    std::vector<uint8_t> bytes;
    std::span<const uint8_t> body;
    EXPECT_EQ(ReadSealedFile(bad, kMagic, &bytes, &body).code(),
              StatusCode::kInvalidArgument)
        << "byte " << i;
  }
}

TEST(SealedFileTest, WrongMagicIsInvalidArgumentButKeepsTheBytes) {
  const std::string path = TestDir("magic") + "/f.sealed";
  ASSERT_TRUE(WriteSealedFile(path, "OTHERFMT", kBody).ok());
  std::vector<uint8_t> bytes;
  std::span<const uint8_t> body;
  const Status status = ReadSealedFile(path, kMagic, &bytes, &body);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("magic"), std::string::npos);
  // The checksum passed, so this is the magic gate, and the raw bytes stay
  // available for a caller that sniffs other formats.
  EXPECT_EQ(bytes, ReadAll(path));
}

TEST(SealedFileTest, MissingFileIsIOError) {
  std::vector<uint8_t> bytes;
  std::span<const uint8_t> body;
  EXPECT_EQ(ReadSealedFile(TestDir("missing") + "/nope", kMagic, &bytes, &body)
                .code(),
            StatusCode::kIOError);
}

TEST(SealedFileTest, FailedRenameIsIOErrorAndLeavesNoTmp) {
  const std::string dir = TestDir("rename");
  // A directory squats on the final name, so the rename must fail.
  const std::string path = dir + "/f.sealed";
  fs::create_directories(fs::path(path) / "occupied");
  const Status status = WriteSealedFile(path, kMagic, kBody);
  EXPECT_EQ(status.code(), StatusCode::kIOError);
  EXPECT_FALSE(fs::exists(path + ".tmp"));
  EXPECT_TRUE(fs::is_directory(path));
}

TEST(SealedFileTest, UnwritableDirectoryIsIOError) {
  const std::string path = TestDir("nodir") + "/missing/f.sealed";
  EXPECT_EQ(WriteSealedFile(path, kMagic, kBody).code(), StatusCode::kIOError);
}

}  // namespace
}  // namespace dwm
