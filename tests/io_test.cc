#include "data/io.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/sealed_file.h"
#include "data/generators.h"
#include "serve/format.h"
#include "test_util.h"
#include "wavelet/synopsis.h"

namespace dwm {
namespace {

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

TEST(IoTest, BinaryRoundtrip) {
  const auto data = MakeUniform(1000, 100.0, 1);
  const std::string path = TempPath("dwm_io_test.bin");
  ASSERT_TRUE(WriteDoublesBinary(path, data).ok());
  std::vector<double> back;
  ASSERT_TRUE(ReadDoublesBinary(path, &back).ok());
  EXPECT_EQ(back, data);
  std::remove(path.c_str());
}

TEST(IoTest, BinaryEmpty) {
  const std::string path = TempPath("dwm_io_empty.bin");
  ASSERT_TRUE(WriteDoublesBinary(path, {}).ok());
  std::vector<double> back = {1.0};
  ASSERT_TRUE(ReadDoublesBinary(path, &back).ok());
  EXPECT_TRUE(back.empty());
  std::remove(path.c_str());
}

TEST(IoTest, CsvRoundtrip) {
  const std::vector<double> data = {1.5, -2.25, 0.0, 1e17, 3.14159265358979};
  const std::string path = TempPath("dwm_io_test.csv");
  ASSERT_TRUE(WriteDoublesCsv(path, data).ok());
  std::vector<double> back;
  ASSERT_TRUE(ReadDoublesCsv(path, &back).ok());
  ASSERT_EQ(back.size(), data.size());
  for (size_t i = 0; i < data.size(); ++i) EXPECT_DOUBLE_EQ(back[i], data[i]);
  std::remove(path.c_str());
}

TEST(IoTest, ReadMissingFileFails) {
  std::vector<double> out;
  const Status s = ReadDoublesBinary("/nonexistent/dir/file.bin", &out);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kIOError);
  EXPECT_FALSE(ReadDoublesCsv("/nonexistent/dir/file.csv", &out).ok());
}

// A directory has no byte size to read: IOError, not a bad_alloc from
// sizing the buffer off a seek to its end.
TEST(IoTest, DirectoryIsIOError) {
  const std::string dir = TempPath("dwm_io_dir");
  std::filesystem::create_directories(dir);
  std::vector<double> out;
  EXPECT_EQ(ReadDoublesBinary(dir, &out).code(), StatusCode::kIOError);
  serve::SynopsisFrame frame;
  EXPECT_EQ(serve::LoadServableSynopsis(dir, &frame).code(),
            StatusCode::kIOError);
  std::filesystem::remove(dir);
}

TEST(IoTest, WriteToBadPathFails) {
  EXPECT_FALSE(WriteDoublesBinary("/nonexistent/dir/file.bin", {1.0}).ok());
  EXPECT_FALSE(WriteDoublesCsv("/nonexistent/dir/file.csv", {1.0}).ok());
}

TEST(IoTest, TruncatedBinaryFails) {
  const std::string path = TempPath("dwm_io_trunc.bin");
  ASSERT_TRUE(WriteDoublesBinary(path, MakeUniform(100, 1.0, 2)).ok());
  std::filesystem::resize_file(path, 50);
  std::vector<double> out;
  EXPECT_FALSE(ReadDoublesBinary(path, &out).ok());
  std::remove(path.c_str());
}

// The count in a raw-doubles header is file bytes: one claiming far more
// values than the file holds must be a Status, not a length_error or
// bad_alloc from sizing the vector off it.
TEST(IoTest, OversizedCountFails) {
  const std::string path = TempPath("dwm_io_huge.bin");
  for (const uint64_t n : {uint64_t{1} << 62, uint64_t{1} << 40}) {
    std::vector<uint8_t> header;
    testing::AppendRaw(&header, &n, sizeof(n));
    ASSERT_TRUE(testing::WriteBytes(path, header));
    std::vector<double> out = {7.0};
    const Status s = ReadDoublesBinary(path, &out);
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << n;
    EXPECT_EQ(out, std::vector<double>{7.0});  // untouched on failure
  }
  std::remove(path.c_str());
}

TEST(IoTest, ShortHeaderFails) {
  const std::string path = TempPath("dwm_io_short.bin");
  ASSERT_TRUE(testing::WriteBytes(path, {1, 0, 0}));
  std::vector<double> out;
  EXPECT_EQ(ReadDoublesBinary(path, &out).code(),
            StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(IoTest, TrailingBytesFail) {
  const std::string path = TempPath("dwm_io_trailing.bin");
  ASSERT_TRUE(WriteDoublesBinary(path, {1.0, 2.0}).ok());
  std::vector<uint8_t> bytes = testing::ReadAll(path);
  bytes.push_back(0);
  ASSERT_TRUE(testing::WriteBytes(path, bytes));
  std::vector<double> out;
  EXPECT_EQ(ReadDoublesBinary(path, &out).code(),
            StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

// Legacy DWMSYN01 files (the format dwm_cli wrote before serve frames)
// stay readable through LoadServableSynopsis's legacy branch.
TEST(SynopsisIoTest, Roundtrip) {
  const Synopsis s(64, {{0, 7.5}, {3, -2.25}, {63, 1e-12}});
  const std::string path = TempPath("dwm_synopsis.bin");
  ASSERT_TRUE(testing::WriteBytes(path, testing::LegacySynopsisBytes(s)));
  serve::SynopsisFrame back;
  ASSERT_TRUE(serve::LoadServableSynopsis(path, &back).ok());
  EXPECT_EQ(back.synopsis.domain_size(), 64);
  EXPECT_EQ(back.synopsis.coefficients(), s.coefficients());
  EXPECT_TRUE(back.dataset.empty());
  EXPECT_TRUE(back.algo.empty());
  EXPECT_EQ(back.budget, 3);
  std::remove(path.c_str());
}

TEST(SynopsisIoTest, EmptySynopsis) {
  const Synopsis s(8, {});
  const std::string path = TempPath("dwm_synopsis_empty.bin");
  ASSERT_TRUE(testing::WriteBytes(path, testing::LegacySynopsisBytes(s)));
  serve::SynopsisFrame back;
  ASSERT_TRUE(serve::LoadServableSynopsis(path, &back).ok());
  EXPECT_EQ(back.synopsis.domain_size(), 8);
  EXPECT_EQ(back.synopsis.size(), 0);
  std::remove(path.c_str());
}

TEST(SynopsisIoTest, RejectsWrongMagic) {
  const std::string path = TempPath("dwm_synopsis_bad.bin");
  ASSERT_TRUE(WriteDoublesBinary(path, {1.0, 2.0, 3.0}).ok());
  serve::SynopsisFrame back;
  const Status s = serve::LoadServableSynopsis(path, &back);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(SynopsisIoTest, TruncatedPayloadFails) {
  const Synopsis s(64, {{1, 1.0}, {2, 2.0}, {3, 3.0}});
  const std::string path = TempPath("dwm_synopsis_trunc.bin");
  std::vector<uint8_t> bytes = testing::LegacySynopsisBytes(s);
  bytes.resize(40);
  ASSERT_TRUE(testing::WriteBytes(path, bytes));
  serve::SynopsisFrame back;
  EXPECT_FALSE(serve::LoadServableSynopsis(path, &back).ok());
  std::remove(path.c_str());
}

// Pins the three binary file layouts against bytes built field by field
// with memcpy (not through Serde): what the writers produce must equal
// them, and the readers must accept them.
TEST(FileBytesTest, WritersAndReadersMatchHandBuiltBytes) {
  const Synopsis synopsis(16, {{0, 7.5}, {5, -2.25}, {15, 1e-3}});
  const std::vector<double> values = {1.5, -2.0, 0.0, 1e17};
  using testing::AppendRaw;

  // The Serde<Synopsis> layout: int64 domain | uint64 count | pairs.
  std::vector<uint8_t> synopsis_bytes;
  const int64_t domain = 16;
  const uint64_t count = 3;
  AppendRaw(&synopsis_bytes, &domain, 8);
  AppendRaw(&synopsis_bytes, &count, 8);
  for (const Coefficient& c : synopsis.coefficients()) {
    AppendRaw(&synopsis_bytes, &c.index, 8);
    AppendRaw(&synopsis_bytes, &c.value, 8);
  }

  // DWMSRV01: magic | uint32 version | uint32-prefixed dataset and algo |
  // int64 budget | synopsis | FNV-1a of everything before it.
  std::vector<uint8_t> frame_bytes;
  AppendRaw(&frame_bytes, "DWMSRV01", 8);
  const uint32_t version = 1;
  const uint32_t dataset_len = 4;
  const uint32_t algo_len = 2;
  const int64_t budget = 3;
  AppendRaw(&frame_bytes, &version, 4);
  AppendRaw(&frame_bytes, &dataset_len, 4);
  AppendRaw(&frame_bytes, "zipf", 4);
  AppendRaw(&frame_bytes, &algo_len, 4);
  AppendRaw(&frame_bytes, "ga", 2);
  AppendRaw(&frame_bytes, &budget, 8);
  AppendRaw(&frame_bytes, synopsis_bytes.data(), synopsis_bytes.size());
  const uint64_t checksum =
      Fnv1a(kFnv1aOffset, frame_bytes.data(), frame_bytes.size());
  AppendRaw(&frame_bytes, &checksum, 8);

  serve::SynopsisFrame frame;
  frame.dataset = "zipf";
  frame.algo = "ga";
  frame.budget = 3;
  frame.synopsis = synopsis;
  const std::string frame_path = TempPath("dwm_pinned.dwms");
  ASSERT_TRUE(serve::SaveSynopsisFrame(frame_path, frame).ok());
  EXPECT_EQ(testing::ReadAll(frame_path), frame_bytes);
  ASSERT_TRUE(testing::WriteBytes(frame_path, frame_bytes));
  serve::SynopsisFrame loaded;
  ASSERT_TRUE(serve::LoadSynopsisFrame(frame_path, &loaded).ok());
  EXPECT_EQ(loaded.dataset, "zipf");
  EXPECT_EQ(loaded.algo, "ga");
  EXPECT_EQ(loaded.budget, 3);
  EXPECT_EQ(loaded.synopsis.domain_size(), 16);
  EXPECT_EQ(loaded.synopsis.coefficients(), synopsis.coefficients());
  std::remove(frame_path.c_str());

  // DWMSYN01 (read-only): the 64-bit magic, then the same synopsis bytes.
  std::vector<uint8_t> legacy_bytes;
  AppendRaw(&legacy_bytes, "10NYSMWD", 8);  // 0x44574d53594e3031, LE
  AppendRaw(&legacy_bytes, synopsis_bytes.data(), synopsis_bytes.size());
  EXPECT_EQ(testing::LegacySynopsisBytes(synopsis), legacy_bytes);
  const std::string legacy_path = TempPath("dwm_pinned.dwm");
  ASSERT_TRUE(testing::WriteBytes(legacy_path, legacy_bytes));
  ASSERT_TRUE(serve::LoadServableSynopsis(legacy_path, &loaded).ok());
  EXPECT_TRUE(loaded.dataset.empty());
  EXPECT_EQ(loaded.budget, 3);
  EXPECT_EQ(loaded.synopsis.coefficients(), synopsis.coefficients());
  std::remove(legacy_path.c_str());

  // Raw doubles: uint64 count | the doubles.
  std::vector<uint8_t> doubles_bytes;
  const uint64_t n = values.size();
  AppendRaw(&doubles_bytes, &n, 8);
  AppendRaw(&doubles_bytes, values.data(), values.size() * sizeof(double));
  const std::string doubles_path = TempPath("dwm_pinned.bin");
  ASSERT_TRUE(WriteDoublesBinary(doubles_path, values).ok());
  EXPECT_EQ(testing::ReadAll(doubles_path), doubles_bytes);
  ASSERT_TRUE(testing::WriteBytes(doubles_path, doubles_bytes));
  std::vector<double> back;
  ASSERT_TRUE(ReadDoublesBinary(doubles_path, &back).ok());
  EXPECT_EQ(back, values);
  std::remove(doubles_path.c_str());
}

TEST(IoTest, UnparsableCsvFails) {
  const std::string path = TempPath("dwm_io_bad.csv");
  {
    std::ofstream out(path);
    out << "1.5\nnot-a-number-###\n";
  }
  std::vector<double> out_vec;
  EXPECT_FALSE(ReadDoublesCsv(path, &out_vec).ok());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace dwm
