#include "common/sealed_file.h"

#include <bit>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <system_error>

namespace dwm {
namespace {

constexpr size_t kTrailer = sizeof(uint64_t);

constexpr uint64_t kXxPrime1 = 0x9E3779B185EBCA87ULL;
constexpr uint64_t kXxPrime2 = 0xC2B2AE3D27D4EB4FULL;
constexpr uint64_t kXxPrime3 = 0x165667B19E3779F9ULL;
constexpr uint64_t kXxPrime4 = 0x85EBCA77C2B2AE63ULL;
constexpr uint64_t kXxPrime5 = 0x27D4EB2F165667C5ULL;

// XXH64 is defined over little-endian words.
template <typename T>
T ReadLittle(const uint8_t* p) {
  T v;
  std::memcpy(&v, p, sizeof(T));
  if constexpr (std::endian::native == std::endian::big) {
    if constexpr (sizeof(T) == 8) v = __builtin_bswap64(v);
    if constexpr (sizeof(T) == 4) v = __builtin_bswap32(v);
  }
  return v;
}

uint64_t XxRound(uint64_t acc, uint64_t input) {
  acc += input * kXxPrime2;
  return std::rotl(acc, 31) * kXxPrime1;
}

uint64_t XxMerge(uint64_t acc, uint64_t lane) {
  acc ^= XxRound(0, lane);
  return acc * kXxPrime1 + kXxPrime4;
}

}  // namespace

// Sized by the file system (which also rejects directories and other
// non-regular files), then one resize and a single fread.
Status ReadFileBytes(const std::string& path, std::vector<uint8_t>* bytes) {
  std::error_code ec;
  const uintmax_t size = std::filesystem::file_size(path, ec);
  std::FILE* f = ec ? nullptr : std::fopen(path.c_str(), "rb");
  if (f == nullptr) return Status::IOError("cannot read '" + path + "'");
  bytes->resize(static_cast<size_t>(size));
  const bool ok =
      size == 0 || std::fread(bytes->data(), 1, bytes->size(), f) == size;
  std::fclose(f);
  return ok ? Status::OK() : Status::IOError("cannot read '" + path + "'");
}

uint64_t Fnv1a(uint64_t h, const void* data, size_t len) {
  const uint8_t* bytes = static_cast<const uint8_t*>(data);
  for (size_t i = 0; i < len; ++i) {
    h ^= bytes[i];
    h *= kFnv1aPrime;
  }
  return h;
}

uint64_t Xxh64(const void* data, size_t len, uint64_t seed) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  const uint8_t* const end = p + len;
  uint64_t h;
  if (len >= 32) {
    // Four independent lanes over 32-byte stripes.
    uint64_t v1 = seed + kXxPrime1 + kXxPrime2;
    uint64_t v2 = seed + kXxPrime2;
    uint64_t v3 = seed;
    uint64_t v4 = seed - kXxPrime1;
    for (; end - p >= 32; p += 32) {
      v1 = XxRound(v1, ReadLittle<uint64_t>(p));
      v2 = XxRound(v2, ReadLittle<uint64_t>(p + 8));
      v3 = XxRound(v3, ReadLittle<uint64_t>(p + 16));
      v4 = XxRound(v4, ReadLittle<uint64_t>(p + 24));
    }
    h = std::rotl(v1, 1) + std::rotl(v2, 7) + std::rotl(v3, 12) +
        std::rotl(v4, 18);
    h = XxMerge(XxMerge(XxMerge(XxMerge(h, v1), v2), v3), v4);
  } else {
    h = seed + kXxPrime5;
  }
  h += static_cast<uint64_t>(len);
  for (; end - p >= 8; p += 8) {
    h ^= XxRound(0, ReadLittle<uint64_t>(p));
    h = std::rotl(h, 27) * kXxPrime1 + kXxPrime4;
  }
  if (end - p >= 4) {
    h ^= uint64_t{ReadLittle<uint32_t>(p)} * kXxPrime1;
    h = std::rotl(h, 23) * kXxPrime2 + kXxPrime3;
    p += 4;
  }
  for (; p < end; ++p) {
    h ^= uint64_t{*p} * kXxPrime5;
    h = std::rotl(h, 11) * kXxPrime1;
  }
  // Avalanche.
  h ^= h >> 33;
  h *= kXxPrime2;
  h ^= h >> 29;
  h *= kXxPrime3;
  h ^= h >> 32;
  return h;
}

uint64_t SealChecksum(std::string_view magic, std::span<const uint8_t> body) {
  return Xxh64(body.data(), body.size(), Xxh64(magic.data(), magic.size()));
}

Status WriteFileAtomic(const std::string& path,
                       std::initializer_list<std::span<const uint8_t>> parts) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    return Status::IOError("cannot open '" + tmp + "' for writing");
  }
  bool wrote = true;
  for (const std::span<const uint8_t> part : parts) {
    // fwrite's buffer must be non-null, and an empty part may have none.
    wrote = wrote && (part.empty() || std::fwrite(part.data(), 1, part.size(),
                                                  f) == part.size());
  }
  const bool closed = std::fclose(f) == 0;
  std::error_code ec;
  if (wrote && closed) std::filesystem::rename(tmp, path, ec);
  if (!wrote || !closed || ec) {
    std::error_code cleanup;
    std::filesystem::remove(tmp, cleanup);
    return Status::IOError(ec ? "cannot rename '" + tmp + "' to '" + path +
                                    "': " + ec.message()
                              : "short write to '" + tmp + "'");
  }
  return Status::OK();
}

Status WriteSealedFile(const std::string& path, std::string_view magic,
                       std::span<const uint8_t> body) {
  const uint64_t checksum = SealChecksum(magic, body);
  const auto* magic_bytes = reinterpret_cast<const uint8_t*>(magic.data());
  const auto* checksum_bytes = reinterpret_cast<const uint8_t*>(&checksum);
  return WriteFileAtomic(path, {{magic_bytes, magic.size()},
                                body,
                                {checksum_bytes, kTrailer}});
}

Status ReadSealedFile(const std::string& path, std::string_view magic,
                      std::vector<uint8_t>* bytes,
                      std::span<const uint8_t>* body) {
  DWM_RETURN_NOT_OK(ReadFileBytes(path, bytes));
  if (bytes->size() < magic.size() + kTrailer) {
    return Status::InvalidArgument("truncated sealed file '" + path + "'");
  }
  // The magic first: a file of another format is named as such, not
  // reported as a damaged one.
  if (std::memcmp(bytes->data(), magic.data(), magic.size()) != 0) {
    return Status::InvalidArgument("'" + path + "' does not start with magic '" +
                                   std::string(magic) + "'");
  }
  const size_t sealed = bytes->size() - kTrailer;
  const std::span<const uint8_t> payload =
      std::span<const uint8_t>(*bytes).subspan(magic.size(),
                                               sealed - magic.size());
  uint64_t stored = 0;
  std::memcpy(&stored, bytes->data() + sealed, kTrailer);
  if (stored != SealChecksum(magic, payload)) {
    return Status::InvalidArgument("checksum mismatch in '" + path +
                                   "' (corrupt or truncated file)");
  }
  *body = payload;
  return Status::OK();
}

}  // namespace dwm
