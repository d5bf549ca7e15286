#include "common/sealed_file.h"

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <system_error>

namespace dwm {
namespace {

constexpr size_t kTrailer = sizeof(uint64_t);

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
  const uint64_t checksum =
      Fnv1a(Fnv1a(kFnv1aOffset, magic.data(), magic.size()), body.data(),
            body.size());
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
  const size_t sealed = bytes->size() - kTrailer;
  uint64_t stored = 0;
  std::memcpy(&stored, bytes->data() + sealed, kTrailer);
  if (stored != Fnv1a(kFnv1aOffset, bytes->data(), sealed)) {
    return Status::InvalidArgument("checksum mismatch in '" + path +
                                   "' (corrupt or truncated file)");
  }
  if (std::memcmp(bytes->data(), magic.data(), magic.size()) != 0) {
    return Status::InvalidArgument("'" + path + "' does not start with magic '" +
                                   std::string(magic) + "'");
  }
  *body = std::span<const uint8_t>(*bytes).subspan(
      magic.size(), sealed - magic.size());
  return Status::OK();
}

}  // namespace dwm
