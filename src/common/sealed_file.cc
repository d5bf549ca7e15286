#include "common/sealed_file.h"

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <system_error>

namespace dwm {
namespace {

constexpr size_t kTrailer = sizeof(uint64_t);

// Reads the whole file; false on open/read failure. Size is bounded by
// what the writer produced, so a single resize + fread is fine.
bool ReadFileBytes(const std::string& path, std::vector<uint8_t>* bytes) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  bool ok = std::fseek(f, 0, SEEK_END) == 0;
  long size = 0;
  if (ok) {
    size = std::ftell(f);
    ok = size >= 0 && std::fseek(f, 0, SEEK_SET) == 0;
  }
  if (ok) {
    bytes->resize(static_cast<size_t>(size));
    ok = size == 0 ||
         std::fread(bytes->data(), 1, bytes->size(), f) == bytes->size();
  }
  std::fclose(f);
  return ok;
}

}  // namespace

uint64_t Fnv1a(uint64_t h, const void* data, size_t len) {
  const uint8_t* bytes = static_cast<const uint8_t*>(data);
  for (size_t i = 0; i < len; ++i) {
    h ^= bytes[i];
    h *= kFnv1aPrime;
  }
  return h;
}

Status WriteSealedFile(const std::string& path, std::string_view magic,
                       std::span<const uint8_t> body) {
  const uint64_t checksum =
      Fnv1a(Fnv1a(kFnv1aOffset, magic.data(), magic.size()), body.data(),
            body.size());
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    return Status::IOError("cannot open '" + tmp + "' for writing");
  }
  const bool wrote =
      std::fwrite(magic.data(), 1, magic.size(), f) == magic.size() &&
      (body.empty() ||  // fwrite's buffer must be non-null
       std::fwrite(body.data(), 1, body.size(), f) == body.size()) &&
      std::fwrite(&checksum, 1, kTrailer, f) == kTrailer;
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

Status ReadSealedFile(const std::string& path, std::string_view magic,
                      std::vector<uint8_t>* bytes,
                      std::span<const uint8_t>* body) {
  if (!ReadFileBytes(path, bytes)) {
    return Status::IOError("cannot read '" + path + "'");
  }
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
