#include "serve/format.h"

#include <cstring>
#include <span>
#include <string_view>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "common/sealed_file.h"

namespace dwm::serve {
namespace {

// 8-byte file magic; the trailing digit is cosmetic (the real format gate
// is SynopsisFrame::version, covered by the checksum).
constexpr std::string_view kMagic = "DWMSRV01";

// Legacy DWMSYN01 files: this 64-bit magic, then one Serde<Synopsis>, with
// no envelope. Read-only; every writer now emits a DWMSRV01 frame.
constexpr uint64_t kLegacyMagic = 0x44574d53594e3031ULL;  // "DWMSYN01"

// Decodes the rest of `reader` as one Serde<Synopsis>, which must consume
// it exactly. A short or overlong body is malformed; bytes that decode to an
// invalid synopsis keep Synopsis::Create's message ("duplicate coefficient
// index ..."), since the coefficients are data-driven even under a valid
// checksum. `path` only names the file in errors.
Status DecodeSynopsisBody(const std::string& path, ByteReader& reader,
                          Synopsis* synopsis) {
  const Status valid = DecodeSynopsis(reader, synopsis);
  if (!reader.ok() || !reader.Done()) {
    return Status::InvalidArgument("serve: malformed synopsis body in '" +
                                   path + "'");
  }
  return valid;
}

// Decodes a verified frame body:
//   uint32 version | string dataset | string algo | int64 budget | Synopsis
Status DecodeFrame(const std::string& path, std::span<const uint8_t> body,
                   SynopsisFrame* frame) {
  ByteReader reader(body.data(), body.size());
  SynopsisFrame decoded;
  decoded.version = reader.GetScalar<uint32_t>();
  if (decoded.version != kSynopsisFormatVersion) {
    return Status::InvalidArgument(
        "serve: '" + path + "' has format version " +
        std::to_string(decoded.version) + ", this build reads version " +
        std::to_string(kSynopsisFormatVersion));
  }
  decoded.dataset = Serde<std::string>::Get(reader);
  decoded.algo = Serde<std::string>::Get(reader);
  decoded.budget = Serde<int64_t>::Get(reader);
  DWM_RETURN_NOT_OK(DecodeSynopsisBody(path, reader, &decoded.synopsis));
  *frame = std::move(decoded);
  return Status::OK();
}

}  // namespace

Status SaveSynopsisFrame(const std::string& path, const SynopsisFrame& frame) {
  ByteBuffer body;
  body.PutScalar<uint32_t>(frame.version);
  Serde<std::string>::Put(body, frame.dataset);
  Serde<std::string>::Put(body, frame.algo);
  Serde<int64_t>::Put(body, frame.budget);
  Serde<Synopsis>::Put(body, frame.synopsis);
  return WriteSealedFile(path, kMagic, {body.data(), body.size()});
}

Status LoadSynopsisFrame(const std::string& path, SynopsisFrame* frame) {
  std::vector<uint8_t> bytes;
  std::span<const uint8_t> body;
  DWM_RETURN_NOT_OK(ReadSealedFile(path, kMagic, &bytes, &body));
  return DecodeFrame(path, body, frame);
}

Status LoadServableSynopsis(const std::string& path, SynopsisFrame* frame) {
  // One read serves both formats: the sealed check runs on the bytes
  // already in memory, and only a file without the frame magic falls back.
  std::vector<uint8_t> bytes;
  std::span<const uint8_t> body;
  const Status sealed = ReadSealedFile(path, kMagic, &bytes, &body);
  if (sealed.ok()) return DecodeFrame(path, body, frame);
  const auto starts_with = [&bytes](const void* magic) {
    return bytes.size() >= kMagic.size() &&
           std::memcmp(bytes.data(), magic, kMagic.size()) == 0;
  };
  if (sealed.code() == StatusCode::kIOError || starts_with(kMagic.data())) {
    return sealed;
  }
  if (!starts_with(&kLegacyMagic)) {
    return Status::InvalidArgument("not a synopsis file: " + path);
  }
  ByteReader reader(bytes.data() + kMagic.size(),
                    bytes.size() - kMagic.size());
  SynopsisFrame legacy;
  DWM_RETURN_NOT_OK(DecodeSynopsisBody(path, reader, &legacy.synopsis));
  legacy.budget = legacy.synopsis.size();
  *frame = std::move(legacy);
  return Status::OK();
}

}  // namespace dwm::serve
