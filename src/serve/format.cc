#include "serve/format.h"

#include <span>
#include <string_view>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "common/sealed_file.h"

namespace dwm::serve {
namespace {

// 8-byte file magic. Its digit names the envelope's checksum (01 was
// FNV-1a, 02 is XXH64); the body's layout is gated by
// SynopsisFrame::version, covered by the checksum.
constexpr std::string_view kMagic = "DWMSRV02";

// Decodes a verified frame body:
//   uint32 version | string dataset | string algo | int64 budget | Synopsis
// The Serde<Synopsis> must consume the rest exactly. A short or overlong
// body is malformed; bytes that decode to an invalid synopsis keep
// Synopsis::Create's message ("duplicate coefficient index ..."), since the
// coefficients are data-driven even under a valid checksum. `path` only
// names the file in errors.
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
  const Status valid = DecodeSynopsis(reader, &decoded.synopsis);
  if (!reader.ok() || !reader.Done()) {
    return Status::InvalidArgument("serve: malformed synopsis body in '" +
                                   path + "'");
  }
  DWM_RETURN_NOT_OK(valid);
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

}  // namespace dwm::serve
