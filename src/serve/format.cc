#include "serve/format.h"

#include <cstring>
#include <span>
#include <string_view>
#include <utility>
#include <vector>

#include "common/sealed_file.h"
#include "data/io.h"
#include "mr/bytes.h"

namespace dwm::serve {
namespace {

// 8-byte file magic; the trailing digit is cosmetic (the real format gate
// is SynopsisFrame::version, covered by the checksum).
constexpr std::string_view kMagic = "DWMSRV01";

// Decodes a verified frame body; `path` only names the file in errors.
Status DecodeFrame(const std::string& path, std::span<const uint8_t> body,
                   SynopsisFrame* frame) {
  mr::ByteReader reader(body.data(), body.size());
  SynopsisFrame decoded;
  decoded.version = reader.GetScalar<uint32_t>();
  if (decoded.version != kSynopsisFormatVersion) {
    return Status::InvalidArgument(
        "serve: '" + path + "' has format version " +
        std::to_string(decoded.version) + ", this build reads version " +
        std::to_string(kSynopsisFormatVersion));
  }
  decoded.dataset = mr::Serde<std::string>::Get(reader);
  decoded.algo = mr::Serde<std::string>::Get(reader);
  decoded.budget = mr::Serde<int64_t>::Get(reader);
  const int64_t domain = mr::Serde<int64_t>::Get(reader);
  const uint64_t count = reader.GetScalar<uint64_t>();
  // Every coefficient costs 16 bytes; a count the body cannot hold means
  // the (checksummed!) writer disagrees with this reader — reject before
  // looping, and never pre-reserve off a data-driven count. Divide rather
  // than multiply: count * 16 can wrap for a near-UINT64_MAX count.
  if (!reader.ok() || reader.remaining() % 16 != 0 ||
      count != reader.remaining() / 16) {
    return Status::InvalidArgument("serve: malformed frame body in '" + path +
                                   "'");
  }
  std::vector<Coefficient> coefficients;
  coefficients.reserve(static_cast<size_t>(count));
  for (uint64_t i = 0; i < count; ++i) {
    Coefficient c;
    c.index = mr::Serde<int64_t>::Get(reader);
    c.value = mr::Serde<double>::Get(reader);
    coefficients.push_back(c);
  }
  if (!reader.ok() || !reader.Done()) {
    return Status::InvalidArgument("serve: malformed frame body in '" + path +
                                   "'");
  }
  // The coefficients themselves are still data-driven: duplicate or
  // out-of-range indices must be an InvalidArgument, never a CHECK-abort.
  DWM_RETURN_NOT_OK(
      Synopsis::Create(domain, std::move(coefficients), &decoded.synopsis));
  *frame = std::move(decoded);
  return Status::OK();
}

}  // namespace

Status SaveSynopsisFrame(const std::string& path, const SynopsisFrame& frame) {
  mr::ByteBuffer body;
  body.PutScalar<uint32_t>(frame.version);
  mr::Serde<std::string>::Put(body, frame.dataset);
  mr::Serde<std::string>::Put(body, frame.algo);
  mr::Serde<int64_t>::Put(body, frame.budget);
  mr::Serde<int64_t>::Put(body, frame.synopsis.domain_size());
  body.PutScalar<uint64_t>(
      static_cast<uint64_t>(frame.synopsis.coefficients().size()));
  for (const Coefficient& c : frame.synopsis.coefficients()) {
    mr::Serde<int64_t>::Put(body, c.index);
    mr::Serde<double>::Put(body, c.value);
  }
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
  const bool has_magic =
      bytes.size() >= kMagic.size() &&
      std::memcmp(bytes.data(), kMagic.data(), kMagic.size()) == 0;
  if (sealed.code() == StatusCode::kIOError || has_magic) return sealed;
  // Legacy WriteSynopsis format: ReadSynopsis validates through
  // Synopsis::Create, so corrupt legacy files also surface as a Status.
  SynopsisFrame legacy;
  DWM_RETURN_NOT_OK(ReadSynopsis(path, &legacy.synopsis));
  legacy.budget = legacy.synopsis.size();
  *frame = std::move(legacy);
  return Status::OK();
}

}  // namespace dwm::serve
