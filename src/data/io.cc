#include "data/io.h"

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>

#include "common/bytes.h"
#include "common/sealed_file.h"

namespace dwm {

Status WriteDoublesBinary(const std::string& path,
                          const std::vector<double>& data) {
  ByteBuffer body;
  Serde<std::vector<double>>::Put(body, data);
  return WriteFileAtomic(path, {{body.data(), body.size()}});
}

Status ReadDoublesBinary(const std::string& path, std::vector<double>* data) {
  std::vector<uint8_t> bytes;
  DWM_RETURN_NOT_OK(ReadFileBytes(path, &bytes));
  // The count is file bytes: a short, oversized or overlong file fails the
  // reader or leaves bytes over, and never sizes an allocation by itself.
  ByteReader reader(bytes.data(), bytes.size());
  std::vector<double> decoded = Serde<std::vector<double>>::Get(reader);
  if (!reader.ok() || !reader.Done()) {
    return Status::InvalidArgument("malformed raw-doubles file: " + path);
  }
  // Every algorithm takes finite data: a NaN or infinity poisons every
  // coefficient above it, and the greedy discard loops order their keys
  // on the premise that none is NaN.
  for (size_t i = 0; i < decoded.size(); ++i) {
    if (!std::isfinite(decoded[i])) {
      return Status::InvalidArgument("non-finite value at index " +
                                     std::to_string(i) + " in " + path);
    }
  }
  *data = std::move(decoded);
  return Status::OK();
}

Status WriteDoublesCsv(const std::string& path,
                       const std::vector<double>& data) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return Status::IOError("cannot open for write: " + path);
  for (double v : data) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g\n", v);
    out << buf;
  }
  if (!out) return Status::IOError("short write: " + path);
  return Status::OK();
}

Status ReadDoublesCsv(const std::string& path, std::vector<double>* data) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open for read: " + path);
  std::vector<double> parsed;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::istringstream ss(line);
    double v = 0.0;
    // The stream rejects "nan", "inf" and out-of-range text itself.
    if (!(ss >> v) || !std::isfinite(v)) {
      return Status::InvalidArgument(
          "not a finite number at index " + std::to_string(parsed.size()) +
          " in " + path + ": " + line);
    }
    parsed.push_back(v);
  }
  *data = std::move(parsed);
  return Status::OK();
}

}  // namespace dwm
