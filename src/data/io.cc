#include "data/io.h"

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
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
  data->clear();
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::istringstream ss(line);
    double v = 0.0;
    if (!(ss >> v)) {
      return Status::IOError("unparsable CSV line in " + path + ": " + line);
    }
    data->push_back(v);
  }
  return Status::OK();
}

}  // namespace dwm
