// Simple array persistence: raw binary (a uint64 count, then the doubles,
// in native byte order: the Serde<std::vector<double>> encoding of
// common/bytes.h) and one-column CSV. Synopses are persisted as serve
// frames (serve/format.h).
#ifndef DWMAXERR_DATA_IO_H_
#define DWMAXERR_DATA_IO_H_

#include <string>
#include <vector>

#include "common/status.h"

namespace dwm {

[[nodiscard]] Status WriteDoublesBinary(const std::string& path,
                                        const std::vector<double>& data);
// IOError when the file cannot be read; InvalidArgument when its count
// disagrees with its length (short, oversized or trailing bytes) or when a
// value is NaN or infinite (the message names the first such index).
// `data` is left untouched on failure.
[[nodiscard]] Status ReadDoublesBinary(const std::string& path,
                                       std::vector<double>* data);

[[nodiscard]] Status WriteDoublesCsv(const std::string& path,
                                     const std::vector<double>& data);
// IOError when the file cannot be read; InvalidArgument when a line is not
// a finite number (the message names its index). `data` is left untouched
// on failure.
[[nodiscard]] Status ReadDoublesCsv(const std::string& path,
                                    std::vector<double>* data);

}  // namespace dwm

#endif  // DWMAXERR_DATA_IO_H_
