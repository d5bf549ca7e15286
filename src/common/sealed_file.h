// Sealed files: the one on-disk envelope behind every durable format in the
// repository — the DWMCKPT2 checkpoint store (mr/checkpoint.h) and the
// DWMSRV02 serve frame (serve/format.h):
//
//   magic | body | uint64 XXH64(body, seed = XXH64(magic))   (native order)
//
// The magic names the checksum too: the '1' formats were sealed with a
// bytewise FNV-1a, so such a file fails the magic gate and is named as an
// old format rather than reported as corrupt.
//
// WriteSealedFile writes the whole envelope to `<path>.tmp` and renames it
// over `path`, so a killed writer never leaves a torn file under the final
// name. ReadSealedFile checks size, then magic, then checksum — only then is
// the body trusted enough to decode; a file of another format is named as
// such rather than reported as corrupt. Each format keeps only its own field
// encode/decode (common/bytes.h) and its version and identity gates.
// Unsealed binary files (data/io.h's raw doubles) use the same whole-file
// read and atomic write underneath.
#ifndef DWMAXERR_COMMON_SEALED_FILE_H_
#define DWMAXERR_COMMON_SEALED_FILE_H_

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace dwm {

// The repository's FNV-1a starting value. It is the published 64-bit
// offset basis with its last decimal digit dropped; partition hashes
// (mr/job.h), fault decisions (mr/faults.cc) and pinned test hashes were
// computed from it, so it stays. Sealed files no longer use it.
inline constexpr uint64_t kFnv1aOffset = 1469598103934665603ULL;
inline constexpr uint64_t kFnv1aPrime = 1099511628211ULL;

// Bytewise 64-bit FNV-1a: folds `len` bytes into the running hash `h`
// (start a fresh hash from kFnv1aOffset). Deterministic across platforms.
// Kept only where its value is part of the determinism contract; bulk
// hashing uses Xxh64.
uint64_t Fnv1a(uint64_t h, const void* data, size_t len);

// XXH64 (the published xxHash 64-bit algorithm, little-endian reads) of
// `len` bytes under `seed`. Several GB/s, against FNV-1a's one byte per
// multiply. Chain pieces by passing one result as the next seed.
uint64_t Xxh64(const void* data, size_t len, uint64_t seed = 0);

// The sealed-file trailer for `magic` | `body`: XXH64(body, XXH64(magic)).
uint64_t SealChecksum(std::string_view magic, std::span<const uint8_t> body);

// Reads the whole of `path` into *bytes. Returns IOError when the file
// cannot be opened or read.
[[nodiscard]] Status ReadFileBytes(const std::string& path,
                                   std::vector<uint8_t>* bytes);

// Writes the concatenation of `parts` to `<path>.tmp` and renames it over
// `path`. Returns IOError on any open, write or rename failure; the
// temporary file is removed on every failure path.
[[nodiscard]] Status WriteFileAtomic(
    const std::string& path,
    std::initializer_list<std::span<const uint8_t>> parts);

// Atomically writes magic | body | checksum to `path` via `<path>.tmp`.
// Returns IOError on any open, write or rename failure; the temporary file
// is removed on every failure path.
[[nodiscard]] Status WriteSealedFile(const std::string& path,
                                     std::string_view magic,
                                     std::span<const uint8_t> body);

// Reads `path` once into *bytes and verifies it: size, then magic, then
// checksum. On success *body views the bytes between the magic and the
// checksum (it borrows *bytes, no copy). Returns IOError when the file
// cannot be read and InvalidArgument when it is corrupt; *bytes keeps the
// raw contents whenever the file was readable, so a caller can still sniff
// a foreign format.
[[nodiscard]] Status ReadSealedFile(const std::string& path,
                                    std::string_view magic,
                                    std::vector<uint8_t>* bytes,
                                    std::span<const uint8_t>* body);

}  // namespace dwm

#endif  // DWMAXERR_COMMON_SEALED_FILE_H_
