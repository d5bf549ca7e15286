// Immutable, versioned, checksummed on-disk synopsis format: the one file
// every synopsis writer emits and the serving layer (serve/registry.h)
// loads. A build run packs its synopsis plus provenance (dataset,
// algorithm, budget) into one DWMSRV01 sealed file (common/sealed_file.h),
// the envelope the checkpoint store shares; the synopsis itself is laid out
// by Serde<Synopsis> (wavelet/synopsis.h). The loader verifies size →
// checksum → magic (the sealed-file reader), then decode → version →
// coefficient validity (Synopsis::Create) and surfaces every failure as a
// Status: a truncated, bit-flipped or version-skewed file is rejected, never
// trusted, and can never abort a serving process.
#ifndef DWMAXERR_SERVE_FORMAT_H_
#define DWMAXERR_SERVE_FORMAT_H_

#include <cstdint>
#include <string>

#include "common/status.h"
#include "wavelet/synopsis.h"

namespace dwm::serve {

inline constexpr uint32_t kSynopsisFormatVersion = 1;

// One decoded serve-format frame. Every serve-format serde struct carries
// an explicit `version` member (enforced by dwm_lint's
// sealed-format-version rule): the on-disk format may evolve, and a reader
// must reject a frame written by a different format before trusting any
// field in it.
struct SynopsisFrame {
  uint32_t version = kSynopsisFormatVersion;
  std::string dataset;  // dataset id the synopsis summarizes
  std::string algo;     // builder id, e.g. "greedy_abs" or "dih"
  int64_t budget = 0;   // coefficient budget B the builder ran with
  Synopsis synopsis;    // validated via Synopsis::Create on load
};

// Atomically writes `frame` to `path` (WriteSealedFile), so a killed writer
// can never leave a torn frame behind. Returns IOError on any write failure.
[[nodiscard]] Status SaveSynopsisFrame(const std::string& path,
                                       const SynopsisFrame& frame);

// Loads and verifies one frame. On any failure — unreadable file, short
// file, checksum mismatch, wrong magic, version skew, or coefficients that
// fail Synopsis::Create — returns a non-OK Status and leaves *frame
// untouched. Never aborts on file bytes.
[[nodiscard]] Status LoadSynopsisFrame(const std::string& path,
                                       SynopsisFrame* frame);

// Loads either a serve-format frame or a legacy DWMSYN01 file (the
// unsealed "DWMSYN01" magic followed by one Serde<Synopsis>, which dwm_cli
// wrote before it wrote frames): the legacy payload is wrapped in a frame
// with empty dataset/algo and budget = retained coefficient count, so every
// synopsis dwm_cli ever wrote is servable. The file is read once; only
// bytes without the DWMSRV01 magic are checked for the legacy one.
[[nodiscard]] Status LoadServableSynopsis(const std::string& path,
                                          SynopsisFrame* frame);

}  // namespace dwm::serve

#endif  // DWMAXERR_SERVE_FORMAT_H_
