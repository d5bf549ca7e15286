#ifndef DWMAXERR_SERVE_FORMAT_H_
#define DWMAXERR_SERVE_FORMAT_H_
struct SynopsisFrame {  // sealed-format-version: no version member
  int64_t budget = 0;
};
#endif  // DWMAXERR_SERVE_FORMAT_H_
