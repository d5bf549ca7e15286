#ifndef DWMAXERR_MR_CHECKPOINT_H_
#define DWMAXERR_MR_CHECKPOINT_H_
struct StageCheckpoint {
  uint32_t version = 0;
};
#endif  // DWMAXERR_MR_CHECKPOINT_H_
